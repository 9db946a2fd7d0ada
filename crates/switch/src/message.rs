//! Message abstractions for the CFD communication patterns.
//!
//! The paper's workload communicates "generally through nearest neighbor
//! communication" after a domain decomposition (§4). The helpers here
//! compute halo-exchange message sizes for block-decomposed 3-D grids so
//! the workload generator can charge realistic per-step traffic.

/// One point-to-point message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending node (cluster-local index).
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
}

/// Bytes exchanged per face per step for a block of `nx × ny × nz` grid
/// points with `vars` variables of `bytes_per_var` each: a one-cell-deep
/// ghost layer on each face.
///
/// Returns the *largest* face size — nearest-neighbor exchanges are
/// dominated by the largest face, and schedulers overlap the rest.
pub fn halo_bytes(nx: u64, ny: u64, nz: u64, vars: u64, bytes_per_var: u64) -> u64 {
    let face_xy = nx * ny;
    let face_xz = nx * nz;
    let face_yz = ny * nz;
    let max_face = face_xy.max(face_xz).max(face_yz);
    max_face * vars * bytes_per_var
}

/// Number of exchange neighbors for a 3-D domain decomposition of `n`
/// blocks: up to 6 (axis-aligned faces), fewer for small decompositions.
pub fn neighbor_count(n_blocks: u32) -> u32 {
    match n_blocks {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=26 => 4,
        _ => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_of_cubic_block() {
        // 50³ grid, 25 vars, real*8: max face 50x50 x 25 x 8 = 500 kB.
        let b = halo_bytes(50, 50, 50, 25, 8);
        assert_eq!(b, 50 * 50 * 25 * 8);
    }

    #[test]
    fn halo_picks_largest_face() {
        let b = halo_bytes(96, 96, 32, 5, 8);
        assert_eq!(b, 96 * 96 * 5 * 8);
    }

    #[test]
    fn neighbor_counts_monotone() {
        assert_eq!(neighbor_count(1), 0);
        assert_eq!(neighbor_count(2), 1);
        assert_eq!(neighbor_count(8), 3);
        assert_eq!(neighbor_count(16), 4);
        assert_eq!(neighbor_count(64), 6);
        assert_eq!(neighbor_count(144), 6);
        let mut prev = 0;
        for n in 1..150 {
            let c = neighbor_count(n);
            assert!(c >= prev || c >= 1, "roughly nondecreasing");
            prev = prev.max(c);
        }
    }

    #[test]
    fn message_is_plain_data() {
        let m = Message {
            src: 3,
            dst: 7,
            bytes: 4096,
        };
        assert_eq!(m, m);
    }
}
