//! Address generators for storage references.
//!
//! The memory behaviour the paper analyses — 1 % data-cache miss ratio,
//! 0.1 % TLB miss ratio, the "sequential access of a single large array"
//! reference point (a miss every 32 `real*8` elements for 256-byte lines,
//! a TLB miss every 512 elements for 4 kB pages) — is entirely a function
//! of the *address pattern* of the storage references. Kernels therefore
//! bind each memory instruction to an [`AddrGen`] that produces the next
//! virtual address on demand.

/// The address pattern an [`AddrGen`] follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrPattern {
    /// Always the same address (a scalar in memory).
    Fixed { addr: u64 },
    /// `base, base+stride, base+2*stride, …`, wrapping after `span` bytes.
    /// `stride = 8, span ≫ cache` reproduces the paper's sequential-access
    /// reference point.
    Seq { base: u64, stride: u64, span: u64 },
    /// Walks sequentially inside a tile of `tile` bytes, wrapping — a
    /// cache-blocked access that stays resident (the paper's 256 kB
    /// blocked matmul).
    Tile { base: u64, stride: u64, tile: u64 },
    /// Two-level walk: `inner` consecutive elements `stride` apart, then a
    /// jump of `outer`; wraps after `span` bytes. Models the large-stride
    /// plane sweeps that drive CFD TLB misses.
    Strided2D {
        base: u64,
        stride: u64,
        inner: u32,
        outer: u64,
        span: u64,
    },
    /// Uniform-ish pseudo-random addresses in `[base, base+span)`,
    /// aligned to `align` bytes. Deterministic (internal LCG).
    Random { base: u64, span: u64, align: u64 },
}

/// A stateful generator producing the address stream of one array walk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AddrGen {
    pattern: AddrPattern,
    /// Linear position within the pattern; its meaning varies per pattern
    /// but always advances deterministically. `Strided2D`: the current
    /// row's offset.
    cursor: u64,
    /// LCG state for `Random`.
    rng: u64,
    /// `Strided2D`'s walk within a row (all zero for other patterns).
    rows: RowWalk,
}

/// Where a `Strided2D` walk is within its row, with its steps reduced
/// modulo the span once, so each address costs adds and compares. At
/// step `k` the row offset (the generator's cursor) is `⌊k/inner⌋·outer
/// mod span` and `col_off` is `(k mod inner)·stride mod span`; their sum
/// modulo the span is the address's offset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct RowWalk {
    /// `max(span, 1)`: the modulus.
    wrap: u64,
    /// `stride mod wrap` and `outer mod wrap`.
    step: u64,
    jump: u64,
    /// `max(inner, 1)` and the column index `k mod inner`.
    inner: u32,
    col: u32,
    col_off: u64,
}

impl AddrGen {
    /// Creates a generator at the start of its pattern.
    pub fn new(pattern: AddrPattern) -> Self {
        let rows = match pattern {
            AddrPattern::Strided2D {
                stride,
                inner,
                outer,
                span,
                ..
            } => {
                let wrap = span.max(1);
                RowWalk {
                    wrap,
                    step: stride % wrap,
                    jump: outer % wrap,
                    inner: inner.max(1),
                    ..RowWalk::default()
                }
            }
            _ => RowWalk::default(),
        };
        AddrGen {
            pattern,
            cursor: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            rows,
        }
    }

    /// The pattern this generator follows.
    pub fn pattern(&self) -> AddrPattern {
        self.pattern
    }

    /// Resets to the start of the pattern (fresh job on a node).
    pub fn reset(&mut self) {
        *self = AddrGen::new(self.pattern);
    }

    /// Produces the next virtual address.
    #[inline]
    pub fn next_addr(&mut self) -> u64 {
        match self.pattern {
            AddrPattern::Fixed { addr } => addr,
            AddrPattern::Seq { base, stride, span } => {
                let a = base + self.cursor;
                self.cursor = wrap_step(self.cursor, stride, span.max(stride));
                a
            }
            AddrPattern::Tile { base, stride, tile } => {
                let a = base + self.cursor;
                self.cursor = wrap_step(self.cursor, stride, tile.max(stride));
                a
            }
            AddrPattern::Strided2D { base, .. } => {
                let w = &mut self.rows;
                let off = wrap_step(self.cursor, w.col_off, w.wrap);
                w.col += 1;
                if w.col == w.inner {
                    w.col = 0;
                    w.col_off = 0;
                    self.cursor = wrap_step(self.cursor, w.jump, w.wrap);
                } else {
                    w.col_off = wrap_step(w.col_off, w.step, w.wrap);
                }
                base + off
            }
            AddrPattern::Random { base, span, align } => {
                // 64-bit LCG (Knuth MMIX constants); top bits are well mixed.
                self.rng = self
                    .rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let align = align.max(1);
                let slots = (span / align).max(1);
                base + ((self.rng >> 17) % slots) * align
            }
        }
    }
}

/// `(cursor + stride) % wrap` for `cursor < wrap` and `stride <= wrap`:
/// the sum stays below `2 * wrap`, so one compare-and-subtract replaces
/// the divide.
#[inline]
fn wrap_step(cursor: u64, stride: u64, wrap: u64) -> u64 {
    let next = cursor + stride;
    if next >= wrap {
        next - wrap
    } else {
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_repeats() {
        let mut g = AddrGen::new(AddrPattern::Fixed { addr: 0x1000 });
        assert_eq!(g.next_addr(), 0x1000);
        assert_eq!(g.next_addr(), 0x1000);
    }

    #[test]
    fn seq_walks_and_wraps() {
        let mut g = AddrGen::new(AddrPattern::Seq {
            base: 0x1000,
            stride: 8,
            span: 24,
        });
        assert_eq!(g.next_addr(), 0x1000);
        assert_eq!(g.next_addr(), 0x1008);
        assert_eq!(g.next_addr(), 0x1010);
        assert_eq!(g.next_addr(), 0x1000); // wrapped
    }

    #[test]
    fn tile_stays_within_tile() {
        let mut g = AddrGen::new(AddrPattern::Tile {
            base: 0x4000,
            stride: 16,
            tile: 64,
        });
        for _ in 0..100 {
            let a = g.next_addr();
            assert!((0x4000..0x4040).contains(&a));
        }
    }

    #[test]
    fn strided2d_jumps_by_outer() {
        let mut g = AddrGen::new(AddrPattern::Strided2D {
            base: 0,
            stride: 8,
            inner: 2,
            outer: 4096,
            span: 1 << 30,
        });
        assert_eq!(g.next_addr(), 0);
        assert_eq!(g.next_addr(), 8);
        assert_eq!(g.next_addr(), 4096);
        assert_eq!(g.next_addr(), 4104);
        assert_eq!(g.next_addr(), 8192);
    }

    #[test]
    fn random_within_bounds_and_aligned() {
        let mut g = AddrGen::new(AddrPattern::Random {
            base: 0x10_0000,
            span: 0x1_0000,
            align: 8,
        });
        for _ in 0..1000 {
            let a = g.next_addr();
            assert!((0x10_0000..0x11_0000).contains(&a));
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn random_is_deterministic() {
        let p = AddrPattern::Random {
            base: 0,
            span: 4096,
            align: 8,
        };
        let mut a = AddrGen::new(p);
        let mut b = AddrGen::new(p);
        for _ in 0..64 {
            assert_eq!(a.next_addr(), b.next_addr());
        }
    }

    #[test]
    fn reset_restarts_stream() {
        let mut g = AddrGen::new(AddrPattern::Seq {
            base: 0,
            stride: 8,
            span: 1 << 20,
        });
        let first: Vec<u64> = (0..10).map(|_| g.next_addr()).collect();
        g.reset();
        let second: Vec<u64> = (0..10).map(|_| g.next_addr()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn seq_miss_rate_matches_paper_arithmetic() {
        // real*8 sequential access with 256-byte lines: one new line every
        // 32 elements (paper §5).
        let mut g = AddrGen::new(AddrPattern::Seq {
            base: 0,
            stride: 8,
            span: 1 << 30,
        });
        let mut lines = std::collections::HashSet::new();
        let n = 32 * 100;
        for _ in 0..n {
            lines.insert(g.next_addr() / 256);
        }
        assert_eq!(lines.len(), 100);
    }

    #[test]
    fn stride_beyond_span_stays_at_base() {
        // max(span, stride) = stride: every step wraps straight back.
        for span in [0, 8, 24] {
            let mut g = AddrGen::new(AddrPattern::Seq {
                base: 0x2000,
                stride: 32,
                span,
            });
            for _ in 0..4 {
                assert_eq!(g.next_addr(), 0x2000);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `Seq` and `Tile` walks visit `base + (k·stride) mod
        /// max(span, stride)` at step `k`, strides at or beyond the span
        /// included. A `Strided2D` walk visits `base + (⌊k/inner⌋·outer +
        /// (k mod inner)·stride) mod max(span, 1)`, an `inner` of 0
        /// reading as 1, and strides and jumps at or beyond the span
        /// included.
        #[test]
        fn wrapping_walks_match_the_modulo_formula(
            base in 0u64..1 << 40,
            stride in 1u64..1 << 16,
            span in 0u64..1 << 17,
            steps in 0usize..3_000,
            kind in 0u8..3,
            inner in 0u32..70,
            outer in 0u64..1 << 18,
        ) {
            let pattern = match kind {
                0 => AddrPattern::Seq { base, stride, span },
                1 => AddrPattern::Tile { base, stride, tile: span },
                _ => AddrPattern::Strided2D { base, stride, inner, outer, span },
            };
            let mut g = AddrGen::new(pattern);
            for k in 0..steps as u64 {
                let want = if kind == 2 {
                    let inner = u64::from(inner.max(1));
                    base + ((k / inner) * outer + (k % inner) * stride) % span.max(1)
                } else {
                    base + (k * stride) % span.max(stride)
                };
                prop_assert_eq!(g.next_addr(), want, "step {} of {:?}", k, pattern);
            }
        }
    }
}
