//! Translation lookaside buffer model.
//!
//! The RISC System/6000 implements 4 kB pages with a 512-entry TLB; a miss
//! costs 36–54 cycles (paper §2/§5). Modeled as a set-associative cache of
//! page numbers with true LRU within a set.

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries (512 on the POWER2).
    pub entries: usize,
    /// Associativity (2-way).
    pub ways: usize,
    /// Page size in bytes (4096).
    pub page_bytes: u64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            entries: 512,
            ways: 2,
            page_bytes: 4096,
        }
    }
}

/// A set-associative TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// Set count minus one: the set count is a power of two, so a mask
    /// picks the set without a divide.
    set_mask: usize,
    page_shift: u32,
    tags: Vec<u64>,
    valid: Vec<bool>,
    stamp: Vec<u64>,
    tick: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    /// Panics unless the page size is a power of two and entries divide
    /// evenly into a power-of-two number of sets.
    pub fn new(config: TlbConfig) -> Self {
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(config.ways >= 1 && config.entries.is_multiple_of(config.ways));
        let sets = config.entries / config.ways;
        assert!(
            sets.is_power_of_two(),
            "TLB set count must be a power of two, got {sets}"
        );
        Tlb {
            config,
            set_mask: sets - 1,
            page_shift: config.page_bytes.trailing_zeros(),
            tags: vec![0; config.entries],
            valid: vec![false; config.entries],
            stamp: vec![0; config.entries],
            tick: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Translates `addr`; returns `true` on a TLB hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let page = addr >> self.page_shift;
        let set = (page as usize) & self.set_mask;
        let base = set * self.config.ways;
        for w in 0..self.config.ways {
            let i = base + w;
            if self.valid[i] && self.tags[i] == page {
                self.stamp[i] = self.tick;
                return true;
            }
        }
        // Miss: install with LRU replacement.
        let mut victim = base;
        let mut best = u64::MAX;
        for w in 0..self.config.ways {
            let i = base + w;
            if !self.valid[i] {
                victim = i;
                break;
            }
            if self.stamp[i] < best {
                best = self.stamp[i];
                victim = i;
            }
        }
        self.tags[victim] = page;
        self.valid[victim] = true;
        self.stamp[victim] = self.tick;
        false
    }

    /// Drops every translation (job start / address-space switch).
    pub fn flush(&mut self) {
        self.valid.fill(false);
    }

    /// Resident translation count (diagnostics/tests).
    pub fn resident(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut t = Tlb::new(TlbConfig::default());
        assert!(!t.access(0x1234_5678));
        assert!(t.access(0x1234_5678));
        assert!(t.access(0x1234_5000), "same page");
        assert!(!t.access(0x1234_5678 + 4096), "next page");
    }

    #[test]
    fn capacity_is_512_pages() {
        let mut t = Tlb::new(TlbConfig::default());
        // Touch 512 consecutive pages: fills exactly.
        for p in 0..512u64 {
            t.access(p * 4096);
        }
        assert_eq!(t.resident(), 512);
        // All still resident (consecutive pages spread over all sets).
        for p in 0..512u64 {
            assert!(t.access(p * 4096), "page {p} evicted prematurely");
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut t = Tlb::new(TlbConfig::default());
        // 1024 pages cycled: every access should miss after warmup
        // (direct-mapped-like conflict under LRU with 2x oversubscription).
        for p in 0..1024u64 {
            t.access(p * 4096);
        }
        let mut misses = 0;
        for p in 0..1024u64 {
            if !t.access(p * 4096) {
                misses += 1;
            }
        }
        assert_eq!(misses, 1024, "cyclic overflow defeats LRU");
    }

    #[test]
    fn sequential_real8_tlb_rate_matches_paper() {
        // One TLB miss per 512 real*8 elements (4096/8, paper §5).
        let mut t = Tlb::new(TlbConfig::default());
        let mut misses = 0;
        let n = 512 * 64u64;
        for i in 0..n {
            if !t.access(0x7000_0000 + i * 8) {
                misses += 1;
            }
        }
        assert_eq!(misses, n / 512);
    }

    #[test]
    #[should_panic(expected = "TLB set count must be a power of two")]
    fn non_power_of_two_set_count_rejected() {
        // 384 entries in 2 ways: 192 sets.
        Tlb::new(TlbConfig {
            entries: 384,
            ways: 2,
            page_bytes: 4096,
        });
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(TlbConfig::default());
        t.access(0);
        t.flush();
        assert_eq!(t.resident(), 0);
        assert!(!t.access(0));
    }
}
