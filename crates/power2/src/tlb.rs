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
    /// `entries` translations, row-major by set.
    entries: Vec<Entry>,
    tick: u64,
}

/// One translation: its tag, LRU stamp and valid bit side by side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    /// The page number held, `addr >> page_shift`.
    tag: u64,
    /// LRU stamp; larger = more recently used.
    stamp: u64,
    valid: bool,
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
            entries: vec![Entry::default(); config.entries],
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
        self.search(addr >> self.page_shift).0
    }

    /// [`Tlb::access`], checking entry `hint` first: when it holds the
    /// addressed page (valid, same tag), the translation hits there
    /// without a way search. A page lives only in its own set and at
    /// most once, so any hint, stale or out of range, leaves the same
    /// outcome, tags, valid bits and LRU stamps as the unhinted access.
    /// On return `hint` names the entry the page occupies.
    #[inline(always)]
    pub fn access_hinted(&mut self, addr: u64, hint: &mut usize) -> bool {
        self.tick += 1;
        let page = addr >> self.page_shift;
        if let Some(entry) = self.entries.get_mut(*hint) {
            if entry.valid && entry.tag == page {
                entry.stamp = self.tick;
                return true;
            }
        }
        let (hit, entry) = self.search(page);
        *hint = entry;
        hit
    }

    /// The way search for `page`, installing it over the LRU entry of its
    /// set on a miss; `tick` has already advanced. Returns whether it hit
    /// and the index of the entry the page now occupies.
    #[inline(always)]
    fn search(&mut self, page: u64) -> (bool, usize) {
        let base = ((page as usize) & self.set_mask) * self.config.ways;
        for i in base..base + self.config.ways {
            if self.entries[i].valid && self.entries[i].tag == page {
                self.entries[i].stamp = self.tick;
                return (true, i);
            }
        }
        // Miss: install with LRU replacement.
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + self.config.ways {
            if !self.entries[i].valid {
                victim = i;
                break;
            }
            if self.entries[i].stamp < best {
                best = self.entries[i].stamp;
                victim = i;
            }
        }
        self.entries[victim] = Entry {
            tag: page,
            stamp: self.tick,
            valid: true,
        };
        (false, victim)
    }

    /// Drops every translation (job start / address-space switch).
    pub fn flush(&mut self) {
        for entry in &mut self.entries {
            entry.valid = false;
        }
    }

    /// Resident translation count (diagnostics/tests).
    pub fn resident(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// On the POWER2 TLB, any hint (the entry a stream's last
        /// translation returned, another stream's, a random one out of
        /// range half the time, or `usize::MAX`) gives the unhinted
        /// translation's outcome and leaves the same tags, valid bits and
        /// LRU stamps. Four streams walk 8 bytes a step or jump among
        /// three times as many pages as four sets hold; an occasional
        /// flush leaves hints on invalid entries that still carry the tag.
        #[test]
        fn any_hint_leaves_the_unhinted_translation(
            draws in prop::collection::vec(0u64..u64::MAX, 1..2_000),
        ) {
            let config = TlbConfig::default();
            let sets = (config.entries / config.ways) as u64;
            let pool = 4 * config.ways as u64 * 3;
            let mut plain = Tlb::new(config);
            let mut hinted = plain.clone();
            let mut addrs = [0u64; 4];
            let mut hints = [0usize; 4];
            for (step, &r) in draws.iter().enumerate() {
                let s = (r & 3) as usize;
                if (r >> 2) % 4 == 0 {
                    let pick = (r >> 4) % pool;
                    let page = (pick / 4) * sets + pick % 4;
                    addrs[s] = page * config.page_bytes + (r >> 20) % config.page_bytes;
                } else {
                    addrs[s] += 8 << ((r >> 12) % 10);
                }
                if (r >> 32) % 256 == 0 {
                    plain.flush();
                    hinted.flush();
                }
                let mut hint = match (r >> 44) % 16 {
                    0 => hints[(s + 1) % 4],
                    1 => (r >> 52) as usize % (2 * config.entries),
                    2 => usize::MAX,
                    _ => hints[s],
                };
                let want = plain.access(addrs[s]);
                let got = hinted.access_hinted(addrs[s], &mut hint);
                hints[s] = hint;
                prop_assert_eq!(got, want, "step {}", step);
                let entry = hinted.entries[hint];
                prop_assert!(entry.valid && entry.tag == addrs[s] >> hinted.page_shift,
                    "the hint names the page's entry");
                prop_assert!(hinted.entries == plain.entries && hinted.tick == plain.tick,
                    "step {}: the entries differ", step);
            }
        }
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
