//! Set-associative cache model with write-back + write-allocate policy.
//!
//! Used for both the 256 kB / 4-way / 256-byte-line data cache and the
//! instruction cache. Castouts (evictions of modified lines) are reported
//! so the SCU `dcache_store` counter can see them, and every miss is a
//! `dcache_reload` / `icache_reload` transfer.

/// Store handling policy (ablation: Table 1's `dcache_store` semantics —
/// castouts — exist only under write-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Stores dirty the line; memory sees data only on eviction (castout).
    WriteBack,
    /// Every store propagates to memory immediately; no dirty state.
    WriteThrough,
}

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (a power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Total number of lines.
    pub fn lines(&self) -> usize {
        (self.bytes / self.line_bytes) as usize
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.ways
    }
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Whether a modified line was evicted to make room (castout).
    pub castout: bool,
    /// Whether this access pushed data to memory: a castout under
    /// write-back, or the store itself under write-through — what the
    /// SCU `dcache_store` counter sees.
    pub memory_write: bool,
}

/// A set-associative, true-LRU, write-back/write-allocate cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    policy: WritePolicy,
    /// Set count minus one: the set count is a power of two, so a mask
    /// picks the set without a divide.
    set_mask: usize,
    ways: usize,
    line_shift: u32,
    /// `sets * ways` line slots, row-major by set.
    slots: Vec<Slot>,
    tick: u64,
}

/// One line slot: its tag, LRU stamp and state bits side by side, so an
/// access reads and writes one slot's memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    /// The line number held, `addr >> line_shift`.
    tag: u64,
    /// LRU stamp; larger = more recently used.
    stamp: u64,
    valid: bool,
    dirty: bool,
}

impl Slot {
    /// A hit at `tick`: re-stamps the slot for LRU and, under
    /// write-back, dirties it on a store.
    #[inline(always)]
    fn hit(&mut self, tick: u64, is_store: bool, write_through: bool) -> AccessOutcome {
        self.stamp = tick;
        if is_store && !write_through {
            self.dirty = true;
        }
        AccessOutcome {
            hit: true,
            castout: false,
            memory_write: is_store && write_through,
        }
    }
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    /// Panics unless `line_bytes` is a power of two and the geometry
    /// divides evenly into a power-of-two number of sets.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways >= 1, "need at least one way");
        assert_eq!(
            config.lines() % config.ways,
            0,
            "lines must divide evenly into ways"
        );
        let sets = config.sets();
        assert!(sets >= 1, "need at least one set");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        Cache {
            config,
            policy: WritePolicy::WriteBack,
            set_mask: sets - 1,
            ways: config.ways,
            line_shift: config.line_bytes.trailing_zeros(),
            slots: vec![Slot::default(); sets * config.ways],
            tick: 0,
        }
    }

    /// Creates an empty cache with an explicit write policy.
    pub fn with_policy(config: CacheConfig, policy: WritePolicy) -> Self {
        let mut c = Self::new(config);
        c.policy = policy;
        c
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The write policy.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// Performs one access. `is_store` marks the line dirty (write-back,
    /// write-allocate: a store miss also brings the line in).
    #[inline]
    pub fn access(&mut self, addr: u64, is_store: bool) -> AccessOutcome {
        self.tick += 1;
        self.search(addr >> self.line_shift, is_store).0
    }

    /// [`Cache::access`], checking slot `hint` first: when it holds the
    /// addressed line (valid, same tag), the access is a hit there
    /// without a way search. A line lives only in its own set and at
    /// most once, so a matching slot is the one the search would find,
    /// and any hint, stale or out of range, leaves the same outcome,
    /// tags, valid and dirty bits and LRU stamps as the unhinted access.
    /// On return `hint` names the slot the line occupies, so a stream
    /// that passes the same hint back finds its line there until the
    /// line is evicted.
    #[inline(always)]
    pub fn access_hinted(&mut self, addr: u64, is_store: bool, hint: &mut usize) -> AccessOutcome {
        self.tick += 1;
        let line = addr >> self.line_shift;
        if let Some(slot) = self.slots.get_mut(*hint) {
            if slot.valid && slot.tag == line {
                let write_through = self.policy == WritePolicy::WriteThrough;
                return slot.hit(self.tick, is_store, write_through);
            }
        }
        let (outcome, slot) = self.search(line, is_store);
        *hint = slot;
        outcome
    }

    /// The way search of an access to `line`, with the LRU victim choice
    /// on a miss; `tick` has already advanced. Returns the outcome and
    /// the index of the slot the line now occupies.
    #[inline(always)]
    fn search(&mut self, line: u64, is_store: bool) -> (AccessOutcome, usize) {
        let write_through = self.policy == WritePolicy::WriteThrough;
        let base = ((line as usize) & self.set_mask) * self.ways;
        for i in base..base + self.ways {
            if self.slots[i].valid && self.slots[i].tag == line {
                return (self.slots[i].hit(self.tick, is_store, write_through), i);
            }
        }
        // Miss: pick victim = invalid way, else LRU.
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + self.ways {
            if !self.slots[i].valid {
                victim = i;
                break;
            }
            if self.slots[i].stamp < best {
                best = self.slots[i].stamp;
                victim = i;
            }
        }
        let castout = self.slots[victim].valid && self.slots[victim].dirty;
        self.slots[victim] = Slot {
            tag: line,
            stamp: self.tick,
            valid: true,
            dirty: is_store && !write_through,
        };
        let outcome = AccessOutcome {
            hit: false,
            castout,
            memory_write: castout || (is_store && write_through),
        };
        (outcome, victim)
    }

    /// Invalidates everything without writing back (context switch on a
    /// dedicated node — we model jobs as starting cold).
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            slot.valid = false;
            slot.dirty = false;
        }
    }

    /// Number of currently valid lines (diagnostics/tests).
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }

    /// Number of currently dirty lines (diagnostics/tests).
    pub fn dirty_lines(&self) -> usize {
        self.slots.iter().filter(|s| s.dirty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64-byte lines = 512 bytes.
        Cache::new(CacheConfig {
            bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x103F, false).hit, "same line");
        assert!(!c.access(0x1040, false).hit, "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 sets * 64 B).
        let a = 0x0000;
        let b = a + 4 * 64;
        let d = b + 4 * 64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a most recent
        c.access(d, false); // evicts b
        assert!(c.access(a, false).hit);
        assert!(!c.access(b, false).hit, "b was the LRU victim");
    }

    #[test]
    fn castout_only_on_dirty_eviction() {
        let mut c = tiny();
        let a = 0x0000;
        let b = a + 4 * 64;
        let d = b + 4 * 64;
        let e = d + 4 * 64;
        assert!(!c.access(a, true).castout, "filling an invalid way");
        c.access(b, false);
        // Evict a (dirty) -> castout.
        let out = c.access(d, false);
        assert!(!out.hit);
        assert!(out.castout, "dirty line write-back");
        // Evict b (clean) -> no castout.
        let out = c.access(e, false);
        assert!(!out.hit);
        assert!(!out.castout);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x2000, false);
        assert_eq!(c.dirty_lines(), 0);
        c.access(0x2000, true);
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = tiny();
        c.access(0x0, true);
        c.access(0x40, false);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.dirty_lines(), 0);
        assert!(!c.access(0x0, false).hit);
    }

    #[test]
    fn nas_dcache_geometry() {
        let c = Cache::new(CacheConfig {
            bytes: 256 * 1024,
            ways: 4,
            line_bytes: 256,
        });
        assert_eq!(c.config().lines(), 1024);
        assert_eq!(c.config().sets(), 256);
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        // A 256-byte-line, 4-way, 256 kB cache must hold a 128 kB tile.
        let mut c = Cache::new(CacheConfig {
            bytes: 256 * 1024,
            ways: 4,
            line_bytes: 256,
        });
        let tile = 128 * 1024u64;
        // Warm.
        for a in (0..tile).step_by(256) {
            c.access(a, false);
        }
        // Every subsequent pass hits.
        for a in (0..tile).step_by(256) {
            assert!(c.access(a, false).hit);
        }
    }

    #[test]
    fn streaming_misses_once_per_line() {
        let mut c = Cache::new(CacheConfig {
            bytes: 256 * 1024,
            ways: 4,
            line_bytes: 256,
        });
        let mut misses = 0;
        let n = 32 * 1024u64; // elements
        for i in 0..n {
            if !c.access(0x4000_0000 + i * 8, false).hit {
                misses += 1;
            }
        }
        // real*8 sequential: one miss per 32 elements (paper §5).
        assert_eq!(misses, n / 32);
    }

    #[test]
    fn write_through_pushes_every_store_to_memory() {
        let cfg = CacheConfig {
            bytes: 512,
            ways: 2,
            line_bytes: 64,
        };
        let mut wt = Cache::with_policy(cfg, WritePolicy::WriteThrough);
        assert_eq!(wt.policy(), WritePolicy::WriteThrough);
        // Store miss: allocate + write through.
        let out = wt.access(0x100, true);
        assert!(out.memory_write);
        // Store hit: still writes through, never dirties.
        let out = wt.access(0x100, true);
        assert!(out.hit && out.memory_write);
        assert_eq!(wt.dirty_lines(), 0);
        // Loads never write memory.
        assert!(!wt.access(0x100, false).memory_write);
    }

    #[test]
    fn write_back_writes_memory_only_on_castout() {
        let mut wb = tiny();
        let a = 0x0000;
        let b = a + 4 * 64;
        let d = b + 4 * 64;
        assert!(!wb.access(a, true).memory_write, "store miss only dirties");
        assert!(!wb.access(a, true).memory_write, "store hit only dirties");
        wb.access(b, false);
        let out = wb.access(d, false); // evicts dirty a
        assert!(out.memory_write && out.castout);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// On the NAS D-cache and its 128-byte-line and write-through
        /// variants, any hint (the slot a stream's last access returned,
        /// another stream's, a random one out of range half the time, or
        /// `usize::MAX`) gives the unhinted access's outcome and leaves
        /// the same tags, valid and dirty bits and LRU stamps.
        /// Four streams walk 8 bytes a step or jump among three times as
        /// many lines as four sets hold, so lines are evicted under their
        /// hints; an occasional flush leaves hints on invalid slots that
        /// still carry the tag.
        #[test]
        fn any_hint_leaves_the_unhinted_access(
            draws in prop::collection::vec(0u64..u64::MAX, 1..2_000),
        ) {
            let nas = CacheConfig { bytes: 256 * 1024, ways: 4, line_bytes: 256 };
            let short_lines = CacheConfig { line_bytes: 128, ..nas };
            let geometries = [
                (nas, WritePolicy::WriteBack),
                (short_lines, WritePolicy::WriteBack),
                (nas, WritePolicy::WriteThrough),
            ];
            for (config, policy) in geometries {
                let mut plain = Cache::with_policy(config, policy);
                let mut hinted = plain.clone();
                let lines = config.lines();
                let pool = 4 * config.ways as u64 * 3;
                let mut addrs = [0u64; 4];
                let mut hints = [0usize; 4];
                for (step, &r) in draws.iter().enumerate() {
                    let s = (r & 3) as usize;
                    if (r >> 2) % 4 == 0 {
                        let pick = (r >> 4) % pool;
                        let line = (pick / 4) * config.sets() as u64 + pick % 4;
                        addrs[s] = line * config.line_bytes + (r >> 20) % config.line_bytes;
                    } else {
                        addrs[s] += 8;
                    }
                    if (r >> 32) % 256 == 0 {
                        plain.flush();
                        hinted.flush();
                    }
                    let store = (r >> 40) & 1 == 1;
                    let mut hint = match (r >> 44) % 16 {
                        0 => hints[(s + 1) % 4],
                        1 => (r >> 52) as usize % (2 * lines),
                        2 => usize::MAX,
                        _ => hints[s],
                    };
                    let want = plain.access(addrs[s], store);
                    let got = hinted.access_hinted(addrs[s], store, &mut hint);
                    hints[s] = hint;
                    prop_assert_eq!(got, want, "step {} on {:?} {:?}", step, config, policy);
                    let slot = hinted.slots[hint];
                    prop_assert!(slot.valid && slot.tag == addrs[s] >> hinted.line_shift,
                        "the hint names the line's slot");
                    prop_assert!(hinted.slots == plain.slots && hinted.tick == plain.tick,
                        "step {}: the slots differ", step);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        Cache::new(CacheConfig {
            bytes: 600,
            ways: 2,
            line_bytes: 100,
        });
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_rejected() {
        // 6 lines of 64 bytes in 2 ways: 3 sets.
        Cache::new(CacheConfig {
            bytes: 384,
            ways: 2,
            line_bytes: 64,
        });
    }
}
