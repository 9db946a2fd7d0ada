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
    /// Tags per way, `sets * ways`, row-major by set.
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    /// LRU stamps per line; larger = more recently used.
    stamp: Vec<u64>,
    tick: u64,
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
        let n = sets * config.ways;
        Cache {
            config,
            policy: WritePolicy::WriteBack,
            set_mask: sets - 1,
            ways: config.ways,
            line_shift: config.line_bytes.trailing_zeros(),
            tags: vec![0; n],
            valid: vec![false; n],
            dirty: vec![false; n],
            stamp: vec![0; n],
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
        let line = addr >> self.line_shift;
        let set = (line as usize) & self.set_mask;
        let base = set * self.ways;
        let write_through = self.policy == WritePolicy::WriteThrough;
        // Hit?
        for w in 0..self.ways {
            let i = base + w;
            if self.valid[i] && self.tags[i] == line {
                self.stamp[i] = self.tick;
                if is_store && !write_through {
                    self.dirty[i] = true;
                }
                return AccessOutcome {
                    hit: true,
                    castout: false,
                    memory_write: is_store && write_through,
                };
            }
        }
        // Miss: pick victim = invalid way, else LRU.
        let mut victim = base;
        let mut best = u64::MAX;
        for w in 0..self.ways {
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
        let castout = self.valid[victim] && self.dirty[victim];
        self.tags[victim] = line;
        self.valid[victim] = true;
        self.dirty[victim] = is_store && !write_through;
        self.stamp[victim] = self.tick;
        AccessOutcome {
            hit: false,
            castout,
            memory_write: castout || (is_store && write_through),
        }
    }

    /// Invalidates everything without writing back (context switch on a
    /// dedicated node — we model jobs as starting cold).
    pub fn flush(&mut self) {
        self.valid.fill(false);
        self.dirty.fill(false);
    }

    /// Number of currently valid lines (diagnostics/tests).
    pub fn resident_lines(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Number of currently dirty lines (diagnostics/tests).
    pub fn dirty_lines(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
