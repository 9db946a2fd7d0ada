//! Process-wide memoization of kernel signature measurements.
//!
//! Measuring a [`KernelSignature`] means cycle-simulating the kernel on a
//! fresh node, tens of milliseconds per kernel. The measurement is a pure
//! function of (kernel, machine config, seed), so its result can be
//! shared across threads for the lifetime of the process.
//!
//! A CLI run repeats few measurements: `sp2 profile --days 1` looks up
//! the library's 54 kernels, 7 calibration and Table 4 kernels, and the
//! page-fault handler and daemon sampler once per campaign, so 2 of its
//! 65 lookups hit. Repeats come from processes that build a library more
//! than once, such as a test binary whose tests each build one.
//!
//! Each key owns one `OnceLock` cell, found or inserted under one table
//! lock that is never held while simulating. The first thread to reach
//! an empty cell simulates inside [`OnceLock::get_or_init`]; a thread
//! that reaches it meanwhile blocks and takes that result (`coalesced`),
//! or measures in its place if the simulating thread unwinds. So
//! concurrent requests for one cold key simulate it once, and a batch
//! ([`SignatureCache::measure_all`]) returns exactly what measuring its
//! jobs one after another returns, with the same tallies.

use crate::config::MachineConfig;
use crate::node::Node;
use crate::signature::KernelSignature;
use sp2_isa::Kernel;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// 128-bit FNV-1a, the repo's content-digest primitive: `sp2-core`'s
/// `Submission` digests hash their canonical encoding through it, so a
/// digest is stable across processes and platforms (unlike
/// `DefaultHasher`, which is seeded per process).
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    /// The full 128-bit digest.
    pub fn finish128(&self) -> u128 {
        self.0
    }
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0 as u64
    }
}

/// The full inputs of one measurement. The machine's `f64` clock
/// compares and hashes by bit pattern, so equal keys hash alike.
#[derive(Debug)]
struct Key {
    kernel: Kernel,
    config: MachineConfig,
    seed: u64,
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        let clockless = |key: &Key| MachineConfig {
            clock_hz: 0.0,
            ..key.config
        };
        self.seed == other.seed
            && self.config.clock_hz.to_bits() == other.config.clock_hz.to_bits()
            && clockless(self) == clockless(other)
            && self.kernel == other.kernel
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let config = &self.config;
        self.seed.hash(h);
        // `MachineConfig` holds an `f64` clock, so it can't derive `Hash`;
        // feed the bit pattern and every other field explicitly.
        config.clock_hz.to_bits().hash(h);
        config.dcache.hash(h);
        config.icache.hash(h);
        config.tlb_entries.hash(h);
        config.tlb_ways.hash(h);
        config.page_bytes.hash(h);
        config.dcache_miss_penalty.hash(h);
        config.tlb_penalty_min.hash(h);
        config.tlb_penalty_max.hash(h);
        config.dispatch_width.hash(h);
        config.fpu_latency.hash(h);
        config.fdiv_cycles.hash(h);
        config.fsqrt_cycles.hash(h);
        config.load_hit_latency.hash(h);
        config.imul_cycles.hash(h);
        config.idiv_cycles.hash(h);
        config.fxu0_miss_occupancy.hash(h);
        config.memory_bytes.hash(h);
        config.fpu_dispatch.hash(h);
        config.dcache_policy.hash(h);
        self.kernel.hash(h);
    }
}

/// One key's measurement, empty until a measuring thread fills it.
type Cell = Arc<OnceLock<KernelSignature>>;

/// Shared memo table for signature measurements.
#[derive(Debug, Default)]
pub struct SignatureCache {
    cells: Mutex<HashMap<Key, Cell>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl SignatureCache {
    /// Creates an empty cache (tests use private caches; production code
    /// goes through [`SignatureCache::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache every signature measurement shares.
    pub fn global() -> &'static SignatureCache {
        static GLOBAL: OnceLock<SignatureCache> = OnceLock::new();
        GLOBAL.get_or_init(SignatureCache::new)
    }

    /// Measures `kernel` on a fresh node with `config` and `seed`,
    /// returning a memoized result when an identical measurement has
    /// already run (in any thread). Concurrent requests for the same
    /// uncached key share one simulation.
    pub fn measure(&self, kernel: &Kernel, config: &MachineConfig, seed: u64) -> KernelSignature {
        self.resolve(&self.cell(kernel, config, seed), || {
            simulate(kernel, config, seed)
        })
    }

    /// Measures every `(kernel, seed)` job on `config`, returning the
    /// signatures in input order — exactly what calling
    /// [`SignatureCache::measure`] on each job in turn returns, with
    /// the same hit/miss/coalesced tallies.
    ///
    /// Hits resolve on the calling thread. Each distinct missing key is
    /// simulated once, on one of [`crate::workers::available`] threads
    /// ([`crate::workers::map_indexed`]), and its repeats in the batch
    /// are read from its cell afterwards.
    pub fn measure_all(
        &self,
        jobs: &[(Kernel, u64)],
        config: &MachineConfig,
    ) -> Vec<KernelSignature> {
        self.measure_all_on(jobs, config, crate::workers::available())
    }

    /// [`SignatureCache::measure_all`] on at most `workers` threads.
    pub(crate) fn measure_all_on(
        &self,
        jobs: &[(Kernel, u64)],
        config: &MachineConfig,
        workers: usize,
    ) -> Vec<KernelSignature> {
        let _batch = crate::metrics::MEASURE_BATCH.span();
        let _ev = sp2_trace::events::span("sigcache batch", "sigcache");
        let cells: Vec<Cell> = jobs
            .iter()
            .map(|(kernel, seed)| self.cell(kernel, config, *seed))
            .collect();
        let measure = |i: usize| {
            let (kernel, seed) = &jobs[i];
            self.resolve(&cells[i], || simulate(kernel, config, *seed))
        };
        let mut sigs: Vec<Option<KernelSignature>> =
            cells.iter().map(|cell| self.hit(cell)).collect();
        let firsts: Vec<usize> = (0..jobs.len())
            .filter(|&i| sigs[i].is_none())
            .filter(|&i| !cells[..i].iter().any(|c| Arc::ptr_eq(c, &cells[i])))
            .collect();
        let threads = workers.clamp(1, firsts.len().max(1));
        crate::metrics::MEASURE_THREADS.record(threads as u64);
        let measured = crate::workers::map_indexed(firsts.len(), threads, |k| measure(firsts[k]));
        for (&i, sig) in firsts.iter().zip(measured) {
            sigs[i] = Some(sig);
        }

        // Only repeats are still unresolved; their cells are filled by
        // now, so these are ordinary hits.
        sigs.into_iter()
            .enumerate()
            .map(|(i, sig)| sig.unwrap_or_else(|| measure(i)))
            .collect()
    }

    /// The cell for a measurement's inputs, inserted empty if the table
    /// has none.
    fn cell(&self, kernel: &Kernel, config: &MachineConfig, seed: u64) -> Cell {
        let key = Key {
            kernel: kernel.clone(),
            config: *config,
            seed,
        };
        Arc::clone(self.table().entry(key).or_default())
    }

    /// The signature in `cell`: a hit if it is filled, else a miss that
    /// fills it with `measure` on this thread. When another thread is
    /// filling it, this one waits and takes that result (coalesced), or
    /// measures in its place if that thread unwinds.
    fn resolve(
        &self,
        cell: &OnceLock<KernelSignature>,
        measure: impl FnOnce() -> KernelSignature,
    ) -> KernelSignature {
        if let Some(sig) = self.hit(cell) {
            return sig;
        }
        let mut measured = false;
        let sig = cell.get_or_init(|| {
            measured = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            measure()
        });
        if !measured {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        sig.clone()
    }

    /// A filled cell's signature, counted as a hit.
    fn hit(&self, cell: &OnceLock<KernelSignature>) -> Option<KernelSignature> {
        let sig = cell.get()?.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(sig)
    }

    /// Locks the table, entering it even if poisoned: a holder only finds,
    /// inserts, counts or drops cells, so a panic there leaves nothing torn.
    fn table(&self) -> MutexGuard<'_, HashMap<Key, Cell>> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Measurements answered from an already-filled cell.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Measurements that ran the simulator.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Measurements that found their key unmeasured and received another
    /// thread's simulation instead of duplicating the work.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Distinct measurements currently cached (a measurement in flight
    /// doesn't count until its result lands).
    pub fn len(&self) -> usize {
        self.table()
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// Whether the cache holds no measurements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached measurements and zeroes the hit/miss/coalesced
    /// counters. A measurement in flight keeps its cell alive through
    /// the `Arc` and still delivers to its waiters; only the table
    /// forgets it.
    pub fn clear(&self) {
        self.table().clear();
        for tally in [&self.hits, &self.misses, &self.coalesced] {
            tally.store(0, Ordering::Relaxed);
        }
    }
}

/// Cycle-simulates `kernel` on a fresh node: the measurement the cache
/// memoizes.
fn simulate(kernel: &Kernel, config: &MachineConfig, seed: u64) -> KernelSignature {
    let _span = crate::metrics::MEASURE.span();
    let _ev = sp2_trace::events::span("sigcache miss", "sigcache");
    KernelSignature::measure(&mut Node::with_seed(*config, seed), kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_isa::KernelBuilder;
    use std::sync::Barrier;

    fn tiny_kernel(name: &str, iters: u64) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let a = b.seq_array(8, 1 << 20);
        let x = b.load_double(a);
        let acc = b.fresh_fpr();
        b.fma_acc(acc, x, x);
        b.loop_back();
        b.build(iters)
    }

    #[test]
    fn second_measurement_hits() {
        let cache = SignatureCache::new();
        let cfg = MachineConfig::nas_sp2();
        let k = tiny_kernel("memo", 500);
        let a = cache.measure(&k, &cfg, 7);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache.measure(&k, &cfg, 7);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_inputs_miss() {
        let cache = SignatureCache::new();
        let cfg = MachineConfig::nas_sp2();
        let k = tiny_kernel("memo", 500);
        cache.measure(&k, &cfg, 1);
        cache.measure(&k, &cfg, 2); // different seed
        cache.measure(&tiny_kernel("memo", 600), &cfg, 1); // different iters
        let mut slow = cfg;
        slow.clock_hz /= 2.0;
        cache.measure(&k, &slow, 1); // different machine
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cached_result_matches_fresh_measurement() {
        let cache = SignatureCache::new();
        let cfg = MachineConfig::nas_sp2();
        let k = tiny_kernel("memo", 800);
        let cached = cache.measure(&k, &cfg, 3);
        let mut node = Node::with_seed(cfg, 3);
        let fresh = KernelSignature::measure(&mut node, &k);
        assert_eq!(cached, fresh);
    }

    #[test]
    fn clear_resets_counters_and_table() {
        let cache = SignatureCache::new();
        let cfg = MachineConfig::nas_sp2();
        cache.measure(&tiny_kernel("memo", 100), &cfg, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.coalesced(), 0);
    }

    #[test]
    fn shared_across_threads() {
        let cache = SignatureCache::new();
        let cfg = MachineConfig::nas_sp2();
        let k = tiny_kernel("memo", 300);
        cache.measure(&k, &cfg, 5);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let sig = cache.measure(&k, &cfg, 5);
                    assert_eq!(sig.iters, 300);
                });
            }
        });
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.coalesced(), 0, "warm lookups never wait");
    }

    #[test]
    fn concurrent_cold_misses_single_flight() {
        // The old implementation let every racing thread simulate the
        // same cold key ("a racing duplicate costs time, not
        // correctness"). Single-flight turns that comment into an
        // invariant: exactly one leader simulates, everyone else gets
        // the leader's result.
        const THREADS: u64 = 8;
        let cache = SignatureCache::new();
        let cfg = MachineConfig::nas_sp2();
        let k = tiny_kernel("cold-rush", 2_000);
        let barrier = Barrier::new(THREADS as usize);
        let sigs: Vec<KernelSignature> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.measure(&k, &cfg, 11)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), 1, "exactly one thread simulated");
        assert_eq!(
            cache.hits() + cache.coalesced(),
            THREADS - 1,
            "everyone else was served from the single flight"
        );
        assert_eq!(cache.len(), 1);
        for sig in &sigs[1..] {
            assert_eq!(sig, &sigs[0]);
        }
    }

    #[test]
    fn a_waiter_measures_the_key_whose_first_measurement_unwound() {
        // The first requester of a key unwinds mid-measurement while a
        // second thread waits on the key: the waiter then measures it
        // itself and publishes the result.
        let cache = SignatureCache::new();
        let cfg = MachineConfig::nas_sp2();
        let k = tiny_kernel("unwind", 300);
        let cell = cache.cell(&k, &cfg, 4);
        let (measuring, waiting) = (Barrier::new(2), Barrier::new(2));
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| {
                cache.resolve(&cell, || {
                    measuring.wait();
                    waiting.wait();
                    // Long enough for the second thread to block on the
                    // cell before this measurement unwinds. Arriving after
                    // the unwind, it would find the cell empty and measure
                    // all the same, so no assertion hangs on the sleep.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    panic!("measurement unwound")
                })
            });
            measuring.wait();
            let second = s.spawn(|| {
                waiting.wait();
                cache.resolve(&cell, || simulate(&k, &cfg, 4))
            });
            (first.join(), second.join())
        });
        assert!(first.is_err(), "the first measurement unwound");
        let sig = second.expect("the waiter measured the key itself");
        assert_eq!(sig, simulate(&k, &cfg, 4));
        assert_eq!(
            (cache.misses(), cache.hits(), cache.coalesced()),
            (2, 0, 0),
            "both requesters measured; neither was served"
        );
        assert_eq!(cache.len(), 1, "the waiter published its measurement");
        assert_eq!(cache.measure(&k, &cfg, 4), sig);
        assert_eq!(cache.hits(), 1);
    }

    /// Worker counts the batch tests run at: serial, fewer workers than
    /// misses, and more workers than misses.
    const WORKERS: [usize; 3] = [1, 2, 7];

    #[test]
    fn batch_equals_serial_measurement_at_any_worker_count() {
        let cfg = MachineConfig::nas_sp2();
        let jobs: Vec<(Kernel, u64)> = (0..5u64)
            .map(|i| (tiny_kernel(&format!("batch-{i}"), 200 + 100 * i), i))
            .collect();
        let serial_cache = SignatureCache::new();
        let serial: Vec<KernelSignature> = jobs
            .iter()
            .map(|(k, seed)| serial_cache.measure(k, &cfg, *seed))
            .collect();
        for workers in WORKERS {
            let cache = SignatureCache::new();
            let batch = cache.measure_all_on(&jobs, &cfg, workers);
            assert_eq!(batch, serial, "{workers} workers");
            assert_eq!(
                (cache.misses(), cache.hits(), cache.coalesced()),
                (jobs.len() as u64, 0, 0),
                "{workers} workers"
            );
            // Measured again, the whole batch resolves from the table.
            let warm = cache.measure_all_on(&jobs, &cfg, workers);
            assert_eq!(warm, serial, "{workers} workers");
            assert_eq!(cache.hits(), jobs.len() as u64, "{workers} workers");
            assert_eq!(cache.misses(), jobs.len() as u64, "{workers} workers");
        }
    }

    #[test]
    fn concurrent_batches_over_one_cold_set_simulate_each_key_once() {
        // Two tests in one binary building the same library at once:
        // each key is simulated by one leader, and every other lookup of
        // it is a hit or waits on that leader. The kernels run long
        // enough that both batches are in flight together: at 1,000
        // iterations a cache without single-flight passed 3 runs in 10.
        let cfg = MachineConfig::nas_sp2();
        let jobs: Vec<(Kernel, u64)> = (0..4u64)
            .map(|i| (tiny_kernel(&format!("shared-{i}"), 20_000 + 1_000 * i), i))
            .collect();
        for workers in WORKERS {
            let cache = SignatureCache::new();
            let barrier = Barrier::new(2);
            let [a, b] = std::thread::scope(|s| {
                let run = || {
                    barrier.wait();
                    cache.measure_all_on(&jobs, &cfg, workers)
                };
                let (a, b) = (s.spawn(run), s.spawn(run));
                [a.join().unwrap(), b.join().unwrap()]
            });
            assert_eq!(cache.misses(), jobs.len() as u64, "{workers} workers");
            assert_eq!(
                cache.hits() + cache.coalesced(),
                jobs.len() as u64,
                "{workers} workers: the other thread's jobs were all served"
            );
            assert_eq!(a, b, "{workers} workers");
        }
    }

    #[test]
    fn batch_simulates_a_repeated_key_once() {
        let cfg = MachineConfig::nas_sp2();
        let k = tiny_kernel("repeat", 400);
        let other = tiny_kernel("other", 400);
        let jobs = [(k.clone(), 3), (other, 3), (k.clone(), 3), (k, 3)];
        for workers in WORKERS {
            let cache = SignatureCache::new();
            let sigs = cache.measure_all_on(&jobs, &cfg, workers);
            assert_eq!(cache.misses(), 2, "{workers} workers: one per distinct key");
            assert_eq!(
                (cache.hits(), cache.coalesced()),
                (2, 0),
                "{workers} workers: repeats are hits, as when measured serially"
            );
            assert_eq!(sigs[0], sigs[2]);
            assert_eq!(sigs[0], sigs[3]);
            assert_eq!(sigs[0], cache.measure(&jobs[0].0, &cfg, 3));
            assert_eq!(sigs[1].name, "other");
        }
    }
}
