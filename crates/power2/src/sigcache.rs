//! Process-wide memoization of kernel signature measurements.
//!
//! Measuring a [`KernelSignature`] means cycle-simulating the kernel on a
//! fresh node — tens of milliseconds per kernel, and the workload library,
//! calibration suite, and cluster simulation all re-measure the same
//! handful of kernels (the page-fault handler and daemon sampler alone
//! are measured once per campaign). Since `measure_on_fresh_node` is a
//! pure function of (kernel, machine config, seed), its results can be
//! shared across threads for the lifetime of the process.
//!
//! Two properties keep the lookup itself off the profile:
//!
//! - **Cheap keys.** The table is sharded and keyed by a 128-bit FNV-1a
//!   hash of the measurement input's `Hash` encoding — no more formatting
//!   the full `Debug` string on every lookup. The hash is a performance
//!   device only: each bucket stores the full `(kernel, config, seed)`
//!   key and verifies it on hit, so even a 128-bit collision degrades to
//!   a bucket scan, never to a wrong answer.
//! - **Single-flight misses.** Concurrent threads requesting the same
//!   uncached key elect one leader to run the simulator; the rest block
//!   on the in-flight slot and receive the leader's result (counted as
//!   `coalesced`). If the leader unwinds without publishing, the slot is
//!   abandoned and the waiters re-elect.
//!
//! A batch of independent measurements ([`SignatureCache::measure_all`])
//! resolves its hits on the calling thread and simulates its misses on
//! every available core. Each miss is the same single-flight measurement
//! a lone call would make, so the batch returns exactly what measuring
//! its jobs one after another returns, in input order.

use crate::config::MachineConfig;
use crate::node::Node;
use crate::signature::KernelSignature;
use sp2_isa::Kernel;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

const SHARDS: usize = 16;

/// 128-bit FNV-1a. Only [`Fnv128::finish128`] is used for keys; the
/// `Hasher` impl exists so `Hash` types can feed it their encoding.
///
/// Public because it doubles as the repo's canonical content-digest
/// primitive: `sp2-core`'s `Submission` digests (the campaign-service
/// result-store keys) hash their canonical field encoding through the
/// same function, so a digest is stable across processes and platforms
/// (unlike `DefaultHasher`, which is seeded per process).
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

/// Lifecycle of one measurement.
#[derive(Debug)]
enum SlotState {
    /// A leader thread is running the simulator.
    InFlight,
    /// The measurement is published.
    Done(Box<KernelSignature>),
    /// The leader unwound without publishing; waiters must re-elect.
    Abandoned,
}

#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::InFlight),
            cond: Condvar::new(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, SlotState> {
        lock(&self.state)
    }
}

/// Locks `mutex`, entering it even if poisoned: a slot transition is a
/// single assignment, and a holder that panics mid-update leaves a shard
/// at worst with an empty bucket, so there is no torn invariant to fear.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// One bucket entry: the full key (hash collisions coexist in the bucket
/// `Vec` and are disambiguated here) plus the measurement slot.
#[derive(Debug)]
struct Entry {
    kernel: Kernel,
    config: MachineConfig,
    seed: u64,
    slot: Arc<Slot>,
}

impl Entry {
    fn matches(&self, kernel: &Kernel, config: &MachineConfig, seed: u64) -> bool {
        self.seed == seed && &self.config == config && &self.kernel == kernel
    }
}

type Shard = Mutex<HashMap<u128, Vec<Entry>>>;

/// Shared memo table for signature measurements.
#[derive(Debug)]
pub struct SignatureCache {
    shards: [Shard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SignatureCache {
    fn default() -> Self {
        SignatureCache {
            shards: std::array::from_fn(|_| Shard::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

/// Retracts an in-flight entry if the leader unwinds before publishing,
/// waking waiters so they can re-elect a leader.
struct InFlightGuard<'a> {
    cache: &'a SignatureCache,
    hash: u128,
    slot: &'a Arc<Slot>,
    published: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        let mut map = self.cache.lock_shard(self.hash);
        if let Some(bucket) = map.get_mut(&self.hash) {
            bucket.retain(|e| !Arc::ptr_eq(&e.slot, self.slot));
            if bucket.is_empty() {
                map.remove(&self.hash);
            }
        }
        drop(map);
        *self.slot.lock_state() = SlotState::Abandoned;
        self.slot.cond.notify_all();
    }
}

impl SignatureCache {
    /// Creates an empty cache (tests use private caches; production code
    /// goes through [`SignatureCache::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache every [`measure_on_fresh_node`] call
    /// shares.
    ///
    /// [`measure_on_fresh_node`]: crate::signature::measure_on_fresh_node
    pub fn global() -> &'static SignatureCache {
        static GLOBAL: OnceLock<SignatureCache> = OnceLock::new();
        GLOBAL.get_or_init(SignatureCache::new)
    }

    /// Measures `kernel` on a fresh node with `config` and `seed`,
    /// returning a memoized result when an identical measurement has
    /// already run (in any thread). Concurrent requests for the same
    /// uncached key coalesce onto a single in-flight simulation.
    pub fn measure(&self, kernel: &Kernel, config: &MachineConfig, seed: u64) -> KernelSignature {
        let hash = Self::key_hash(kernel, config, seed);
        self.measure_keyed(hash, kernel, config, seed)
    }

    /// Measures every `(kernel, seed)` job on `config`, returning the
    /// signatures in input order — exactly what calling
    /// [`SignatureCache::measure`] on each job in turn returns, with
    /// the same hit/miss/coalesced tallies.
    ///
    /// Hits resolve on the calling thread. The first occurrence of each
    /// missing key is simulated on one of [`crate::workers::available`]
    /// threads, the caller included ([`crate::workers::map_indexed`]);
    /// no thread is spawned when fewer than two jobs miss. Repeats of a
    /// key within the batch are answered from its published entry
    /// afterwards, so each key is simulated once.
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
        let hashes: Vec<u128> = jobs
            .iter()
            .map(|(kernel, seed)| Self::key_hash(kernel, config, *seed))
            .collect();
        let mut sigs: Vec<Option<KernelSignature>> = jobs
            .iter()
            .zip(&hashes)
            .map(|((kernel, seed), &hash)| self.lookup(hash, kernel, config, *seed))
            .collect();
        let mut firsts: Vec<usize> = Vec::new();
        for (i, sig) in sigs.iter().enumerate() {
            if sig.is_none()
                && !firsts
                    .iter()
                    .any(|&j| hashes[j] == hashes[i] && jobs[j] == jobs[i])
            {
                firsts.push(i);
            }
        }

        let threads = workers.clamp(1, firsts.len().max(1));
        crate::metrics::MEASURE_THREADS.record(threads as u64);
        let measured = crate::workers::map_indexed(firsts.len(), threads, |k| {
            let i = firsts[k];
            let (kernel, seed) = &jobs[i];
            self.measure_keyed(hashes[i], kernel, config, *seed)
        });
        for (&i, sig) in firsts.iter().zip(measured) {
            sigs[i] = Some(sig);
        }

        // Only repeats are still unresolved; their first occurrence is
        // published by now, so these are ordinary hits.
        sigs.into_iter()
            .zip(jobs.iter().zip(&hashes))
            .map(|(sig, ((kernel, seed), &hash))| {
                sig.unwrap_or_else(|| self.measure_keyed(hash, kernel, config, *seed))
            })
            .collect()
    }

    /// The published measurement for a key, counted as a hit, or `None`
    /// when the key is absent or still in flight.
    fn lookup(
        &self,
        hash: u128,
        kernel: &Kernel,
        config: &MachineConfig,
        seed: u64,
    ) -> Option<KernelSignature> {
        let map = self.lock_shard(hash);
        let entry = map
            .get(&hash)?
            .iter()
            .find(|e| e.matches(kernel, config, seed))?;
        let state = entry.slot.lock_state();
        match &*state {
            SlotState::Done(sig) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((**sig).clone())
            }
            SlotState::InFlight | SlotState::Abandoned => None,
        }
    }

    /// [`SignatureCache::measure`] for a key whose hash is known.
    fn measure_keyed(
        &self,
        hash: u128,
        kernel: &Kernel,
        config: &MachineConfig,
        seed: u64,
    ) -> KernelSignature {
        loop {
            let (slot, leader) = {
                let mut map = self.lock_shard(hash);
                let bucket = map.entry(hash).or_default();
                match bucket.iter().find(|e| e.matches(kernel, config, seed)) {
                    Some(e) => (Arc::clone(&e.slot), false),
                    None => {
                        let slot = Arc::new(Slot::new());
                        bucket.push(Entry {
                            kernel: kernel.clone(),
                            config: *config,
                            seed,
                            slot: Arc::clone(&slot),
                        });
                        (slot, true)
                    }
                }
            };

            if leader {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let mut guard = InFlightGuard {
                    cache: self,
                    hash,
                    slot: &slot,
                    published: false,
                };
                let sig = {
                    let _span = crate::metrics::MEASURE.span();
                    let _ev = sp2_trace::events::span("sigcache miss", "sigcache");
                    let mut node = Node::with_seed(*config, seed);
                    KernelSignature::measure(&mut node, kernel)
                };
                *slot.lock_state() = SlotState::Done(Box::new(sig.clone()));
                guard.published = true;
                slot.cond.notify_all();
                return sig;
            }

            let mut state = slot.lock_state();
            let mut waited = false;
            let mut wait_ev = None;
            loop {
                match &*state {
                    SlotState::Done(sig) => {
                        let counter = if waited { &self.coalesced } else { &self.hits };
                        counter.fetch_add(1, Ordering::Relaxed);
                        return (**sig).clone();
                    }
                    SlotState::Abandoned => break,
                    SlotState::InFlight => {
                        waited = true;
                        // Time blocked behind the leader — the span opens
                        // on the first wait and closes whenever this
                        // waiter leaves the loop.
                        wait_ev.get_or_insert_with(|| {
                            sp2_trace::events::span("sigcache wait", "sigcache")
                        });
                        state = slot.cond.wait(state).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
            // The leader unwound without publishing — re-elect.
        }
    }

    fn lock_shard(&self, hash: u128) -> MutexGuard<'_, HashMap<u128, Vec<Entry>>> {
        lock(&self.shards[(hash >> 124) as usize])
    }

    fn key_hash(kernel: &Kernel, config: &MachineConfig, seed: u64) -> u128 {
        let mut h = Fnv128::new();
        seed.hash(&mut h);
        // `MachineConfig` holds an `f64` clock, so it can't derive `Hash`;
        // feed the bit pattern and every other field explicitly.
        config.clock_hz.to_bits().hash(&mut h);
        config.dcache.hash(&mut h);
        config.icache.hash(&mut h);
        config.tlb_entries.hash(&mut h);
        config.tlb_ways.hash(&mut h);
        config.page_bytes.hash(&mut h);
        config.dcache_miss_penalty.hash(&mut h);
        config.tlb_penalty_min.hash(&mut h);
        config.tlb_penalty_max.hash(&mut h);
        config.dispatch_width.hash(&mut h);
        config.fpu_latency.hash(&mut h);
        config.fdiv_cycles.hash(&mut h);
        config.fsqrt_cycles.hash(&mut h);
        config.load_hit_latency.hash(&mut h);
        config.imul_cycles.hash(&mut h);
        config.idiv_cycles.hash(&mut h);
        config.fxu0_miss_occupancy.hash(&mut h);
        config.memory_bytes.hash(&mut h);
        config.fpu_dispatch.hash(&mut h);
        config.dcache_policy.hash(&mut h);
        kernel.hash(&mut h);
        h.finish128()
    }

    /// Measurements answered from an already-published entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Measurements that ran the simulator (single-flight leaders).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Measurements that blocked on another thread's in-flight simulation
    /// and received its result instead of duplicating the work.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Cached measurements dropped over the cache's lifetime (the only
    /// eviction path is [`SignatureCache::clear`]; unlike the hit/miss
    /// counters this tally survives `clear` so a post-clear snapshot
    /// still shows that entries were thrown away).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Distinct published measurements currently cached (in-flight
    /// entries don't count until their result lands), counted under the
    /// shard locks.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| published(&lock(shard)))
            .sum::<u64>() as usize
    }

    /// Whether the cache holds no published measurements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached measurements and zeroes the hit/miss/coalesced
    /// counters. Every dropped published entry counts as an eviction.
    /// An in-flight leader keeps its slot alive through the `Arc` and
    /// still delivers to its waiters; only the table forgets it.
    pub fn clear(&self) {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut map = lock(shard);
            dropped += published(&map);
            map.clear();
        }
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.coalesced.store(0, Ordering::Relaxed);
    }
}

/// Published (`Done`) entries in one shard's table.
fn published(map: &HashMap<u128, Vec<Entry>>) -> u64 {
    map.values()
        .flatten()
        .filter(|e| matches!(*e.slot.lock_state(), SlotState::Done(_)))
        .count() as u64
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
    fn clear_counts_evictions_across_generations() {
        let cache = SignatureCache::new();
        let cfg = MachineConfig::nas_sp2();
        assert_eq!(cache.evictions(), 0);
        cache.measure(&tiny_kernel("ev-a", 100), &cfg, 1);
        cache.measure(&tiny_kernel("ev-b", 100), &cfg, 1);
        cache.clear();
        assert_eq!(cache.evictions(), 2);
        cache.measure(&tiny_kernel("ev-c", 100), &cfg, 1);
        cache.clear();
        assert_eq!(cache.evictions(), 3, "eviction tally survives clear");
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
