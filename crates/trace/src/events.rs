//! The flight recorder's span-event log.
//!
//! Where [`crate::metric::Timer`] answers "how much time did this region
//! take in total", the event log answers "when did each occurrence run" —
//! begin/end pairs with a name, a category, and a thread id, exportable
//! as Chrome trace-event JSON for Perfetto. Two time domains coexist:
//!
//! - **Wall** events carry nanoseconds since the process epoch (the
//!   first recorded event) and describe the simulator's own execution:
//!   campaign phases, experiment runs, signature-cache waits.
//! - **Sim** events carry simulated nanoseconds and describe the
//!   machine being simulated: the PBS job lifecycle (queue → run →
//!   epilogue/kill/requeue). Exporters place the two domains in
//!   separate trace processes so their clocks never mix.
//!
//! Events land in a lock-sharded bounded buffer (shard picked by thread
//! id, so concurrent measurement and campaign threads rarely contend).
//! When a shard is full the oldest event in it is dropped and a
//! process-wide counter incremented — bounded memory, never silent
//! truncation. Every record path first checks the process-global
//! [`crate::recording`] flag; when it is clear a span guard is one
//! relaxed load and an event is never allocated.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Buffer shards; events shard by thread id so parallel workers rarely
/// share a lock.
const SHARDS: usize = 8;

/// Default total event capacity across all shards.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Which clock an event's timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Domain {
    /// Nanoseconds of real time since the process epoch.
    Wall,
    /// Simulated nanoseconds since campaign start.
    Sim,
}

/// One begin/end (or instantaneous) event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event name (static for hot sites, owned for per-job names).
    pub name: Cow<'static, str>,
    /// Category, e.g. `"phase"`, `"pbs"`, `"sigcache"`.
    pub cat: &'static str,
    /// Stable per-thread id (small integers in spawn order).
    pub tid: u64,
    /// The clock [`SpanEvent::ts_ns`] and [`SpanEvent::dur_ns`] read.
    pub domain: Domain,
    /// Begin timestamp in the domain's nanoseconds.
    pub ts_ns: u64,
    /// Duration in nanoseconds; `0` marks an instantaneous event.
    pub dur_ns: u64,
}

struct Shard {
    events: VecDeque<SpanEvent>,
}

#[allow(clippy::declare_interior_mutable_const)] // repeat-element initializer
const EMPTY_SHARD: Mutex<Shard> = Mutex::new(Shard {
    events: VecDeque::new(),
});

static BUFFER: [Mutex<Shard>; SHARDS] = [EMPTY_SHARD; SHARDS];

/// Events discarded by the drop-oldest policy since the last
/// [`reset`]. Process-wide so truncation is visible even after a drain.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Total capacity across all shards (each shard holds `capacity/SHARDS`).
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The stable id the event log uses for the calling thread.
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The wall-clock origin all `Domain::Wall` timestamps are relative to
/// (pinned the first time anything asks for it).
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn lock_shard(i: usize) -> MutexGuard<'static, Shard> {
    // Poisoning only loses events, never simulation state.
    match BUFFER[i].lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Sets the total buffered-event capacity (split evenly across shards;
/// values below one event per shard are rounded up).
pub fn set_capacity(total: usize) {
    CAPACITY.store(total.max(SHARDS), Ordering::Relaxed);
}

fn shard_capacity() -> usize {
    (CAPACITY.load(Ordering::Relaxed) / SHARDS).max(1)
}

/// Appends an event, dropping the shard's oldest (and counting the
/// drop) when the buffer is full. No-op while recording is disabled.
pub fn emit(ev: SpanEvent) {
    if !crate::recording() {
        return;
    }
    let mut shard = lock_shard((ev.tid as usize) % SHARDS);
    if shard.events.len() >= shard_capacity() {
        shard.events.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    shard.events.push_back(ev);
}

/// Opens a wall-domain span; the event is recorded when the guard
/// drops. Costs one relaxed load while recording is disabled.
#[must_use = "an event span measures the scope it is bound to"]
pub fn span(name: impl Into<Cow<'static, str>>, cat: &'static str) -> EventSpan {
    if !crate::recording() {
        return EventSpan { armed: None };
    }
    let epoch = epoch();
    EventSpan {
        armed: Some(ArmedSpan {
            name: name.into(),
            cat,
            epoch,
            start: Instant::now(),
        }),
    }
}

/// Records an instantaneous wall-domain event.
pub fn instant(name: impl Into<Cow<'static, str>>, cat: &'static str) {
    if !crate::recording() {
        return;
    }
    let ts_ns = epoch().elapsed().as_nanos() as u64;
    emit(SpanEvent {
        name: name.into(),
        cat,
        tid: thread_id(),
        domain: Domain::Wall,
        ts_ns,
        dur_ns: 0,
    });
}

/// Records a completed sim-domain span from simulated seconds
/// (`end_s < start_s` is clamped to an instantaneous event).
pub fn sim_span(name: impl Into<Cow<'static, str>>, cat: &'static str, start_s: f64, end_s: f64) {
    if !crate::recording() {
        return;
    }
    let ts_ns = (start_s.max(0.0) * 1e9) as u64;
    let end_ns = (end_s.max(0.0) * 1e9) as u64;
    emit(SpanEvent {
        name: name.into(),
        cat,
        tid: thread_id(),
        domain: Domain::Sim,
        ts_ns,
        dur_ns: end_ns.saturating_sub(ts_ns),
    });
}

/// Records an instantaneous sim-domain event at simulated second `t_s`.
pub fn sim_instant(name: impl Into<Cow<'static, str>>, cat: &'static str, t_s: f64) {
    sim_span(name, cat, t_s, t_s);
}

/// Wall-domain span guard; see [`span`].
#[derive(Debug)]
pub struct EventSpan {
    armed: Option<ArmedSpan>,
}

#[derive(Debug)]
struct ArmedSpan {
    name: Cow<'static, str>,
    cat: &'static str,
    epoch: Instant,
    start: Instant,
}

impl Drop for EventSpan {
    fn drop(&mut self) {
        if let Some(armed) = self.armed.take() {
            let ts_ns = armed
                .start
                .saturating_duration_since(armed.epoch)
                .as_nanos() as u64;
            let dur_ns = armed.start.elapsed().as_nanos() as u64;
            emit(SpanEvent {
                name: armed.name,
                cat: armed.cat,
                tid: thread_id(),
                domain: Domain::Wall,
                ts_ns,
                dur_ns,
            });
        }
    }
}

/// Removes and returns every buffered event, ordered deterministically
/// by (domain, begin time, name) so exports are diff-stable.
pub fn drain() -> Vec<SpanEvent> {
    let mut all = Vec::new();
    for i in 0..SHARDS {
        all.append(&mut Vec::from(std::mem::take(&mut lock_shard(i).events)));
    }
    all.sort_by(|a, b| {
        (a.domain, a.ts_ns, &a.name, a.tid).cmp(&(b.domain, b.ts_ns, &b.name, b.tid))
    });
    all
}

/// Buffered events not yet drained.
pub fn len() -> usize {
    (0..SHARDS).map(|i| lock_shard(i).events.len()).sum()
}

/// Events lost to the drop-oldest policy since the last [`reset`] (a
/// drain does not clear this — truncation stays visible in exports).
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clears the buffer, the dropped-events counter, and restores the
/// default capacity.
pub fn reset() {
    for i in 0..SHARDS {
        lock_shard(i).events.clear();
    }
    DROPPED.store(0, Ordering::Relaxed);
    CAPACITY.store(DEFAULT_CAPACITY, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::FLAG_LOCK;

    #[test]
    fn spans_and_instants_record_when_recording() {
        let _g = FLAG_LOCK.lock().unwrap();
        crate::set_recording(true);
        reset();
        {
            let _s = span("unit", "test");
            instant("marker", "test");
        }
        sim_span("job1", "pbs", 10.0, 25.0);
        sim_instant("requeue", "pbs", 30.0);
        crate::set_recording(false);

        let events = drain();
        assert_eq!(events.len(), 4);
        // Wall events sort before sim events.
        assert_eq!(events[0].domain, Domain::Wall);
        let job = events.iter().find(|e| e.name == "job1").unwrap();
        assert_eq!(job.domain, Domain::Sim);
        assert_eq!(job.ts_ns, 10_000_000_000);
        assert_eq!(job.dur_ns, 15_000_000_000);
        let marker = events.iter().find(|e| e.name == "requeue").unwrap();
        assert_eq!(marker.dur_ns, 0, "instants have zero duration");
        assert_eq!(dropped(), 0);
        assert_eq!(len(), 0, "drain empties the buffer");
    }

    #[test]
    fn disabled_recording_emits_nothing() {
        let _g = FLAG_LOCK.lock().unwrap();
        crate::set_recording(false);
        reset();
        {
            let _s = span("off", "test");
        }
        instant("off", "test");
        sim_span("off", "test", 0.0, 1.0);
        assert_eq!(len(), 0);
        assert_eq!(dropped(), 0);
    }

    #[test]
    fn drop_oldest_counts_every_drop() {
        let _g = FLAG_LOCK.lock().unwrap();
        crate::set_recording(true);
        reset();
        // One event per shard — every further emit on any thread drops.
        set_capacity(SHARDS);
        for i in 0..20u64 {
            sim_instant(format!("e{i}"), "test", i as f64);
        }
        crate::set_recording(false);
        // This thread maps to exactly one shard, which holds one event.
        assert_eq!(len(), 1);
        assert_eq!(dropped(), 19, "no silent truncation");
        let survivors = drain();
        assert_eq!(survivors[0].name, "e19", "oldest dropped first");
        reset();
        assert_eq!(dropped(), 0);
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let here = thread_id();
        assert_eq!(here, thread_id(), "stable within a thread");
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn negative_sim_times_clamp() {
        let _g = FLAG_LOCK.lock().unwrap();
        crate::set_recording(true);
        reset();
        sim_span("clamped", "test", 5.0, 2.0);
        crate::set_recording(false);
        let events = drain();
        assert_eq!(events[0].dur_ns, 0, "end before start clamps to instant");
    }
}
