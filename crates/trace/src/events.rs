//! The flight recorder's span-event log.
//!
//! Where [`crate::metric::Timer`] answers "how much time did this region
//! take in total", the event log answers "when did each occurrence run" —
//! begin/end pairs with a name, a category, and a thread id, exportable
//! as Chrome trace-event JSON for Perfetto. Two time domains coexist:
//!
//! - **Wall** events carry nanoseconds since the recording began and
//!   describe the simulator's own execution: campaigns, rotated passes,
//!   experiment runs, signature-cache batches, misses and waits, served
//!   jobs, daemon restarts. Per-sweep and per-scheduling-pass time is not logged here:
//!   the interval series already holds it.
//! - **Sim** events carry simulated nanoseconds and describe the
//!   machine being simulated: the PBS job lifecycle (queue → run →
//!   epilogue/kill/requeue/horizon), drains, node failures and repairs.
//!   Exporters place the two domains in separate trace processes so
//!   their clocks never mix.
//!
//! Events land in the log of the calling thread's current
//! [`crate::Recording`], a bounded buffer. When it is full the oldest
//! event is dropped and the drop counted — bounded memory, never silent
//! truncation. With no recording current a span guard is one
//! thread-local read and an event is never allocated.

use crate::context::with_recording;
use crate::Recording;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default event capacity of one recording.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Which clock an event's timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Domain {
    /// Nanoseconds of real time since the recording began.
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

/// A bounded span-event log: drop-oldest, every drop counted.
#[derive(Debug)]
pub(crate) struct EventLog {
    events: VecDeque<SpanEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventLog {
    pub(crate) fn new(capacity: usize) -> EventLog {
        EventLog {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, ev: SpanEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The events, ordered by (domain, begin time, name, thread).
    pub(crate) fn sorted(&self) -> Vec<SpanEvent> {
        let mut all: Vec<SpanEvent> = self.events.iter().cloned().collect();
        all.sort_by(|a, b| {
            (a.domain, a.ts_ns, &a.name, a.tid).cmp(&(b.domain, b.ts_ns, &b.name, b.tid))
        });
        all
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The stable id the event log uses for the calling thread.
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

/// Opens a wall-domain span; the event is recorded when the guard
/// drops. Costs one thread-local read while no recording is current.
#[must_use = "an event span measures the scope it is bound to"]
pub fn span(name: impl Into<Cow<'static, str>>, cat: &'static str) -> EventSpan {
    EventSpan {
        armed: with_recording(|recording| ArmedSpan {
            recording: recording.clone(),
            name: name.into(),
            cat,
            start: Instant::now(),
        }),
    }
}

/// Records an instantaneous wall-domain event.
pub fn instant(name: impl Into<Cow<'static, str>>, cat: &'static str) {
    with_recording(|recording| {
        recording.push_event(SpanEvent {
            name: name.into(),
            cat,
            tid: thread_id(),
            domain: Domain::Wall,
            ts_ns: recording.epoch().elapsed().as_nanos() as u64,
            dur_ns: 0,
        })
    });
}

/// Records a completed sim-domain span from simulated seconds
/// (`end_s < start_s` is clamped to an instantaneous event).
pub fn sim_span(name: impl Into<Cow<'static, str>>, cat: &'static str, start_s: f64, end_s: f64) {
    with_recording(|recording| {
        let ts_ns = (start_s.max(0.0) * 1e9) as u64;
        let end_ns = (end_s.max(0.0) * 1e9) as u64;
        recording.push_event(SpanEvent {
            name: name.into(),
            cat,
            tid: thread_id(),
            domain: Domain::Sim,
            ts_ns,
            dur_ns: end_ns.saturating_sub(ts_ns),
        })
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
    recording: Recording,
    name: Cow<'static, str>,
    cat: &'static str,
    start: Instant,
}

impl Drop for EventSpan {
    fn drop(&mut self) {
        if let Some(armed) = self.armed.take() {
            let ts_ns = armed
                .start
                .saturating_duration_since(armed.recording.epoch())
                .as_nanos() as u64;
            let dur_ns = armed.start.elapsed().as_nanos() as u64;
            armed.recording.push_event(SpanEvent {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> Recording {
        Recording::new(&[])
    }

    #[test]
    fn spans_and_instants_record_when_recording() {
        let rec = recording();
        rec.run(|| {
            {
                let _s = span("unit", "test");
                instant("marker", "test");
            }
            sim_span("job1", "pbs", 10.0, 25.0);
            sim_instant("requeue", "pbs", 30.0);
        });

        let events = rec.events();
        assert_eq!(events.len(), 4);
        // Wall events sort before sim events.
        assert_eq!(events[0].domain, Domain::Wall);
        let job = events.iter().find(|e| e.name == "job1").unwrap();
        assert_eq!(job.domain, Domain::Sim);
        assert_eq!(job.ts_ns, 10_000_000_000);
        assert_eq!(job.dur_ns, 15_000_000_000);
        let marker = events.iter().find(|e| e.name == "requeue").unwrap();
        assert_eq!(marker.dur_ns, 0, "instants have zero duration");
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn disabled_recording_emits_nothing() {
        let rec = recording();
        rec.run(|| instant("on", "test"));
        {
            let _s = span("off", "test");
        }
        instant("off", "test");
        sim_span("off", "test", 0.0, 1.0);
        sim_instant("off", "test", 2.0);
        let events = rec.events();
        assert_eq!(
            events.len(),
            1,
            "a recording no longer current gets nothing"
        );
        assert_eq!(events[0].name, "on");
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn drop_oldest_counts_every_drop() {
        let mut log = EventLog::new(1);
        for i in 0..20u64 {
            log.push(SpanEvent {
                name: format!("e{i}").into(),
                cat: "test",
                tid: thread_id(),
                domain: Domain::Sim,
                ts_ns: i,
                dur_ns: 0,
            });
        }
        assert_eq!(log.dropped(), 19, "no silent truncation");
        let survivors = log.sorted();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].name, "e19", "oldest dropped first");
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
        let rec = recording();
        rec.run(|| sim_span("clamped", "test", 5.0, 2.0));
        let events = rec.events();
        assert_eq!(events[0].dur_ns, 0, "end before start clamps to instant");
    }
}
