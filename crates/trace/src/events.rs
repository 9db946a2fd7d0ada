//! The flight recorder's event log.
//!
//! Where [`crate::metric::Timer`] answers "how much time did this region
//! take in total", the event log answers "when did each occurrence run",
//! exportable as Chrome trace-event JSON for Perfetto, on two clocks:
//!
//! - **Span events** carry real nanoseconds since the recording began
//!   and describe the simulator's own execution: campaigns, rotated
//!   passes, experiment runs, signature-cache batches and misses, served
//!   jobs. Per-sweep and per-scheduling-pass time is not logged here:
//!   the interval series already holds it.
//! - **Tracks** carry simulated seconds and describe the machine being
//!   simulated: a campaign files one when it closes, built from its own
//!   datasets. Its entries ([`SimEntry`]) carry no name; exporters name
//!   them.
//!
//! Both land in the log of the calling thread's current
//! [`crate::Recording`], a bounded buffer: past [`DEFAULT_CAPACITY`] span
//! events the oldest is dropped, past as many track entries the oldest
//! track, and every drop is counted. With no recording current a span
//! guard is one thread-local read and nothing is allocated.

use crate::context::with_recording;
use crate::Recording;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span events, and track entries, one recording holds: the tracks of
/// two 270-day campaigns (about 34,000 entries each) fit.
pub const DEFAULT_CAPACITY: usize = 1 << 17;

/// One span of the simulator's own execution (exporters also cast track
/// entries as these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event name (static for hot sites, owned for per-run names).
    pub name: Cow<'static, str>,
    /// Category, e.g. `"phase"`, `"sigcache"`.
    pub cat: &'static str,
    /// Stable per-thread id (small integers in spawn order).
    pub tid: u64,
    /// Begin timestamp, nanoseconds since the recording began.
    pub ts_ns: u64,
    /// Duration in nanoseconds; `0` marks an instantaneous event.
    pub dur_ns: u64,
}

/// What a [`SimEntry`] records: a job's queue wait before its first
/// attempt, an attempt's run, and how the attempt ended (its epilogue, a
/// node failure that requeued or finally killed it, or the campaign
/// horizon); a drain PBS began for the job; a node's failure or repair;
/// a restart of the sampling daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Wait,
    Run,
    Epilogue,
    Requeue,
    Kill,
    Horizon,
    Drain,
    NodeDown,
    NodeUp,
    DaemonRestart,
}

/// One entry of a campaign's simulated-clock track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEntry {
    /// The job id, the node index of a node mark, or 0 for a daemon
    /// restart.
    pub id: u64,
    /// What the entry records.
    pub kind: SimKind,
    /// Begin, in simulated seconds since campaign start.
    pub start_s: f64,
    /// End, in simulated seconds; a mark ends where it begins.
    pub end_s: f64,
}

impl SimEntry {
    /// An entry of `kind` for `id`, from `start_s` to `end_s`.
    pub fn new(id: u64, kind: SimKind, start_s: f64, end_s: f64) -> SimEntry {
        SimEntry {
            id,
            kind,
            start_s,
            end_s,
        }
    }
}

/// A bounded event log: span events drop oldest first, tracks drop
/// oldest whole, and every dropped record is counted.
#[derive(Debug)]
pub(crate) struct EventLog {
    events: VecDeque<SpanEvent>,
    tracks: VecDeque<Vec<SimEntry>>,
    /// Entries of the tracks held.
    entries: usize,
    capacity: usize,
    pub(crate) dropped: u64,
}

impl EventLog {
    pub(crate) fn new(capacity: usize) -> EventLog {
        EventLog {
            events: VecDeque::new(),
            tracks: VecDeque::new(),
            entries: 0,
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

    pub(crate) fn file(&mut self, track: Vec<SimEntry>) {
        self.entries += track.len();
        self.tracks.push_back(track);
        while self.entries > self.capacity {
            let oldest = self.tracks.pop_front().unwrap_or_default();
            self.entries -= oldest.len();
            self.dropped += oldest.len() as u64;
        }
    }

    /// The span events, ordered by (begin time, name, thread).
    pub(crate) fn sorted(&self) -> Vec<SpanEvent> {
        let mut all: Vec<SpanEvent> = self.events.iter().cloned().collect();
        all.sort_by(|a, b| (a.ts_ns, &a.name, a.tid).cmp(&(b.ts_ns, &b.name, b.tid)));
        all
    }

    /// The tracks held, in filing order.
    pub(crate) fn tracks(&self) -> Vec<Vec<SimEntry>> {
        self.tracks.iter().cloned().collect()
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

/// Opens a span; the event is recorded when the guard drops. Costs one
/// thread-local read while no recording is current.
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

/// Files a campaign's simulated-clock track with the calling thread's
/// current recording, if any.
pub fn file_track(track: Vec<SimEntry>) {
    with_recording(|recording| recording.log().file(track));
}

/// Span guard; see [`span`].
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
            armed.recording.log().push(SpanEvent {
                name: armed.name,
                cat: armed.cat,
                tid: thread_id(),
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
    fn spans_and_tracks_record_when_recording() {
        let rec = recording();
        rec.run(|| {
            {
                let _s = span("unit", "test");
            }
            file_track(vec![
                SimEntry::new(1, SimKind::Run, 10.0, 25.0),
                SimEntry::new(1, SimKind::Requeue, 25.0, 25.0),
            ]);
        });

        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "unit");
        let tracks = rec.tracks();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0][0].end_s, 25.0);
        assert_eq!(tracks[0][1].kind, SimKind::Requeue);
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn disabled_recording_emits_nothing() {
        let rec = recording();
        rec.run(|| drop(span("on", "test")));
        {
            let _s = span("off", "test");
        }
        file_track(vec![SimEntry::new(0, SimKind::NodeDown, 2.0, 2.0)]);
        let events = rec.events();
        assert_eq!(
            events.len(),
            1,
            "a recording no longer current gets nothing"
        );
        assert_eq!(events[0].name, "on");
        assert!(rec.tracks().is_empty());
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
                ts_ns: i,
                dur_ns: 0,
            });
        }
        assert_eq!(log.dropped, 19, "no silent truncation");
        let survivors = log.sorted();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].name, "e19", "oldest dropped first");
    }

    #[test]
    fn tracks_drop_oldest_whole() {
        let mut log = EventLog::new(3);
        let track = |id: u64, n: usize| vec![SimEntry::new(id, SimKind::Drain, 1.0, 1.0); n];
        log.file(track(1, 2));
        log.file(track(2, 1));
        assert_eq!(log.dropped, 0, "three entries fit");
        log.file(track(3, 2));
        assert_eq!(log.dropped, 2, "the oldest track went whole");
        let ids: Vec<u64> = log.tracks().iter().map(|t| t[0].id).collect();
        assert_eq!(ids, [2, 3]);
        log.file(track(4, 4));
        assert!(log.tracks().is_empty(), "a track over capacity drops too");
        assert_eq!(log.dropped, 2 + 3 + 4);
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let here = thread_id();
        assert_eq!(here, thread_id(), "stable within a thread");
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, other);
    }
}
