//! The calling thread's instrumentation context.
//!
//! Every record site asks two questions: is metric capture on, and is a
//! flight recording current. Both answers belong to the thread that asks.
//! A thread starts with capture off and no recording. [`set_enabled`]
//! flips its own switch, [`Recording::run`] makes a recording current for
//! the length of a closure, and [`Context::current`] with [`Context::run`]
//! hands both to a thread the caller starts. So one run's instrumentation
//! never reaches a campaign on another thread, while the metric statics
//! themselves stay process totals.

use crate::events::{EventLog, SimEntry, SpanEvent};
use crate::metric::Metric;
use crate::recorder::{IntervalSeries, TimeSeries};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

struct ThreadContext {
    metrics: Cell<bool>,
    recording: RefCell<Option<Recording>>,
}

thread_local! {
    static CONTEXT: ThreadContext = const {
        ThreadContext {
            metrics: Cell::new(false),
            recording: RefCell::new(None),
        }
    };
}

/// Turns metric capture on or off for the calling thread.
pub fn set_enabled(on: bool) {
    CONTEXT.with(|c| c.metrics.set(on));
}

/// Whether metric capture is on for the calling thread.
#[inline]
pub fn enabled() -> bool {
    CONTEXT.with(|c| c.metrics.get())
}

/// Whether a flight recording is current on the calling thread.
#[inline]
pub fn recording() -> bool {
    CONTEXT.with(|c| c.recording.borrow().is_some())
}

/// Applies `f` to the calling thread's current recording, if any.
pub(crate) fn with_recording<R>(f: impl FnOnce(&Recording) -> R) -> Option<R> {
    CONTEXT.with(|c| c.recording.borrow().as_ref().map(f))
}

/// A thread's metrics switch and current recording, taken so a thread
/// the caller starts can run under them.
#[derive(Debug, Clone, Default)]
pub struct Context {
    metrics: bool,
    recording: Option<Recording>,
}

impl Context {
    /// The calling thread's context.
    pub fn current() -> Context {
        CONTEXT.with(|c| Context {
            metrics: c.metrics.get(),
            recording: c.recording.borrow().clone(),
        })
    }

    /// Runs `f` under this context on the calling thread, then restores
    /// the thread's own context, also when `f` panics.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Context);
        impl Drop for Restore {
            fn drop(&mut self) {
                std::mem::take(&mut self.0).install();
            }
        }
        let _restore = Restore(self.clone().install());
        f()
    }

    /// Makes this the calling thread's context; returns the one it
    /// replaced.
    fn install(self) -> Context {
        CONTEXT.with(|c| Context {
            metrics: c.metrics.replace(self.metrics),
            recording: c.recording.replace(self.recording),
        })
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Poisoning only loses recorded events, never simulation state.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One flight recording: the event log (span events and campaign
/// tracks) and the interval time series of every thread it is current
/// on. Clones share the recording.
///
/// The metric tables it samples are fixed when the recording is made.
/// While it is current, metric capture is on, since the series
/// differences metric readings that only move under capture.
#[derive(Debug, Clone)]
pub struct Recording(Arc<Shared>);

#[derive(Debug)]
struct Shared {
    /// The origin of every span event's timestamp.
    epoch: Instant,
    events: Mutex<EventLog>,
    series: Mutex<IntervalSeries>,
}

impl Recording {
    /// A recording that samples the metrics of `tables`, in order, at
    /// every daemon sweep, holding at most
    /// [`crate::events::DEFAULT_CAPACITY`] span events and as many track
    /// entries, and [`crate::recorder::DEFAULT_CAPACITY`] rows.
    pub fn new(tables: &'static [&'static [Metric]]) -> Recording {
        Recording(Arc::new(Shared {
            epoch: Instant::now(),
            events: Mutex::new(EventLog::new(crate::events::DEFAULT_CAPACITY)),
            series: Mutex::new(IntervalSeries::new(
                tables,
                crate::recorder::DEFAULT_CAPACITY,
            )),
        }))
    }

    /// The calling thread's current recording.
    pub fn current() -> Option<Recording> {
        with_recording(Recording::clone)
    }

    /// Runs `f` on the calling thread with this recording current and
    /// metric capture on, then restores the thread's own context.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        Context {
            metrics: true,
            recording: Some(self.clone()),
        }
        .run(f)
    }

    /// Every recorded span event, ordered by (begin time, name, thread)
    /// so exports are diff-stable.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.log().sorted()
    }

    /// The campaign tracks held, in filing order.
    pub fn tracks(&self) -> Vec<Vec<SimEntry>> {
        self.log().tracks()
    }

    /// Span events and track entries lost to the log's bounds.
    pub fn dropped_events(&self) -> u64 {
        self.log().dropped
    }

    /// The interval time series: the rows held, differenced.
    pub fn series(&self) -> TimeSeries {
        lock(&self.0.series).to_series()
    }

    pub(crate) fn epoch(&self) -> Instant {
        self.0.epoch
    }

    pub(crate) fn log(&self) -> MutexGuard<'_, EventLog> {
        lock(&self.0.events)
    }

    pub(crate) fn on_sweep(&self, sweep: u64, sim_t: f64) {
        lock(&self.0.series).on_sweep(sweep, sim_t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switches_belong_to_the_calling_thread() {
        assert!(!enabled() && !recording(), "a thread starts with both off");
        set_enabled(true);
        assert!(enabled());
        let elsewhere = std::thread::spawn(|| {
            let before = enabled();
            set_enabled(false);
            before
        })
        .join()
        .unwrap();
        assert!(!elsewhere, "a new thread does not inherit by itself");
        assert!(enabled(), "another thread's switch never reaches this one");
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn a_recording_turns_capture_on_while_current() {
        let rec = Recording::new(&[]);
        assert!(Recording::current().is_none());
        rec.run(|| {
            assert!(enabled() && recording());
            assert!(Recording::current().is_some());
        });
        assert!(
            !enabled() && !recording(),
            "the thread's context comes back"
        );
    }

    #[test]
    fn context_restores_after_a_panic() {
        let rec = Recording::new(&[]);
        let caught = std::panic::catch_unwind(|| rec.run(|| panic!("inside")));
        assert!(caught.is_err());
        assert!(!enabled() && !recording());
    }

    #[test]
    fn a_handed_on_context_records_into_the_same_recording() {
        let rec = Recording::new(&[]);
        let context = rec.run(Context::current);
        std::thread::spawn(move || {
            context.run(|| {
                assert!(enabled() && recording());
                let _span = crate::events::span("from a helper", "test");
            });
            assert!(!recording());
        })
        .join()
        .unwrap();
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "from a helper");
    }
}
