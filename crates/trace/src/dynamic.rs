//! Low-frequency metrics with runtime-built names.
//!
//! Static atomics cover the hot paths, but some readings are keyed by
//! values only known at runtime — per-experiment wall time
//! (`core.experiment.table2`), per-dataset artifact sizes. Those happen
//! a handful of times per process, so a mutexed ordered map is fine.
//! Names sort lexicographically at collection time so snapshots stay
//! deterministic regardless of recording order.

use crate::snapshot::{MetricValue, MetricsSnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;

static DYNAMIC: Mutex<BTreeMap<String, MetricValue>> = Mutex::new(BTreeMap::new());

fn with_map<R>(f: impl FnOnce(&mut BTreeMap<String, MetricValue>) -> R) -> R {
    // A poisoned map only loses metrics, never simulation state; recover
    // rather than propagate a panic into an otherwise healthy campaign.
    let mut guard = match DYNAMIC.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard)
}

/// Adds `n` to the named counter (no-op while tracing is disabled).
pub fn add(name: &str, n: u64) {
    if !crate::enabled() {
        return;
    }
    with_map(|m| {
        let slot = m.entry(name.to_string()).or_insert(MetricValue::Count(0));
        if let MetricValue::Count(v) = slot {
            *v += n;
        } else {
            *slot = MetricValue::Count(n);
        }
    });
}

/// Accumulates `ns` nanoseconds of span time under the name (no-op
/// while tracing is disabled).
pub fn record_ns(name: &str, ns: u64) {
    if !crate::enabled() {
        return;
    }
    with_map(|m| {
        let slot = m.entry(name.to_string()).or_insert(MetricValue::Duration {
            total_ns: 0,
            count: 0,
        });
        if let MetricValue::Duration { total_ns, count } = slot {
            *total_ns += ns;
            *count += 1;
        } else {
            *slot = MetricValue::Duration {
                total_ns: ns,
                count: 1,
            };
        }
    });
}

/// Appends every dynamic reading to `snap`, in name order.
pub fn collect(snap: &mut MetricsSnapshot) {
    with_map(|m| {
        for (name, value) in m.iter() {
            snap.append(name.clone(), value.clone());
        }
    });
}

/// Drops all dynamic readings.
pub fn reset() {
    with_map(|m| m.clear());
}

/// A name-prefix recorder: every reading lands under `<prefix>.<name>`.
///
/// Long-running hosts (the campaign service above all) meter many
/// logical units — jobs, connections — through the same dynamic map;
/// a `Scope` pins the unit's prefix once so call sites stay as terse as
/// the free functions and cannot misfile a reading under another unit.
#[derive(Debug, Clone)]
pub struct Scope {
    prefix: String,
}

impl Scope {
    /// Creates a scope; readings land under `<prefix>.<name>`.
    pub fn new(prefix: impl Into<String>) -> Self {
        Scope {
            prefix: prefix.into(),
        }
    }

    /// The scope's prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    fn key(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// Adds to `<prefix>.<name>` (see [`add`]).
    pub fn add(&self, name: &str, n: u64) {
        add(&self.key(name), n);
    }

    /// Accumulates span time under `<prefix>.<name>` (see [`record_ns`]).
    pub fn record_ns(&self, name: &str, ns: u64) {
        record_ns(&self.key(name), ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test for everything that reads the whole map: the map is a
    /// process total, and `reset` clears it for every thread.
    #[test]
    fn dynamic_roundtrip_ordering_scope_and_reset() {
        crate::set_enabled(true);
        reset();
        add("dyn.count", 2);
        add("dyn.count", 3);
        record_ns("dyn.span", 1_000);
        record_ns("dyn.span", 500);
        let mut snap = MetricsSnapshot::new();
        collect(&mut snap);
        assert_eq!(snap.get("dyn.count"), Some(&MetricValue::Count(5)));
        assert_eq!(
            snap.get("dyn.span"),
            Some(&MetricValue::Duration {
                total_ns: 1_500,
                count: 2
            })
        );
        // Names come back sorted regardless of recording order.
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_ref()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);

        reset();
        let mut empty = MetricsSnapshot::new();
        collect(&mut empty);
        assert!(empty.is_empty());

        // Timeline and metrics JSON diffs rely on two collects of the
        // same logical state being byte-identical, however the inserts
        // interleaved.
        add("z.last", 1);
        add("a.first", 3);
        record_ns("q.span", 400);
        let mut first = MetricsSnapshot::new();
        collect(&mut first);

        reset();
        record_ns("q.span", 400);
        add("a.first", 3);
        add("z.last", 1);
        let mut second = MetricsSnapshot::new();
        collect(&mut second);

        assert_eq!(first, second, "insert order must not leak into collect");
        let names: Vec<&str> = first.entries().iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, vec!["a.first", "q.span", "z.last"]);

        // A scope prefixes every reading.
        reset();
        let scope = Scope::new("serve.job.abc123");
        scope.add("datasets", 2);
        scope.record_ns("campaign", 1_000);
        let mut snap = MetricsSnapshot::new();
        collect(&mut snap);
        assert_eq!(
            snap.get("serve.job.abc123.datasets"),
            Some(&MetricValue::Count(2))
        );
        assert!(snap.get("serve.job.abc123.campaign").is_some());
        assert_eq!(scope.prefix(), "serve.job.abc123");
        reset();
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_dynamic_records_nothing() {
        crate::set_enabled(false);
        add("dyn.off", 1);
        record_ns("dyn.off.t", 1);
        let mut snap = MetricsSnapshot::new();
        collect(&mut snap);
        assert!(snap.get("dyn.off").is_none());
        assert!(snap.get("dyn.off.t").is_none());
    }
}
