//! Point-in-time metric collections and their text rendering.

use std::borrow::Cow;
use std::fmt::Write as _;

/// One collected metric reading.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic event count (counters, high-water marks).
    Count(u64),
    /// An instantaneous value (gauges, derived rates).
    Value(f64),
    /// Accumulated wall time over `count` spans.
    Duration { total_ns: u64, count: u64 },
}

impl MetricValue {
    /// The reading as `f64` (durations read as total milliseconds).
    pub fn as_f64(&self) -> f64 {
        match *self {
            MetricValue::Count(n) => n as f64,
            MetricValue::Value(v) => v,
            MetricValue::Duration { total_ns, .. } => total_ns as f64 / 1e6,
        }
    }

    /// The event count, when this is a count.
    pub fn as_count(&self) -> Option<u64> {
        match *self {
            MetricValue::Count(n) => Some(n),
            _ => None,
        }
    }
}

/// An ordered list of named readings, in collection order (subsystems
/// collect in a fixed sequence, so rendering is deterministic).
///
/// Names are `Cow<'static, str>`: a static metric's name is borrowed,
/// and only dynamic (per-experiment) names carry owned strings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(Cow<'static, str>, MetricValue)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Appends a reading. Collectors emit each name exactly once per
    /// pass, so release builds run no same-name scan. A duplicate name
    /// is caught in debug builds and merely yields a shadowed entry (the
    /// first occurrence wins on lookup) in release builds.
    pub fn append(&mut self, name: impl Into<Cow<'static, str>>, value: MetricValue) {
        let name = name.into();
        debug_assert!(
            self.get(&name).is_none(),
            "append of duplicate metric name {name:?}"
        );
        self.entries.push((name, value));
    }

    /// Looks a reading up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, v)| v)
    }

    /// A count reading by name; 0 when absent or not a count.
    pub fn count(&self, name: &str) -> u64 {
        self.get(name).and_then(MetricValue::as_count).unwrap_or(0)
    }

    /// A reading by name as `f64` (see [`MetricValue::as_f64`]); 0.0
    /// when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map(MetricValue::as_f64).unwrap_or(0.0)
    }

    /// A duration reading by name as `(total_ns, spans)`; zeros when
    /// absent or not a duration.
    pub fn duration(&self, name: &str) -> (u64, u64) {
        match self.get(name) {
            Some(&MetricValue::Duration { total_ns, count }) => (total_ns, count),
            _ => (0, 0),
        }
    }

    /// All readings in collection order.
    pub fn entries(&self) -> &[(Cow<'static, str>, MetricValue)] {
        &self.entries
    }

    /// Number of readings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no readings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Readings whose names start with `prefix`, in collection order.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a MetricValue)> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (n.as_ref(), v))
    }

    /// Renders an aligned `name  value` table, durations as
    /// `total_ms (count)`.
    pub fn render_text(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            let _ = write!(out, "{name:<width$}  ");
            match *value {
                MetricValue::Count(n) => {
                    let _ = writeln!(out, "{n}");
                }
                MetricValue::Value(v) => {
                    let _ = writeln!(out, "{v:.3}");
                }
                MetricValue::Duration { total_ns, count } => {
                    let _ = writeln!(out, "{:.3} ms  ({count} spans)", total_ns as f64 / 1e6);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_get() {
        let mut s = MetricsSnapshot::new();
        s.append("a.count", MetricValue::Count(2));
        s.append("a.rate", MetricValue::Value(0.5));
        s.append(
            "a.timer",
            MetricValue::Duration {
                total_ns: 7,
                count: 1,
            },
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.get("a.count"), Some(&MetricValue::Count(2)));
        assert!(s.get("missing").is_none());
        assert!(!s.is_empty());
        assert_eq!((s.count("a.count"), s.count("a.rate")), (2, 0));
        assert_eq!((s.value("a.rate"), s.value("missing")), (0.5, 0.0));
        assert_eq!(
            (s.duration("a.timer"), s.duration("a.count")),
            ((7, 1), (0, 0))
        );
    }

    #[test]
    fn prefix_filter_preserves_order() {
        let mut s = MetricsSnapshot::new();
        s.append("pbs.submitted", MetricValue::Count(1));
        s.append("cluster.events", MetricValue::Count(2));
        s.append("pbs.requeued", MetricValue::Count(3));
        let names: Vec<&str> = s.with_prefix("pbs.").map(|(n, _)| n).collect();
        assert_eq!(names, vec!["pbs.submitted", "pbs.requeued"]);
    }

    #[test]
    fn text_rendering_is_aligned_and_complete() {
        let mut s = MetricsSnapshot::new();
        s.append("x", MetricValue::Count(7));
        s.append(
            "longer.name",
            MetricValue::Duration {
                total_ns: 2_500_000,
                count: 4,
            },
        );
        let text = s.render_text();
        assert!(text.contains("x            7"), "{text}");
        assert!(text.contains("2.500 ms  (4 spans)"), "{text}");
    }

    #[test]
    fn value_conversions() {
        assert_eq!(MetricValue::Count(4).as_f64(), 4.0);
        assert_eq!(MetricValue::Count(4).as_count(), Some(4));
        assert_eq!(MetricValue::Value(1.5).as_f64(), 1.5);
        assert!(MetricValue::Value(1.5).as_count().is_none());
        let d = MetricValue::Duration {
            total_ns: 3_000_000,
            count: 1,
        };
        assert_eq!(d.as_f64(), 3.0);
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert!(MetricsSnapshot::new().render_text().is_empty());
        assert!(MetricsSnapshot::new().is_empty());
    }
}
