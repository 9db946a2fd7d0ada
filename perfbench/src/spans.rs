//! The benchmark's own span ledger.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! one flat span per call into a layer's public function, named
//! `<layer>.<what>`. While the program's trace layer is on, the timers it
//! already keeps inside a call (kernel measurement, PBS scheduling,
//! daemon sweeps) become child spans of the benchmark span they ran in,
//! so their time moves from the caller's layer to their own. A layer's
//! self time is its spans' durations minus their children, plus the
//! children attributed to it; whatever the pass spent outside every span
//! is `unaccounted`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span: a call into a layer, with the program-timer time
/// it contained.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// `<layer>.<what>`.
    pub name: String,
    /// Wall time of the call.
    pub ns: u64,
    /// `(name, ns)` of the program timers that ran inside the call.
    /// Their sum never exceeds `ns`.
    pub children: Vec<(&'static str, u64)>,
}

/// Whole-pass counts read from the program's results, not its timers.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Daemon samples across all campaigns.
    pub samples: u64,
    /// PBS records that ran to completion.
    pub jobs_completed: u64,
    /// Counter-glitch anomalies the daemon filtered.
    pub anomalies: u64,
    /// Per-job counter reports.
    pub job_reports: u64,
    /// Simulated days and host seconds of fault-free campaigns.
    pub steady_days: u64,
    pub steady_ns: u64,
    /// Simulated days and host seconds of faulted campaigns.
    pub faulted_days: u64,
    pub faulted_ns: u64,
    /// Bytes of compact JSON rendered.
    pub dataset_bytes: u64,
}

/// Cumulative program-timer readings at one instant.
#[derive(Debug, Clone, Copy)]
struct Marks([u64; 3]);

/// Program timers that become child spans, with the layer they charge.
const CHILD_TIMERS: [&str; 3] = ["power2.signature_measure", "pbs.schedule", "rs2hpm.sweep"];

impl Marks {
    fn now() -> Marks {
        Marks([
            sp2_power2::metrics::MEASURE.total_ns(),
            sp2_cluster::metrics::SCHEDULE.total_ns(),
            sp2_rs2hpm::metrics::SWEEP.total_ns(),
        ])
    }
}

/// Spans and counts of one or more passes.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub spans: Vec<SpanRec>,
    pub counts: Counts,
}

/// The layer a span or timer name belongs to: its first segment.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Ledger {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let marks = Marks::now();
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let end = Marks::now();
        let children: Vec<_> = CHILD_TIMERS
            .iter()
            .zip(marks.0.iter().zip(end.0))
            .map(|(&n, (&a, b))| (n, b.saturating_sub(a)))
            .collect();
        self.record(name.into(), ns, &children);
        out
    }

    /// Appends a finished span, clamping its children so they never sum
    /// past it (timers recorded on pool threads could otherwise overlap).
    pub fn record(&mut self, name: String, ns: u64, children: &[(&'static str, u64)]) {
        let mut left = ns;
        let children = children
            .iter()
            .filter(|(_, c)| *c > 0)
            .map(|&(n, c)| {
                let c = c.min(left);
                left -= c;
                (n, c)
            })
            .collect();
        self.spans.push(SpanRec { name, ns, children });
    }

    /// Duration of the most recent span.
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.ns)
    }

    /// Total wall time of spans named exactly `name` (children included).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns)
            .sum()
    }

    /// Self time per layer: each span's time minus its children, charged
    /// to the span's layer, plus each child charged to its own layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let inner: u64 = s.children.iter().map(|(_, c)| c).sum();
            *out.entry(layer(&s.name).to_string()).or_insert(0) += s.ns - inner;
            for (n, c) in &s.children {
                *out.entry(layer(n).to_string()).or_insert(0) += c;
            }
        }
        out
    }

    /// Wall time not covered by any span: `wall_ns` minus every layer's
    /// self time.
    pub fn unaccounted_ns(&self, wall_ns: u64) -> i128 {
        let covered: u64 = self.self_ns_by_layer().values().sum();
        i128::from(wall_ns) - i128::from(covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_is_the_first_segment() {
        assert_eq!(layer("core.experiment.table2"), "core");
        assert_eq!(layer("workload"), "workload");
    }

    #[test]
    fn children_are_clamped_to_their_span() {
        let mut l = Ledger::default();
        l.record(
            "cluster.campaign".into(),
            100,
            &[("pbs.schedule", 70), ("rs2hpm.sweep", 50)],
        );
        assert_eq!(
            l.spans[0].children,
            vec![("pbs.schedule", 70), ("rs2hpm.sweep", 30)]
        );
        let by = l.self_ns_by_layer();
        assert_eq!(by["cluster"], 0);
        assert_eq!(by["pbs"] + by["rs2hpm"], 100);
    }

    #[test]
    fn self_times_plus_unaccounted_equal_wall() {
        let mut l = Ledger::default();
        l.record(
            "workload.library_build".into(),
            9_000,
            &[("power2.signature_measure", 8_500)],
        );
        l.record("workload.trace_generate".into(), 40, &[]);
        l.record(
            "cluster.campaign".into(),
            700,
            &[
                ("pbs.schedule", 60),
                ("rs2hpm.sweep", 90),
                ("power2.signature_measure", 5),
            ],
        );
        l.record("core.experiment.summary".into(), 30, &[]);
        l.record("core.render".into(), 3, &[]);
        let wall = 10_000;
        let by = l.self_ns_by_layer();
        assert_eq!(by["workload"], 540);
        assert_eq!(by["power2"], 8_505);
        assert_eq!(by["cluster"], 545);
        assert_eq!(by["core"], 33);
        let selfs: u64 = by.values().sum();
        assert_eq!(i128::from(selfs) + l.unaccounted_ns(wall), i128::from(wall));
        assert_eq!(l.unaccounted_ns(wall), 227);
    }

    #[test]
    fn spans_time_real_work() {
        let mut l = Ledger::default();
        let v = l.span("core.render", || {
            (0..1000u64).map(std::hint::black_box).sum::<u64>()
        });
        assert_eq!(v, 499_500);
        assert_eq!(l.spans.len(), 1);
        assert_eq!(l.total_ns("core.render"), l.last_ns());
        let by = l.self_ns_by_layer();
        assert_eq!(by["core"], l.last_ns());
    }
}
