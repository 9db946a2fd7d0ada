//! The trace layer's contract: it observes the simulator without
//! perturbing it. Running every experiment with metrics enabled must
//! produce datasets bit-identical to an uninstrumented run — the JSON
//! trees compare equal under `Json::bits_eq` (so even a `-0.0` flip
//! would fail) — while the snapshot itself covers every subsystem the
//! profile report promises: cache hit rate, per-phase campaign timing,
//! and daemon sweep statistics. And a campaign writes no process global:
//! one run with sweep elision off leaves the next default-config
//! campaign eliding.

use sp2_repro::cluster::EngineConfig;
use sp2_repro::core::experiments::Dataset;
use sp2_repro::core::{metrics, Sp2System};
use sp2_repro::trace::{self, MetricValue};

fn run_all_experiments() -> Vec<Dataset> {
    let mut sys = Sp2System::builder()
        .days(1)
        .faults(0.5)
        .fault_seed(4_096)
        .build();
    sys.run_all().expect("experiments run")
}

/// One test (not several): metric capture is switched per thread, but
/// the counters it reads are process totals, so a second capturing test
/// in this binary would move the readings this one checks.
#[test]
fn instrumented_run_is_bit_identical_and_snapshot_is_complete() {
    trace::set_enabled(false);
    let baseline = run_all_experiments();

    trace::set_enabled(true);
    metrics::reset();
    let traced = run_all_experiments();
    let snap = metrics::snapshot();
    trace::set_enabled(false);

    // Bit-identity: the trace layer never feeds back into the engine.
    assert_eq!(baseline.len(), traced.len());
    for (a, b) in baseline.iter().zip(&traced) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.rendered, b.rendered, "{} rendering drifted", a.id);
        assert!(
            a.json.bits_eq(&b.json),
            "{} dataset JSON not bit-identical under tracing",
            a.id
        );
    }

    // The snapshot must actually have measured the run, not just
    // enumerate zeroed metric names.
    let hit_rate = snap
        .get("power2.sigcache.hit_rate")
        .map(MetricValue::as_f64)
        .expect("cache hit rate present");
    assert!((0.0..=1.0).contains(&hit_rate));

    for phase in ["advance", "schedule"] {
        match snap.get(&format!("cluster.phase.{phase}")) {
            Some(&MetricValue::Duration { count, .. }) => {
                assert!(count > 0, "phase {phase} never timed");
            }
            other => panic!("phase {phase} missing or mistyped: {other:?}"),
        }
    }

    match snap.get("rs2hpm.sweep") {
        Some(&MetricValue::Duration { count, .. }) => assert!(count > 0, "no sweeps timed"),
        other => panic!("daemon sweep stats missing: {other:?}"),
    }
    assert!(
        snap.get("rs2hpm.nodes_sampled")
            .and_then(MetricValue::as_count)
            .expect("nodes_sampled present")
            > 0
    );

    // Per-experiment wall time and dataset sizes landed in the dynamic map.
    for d in &traced {
        assert!(
            snap.get(&format!("core.experiment.{}", d.id)).is_some(),
            "no wall time recorded for {}",
            d.id
        );
        let bytes = snap
            .get(&format!("core.dataset_bytes.{}", d.id))
            .and_then(MetricValue::as_count)
            .unwrap_or(0);
        assert!(bytes > 0, "no dataset size recorded for {}", d.id);
    }

    // And the exported document round-trips through the JSON parser.
    let doc = metrics::to_json(&snap);
    let text = doc.to_string_pretty();
    let parsed = sp2_repro::core::Json::parse(&text).expect("metrics JSON parses");
    assert_eq!(
        parsed.get("schema").and_then(sp2_repro::core::Json::as_str),
        Some(metrics::SCHEMA)
    );
    assert!(parsed.get("metrics").is_some());

    // A campaign with sweep elision off must not switch it off for the
    // campaigns after it in the same process.
    trace::set_enabled(true);
    let stepped = EngineConfig::default().fast_forward(false);
    Sp2System::builder()
        .days(2)
        .engine(stepped)
        .build()
        .campaign()
        .expect("stepped campaign runs");
    metrics::reset();
    Sp2System::builder()
        .days(2)
        .build()
        .campaign()
        .expect("default campaign runs");
    let elided = metrics::snapshot()
        .get("cluster.sweeps_elided")
        .and_then(MetricValue::as_count)
        .expect("sweeps_elided present");
    trace::set_enabled(false);
    assert!(
        elided > 0,
        "a default-config campaign after a stepped one elided no sweep"
    );
}
