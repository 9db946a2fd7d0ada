//! Shared setup for the benchmark harness.
//!
//! Every bench regenerates its table or figure once (printing the same
//! rows/series the paper reports) and then measures the cost of the
//! analysis pass with Criterion. The campaign length is configurable via
//! `SP2_BENCH_DAYS` (default 45 — long enough for stable statistics,
//! short enough for a quick `cargo bench`); set 270 for the paper's full
//! period.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]
use sp2_core::Sp2System;

/// Campaign length used by the benches.
pub fn bench_days() -> u32 {
    std::env::var("SP2_BENCH_DAYS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(45)
}

/// Builds the standard system and runs its campaign eagerly.
pub fn bench_system() -> Sp2System {
    let mut sys = Sp2System::nas_1996(bench_days());
    let _ = sys.campaign();
    sys
}
