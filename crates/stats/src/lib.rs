//! Statistics utilities for the SP2 HPM reproduction.
//!
//! The paper's evaluation is almost entirely descriptive statistics over
//! counter-derived rate series: means and standard deviations over filtered
//! day sets (Tables 2 and 3), moving averages over daily series (Figures 1
//! and 4), histograms of accounting records (Figure 2), and binned scatter
//! plots (Figures 3 and 5). This crate provides those primitives with
//! deterministic, allocation-conscious implementations shared by the
//! analysis and bench crates.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod binned;
pub mod coverage;
pub mod histogram;
pub mod moving;
pub mod series;
pub mod summary;

pub use binned::BinnedScatter;
pub use coverage::Coverage;
pub use histogram::Histogram;
pub use moving::{centered_moving_average, linear_trend_slope, trailing_moving_average};
pub use series::TimeSeries;
pub use summary::Summary;
