//! POWER2 hardware performance monitor model.
//!
//! The real monitor is 22 32-bit counters on the SCU chip: five counter
//! slots each for the FXU, FPU0, FPU1, and SCU groups and two for the ICU,
//! each slot selectable among the unit's reportable signals (a subset of
//! the 320 overall signals, Welbon 1994). This crate models:
//!
//! - the *signal* space ([`signal::Signal`]) — a practical subset of the
//!   320 covering everything the NAS selection and our ablations need;
//! - the *event vector* ([`events::EventSet`]) — raw per-signal counts the
//!   node simulator produces cheaply in plain `u64`s;
//! - the *counter bank* ([`bank::Hpm`]) — the selection-limited, 32-bit
//!   wrapping, user/system-mode-split view the software actually gets,
//!   including the divide-count erratum the paper reports;
//! - the NAS Table-1 counter selection ([`config::nas_selection`]);
//! - the counter-group scheduler ([`scheduler`]) that plans minimal
//!   multipass rotations for arbitrary signal requests, for watching more
//!   signals than the hardware has slots as the RS2HPM tools did — the
//!   paper's manual Table-1 selection process, automated.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod bank;
pub mod config;
pub mod events;
pub mod scheduler;
pub mod signal;

pub use bank::{CounterDelta, CounterSnapshot, Hpm, Mode};
pub use config::{io_aware_selection, nas_selection, CounterSelection, SlotSpec};
pub use events::EventSet;
pub use scheduler::{PlanError, SchedulePlan};
pub use signal::{Signal, SignalGroup};
