//! Multipass sampling: watching more signals than the hardware has slots.
//!
//! The POWER2 monitor's FXU group has five counter slots, but seven
//! FXU-group signals are worth watching. The Maki tools solved this with
//! multipass sampling — rotating counter selections across repeated runs
//! and rescaling. This example measures a CFD kernel that way and
//! compares the multipass estimate against ground truth.
//!
//! ```sh
//! cargo run --release --example multipass
//! ```

use sp2_repro::hpm::{EventSet, SchedulePlan, Signal};
use sp2_repro::power2::{MachineConfig, Node};
use sp2_repro::workload::{cfd_kernel, CfdKernelParams};

fn main() {
    let wanted = [
        Signal::Fxu0Exec,
        Signal::Fxu1Exec,
        Signal::DcacheMiss,
        Signal::TlbMiss,
        Signal::Cycles,
        Signal::StorageRefs,    // 6th and 7th FXU-group signals:
        Signal::FxuStallCycles, // cannot fit in the 5 hardware slots
        Signal::Fpu0Fma,
        Signal::IcuType1,
    ];
    let plan = SchedulePlan::minimal(&wanted);
    println!(
        "{} signals requested, FXU group holds 5 → {} passes",
        wanted.len(),
        plan.passes().len()
    );
    for (i, pass) in plan.passes().iter().enumerate() {
        let signals: Vec<_> = pass.signals().collect();
        println!("  pass {i}: {signals:?}");
    }

    // Run the kernel once per pass (a stationary workload, as multipass
    // assumes), each pass on its own seed and observing only its
    // configured signals. A signal watched in `coverage` of the `n` passes
    // is scaled by n / coverage, the standard multipass correction under
    // that assumption, so the estimate is a total over all n passes; the
    // truth is every signal counted in every pass.
    let machine = MachineConfig::nas_sp2();
    let kernel = cfd_kernel("cfd-multipass", &CfdKernelParams::default(), 50_000);
    let n = plan.passes().len() as u64;
    let mut truth = EventSet::new();
    let mut estimate = EventSet::new();
    for (i, pass) in plan.passes().iter().enumerate() {
        let mut node = Node::with_seed(machine, 100 + i as u64);
        let stats = node.run_kernel(&kernel);
        truth += stats.events;
        for s in pass.signals() {
            let coverage = plan.coverage(s) as u64;
            estimate.bump(s, stats.events.get(s) * n / coverage);
        }
    }

    println!(
        "\n{:<18} {:>14} {:>14} {:>8}",
        "signal", "truth", "estimate", "err%"
    );
    for s in wanted {
        let t = truth.get(s) as f64;
        let e = estimate.get(s) as f64;
        let err = if t > 0.0 { 100.0 * (e - t) / t } else { 0.0 };
        println!(
            "{:<18} {:>14} {:>14} {:>7.2}%",
            format!("{s:?}"),
            t as u64,
            e as u64,
            err
        );
    }
    println!("\nMultipass recovers full coverage at the cost of sampling error —");
    println!("the trade the RS2HPM tools made to report 'both user and system mode'.");
}
