//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. FPU0-first dispatch vs round-robin (the 1.7 asymmetry's origin);
//! 2. blocked vs naive matmul (the 240 Mflops blocking win);
//! 3. TLB penalty: uniform 36–54 vs fixed 45 cycles;
//! 4. cache line size: 256 B vs 128 B lines;
//! 5. divide-count erratum present vs repaired;
//! 6. paging model on vs off (Figure 5 exists only with it on);
//! 7. PBS drain threshold 64 vs none (Figure 2's >64-node starvation);
//! 8. write-back vs write-through D-cache (Table 1's `dcache_store`
//!    castout semantics exist only under write-back).
//!
//! Each ablation prints one `[ablation N]` line with its comparison.
//! Run with `cargo bench -p sp2-bench --bench ablations`.

use sp2_cluster::{Campaign, ClusterConfig, FaultPlan, PagingModel};
use sp2_core::experiments::{experiment, ExperimentInput};
use sp2_core::Json;
use sp2_hpm::{nas_selection, EventSet, Hpm, Mode, Signal};
use sp2_power2::{workers, FpuDispatch, MachineConfig, Node, WritePolicy};
use sp2_workload::{
    blocked_matmul_kernel, cfd_kernel, naive_matmul_kernel, trace, CampaignSpec, CfdKernelParams,
    JobMix, WorkloadLibrary,
};

fn kernel_mflops(machine: &MachineConfig, kernel: &sp2_isa::Kernel) -> f64 {
    let mut node = Node::with_seed(*machine, 11);
    let stats = node.run_kernel(kernel);
    stats.mflops(machine)
}

fn fpu_ratio(machine: &MachineConfig, kernel: &sp2_isa::Kernel) -> f64 {
    let mut node = Node::with_seed(*machine, 11);
    let stats = node.run_kernel(kernel);
    stats.events.get(Signal::Fpu0Exec) as f64 / stats.events.get(Signal::Fpu1Exec).max(1) as f64
}

fn print_microarch_ablations() {
    let base = MachineConfig::nas_sp2();
    let cfd = cfd_kernel("ablate-cfd", &CfdKernelParams::default(), 20_000);

    // 1. FPU dispatch policy.
    let mut rr = base;
    rr.fpu_dispatch = FpuDispatch::RoundRobin;
    println!(
        "[ablation 1] FPU0/FPU1 instruction ratio: fpu0-first {:.2} vs round-robin {:.2} (paper observes 1.7)",
        fpu_ratio(&base, &cfd),
        fpu_ratio(&rr, &cfd)
    );

    // 2. Blocked vs naive matmul.
    println!(
        "[ablation 2] matmul Mflops: blocked {:.0} vs naive {:.0} (the blocking win behind the 240 Mflops anchor)",
        kernel_mflops(&base, &blocked_matmul_kernel(20_000)),
        kernel_mflops(&base, &naive_matmul_kernel(20_000))
    );

    // 3. TLB penalty model.
    let mut fixed = base;
    fixed.tlb_penalty_min = 45;
    fixed.tlb_penalty_max = 45;
    println!(
        "[ablation 3] CFD Mflops: TLB penalty uniform 36-54 {:.2} vs fixed 45 {:.2}",
        kernel_mflops(&base, &cfd),
        kernel_mflops(&fixed, &cfd)
    );

    // 4. Cache line size.
    let mut thin = base;
    thin.dcache.line_bytes = 128;
    println!(
        "[ablation 4] CFD Mflops: 256 B lines {:.2} vs 128 B lines {:.2} (more misses per sweep)",
        kernel_mflops(&base, &cfd),
        kernel_mflops(&thin, &cfd)
    );

    // 5. Divide erratum.
    let mut events = EventSet::new();
    events.bump(Signal::Fpu0Div, 1_000_000);
    events.bump(Signal::Fpu0Add, 1_000_000);
    let mut with_bug = Hpm::new(nas_selection());
    let mut repaired = Hpm::new_without_erratum(nas_selection());
    with_bug.absorb(&events, Mode::User);
    repaired.absorb(&events, Mode::User);
    let slot = nas_selection().slot_of(Signal::Fpu0Div).unwrap();
    println!(
        "[ablation 5] divide counts seen by software: erratum {} vs repaired {} (paper: div row reads 0.0)",
        with_bug.snapshot().user[slot],
        repaired.snapshot().user[slot]
    );
}

fn print_write_policy_ablation() {
    let base = MachineConfig::nas_sp2();
    let mut wt = base;
    wt.dcache_policy = WritePolicy::WriteThrough;
    let cfd = cfd_kernel("ablate-wt", &CfdKernelParams::default(), 20_000);
    let store_rate = |m: &MachineConfig| {
        let mut n = Node::with_seed(*m, 11);
        let stats = n.run_kernel(&cfd);
        stats.events.get(Signal::DcacheStore) as f64 / stats.instructions as f64
    };
    println!(
        "[ablation 8] dcache_store events per instruction: write-back {:.4} (castouts) vs write-through {:.4} (every store)",
        store_rate(&base),
        store_rate(&wt)
    );
}

fn print_cluster_ablations() {
    let library = WorkloadLibrary::build(&MachineConfig::nas_sp2(), 1998);
    let spec = CampaignSpec {
        days: 20,
        ..Default::default()
    };
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);

    // 6. Paging on/off and 7. drain threshold — run the three campaign
    // variants side by side, one per core.
    let no_paging = ClusterConfig {
        paging: PagingModel {
            sys_slope: 0.0,
            io_slope: 0.0,
            ..PagingModel::default()
        },
        ..Default::default()
    };
    let no_drain = ClusterConfig {
        drain_threshold: 144,
        ..Default::default()
    };

    let configs = [ClusterConfig::default(), no_paging, no_drain];
    let none = FaultPlan::none();
    let results = workers::map_indexed(configs.len(), workers::available(), |i| {
        Campaign::new(&configs[i], &library, &jobs, spec.days, &none)
            .run()
            .expect("campaign runs")
    });

    let stat = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let fig5 = experiment("fig5").expect("registered");
    let f5_base = fig5
        .to_json(ExperimentInput::of(&results[0]))
        .expect("runs");
    let f5_off = fig5
        .to_json(ExperimentInput::of(&results[1]))
        .expect("runs");
    println!(
        "[ablation 6] Figure-5 correlation: paging on {:.2} (jobs sys>user: {:.0}) vs off {:.2} ({:.0}) — the collapse needs the paging model",
        stat(&f5_base, "correlation"),
        stat(&f5_base, "paging_suspected"),
        stat(&f5_off, "correlation"),
        stat(&f5_off, "paging_suspected")
    );

    let fig2 = experiment("fig2").expect("registered");
    let f2_base = fig2
        .to_json(ExperimentInput::of(&results[0]))
        .expect("runs");
    let f2_nodrain = fig2
        .to_json(ExperimentInput::of(&results[2]))
        .expect("runs");
    println!(
        "[ablation 7] walltime fraction above 64 nodes: drain@64 {:.3} vs no drain {:.3}",
        stat(&f2_base, "fraction_above_64"),
        stat(&f2_nodrain, "fraction_above_64")
    );
}

fn main() {
    print_microarch_ablations();
    print_write_policy_ablation();
    print_cluster_ablations();
}
