//! Regenerates the §5 calibration points (240 Mflops blocked matmul,
//! workload kernel, BT, sequential access) through the experiment
//! registry and benchmarks the node simulator itself on the two
//! extremes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sp2_cluster::CampaignResult;
use sp2_core::experiments::{experiment, ExperimentInput};
use sp2_hpm::nas_selection;
use sp2_power2::{MachineConfig, Node};
use sp2_workload::{blocked_matmul_kernel, cfd_kernel, CfdKernelParams};

fn bench(c: &mut Criterion) {
    let machine = MachineConfig::nas_sp2();
    let e = experiment("calibration").expect("registered");
    // Calibration measures reference kernels directly — no campaign.
    let empty = CampaignResult::empty(machine, nas_selection());
    println!(
        "{}",
        e.render(ExperimentInput::of(&empty)).expect("renders")
    );

    let mm = blocked_matmul_kernel(10_000);
    let cfd = cfd_kernel("bench-cfd", &CfdKernelParams::default(), 10_000);
    let mut g = c.benchmark_group("node-simulator");
    g.throughput(Throughput::Elements(mm.dynamic_instructions()));
    g.bench_function("blocked_matmul_10k_iters", |b| {
        b.iter(|| Node::with_seed(machine, 1).run_kernel(&mm))
    });
    g.throughput(Throughput::Elements(cfd.dynamic_instructions()));
    g.bench_function("cfd_kernel_10k_iters", |b| {
        b.iter(|| Node::with_seed(machine, 1).run_kernel(&cfd))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
