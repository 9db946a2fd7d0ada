//! A single CFD batch job through the whole stack: PBS allocates 16
//! dedicated nodes, the job's measured kernel signature drives the nodes'
//! counters, prologue/epilogue snapshots produce the per-job report —
//! exactly the data behind Figures 3–5.
//!
//! Also runs the same program memory-oversubscribed on 128 nodes to show
//! the paging collapse of §6.
//!
//! ```sh
//! cargo run --release --example cfd_job
//! ```

use sp2_repro::cluster::NodeState;
use sp2_repro::cluster::{ActivityPlan, PagingModel};
use sp2_repro::hpm::nas_selection;
use sp2_repro::pbs::{JobId, JobSpec, Pbs};
use sp2_repro::power2::handler::page_fault_signature;
use sp2_repro::rs2hpm::JobCounterReport;
use sp2_repro::workload::{ProgramFamily, WorkloadLibrary};

fn main() {
    let machine = sp2_repro::power2::MachineConfig::nas_sp2();
    println!("measuring workload kernel library on the node simulator…");
    let library = WorkloadLibrary::build(&machine, 1998);
    let handler = page_fault_signature(&machine);
    let selection = nas_selection();

    // A healthy 16-node CFD solver run.
    let healthy_id = library
        .family_ids(ProgramFamily::CfdSolver)
        .into_iter()
        .find(|&id| library.program(id).mem_per_node <= machine.memory_bytes)
        .expect("library has fitting CFD programs");
    // An oversubscribed program (automatic arrays beyond node memory).
    let paging_id = library
        .fitting_ids(machine.memory_bytes, false)
        .first()
        .copied()
        .expect("library has oversubscribed programs");

    let mut pbs = Pbs::new(144);
    let mut nodes: Vec<NodeState> = (0..144)
        .map(|_| NodeState::new(selection.clone()))
        .collect();

    // Jobs run back-to-back: the second starts when the first ends.
    let mut now = 0.0f64;
    for (label, id, n_nodes, walltime) in [
        ("healthy 16-node CFD solver", healthy_id, 16u32, 3600.0),
        ("oversubscribed 128-node job", paging_id, 128u32, 3600.0),
    ] {
        let program = library.program(id);
        let spec = JobSpec {
            id: JobId(id.0 as u64),
            nodes: n_nodes,
            requested_walltime_s: walltime,
            payload: id.0 as u64,
        };
        pbs.submit(spec).expect("request fits the machine");
        let started = pbs.schedule(now);
        let job = started.last().expect("machine is empty, job starts");

        let plan = ActivityPlan::for_job(
            program,
            library.signature_of(id),
            &handler,
            &PagingModel::default(),
            machine.memory_bytes,
            n_nodes,
        );
        // Prologue snapshots, run, epilogue snapshots.
        let start = now;
        let end = now + walltime;
        let mut prologue = Vec::new();
        for &n in &job.nodes {
            prologue.push(nodes[n].snapshot_at(start));
            nodes[n].set_activity(start, Some(plan.clone()));
        }
        let epilogue: Vec<_> = job
            .nodes
            .iter()
            .map(|&n| {
                let after = nodes[n].snapshot_at(end);
                nodes[n].set_activity(end, None);
                after
            })
            .collect();
        let report = JobCounterReport::from_snapshots(
            &selection,
            job.spec.id.0,
            start,
            end,
            &prologue,
            &epilogue,
        );
        pbs.release(job.spec.id).expect("job is running");
        now = end;

        println!("\n{label} ({}):", program.name);
        println!("  nodes            {:>8}", report.nodes);
        println!("  job Mflops       {:>8.1}", report.job_mflops());
        println!("  Mflops per node  {:>8.2}", report.mflops_per_node());
        println!(
            "  sys/user FXU     {:>8.2}",
            report.rates.system_user_fxu_ratio
        );
        println!(
            "  paging suspected {:>8}  (system instructions exceed user)",
            report.paging_suspected()
        );
        println!(
            "  DMA read/write   {:>8.4} / {:.4} Mtransfers/s",
            report.rates.dma_read, report.rates.dma_write
        );
    }
    println!("\nThe collapse from ~hundreds of job Mflops to single digits per node,");
    println!("with system-mode counts overtaking user counts, is the paper's §6 finding.");
}
