//! Per-node activity plans: what rates a node's counters advance at.
//!
//! When PBS places a job on a node, the cluster computes an
//! [`ActivityPlan`] from the job's *measured* kernel signature, its
//! communication spec (timed at the High Performance Switch's latency
//! and bandwidth), and the paging time-split. Counter advancement is
//! then a pure function of elapsed wall time, which lets the simulation
//! jump between events without per-cycle work.

use crate::paging::{PagingModel, TimeSplit};
use sp2_hpm::{EventSet, Signal};
use sp2_power2::KernelSignature;
use sp2_workload::JobProgram;

/// One-way message latency of the High Performance Switch, in seconds
/// (§2: "~45 µs").
const SWITCH_LATENCY_S: f64 = 45e-6;

/// Node-to-node bandwidth of the High Performance Switch, in bytes per
/// second (§2: "34 Mbyte/s"). Aggregate bandwidth scales linearly with
/// the node count, so a node's exchange serializes only on its own link.
const SWITCH_BANDWIDTH_BYTES_PER_S: f64 = 34e6;

/// Bytes one SCU DMA transfer event carries: "a single transfer can
/// represent either 4 or 8 words" (§5); the model counts 8-word
/// transfers of 4-byte words.
const DMA_BYTES_PER_TRANSFER: f64 = 32.0;

/// Counter-advancement rates for one node running one job.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityPlan {
    /// The job's compute signature (events per its own cycles).
    user_signature: KernelSignature,
    /// The system-mode handler signature (paging / VMM work).
    system_signature: KernelSignature,
    /// Wall-time split.
    pub split: TimeSplit,
    /// Fraction of wall time lost to message passing.
    pub comm_frac: f64,
    /// DMA read transfers per wall second (sends + disk writes).
    pub dma_read_per_s: f64,
    /// DMA write transfers per wall second (receives + disk reads).
    pub dma_write_per_s: f64,
}

impl ActivityPlan {
    /// Builds the plan for `program` running on a job of `job_nodes`
    /// nodes.
    pub fn for_job(
        program: &JobProgram,
        user_signature: &KernelSignature,
        system_signature: &KernelSignature,
        paging: &PagingModel,
        node_memory: u64,
        job_nodes: u32,
    ) -> Self {
        // --- communication share -----------------------------------
        let comm_frac = if program.comm.is_communicating() && job_nodes > 1 {
            let bytes = program.comm.exchange_bytes;
            let neighbors = program.comm.neighbors.min(job_nodes - 1);
            let serialization = neighbors as f64 * bytes as f64 / SWITCH_BANDWIDTH_BYTES_PER_S;
            let exchange = if program.comm.synchronous {
                // Blocking send/recv: the node idles the whole exchange.
                SWITCH_LATENCY_S + serialization
            } else {
                // Asynchronous overlap hides most of the serialization.
                SWITCH_LATENCY_S * 2.0 + 0.15 * serialization
            };
            exchange / (program.comm.step_seconds + exchange)
        } else {
            0.0
        };

        // --- paging time split --------------------------------------
        let oversub = program.oversubscription(node_memory);
        let mut split = paging.split(oversub, comm_frac);
        // Interactive sessions compute only during their duty cycle; the
        // rest of the residency the dedicated nodes idle.
        split.user *= program.duty_cycle.clamp(0.02, 1.0);

        // --- DMA traffic --------------------------------------------
        let msg_bytes_per_s = if program.comm.is_communicating() && job_nodes > 1 {
            let neighbors = program.comm.neighbors.min(job_nodes - 1) as f64;
            neighbors * program.comm.exchange_bytes as f64 / program.comm.step_seconds
        } else {
            0.0
        };
        let paging_bytes_per_s = paging.paging_disk_rate(split.io_wait);
        let disk_bytes_per_s = program.disk_bytes_per_s + paging_bytes_per_s;
        // Message send + disk write → dma_read; receive + disk read →
        // dma_write. Halo exchange is symmetric; disk traffic is mostly
        // writes (solution dumps) with paging split both ways.
        let dma_read_per_s = (msg_bytes_per_s + 0.7 * disk_bytes_per_s) / DMA_BYTES_PER_TRANSFER;
        let dma_write_per_s = (msg_bytes_per_s + 0.3 * disk_bytes_per_s) / DMA_BYTES_PER_TRANSFER;

        ActivityPlan {
            user_signature: user_signature.clone(),
            system_signature: system_signature.clone(),
            split,
            comm_frac,
            dma_read_per_s,
            dma_write_per_s,
        }
    }

    /// An idle node: only background system activity (clock ticks, the
    /// RS2HPM daemon itself).
    pub fn idle(system_signature: &KernelSignature, paging: &PagingModel) -> Self {
        ActivityPlan {
            user_signature: system_signature.clone(), // unused at user=0
            system_signature: system_signature.clone(),
            split: TimeSplit {
                user: 0.0,
                system: paging.base_sys * 0.2,
                io_wait: 0.0,
            },
            comm_frac: 0.0,
            dma_read_per_s: 0.0,
            dma_write_per_s: 0.0,
        }
    }

    /// User-mode events over `dt` wall seconds.
    pub fn user_events(&self, dt: f64) -> EventSet {
        if self.split.user <= 0.0 {
            return EventSet::new();
        }
        self.user_signature.events_for_seconds(dt * self.split.user)
    }

    /// System-mode events over `dt` wall seconds.
    pub fn system_events(&self, dt: f64) -> EventSet {
        if self.split.system <= 0.0 {
            return EventSet::new();
        }
        self.system_signature
            .events_for_seconds(dt * self.split.system)
    }

    /// I/O-wait cycles over `dt` wall seconds (system mode: the kernel
    /// owns the processor while it idles on the paging device). Visible
    /// only to selections that watch [`Signal::IoWaitCycles`] — the §7
    /// extension.
    pub fn io_wait_events(&self, dt: f64) -> EventSet {
        let mut e = EventSet::new();
        if self.split.io_wait > 0.0 {
            let cycles = self.split.io_wait * dt * self.user_signature.clock_hz;
            e.bump(Signal::IoWaitCycles, cycles.round() as u64);
        }
        e
    }

    /// DMA events over `dt` wall seconds (absorbed in user mode, as the
    /// adapters DMA on behalf of the user's message buffers).
    pub fn dma_events(&self, dt: f64) -> EventSet {
        let mut e = EventSet::new();
        e.bump(Signal::DmaRead, (self.dma_read_per_s * dt).round() as u64);
        e.bump(Signal::DmaWrite, (self.dma_write_per_s * dt).round() as u64);
        e
    }

    /// The effective per-node user Mflops this plan delivers.
    pub fn effective_mflops(&self) -> f64 {
        self.user_signature.mflops() * self.split.user
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_power2::handler::page_fault_signature;
    use sp2_power2::MachineConfig;
    use sp2_workload::{ProgramFamily, WorkloadLibrary};

    fn setup() -> (MachineConfig, WorkloadLibrary, KernelSignature) {
        let cfg = MachineConfig::nas_sp2();
        let lib = WorkloadLibrary::build(&cfg, 11);
        let handler = page_fault_signature(&cfg);
        (cfg, lib, handler)
    }

    #[test]
    fn fitting_cfd_job_keeps_most_user_time() {
        let (cfg, lib, handler) = setup();
        let id = lib.fitting_ids(cfg.memory_bytes, true)[0];
        let p = lib.program(id);
        let plan = ActivityPlan::for_job(
            p,
            lib.signature_of(id),
            &handler,
            &PagingModel::default(),
            cfg.memory_bytes,
            16,
        );
        assert!(plan.split.user > 0.8, "split {:?}", plan.split);
        assert!(plan.effective_mflops() > 5.0);
    }

    #[test]
    fn oversubscribed_job_collapses() {
        let (cfg, lib, handler) = setup();
        // The claim under test is about memory pressure, so pick the
        // *most* oversubscribed program: the first non-fitting id can be
        // a marginal case (a few percent over node memory) whose paging
        // tax is real but small, which is the paging model working as
        // intended, not a counterexample to collapse under pressure.
        let id = lib
            .fitting_ids(cfg.memory_bytes, false)
            .into_iter()
            .max_by(|a, b| {
                let over = |id| lib.program(id).oversubscription(cfg.memory_bytes);
                over(*a).total_cmp(&over(*b))
            })
            .expect("the library contains oversubscribed programs");
        let p = lib.program(id);
        let plan = ActivityPlan::for_job(
            p,
            lib.signature_of(id),
            &handler,
            &PagingModel::default(),
            cfg.memory_bytes,
            128,
        );
        assert!(plan.split.system > 0.1, "split {:?}", plan.split);
        let healthy_id = lib.fitting_ids(cfg.memory_bytes, true)[0];
        let healthy = ActivityPlan::for_job(
            lib.program(healthy_id),
            lib.signature_of(healthy_id),
            &handler,
            &PagingModel::default(),
            cfg.memory_bytes,
            16,
        );
        assert!(plan.effective_mflops() < 0.6 * healthy.effective_mflops());
    }

    #[test]
    fn single_node_job_has_no_comm() {
        let (cfg, lib, handler) = setup();
        let id = lib.family_ids(ProgramFamily::CfdSolver)[0];
        let plan = ActivityPlan::for_job(
            lib.program(id),
            lib.signature_of(id),
            &handler,
            &PagingModel::default(),
            cfg.memory_bytes,
            1,
        );
        assert_eq!(plan.comm_frac, 0.0);
    }

    #[test]
    fn synchronous_comm_costs_more_than_async() {
        let (cfg, lib, handler) = setup();
        let id = lib.family_ids(ProgramFamily::CfdSolver)[0];
        let mut sync_prog = lib.program(id).clone();
        sync_prog.comm.synchronous = true;
        sync_prog.comm.exchange_bytes = 1_000_000;
        sync_prog.comm.step_seconds = 2.0;
        let mut async_prog = sync_prog.clone();
        async_prog.comm.synchronous = false;
        let mk = |p: &JobProgram| {
            ActivityPlan::for_job(
                p,
                lib.signature_of(id),
                &handler,
                &PagingModel::default(),
                cfg.memory_bytes,
                32,
            )
        };
        assert!(mk(&sync_prog).comm_frac > 2.0 * mk(&async_prog).comm_frac);
    }

    #[test]
    fn paper_switch_and_dma_constants_set_the_rates() {
        let (cfg, lib, handler) = setup();
        let id = lib.fitting_ids(cfg.memory_bytes, true)[0];
        let mut p = lib.program(id).clone();
        p.comm.neighbors = 1;
        p.comm.synchronous = true;
        p.comm.exchange_bytes = 1_000_000;
        p.comm.step_seconds = 2.0;
        p.disk_bytes_per_s = 0.0;
        let plan = ActivityPlan::for_job(
            &p,
            lib.signature_of(id),
            &handler,
            &PagingModel::default(),
            cfg.memory_bytes,
            2,
        );
        // 45 µs latency plus 1 MB serialized at 34 Mbyte/s (§2).
        let exchange = 45e-6 + 1e6 / 34e6;
        let want = exchange / (2.0 + exchange);
        assert!(
            (plan.comm_frac - want).abs() < 1e-12,
            "comm_frac {} vs {want}",
            plan.comm_frac
        );
        // 0.5 MB/s each way in 8-word (32-byte) transfers (§5); a
        // fitting program adds no paging traffic.
        assert_eq!(plan.dma_read_per_s, 5e5 / 32.0);
        assert_eq!(plan.dma_write_per_s, 5e5 / 32.0);
    }

    #[test]
    fn event_scaling_linear_in_time() {
        let (cfg, lib, handler) = setup();
        let id = lib.family_ids(ProgramFamily::CfdSolver)[0];
        let plan = ActivityPlan::for_job(
            lib.program(id),
            lib.signature_of(id),
            &handler,
            &PagingModel::default(),
            cfg.memory_bytes,
            16,
        );
        let e1 = plan.user_events(900.0);
        let e2 = plan.user_events(1800.0);
        let f1 = e1.get(Signal::Fpu0Fma) as f64;
        let f2 = e2.get(Signal::Fpu0Fma) as f64;
        assert!((f2 / f1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn idle_plan_produces_no_user_events() {
        let (_, _, handler) = setup();
        let plan = ActivityPlan::idle(&handler, &PagingModel::default());
        assert!(plan.user_events(900.0).is_zero());
        let sys = plan.system_events(900.0);
        assert!(!sys.is_zero(), "background OS activity exists");
        assert_eq!(sys.flops_total(), 0);
        assert!(plan.dma_events(900.0).is_zero());
    }

    #[test]
    fn dma_rates_in_papers_ballpark() {
        let (cfg, lib, handler) = setup();
        // A communicating 16-node CFD job.
        let id = lib.family_ids(ProgramFamily::CfdSolver)[0];
        let plan = ActivityPlan::for_job(
            lib.program(id),
            lib.signature_of(id),
            &handler,
            &PagingModel::default(),
            cfg.memory_bytes,
            16,
        );
        // Paper: ~0.024e6 read + 0.017e6 write transfers/s per node on
        // active days. Same order of magnitude here.
        assert!(
            (1_000.0..200_000.0).contains(&plan.dma_read_per_s),
            "dma_read {}",
            plan.dma_read_per_s
        );
    }
}
