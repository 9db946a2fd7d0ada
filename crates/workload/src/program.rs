//! Job programs: what a batch job actually runs on its nodes.
//!
//! A program couples a measured compute kernel signature with the
//! demands that shape cluster-level behaviour: halo-exchange traffic
//! (lands in DMA counters and steals wall time), disk I/O (also DMA),
//! per-node memory (paging when it exceeds the 128 MB node), and the
//! communication style (the paper notes some >64-node jobs used
//! *synchronous* communication and lost time to it).

/// Index of a program in the [`crate::library::WorkloadLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramId(pub usize);

/// The code families in the NAS workload (paper §4/§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramFamily {
    /// Multi-block CFD flow solver (the bulk of the workload).
    CfdSolver,
    /// NPB-BT-style tuned solver (Table 4's comparison point).
    NpbBtLike,
    /// Multidisciplinary optimization sweep: embarrassingly parallel,
    /// negligible communication (§4).
    Optimization,
    /// Single-node development/benchmark runs (blocked matmul etc.).
    DevKernel,
    /// Pure streaming benchmark (sequential access reference).
    SeqBench,
    /// Interactive debugging session: dedicated nodes that compute only
    /// a fraction of the time while the user edits/debugs (PBS supported
    /// interactive logins; the paper credits dedicated access with
    /// "additional system idle").
    Interactive,
    /// BLAS3-dominated electromagnetic-scattering style code — the
    /// machine's fastest multinode application class (§5, Farhat).
    Blas3,
}

/// Per-step halo-exchange demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommSpec {
    /// Bytes exchanged with each neighbor per solver step.
    pub exchange_bytes: u64,
    /// Neighbors per node (domain-decomposition faces).
    pub neighbors: u32,
    /// Compute seconds between exchanges.
    pub step_seconds: f64,
    /// True for synchronous (blocking) exchanges: the sender idles for
    /// the full exchange; asynchronous jobs overlap all but latency.
    pub synchronous: bool,
}

impl CommSpec {
    /// No communication at all (single-node and optimization jobs).
    pub fn none() -> Self {
        CommSpec {
            exchange_bytes: 0,
            neighbors: 0,
            step_seconds: f64::INFINITY,
            synchronous: false,
        }
    }

    /// Whether the program communicates.
    pub fn is_communicating(&self) -> bool {
        self.exchange_bytes > 0 && self.neighbors > 0 && self.step_seconds.is_finite()
    }
}

/// A runnable program: measured kernel + resource demands.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProgram {
    /// Library index.
    pub id: ProgramId,
    /// Code family.
    pub family: ProgramFamily,
    /// Human-readable name (kernel variant).
    pub name: String,
    /// Index of the measured signature in the library.
    pub signature: usize,
    /// Communication demands.
    pub comm: CommSpec,
    /// Per-node working set in bytes; beyond node memory this pages.
    pub mem_per_node: u64,
    /// Sustained disk traffic per node, bytes/second (checkpoint dumps,
    /// plot files — the paper measured ≈3.2 MB/s of disk DMA globally).
    pub disk_bytes_per_s: f64,
    /// Fraction of residency actually computing: 1.0 for batch solvers,
    /// small for interactive debugging sessions where the nodes sit
    /// dedicated-but-idle between runs.
    pub duty_cycle: f64,
}

impl JobProgram {
    /// Oversubscription ratio against a node with `node_mem` bytes:
    /// 1.0 means exactly fitting; above 1.0 the job pages.
    pub fn oversubscription(&self, node_mem: u64) -> f64 {
        self.mem_per_node as f64 / node_mem as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_none_is_inert() {
        let c = CommSpec::none();
        assert!(!c.is_communicating());
    }

    #[test]
    fn comm_roundtrip() {
        let c = CommSpec {
            exchange_bytes: 500_000,
            neighbors: 6,
            step_seconds: 4.0,
            synchronous: false,
        };
        assert!(c.is_communicating());
    }

    #[test]
    fn oversubscription_ratio() {
        let p = JobProgram {
            id: ProgramId(0),
            family: ProgramFamily::CfdSolver,
            name: "t".into(),
            signature: 0,
            comm: CommSpec::none(),
            mem_per_node: 192 << 20,
            disk_bytes_per_s: 0.0,
            duty_cycle: 1.0,
        };
        let r = p.oversubscription(128 << 20);
        assert!((r - 1.5).abs() < 1e-12);
    }
}
