//! §5 calibration points: the single-processor reference measurements
//! the paper anchors its analysis on.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput};
use crate::json::{Json, ToJson};
use crate::render;
use serde::{Deserialize, Serialize};
use sp2_hpm::Signal;
use sp2_power2::{FastForward, KernelSignature, MachineConfig, SignatureCache};
use sp2_workload::kernels::{
    blocked_matmul_kernel, cfd_kernel, naive_matmul_kernel, seqaccess_kernel, CfdKernelParams,
};

/// One calibration measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationPoint {
    /// Kernel name.
    pub name: String,
    /// Achieved Mflops.
    pub mflops: f64,
    /// Achieved Mips.
    pub mips: f64,
    /// flops per storage-reference instruction.
    pub flops_per_memref: f64,
    /// FPU0/FPU1 instruction ratio.
    pub fpu0_fpu1_ratio: f64,
    /// Cache-miss ratio (misses / FXU instructions).
    pub cache_miss_ratio: f64,
    /// TLB-miss ratio.
    pub tlb_miss_ratio: f64,
}

/// The regenerated §5 calibration set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Calibration {
    /// Peak Mflops of the machine (267 at 66.7 MHz).
    pub peak_mflops: f64,
    /// The measured points.
    pub points: Vec<CalibrationPoint>,
}

fn point(name: &str, sig: &KernelSignature) -> CalibrationPoint {
    let fxu = sig.events.fxu_total().max(1) as f64;
    let memrefs = sig.events.get(Signal::StorageRefs).max(1) as f64;
    CalibrationPoint {
        name: name.to_string(),
        mflops: sig.mflops(),
        mips: sig.mips(),
        flops_per_memref: sig.events.flops_total() as f64 / memrefs,
        fpu0_fpu1_ratio: sig.events.get(Signal::Fpu0Exec) as f64
            / sig.events.get(Signal::Fpu1Exec).max(1) as f64,
        cache_miss_ratio: sig.events.get(Signal::DcacheMiss) as f64 / fxu,
        tlb_miss_ratio: sig.events.get(Signal::TlbMiss) as f64 / fxu,
    }
}

/// Runs all §5 calibration kernels on a fresh NAS node.
pub(crate) fn run(machine: &MachineConfig) -> Calibration {
    let iters = 40_000;
    let names = [
        "blocked-matmul",
        "naive-matmul",
        "cfd-workload-avg",
        "npb-bt-like",
        "seq-access",
    ];
    let jobs = [
        (blocked_matmul_kernel(iters), 1),
        (naive_matmul_kernel(iters), 2),
        (cfd_kernel("cfd-avg", &CfdKernelParams::default(), iters), 3),
        (cfd_kernel("bt", &CfdKernelParams::npb_bt(), iters), 4),
        (seqaccess_kernel(4 * iters), 5),
    ];
    let sigs = SignatureCache::global().measure_all(&jobs, machine, FastForward::Auto);
    Calibration {
        peak_mflops: machine.peak_mflops(),
        points: names
            .iter()
            .zip(&sigs)
            .map(|(name, sig)| point(name, sig))
            .collect(),
    }
}

impl Calibration {
    /// Finds a point by name.
    pub fn point(&self, name: &str) -> Option<&CalibrationPoint> {
        self.points.iter().find(|p| p.name == name)
    }

    /// Renders the calibration table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    render::num(p.mflops, 1, 7),
                    render::num(p.mips, 1, 7),
                    render::num(p.flops_per_memref, 2, 6),
                    render::num(p.fpu0_fpu1_ratio, 2, 6),
                    format!("{:.2}%", p.cache_miss_ratio * 100.0),
                    format!("{:.3}%", p.tlb_miss_ratio * 100.0),
                ]
            })
            .collect();
        let mut out = render::table(
            "Calibration: single-processor reference kernels (paper §5)",
            &[
                "kernel", "Mflops", "Mips", "f/mem", "FPU0/1", "cmiss", "tlbmiss",
            ],
            &rows,
        );
        out.push_str(&format!("machine peak: {:.0} Mflops\n", self.peak_mflops));
        out
    }
}

impl ToJson for Calibration {
    fn to_json(&self) -> Json {
        Json::obj().field("peak_mflops", self.peak_mflops).field(
            "points",
            Json::Arr(
                self.points
                    .iter()
                    .map(|p| {
                        Json::obj()
                            .field("name", p.name.as_str())
                            .field("mflops", p.mflops)
                            .field("mips", p.mips)
                            .field("flops_per_memref", p.flops_per_memref)
                            .field("fpu0_fpu1_ratio", p.fpu0_fpu1_ratio)
                            .field("cache_miss_ratio", p.cache_miss_ratio)
                            .field("tlb_miss_ratio", p.tlb_miss_ratio)
                    })
                    .collect(),
            ),
        )
    }
}

/// Registry entry for the §5 calibration suite (campaign-independent:
/// it measures reference kernels on the campaign's machine description).
pub struct CalibrationExperiment;

impl Experiment for CalibrationExperiment {
    fn id(&self) -> &'static str {
        "calibration"
    }

    fn title(&self) -> &'static str {
        "Calibration: single-processor reference kernels (paper §5)"
    }

    fn needs_campaign(&self) -> bool {
        false
    }

    fn run(&self, input: ExperimentInput<'_>) -> Result<Dataset, Sp2Error> {
        let c = run(&input.campaign.machine);
        Ok(Dataset::assemble(
            self.id(),
            self.title(),
            c.render(),
            c.to_json(),
            &input,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_papers_anchors() {
        let machine = MachineConfig::nas_sp2();
        let c = run(&machine);
        let mm = c.point("blocked-matmul").unwrap();
        // "approximately 240 Mflops on the 67 Mhz POWER2".
        assert!(
            (210.0..268.0).contains(&mm.mflops),
            "matmul {:.0}",
            mm.mflops
        );
        // "the high performance matrix multiply displays a value of 3.0".
        assert!((2.5..3.6).contains(&mm.flops_per_memref));
        // Workload kernel ≈ 17 Mflops, ratio ≈ 0.5, FPU0/FPU1 ≈ 1.7.
        let cfd = c.point("cfd-workload-avg").unwrap();
        assert!((12.0..26.0).contains(&cfd.mflops), "cfd {:.1}", cfd.mflops);
        assert!(cfd.flops_per_memref < 1.2);
        assert!((1.2..3.2).contains(&cfd.fpu0_fpu1_ratio));
        // Naive matmul is the memory-bound baseline the blocking beats.
        let nm = c.point("naive-matmul").unwrap();
        assert!(mm.mflops > 3.0 * nm.mflops);
        // Peak.
        assert!((c.peak_mflops - 266.8).abs() < 1.0);
        let text = c.render();
        assert!(text.contains("blocked-matmul"));
    }
}
