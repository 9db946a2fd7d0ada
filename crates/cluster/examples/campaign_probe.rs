use sp2_cluster::{Campaign, ClusterConfig, FaultPlan};
use sp2_workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};

fn main() {
    let t0 = std::time::Instant::now();
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 1998);
    eprintln!("library built in {:?}", t0.elapsed());
    {
        use sp2_workload::ProgramFamily::*;
        for fam in [CfdSolver, NpbBtLike, Optimization, Interactive] {
            let v: Vec<f64> = library
                .family_ids(fam)
                .iter()
                .map(|&id| library.signature_of(id).mflops())
                .collect();
            let m = v.iter().sum::<f64>() / v.len() as f64;
            eprintln!(
                "{fam:?}: n={} mean {:.1} Mflops range {:.1}..{:.1}",
                v.len(),
                m,
                v.iter().cloned().fold(f64::INFINITY, f64::min),
                v.iter().cloned().fold(0.0, f64::max)
            );
        }
    }
    let spec = CampaignSpec::default();
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    eprintln!("{} jobs submitted", jobs.len());
    let t1 = std::time::Instant::now();
    let r = match Campaign::new(&config, &library, &jobs, spec.days, &FaultPlan::none()).run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("campaign ran in {:?}", t1.elapsed());

    println!(
        "mean_daily_gflops = {:.2} (paper 1.3)",
        r.mean_daily_gflops()
    );
    println!(
        "mean_utilization  = {:.2} (paper 0.64)",
        r.mean_utilization()
    );
    println!(
        "max_daily_util    = {:.2} (paper 0.95)",
        r.daily_utilization().iter().fold(0.0f64, |a, &b| a.max(b))
    );
    println!(
        "max_daily_gflops  = {:.2} (paper 3.4)",
        r.max_daily_gflops()
    );
    println!(
        "max_15min_gflops  = {:.2} (paper 5.7)",
        r.max_sample_gflops()
    );
    let good = r.days_above(2.0);
    println!("days > 2 Gflops   = {} (paper 30/270)", good.len());
    let rates = r.daily_node_rates();
    if !good.is_empty() {
        let mf: f64 = good.iter().map(|&d| rates[d].mflops).sum::<f64>() / good.len() as f64;
        let mips: f64 = good.iter().map(|&d| rates[d].mips).sum::<f64>() / good.len() as f64;
        let fma: f64 = good
            .iter()
            .map(|&d| rates[d].fma_flop_fraction())
            .sum::<f64>()
            / good.len() as f64;
        let f01: f64 = good
            .iter()
            .map(|&d| rates[d].fpu0_fpu1_ratio())
            .sum::<f64>()
            / good.len() as f64;
        let cm: f64 = good
            .iter()
            .map(|&d| rates[d].cache_miss_ratio())
            .sum::<f64>()
            / good.len() as f64;
        let tm: f64 =
            good.iter().map(|&d| rates[d].tlb_miss_ratio()).sum::<f64>() / good.len() as f64;
        println!("good-day node Mflops = {mf:.1} (paper 17.4), Mips = {mips:.1} (45.7)");
        println!(
            "fma share {fma:.2} (0.54), fpu0/1 {f01:.2} (1.7), cmr {:.2}% (1%), tlb {:.3}% (0.1%)",
            cm * 100.0,
            tm * 100.0
        );
        let dr: f64 = good.iter().map(|&d| rates[d].dma_read).sum::<f64>() / good.len() as f64;
        let dw: f64 = good.iter().map(|&d| rates[d].dma_write).sum::<f64>() / good.len() as f64;
        println!("dma read {dr:.3} M/s (0.024) write {dw:.3} (0.017)");
    }
    println!("batch jobs >600s  = {}", r.batch_reports(600.0).len());
    println!(
        "tw node mflops    = {:.1} (paper 19)",
        r.time_weighted_node_mflops(600.0)
    );
    let recs: Vec<_> = r.pbs_records.clone();
    let h = sp2_pbs::walltime_histogram(&recs, 144, 600.0);
    let top: Vec<_> = h.top_k(3);
    println!(
        "walltime top3 = {:?} (paper 16,32,8)",
        top.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    println!(
        "frac walltime >64 nodes = {:.3} (paper ~0)",
        h.fraction_above(64)
    );
    let batch = r.batch_reports(600.0);
    let mut by_small = (0.0, 0u32);
    let mut by_big = (0.0, 0u32);
    let mut pagers = 0;
    for b in &batch {
        if b.nodes > 64 {
            by_big.0 += b.mflops_per_node();
            by_big.1 += 1;
            if b.paging_suspected() {
                pagers += 1;
            }
        } else {
            by_small.0 += b.mflops_per_node();
            by_small.1 += 1;
        }
    }
    if by_big.1 > 0 {
        println!(
            ">64-node jobs: {} avg {:.1} Mf/node, {} paging-suspected; <=64: avg {:.1}",
            by_big.1,
            by_big.0 / by_big.1 as f64,
            pagers,
            by_small.0 / by_small.1 as f64
        );
    } else {
        println!("no >64-node jobs completed");
    }
    let sixteen: Vec<f64> = batch
        .iter()
        .filter(|b| b.nodes == 16)
        .map(|b| b.job_mflops())
        .collect();
    let m = sixteen.iter().sum::<f64>() / sixteen.len().max(1) as f64;
    let sd = (sixteen.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / sixteen.len().max(1) as f64)
        .sqrt();
    println!(
        "16-node jobs: n={} mean {:.0} Mflops sd {:.0} (paper 320 / 200)",
        sixteen.len(),
        m,
        sd
    );
}
