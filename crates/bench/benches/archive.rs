//! Benchmarks the two archive codecs on a real campaign's job reports:
//! encode and decode throughput for the RS2HPM text format versus the
//! sp2-archive/v1 columnar container, plus the whole-container
//! write/read path. Keeps the codec cost visible (year-scale campaigns
//! stream through these) and prints the size ratio the columnar format
//! exists for.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sp2_cluster::{Campaign, ClusterConfig, EngineConfig, EngineKind, FaultPlan};
use sp2_core::archive::{self, ArchiveCodec, ColumnarCodec, TextCodec};
use sp2_workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};

fn bench(c: &mut Criterion) {
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 31);
    let spec = CampaignSpec {
        days: 5,
        seed: 17,
        ..Default::default()
    };
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    let campaign = Campaign::new(&config, &library, &jobs, spec.days, &FaultPlan::none())
        .engine(EngineConfig::default().engine(EngineKind::Reference))
        .run()
        .expect("campaign runs");
    let selection = &campaign.selection;
    let reports = &campaign.job_reports;

    let text = TextCodec
        .encode_reports(selection, reports)
        .expect("encodes");
    let columnar = ColumnarCodec
        .encode_reports(selection, reports)
        .expect("encodes");
    println!(
        "archive codecs over {} job reports: text {} B, columnar {} B ({:.1}x denser)",
        reports.len(),
        text.len(),
        columnar.len(),
        text.len() as f64 / columnar.len() as f64
    );

    let codecs: [(&str, &dyn ArchiveCodec, &[u8]); 2] = [
        ("text", &TextCodec, &text),
        ("columnar", &ColumnarCodec, &columnar),
    ];
    for (name, codec, bytes) in codecs {
        let group_name = format!("archive/{name}");
        let mut g = c.benchmark_group(&group_name);
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_function("encode_reports", |b| {
            b.iter(|| codec.encode_reports(selection, reports).expect("encodes"))
        });
        g.bench_function("decode_reports", |b| {
            b.iter(|| codec.decode_reports(selection, bytes).expect("decodes"))
        });
        g.finish();
    }

    // The whole-container path `sp2 archive` / `--archive` ride:
    // samples + reports + PBS records + dataset lines in one file.
    let lines = vec![r#"{"event":"dataset","seq":0,"doc":{"mflops":66.1}}"#.to_string()];
    let container = archive::write_campaign_archive(Vec::new(), &campaign, &lines).expect("writes");
    let mut g = c.benchmark_group("archive/container");
    g.throughput(Throughput::Bytes(container.len() as u64));
    g.bench_function("write_campaign", |b| {
        b.iter(|| archive::write_campaign_archive(Vec::new(), &campaign, &lines).expect("writes"))
    });
    g.bench_function("read_campaign", |b| {
        b.iter(|| archive::read_archive(&container[..]).expect("reads"))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
