//! Corruption safety for the sp2-archive/v1 columnar container.
//!
//! An archive is the durable record of a campaign; a damaged one must
//! fail **loudly** — a typed `Sp2Error`, never a panic and never
//! silently wrong data. These properties drive the decoder with
//! truncated files, single flipped bytes, and random garbage: every
//! outcome must be either a clean error or a decode bitwise-equal to
//! the original (CRC framing makes anything else astronomically
//! unlikely, and the proptest harness turns any panic into a failure).

use proptest::prelude::*;
use sp2_repro::cluster::{CampaignResult, FaultSummary};
use sp2_repro::core::archive::{self, read_archive};
use sp2_repro::hpm::{nas_selection, CounterDelta};
use sp2_repro::power2::MachineConfig;
use sp2_repro::rs2hpm::{RateReport, SystemSample};

/// A small hand-built campaign: big enough to exercise every block kind
/// (samples, datasets, header, end), cheap enough to build per case.
fn tiny_campaign() -> CampaignResult {
    let selection = nas_selection();
    let slots = selection.len();
    let lanes = |base: u64| CounterDelta {
        user: (0..slots as u64).map(|s| base * 1_000 + s * 7).collect(),
        system: (0..slots as u64).map(|s| base + s * 3).collect(),
    };
    CampaignResult {
        days: 1,
        node_count: 16,
        machine: MachineConfig::default(),
        selection,
        samples: (0..5)
            .map(|i| SystemSample {
                t: 900.0 * (i + 1) as f64,
                nodes_sampled: 16,
                nodes_total: 16,
                anomalies: 0,
                total: lanes(i + 1),
                rates: RateReport {
                    seconds: 900.0,
                    mflops: 1.0 / 3.0 + i as f64,
                    mips: 2.5 * i as f64,
                    ..RateReport::default()
                },
            })
            .collect(),
        job_reports: vec![],
        pbs_records: vec![],
        faults: FaultSummary::default(),
    }
}

fn archive_bytes(campaign: &CampaignResult) -> Vec<u8> {
    let lines = vec![r#"{"event":"dataset","seq":0,"doc":{"x":1}}"#.to_string()];
    archive::write_campaign_archive(Vec::new(), campaign, &lines).expect("writes")
}

fn reference_bytes() -> Vec<u8> {
    archive_bytes(&tiny_campaign())
}

proptest! {
    /// Any strict prefix of an archive fails to decode — the End footer
    /// is mandatory, so truncation can never pass for a complete file.
    #[test]
    fn truncated_archives_error_cleanly(cut in 0usize..100_000) {
        let bytes = reference_bytes();
        let cut = cut % bytes.len(); // every boundary, not just small ones
        prop_assert!(
            read_archive(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte archive decoded",
            bytes.len()
        );
    }

    /// A single flipped byte anywhere either errors or (never observed;
    /// CRC32 catches all single-byte bursts) decodes to the same data.
    #[test]
    fn flipped_bytes_never_yield_wrong_data(pos in 0usize..100_000, bit in 0u8..8) {
        let mut bytes = reference_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(decoded) = read_archive(&bytes[..]) {
            let original = read_archive(&reference_bytes()[..]).expect("reference decodes");
            let (d, o) = (decoded.campaign.unwrap(), original.campaign.unwrap());
            prop_assert_eq!(d.samples, o.samples);
            prop_assert_eq!(d.job_reports, o.job_reports);
            prop_assert_eq!(d.pbs_records, o.pbs_records);
            prop_assert_eq!(decoded.dataset_lines, original.dataset_lines);
        }
    }

    /// Random garbage (with and without a plausible magic) never panics.
    #[test]
    fn random_garbage_errors_cleanly(junk in prop::collection::vec(0u8..255, 0..256),
                                     with_magic in 0u8..2) {
        let mut junk = junk;
        if with_magic == 1 && junk.len() >= 4 {
            junk[..4].copy_from_slice(b"SP2A");
        }
        prop_assert!(read_archive(&junk[..]).is_err());
    }
}

#[test]
fn double_corruption_in_distinct_blocks_still_errors() {
    // Two flips in different frames: the first damaged frame must stop
    // the read before the second is ever trusted.
    let bytes = reference_bytes();
    let mut damaged = bytes.clone();
    let mid = bytes.len() / 2;
    damaged[mid] ^= 0xFF;
    damaged[bytes.len() - 3] ^= 0xFF;
    assert!(read_archive(&damaged[..]).is_err());
}

/// A named edit that makes a machine impossible to simulate.
type BadGeometry = (&'static str, fn(&mut MachineConfig));

/// A CRC-valid archive whose header names a machine the simulator cannot
/// build (experiments replaying it measure kernels on that machine) must
/// be refused with a typed error when it is read, before any cache or
/// TLB constructor sees the geometry.
#[test]
fn impossible_machine_geometry_errors_cleanly() {
    let bad: [BadGeometry; 10] = [
        ("dcache ways 3", |m| m.dcache.ways = 3),
        ("dcache ways 0", |m| m.dcache.ways = 0),
        ("dcache line 100 B", |m| m.dcache.line_bytes = 100),
        ("dcache 192 sets", |m| m.dcache.bytes = 192 * 1024),
        ("icache without a line", |m| m.icache.bytes = 64),
        ("tlb ways 3", |m| m.tlb_ways = 3),
        ("tlb 192 sets", |m| m.tlb_entries = 384),
        ("page 3000 B", |m| m.page_bytes = 3000),
        ("tlb penalty 54..=36", |m| {
            (m.tlb_penalty_min, m.tlb_penalty_max) = (54, 36)
        }),
        ("dispatch width 0", |m| m.dispatch_width = 0),
    ];
    assert!(read_archive(&reference_bytes()[..]).is_ok());
    for (label, edit) in bad {
        let mut campaign = tiny_campaign();
        edit(&mut campaign.machine);
        let bytes = archive_bytes(&campaign);
        match read_archive(&bytes[..]) {
            Err(e) => assert!(e.to_string().contains("machine"), "{label}: {e}"),
            Ok(_) => panic!("{label}: archive with an impossible machine was accepted"),
        }
    }
}
