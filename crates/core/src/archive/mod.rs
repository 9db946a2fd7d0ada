//! `sp2-archive/v1`: the compact on-disk form of a campaign.
//!
//! The paper's dataset is nine months of 15-minute sweeps over 144
//! nodes plus per-job epilogue reports. This module defines the binary
//! columnar container those records are written into and read back out
//! of, bit-for-bit:
//!
//! ```text
//! "SP2A"                                  4-byte magic
//! block*                                  framed blocks, in order
//!   [kind u8][len u32 LE][payload][crc32 u32 LE]
//! ```
//!
//! The CRC covers kind, length, and payload, so a flipped byte anywhere
//! in a frame is detected before the payload is interpreted. Block
//! kinds: `1` header (compact JSON, self-describing, carries the schema
//! string and the campaign's selection/machine/fault metadata), `2`
//! interval samples, `3` job counter reports, `4` PBS accounting
//! records (all columnar; see [`columnar`]), `5` one raw NDJSON dataset
//! line (exact bytes, for serve replay), `6` end-of-archive footer with
//! record counts. The header must come first and the footer last — a
//! truncated file is *always* detectable, because the footer is missing
//! or a frame is cut short.
//!
//! Counter lanes are delta+zigzag+varint coded; every `f64` travels as
//! its exact little-endian bit pattern. Decoding never panics: corrupt
//! input surfaces as [`Sp2Error::Protocol`] (exit 8 at the CLI).

pub mod columnar;
pub mod wire;

use std::fs::File;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::path::Path;

use sp2_cluster::{CampaignResult, FaultSummary};
use sp2_hpm::CounterSelection;
use sp2_pbs::JobRecord;
use sp2_power2::{CacheConfig, FpuDispatch, MachineConfig, WritePolicy};
use sp2_rs2hpm::{JobCounterReport, SystemSample};

use crate::error::Sp2Error;
use crate::experiments::SelectionKind;
use crate::json::Json;

pub use columnar::{rate_report_fields, rate_report_from_fields, RATE_FIELDS};
pub use wire::{crc32, WireError};

/// Schema tag stored in every header block.
pub const SCHEMA: &str = "sp2-archive/v1";

/// File magic.
pub const MAGIC: [u8; 4] = *b"SP2A";

/// Interval samples per columnar block: the writer's flush granularity.
/// A block is ~0.25 MB; a year-long campaign is ~69 blocks.
pub const SAMPLES_PER_BLOCK: usize = 512;

/// Sanity cap on one block's payload, far above anything the writer
/// emits. Bounds the allocation a corrupt length field can provoke.
const MAX_BLOCK_BYTES: u32 = 64 * 1024 * 1024;

const K_HEADER: u8 = 1;
const K_SAMPLES: u8 = 2;
const K_JOB_REPORTS: u8 = 3;
const K_PBS_RECORDS: u8 = 4;
const K_DATASET: u8 = 5;
const K_END: u8 = 6;

fn malformed(msg: impl std::fmt::Display) -> Sp2Error {
    Sp2Error::Protocol(format!("archive: {msg}"))
}

fn wire_err(e: WireError) -> Sp2Error {
    malformed(e)
}

// ---------------------------------------------------------------------
// Selection naming
// ---------------------------------------------------------------------

/// Identifies which of the two monitor selections `selection` is.
/// Campaign archives name the selection rather than serializing it —
/// the slot assignment tables live in `sp2-hpm`, and a label keeps the
/// header readable and the format honest about what it can hold.
pub fn selection_kind(selection: &CounterSelection) -> Result<SelectionKind, Sp2Error> {
    for kind in [SelectionKind::Nas, SelectionKind::IoAware] {
        if *selection == kind.selection() {
            return Ok(kind);
        }
    }
    Err(malformed(
        "only the nas and io_aware counter selections are archivable",
    ))
}

fn kind_from_name(name: &str) -> Result<SelectionKind, Sp2Error> {
    [SelectionKind::Nas, SelectionKind::IoAware]
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| malformed(format!("unknown selection {name:?}")))
}

// ---------------------------------------------------------------------
// Header metadata
// ---------------------------------------------------------------------

/// Everything a campaign archive's header records beyond the samples
/// themselves: enough to rebuild a [`CampaignResult`] without a side
/// channel.
#[derive(Debug, Clone)]
pub struct CampaignMeta {
    /// Which monitor selection the campaign ran.
    pub kind: SelectionKind,
    /// Campaign length in days.
    pub days: u32,
    /// Machine size.
    pub node_count: usize,
    /// Per-node machine parameters.
    pub machine: MachineConfig,
    /// Fault-layer summary.
    pub faults: FaultSummary,
}

impl CampaignMeta {
    /// Extracts the archivable metadata of a finished campaign.
    pub fn of(c: &CampaignResult) -> Result<Self, Sp2Error> {
        Ok(CampaignMeta {
            kind: selection_kind(&c.selection)?,
            days: c.days,
            node_count: c.node_count,
            machine: c.machine,
            faults: c.faults,
        })
    }
}

fn cache_to_json(c: &CacheConfig) -> Json {
    Json::obj()
        .field("bytes", c.bytes)
        .field("ways", c.ways as u64)
        .field("line_bytes", c.line_bytes)
}

fn machine_to_json(m: &MachineConfig) -> Json {
    Json::obj()
        .field("clock_hz", m.clock_hz)
        .field("dcache", cache_to_json(&m.dcache))
        .field("icache", cache_to_json(&m.icache))
        .field("tlb_entries", m.tlb_entries as u64)
        .field("tlb_ways", m.tlb_ways as u64)
        .field("page_bytes", m.page_bytes)
        .field("dcache_miss_penalty", m.dcache_miss_penalty)
        .field("tlb_penalty_min", m.tlb_penalty_min)
        .field("tlb_penalty_max", m.tlb_penalty_max)
        .field("dispatch_width", m.dispatch_width)
        .field("fpu_latency", m.fpu_latency)
        .field("fdiv_cycles", m.fdiv_cycles)
        .field("fsqrt_cycles", m.fsqrt_cycles)
        .field("load_hit_latency", m.load_hit_latency)
        .field("imul_cycles", m.imul_cycles)
        .field("idiv_cycles", m.idiv_cycles)
        .field("fxu0_miss_occupancy", m.fxu0_miss_occupancy)
        .field("memory_bytes", m.memory_bytes)
        .field(
            "fpu_dispatch",
            match m.fpu_dispatch {
                FpuDispatch::Fpu0First => "fpu0_first",
                FpuDispatch::RoundRobin => "round_robin",
            },
        )
        .field(
            "dcache_policy",
            match m.dcache_policy {
                WritePolicy::WriteBack => "write_back",
                WritePolicy::WriteThrough => "write_through",
            },
        )
}

fn faults_to_json(f: &FaultSummary) -> Json {
    Json::obj()
        .field("enabled", f.enabled)
        .field("outages", f.outages as u64)
        .field("node_downtime_s", f.node_downtime_s)
        .field("missed_sweeps", f.missed_sweeps as u64)
        .field("daemon_restarts", f.daemon_restarts as u64)
        .field("glitches", f.glitches as u64)
        .field("jobs_killed", f.jobs_killed as u64)
        .field("jobs_requeued", f.jobs_requeued as u64)
}

fn num_field(obj: &Json, key: &str) -> Result<f64, Sp2Error> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| malformed(format!("header missing numeric field {key:?}")))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, Sp2Error> {
    let v = num_field(obj, key)?;
    if !(v >= 0.0 && v.fract() == 0.0 && v <= 9_007_199_254_740_992.0) {
        return Err(malformed(format!("field {key:?} is not a u64: {v}")));
    }
    Ok(v as u64)
}

fn str_field<'j>(obj: &'j Json, key: &str) -> Result<&'j str, Sp2Error> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| malformed(format!("header missing string field {key:?}")))
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, Sp2Error> {
    match obj.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(malformed(format!("header missing bool field {key:?}"))),
    }
}

fn cache_from_json(obj: &Json) -> Result<CacheConfig, Sp2Error> {
    Ok(CacheConfig {
        bytes: u64_field(obj, "bytes")?,
        ways: u64_field(obj, "ways")? as usize,
        line_bytes: u64_field(obj, "line_bytes")?,
    })
}

fn machine_from_json(obj: &Json) -> Result<MachineConfig, Sp2Error> {
    let sub = |key: &str| -> Result<&Json, Sp2Error> {
        obj.get(key)
            .ok_or_else(|| malformed(format!("machine missing field {key:?}")))
    };
    let machine = MachineConfig {
        clock_hz: num_field(obj, "clock_hz")?,
        dcache: cache_from_json(sub("dcache")?)?,
        icache: cache_from_json(sub("icache")?)?,
        tlb_entries: u64_field(obj, "tlb_entries")? as usize,
        tlb_ways: u64_field(obj, "tlb_ways")? as usize,
        page_bytes: u64_field(obj, "page_bytes")?,
        dcache_miss_penalty: u64_field(obj, "dcache_miss_penalty")?,
        tlb_penalty_min: u64_field(obj, "tlb_penalty_min")?,
        tlb_penalty_max: u64_field(obj, "tlb_penalty_max")?,
        dispatch_width: u64_field(obj, "dispatch_width")?,
        fpu_latency: u64_field(obj, "fpu_latency")?,
        fdiv_cycles: u64_field(obj, "fdiv_cycles")?,
        fsqrt_cycles: u64_field(obj, "fsqrt_cycles")?,
        load_hit_latency: u64_field(obj, "load_hit_latency")?,
        imul_cycles: u64_field(obj, "imul_cycles")?,
        idiv_cycles: u64_field(obj, "idiv_cycles")?,
        fxu0_miss_occupancy: u64_field(obj, "fxu0_miss_occupancy")?,
        memory_bytes: u64_field(obj, "memory_bytes")?,
        fpu_dispatch: match str_field(obj, "fpu_dispatch")? {
            "fpu0_first" => FpuDispatch::Fpu0First,
            "round_robin" => FpuDispatch::RoundRobin,
            other => return Err(malformed(format!("unknown fpu_dispatch {other:?}"))),
        },
        dcache_policy: match str_field(obj, "dcache_policy")? {
            "write_back" => WritePolicy::WriteBack,
            "write_through" => WritePolicy::WriteThrough,
            other => return Err(malformed(format!("unknown dcache_policy {other:?}"))),
        },
    };
    // Replaying experiments measure kernels on this machine; an
    // impossible geometry must stop here, not panic in the simulator.
    machine
        .validate()
        .map_err(|e| malformed(format!("machine: {e}")))?;
    Ok(machine)
}

fn faults_from_json(obj: &Json) -> Result<FaultSummary, Sp2Error> {
    Ok(FaultSummary {
        enabled: bool_field(obj, "enabled")?,
        outages: u64_field(obj, "outages")? as usize,
        node_downtime_s: num_field(obj, "node_downtime_s")?,
        missed_sweeps: u64_field(obj, "missed_sweeps")? as usize,
        daemon_restarts: u64_field(obj, "daemon_restarts")? as usize,
        glitches: u64_field(obj, "glitches")? as usize,
        jobs_killed: u64_field(obj, "jobs_killed")? as usize,
        jobs_requeued: u64_field(obj, "jobs_requeued")? as usize,
    })
}

fn header_json(campaign: Option<&CampaignMeta>) -> Json {
    let mut h = Json::obj().field("schema", SCHEMA);
    if let Some(m) = campaign {
        h = h.field(
            "campaign",
            Json::obj()
                .field("selection", m.kind.name())
                .field("slots", m.kind.selection().len() as u64)
                .field("days", u64::from(m.days))
                .field("node_count", m.node_count as u64)
                .field("machine", machine_to_json(&m.machine))
                .field("faults", faults_to_json(&m.faults)),
        );
    }
    h
}

fn parse_header(payload: &[u8]) -> Result<Option<CampaignMeta>, Sp2Error> {
    let text = std::str::from_utf8(payload).map_err(|_| malformed("header block is not UTF-8"))?;
    let doc = Json::parse(text).map_err(|e| malformed(format!("header block: {e}")))?;
    let schema = str_field(&doc, "schema")?;
    if schema != SCHEMA {
        return Err(malformed(format!("unsupported schema {schema:?}")));
    }
    let Some(c) = doc.get("campaign") else {
        return Ok(None);
    };
    let kind = kind_from_name(str_field(c, "selection")?)?;
    let slots = u64_field(c, "slots")? as usize;
    if slots != kind.selection().len() {
        return Err(malformed(format!(
            "header says {slots} slots but the {} selection has {}",
            kind.name(),
            kind.selection().len()
        )));
    }
    let machine = c
        .get("machine")
        .ok_or_else(|| malformed("header missing machine"))?;
    let faults = c
        .get("faults")
        .ok_or_else(|| malformed("header missing faults"))?;
    let days64 = u64_field(c, "days")?;
    if days64 > u64::from(u32::MAX) {
        return Err(malformed(format!("implausible days {days64}")));
    }
    Ok(Some(CampaignMeta {
        kind,
        days: days64 as u32,
        node_count: u64_field(c, "node_count")? as usize,
        machine: machine_from_json(machine)?,
        faults: faults_from_json(faults)?,
    }))
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streaming archive writer. Interval samples are buffered only up to
/// [`SAMPLES_PER_BLOCK`] before being encoded and flushed, so the writer
/// holds at most one block beyond what its caller passes in.
/// [`write_campaign_archive`] feeds it a finished, resident campaign
/// (what `sp2 archive` writes); the serve store writes datasets only.
pub struct ArchiveWriter<W: Write> {
    out: W,
    slots: Option<usize>,
    pending: Vec<SystemSample>,
    n_samples: u64,
    n_reports: u64,
    n_pbs: u64,
    n_datasets: u64,
}

impl<W: Write> ArchiveWriter<W> {
    /// Writes the magic and header block. Pass `None` for a
    /// datasets-only archive (the serve store); counter-record pushes
    /// then fail, because the header names no selection.
    pub fn create(mut out: W, campaign: Option<&CampaignMeta>) -> Result<Self, Sp2Error> {
        out.write_all(&MAGIC)?;
        let mut w = ArchiveWriter {
            out,
            slots: campaign.map(|m| m.kind.selection().len()),
            pending: Vec::new(),
            n_samples: 0,
            n_reports: 0,
            n_pbs: 0,
            n_datasets: 0,
        };
        let header = header_json(campaign).to_string_compact();
        w.write_block(K_HEADER, header.as_bytes())?;
        Ok(w)
    }

    fn write_block(&mut self, kind: u8, payload: &[u8]) -> Result<(), Sp2Error> {
        if payload.len() > MAX_BLOCK_BYTES as usize {
            return Err(malformed(format!(
                "block of {} bytes exceeds cap",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(5 + payload.len());
        frame.push(kind);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = crc32(&frame);
        self.out.write_all(&frame)?;
        self.out.write_all(&crc.to_le_bytes())?;
        Ok(())
    }

    fn slots(&self) -> Result<usize, Sp2Error> {
        self.slots
            .ok_or_else(|| malformed("datasets-only archive cannot hold counter records"))
    }

    fn flush_sample_block(&mut self, take: usize) -> Result<(), Sp2Error> {
        let slots = self.slots()?;
        let block: Vec<SystemSample> = self.pending.drain(..take).collect();
        let payload = columnar::encode_samples(slots, &block).map_err(wire_err)?;
        self.n_samples += take as u64;
        self.write_block(K_SAMPLES, &payload)
    }

    /// Appends interval samples, flushing full blocks as they fill.
    pub fn push_samples(&mut self, samples: &[SystemSample]) -> Result<(), Sp2Error> {
        self.slots()?;
        self.pending.extend_from_slice(samples);
        while self.pending.len() >= SAMPLES_PER_BLOCK {
            self.flush_sample_block(SAMPLES_PER_BLOCK)?;
        }
        Ok(())
    }

    /// Writes one block of job counter reports.
    pub fn push_reports(&mut self, reports: &[JobCounterReport]) -> Result<(), Sp2Error> {
        if reports.is_empty() {
            return Ok(());
        }
        let slots = self.slots()?;
        let payload = columnar::encode_reports(slots, reports).map_err(wire_err)?;
        self.n_reports += reports.len() as u64;
        self.write_block(K_JOB_REPORTS, &payload)
    }

    /// Writes one block of PBS accounting records.
    pub fn push_pbs_records(&mut self, records: &[JobRecord]) -> Result<(), Sp2Error> {
        if records.is_empty() {
            return Ok(());
        }
        let payload = columnar::encode_pbs(records);
        self.n_pbs += records.len() as u64;
        self.write_block(K_PBS_RECORDS, &payload)
    }

    /// Writes one raw NDJSON dataset line (without its newline). The
    /// exact bytes come back on read, so serve replay stays
    /// byte-identical.
    pub fn push_dataset_line(&mut self, line: &str) -> Result<(), Sp2Error> {
        self.n_datasets += 1;
        self.write_block(K_DATASET, line.trim_end_matches('\n').as_bytes())
    }

    /// Flushes any buffered samples, writes the footer, and returns the
    /// underlying writer.
    pub fn finish(mut self) -> Result<W, Sp2Error> {
        let tail = self.pending.len();
        if tail > 0 {
            self.flush_sample_block(tail)?;
        }
        let footer = Json::obj()
            .field("samples", self.n_samples)
            .field("job_reports", self.n_reports)
            .field("pbs_records", self.n_pbs)
            .field("datasets", self.n_datasets)
            .to_string_compact();
        self.write_block(K_END, footer.as_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One CRC-verified frame.
struct Block {
    kind: u8,
    payload: Vec<u8>,
}

/// Streaming block reader: frames are pulled one at a time, so reading
/// is as bounded-memory as writing.
struct ArchiveReader<R: Read> {
    inp: R,
    saw_end: bool,
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` on clean EOF at offset
/// zero, an error on a partial read.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, Sp2Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(malformed("truncated frame")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                return Err(malformed("truncated frame"))
            }
            Err(e) => return Err(Sp2Error::Io(e)),
        }
    }
    Ok(true)
}

impl<R: Read> ArchiveReader<R> {
    /// Checks the magic and positions the reader at the first block.
    fn new(mut inp: R) -> Result<Self, Sp2Error> {
        let mut magic = [0u8; 4];
        if !read_exact_or_eof(&mut inp, &mut magic)? || magic != MAGIC {
            return Err(malformed("not an sp2-archive file (bad magic)"));
        }
        Ok(ArchiveReader {
            inp,
            saw_end: false,
        })
    }

    /// Returns the next CRC-verified block, or `None` after a clean
    /// end-of-archive footer. A file that simply stops — no footer, or
    /// mid-frame — is an error.
    fn next_block(&mut self) -> Result<Option<Block>, Sp2Error> {
        let mut head = [0u8; 5];
        if !read_exact_or_eof(&mut self.inp, &mut head)? {
            if self.saw_end {
                return Ok(None);
            }
            return Err(malformed("archive ends without an end-of-archive block"));
        }
        if self.saw_end {
            return Err(malformed("data after the end-of-archive block"));
        }
        let kind = head[0];
        let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
        if len > MAX_BLOCK_BYTES {
            return Err(malformed(format!("block length {len} exceeds cap")));
        }
        let mut payload = vec![0u8; len as usize];
        if !read_exact_or_eof(&mut self.inp, &mut payload)? && len > 0 {
            return Err(malformed("truncated frame"));
        }
        let mut crc_bytes = [0u8; 4];
        if !read_exact_or_eof(&mut self.inp, &mut crc_bytes)? {
            return Err(malformed("truncated frame"));
        }
        let stored = u32::from_le_bytes(crc_bytes);
        let mut frame = Vec::with_capacity(5 + payload.len());
        frame.extend_from_slice(&head);
        frame.extend_from_slice(&payload);
        let computed = crc32(&frame);
        if stored != computed {
            return Err(wire_err(WireError::Crc { stored, computed }));
        }
        if kind == K_END {
            self.saw_end = true;
        }
        Ok(Some(Block { kind, payload }))
    }
}

// ---------------------------------------------------------------------
// Whole-archive read/write
// ---------------------------------------------------------------------

/// A fully decoded archive.
#[derive(Debug)]
pub struct Archive {
    /// The campaign, when the header carried campaign metadata.
    pub campaign: Option<CampaignResult>,
    /// Raw NDJSON dataset lines, in stored order.
    pub dataset_lines: Vec<String>,
}

/// Reads and verifies a whole archive: header first, footer last,
/// every frame CRC-checked, record counts reconciled against the
/// footer.
pub fn read_archive<R: Read>(inp: R) -> Result<Archive, Sp2Error> {
    let mut r = ArchiveReader::new(inp)?;
    let first = r.next_block()?.ok_or_else(|| malformed("empty archive"))?;
    if first.kind != K_HEADER {
        return Err(malformed("first block is not a header"));
    }
    let meta = parse_header(&first.payload)?;
    let slots = meta.as_ref().map(|m| m.kind.selection().len());
    let mut samples: Vec<SystemSample> = Vec::new();
    let mut job_reports: Vec<JobCounterReport> = Vec::new();
    let mut pbs_records: Vec<JobRecord> = Vec::new();
    let mut dataset_lines: Vec<String> = Vec::new();
    let mut footer: Option<Json> = None;
    while let Some(block) = r.next_block()? {
        match block.kind {
            K_HEADER => return Err(malformed("duplicate header block")),
            K_SAMPLES => {
                let slots =
                    slots.ok_or_else(|| malformed("samples block in a datasets-only archive"))?;
                samples.extend(columnar::decode_samples(slots, &block.payload).map_err(wire_err)?);
            }
            K_JOB_REPORTS => {
                let slots =
                    slots.ok_or_else(|| malformed("reports block in a datasets-only archive"))?;
                job_reports
                    .extend(columnar::decode_reports(slots, &block.payload).map_err(wire_err)?);
            }
            K_PBS_RECORDS => {
                pbs_records.extend(columnar::decode_pbs(&block.payload).map_err(wire_err)?);
            }
            K_DATASET => {
                let line = String::from_utf8(block.payload)
                    .map_err(|_| malformed("dataset line is not UTF-8"))?;
                dataset_lines.push(line);
            }
            K_END => {
                let text = std::str::from_utf8(&block.payload)
                    .map_err(|_| malformed("footer block is not UTF-8"))?;
                footer =
                    Some(Json::parse(text).map_err(|e| malformed(format!("footer block: {e}")))?);
            }
            other => return Err(malformed(format!("unknown block kind {other}"))),
        }
    }
    let footer = footer.ok_or_else(|| malformed("archive has no end-of-archive block"))?;
    let expect = [
        ("samples", samples.len() as u64),
        ("job_reports", job_reports.len() as u64),
        ("pbs_records", pbs_records.len() as u64),
        ("datasets", dataset_lines.len() as u64),
    ];
    for (key, got) in expect {
        let declared = u64_field(&footer, key)?;
        if declared != got {
            return Err(malformed(format!(
                "footer declares {declared} {key}, archive holds {got}"
            )));
        }
    }
    // The experiments chart samples as a time-ordered series; a CRC-valid
    // archive whose times are not finite or go backwards is refused here
    // rather than panicking there.
    let mut last = f64::NEG_INFINITY;
    for (i, s) in samples.iter().enumerate() {
        if !s.t.is_finite() {
            return Err(malformed(format!("sample {i} has non-finite time {}", s.t)));
        }
        if s.t < last {
            return Err(malformed(format!(
                "sample {i} time {} precedes the previous sample's time {last}",
                s.t
            )));
        }
        last = s.t;
    }
    let campaign = meta.map(|m| CampaignResult {
        days: m.days,
        node_count: m.node_count,
        machine: m.machine,
        selection: m.kind.selection(),
        samples,
        job_reports,
        pbs_records,
        faults: m.faults,
    });
    Ok(Archive {
        campaign,
        dataset_lines,
    })
}

/// Opens and reads an archive file.
pub fn load_archive(path: &Path) -> Result<Archive, Sp2Error> {
    read_archive(BufReader::new(File::open(path)?))
}

/// Writes a finished campaign (and optional dataset lines) as one
/// archive.
pub fn write_campaign_archive<W: Write>(
    out: W,
    campaign: &CampaignResult,
    dataset_lines: &[String],
) -> Result<W, Sp2Error> {
    let meta = CampaignMeta::of(campaign)?;
    let mut w = ArchiveWriter::create(out, Some(&meta))?;
    w.push_samples(&campaign.samples)?;
    w.push_reports(&campaign.job_reports)?;
    w.push_pbs_records(&campaign.pbs_records)?;
    for line in dataset_lines {
        w.push_dataset_line(line)?;
    }
    w.finish()
}

/// True when `path` starts with the archive magic. Used by the CLI to
/// sniff archive vs. NDJSON inputs.
pub fn file_is_archive(path: &Path) -> bool {
    let Ok(mut f) = File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 4];
    matches!(read_exact_or_eof(&mut f, &mut magic), Ok(true)) && magic == MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::{nas_selection, CounterDelta};
    use sp2_rs2hpm::RateReport;

    fn tiny_campaign() -> CampaignResult {
        let selection = nas_selection();
        let slots = selection.len();
        let lanes = |base: u64| CounterDelta {
            user: (0..slots as u64).map(|s| base * 100 + s).collect(),
            system: (0..slots as u64).map(|s| base + s * 3).collect(),
        };
        CampaignResult {
            days: 1,
            node_count: 144,
            machine: MachineConfig::default(),
            selection,
            samples: (0..3)
                .map(|i| SystemSample {
                    t: 900.0 * i as f64,
                    nodes_sampled: 144,
                    nodes_total: 144,
                    anomalies: 0,
                    total: lanes(i + 1),
                    rates: RateReport {
                        seconds: 900.0,
                        mflops: 1.0 / 3.0 + i as f64,
                        ..RateReport::default()
                    },
                })
                .collect(),
            job_reports: vec![],
            pbs_records: vec![],
            faults: FaultSummary::default(),
        }
    }

    #[test]
    fn campaign_archive_round_trips() {
        let campaign = tiny_campaign();
        let lines = vec![r#"{"event":"dataset","seq":0}"#.to_string()];
        let bytes = write_campaign_archive(Vec::new(), &campaign, &lines).unwrap();
        let archive = read_archive(bytes.as_slice()).unwrap();
        assert_eq!(archive.dataset_lines, lines);
        let back = archive.campaign.unwrap();
        assert_eq!(back.days, campaign.days);
        assert_eq!(back.node_count, campaign.node_count);
        assert_eq!(back.machine, campaign.machine);
        assert_eq!(back.selection, campaign.selection);
        assert_eq!(back.samples.len(), campaign.samples.len());
        for (a, b) in campaign.samples.iter().zip(&back.samples) {
            assert_eq!(a.t.to_bits(), b.t.to_bits());
            assert_eq!(a.total, b.total);
            let (fa, fb) = (rate_report_fields(&a.rates), rate_report_fields(&b.rates));
            for (x, y) in fa.iter().zip(fb.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn bad_magic_is_an_error() {
        let err = read_archive(b"NOPE".as_slice()).unwrap_err();
        assert!(matches!(err, Sp2Error::Protocol(_)), "{err}");
    }

    #[test]
    fn flipped_byte_fails_crc() {
        let campaign = tiny_campaign();
        let mut bytes = write_campaign_archive(Vec::new(), &campaign, &[]).unwrap();
        // Flip one byte in the middle of the file.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(read_archive(bytes.as_slice()).is_err());
    }

    #[test]
    fn truncation_is_an_error() {
        let campaign = tiny_campaign();
        let bytes = write_campaign_archive(Vec::new(), &campaign, &[]).unwrap();
        for cut in [bytes.len() - 1, bytes.len() - 9, bytes.len() / 2, 7, 4] {
            assert!(
                read_archive(&bytes[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let campaign = tiny_campaign();
        let mut bytes = write_campaign_archive(Vec::new(), &campaign, &[]).unwrap();
        bytes.push(0);
        assert!(read_archive(bytes.as_slice()).is_err());
    }

    #[test]
    fn datasets_only_archive_has_no_campaign() {
        let mut w = ArchiveWriter::create(Vec::new(), None).unwrap();
        w.push_dataset_line("{\"a\":1}").unwrap();
        assert!(w.push_samples(&tiny_campaign().samples).is_err());
        let bytes = w.finish().unwrap();
        let archive = read_archive(bytes.as_slice()).unwrap();
        assert!(archive.campaign.is_none());
        assert_eq!(archive.dataset_lines, vec!["{\"a\":1}".to_string()]);
    }

    #[test]
    fn sample_spill_crosses_block_boundaries() {
        let mut campaign = tiny_campaign();
        let template = campaign.samples[0].clone();
        campaign.samples = (0..SAMPLES_PER_BLOCK + 37)
            .map(|i| {
                let mut s = template.clone();
                s.t = 900.0 * i as f64;
                s
            })
            .collect();
        let bytes = write_campaign_archive(Vec::new(), &campaign, &[]).unwrap();
        let back = read_archive(bytes.as_slice()).unwrap().campaign.unwrap();
        assert_eq!(back.samples.len(), SAMPLES_PER_BLOCK + 37);
        assert_eq!(
            back.samples[SAMPLES_PER_BLOCK].t,
            template.t + 900.0 * SAMPLES_PER_BLOCK as f64
        );
    }
}
