//! `sp2 serve` — the long-running campaign service.
//!
//! The paper's RS2HPM was a monitoring *system*: nine months of
//! continuous collection over 144 nodes, not a one-shot analysis run.
//! This module is that shape for the reproduction — a daemon that
//! accepts campaign submissions over a plain TCP socket, multiplexes
//! many campaigns concurrently, one per campaign worker thread,
//! streams results incrementally as NDJSON, and keeps every completed
//! result in a digest-keyed on-disk [`store::Store`].
//!
//! ## Protocol (`sp2-serve/v1`)
//!
//! Line-delimited JSON both ways; one request per line, parsed with
//! [`Json::parse`], rendered with the compact writer. Requests:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"submit","submission":{…sp2-submission/v1…},"wait":bool}
//! {"op":"status","job":"<digest prefix>","live":bool}
//! {"op":"list"}
//! {"op":"fetch","job":"<digest prefix>"}
//! {"op":"cancel","job":"<digest prefix>"}
//! {"op":"shutdown"}
//! ```
//!
//! Every response line carries `"ok"`. Failures answer
//! `{"ok":false,"code":…,"error":…}` where `code` is `validation` (the
//! submission failed [`Submission`] validation) or `protocol`
//! (malformed request, unknown/ambiguous job). A waiting `submit` and a
//! `fetch` answer with an event stream instead of a single line:
//!
//! ```text
//! {"ok":true,"event":"job","job":h,"state":s,"dedup":b,"stored":b}
//! {"event":"dataset","job":h,"seq":0,"experiment":id,"doc":{…}}
//! …
//! {"event":"done","job":h,"state":"done","datasets":n}
//! ```
//!
//! with `{"event":"error","job":h,"state":"failed"|"cancelled",…}`
//! terminating failed or cancelled jobs, and — when the daemon runs
//! with instrumentation on — trailing `{"event":"metrics",…}` /
//! `{"event":"timeline",…}` lines carrying the live `sp2-metrics/v1`
//! and `sp2-timeline/v1` documents.
//!
//! ## Determinism and the store
//!
//! The `dataset` lines are a pure function of the submission: campaign
//! results are bit-identical across engines and instrumentation (the
//! engine-equivalence suites prove it), and every JSON number renders
//! through one writer. So the service can treat the rendered lines as
//! *the* result: they are what subscribers stream, what the store
//! persists, and what a digest-hit replays — byte-equal
//! no matter which path produced them or what else was in flight. The
//! `metrics`/`timeline` events are deliberately outside that contract
//! (they carry wall-clock readings of this process) and are never
//! stored.
//!
//! ## Scheduling and fairness
//!
//! Submissions dedup on their content digest (single-flight: concurrent
//! identical submissions attach to one run), queue FIFO, and execute on
//! `campaigns` worker threads. Each campaign runs on its worker thread
//! with the engine configuration the daemon was started with, so K
//! concurrent campaigns occupy exactly K threads.

pub mod store;

use crate::error::Sp2Error;
use crate::experiments;
use crate::json::Json;
use crate::submission::Submission;
use crate::system::{Sp2System, DEFAULT_LIBRARY_SEED};
use crate::{metrics, timeline};
use sp2_cluster::{CampaignError, CampaignResult, CancelToken, ClusterConfig, EngineConfig};
use sp2_workload::WorkloadLibrary;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub use store::{Store, StoredJob};

/// Protocol schema tag.
pub const SCHEMA: &str = "sp2-serve/v1";

/// Longest request or response line either side will read, newline
/// included (16 MiB — an order of magnitude above the largest dataset
/// event a real campaign renders). A peer that streams bytes without
/// ever sending `\n` would otherwise grow the line buffer without
/// bound; past the cap the read fails as a protocol error instead.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// `read_line` with a ceiling: reads one `\n`-terminated line of at
/// most `limit` bytes (newline included) into `line`. Returns the byte
/// count (0 at EOF) or [`Sp2Error::Protocol`] once the line exceeds
/// the cap — at which point the stream is no longer line-synced and
/// the connection should be dropped.
fn read_line_capped(
    reader: &mut impl BufRead,
    line: &mut String,
    limit: usize,
) -> Result<usize, Sp2Error> {
    line.clear();
    let n = reader.by_ref().take(limit as u64 + 1).read_line(line)?;
    if n > limit {
        return Err(Sp2Error::Protocol(format!("line exceeds {limit} bytes")));
    }
    Ok(n)
}

/// One workload library serves every job: submissions don't vary the
/// machine model, and the library build (kernel measurement) is the
/// most expensive fixed cost in the process.
fn shared_library() -> &'static WorkloadLibrary {
    static LIBRARY: OnceLock<WorkloadLibrary> = OnceLock::new();
    LIBRARY.get_or_init(|| {
        WorkloadLibrary::build(&ClusterConfig::default().machine, DEFAULT_LIBRARY_SEED)
    })
}

/// Renders one dataset event line — THE deterministic unit of the
/// protocol. Server workers, local one-shot runs, the store, and
/// replays all share this one rendering, which is what makes
/// byte-comparing them meaningful.
fn dataset_line(digest_hex: &str, seq: usize, experiment: &str, doc: Json) -> String {
    Json::obj()
        .field("event", "dataset")
        .field("job", digest_hex)
        .field("seq", seq)
        .field("experiment", experiment)
        .field("doc", doc)
        .to_string_compact()
}

/// Executes a submission in-process (no daemon, no store) and returns
/// the dataset event lines — byte-identical to what `sp2 serve` would
/// stream for the same submission. `sp2 submit --local` and the CI
/// smoke diff ride this.
pub fn run_local(submission: &Submission, engine: EngineConfig) -> Result<Vec<String>, Sp2Error> {
    local_lines(submission, &mut submission.system(engine))
}

/// [`run_local`], also returning the primary campaign the datasets were
/// analyzed from — `sp2 archive` persists both in one container so a
/// later `--archive` run can replay the analysis without simulating.
pub fn run_local_archival(
    submission: &Submission,
    engine: EngineConfig,
) -> Result<(Vec<String>, CampaignResult), Sp2Error> {
    let mut sys = submission.system(engine);
    let lines = local_lines(submission, &mut sys)?;
    let campaign = sys.campaign()?.clone();
    Ok((lines, campaign))
}

/// The dataset event lines of every experiment the submission names, in
/// order, analyzed on `sys`.
fn local_lines(submission: &Submission, sys: &mut Sp2System) -> Result<Vec<String>, Sp2Error> {
    let digest = submission.digest_hex();
    let mut lines = Vec::with_capacity(submission.experiments().len());
    for (seq, id) in submission.experiments().iter().enumerate() {
        let exp = experiments::experiment_or_err(id)?;
        let dataset = sys.dataset(exp)?;
        lines.push(dataset_line(&digest, seq, id, dataset.json));
    }
    Ok(lines)
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7598`. Port 0 binds ephemeral.
    pub addr: String,
    /// Result-store root directory.
    pub store_dir: PathBuf,
    /// Concurrent campaign workers (≥ 1).
    pub campaigns: usize,
    /// Engine configuration every campaign runs under. Affects speed
    /// and instrumentation only — never result bytes.
    pub engine: EngineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7598".into(),
            store_dir: PathBuf::from("target/sp2-store"),
            campaigns: 2,
            engine: EngineConfig::default(),
        }
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Mutable job progress, guarded by the entry's mutex; subscribers wait
/// on the condvar and stream `lines[cursor..]` as they appear.
struct JobProgress {
    state: JobState,
    /// Completed dataset event lines, in stream order.
    lines: Vec<String>,
    /// Failure/cancellation detail for the terminal `error` event.
    message: Option<String>,
}

/// One submitted job: the single-flight unit keyed by digest.
struct JobEntry {
    digest_hex: String,
    submission: Submission,
    cancel: Arc<CancelToken>,
    progress: Mutex<JobProgress>,
    cond: Condvar,
}

impl JobEntry {
    fn new(submission: Submission, state: JobState, lines: Vec<String>) -> Arc<JobEntry> {
        Arc::new(JobEntry {
            digest_hex: submission.digest_hex(),
            submission,
            cancel: Arc::new(CancelToken::new()),
            progress: Mutex::new(JobProgress {
                state,
                lines,
                message: None,
            }),
            cond: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobProgress> {
        match self.progress.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn push_line(&self, line: String) {
        self.lock().lines.push(line);
        self.cond.notify_all();
    }

    fn finish(&self, state: JobState, message: Option<String>) {
        let mut p = self.lock();
        p.state = state;
        p.message = message;
        drop(p);
        self.cond.notify_all();
    }

    fn state(&self) -> JobState {
        self.lock().state
    }
}

struct ServerInner {
    store: Store,
    engine: EngineConfig,
    /// All jobs this process knows, in submission order (for `list`).
    jobs: Mutex<Vec<Arc<JobEntry>>>,
    queue: Mutex<VecDeque<Arc<JobEntry>>>,
    queue_cond: Condvar,
    stop: AtomicBool,
}

impl ServerInner {
    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, Vec<Arc<JobEntry>>> {
        match self.jobs.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<JobEntry>>> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Registers a submission: attach to the in-flight twin (dedup), or
    /// load the stored result (store hit), or queue a fresh run.
    /// Returns `(entry, dedup, stored)`.
    fn submit(&self, submission: Submission) -> (Arc<JobEntry>, bool, bool) {
        let digest = submission.digest_hex();
        let mut jobs = self.lock_jobs();
        sp2_trace::dynamic::add("serve.submissions", 1);
        if let Some(entry) = jobs.iter().find(|j| j.digest_hex == digest) {
            sp2_trace::dynamic::add("serve.dedup_hits", 1);
            return (Arc::clone(entry), true, false);
        }
        if self.store.contains(&digest) {
            if let Ok(stored) = self.store.load(&digest) {
                sp2_trace::dynamic::add("serve.store_hits", 1);
                let entry = JobEntry::new(stored.submission, JobState::Done, stored.lines);
                jobs.push(Arc::clone(&entry));
                return (entry, false, true);
            }
            // A corrupt entry is not servable; fall through and re-run
            // (persist will atomically replace it with identical bytes).
        }
        let entry = JobEntry::new(submission, JobState::Queued, Vec::new());
        jobs.push(Arc::clone(&entry));
        drop(jobs);
        self.lock_queue().push_back(Arc::clone(&entry));
        self.queue_cond.notify_one();
        (entry, false, false)
    }

    /// Resolves a digest prefix to a unique job, pulling stored-only
    /// results into memory on demand.
    fn find_job(&self, prefix: &str) -> Result<Arc<JobEntry>, Sp2Error> {
        if prefix.is_empty() {
            return Err(Sp2Error::Protocol("empty job id".into()));
        }
        let mut matches: Vec<Arc<JobEntry>> = {
            let jobs = self.lock_jobs();
            jobs.iter()
                .filter(|j| j.digest_hex.starts_with(prefix))
                .cloned()
                .collect()
        };
        if matches.is_empty() {
            // Results persisted by an earlier daemon instance.
            let stored: Vec<String> = self
                .store
                .scan()
                .into_iter()
                .filter(|d| d.starts_with(prefix))
                .collect();
            for digest in stored {
                if let Ok(job) = self.store.load(&digest) {
                    let entry = JobEntry::new(job.submission, JobState::Done, job.lines);
                    self.lock_jobs().push(Arc::clone(&entry));
                    matches.push(entry);
                }
            }
        }
        match matches.len() {
            0 => Err(Sp2Error::Protocol(format!("unknown job: {prefix}"))),
            1 => Ok(matches.remove(0)),
            n => Err(Sp2Error::Protocol(format!(
                "ambiguous job id {prefix}: {n} matches"
            ))),
        }
    }

    /// The worker loop: take jobs FIFO until shutdown.
    fn worker(&self) {
        loop {
            let job = {
                let mut q = self.lock_queue();
                loop {
                    if self.stop.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    q = match self.queue_cond.wait(q) {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                }
            };
            self.run_job(&job);
        }
    }

    /// Executes one job end to end: campaign + experiments, streaming a
    /// dataset line per experiment, persisting only on full completion.
    fn run_job(&self, job: &JobEntry) {
        if job.cancel.is_cancelled() {
            job.finish(JobState::Cancelled, Some("cancelled while queued".into()));
            return;
        }
        job.finish(JobState::Running, None);
        let scope = sp2_trace::dynamic::Scope::new(format!(
            "serve.job.{}",
            &job.digest_hex[..12.min(job.digest_hex.len())]
        ));
        let _span = sp2_trace::recording().then(|| {
            sp2_trace::events::span(
                format!(
                    "serve job {}",
                    &job.digest_hex[..8.min(job.digest_hex.len())]
                ),
                "serve",
            )
        });
        let start = std::time::Instant::now();
        let mut sys = Sp2System::builder()
            .spec(*job.submission.spec())
            .library(shared_library().clone())
            .engine(self.engine)
            .faults(job.submission.fault_rate())
            .fault_seed(job.submission.fault_seed())
            .cancel_token(Arc::clone(&job.cancel))
            .build();
        let mut lines: Vec<String> = Vec::new();
        for (seq, id) in job.submission.experiments().iter().enumerate() {
            if job.cancel.is_cancelled() {
                job.finish(JobState::Cancelled, Some("cancelled by request".into()));
                return;
            }
            let Some(exp) = experiments::experiment(id) else {
                // Validated at submit time; only a registry change
                // mid-flight could get here.
                job.finish(JobState::Failed, Some(format!("unknown experiment: {id}")));
                return;
            };
            match sys.dataset(exp) {
                Ok(dataset) => {
                    let line = dataset_line(&job.digest_hex, seq, id, dataset.json);
                    lines.push(line.clone());
                    scope.add("datasets", 1);
                    job.push_line(line);
                }
                Err(Sp2Error::Campaign(CampaignError::Cancelled)) => {
                    job.finish(JobState::Cancelled, Some("cancelled by request".into()));
                    return;
                }
                Err(e) => {
                    job.finish(JobState::Failed, Some(e.to_string()));
                    return;
                }
            }
        }
        scope.record_ns("wall", start.elapsed().as_nanos() as u64);
        if let Err(e) = self.store.persist(&job.submission, &lines) {
            job.finish(JobState::Failed, Some(format!("persisting result: {e}")));
            return;
        }
        job.finish(JobState::Done, None);
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        // Queued-but-unstarted and running jobs both observe the token.
        for job in self.lock_jobs().iter() {
            if !job.state().terminal() {
                job.cancel.cancel();
            }
        }
        self.queue_cond.notify_all();
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    inner: Arc<ServerInner>,
    campaigns: usize,
    /// The binding thread's trace context, which every worker and
    /// connection thread runs under.
    context: sp2_trace::Context,
}

impl Server {
    /// Binds the listen socket and opens the store. The engine config's
    /// metrics switch is applied to the calling thread here, exactly as a
    /// one-shot run would, and the server keeps that thread's trace
    /// context (with any recording current on it) for its own threads.
    pub fn bind(config: ServeConfig) -> Result<Server, Sp2Error> {
        config.engine.apply();
        let store = Store::open(&config.store_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            inner: Arc::new(ServerInner {
                store,
                engine: config.engine,
                jobs: Mutex::new(Vec::new()),
                queue: Mutex::new(VecDeque::new()),
                queue_cond: Condvar::new(),
                stop: AtomicBool::new(false),
            }),
            campaigns: config.campaigns.max(1),
            context: sp2_trace::Context::current(),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, Sp2Error> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs the accept loop until a `shutdown` request; returns after
    /// the campaign workers have drained.
    pub fn run(self) -> Result<(), Sp2Error> {
        let addr = self.local_addr()?;
        let workers: Vec<_> = (0..self.campaigns)
            .map(|i| {
                let inner = Arc::clone(&self.inner);
                let context = self.context.clone();
                std::thread::Builder::new()
                    .name(format!("sp2-serve-worker-{i}"))
                    .spawn(move || context.run(|| inner.worker()))
            })
            .collect::<Result<_, _>>()?;
        for conn in self.listener.incoming() {
            if self.inner.stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let inner = Arc::clone(&self.inner);
            let context = self.context.clone();
            let _ = std::thread::Builder::new()
                .name("sp2-serve-conn".into())
                .spawn(move || context.run(|| handle_connection(&inner, stream, addr)));
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Binds and runs on a background thread (use port 0 for an
    /// ephemeral address) — the entry the in-process tests use; the CLI
    /// calls [`Server::run`] on the foreground thread instead.
    pub fn spawn(config: ServeConfig) -> Result<ServerHandle, Sp2Error> {
        let server = Server::bind(config)?;
        let addr = server.local_addr()?;
        let join = std::thread::Builder::new()
            .name("sp2-serve".into())
            .spawn(move || server.run())?;
        Ok(ServerHandle {
            addr,
            join: Some(join),
        })
    }
}

/// Handle on a background server from [`Server::spawn`].
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    join: Option<std::thread::JoinHandle<Result<(), Sp2Error>>>,
}

impl ServerHandle {
    /// The server's address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins the server thread.
    pub fn shutdown(mut self) -> Result<(), Sp2Error> {
        let mut client = Client::connect(self.addr)?;
        let _ = client.request(&Json::obj().field("op", "shutdown"));
        if let Some(join) = self.join.take() {
            join.join()
                .map_err(|_| Sp2Error::Protocol("server thread panicked".into()))??;
        }
        Ok(())
    }
}

/// Per-connection request loop: one JSON document per line in, one
/// response line (or an event stream) per request out.
fn handle_connection(inner: &ServerInner, stream: TcpStream, self_addr: std::net::SocketAddr) {
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        match read_line_capped(&mut reader, &mut line, MAX_LINE_BYTES) {
            Ok(0) => break,
            Ok(_) => {}
            Err(Sp2Error::Protocol(msg)) => {
                // Overlong line: answer once, then drop the connection —
                // the stream is no longer line-synced.
                let _ = write_error(&mut writer, "protocol", &msg);
                break;
            }
            Err(_) => break, // client went away mid-line
        }
        let line = line.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        let outcome = match Json::parse(line) {
            Ok(req) => handle_request(inner, &req, &mut writer, self_addr),
            Err(e) => write_error(
                &mut writer,
                "protocol",
                &format!("request is not valid JSON: {e}"),
            ),
        };
        if outcome.is_err() {
            break; // client went away
        }
        if inner.stop.load(Ordering::Acquire) {
            break;
        }
    }
}

fn write_line(w: &mut impl Write, doc: &Json) -> std::io::Result<()> {
    doc.write_compact_to(w)?;
    w.write_all(b"\n")?;
    w.flush()
}

fn write_error(w: &mut impl Write, code: &str, message: &str) -> std::io::Result<()> {
    write_line(
        w,
        &Json::obj()
            .field("ok", false)
            .field("code", code)
            .field("error", message),
    )
}

fn handle_request(
    inner: &ServerInner,
    req: &Json,
    w: &mut TcpStream,
    self_addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    let Some(op) = req.get("op").and_then(Json::as_str) else {
        return write_error(w, "protocol", "missing field: op");
    };
    match op {
        "ping" => {
            let jobs = inner.lock_jobs().len();
            write_line(
                w,
                &Json::obj()
                    .field("ok", true)
                    .field("schema", SCHEMA)
                    .field("jobs", jobs),
            )
        }
        "submit" => {
            let Some(doc) = req.get("submission") else {
                return write_error(w, "protocol", "missing field: submission");
            };
            let submission = match Submission::from_json(doc) {
                Ok(s) => s,
                Err(e) => return write_error(w, "validation", &e.to_string()),
            };
            let wait = req
                .get("wait")
                .is_none_or(|v| matches!(v, Json::Bool(true)));
            let (job, dedup, stored) = inner.submit(submission);
            write_line(
                w,
                &Json::obj()
                    .field("ok", true)
                    .field("event", "job")
                    .field("job", job.digest_hex.as_str())
                    .field("state", job.state().as_str())
                    .field("dedup", dedup)
                    .field("stored", stored),
            )?;
            if wait {
                stream_job(&job, w)?;
                stream_instrumentation(w)?;
            }
            Ok(())
        }
        "status" => match find_from(inner, req, w)? {
            None => Ok(()),
            Some(job) => {
                let (state, datasets, message) = {
                    let p = job.lock();
                    (p.state, p.lines.len(), p.message.clone())
                };
                let mut doc = Json::obj()
                    .field("ok", true)
                    .field("job", job.digest_hex.as_str())
                    .field("state", state.as_str())
                    .field("datasets", datasets)
                    .field("total", job.submission.experiments().len());
                if let Some(m) = message {
                    doc = doc.field("error", m);
                }
                // `"live": true` asks for a snapshot of the daemon
                // itself alongside the job row: queue depth, engine
                // sweep progress, and — when the daemon runs with
                // instrumentation on — the full live metrics document.
                if matches!(req.get("live"), Some(Json::Bool(true))) {
                    let mut live = Json::obj()
                        .field("queue_depth", inner.lock_queue().len())
                        .field("sweeps", sp2_cluster::metrics::SWEEPS.get() as f64)
                        .field(
                            "sweeps_elided",
                            sp2_cluster::metrics::SWEEPS_ELIDED.get() as f64,
                        );
                    if sp2_trace::enabled() {
                        live = live.field("metrics", metrics::to_json(&metrics::snapshot()));
                    }
                    doc = doc.field("live", live);
                }
                write_line(w, &doc)
            }
        },
        "list" => {
            // In-memory jobs in submission order, then stored-only
            // digests from earlier daemon instances.
            let mut rows = Vec::new();
            let known: Vec<Arc<JobEntry>> = inner.lock_jobs().clone();
            for job in &known {
                let (state, datasets) = {
                    let p = job.lock();
                    (p.state, p.lines.len())
                };
                rows.push(
                    Json::obj()
                        .field("job", job.digest_hex.as_str())
                        .field("state", state.as_str())
                        .field("datasets", datasets)
                        .field(
                            "experiments",
                            Json::Arr(
                                job.submission
                                    .experiments()
                                    .iter()
                                    .map(|s| Json::Str(s.clone()))
                                    .collect(),
                            ),
                        ),
                );
            }
            for digest in inner.store.scan() {
                if known.iter().any(|j| j.digest_hex == digest) {
                    continue;
                }
                rows.push(
                    Json::obj()
                        .field("job", digest.as_str())
                        .field("state", "done")
                        .field("stored", true),
                );
            }
            write_line(
                w,
                &Json::obj().field("ok", true).field("jobs", Json::Arr(rows)),
            )
        }
        "fetch" => match find_from(inner, req, w)? {
            None => Ok(()),
            Some(job) => {
                write_line(
                    w,
                    &Json::obj()
                        .field("ok", true)
                        .field("event", "job")
                        .field("job", job.digest_hex.as_str())
                        .field("state", job.state().as_str())
                        .field("dedup", false)
                        .field("stored", job.state() == JobState::Done),
                )?;
                stream_job(&job, w)
            }
        },
        "cancel" => match find_from(inner, req, w)? {
            None => Ok(()),
            Some(job) => {
                job.cancel.cancel();
                // A queued job may never reach a worker again; settle it
                // here so subscribers unblock promptly. Running jobs
                // settle from the worker at the next cancellation point.
                {
                    let mut p = job.lock();
                    if p.state == JobState::Queued {
                        p.state = JobState::Cancelled;
                        p.message = Some("cancelled while queued".into());
                        job.cond.notify_all();
                    }
                }
                write_line(
                    w,
                    &Json::obj()
                        .field("ok", true)
                        .field("job", job.digest_hex.as_str())
                        .field("state", job.state().as_str()),
                )
            }
        },
        "shutdown" => {
            inner.shutdown();
            write_line(w, &Json::obj().field("ok", true))?;
            // The accept loop blocks in accept(); poke it so it can
            // observe the stop flag and exit.
            let _ = TcpStream::connect(self_addr);
            Ok(())
        }
        other => write_error(w, "protocol", &format!("unknown op: {other}")),
    }
}

/// Resolves the request's `job` field, writing the error response
/// itself when resolution fails (returns `Ok(None)` in that case).
fn find_from(
    inner: &ServerInner,
    req: &Json,
    w: &mut TcpStream,
) -> std::io::Result<Option<Arc<JobEntry>>> {
    let Some(prefix) = req.get("job").and_then(Json::as_str) else {
        write_error(w, "protocol", "missing field: job")?;
        return Ok(None);
    };
    match inner.find_job(prefix) {
        Ok(job) => Ok(Some(job)),
        Err(e) => {
            write_error(w, "protocol", &e.to_string())?;
            Ok(None)
        }
    }
}

/// Streams a job's dataset lines from the subscriber's cursor until the
/// job reaches a terminal state, then emits the terminal event. Lines
/// already complete (a replay) flush immediately; a live job streams
/// each line as the worker pushes it.
fn stream_job(job: &JobEntry, w: &mut impl Write) -> std::io::Result<()> {
    let mut cursor = 0usize;
    loop {
        let (chunk, state, message): (Vec<String>, JobState, Option<String>) = {
            let mut p = job.lock();
            while p.lines.len() == cursor && !p.state.terminal() {
                p = match job.cond.wait(p) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            (p.lines[cursor..].to_vec(), p.state, p.message.clone())
        };
        for line in &chunk {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()?;
        cursor += chunk.len();
        if state.terminal() {
            let all_streamed = {
                let p = job.lock();
                p.lines.len() == cursor
            };
            if all_streamed {
                let doc = match state {
                    JobState::Done => Json::obj()
                        .field("event", "done")
                        .field("job", job.digest_hex.as_str())
                        .field("state", state.as_str())
                        .field("datasets", cursor),
                    _ => Json::obj()
                        .field("event", "error")
                        .field("job", job.digest_hex.as_str())
                        .field("state", state.as_str())
                        .field(
                            "error",
                            message.unwrap_or_else(|| state.as_str().to_string()),
                        ),
                };
                return write_line(w, &doc);
            }
        }
    }
}

/// When the daemon runs instrumented, trail the stream with the live
/// `sp2-metrics/v1` / `sp2-timeline/v1` documents. These carry
/// wall-clock readings of this process — a side channel, never stored,
/// never part of the byte-identity contract.
fn stream_instrumentation(w: &mut impl Write) -> std::io::Result<()> {
    if sp2_trace::enabled() {
        write_line(
            w,
            &Json::obj()
                .field("event", "metrics")
                .field("doc", metrics::to_json(&metrics::snapshot())),
        )?;
    }
    if let Some(recording) = sp2_trace::Recording::current() {
        write_line(
            w,
            &Json::obj()
                .field("event", "timeline")
                .field("doc", timeline::timeline_json(&recording.series())),
        )?;
    }
    Ok(())
}

/// A thin protocol client, shared by `sp2 submit`/`sp2 jobs` and the
/// integration tests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, Sp2Error> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line.
    pub fn send(&mut self, doc: &Json) -> Result<(), Sp2Error> {
        write_line(&mut self.writer, doc)?;
        Ok(())
    }

    /// Reads one raw response line (None at EOF). Byte-level access so
    /// callers can diff or persist exactly what the server sent.
    pub fn recv_line(&mut self) -> Result<Option<String>, Sp2Error> {
        let mut line = String::new();
        let n = read_line_capped(&mut self.reader, &mut line, MAX_LINE_BYTES)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Reads one response line and parses it, converting `ok:false`
    /// responses into typed errors (`validation` →
    /// [`Sp2Error::Submission`], anything else → [`Sp2Error::Protocol`]).
    pub fn recv(&mut self) -> Result<Json, Sp2Error> {
        let line = self
            .recv_line()?
            .ok_or_else(|| Sp2Error::Protocol("server closed the connection".into()))?;
        let doc = Json::parse(&line)
            .map_err(|e| Sp2Error::Protocol(format!("bad response line: {e}")))?;
        if let Some(Json::Bool(false)) = doc.get("ok") {
            let msg = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error")
                .to_string();
            return match doc.get("code").and_then(Json::as_str) {
                Some("validation") => Err(Sp2Error::Submission(msg)),
                _ => Err(Sp2Error::Protocol(msg)),
            };
        }
        Ok(doc)
    }

    /// One-line request/response.
    pub fn request(&mut self, doc: &Json) -> Result<Json, Sp2Error> {
        self.send(doc)?;
        self.recv()
    }

    /// Submits and streams to completion. Returns the raw `dataset`
    /// event lines (exactly as sent — the deterministic payload) and
    /// the parsed terminal event. Side-channel `metrics`/`timeline`
    /// events are parsed past and dropped.
    pub fn submit_and_wait(&mut self, submission: &Submission) -> Result<SubmitOutcome, Sp2Error> {
        self.send(
            &Json::obj()
                .field("op", "submit")
                .field("submission", submission.to_json())
                .field("wait", true),
        )?;
        let header = self.recv()?;
        let mut lines = Vec::new();
        loop {
            let raw = self
                .recv_line()?
                .ok_or_else(|| Sp2Error::Protocol("stream ended before done".into()))?;
            let doc = Json::parse(&raw)
                .map_err(|e| Sp2Error::Protocol(format!("bad event line: {e}")))?;
            match doc.get("event").and_then(Json::as_str) {
                Some("dataset") => lines.push(raw),
                Some("done") | Some("error") => {
                    return Ok(SubmitOutcome {
                        header,
                        dataset_lines: lines,
                        terminal: doc,
                    })
                }
                _ => {} // metrics/timeline side channel
            }
        }
    }
}

/// What a waited submission produced.
pub struct SubmitOutcome {
    /// The `job` header event (digest, dedup/stored flags).
    pub header: Json,
    /// The raw dataset lines, byte-for-byte as streamed.
    pub dataset_lines: Vec<String>,
    /// The terminal `done` or `error` event.
    pub terminal: Json,
}

impl SubmitOutcome {
    /// Whether the job completed successfully.
    pub fn is_done(&self) -> bool {
        self.terminal.get("event").and_then(Json::as_str) == Some("done")
    }

    /// The terminal state string.
    pub fn state(&self) -> &str {
        self.terminal
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sp2-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spawn_server(tag: &str) -> ServerHandle {
        Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: temp_dir(tag),
            campaigns: 2,
            engine: EngineConfig::default(),
        })
        .expect("server spawns")
    }

    /// `table1` needs no campaign, so protocol behavior tests run in
    /// milliseconds.
    fn cheap_submission() -> Submission {
        Submission::builder()
            .days(1)
            .experiment("table1")
            .build()
            .expect("valid")
    }

    #[test]
    fn ping_submit_status_list_shutdown() {
        let server = spawn_server("protocol");
        let mut client = Client::connect(server.addr()).expect("connects");

        let pong = client
            .request(&Json::obj().field("op", "ping"))
            .expect("pong");
        assert_eq!(pong.get("schema").and_then(Json::as_str), Some(SCHEMA));

        let sub = cheap_submission();
        let outcome = client.submit_and_wait(&sub).expect("submits");
        assert!(outcome.is_done(), "terminal: {:?}", outcome.terminal);
        assert_eq!(outcome.dataset_lines.len(), 1);
        let first = Json::parse(&outcome.dataset_lines[0]).expect("dataset line parses");
        assert_eq!(
            first.get("experiment").and_then(Json::as_str),
            Some("table1")
        );
        assert_eq!(
            first.get("job").and_then(Json::as_str),
            Some(sub.digest_hex().as_str())
        );

        let status = client
            .request(
                &Json::obj()
                    .field("op", "status")
                    .field("job", &sub.digest_hex()[..8]),
            )
            .expect("status by prefix");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));

        let list = client
            .request(&Json::obj().field("op", "list"))
            .expect("lists");
        assert_eq!(
            list.get("jobs").and_then(Json::as_arr).map(<[_]>::len),
            Some(1)
        );

        // Plain status carries no daemon snapshot; `"live": true` adds
        // queue depth and engine sweep progress.
        assert!(status.get("live").is_none());
        let live_status = client
            .request(
                &Json::obj()
                    .field("op", "status")
                    .field("job", &sub.digest_hex()[..8])
                    .field("live", true),
            )
            .expect("live status");
        let live = live_status.get("live").expect("live snapshot present");
        assert_eq!(live.get("queue_depth").and_then(Json::as_f64), Some(0.0));
        assert!(live.get("sweeps").and_then(Json::as_f64).is_some());
        assert!(live.get("sweeps_elided").and_then(Json::as_f64).is_some());

        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn malformed_requests_answer_typed_errors() {
        let server = spawn_server("errors");
        let mut client = Client::connect(server.addr()).expect("connects");

        client
            .send(&Json::obj().field("op", "status"))
            .expect("sends");
        assert!(matches!(client.recv(), Err(Sp2Error::Protocol(_))));

        client
            .send(&Json::obj().field("op", "frobnicate"))
            .expect("sends");
        assert!(matches!(client.recv(), Err(Sp2Error::Protocol(_))));

        // A submission that fails validation answers code=validation.
        client
            .send(
                &Json::obj()
                    .field("op", "submit")
                    .field("submission", Json::obj().field("days", 0u32)),
            )
            .expect("sends");
        assert!(matches!(client.recv(), Err(Sp2Error::Submission(_))));

        // And the connection survives all of it.
        let pong = client
            .request(&Json::obj().field("op", "ping"))
            .expect("still alive");
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn read_line_capped_trips_exactly_past_the_limit() {
        let mut r = std::io::Cursor::new(b"abcdefgh\nrest".to_vec());
        let mut line = String::new();
        let n = read_line_capped(&mut r, &mut line, 16).expect("short line fits");
        assert_eq!(n, 9);
        assert_eq!(line, "abcdefgh\n");
        // A line of exactly the limit (newline included) still passes…
        let mut r = std::io::Cursor::new(b"1234567\n".to_vec());
        assert_eq!(read_line_capped(&mut r, &mut line, 8).expect("at limit"), 8);
        // …one byte more does not, newline or no newline.
        let mut r = std::io::Cursor::new(b"12345678\n".to_vec());
        assert!(matches!(
            read_line_capped(&mut r, &mut line, 8),
            Err(Sp2Error::Protocol(_))
        ));
        let mut r = std::io::Cursor::new(vec![b'x'; 32]);
        assert!(matches!(
            read_line_capped(&mut r, &mut line, 16),
            Err(Sp2Error::Protocol(_))
        ));
    }

    #[test]
    fn oversized_request_line_answers_protocol_error() {
        let server = spawn_server("oversize");
        let mut stream = TcpStream::connect(server.addr()).expect("connects");
        // One byte past the cap, never a newline. Exactly limit+1 bytes,
        // so the server consumes the whole blob before answering and the
        // close is a clean FIN rather than a reset that could eat the
        // error response.
        let blob = vec![b'a'; MAX_LINE_BYTES + 1];
        for chunk in blob.chunks(1 << 16) {
            stream.write_all(chunk).expect("server keeps reading");
        }
        stream.flush().expect("flushes");
        let mut response = String::new();
        BufReader::new(&stream)
            .read_line(&mut response)
            .expect("reads the error line");
        let doc = Json::parse(&response).expect("error line parses");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("protocol"));
        // The server hung up after answering: the stream is done.
        let mut rest = String::new();
        let n = BufReader::new(&stream).read_line(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "connection closes after the protocol error");
        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn digest_hit_replays_stored_bytes_across_instances() {
        let dir = temp_dir("restart");
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: dir.clone(),
            campaigns: 1,
            engine: EngineConfig::default(),
        };
        let sub = cheap_submission();

        let first = Server::spawn(config.clone()).expect("first instance");
        let mut client = Client::connect(first.addr()).expect("connects");
        let ran = client.submit_and_wait(&sub).expect("runs");
        assert!(ran.is_done());
        assert_eq!(ran.header.get("stored"), Some(&Json::Bool(false)));
        first.shutdown().expect("clean shutdown");

        // A fresh daemon over the same store serves the digest from disk.
        let second = Server::spawn(config).expect("second instance");
        let mut client = Client::connect(second.addr()).expect("connects");
        let replay = client.submit_and_wait(&sub).expect("replays");
        assert!(replay.is_done());
        assert_eq!(
            replay.header.get("stored"),
            Some(&Json::Bool(true)),
            "second instance must hit the store, not re-run"
        );
        assert_eq!(
            replay.dataset_lines, ran.dataset_lines,
            "replayed bytes equal the original stream"
        );
        second.shutdown().expect("clean shutdown");
        let _ = std::fs::remove_dir_all(dir);
    }
}
