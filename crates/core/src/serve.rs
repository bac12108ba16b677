//! `jsceresd`: the persistent analysis service.
//!
//! Five PRs in, the daemon was a *single process* with a bounded
//! in-memory queue: a segfault-class failure killed it, a burst past the
//! queue bound rejected jobs, and a restart lost the entire result
//! cache. This module is the serving core of the multi-process redesign
//! (see `docs/OPERATIONS.md` for the operator's view):
//!
//! 1. **A stable, versioned wire surface.** Clients send one
//!    line-delimited JSON [`AnalysisRequest`] per request over TCP. A
//!    default (one-shot) request is answered with a single JSON
//!    envelope rendered at [`ONESHOT_SCHEMA_VERSION`] — byte-identical
//!    to every prior PR and golden-pinned. A `stream:true` request is
//!    answered with the schema-2 multi-frame protocol
//!    ([`crate::fleet::API_SCHEMA_VERSION`]): `accepted`, per-phase
//!    `phase` frames as each pipeline stage completes, an early
//!    `partial` timing frame, `notice` frames for queue events, and a
//!    terminal `result`/`error` frame whose payload fragment is the
//!    *same bytes* the one-shot envelope carries. All frames are built
//!    by one [`render_frame`] (the one-shot envelope is the degenerate
//!    single-`result` render). The request fields map 1:1 onto the
//!    [`AnalyzeOptions`] builder, so the daemon, `jsceres`, and
//!    `repro fleet` all speak the same options vocabulary.
//! 2. **A sharded, persistent, content-addressed result cache.** Each
//!    analyze request is keyed by [`crate::cache::CacheKey`]; keys route
//!    to one of N [`ShardedCache`] shards (per-shard locks, per-shard
//!    FIFO eviction), and — with a cache directory configured — every
//!    insert is written through to a shard file and reloaded on the next
//!    start, so a restarted daemon serves warm hits **byte-identically**
//!    with zero new interpreter ticks.
//! 3. **Process-isolated execution.** Every analyze job runs in a
//!    worker *process* started from the [`WorkerSpec`] passed to
//!    [`serve`] (in production `jsceresd --worker`): each exec thread
//!    owns one [`WorkerSlot`]; a crash costs one job, the supervisor
//!    restarts the worker with bounded backoff, and the daemon keeps
//!    serving.
//! 4. **Spill-to-disk admission.** The in-memory ring holds up to
//!    `queue_capacity` jobs; overflow is appended to a crash-safe
//!    [`SpillQueue`] segment file and drained strictly FIFO behind the
//!    ring, so bursts queue on disk instead of being rejected — and a
//!    streaming client is told by an immediate `notice` frame the
//!    moment its job is parked on disk, not only at drain time.
//! 5. **Cross-job phase pipelining.** Execution is split into two
//!    stage pools (Brodu et al., arXiv:1512.07067 — the event loop
//!    re-architected as a pipeline): a *parse stage* pulls admitted
//!    jobs, runs the parse+rewrite front half
//!    ([`crate::pipeline::prepare_source`]) and emits the early phase
//!    frames, then hands off to the *interp stage* (the worker slots).
//!    Stages of different jobs overlap — while one job holds an interp
//!    slot mid-dependence-analysis, the next job's parse runs on a parse
//!    thread, and an unparseable job is rejected without ever occupying
//!    an interp slot. Spilled jobs replay through the same two stages.
//!
//! Shutdown is a graceful drain: a `shutdown` op (or
//! [`ServerHandle::shutdown`], or SIGTERM via
//! [`ServerHandle::request_drain`]) stops the accept loop and rejects
//! new analyze requests; jobs already *running* complete and answer
//! their clients, while the queued tail is flushed to the spill file —
//! never silently dropped — and those clients get an explicit
//! `draining` response telling them to retry after restart.
//!
//! Responses always use the canonical (deterministic) view of reports
//! and metrics: a content-addressed cache makes wall-clock noise
//! observable (a warm hit would otherwise return some *other* run's
//! timings), so the served artifact is defined to be the part that is a
//! pure function of the request. See `docs/SERVING.md` for the protocol
//! reference and `docs/OPERATIONS.md` for deployment.

#![deny(missing_docs)]

use crate::cache::{CacheKey, ShardedCache};
use crate::fleet::{
    AppOutcome, AppReport, FleetJob, FleetPolicy, JobError, JobWork, API_SCHEMA_VERSION,
};
use crate::obs::{FleetMetrics, ServeCounters};
use crate::pipeline::{analyze, AnalyzeOptions, Document, Timing, WebServer};
use crate::spill::{SpillQueue, SpillStats};
use crate::supervisor::{SlotOutcome, WorkerSlot, WorkerSpec};
use ceres_instrument::Mode;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Tick budget for an injected hang when the policy does not set one
/// (mirrors the fleet harness): long enough for any real request, short
/// enough that the watchdog trips quickly.
const HANG_FALLBACK_TICKS: u64 = 2_000_000;

/// How often an idle connection handler wakes up to check for drain.
const READ_POLL: Duration = Duration::from_millis(200);

/// Largest request line accepted, in bytes (newline excluded): far above
/// any real source payload, low enough that one client cannot make the
/// daemon buffer without bound. A longer line is answered with one
/// `request too large` error and the connection is closed.
pub(crate) const MAX_REQUEST_LINE: usize = 8 << 20;

/// Version stamp of the `stats` op payload (see `docs/METRICS.md`).
/// 2 added the multi-process fields (spill, shards, worker restarts);
/// 3 added the streaming-pipeline fields: `exec_depth` in the payload
/// and `streams`/`frames_streamed`/`spill_notices` in the counters.
pub const SERVE_STATS_SCHEMA: u32 = 3;

/// Schema stamp of the legacy one-shot envelope — and of every
/// non-analyze op (`ping`, `stats`, `shutdown`), which are one-shot by
/// nature. A request without `stream:true` is answered exactly as
/// before the streaming protocol existed: one `"schema":1` line,
/// byte-identical and golden-pinned. [`API_SCHEMA_VERSION`] (2) is the
/// multi-frame streaming protocol.
pub const ONESHOT_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

/// One request line. Every field is optional on the wire; `op` defaults
/// to `"analyze"` and the analysis fields default per [`ServeConfig`].
/// The analysis fields mirror the [`AnalyzeOptions`] builder one-to-one.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnalysisRequest {
    /// `"analyze"` (default), `"ping"`, `"stats"`, or `"shutdown"`.
    pub op: Option<String>,
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// Registry workload slug to analyze (mutually exclusive with
    /// `source`).
    pub app: Option<String>,
    /// Raw JavaScript (or HTML with inline scripts) to analyze.
    pub source: Option<String>,
    /// Instrumentation mode: `lightweight`, `loop-profile`, `dependence`.
    pub mode: Option<String>,
    /// Virtual-clock seed.
    pub seed: Option<u64>,
    /// Dependence-mode focus loop id.
    pub focus: Option<u32>,
    /// Event-processing cap.
    pub max_events: Option<u64>,
    /// Deterministic watchdog tick budget.
    pub max_ticks: Option<u64>,
    /// Registry workload scale factor.
    pub scale: Option<u32>,
    /// Fault to inject into this request's job (`panic`, `hang`, `error`,
    /// or `crash`), exercising the supervisor; injected requests are
    /// never cached.
    pub inject: Option<String>,
    /// `true` ⇒ answer with the schema-2 multi-frame stream
    /// (`accepted`/`phase`/`partial`/`notice` frames before the
    /// terminal `result`/`error`). Absent or `false` ⇒ the schema-1
    /// one-shot envelope, byte-identical to pre-streaming servers.
    pub stream: Option<bool>,
}

/// Parse a mode name as accepted on the CLI and the wire. The single
/// source of truth — the shared bin args module delegates here.
pub fn parse_mode(s: &str) -> Result<Mode, String> {
    match s {
        "light" | "lightweight" | "lw" => Ok(Mode::Lightweight),
        "loop" | "loops" | "profile" | "loop-profile" => Ok(Mode::LoopProfile),
        "dep" | "deps" | "dependence" => Ok(Mode::Dependence),
        other => Err(format!(
            "unknown mode `{other}` (want lightweight|loop-profile|dependence)"
        )),
    }
}

/// The canonical wire spelling of a mode (parseable by [`parse_mode`]).
pub fn mode_wire_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Lightweight => "lightweight",
        Mode::LoopProfile => "loop-profile",
        Mode::Dependence => "dependence",
    }
}

/// Render a request as a self-contained single-line job spec: the
/// analysis options are written out *explicitly* from the resolved
/// `opts` (not the raw request), so a worker process — or a replay after
/// restart — computes the identical [`CacheKey`] regardless of its own
/// defaults. This is both the spill-queue payload and the
/// supervisor→worker job line: an [`AnalysisRequest`] without `op` or
/// `id`, whose absent fields are written as `null`.
pub fn request_wire_json(req: &AnalysisRequest, opts: &AnalyzeOptions) -> String {
    // `stream` is carried so a worker *process* knows to emit frame
    // lines on its stdout pipe; a replayed spill job with no waiting
    // client keeps the flag but its frames are discarded supervisor-side.
    let job = AnalysisRequest {
        op: None,
        id: None,
        mode: Some(mode_wire_name(opts.mode).to_string()),
        seed: Some(opts.seed),
        focus: opts.focus.map(|f| f.0),
        max_events: Some(opts.max_events as u64),
        max_ticks: opts.max_ticks,
        ..req.clone()
    };
    serde_json::to_string(&job).expect("AnalysisRequest serializes")
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// One unit of an analyze response. A schema-2 streaming response is a
/// sequence of frames ending in exactly one terminal frame; a schema-1
/// one-shot response is the degenerate case — a single terminal frame
/// rendered as the legacy envelope. Every response line on the wire
/// (both schemas) goes through [`render_frame`]; worker processes
/// stream `phase` and `partial` frames to the supervisor as serde lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Frame {
    /// The job passed admission and is queued; `queue_depth` is its
    /// position-ish depth at admission (ring length, plus spill depth
    /// beyond capacity for spilled jobs). A warm cache hit skips
    /// straight to `result` — `accepted` always implies real work.
    Accepted {
        /// Queue depth observed at admission.
        queue_depth: u64,
    },
    /// A pipeline phase of this job completed. Tick fields are virtual
    /// clock readings and therefore deterministic; wall-clock data is
    /// deliberately not carried (it would make the stream golden
    /// unpinnable — same rule as the canonical report).
    Phase {
        /// Phase name, one of [`crate::obs::PHASES`].
        phase: String,
        /// Virtual clock at phase start, ticks.
        start_ticks: u64,
        /// Virtual clock at phase end, ticks.
        end_ticks: u64,
    },
    /// An early per-app result: the Table-2 timing row, known the
    /// moment interpretation ends, long before nest classification and
    /// report rendering. Deterministic.
    Partial(Timing),
    /// Out-of-band queue event: the job spilled to disk, or the server
    /// is draining. Never terminal, never cached.
    Notice {
        /// Human-readable event description.
        notice: String,
    },
    /// Terminal: the job ran to a successful supervised outcome (or was
    /// a warm cache hit). The fragment is exactly what the cache
    /// stores, so a warm hit is byte-identical in every result field;
    /// only `id`, `seq`, and `cached` — which describe the *request* —
    /// may differ.
    Result {
        /// Whether the job produced a report.
        ok: bool,
        /// Whether the fragment came from the result cache.
        cached: bool,
        /// Result payload fragment (JSON object body).
        fragment: String,
    },
    /// Terminal: the request failed — bad request, queue full,
    /// draining, parse rejection, or a job that ran and did not produce
    /// a report (panicked / hung / crashed worker).
    Error {
        /// Error payload fragment (JSON object body).
        fragment: String,
    },
}

impl Frame {
    /// Terminal frames end the response; every request gets exactly one.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Frame::Result { .. } | Frame::Error { .. })
    }

    /// The wire `type` tag of a schema-2 frame.
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::Accepted { .. } => "accepted",
            Frame::Phase { .. } => "phase",
            Frame::Partial { .. } => "partial",
            Frame::Notice { .. } => "notice",
            Frame::Result { .. } => "result",
            Frame::Error { .. } => "error",
        }
    }
}

/// The head of every response line. A one-shot (schema 1) line carries
/// no `type` or `seq`, and a non-terminal schema-2 frame no `ok` or
/// `cached`; [`render_frame`] leaves out a field that is `None`.
#[derive(Serialize)]
struct Head {
    schema: u32,
    r#type: Option<&'static str>,
    id: String,
    seq: Option<u64>,
    ok: Option<bool>,
    cached: Option<bool>,
}

/// A job's payload fragment: which job and how it ended, then its
/// report and metrics, or its error. [`job_fragment`] leaves out the
/// fields that are `None`.
#[derive(Serialize)]
struct JobReply {
    key: String,
    app: String,
    slug: String,
    status: String,
    attempts: u32,
    report: Option<AppReport>,
    metrics: Option<FleetMetrics>,
    error: Option<String>,
}

/// The body of an error reply.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

/// The fields of `v`'s JSON object, in declaration order.
fn fields(v: &impl Serialize) -> Vec<(String, Value)> {
    match serde_json::to_value(v) {
        Ok(Value::Map(fields)) => fields,
        _ => unreachable!("wire types serialize to JSON objects"),
    }
}

/// `fields` as a payload fragment: a JSON object body, no braces.
fn fragment(fields: Vec<(String, Value)>) -> String {
    let object = Value::Map(fields).to_string();
    object[1..object.len() - 1].to_string()
}

/// Join a head to a payload fragment as one JSON line: the one place a
/// fragment meets serialized JSON. The fragment's bytes are copied as
/// they are, never parsed or re-serialized — a warm hit replays them.
fn splice(head: Vec<(String, Value)>, fragment: &str) -> String {
    let head = Value::Map(head).to_string();
    format!("{},{fragment}}}", &head[..head.len() - 1])
}

/// Render one frame as one wire line (sans newline). Schema 1 renders
/// a terminal frame as the legacy envelope byte-for-byte — no `type`,
/// no `seq` — and the one-shot path writes no other frames. Schema 2
/// stamps every frame with its type and the per-response sequence
/// number.
pub fn render_frame(schema: u32, id: &str, seq: u64, frame: &Frame) -> String {
    let stream = schema != ONESHOT_SCHEMA_VERSION;
    let (ok, cached, fragment) = match frame {
        Frame::Result {
            ok,
            cached,
            fragment,
        } => (Some(*ok), Some(*cached), Some(fragment)),
        Frame::Error { fragment } => (Some(false), Some(false), Some(fragment)),
        _ => (None, None, None),
    };
    let mut head = fields(&Head {
        schema,
        r#type: stream.then(|| frame.type_name()),
        id: id.to_string(),
        seq: stream.then_some(seq),
        ok,
        cached,
    });
    head.retain(|(_, v)| !v.is_null());
    if let Some(fragment) = fragment {
        return splice(head, fragment);
    }
    // A frame serializes externally tagged, `{"Phase":{…}}`: its own
    // fields are the tag's object.
    if let Some((_, Value::Map(body))) = fields(frame).pop() {
        head.extend(body);
    }
    Value::Map(head).to_string()
}

/// The legacy one-shot envelope: a degenerate single-`result` render.
fn envelope(id: &str, ok: bool, cached: bool, fragment: String) -> String {
    render_frame(
        ONESHOT_SCHEMA_VERSION,
        id,
        0,
        &Frame::Result {
            ok,
            cached,
            fragment,
        },
    )
}

/// An error response line (bad request, queue full, draining, ...).
fn error_line(id: &str, error: &str) -> String {
    envelope(id, false, false, error_fragment(error))
}

/// An error payload *fragment* (for replies routed through the job
/// queue, which the connection handler wraps in an envelope itself).
pub(crate) fn error_fragment(error: &str) -> String {
    fragment(fields(&ErrorBody {
        error: error.to_string(),
    }))
}

/// A job's payload fragment: a finished job's canonical report and
/// metrics, or the error it failed with. Every job reply is built here:
/// a result, a parse-stage rejection, a crashed or unspawnable worker, a
/// job line the worker cannot resolve. `key` is the cache-key
/// fingerprint (empty when a job line never resolved).
pub(crate) fn job_fragment(
    key: &str,
    app: &str,
    slug: &str,
    status: &str,
    attempts: u32,
    result: Result<AppReport, &str>,
) -> String {
    let (report, error) = match result {
        Ok(report) => (Some(report), None),
        Err(error) => (None, Some(error.to_string())),
    };
    let metrics = report
        .as_ref()
        .map(|r| FleetMetrics::single(&r.app, &r.slug, &r.mode, &r.obs, true));
    let mut reply = fields(&JobReply {
        key: key.to_string(),
        app: app.to_string(),
        slug: slug.to_string(),
        status: status.to_string(),
        attempts,
        report,
        metrics,
        error,
    });
    reply.retain(|(_, v)| !v.is_null());
    fragment(reply)
}

// ---------------------------------------------------------------------
// Request resolution
// ---------------------------------------------------------------------

/// A request resolved to runnable work plus its cache identity.
pub struct ResolvedJob {
    /// Display name for the report.
    pub app: String,
    /// Short identifier.
    pub slug: String,
    /// Canonical source text — the content half of the [`CacheKey`]. For
    /// registry apps this is the full generated HTML page (scale baked
    /// in), so registry and inline requests for the same program share an
    /// entry.
    pub source: String,
    /// The supervised work closure.
    pub work: JobWork,
    /// Whether an `Ok` result may be stored. Fault-injected requests are
    /// not cacheable: their `attempts` count differs from a clean run, so
    /// storing them would leak injection artifacts into clean hits.
    pub cacheable: bool,
}

/// Maps a request to a [`ResolvedJob`]. The daemon supplies one that
/// knows the workload registry (`ceres-core` cannot depend on the
/// workloads crate), built from [`source_work`] and [`inject_fault`].
pub type Resolver =
    Arc<dyn Fn(&AnalysisRequest, &AnalyzeOptions) -> Result<ResolvedJob, String> + Send + Sync>;

/// Build the supervised work closure for analyzing raw source text: its
/// own `WebServer → instrument → Interp → Engine` stack per attempt,
/// exactly like a fleet job. Sources starting with `<` are served as
/// HTML (inline scripts extracted); anything else as plain JavaScript.
pub fn source_work(app: String, slug: String, source: String, opts: AnalyzeOptions) -> JobWork {
    Arc::new(move |worker, _attempt| {
        let start = std::time::Instant::now();
        let mut server = WebServer::new();
        let doc = if source.trim_start().starts_with('<') {
            Document::Html(source.clone())
        } else {
            Document::Js(source.clone())
        };
        server.publish("request.html", doc);
        let run = analyze(
            &server,
            "request.html",
            opts.clone(),
            Box::new(|_, _| Ok(())),
        )
        .map_err(|c| JobError::from_control(&c))?;
        let mut report = AppReport::from_run(&app, &slug, opts.mode, &run);
        report.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        report.worker = worker;
        Ok(report)
    })
}

/// Wrap `inner` with an injected fault (`panic` | `hang` | `error` |
/// `crash`), mirroring the fleet's seeded harness: `panic` unwinds every
/// attempt, `hang` spins the interpreter until the tick watchdog fires,
/// `error` reports a transient failure on the first attempt and then
/// lets the real work run — exercising panic isolation, watchdog
/// cancellation, and retry respectively. `crash` aborts the worker
/// process, the one fault [`crate::fleet::supervise`] cannot contain,
/// so the supervisor's restart path gets exercised by something real.
pub fn inject_fault(
    kind: &str,
    slug: &str,
    policy: &FleetPolicy,
    inner: JobWork,
) -> Result<JobWork, String> {
    let slug = slug.to_string();
    let budget = policy.tick_budget.unwrap_or(HANG_FALLBACK_TICKS);
    match kind {
        "panic" => Ok(Arc::new(move |_, _| {
            panic!("injected fault: panic in {slug}")
        })),
        "hang" => Ok(Arc::new(move |_, _| {
            let mut interp = ceres_interp::Interp::new(2015);
            interp.max_ticks = Some(budget);
            match interp.eval_source("for (;;) {}") {
                Err(c) => Err(JobError::from_control(&c)),
                Ok(()) => Err(JobError::Fatal(
                    "injected hang terminated without tripping".to_string(),
                )),
            }
        })),
        "error" => Ok(Arc::new(move |worker, attempt| {
            if attempt == 1 {
                Err(JobError::Transient(format!(
                    "injected fault: transient error in {slug}"
                )))
            } else {
                inner(worker, attempt)
            }
        })),
        "crash" => Ok(Arc::new(move |_, _| {
            eprintln!(
                "worker: injected crash in {slug} — aborting (pid {})",
                std::process::id()
            );
            std::process::abort()
        })),
        other => Err(format!(
            "unknown inject kind `{other}` (want panic|hang|error|crash)"
        )),
    }
}

/// Build [`AnalyzeOptions`] from a request plus the server defaults.
/// Exposed so the daemon's resolver and the server core agree on exactly
/// one mapping (and tests can construct the matching [`CacheKey`]).
pub fn request_options(
    req: &AnalysisRequest,
    config: &ServeConfig,
) -> Result<AnalyzeOptions, String> {
    let mode = match &req.mode {
        Some(m) => parse_mode(m)?,
        None => config.default_mode,
    };
    let mut b = AnalyzeOptions::builder()
        .mode(mode)
        .seed(req.seed.unwrap_or(config.default_seed))
        .focus(req.focus.map(ceres_ast::LoopId))
        .max_ticks(req.max_ticks.or(config.policy.tick_budget))
        .wall_budget(config.policy.wall_budget.checked_div(2));
    if let Some(me) = req.max_events {
        b = b.max_events(me as usize);
    }
    Ok(b.build())
}

/// A request resolved against the serve defaults: its options, cache
/// key and supervised job.
pub(crate) struct PreparedJob {
    pub(crate) opts: AnalyzeOptions,
    pub(crate) key: CacheKey,
    /// Whether an `Ok` result may be cached ([`ResolvedJob::cacheable`]).
    pub(crate) cacheable: bool,
    /// Canonical source, for the parse stage's front half.
    pub(crate) source: String,
    pub(crate) job: FleetJob,
}

impl PreparedJob {
    /// The [`job_fragment`] of this job failing with `error`.
    pub(crate) fn failure(&self, status: &str, attempts: u32, error: &str) -> String {
        job_fragment(
            &self.key.fingerprint(),
            &self.job.app,
            &self.job.slug,
            status,
            attempts,
            Err(error),
        )
    }
}

/// Resolve a request: options from the request and the serve defaults,
/// then the resolver, then the cache key.
pub(crate) fn resolve_request(
    req: &AnalysisRequest,
    config: &ServeConfig,
    resolver: &Resolver,
) -> Result<PreparedJob, String> {
    let opts = request_options(req, config)?;
    let resolved = resolver(req, &opts)?;
    Ok(PreparedJob {
        key: CacheKey::of(&resolved.source, &opts, req.scale.unwrap_or(1)),
        opts,
        cacheable: resolved.cacheable,
        source: resolved.source,
        job: FleetJob {
            app: resolved.app,
            slug: resolved.slug,
            work: resolved.work,
        },
    })
}

/// Resolve a job line as [`request_wire_json`] renders it (the spill
/// payload and the supervisor→worker line), plus whether it asks for
/// streamed frames. The supervisor's parse stage and the worker process
/// both resolve through here, so they agree on the key and on every
/// option the job runs with.
pub(crate) fn resolve_job_line(
    wire: &str,
    config: &ServeConfig,
    resolver: &Resolver,
) -> Result<(PreparedJob, bool), String> {
    let req: AnalysisRequest =
        serde_json::from_str(wire).map_err(|e| format!("bad job line: {e}"))?;
    let prepared = resolve_request(&req, config, resolver)?;
    Ok((prepared, req.stream == Some(true)))
}

/// Build the result fragment for a finished job. `Ok` outcomes carry
/// the canonical report + deterministic single-run metrics; failures
/// carry the status label and detail. Compact JSON throughout — the
/// protocol is line-delimited. The worker process renders every
/// finished job here, and a warm hit replays the same bytes.
pub fn result_fragment(key: &CacheKey, outcome: &AppOutcome) -> (bool, String) {
    let result = match &outcome.report {
        Some(report) => Ok(report.canonical()),
        None => Err(outcome.status.detail().unwrap_or("")),
    };
    let fragment = job_fragment(
        &key.fingerprint(),
        &outcome.app,
        &outcome.slug,
        &outcome.status.label(),
        outcome.attempts,
        result,
    );
    (outcome.report.is_some(), fragment)
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// Server knobs. `Default` gives a loopback-friendly test configuration
/// (ephemeral spill, memory-only cache); the daemon overrides from its
/// flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker slots executing the interp/analyze back half of queued
    /// jobs, one worker process per slot.
    pub workers: usize,
    /// Parse-stage threads: the pipeline front half (resolve +
    /// parse/rewrite + early frames) runs here, overlapping the next
    /// job's parse with the previous job's interp.
    pub parse_workers: usize,
    /// In-memory job-ring capacity; overflow spills to disk.
    pub queue_capacity: usize,
    /// Result-cache capacity, in entries (split across shards).
    pub cache_capacity: usize,
    /// Number of cache shards (each with its own lock and FIFO window).
    pub cache_shards: usize,
    /// Cache persistence directory. `Some` ⇒ write-through shard files
    /// + load-on-start; `None` ⇒ memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Spill-queue directory. `Some` ⇒ the backlog survives restarts
    /// (and is replayed on start); `None` ⇒ an ephemeral per-process
    /// temp directory, deleted on clean shutdown.
    pub spill_dir: Option<PathBuf>,
    /// Supervision policy. Its tick and wall budgets become each job's
    /// options (written into the job line); a worker process retries
    /// and backs off under the policy of its own config.
    pub policy: FleetPolicy,
    /// Mode used when a request omits `mode`.
    pub default_mode: Mode,
    /// Seed used when a request omits `seed`.
    pub default_seed: u64,
    /// Most client connections served at once (at least 1). A
    /// connection accepted at the cap gets one `too many connections`
    /// error line and is closed.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            parse_workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            cache_shards: 8,
            cache_dir: None,
            spill_dir: None,
            policy: FleetPolicy::default(),
            default_mode: Mode::LoopProfile,
            default_seed: 2015,
            max_connections: 256,
        }
    }
}

/// One admitted unit of work awaiting the parse stage: a self-contained
/// wire-format job spec (also the spill payload), whether the client
/// asked for the streaming protocol, and where to send frames. Replayed
/// spill jobs have no reply channel — their results go to the cache
/// only.
struct QueuedJob {
    wire: String,
    stream: bool,
    reply: Option<mpsc::Sender<Frame>>,
}

/// A job past the parse stage, holding a slot in the bounded exec
/// queue: the admitted job (whose spec is the line shipped to the worker
/// process) and its resolution.
struct ExecJob {
    queued: QueuedJob,
    prepared: PreparedJob,
}

/// A client parked on a spilled job: its frame channel plus whether it
/// asked for the streaming protocol.
struct Waiter {
    reply: mpsc::Sender<Frame>,
    stream: bool,
}

/// Queue state under the mutex: the bounded admission ring, the
/// stage-1→stage-2 handoff queue, the disk-backed overflow, reply
/// channels for spilled jobs (keyed by spill seq), and the
/// open/draining latch.
struct QueueState {
    memory: VecDeque<QueuedJob>,
    /// Parsed jobs waiting for an interp slot, bounded by
    /// `queue_capacity` (parse workers block while it is full, so the
    /// front stage cannot run unboundedly ahead of the back stage).
    exec: VecDeque<ExecJob>,
    /// Jobs currently inside the parse stage (popped from the ring or
    /// spill but not yet in `exec`): exec workers must not exit during
    /// drain while this is non-zero.
    parsing: usize,
    spill: Option<SpillQueue>,
    /// True when the spill directory was operator-chosen (backlog
    /// survives restarts); false for the ephemeral default.
    spill_persistent: bool,
    waiters: HashMap<u64, Waiter>,
    /// False once drain begins: workers exit when the ring is empty.
    open: bool,
}

/// Everything shared between the accept loop, connection handlers, and
/// workers.
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    cache: ShardedCache,
    counters: Mutex<ServeCounters>,
    draining: AtomicBool,
    config: ServeConfig,
    resolver: Resolver,
    spec: WorkerSpec,
    addr: SocketAddr,
}

/// Poison-proof lock (a panicking thread must not wedge the server).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn bump(&self, f: impl FnOnce(&mut ServeCounters)) {
        f(&mut relock(&self.counters));
    }
}

/// Handle to a running server: the bound address plus the threads to
/// join. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] or send a `shutdown` op.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A cheap, cloneable, `Send` drain trigger split off a
/// [`ServerHandle`], for signal watchers and other threads that must be
/// able to start a graceful drain while the main thread blocks in
/// [`ServerHandle::join`].
#[derive(Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Begin a graceful drain (idempotent; returns immediately).
    pub fn request_drain(&self) {
        begin_drain(&self.shared);
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Snapshot of the serving counters.
    pub fn counters(&self) -> ServeCounters {
        *relock(&self.shared.counters)
    }

    /// Begin a graceful drain without blocking (safe from a signal
    /// watcher thread); pair with [`ServerHandle::join`].
    pub fn request_drain(&self) {
        begin_drain(&self.shared);
    }

    /// Split off a cloneable [`DrainHandle`] for another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Begin a graceful drain and wait for it to complete: stop
    /// accepting, reject new analyze requests, finish in-flight work,
    /// flush the queued tail to the spill file, then join all threads.
    pub fn shutdown(mut self) {
        begin_drain(&self.shared);
        self.join_threads();
    }

    /// Wait until a client-initiated `shutdown` op (or
    /// [`ServerHandle::request_drain`]) drains the server.
    pub fn join(mut self) -> ServeCounters {
        self.join_threads();
        *relock(&self.shared.counters)
    }

    fn join_threads(&mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Flip the server into draining mode: latch the flag, close the queue,
/// flush the unstarted tail to the spill file (answering those clients
/// explicitly — accepted jobs are never silently dropped), and poke the
/// accept loop awake with a throwaway self-connection.
fn begin_drain(shared: &Arc<Shared>) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    let mut flushed = 0u64;
    {
        let mut q = relock(&shared.queue);
        q.open = false;
        let persistent = q.spill_persistent;
        let tail: Vec<QueuedJob> = q.memory.drain(..).collect();
        for job in tail {
            let persisted = match q.spill.as_mut() {
                Some(spill) => spill.push(&job.wire).is_ok(),
                None => false,
            };
            if persisted {
                flushed += 1;
            }
            if let Some(reply) = job.reply {
                if job.stream {
                    let _ = reply.send(Frame::Notice {
                        notice: "draining: flushing the queued tail".to_string(),
                    });
                }
                let _ = reply.send(Frame::Error {
                    fragment: drain_flush_fragment(persisted && persistent),
                });
            }
        }
        // Jobs already spilled stay in the segment file; answer their
        // waiting clients the same way. Jobs already past the parse
        // stage (the exec queue) count as started: they run to
        // completion and answer normally.
        let waiters: Vec<Waiter> = q.waiters.drain().map(|(_, w)| w).collect();
        for w in waiters {
            if w.stream {
                let _ = w.reply.send(Frame::Notice {
                    notice: "draining: flushing the queued tail".to_string(),
                });
            }
            let _ = w.reply.send(Frame::Error {
                fragment: drain_flush_fragment(persistent),
            });
        }
    }
    shared.bump(|c| c.jobs_flushed_on_drain += flushed);
    shared.available.notify_all();
    // Unblock `accept()`; the loop re-checks `draining` per connection.
    let _ = TcpStream::connect(shared.addr);
}

/// The explicit answer a queued-but-unstarted client gets at drain time.
fn drain_flush_fragment(persisted: bool) -> String {
    if persisted {
        error_fragment(
            "draining: job flushed to the spill queue; it will run after \
             restart — retry then for a cache hit",
        )
    } else {
        error_fragment("draining: job not started; retry")
    }
}

/// Start serving on `listener` (bind it yourself; `127.0.0.1:0` works
/// for tests). Spawns the accept loop, the parse stage, and
/// `config.workers` exec threads — each owning one worker process
/// started from `spec` — then returns immediately. A persistent spill
/// directory with a backlog is replayed immediately: those jobs run and
/// their results land in the cache, so the clients that lost them can
/// retry into warm hits.
pub fn serve(
    listener: TcpListener,
    config: ServeConfig,
    resolver: Resolver,
    spec: WorkerSpec,
) -> ServerHandle {
    let addr = listener.local_addr().expect("listener has a local addr");
    let cache = ShardedCache::open(
        config.cache_capacity,
        config.cache_shards,
        config.cache_dir.as_deref(),
    )
    .unwrap_or_else(|e| {
        eprintln!(
            "jsceresd: cache dir {} unusable ({e}); falling back to memory-only cache",
            config
                .cache_dir
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        );
        ShardedCache::open(config.cache_capacity, config.cache_shards, None)
            .expect("memory-only cache cannot fail")
    });
    let spill_persistent = config.spill_dir.is_some();
    let spill_path = config
        .spill_dir
        .clone()
        .unwrap_or_else(|| crate::spill::ephemeral_dir("spill"));
    let spill = match SpillQueue::open(&spill_path, !spill_persistent) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!(
                "jsceresd: spill dir {} unusable ({e}); falling back to reject-at-bound admission",
                spill_path.display()
            );
            None
        }
    };
    let replayed = spill.as_ref().map(|s| s.stats().replayed).unwrap_or(0);

    let shared = Arc::new(Shared {
        queue: Mutex::new(QueueState {
            memory: VecDeque::new(),
            exec: VecDeque::new(),
            parsing: 0,
            spill,
            spill_persistent,
            waiters: HashMap::new(),
            open: true,
        }),
        available: Condvar::new(),
        cache,
        counters: Mutex::new(ServeCounters {
            spill_replayed: replayed,
            ..ServeCounters::default()
        }),
        draining: AtomicBool::new(false),
        config: config.clone(),
        resolver,
        spec,
        addr,
    });

    let mut workers: Vec<_> = (0..config.workers.max(1))
        .map(|worker_id| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("jsceresd-worker-{worker_id}"))
                .spawn(move || exec_loop(&shared))
                .expect("spawn worker")
        })
        .collect();
    for parse_id in 0..config.parse_workers.max(1) {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("jsceresd-parse-{parse_id}"))
                .spawn(move || parse_loop(&shared))
                .expect("spawn parse worker"),
        );
    }

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("jsceresd-accept".to_string())
            .spawn(move || accept_loop(listener, &shared))
            .expect("spawn accept loop")
    };

    // If a replayed backlog is waiting, wake the workers for it.
    if replayed > 0 {
        shared.available.notify_all();
    }

    ServerHandle {
        shared,
        accept: Some(accept),
        workers,
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut handlers = Vec::new();
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Forget handlers whose connection already ended, so the list
        // tracks live connections rather than every one ever accepted.
        handlers.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
        if handlers.len() >= shared.config.max_connections.max(1) {
            // At the cap: refuse before reading anything, then hang up.
            let _ = write_line(&mut stream, &error_line("", "too many connections"));
            continue;
        }
        let shared = Arc::clone(shared);
        if let Ok(h) = std::thread::Builder::new()
            .name("jsceresd-conn".to_string())
            .spawn(move || handle_connection(stream, &shared))
        {
            handlers.push(h);
        }
    }
    // Drain: wait for every connection handler to write its last
    // response and hang up (their read loops poll `draining`).
    for h in handlers {
        let _ = h.join();
    }
}

/// Pull the next admitted job into the parse stage: the in-memory ring
/// first, then the spill file (strict FIFO — arrivals go to the spill
/// whenever it is non-empty, so ring-then-spill pop order preserves
/// admission order). Bumps `parsing` so exec workers know a job is in
/// flight between the queues.
fn next_job(shared: &Arc<Shared>) -> Option<QueuedJob> {
    let mut q = relock(&shared.queue);
    loop {
        if let Some(job) = q.memory.pop_front() {
            q.parsing += 1;
            return Some(job);
        }
        if !q.open {
            return None;
        }
        if let Some(spill) = q.spill.as_mut() {
            if let Some((seq, wire)) = spill.pop() {
                let (reply, stream) = match q.waiters.remove(&seq) {
                    Some(w) => (Some(w.reply), w.stream),
                    None => (None, false),
                };
                q.parsing += 1;
                return Some(QueuedJob {
                    wire,
                    stream,
                    reply,
                });
            }
        }
        q = shared
            .available
            .wait(q)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Pipeline stage 1 (one thread of the parse pool): pull admitted jobs
/// and run [`stage_parse`] on each. Exits when the queue closes and the
/// ring is empty.
fn parse_loop(shared: &Arc<Shared>) {
    while let Some(item) = next_job(shared) {
        stage_parse(shared, item);
        // This parse slot is free: wake exec workers (their drain exit
        // condition watches `parsing`) and anything else blocked on the
        // queues.
        relock(&shared.queue).parsing -= 1;
        shared.available.notify_all();
    }
}

/// Resolve one job and run its parse/rewrite front half, then hand it
/// to the exec queue — or fail it here, before it can occupy an interp
/// slot. Streaming jobs get their early `phase` frames from this stage;
/// an unparseable streaming job is rejected with a terminal `error`
/// without ever touching the back stage.
fn stage_parse(shared: &Arc<Shared>, item: QueuedJob) {
    // The spec was validated at admission; a failure here is replay-era
    // drift, e.g. a registry app renamed between restarts.
    let prepared = match resolve_job_line(&item.wire, &shared.config, &shared.resolver) {
        Ok((p, _)) => p,
        Err(e) => {
            shared.bump(|c| c.jobs_failed += 1);
            if let Some(reply) = item.reply {
                let _ = reply.send(Frame::Error {
                    fragment: error_fragment(&e),
                });
            }
            return;
        }
    };
    // One-shot jobs skip the front half (the exec stage re-parses
    // internally anyway, and their failure bytes must stay identical to
    // the pre-pipeline server); streaming jobs pay a second parse and
    // rewrite to get early frames and early rejection. At about 11 KB/ms
    // of parse that is some 15 ms for a ≈100 KB library source (see
    // `pipeline::prepare_source`).
    if item.stream {
        match crate::pipeline::prepare_source(&prepared.source, prepared.opts.mode) {
            Ok(front) => {
                if let Some(reply) = &item.reply {
                    for span in &front.spans {
                        let _ = reply.send(Frame::Phase {
                            phase: span.phase.clone(),
                            start_ticks: span.start_ticks,
                            end_ticks: span.end_ticks,
                        });
                    }
                }
            }
            Err(e) => {
                shared.bump(|c| c.jobs_failed += 1);
                if let Some(reply) = item.reply {
                    let _ = reply.send(Frame::Error {
                        fragment: prepared.failure("failed", 0, &e),
                    });
                }
                return;
            }
        }
    }
    enqueue_exec(
        shared,
        ExecJob {
            queued: item,
            prepared,
        },
    );
}

/// Hand a parsed job to the exec queue, blocking while it is at
/// capacity (backpressure: the parse stage cannot run unboundedly ahead
/// of the interp stage). During drain the bound is waived so in-flight
/// parses always land.
fn enqueue_exec(shared: &Arc<Shared>, job: ExecJob) {
    let mut q = relock(&shared.queue);
    while q.open && q.exec.len() >= shared.config.queue_capacity {
        q = shared
            .available
            .wait(q)
            .unwrap_or_else(PoisonError::into_inner);
    }
    q.exec.push_back(job);
    drop(q);
    shared.available.notify_all();
}

/// Pull the next parsed job for an interp slot. During drain, exec
/// workers outlive the parse stage until it has fully flushed into the
/// exec queue — a job past admission is never silently dropped.
fn next_exec_job(shared: &Arc<Shared>) -> Option<ExecJob> {
    let mut q = relock(&shared.queue);
    loop {
        if let Some(job) = q.exec.pop_front() {
            drop(q);
            // A capacity slot opened: wake blocked parse workers.
            shared.available.notify_all();
            return Some(job);
        }
        if !q.open && q.parsing == 0 && q.memory.is_empty() {
            return None;
        }
        q = shared
            .available
            .wait(q)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Pipeline stage 2 (one thread per interp slot): run parsed jobs on
/// this slot's worker process and send each client its terminal frame.
fn exec_loop(shared: &Arc<Shared>) {
    let mut slot = WorkerSlot::new(shared.spec.clone());
    while let Some(ExecJob { queued, prepared }) = next_exec_job(shared) {
        let (ok, fragment, ticks) = execute_job(shared, &mut slot, &queued, &prepared);
        shared.bump(|c| {
            c.interp_ticks += ticks;
            if ok {
                c.jobs_ok += 1;
            } else {
                c.jobs_failed += 1;
            }
        });
        if let Some(reply) = &queued.reply {
            let frame = if ok {
                Frame::Result {
                    ok: true,
                    cached: false,
                    fragment,
                }
            } else {
                Frame::Error { fragment }
            };
            let _ = reply.send(frame);
        }
    }
    slot.shutdown();
}

/// Ship one parsed job's line to this slot's worker process (a dead
/// worker is restarted with bounded backoff), forwarding its frame
/// lines to a streaming client, and return `(ok, fragment, ticks)` with
/// the fragment already deduplicated through the cache
/// (first-writer-wins) when cacheable.
fn execute_job(
    shared: &Arc<Shared>,
    slot: &mut WorkerSlot,
    job: &QueuedJob,
    prepared: &PreparedJob,
) -> (bool, String, u64) {
    let (outcome, restarts) = slot.run(&job.wire, &mut |frame| {
        if let (true, Some(reply)) = (job.stream, &job.reply) {
            let _ = reply.send(frame);
        }
    });
    if restarts > 0 {
        shared.bump(|c| c.worker_restarts += restarts);
    }
    let (ok, fragment, ticks) = match outcome {
        SlotOutcome::Done(resp) => (resp.ok, resp.fragment, resp.ticks),
        SlotOutcome::Crashed { attempts } => (
            false,
            prepared.failure(
                "worker-crashed",
                attempts,
                "worker process died while running this job; a fresh worker was started",
            ),
            0,
        ),
        SlotOutcome::Unavailable(e) => (false, prepared.failure("failed", 0, &e), 0),
    };
    let fragment = if ok && prepared.cacheable {
        // First-writer-wins: concurrent cold misses on the same key
        // converge on one stored byte sequence (and, with persistence
        // on, one write-through line).
        shared.cache.insert_or_get(&prepared.key, fragment)
    } else {
        fragment
    };
    (ok, fragment, ticks)
}

/// Serve one connection: read request lines and answer each. A line
/// may arrive in pieces across any number of read-poll timeouts; the
/// bytes read so far are kept, and the line is decoded only once its
/// newline (or the client's EOF) arrives. A line longer than
/// [`MAX_REQUEST_LINE`] is answered with `request too large`, and the
/// connection is closed.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Every reply line and frame is flushed on purpose as one write, so
    // Nagle's algorithm could only hold a stream's next frame back.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // One byte past the cap is enough to tell an oversized line.
        let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        let n = match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle poll: once draining, stop waiting for more input.
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        if line.is_empty() {
            return; // client hung up
        }
        if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            let too_large = format!("request too large: over {MAX_REQUEST_LINE} bytes");
            let _ = write_line(&mut writer, &error_line("", &too_large));
            return;
        }
        let answered = match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => Ok(()),
            Ok(text) => handle_line(text, shared, &mut writer),
            Err(_) => write_line(
                &mut writer,
                &error_line("", "bad request: line is not valid UTF-8"),
            ),
        };
        line.clear();
        // `n == 0`: EOF right after a partial line that has now been
        // answered.
        if answered.is_err() || n == 0 {
            return;
        }
    }
}

/// Write one wire line and flush it, so a streaming client can act on
/// each frame as it lands. The line and its newline leave from one
/// buffer in a single `write_all`; every line-delimited writer of the
/// serving stack (client replies and frames, the supervisor's job line
/// to a worker, a worker's lines back) goes through here. A separate
/// newline write would be the write-write-read pattern: on a socket,
/// Nagle's algorithm holds the lone newline until the peer ACKs the
/// line, and the peer delays that ACK (~40 ms) because it has no whole
/// line to answer yet.
pub(crate) fn write_line(out: &mut (impl Write + ?Sized), line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    out.write_all(&buf)?;
    out.flush()
}

/// Dispatch one request line, writing one response line — or, for a
/// streaming analyze, a frame sequence — to `out`. Non-analyze ops are
/// one-shot by nature and always answer at [`ONESHOT_SCHEMA_VERSION`].
fn handle_line(line: &str, shared: &Arc<Shared>, out: &mut dyn Write) -> std::io::Result<()> {
    let req: AnalysisRequest = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => return write_line(out, &error_line("", &format!("bad request: {e}"))),
    };
    let id = req.id.clone().unwrap_or_default();
    let response = match req.op.as_deref().unwrap_or("analyze") {
        "ping" => envelope(&id, true, false, fragment(fields(&Ping { op: "ping" }))),
        "stats" => envelope(&id, true, false, fragment(fields(&stats(shared)))),
        "shutdown" => {
            begin_drain(shared);
            let reply = Shutdown {
                op: "shutdown",
                draining: true,
            };
            envelope(&id, true, false, fragment(fields(&reply)))
        }
        "analyze" => return handle_analyze(&req, &id, shared, out),
        other => error_line(&id, &format!("unknown op `{other}`")),
    };
    write_line(out, &response)
}

/// The payload of a `ping` reply.
#[derive(Serialize)]
struct Ping {
    op: &'static str,
}

/// The payload of a `shutdown` reply.
#[derive(Serialize)]
struct Shutdown {
    op: &'static str,
    draining: bool,
}

/// The payload of a `stats` reply, at [`SERVE_STATS_SCHEMA`] (see
/// `docs/METRICS.md`).
#[derive(Serialize)]
struct Stats {
    op: &'static str,
    stats_schema: u32,
    counters: ServeCounters,
    cache: CacheView,
    queue_depth: usize,
    exec_depth: usize,
    spill: Option<SpillStats>,
    workers: usize,
    backend: &'static str,
    draining: bool,
}

/// The `cache` block of [`Stats`]: the aggregate traffic, the
/// persistence counters, then one row per shard.
#[derive(Serialize)]
struct CacheView {
    hits: u64,
    misses: u64,
    evictions: u64,
    len: usize,
    capacity: usize,
    shards: usize,
    persistent: bool,
    loaded: u64,
    load_corrupt: u64,
    persisted: u64,
    per_shard: Vec<ShardView>,
}

/// One shard's traffic in [`CacheView`].
#[derive(Serialize)]
struct ShardView {
    hits: u64,
    misses: u64,
    evictions: u64,
    len: usize,
}

fn stats(shared: &Arc<Shared>) -> Stats {
    let cache = shared.cache.stats();
    let mut counters = *relock(&shared.counters);
    // The eviction odometer lives in the cache shards; mirror the
    // aggregate into the counters snapshot for one-stop scraping.
    counters.cache_evictions = cache.total.evictions;
    let q = relock(&shared.queue);
    Stats {
        op: "stats",
        stats_schema: SERVE_STATS_SCHEMA,
        counters,
        cache: CacheView {
            hits: cache.total.hits,
            misses: cache.total.misses,
            evictions: cache.total.evictions,
            len: cache.total.len,
            capacity: cache.total.capacity,
            shards: cache.shards.len(),
            persistent: cache.persistent,
            loaded: cache.loaded,
            load_corrupt: cache.load_corrupt,
            persisted: cache.persisted,
            per_shard: cache
                .shards
                .iter()
                .map(|s| ShardView {
                    hits: s.hits,
                    misses: s.misses,
                    evictions: s.evictions,
                    len: s.len,
                })
                .collect(),
        },
        queue_depth: q.memory.len(),
        exec_depth: q.exec.len(),
        spill: q.spill.as_ref().map(SpillQueue::stats),
        workers: shared.config.workers,
        backend: "process",
        draining: shared.draining.load(Ordering::SeqCst),
    }
}

/// Writes the frames of one analyze response, stamping `seq` at write
/// time — the stamp and the write are one step on this thread, so the
/// sequence a client observes is gapless and monotonic no matter how
/// the stages interleaved behind the channel. Each non-terminal frame
/// is counted in `frames_streamed` before it is written, so a client
/// that has read its terminal frame never sees a stale count.
struct FrameWriter<'a> {
    out: &'a mut dyn Write,
    shared: &'a Shared,
    schema: u32,
    id: &'a str,
    seq: u64,
}

impl FrameWriter<'_> {
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.seq += 1;
        if !frame.is_terminal() {
            self.shared.bump(|c| c.frames_streamed += 1);
        }
        write_line(
            self.out,
            &render_frame(self.schema, self.id, self.seq, frame),
        )
    }
}

/// How admission classified one analyze request.
enum Admitted {
    Ring(u64),
    Spilled(u64),
    Rejected(String),
}

fn handle_analyze(
    req: &AnalysisRequest,
    id: &str,
    shared: &Arc<Shared>,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let stream_mode = req.stream.unwrap_or(false);
    let schema = if stream_mode {
        API_SCHEMA_VERSION
    } else {
        ONESHOT_SCHEMA_VERSION
    };
    let mut fw = FrameWriter {
        out,
        shared,
        schema,
        id,
        seq: 0,
    };

    let prepared = match resolve_request(req, &shared.config, &shared.resolver) {
        Ok(p) => p,
        Err(e) => {
            return fw.send(&Frame::Error {
                fragment: error_fragment(&e),
            })
        }
    };
    shared.bump(|c| {
        c.requests += 1;
        if stream_mode {
            c.streams += 1;
        }
    });

    // Fault-injected requests bypass the cache in both directions: a hit
    // would skip the very supervisor path the injection exists to
    // exercise, and storing the result would leak injection artifacts.
    if prepared.cacheable {
        if let Some(fragment) = shared.cache.lookup(&prepared.key) {
            shared.bump(|c| c.cache_hits += 1);
            // A warm hit needs no pipeline: the stream collapses to its
            // terminal frame (`accepted` always implies real work).
            return fw.send(&Frame::Result {
                ok: true,
                cached: true,
                fragment,
            });
        }
        shared.bump(|c| c.cache_misses += 1);
    }

    if shared.draining.load(Ordering::SeqCst) {
        shared.bump(|c| c.rejected_draining += 1);
        return fw.send(&Frame::Error {
            fragment: error_fragment("draining: not accepting new work"),
        });
    }

    let wire = request_wire_json(req, &prepared.opts);
    let (tx, rx) = mpsc::channel();
    let admitted = {
        let mut q = relock(&shared.queue);
        if !q.open {
            drop(q);
            shared.bump(|c| c.rejected_draining += 1);
            return fw.send(&Frame::Error {
                fragment: error_fragment("draining: not accepting new work"),
            });
        }
        // Strict FIFO admission: once anything is on disk, new arrivals
        // queue behind it.
        let spill_busy = q.spill.as_ref().map(|s| !s.is_empty()).unwrap_or(false);
        if q.memory.len() >= shared.config.queue_capacity || spill_busy {
            let pushed = q
                .spill
                .as_mut()
                .map(|spill| spill.push(&wire).map(|seq| (seq, spill.len() as u64)));
            match pushed {
                Some(Ok((seq, depth))) => {
                    q.waiters.insert(
                        seq,
                        Waiter {
                            reply: tx,
                            stream: stream_mode,
                        },
                    );
                    drop(q);
                    shared.bump(|c| {
                        c.jobs_spilled += 1;
                        c.spill_peak_depth = c.spill_peak_depth.max(depth);
                        if stream_mode {
                            c.spill_notices += 1;
                        }
                    });
                    Admitted::Spilled(depth)
                }
                Some(Err(e)) => {
                    drop(q);
                    Admitted::Rejected(format!(
                        "queue full and spill write failed ({e}): retry later"
                    ))
                }
                None => {
                    drop(q);
                    Admitted::Rejected("queue full: retry later".to_string())
                }
            }
        } else {
            q.memory.push_back(QueuedJob {
                wire,
                stream: stream_mode,
                reply: Some(tx),
            });
            let depth = q.memory.len() as u64;
            drop(q);
            shared.bump(|c| c.queue_peak_depth = c.queue_peak_depth.max(depth));
            Admitted::Ring(depth)
        }
    };
    shared.available.notify_all();

    match admitted {
        Admitted::Rejected(e) => {
            shared.bump(|c| c.rejected_queue_full += 1);
            return fw.send(&Frame::Error {
                fragment: error_fragment(&e),
            });
        }
        Admitted::Ring(depth) => {
            if stream_mode {
                fw.send(&Frame::Accepted { queue_depth: depth })?;
            }
        }
        Admitted::Spilled(depth) => {
            // The spill-time notice (not just at drain): a streaming
            // client learns immediately that its job went to disk.
            if stream_mode {
                fw.send(&Frame::Accepted {
                    queue_depth: shared.config.queue_capacity as u64 + depth,
                })?;
                fw.send(&Frame::Notice {
                    notice: format!(
                        "job spilled to disk at depth {depth}; it runs in \
                         admission order behind the in-memory ring"
                    ),
                })?;
            }
        }
    }

    loop {
        match rx.recv() {
            Ok(frame) => {
                let terminal = frame.is_terminal();
                if stream_mode || terminal {
                    fw.send(&frame)?;
                }
                if terminal {
                    break;
                }
            }
            Err(_) => {
                fw.send(&Frame::Error {
                    fragment: error_fragment("worker exited before finishing the job"),
                })?;
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// A server for wire-level tests. The resolver refuses every job, so
    /// no request here ever reaches a worker process and the spec names
    /// none; job execution is tested against real workers in the
    /// integration tests.
    fn start_wire_only() -> ServerHandle {
        start_wire_only_with(ServeConfig::default())
    }

    /// [`start_wire_only`] under the given configuration.
    fn start_wire_only_with(config: ServeConfig) -> ServerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let resolver: Resolver = Arc::new(|_, _| Err("wire-level test server runs no jobs".into()));
        let spec = WorkerSpec {
            program: PathBuf::from("/nonexistent/jsceresd-worker"),
            args: Vec::new(),
        };
        serve(listener, config, resolver, spec)
    }

    /// Set in the environment of the worker processes [`start`] spawns;
    /// it turns [`worker_process_entry`] into a worker loop.
    const TEST_WORKER_ENV: &str = "CERES_SERVE_TEST_WORKER";

    /// Raw-source requests only, with fault injection — the test server
    /// and its worker processes both resolve through this.
    fn inline_resolver(policy: FleetPolicy) -> Resolver {
        Arc::new(move |req, opts| {
            let source = req
                .source
                .clone()
                .ok_or_else(|| "test server needs `source`".to_string())?;
            let slug = "inline".to_string();
            let mut work = source_work(
                "inline".to_string(),
                slug.clone(),
                source.clone(),
                opts.clone(),
            );
            if let Some(kind) = &req.inject {
                work = inject_fault(kind, &slug, &policy, work)?;
            }
            Ok(ResolvedJob {
                app: "inline".to_string(),
                slug,
                source,
                work,
                cacheable: req.inject.is_none(),
            })
        })
    }

    /// Worker processes for the job tests: this test binary, re-run
    /// through `sh` with only [`worker_process_entry`] selected. The
    /// shell points fd 3 at the supervisor's pipe and fd 1 at
    /// `/dev/null`, so the test harness's own output never reaches the
    /// worker protocol.
    fn self_worker_spec() -> WorkerSpec {
        let exe = std::env::current_exe().expect("test binary path");
        WorkerSpec {
            program: PathBuf::from("/bin/sh"),
            args: vec![
                "-c".to_string(),
                format!("export {TEST_WORKER_ENV}=1; exec \"$0\" \"$@\" 3>&1 >/dev/null"),
                exe.to_str().expect("UTF-8 test binary path").to_string(),
                "serve::tests::worker_process_entry".to_string(),
                "--exact".to_string(),
                "--nocapture".to_string(),
                "--test-threads=1".to_string(),
            ],
        }
    }

    /// A server whose jobs run in worker processes from
    /// [`self_worker_spec`].
    fn start(config: ServeConfig) -> ServerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let resolver = inline_resolver(config.policy.clone());
        serve(listener, config, resolver, self_worker_spec())
    }

    /// The worker loop of the processes [`self_worker_spec`] starts; a
    /// no-op in an ordinary test run. Moves the supervisor's pipe from
    /// fd 3 onto stdout, serves jobs until stdin closes, then exits
    /// before the test harness can print its summary.
    #[test]
    fn worker_process_entry() {
        if std::env::var_os(TEST_WORKER_ENV).is_none() {
            return;
        }
        extern "C" {
            fn dup2(oldfd: i32, newfd: i32) -> i32;
        }
        // SAFETY: plain libc call on descriptors the shell set up; no Rust
        // object owns fd 3, and stdout is flushed per line by the loop.
        if unsafe { dup2(3, 1) } != 1 {
            eprintln!("worker_process_entry: cannot move fd 3 onto stdout");
            std::process::exit(2);
        }
        let config = ServeConfig::default();
        let resolver = inline_resolver(config.policy.clone());
        let served = crate::supervisor::worker_serve_stdio(&config, &resolver);
        if let Err(e) = &served {
            eprintln!("worker_process_entry: {e}");
        }
        std::process::exit(i32::from(served.is_err()));
    }

    /// Everything after the request-specific prefix (`id`/`cached` differ
    /// between cold and warm by design; the result payload must not).
    fn payload_tail(response: &str) -> &str {
        &response[response.find("\"key\":").expect("key field")..]
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        (stream, reader)
    }

    fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        response.trim_end().to_string()
    }

    fn roundtrip(addr: SocketAddr, line: &str) -> String {
        let (mut stream, mut reader) = connect(addr);
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        read_reply(&mut reader)
    }

    /// Send a request line in two writes with a pause past the server's
    /// read poll between them, as a slow client would, and read the reply.
    fn split_roundtrip(addr: SocketAddr, first: &[u8], rest: &[u8]) -> String {
        let (mut stream, mut reader) = connect(addr);
        stream.write_all(first).expect("send first part");
        std::thread::sleep(READ_POLL * 2 + Duration::from_millis(100));
        stream.write_all(rest).expect("send rest");
        read_reply(&mut reader)
    }

    #[test]
    fn ping_and_unknown_op() {
        let server = start_wire_only();
        let addr = server.local_addr();
        let pong = roundtrip(addr, r#"{"op":"ping","id":"p1"}"#);
        assert!(pong.contains("\"ok\":true"), "{pong}");
        assert!(pong.contains("\"id\":\"p1\""), "{pong}");
        assert!(
            pong.contains(&format!("\"schema\":{ONESHOT_SCHEMA_VERSION}")),
            "{pong}"
        );
        let bad = roundtrip(addr, r#"{"op":"never"}"#);
        assert!(bad.contains("\"ok\":false"), "{bad}");
        server.shutdown();
    }

    #[test]
    fn malformed_line_is_an_error_not_a_crash() {
        let server = start_wire_only();
        let addr = server.local_addr();
        let resp = roundtrip(addr, "this is not json");
        assert!(resp.contains("bad request"), "{resp}");
        // The server is still alive.
        let pong = roundtrip(addr, r#"{"op":"ping"}"#);
        assert!(pong.contains("\"ok\":true"), "{pong}");
        server.shutdown();
    }

    #[test]
    fn warm_hit_is_byte_identical_and_adds_no_ticks() {
        let server = start(ServeConfig::default());
        let addr = server.local_addr();
        let req = r#"{"id":"c","source":"var t = 0; for (var i = 0; i < 8; i++) { t += i; }","mode":"dependence","seed":7}"#;
        let cold = roundtrip(addr, req);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(cold.contains("\"cached\":false"), "{cold}");
        let ticks_after_cold = server.counters().interp_ticks;
        assert!(ticks_after_cold > 0, "cold run must interpret");

        let warm = roundtrip(addr, req);
        assert!(warm.contains("\"cached\":true"), "{warm}");
        assert_eq!(
            payload_tail(&cold),
            payload_tail(&warm),
            "payload must be byte-identical"
        );
        assert_eq!(
            server.counters().interp_ticks,
            ticks_after_cold,
            "warm hit must not re-enter the interpreter"
        );
        assert_eq!(server.counters().cache_hits, 1);
        assert_eq!(server.counters().cache_misses, 1);
        server.shutdown();
    }

    #[test]
    fn concurrent_identical_requests_converge_on_one_payload() {
        let server = start(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let req = r#"{"source":"var s = 0; for (var i = 0; i < 5; i++) { s += i; }","mode":"dependence"}"#;
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || roundtrip(addr, req)))
            .collect();
        let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let first = payload_tail(&responses[0]);
        for r in &responses {
            assert!(r.contains("\"ok\":true"), "{r}");
            assert_eq!(
                payload_tail(r),
                first,
                "all clients must see identical payloads"
            );
        }
        server.shutdown();
    }

    #[test]
    fn overflow_spills_to_disk_and_every_client_still_gets_its_answer() {
        // A 1-worker, 2-slot ring with a burst of 8 jobs: at least some
        // must overflow to the spill file, and every client must still
        // get a real (non-rejected) response.
        let server = start(ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                // Distinct sources: no cache short-circuits.
                let req = format!(
                    r#"{{"id":"burst-{i}","source":"var b{i} = 0; for (var i = 0; i < {n}; i++) {{ b{i} += i; }}","mode":"dependence"}}"#,
                    n = 50 + i
                );
                std::thread::spawn(move || roundtrip(addr, &req))
            })
            .collect();
        for h in handles {
            let r = h.join().unwrap();
            assert!(r.contains("\"ok\":true"), "{r}");
            assert!(!r.contains("queue full"), "spill must absorb bursts: {r}");
        }
        let c = server.counters();
        assert!(
            c.jobs_spilled > 0,
            "burst of 8 into a ring of 2 must spill: {c:?}"
        );
        assert_eq!(c.jobs_ok, 8);
        assert_eq!(c.rejected_queue_full, 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_in_flight_work_and_rejects_new() {
        let server = start(ServeConfig::default());
        let addr = server.local_addr();

        // Park a slow-ish job, then shut down while it may still be
        // queued or running; its client must still get a definitive
        // answer (a result if it was in flight, an explicit drain notice
        // if it was still queued — never silence).
        let slow = std::thread::spawn(move || {
            roundtrip(
                addr,
                r#"{"id":"slow","source":"var t = 0; for (var i = 0; i < 2000; i++) { t += i; }"}"#,
            )
        });
        // Give the slow request a moment to enqueue before draining.
        std::thread::sleep(Duration::from_millis(50));
        let bye = roundtrip(addr, r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"draining\":true"), "{bye}");

        let slow_response = slow.join().unwrap();
        assert!(
            slow_response.contains("\"ok\":true") || slow_response.contains("draining"),
            "in-flight client must get a definitive answer: {slow_response}"
        );
        let counters = server.join();
        // New connections are refused or reset after the drain; either
        // way the server threads have all exited by now.
        assert!(counters.requests >= 1);
    }

    /// A request line that arrives across a read-poll timeout is
    /// answered as the whole line, not as its tail.
    #[test]
    fn request_split_across_read_polls_is_answered_whole() {
        let server = start_wire_only();
        let reply = split_roundtrip(
            server.local_addr(),
            br#"{"id":"slow","op":"#,
            b"\"ping\"}\n",
        );
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"id\":\"slow\""), "{reply}");
        server.shutdown();
    }

    /// A multi-byte character split across a read-poll timeout is decoded
    /// once the line is whole; a line that is not UTF-8 at all gets a
    /// `bad request` reply and the connection stays usable.
    #[test]
    fn utf8_split_across_read_polls_is_answered_whole() {
        let server = start_wire_only();
        let addr = server.local_addr();
        let reply = split_roundtrip(addr, b"{\"id\":\"caf\xc3", b"\xa9\",\"op\":\"ping\"}\n");
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"id\":\"caf\u{e9}\""), "{reply}");

        let (mut stream, mut reader) = connect(addr);
        stream.write_all(b"{\"op\":\"ping\xff\"}\n").expect("send");
        let bad = read_reply(&mut reader);
        assert!(bad.contains("\"ok\":false"), "{bad}");
        assert!(bad.contains("bad request"), "{bad}");
        stream.write_all(b"{\"op\":\"ping\"}\n").expect("send");
        let pong = read_reply(&mut reader);
        assert!(pong.contains("\"ok\":true"), "{pong}");
        server.shutdown();
    }

    /// A line of exactly [`MAX_REQUEST_LINE`] bytes is served; one byte
    /// more, with no newline in sight, gets one `request too large` reply
    /// and the connection is closed.
    #[test]
    fn request_line_over_the_cap_is_refused_and_closed() {
        let server = start_wire_only();
        let addr = server.local_addr();

        let ping = r#"{"op":"ping"}"#;
        let at_cap = format!("{ping}{}", " ".repeat(MAX_REQUEST_LINE - ping.len()));
        let pong = roundtrip(addr, &at_cap);
        assert!(pong.contains("\"ok\":true"), "{pong}");

        let (mut stream, mut reader) = connect(addr);
        stream
            .write_all(&vec![b'a'; MAX_REQUEST_LINE + 1])
            .expect("send");
        let refused = read_reply(&mut reader);
        assert!(refused.contains("\"ok\":false"), "{refused}");
        assert!(refused.contains("request too large"), "{refused}");
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).expect("read after refusal"),
            0,
            "connection must close after the refusal: {rest}"
        );
        server.shutdown();
    }

    /// Sequential pings on one connection, with default socket options on
    /// the client, answer far inside the ~40 ms delayed-ACK timer. A reply
    /// sent as two segments (the line, then its newline) would sit behind
    /// that timer: Nagle's algorithm holds the second segment until the
    /// client ACKs the first, and the client delays that ACK because it has
    /// no whole line to answer yet.
    #[test]
    fn pings_answer_under_the_delayed_ack_timer() {
        let server = start_wire_only();
        let (mut stream, mut reader) = connect(server.local_addr());
        let mut round_trips: Vec<Duration> = (0..20)
            .map(|i| {
                let sent = std::time::Instant::now();
                stream
                    .write_all(format!("{{\"op\":\"ping\",\"id\":\"p{i}\"}}\n").as_bytes())
                    .expect("send");
                let pong = read_reply(&mut reader);
                assert!(pong.contains("\"ok\":true"), "{pong}");
                sent.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(20),
            "median ping round trip {median:?} (all: {round_trips:?})"
        );
        server.shutdown();
    }

    /// A `Write` that counts `write` calls and keeps every byte.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The line helper and `FrameWriter::send` each hand a whole line,
    /// newline included, to exactly one `write` call.
    #[test]
    fn every_wire_line_leaves_in_one_write() {
        let mut out = CountingWriter::default();
        write_line(&mut out, r#"{"ok":true}"#).expect("write line");
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, b"{\"ok\":true}\n");

        let server = start_wire_only();
        let mut out = CountingWriter::default();
        let mut fw = FrameWriter {
            out: &mut out,
            shared: &server.shared,
            schema: API_SCHEMA_VERSION,
            id: "w",
            seq: 0,
        };
        fw.send(&Frame::Accepted { queue_depth: 0 })
            .expect("accepted");
        fw.send(&Frame::Error {
            fragment: error_fragment("refused"),
        })
        .expect("error");
        assert_eq!(out.writes, 2);
        let text = String::from_utf8(out.bytes).expect("utf-8");
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.ends_with('\n'), "{text}");
        server.shutdown();
    }

    /// With a cap of two connections, a third one gets one `too many
    /// connections` line and is closed; once a client hangs up, a new
    /// connection is served again.
    #[test]
    fn connections_over_the_cap_are_refused_until_one_ends() {
        let server = start_wire_only_with(ServeConfig {
            max_connections: 2,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let ping = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>| {
            stream.write_all(b"{\"op\":\"ping\"}\n")?;
            let mut reply = String::new();
            reader.read_line(&mut reply).map(|_| reply)
        };

        // A served ping proves each handler is live before the third
        // client connects.
        let (mut first, mut first_reader) = connect(addr);
        let (mut second, mut second_reader) = connect(addr);
        for (stream, reader) in [
            (&mut first, &mut first_reader),
            (&mut second, &mut second_reader),
        ] {
            let pong = ping(stream, reader).expect("ping under the cap");
            assert!(pong.contains("\"ok\":true"), "{pong}");
        }

        let (_third, mut third_reader) = connect(addr);
        let refused = read_reply(&mut third_reader);
        assert!(refused.contains("\"ok\":false"), "{refused}");
        assert!(refused.contains("too many connections"), "{refused}");
        let mut rest = String::new();
        assert_eq!(
            third_reader
                .read_line(&mut rest)
                .expect("read after refusal"),
            0,
            "connection must close after the refusal: {rest}"
        );

        // The first client hangs up. Its handler ends on its next read,
        // and the accept loop notices at the next accept, so retry a
        // little; a refused or reset attempt is simply tried again.
        drop((first, first_reader));
        let served = (0..50).any(|_| {
            let (mut stream, mut reader) = connect(addr);
            let answered =
                ping(&mut stream, &mut reader).is_ok_and(|reply| reply.contains("\"ok\":true"));
            if !answered {
                std::thread::sleep(Duration::from_millis(20));
            }
            answered
        });
        assert!(served, "a connection after a hang-up must be served");
        let pong = ping(&mut second, &mut second_reader).expect("ping");
        assert!(pong.contains("\"ok\":true"), "{pong}");
        server.shutdown();
    }

    #[test]
    fn stats_reports_the_current_schema_with_spill_and_shards() {
        let server = start_wire_only();
        let addr = server.local_addr();
        let stats = roundtrip(addr, r#"{"op":"stats","id":"s"}"#);
        assert!(
            stats.contains(&format!("\"stats_schema\":{SERVE_STATS_SCHEMA}")),
            "{stats}"
        );
        for field in [
            "\"worker_restarts\":0",
            "\"jobs_spilled\":0",
            "\"streams\":0",
            "\"frames_streamed\":0",
            "\"spill_notices\":0",
            "\"exec_depth\":0",
            "\"spill\":{\"depth\":0",
            "\"per_shard\":[",
            "\"backend\":\"process\"",
        ] {
            assert!(stats.contains(field), "missing {field}: {stats}");
        }
        server.shutdown();
    }

    #[test]
    fn request_wire_json_round_trips_and_pins_options() {
        let config = ServeConfig::default();
        let req: AnalysisRequest = serde_json::from_str(
            r#"{"id":"x","source":"var q = 1;","mode":"dep","scale":2,"inject":"error"}"#,
        )
        .unwrap();
        let opts = request_options(&req, &config).unwrap();
        let wire = request_wire_json(&req, &opts);
        // The wire spec drops request-identity fields and makes every
        // option explicit.
        assert!(wire.contains("\"id\":null"), "{wire}");
        assert!(wire.contains("\"mode\":\"dependence\""), "{wire}");
        assert!(
            wire.contains(&format!("\"seed\":{}", config.default_seed)),
            "{wire}"
        );
        assert!(wire.contains("\"scale\":2"), "{wire}");
        assert!(wire.contains("\"inject\":\"error\""), "{wire}");
        // And it round-trips through the ordinary request parser onto
        // the same cache key.
        let parsed: AnalysisRequest = serde_json::from_str(&wire).unwrap();
        assert_eq!((parsed.op.as_deref(), parsed.id.as_deref()), (None, None));
        let opts2 = request_options(&parsed, &config).unwrap();
        let k1 = CacheKey::of("var q = 1;", &opts, req.scale.unwrap_or(1));
        let k2 = CacheKey::of("var q = 1;", &opts2, parsed.scale.unwrap_or(1));
        assert_eq!(k1.fingerprint(), k2.fingerprint());
    }

    /// A job line in the shape spill segments had when absent options
    /// were omitted, not written as `null`, resolves to the same job as
    /// today's line for the same request: old segments still replay.
    #[test]
    fn omitted_field_job_lines_resolve_like_explicit_ones() {
        let config = ServeConfig::default();
        let resolver = inline_resolver(config.policy.clone());
        let cases = [
            (
                r#"{"source":"var s = \"a\tb\";","stream":true}"#,
                r#"{"source":"var s = \"a\tb\";","mode":"loop-profile","seed":2015,"max_events":10000,"stream":true}"#,
            ),
            (
                r#"{"id":"x","source":"var s = 1;","mode":"dep","seed":9}"#,
                r#"{"source":"var s = 1;","mode":"dependence","seed":9,"max_events":10000}"#,
            ),
        ];
        for (request, omitted) in cases {
            let req: AnalysisRequest = serde_json::from_str(request).unwrap();
            let explicit = request_wire_json(&req, &request_options(&req, &config).unwrap());
            assert!(explicit.contains("\"focus\":null"), "{explicit}");
            let (old, old_stream) = resolve_job_line(omitted, &config, &resolver).unwrap();
            let (new, new_stream) = resolve_job_line(&explicit, &config, &resolver).unwrap();
            assert_eq!(old.key, new.key, "{omitted} vs {explicit}");
            assert_eq!(old_stream, new_stream, "{omitted} vs {explicit}");
        }
    }

    /// An `id` holding characters JSON must escape comes back exactly, on
    /// a reply and on an error reply.
    #[test]
    fn ids_that_need_escaping_come_back_exactly() {
        let server = start_wire_only();
        let addr = server.local_addr();
        let id = "q\"b\\s\nn\tt\u{1}c\u{e9}";
        for (op, ok) in [("ping", true), ("never", false)] {
            let request = AnalysisRequest {
                op: Some(op.to_string()),
                id: Some(id.to_string()),
                ..AnalysisRequest::default()
            };
            let line = serde_json::to_string(&request).unwrap();
            let reply: serde_json::Value = serde_json::from_str(&roundtrip(addr, &line)).unwrap();
            assert_eq!(reply.get("id").and_then(|v| v.as_str()), Some(id), "{op}");
            assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(ok), "{op}");
        }
        server.shutdown();
    }
}
