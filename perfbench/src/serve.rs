//! The `serve-mix` workload: `jsceresd` on its default process backend
//! with two workers, driven over TCP by this one client process holding
//! two connections in a closed loop (each sends its next request only
//! after the previous reply ended). The request mix comes from
//! [`crate::gen::plan`], in rounds of [`ROUND_LEN`] requests, each round
//! against a fresh daemon.
//!
//! Also here: the serve-layer probe the traced fleet runs use, and the
//! in-process timings of the cache, frame renderer and worker slot.

use crate::calib::{Reference, NOMINAL_MS};
use crate::expected::Expected;
use crate::gen::{plan, Key, Planned, ROUND_LEN};
use crate::layers::{key_input, trace_pass, Input, Steps, Tracer};
use crate::metrics::{latency, EndToEnd, Outcome, PerLayer, ServeLayer};
use crate::stats::{median, percentile};
use crate::wire::{exchange, judge, Conn, Daemon, DaemonStats, Verdict};
use ceres_core::cache::{CacheKey, ShardedCache};
use ceres_core::fleet::{run_fleet_with, FleetJob, FleetPolicy};
use ceres_core::serve::{render_frame, AnalysisRequest, Frame};
use ceres_core::supervisor::{SlotOutcome, WorkerSlot, WorkerSpec};
use ceres_core::{AnalyzeOptions, Mode};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Connections the client holds.
const CONNECTIONS: usize = 2;
/// A run measures at least this many requests, however short.
const MIN_OPS: usize = 120;
/// Distinct cold keys of each kind in the traced layer pass.
const LAYER_KEYS: usize = 8;
/// Traced in-process passes over that source set.
const LAYER_PASSES: usize = 3;
/// `ping` round trips for `serve.ping_p50_ms`.
const PINGS: usize = 30;

/// Where a daemon started by this run keeps its temporary files.
pub struct Env {
    /// The `jsceresd` binary.
    pub daemon: PathBuf,
    /// Scratch directory inside the checkout.
    pub scratch: PathBuf,
}

impl Env {
    fn start(&self) -> Result<Daemon, String> {
        Daemon::start(&self.daemon, &self.scratch)
    }
}

/// One request as it went.
#[derive(Debug, Clone)]
pub struct Op {
    /// Position in the plan.
    pub index: usize,
    /// What was asked for.
    pub planned: Planned,
    /// How it ended.
    pub verdict: Verdict,
    /// Send → full reply, infinite when failed.
    pub latency_ms: f64,
    /// Send → last line read (or the error), failed or not.
    pub elapsed_ms: f64,
    /// Send → first frame (streamed, successful requests).
    pub first_frame_ms: Option<f64>,
    /// Streamed cold requests: admit, front, exec and tail gaps, ms.
    pub gaps: Option<[f64; 4]>,
    /// The terminal line (kept for the frame-render timing).
    pub terminal: Option<String>,
    /// When the reply ended.
    pub ended: Instant,
}

impl Op {
    fn cached(&self) -> bool {
        matches!(self.verdict, Verdict::Ok { cached: true })
    }
}

/// The operations a run reports as `attempted` and `failed`: every
/// request but the slow-client ones. Those are the split-line probe,
/// reported by [`split_line`]: at this commit each of them fails, and a
/// workload's operations must be ones that succeed.
fn operations(ops: &[Op]) -> (u64, u64) {
    let counted = || ops.iter().filter(|o| !o.planned.slow);
    (
        counted().count() as u64,
        counted().filter(|o| o.verdict.failed()).count() as u64,
    )
}

/// The split-line probe: slow-client requests sent and how many failed.
fn split_line(ops: &[Op]) -> (usize, usize) {
    let slow = || ops.iter().filter(|o| o.planned.slow);
    (
        slow().count(),
        slow().filter(|o| o.verdict.failed()).count(),
    )
}

/// Failed slow-client requests over those sent; 0 when none were sent.
fn split_line_fail_share(ops: &[Op]) -> f64 {
    let (sent, failed) = split_line(ops);
    crate::stats::fail_share(sent as u64, failed as u64)
}

fn gaps(sent: Instant, frames: &[crate::wire::Seen]) -> Option<[f64; 4]> {
    let at = |pat: &str| frames.iter().find(|f| f.line.contains(pat)).map(|f| f.at);
    let accepted = at("\"type\":\"accepted\"")?;
    let rewrite = at("\"phase\":\"rewrite\"")?;
    let partial = at("\"type\":\"partial\"")?;
    let end = frames.last()?.at;
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    Some([
        ms(sent, accepted),
        ms(accepted, rewrite),
        ms(rewrite, partial),
        ms(partial, end),
    ])
}

/// Send one planned request on `conn` and judge the reply.
fn one(conn: &mut Conn, index: usize, p: &Planned, expected: &Expected) -> Op {
    let id = format!("r{index}");
    let line = p.key.request_line(&id, p.stream);
    let (sent, frames, err) = exchange(conn, &line, p.slow, p.stream);
    let verdict = judge(
        &frames,
        err.as_deref(),
        p.stream,
        &id,
        &p.key.id(),
        expected,
    );
    let ended = frames.last().map(|f| f.at).unwrap_or_else(Instant::now);
    let ok = !verdict.failed();
    let ms = |t: Instant| t.saturating_duration_since(sent).as_secs_f64() * 1e3;
    Op {
        index,
        planned: p.clone(),
        latency_ms: if ok { ms(ended) } else { f64::INFINITY },
        elapsed_ms: ms(ended),
        first_frame_ms: frames.first().filter(|_| ok && p.stream).map(|f| ms(f.at)),
        gaps: if ok && p.stream {
            gaps(sent, &frames)
        } else {
            None
        },
        terminal: frames.last().filter(|_| ok).map(|f| f.line.clone()),
        verdict,
        ended,
    }
}

/// Drive `requests` through the daemon on [`CONNECTIONS`] closed-loop
/// connections until they run out or `deadline` has passed (and at
/// least `min_ops` requests were made). Returns the operations in plan
/// order and the time from the first send to the last reply, in seconds.
fn drive(
    addr: &str,
    requests: &[Planned],
    deadline: Instant,
    min_ops: usize,
    expected: &Expected,
) -> (Vec<Op>, f64) {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut conn = None;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= requests.len() || (Instant::now() >= deadline && i >= min_ops) {
                        return;
                    }
                    let p = &requests[i];
                    if conn.is_none() {
                        conn = Conn::open(addr).ok();
                    }
                    let op = match conn.as_mut() {
                        Some(c) => one(c, i, p, expected),
                        None => Op {
                            index: i,
                            planned: p.clone(),
                            verdict: Verdict::Refused("cannot connect".to_string()),
                            latency_ms: f64::INFINITY,
                            elapsed_ms: 0.0,
                            first_frame_ms: None,
                            gaps: None,
                            terminal: None,
                            ended: Instant::now(),
                        },
                    };
                    if matches!(op.verdict, Verdict::Refused(_) | Verdict::Broken(_)) {
                        // The connection may be out of step; start afresh.
                        conn = None;
                    }
                    done.lock().expect("no client thread panics").push(op);
                }
            });
        }
    });
    let mut ops = done.into_inner().expect("no client thread panics");
    ops.sort_by_key(|o| o.index);
    let end = ops
        .iter()
        .map(|o| o.ended)
        .max()
        .unwrap_or_else(Instant::now);
    (ops, end.saturating_duration_since(start).as_secs_f64())
}

/// Start the daemon [`SETUPS`] times, each start bracketed by reference
/// runs (see [`crate::calib`]; a start is process spawning and a tiny
/// job per worker, all CPU work); keep the last daemon running. Returns
/// it and the median set-up time in seconds, scaled and raw.
fn setup(env: &Env, reference: &Reference) -> Result<(Daemon, f64, f64), String> {
    let mut scaled = Vec::new();
    let mut raw = Vec::new();
    for i in 0..SETUPS {
        let before = reference.time_ms();
        let d = env.start()?;
        let after = reference.time_ms();
        raw.push(d.setup_s);
        scaled.push(d.setup_s * NOMINAL_MS / ((before + after) / 2.0));
        if i + 1 == SETUPS {
            return Ok((d, median(&scaled), median(&raw)));
        }
        d.stop()?;
    }
    unreachable!("SETUPS is at least one")
}

/// One measured stretch of the mix.
struct MixRun {
    e2e: EndToEnd,
    ops: Vec<Op>,
    layer: ServeLayer,
    correct: bool,
    /// Daemons the mix ran against, one per round of the plan.
    rounds: usize,
}

/// Run the mix for `seconds`: the plan's requests against one daemon,
/// and when a fast system gets through all of them, the same plan again
/// against a fresh daemon (an empty cache), so the mix never changes
/// with speed. Set-up time comes from the first daemon's start-ups; the
/// time between rounds is not measured. Throughput is not scaled to the
/// reference speed: much of a request's time is timers (the reply
/// floor, the slow client's pause), which a busier machine does not
/// stretch.
fn mix(
    env: &Env,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    expected: &Expected,
) -> Result<MixRun, String> {
    let requests = plan(seed, ROUND_LEN);
    let reference = Reference::start()?;
    let (mut daemon, setup_s, raw_setup_s) = setup(env, &reference)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops: Vec<Op> = Vec::new();
    let mut elapsed_s = 0.0;
    let mut stats = DaemonStats::default();
    let mut peak_rss_mb: f64 = 0.0;
    let mut rounds = 0;
    loop {
        let want = min_ops.saturating_sub(ops.len());
        let (round, secs) = drive(&daemon.addr, &requests, deadline, want, expected);
        let whole = round.len() == requests.len();
        elapsed_s += secs;
        rounds += 1;
        ops.extend(round);
        peak_rss_mb = peak_rss_mb.max(daemon.peak_rss_mb());
        stats.add(&crate::wire::stats(&daemon.addr)?);
        if !whole || (Instant::now() >= deadline && ops.len() >= min_ops) {
            break;
        }
        daemon.stop()?;
        daemon = env.start()?;
    }
    let lat: Vec<f64> = ops.iter().map(|o| o.latency_ms).collect();
    let ok = ops.iter().filter(|o| !o.verdict.failed()).count();
    let e2e = EndToEnd {
        setup_s,
        ops_per_s: ok as f64 / elapsed_s,
        op_p50_ms: latency(&lat, 0.5, "request latency")?,
        op_p90_ms: latency(&lat, 0.9, "request latency")?,
        peak_rss_mb,
        raw_setup_s,
        raw_ops_per_s: ok as f64 / elapsed_s,
    };
    let layer = ServeLayer {
        ping_p50_ms: ping_p50(&daemon.addr)?,
        stats,
        ..ServeLayer::default()
    };
    daemon.stop()?;
    let correct = !ops.iter().any(|o| o.verdict.incorrect_for(o.planned.slow));
    Ok(MixRun {
        e2e,
        ops,
        layer,
        correct,
        rounds,
    })
}

fn class_of(o: &Op) -> &'static str {
    if o.cached() || (o.verdict.failed() && o.planned.warm) {
        "hit"
    } else if o.planned.key.is_lib() {
        "lib"
    } else {
        "app"
    }
}

fn pct(samples: &[f64], q: f64) -> String {
    let p = percentile(samples, q);
    match p.value {
        Some(v) if v.is_finite() => format!("{v:.3} ms (n={})", p.samples),
        Some(_) => format!("failed (n={})", p.samples),
        None => format!("n/a, too few samples (n={})", p.samples),
    }
}

fn print_mix(r: &MixRun) {
    let ops = &r.ops;
    let requests = ops.len() as u64;
    let failed = ops.iter().filter(|o| o.verdict.failed()).count() as u64;
    let (slow, slow_failed) = split_line(ops);
    let (op_count, op_failed) = operations(ops);
    println!(
        "requests {requests} in {} round(s)  req_per_s {:.3} req/s  fail_share {:.4} \
         ({failed}/{requests}; slow class {slow_failed}/{slow} failed; failed equals the slow \
         class: {})  setup_s {:.3} s  peak_rss_mb {:.1} MB",
        r.rounds,
        r.e2e.ops_per_s,
        crate::stats::fail_share(requests, failed),
        failed == slow_failed as u64 && slow_failed == slow,
        r.e2e.setup_s,
        r.e2e.peak_rss_mb
    );
    println!(
        "operations (every request but the split-line probe) {op_count}, {op_failed} failed; \
         split-line probe: {slow_failed} of {slow} slow-client requests failed"
    );
    for class in ["hit", "app", "lib"] {
        let s: Vec<f64> = ops
            .iter()
            .filter(|o| class_of(o) == class)
            .map(|o| o.latency_ms)
            .collect();
        println!(
            "{class}_p50_ms {}  {class}_p90_ms {}",
            pct(&s, 0.5),
            pct(&s, 0.9)
        );
    }
    let ff: Vec<f64> = ops
        .iter()
        .filter(|o| o.planned.stream)
        .map(|o| o.first_frame_ms.unwrap_or(f64::INFINITY))
        .collect();
    println!("first_frame_p50_ms {}", pct(&ff, 0.5));
    let mut errors: Vec<String> = ops
        .iter()
        .filter_map(|o| match &o.verdict {
            Verdict::Ok { .. } => None,
            v => Some(format!("{v:?}")),
        })
        .collect();
    errors.sort();
    errors.dedup();
    for e in errors.iter().take(5) {
        println!("  failure kind: {e}");
    }
    print_shares(ops);
    let s = &r.layer.stats;
    println!(
        "cache hit_share {:.3} ({} hits, {} misses), {} evictions; ping p50 {:.3} ms",
        s.hit_share(),
        s.hits,
        s.misses,
        s.evictions,
        r.layer.ping_p50_ms
    );
}

/// How the run's request time split, to check the mix against what it
/// is for: each class's share of the summed send-to-reply time, and for
/// streamed cold requests the split of their time between the admit,
/// front (parse and rewrite), exec and tail gaps. The exec gap holds
/// the interpreter together with the exec stage's own re-parse and
/// compile, so the last line is an upper bound on the interpreter's
/// share of the daemon's time.
fn print_shares(ops: &[Op]) {
    let class = |o: &Op| if o.planned.slow { "slow" } else { class_of(o) };
    let total: f64 = ops.iter().map(|o| o.elapsed_ms).sum();
    let time = |c: &str| -> f64 {
        ops.iter()
            .filter(|o| class(o) == c)
            .map(|o| o.elapsed_ms)
            .sum()
    };
    let shares: Vec<String> = ["hit", "app", "lib", "slow"]
        .iter()
        .map(|c| format!("{c} {:.1}%", 100.0 * time(c) / total))
        .collect();
    println!("request time by class: {}", shares.join(", "));
    let mut exec_ms = 0.0;
    for c in ["app", "lib"] {
        let g: Vec<[f64; 4]> = ops
            .iter()
            .filter(|o| class(o) == c)
            .filter_map(|o| o.gaps)
            .collect();
        let sum = |i: usize| g.iter().map(|x| x[i]).sum::<f64>();
        let all: f64 = (0..4).map(sum).sum();
        if all <= 0.0 {
            continue;
        }
        exec_ms += time(c) * sum(2) / all;
        println!(
            "streamed {c} split: admit {:.1}%, front {:.1}%, exec {:.1}%, tail {:.1}% (n={})",
            100.0 * sum(0) / all,
            100.0 * sum(1) / all,
            100.0 * sum(2) / all,
            100.0 * sum(3) / all,
            g.len()
        );
    }
    println!(
        "exec gap (interpreter plus re-parse and compile) ~{:.1}% of all request time",
        100.0 * exec_ms / total
    );
}

/// Untraced run: the end-to-end metrics.
pub fn run(env: &Env, seed: u64, seconds: f64, expected: &Expected) -> Result<Outcome, String> {
    let r = mix(env, seed, seconds, MIN_OPS, expected)?;
    print_mix(&r);
    println!(
        "op_p50_ms {:.3} ms  op_p90_ms {:.3} ms (n={}; reported with the per-layer set)",
        r.e2e.op_p50_ms,
        r.e2e.op_p90_ms,
        r.ops.len()
    );
    let (attempted, failed) = operations(&r.ops);
    Ok(Outcome {
        correct: r.correct,
        attempted,
        failed,
        metrics: r.e2e.metrics(),
    })
}

/// Traced run: half the time untraced, half traced (frame arrival times
/// kept per request), then the in-process layer timings over the
/// sources the traced half sent.
pub fn run_traced(
    env: &Env,
    seed: u64,
    seconds: f64,
    expected: &Expected,
    trace_out: &Path,
) -> Result<Outcome, String> {
    let untraced = mix(env, seed, seconds / 2.0, MIN_OPS, expected)?;
    let traced = mix(env, seed, seconds / 2.0, MIN_OPS, expected)?;
    print_mix(&traced);
    let mut layer = traced.layer.clone();
    fill_gaps(&mut layer, &traced.ops);
    layer.split_line_fail_share = split_line_fail_share(&traced.ops);

    // The distinct cold keys the traced half sent, a few of each kind.
    let mut keys: Vec<Key> = Vec::new();
    for kind_lib in [false, true] {
        let mut seen = std::collections::BTreeSet::new();
        for o in &traced.ops {
            if !o.planned.warm && o.planned.key.is_lib() == kind_lib && seen.len() < LAYER_KEYS {
                seen.insert(o.planned.key.clone());
            }
        }
        keys.extend(seen);
    }
    let inputs: Vec<Input> = keys.iter().map(key_input).collect();
    let mut tracer = Tracer::new();
    let passes = layer_passes(&inputs, &keys, Mode::LoopProfile, &mut tracer)?;
    let dep = trace_pass(&inputs, Mode::Dependence, &mut tracer, 1)?.steps;
    let terminals: Vec<String> = traced
        .ops
        .iter()
        .filter_map(|o| o.terminal.clone())
        .collect();
    let all_keys: Vec<Key> = {
        let mut k: Vec<Key> = traced.ops.iter().map(|o| o.planned.key.clone()).collect();
        k.sort();
        k.dedup();
        k
    };
    in_process_layers(
        &mut layer,
        &env.daemon,
        &terminals,
        &cache_sources(&all_keys),
    )?;
    tracer.write(trace_out)?;

    let per_layer = PerLayer {
        hook_ns_est: passes.steps.hook_ns_estimate(&dep),
        pass: passes.steps,
        fleet_overhead_ms: passes.overhead_ms,
        serve: layer,
        overhead: traced.e2e.minus(&untraced.e2e),
        untraced: untraced.e2e.clone(),
    };
    per_layer.overhead.print_overhead();
    let (a, f) = operations(&untraced.ops);
    let (b, g) = operations(&traced.ops);
    Ok(Outcome {
        correct: untraced.correct && traced.correct && passes.correct,
        attempted: a + b,
        failed: f + g,
        metrics: per_layer.metrics(),
    })
}

fn fill_gaps(layer: &mut ServeLayer, ops: &[Op]) {
    let g: Vec<[f64; 4]> = ops.iter().filter_map(|o| o.gaps).collect();
    let med = |i: usize| {
        let v: Vec<f64> = g.iter().map(|x| x[i]).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    layer.admit_ms = med(0);
    layer.front_ms = med(1);
    layer.exec_ms = med(2);
    layer.tail_ms = med(3);
}

/// Traced in-process passes over a serve source set, each paired with
/// an untraced pass through the same supervised job path the daemon's
/// workers run.
struct LayerPasses {
    steps: Steps,
    overhead_ms: f64,
    correct: bool,
}

fn layer_passes(
    inputs: &[Input],
    keys: &[Key],
    mode: Mode,
    tracer: &mut Tracer,
) -> Result<LayerPasses, String> {
    let policy = FleetPolicy::default();
    let resolver = ceres_workloads::registry_resolver(policy.clone());
    let config = ceres_core::ServeConfig::default();
    let mut steps = Vec::new();
    let mut overheads = Vec::new();
    let mut correct = true;
    for pass in 0..LAYER_PASSES {
        let jobs = keys
            .iter()
            .map(|k| {
                let req: AnalysisRequest = serde_json::from_str(&k.request_line("layer", false))
                    .map_err(|e| format!("request for {}: {e}", k.id()))?;
                let opts = ceres_core::serve::request_options(&req, &config)?;
                let job = resolver(&req, &opts)?;
                Ok(FleetJob {
                    app: job.app,
                    slug: job.slug,
                    work: job.work,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let t = Instant::now();
        let outcomes = run_fleet_with(jobs, 1, &policy);
        let wall = t.elapsed().as_secs_f64() * 1e3;
        let traced = trace_pass(inputs, mode, tracer, 1000 * (pass as u64 + 2))?;
        let sum = traced.steps;
        for (o, r) in outcomes.iter().zip(&traced.reports) {
            let untraced = o
                .report
                .as_ref()
                .map(|x| serde_json::to_string(&x.canonical()).expect("AppReport serializes"));
            correct &= untraced.as_deref() == Some(r.as_str());
        }
        overheads.push(wall - (sum.step_sum_ms() - sum.report_ms));
        steps.push(sum);
    }
    println!(
        "serve layer pass: {} sources, reports identical traced/untraced: {correct}",
        inputs.len()
    );
    Ok(LayerPasses {
        steps: crate::fleet::median_steps(&steps),
        overhead_ms: median(&overheads),
        correct,
    })
}

fn ping_p50(addr: &str) -> Result<f64, String> {
    let mut c = Conn::open(addr)?;
    let mut v = Vec::new();
    for _ in 0..PINGS {
        let t = c
            .send("{\"op\":\"ping\",\"id\":\"ping\"}", false)
            .map_err(|e| e.to_string())?;
        let (line, at) = c.read_line().map_err(|e| e.to_string())?;
        if !line.contains("\"ok\":true") {
            return Err(format!("ping failed: {line}"));
        }
        v.push(at.saturating_duration_since(t).as_secs_f64() * 1e3);
    }
    Ok(median(&v))
}

/// `(source, options)` pairs the daemon would key these requests on.
fn cache_sources(keys: &[Key]) -> Vec<(String, AnalyzeOptions)> {
    keys.iter()
        .map(|k| {
            let input = key_input(k);
            let mode = match k {
                Key::App { mode, .. } => {
                    ceres_core::serve::parse_mode(mode).expect("pool modes parse")
                }
                Key::Lib(_) => Mode::LoopProfile,
            };
            let opts = AnalyzeOptions::builder()
                .mode(mode)
                .seed(input.seed)
                .build();
            (input.source, opts)
        })
        .collect()
}

/// Cache, frame-render and worker-slot timings, taken in process.
fn in_process_layers(
    layer: &mut ServeLayer,
    daemon: &Path,
    terminals: &[String],
    sources: &[(String, AnalyzeOptions)],
) -> Result<(), String> {
    const REPS: usize = 20;
    // CacheKey::of hashes the whole source.
    let t = Instant::now();
    let mut keys = Vec::new();
    for _ in 0..REPS {
        keys = sources.iter().map(|(s, o)| CacheKey::of(s, o, 1)).collect();
    }
    layer.key_us = t.elapsed().as_secs_f64() * 1e6 / (REPS * sources.len()).max(1) as f64;
    let payload = terminals.first().cloned().unwrap_or_default();
    let cache = ShardedCache::open(keys.len().max(1), 8, None).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for k in &keys {
        std::hint::black_box(cache.insert_or_get(k, payload.clone()));
    }
    layer.insert_us = t.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64;
    let t = Instant::now();
    for _ in 0..REPS {
        for k in &keys {
            std::hint::black_box(cache.lookup(k));
        }
    }
    layer.lookup_us = t.elapsed().as_secs_f64() * 1e6 / (REPS * keys.len()).max(1) as f64;

    // render_frame over the run's terminal frames.
    let frames: Vec<Frame> = terminals
        .iter()
        .filter_map(|l| {
            crate::wire::result_fragment(l).map(|f| Frame::Result {
                ok: true,
                cached: l.contains("\"cached\":true"),
                fragment: f.to_string(),
            })
        })
        .collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for (i, f) in frames.iter().enumerate() {
            std::hint::black_box(render_frame(2, "r", i as u64 + 1, f));
        }
    }
    layer.render_frame_us = t.elapsed().as_secs_f64() * 1e6 / (REPS * frames.len()).max(1) as f64;

    // One worker-slot round trip with a trivial job, after a first job
    // has spawned the worker.
    let mut slot = WorkerSlot::new(WorkerSpec {
        program: daemon.to_path_buf(),
        args: vec!["--worker".to_string()],
    });
    let job =
        "{\"source\":\"var x = 1;\",\"mode\":\"loop-profile\",\"seed\":2015,\"max_events\":10000}";
    let mut times = Vec::new();
    for i in 0..=REPS {
        let t = Instant::now();
        let (outcome, _) = slot.run(job, &mut |_| {});
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match outcome {
            SlotOutcome::Done(r) if r.ok => {}
            other => return Err(format!("worker slot job failed: {other:?}")),
        }
        if i > 0 {
            times.push(ms);
        }
    }
    slot.shutdown();
    layer.slot_rt_ms = median(&times);
    Ok(())
}

/// What the serve-layer probe of a traced fleet run found.
pub struct Probe {
    /// Serve-layer figures on the fleet's programs.
    pub layer: ServeLayer,
    /// Replies that were wrong.
    pub wrong: u64,
}

/// The serve layer on a fleet workload's own programs: each registry app
/// in the workload's mode, streamed cold, then asked again one-shot
/// (a warm hit); pings; the stats op; the in-process timings.
pub fn probe_fleet(env: &Env, mode: Mode, expected: &Expected) -> Result<Probe, String> {
    let mode_name = ceres_core::mode_wire_name(mode);
    let keys: Vec<Key> = ceres_workloads::registry::all()
        .iter()
        .map(|w| Key::App {
            slug: w.slug,
            seed: 2015,
            mode: if mode == Mode::Dependence {
                crate::gen::DEP
            } else {
                crate::gen::LOOP
            },
        })
        .collect();
    let requests: Vec<Planned> = keys
        .iter()
        .map(|k| Planned {
            key: k.clone(),
            warm: false,
            stream: true,
            slow: false,
        })
        .chain(keys.iter().map(|k| Planned {
            key: k.clone(),
            warm: true,
            stream: false,
            slow: false,
        }))
        .chain(keys.first().map(|k| Planned {
            key: k.clone(),
            warm: true,
            stream: false,
            slow: true,
        }))
        .collect();
    let daemon = env.start()?;
    let mut conn = Conn::open(&daemon.addr)?;
    let ops: Vec<Op> = requests
        .iter()
        .enumerate()
        .map(|(i, p)| one(&mut conn, i, p, expected))
        .collect();
    drop(conn);
    let mut layer = ServeLayer {
        ping_p50_ms: ping_p50(&daemon.addr)?,
        stats: crate::wire::stats(&daemon.addr)?,
        ..ServeLayer::default()
    };
    daemon.stop()?;
    fill_gaps(&mut layer, &ops);
    layer.split_line_fail_share = split_line_fail_share(&ops);
    let terminals: Vec<String> = ops.iter().filter_map(|o| o.terminal.clone()).collect();
    in_process_layers(&mut layer, &env.daemon, &terminals, &cache_sources(&keys))?;
    let (attempted, failed) = operations(&ops);
    let (slow, slow_failed) = split_line(&ops);
    let wrong = ops
        .iter()
        .filter(|o| o.verdict.incorrect_for(o.planned.slow))
        .count();
    println!(
        "serve probe ({mode_name}): {attempted} requests, {failed} failed, split-line probe \
         {slow_failed} of {slow} failed, ping p50 {:.3} ms",
        layer.ping_p50_ms
    );
    Ok(Probe {
        layer,
        wrong: wrong as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(slow: bool, verdict: Verdict) -> Op {
        Op {
            index: 0,
            planned: Planned {
                key: Key::Lib(0),
                warm: false,
                stream: false,
                slow,
            },
            verdict,
            latency_ms: 1.0,
            elapsed_ms: 1.0,
            first_frame_ms: None,
            gaps: None,
            terminal: None,
            ended: Instant::now(),
        }
    }

    #[test]
    fn slow_requests_are_the_probe_not_operations() {
        let ok = || Verdict::Ok { cached: false };
        let refused = || Verdict::ErrorReply("bad request".to_string());
        let ops = [
            op(false, ok()),
            op(false, refused()),
            op(true, refused()),
            op(true, ok()),
        ];
        assert_eq!(operations(&ops), (2, 1));
        assert_eq!(split_line(&ops), (2, 1));
        assert_eq!(split_line_fail_share(&ops), 0.5);
        assert_eq!(split_line_fail_share(&ops[..2]), 0.0);
    }
}
