//! The `fleet-dep` and `fleet-loop` workloads: sequential passes (one
//! fleet worker, scale 1) of the 12 registry apps through
//! `ceres_workloads::fleet::run_fleet_report`, the entry `jsceres
//! analyze-all` and `repro bench` also use. The analysis runs on a
//! seeded virtual clock, so the workload seed changes nothing here: runs
//! with different seeds differ only by the machine's noise.
//!
//! Set-up is timed in fresh processes: `perfbench setup` is this binary
//! doing only what a user's process does before its first timed pass —
//! build the registry and run one warm-up pass — and saying `ready`.

use crate::calib::{Reference, NOMINAL_MS};
use crate::expected::{fleet_id, Expected};
use crate::layers::{registry_inputs, trace_pass, Steps, Tracer};
use crate::metrics::{latency, EndToEnd, Outcome, PerLayer};
use crate::stats::median;
use ceres_core::fleet::FleetOutcome;
use ceres_core::{mode_wire_name, Mode};
use ceres_workloads::run_fleet_report;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Traced set-ups per traced run, for the tracing overhead on set-up.
const TRACED_SETUPS: usize = 3;
/// A run measures at least this many app analyses, however short.
const MIN_OPS: usize = 120;

/// Counts of one pass, which must repeat exactly from pass to pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PassCounts {
    ticks: u64,
    hook_calls: u64,
    warnings: u64,
}

/// One untraced pass, judged against the expected answers.
struct Pass {
    /// Wall time.
    raw_ms: f64,
    /// Wall time at the reference machine speed.
    scaled_ms: f64,
    /// Per-app latency, infinite for a failed app.
    latencies: Vec<f64>,
    failed: u64,
    /// Apps whose report differs from the expected answer.
    wrong: u64,
    counts: PassCounts,
    /// Canonical report JSON per app, for the traced comparison.
    reports: Vec<Option<String>>,
}

/// Run one pass and judge it.
fn pass(mode: Mode, expected: &Expected, reference: &Reference) -> Pass {
    let (outcome, raw_ms, scaled_ms): (FleetOutcome, _, _) =
        reference.scaled(|| run_fleet_report(mode, 1, 1));
    let mut p = Pass {
        raw_ms,
        scaled_ms,
        latencies: Vec::new(),
        failed: 0,
        wrong: 0,
        counts: PassCounts::default(),
        reports: Vec::new(),
    };
    for a in &outcome.apps {
        let report = a.report.as_ref().filter(|_| a.status.is_ok());
        let json =
            report.map(|r| serde_json::to_string(&r.canonical()).expect("AppReport serializes"));
        let right = json
            .as_deref()
            .is_some_and(|j| expected.matches(&fleet_id(mode_wire_name(mode), &a.slug), j));
        if let Some(r) = report {
            p.counts.ticks += r.obs.counters.interp_ticks;
            p.counts.hook_calls += r.obs.counters.hook_calls;
            p.counts.warnings += r.obs.counters.warnings;
        }
        match report {
            Some(r) if right => p.latencies.push(r.wall_ms),
            _ => {
                p.latencies.push(f64::INFINITY);
                p.failed += 1;
                p.wrong += u64::from(report.is_some());
            }
        }
        p.reports.push(json);
    }
    p
}

/// `perfbench setup`: the set-up of a fleet process, alone. Builds the
/// registry and runs one warm-up pass (traced when `traced`), prints
/// `ready`, then — outside the timed part — each app's slug and
/// canonical report JSON, one per line, for the parent to check.
pub fn setup_child(mode: Mode, traced: bool) -> Result<(), String> {
    std::hint::black_box(ceres_workloads::registry::all());
    let reports: Vec<(String, String)> = if traced {
        let inputs = registry_inputs();
        let pass = trace_pass(&inputs, mode, &mut Tracer::new(), 0)?;
        inputs
            .into_iter()
            .map(|i| i.slug)
            .zip(pass.reports)
            .collect()
    } else {
        run_fleet_report(mode, 1, 1)
            .apps
            .iter()
            .map(|a| {
                let json = a
                    .report
                    .as_ref()
                    .filter(|_| a.status.is_ok())
                    .map(|r| serde_json::to_string(&r.canonical()).expect("AppReport serializes"))
                    .unwrap_or_default();
                (a.slug.clone(), json)
            })
            .collect()
    };
    println!("ready");
    for (slug, json) in reports {
        println!("{slug}\t{json}");
    }
    Ok(())
}

/// One set-up in a fresh process: from spawning `perfbench setup` to
/// its `ready` line, bracketed by reference runs once the process has
/// ended. Returns the raw and scaled times in seconds and whether each
/// warm-up report was the expected answer.
fn spawn_setup(
    mode: Mode,
    traced: bool,
    expected: &Expected,
    reference: &Reference,
) -> Result<(f64, f64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let before = reference.time_ms();
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(["setup", "--workload", workload_name(mode)])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut ready = String::new();
    let read = out.read_line(&mut ready);
    let raw_s = t.elapsed().as_secs_f64();
    let mut rest = String::new();
    let read = read.and_then(|_| out.read_to_string(&mut rest));
    let status = child.wait().map_err(|e| e.to_string())?;
    let after = reference.time_ms();
    read.map_err(|e| format!("set-up process output: {e}"))?;
    if ready.trim() != "ready" || !status.success() {
        return Err(format!("set-up process failed ({status})"));
    }
    let mut right = 0;
    for line in rest.lines() {
        let (slug, json) = line.split_once('\t').unwrap_or((line, ""));
        right += usize::from(expected.matches(&fleet_id(mode_wire_name(mode), slug), json));
    }
    let ok = right == registry_inputs().len() && rest.lines().count() == right;
    Ok((raw_s, raw_s * NOMINAL_MS / ((before + after) / 2.0), ok))
}

fn workload_name(mode: Mode) -> &'static str {
    if mode == Mode::Dependence {
        "fleet-dep"
    } else {
        "fleet-loop"
    }
}

/// `count` set-ups in fresh processes. Returns the median scaled and raw
/// set-up times in seconds, and whether every answer was right.
fn setup(
    mode: Mode,
    traced: bool,
    count: usize,
    expected: &Expected,
    reference: &Reference,
) -> Result<(f64, f64, bool), String> {
    let mut scaled = Vec::new();
    let mut raw = Vec::new();
    let mut ok = true;
    for _ in 0..count {
        let (r, s, right) = spawn_setup(mode, traced, expected, reference)?;
        ok &= right;
        raw.push(r);
        scaled.push(s);
    }
    Ok((median(&scaled), median(&raw), ok))
}

/// End-to-end figures of a set of passes.
fn summarize(
    passes: &[Pass],
    setup_s: f64,
    scaled: impl Fn(&Pass) -> f64,
) -> Result<EndToEnd, String> {
    let times: Vec<f64> = passes.iter().map(scaled).collect();
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let ok_share = 1.0 - crate::stats::fail_share(lat.len() as u64, failed);
    Ok(EndToEnd {
        setup_s,
        ops_per_s: passes[0].latencies.len() as f64 * ok_share / (median(&times) / 1e3),
        op_p50_ms: latency(&lat, 0.5, "app latency")?,
        op_p90_ms: latency(&lat, 0.9, "app latency")?,
        peak_rss_mb: crate::wire::peak_rss_kb(std::process::id()) as f64 / 1024.0,
        ..EndToEnd::default()
    })
}

/// The untraced passes of a run, summarized at the reference speed, with
/// the unscaled figures alongside.
fn summarize_scaled(passes: &[Pass], setup_s: f64, raw_setup_s: f64) -> Result<EndToEnd, String> {
    let raw = summarize(passes, raw_setup_s, |p| p.raw_ms)?;
    Ok(EndToEnd {
        raw_setup_s,
        raw_ops_per_s: raw.ops_per_s,
        ..summarize(passes, setup_s, |p| p.scaled_ms)?
    })
}

/// Untraced run: the end-to-end metrics.
pub fn run(mode: Mode, seconds: f64, expected: &Expected) -> Result<Outcome, String> {
    let reference = Reference::start()?;
    let (setup_s, raw_setup_s, setup_ok) = setup(mode, false, SETUPS, expected, &reference)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while Instant::now() < deadline || passes.len() * 12 < MIN_OPS {
        passes.push(pass(mode, expected, &reference));
    }
    let e2e = summarize_scaled(&passes, setup_s, raw_setup_s)?;
    let attempted: u64 = passes.iter().map(|p| p.latencies.len() as u64).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let wrong: u64 = passes.iter().map(|p| p.wrong).sum();
    let counts_repeat = passes.iter().all(|p| p.counts == passes[0].counts);
    let c = passes[0].counts;
    println!(
        "fleet {}: {} ticks, {} hook calls, {} warnings per pass; counts repeat: {counts_repeat}",
        mode_wire_name(mode),
        c.ticks,
        c.hook_calls,
        c.warnings
    );
    let per_app: Vec<String> = registry_inputs()
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let v: Vec<f64> = passes.iter().map(|p| p.latencies[i]).collect();
            format!("{} {:.1}", input.slug, median(&v))
        })
        .collect();
    println!("per-app median ms: {}", per_app.join(", "));
    println!(
        "passes {}  apps_per_s {:.3} apps/s (raw {:.3})  setup_s {:.3} s (raw {:.3})  \
         fail_share {:.4} ({failed}/{attempted})  peak_rss_mb {:.1} MB",
        passes.len(),
        e2e.ops_per_s,
        e2e.raw_ops_per_s,
        e2e.setup_s,
        e2e.raw_setup_s,
        crate::stats::fail_share(attempted, failed),
        e2e.peak_rss_mb
    );
    println!(
        "op_p50_ms {:.3} ms  op_p90_ms {:.3} ms (n={attempted}; raw, in the per-layer set)",
        e2e.op_p50_ms, e2e.op_p90_ms
    );
    Ok(Outcome {
        correct: setup_ok && wrong == 0 && counts_repeat,
        attempted,
        failed,
        metrics: e2e.metrics(),
    })
}

/// Median of each step over traced passes.
pub fn median_steps(passes: &[Steps]) -> Steps {
    let med = |f: fn(&Steps) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    Steps {
        parse_ms: med(|s| s.parse_ms),
        number_ms: med(|s| s.number_ms),
        rewrite_ms: med(|s| s.rewrite_ms),
        codegen_ms: med(|s| s.codegen_ms),
        compile_ms: med(|s| s.compile_ms),
        exec_ms: med(|s| s.exec_ms),
        analyze_ms: med(|s| s.analyze_ms),
        report_ms: med(|s| s.report_ms),
        total_ms: med(|s| s.total_ms),
        ..passes[0].clone()
    }
}

/// Traced run: per-layer metrics. Untraced and traced passes alternate
/// for the run's length; their difference is the tracing overhead.
pub fn run_traced(
    mode: Mode,
    seconds: f64,
    expected: &Expected,
    env: &crate::serve::Env,
    trace_out: &std::path::Path,
) -> Result<Outcome, String> {
    let reference = Reference::start()?;
    let inputs = registry_inputs();
    let (setup_s, raw_setup_s, setup_ok) = setup(mode, false, SETUPS, expected, &reference)?;
    // The traced counterpart: set-ups whose warm-up pass is traced.
    let (traced_setup_s, _, traced_setup_ok) =
        setup(mode, true, TRACED_SETUPS, expected, &reference)?;
    let mut tracer = Tracer::new();
    // One untraced pass in this process before any traced one, so the
    // peak resident set so far is the untraced figure.
    let warm_ok = pass(mode, expected, &reference).failed == 0;
    let rss_untraced = crate::wire::peak_rss_kb(std::process::id()) as f64 / 1024.0;

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut untraced = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_lat = Vec::new();
    let mut traced_steps = Vec::new();
    let mut overheads = Vec::new();
    let mut wrong = 0u64;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut run_id = 100;
    while Instant::now() < deadline || traced_lat.len() < MIN_OPS {
        let u = pass(mode, expected, &reference);
        let (t, _, scaled_ms) = reference.scaled(|| trace_pass(&inputs, mode, &mut tracer, run_id));
        let t = t?;
        run_id += 100;
        // The traced report must be byte-identical to the untraced one,
        // and both must be the expected answer.
        for ((r, ur), input) in t.reports.iter().zip(&u.reports).zip(&inputs) {
            attempted += 1;
            let right = expected.matches(&fleet_id(mode_wire_name(mode), &input.slug), r);
            if !right || ur.as_deref() != Some(r.as_str()) {
                failed += 1;
                wrong += 1;
            }
        }
        let s = &t.steps;
        if s.ticks != u.counts.ticks
            || s.warnings != u.counts.warnings
            || s.hook_calls() != u.counts.hook_calls
        {
            wrong += 1;
        }
        overheads.push(u.raw_ms - (s.step_sum_ms() - s.report_ms));
        traced_ms.push(scaled_ms);
        traced_lat.extend(t.latencies);
        traced_steps.push(t.steps);
        untraced.push(u);
    }
    let base = summarize_scaled(&untraced, setup_s, raw_setup_s)?;
    let traced = EndToEnd {
        setup_s: traced_setup_s,
        ops_per_s: inputs.len() as f64 / (median(&traced_ms) / 1e3),
        op_p50_ms: latency(&traced_lat, 0.5, "traced app latency")?,
        op_p90_ms: latency(&traced_lat, 0.9, "traced app latency")?,
        peak_rss_mb: crate::wire::peak_rss_kb(std::process::id()) as f64 / 1024.0,
        ..EndToEnd::default()
    };
    let steps = median_steps(&traced_steps);

    // Hook cost across modes: the other mode's pass differs in hook calls
    // (and the dependence engine) but runs the same programs.
    let other = if mode == Mode::Dependence {
        Mode::LoopProfile
    } else {
        Mode::Dependence
    };
    let other_steps = trace_pass(&inputs, other, &mut tracer, 1)?.steps;

    let probe = crate::serve::probe_fleet(env, mode, expected)?;
    wrong += probe.wrong;

    println!(
        "fleet {} traced: {} traced passes; ticks {} (untraced {}), warnings {} (untraced {})",
        mode_wire_name(mode),
        traced_steps.len(),
        steps.ticks,
        untraced[0].counts.ticks,
        steps.warnings,
        untraced[0].counts.warnings
    );
    tracer.write(trace_out)?;
    let per_layer = PerLayer {
        hook_ns_est: steps.hook_ns_estimate(&other_steps),
        pass: steps,
        fleet_overhead_ms: median(&overheads),
        serve: probe.layer,
        overhead: traced.minus(&EndToEnd {
            peak_rss_mb: rss_untraced,
            ..base.clone()
        }),
        untraced: base,
    };
    per_layer.overhead.print_overhead();
    Ok(Outcome {
        correct: setup_ok && traced_setup_ok && warm_ok && wrong == 0,
        attempted,
        failed,
        metrics: per_layer.metrics(),
    })
}
