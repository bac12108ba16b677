//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench run --workload fleet-dep|fleet-loop|serve-mix --seed N
//!               --seconds S --trace 0|1 --daemon JSCERESD
//!               --answers FILE --scratch DIR
//! perfbench expect --daemon JSCERESD --out FILE --scratch DIR
//! perfbench setup --workload fleet-dep|fleet-loop --trace 0|1
//! perfbench reference
//! ```
//!
//! `run` prints what it measured, then, as its last line, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `expect`
//! regenerates the expected answers and must run with
//! `CERES_INTERP_BACKEND=tree`. `setup` (one fleet set-up, timed by the
//! parent from outside) and `reference` (the machine reference kernel,
//! see `calib`) are the processes `run` starts for itself.
//! `perfbench/run.py` builds everything and is the usual way in; see
//! `perfbench/README.md`.

mod calib;
mod expected;
mod fleet;
mod gen;
mod layers;
mod metrics;
mod serve;
mod stats;
mod wire;

use ceres_core::Mode;
use std::path::PathBuf;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    answers: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("want a command: run or expect")?;
    let mut a = Args {
        command,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        daemon: PathBuf::new(),
        answers: PathBuf::new(),
        scratch: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value == "1",
            "--daemon" => a.daemon = PathBuf::from(value),
            "--answers" | "--out" => a.answers = PathBuf::from(value),
            "--scratch" => a.scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn run(a: &Args) -> Result<metrics::Outcome, String> {
    let expected = expected::Expected::load(&a.answers)?;
    let env = serve::Env {
        daemon: a.daemon.clone(),
        scratch: a.scratch.join("tmp"),
    };
    let trace_out = a
        .scratch
        .join(format!("spans-{}-seed{}.json", a.workload, a.seed));
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    let outcome = match (a.workload.as_str(), a.trace) {
        ("fleet-dep", false) => fleet::run(Mode::Dependence, a.seconds, &expected),
        ("fleet-loop", false) => fleet::run(Mode::LoopProfile, a.seconds, &expected),
        ("fleet-dep", true) => {
            fleet::run_traced(Mode::Dependence, a.seconds, &expected, &env, &trace_out)
        }
        ("fleet-loop", true) => {
            fleet::run_traced(Mode::LoopProfile, a.seconds, &expected, &env, &trace_out)
        }
        ("serve-mix", false) => serve::run(&env, a.seed, a.seconds, &expected),
        ("serve-mix", true) => serve::run_traced(&env, a.seed, a.seconds, &expected, &trace_out),
        (w, _) => Err(format!(
            "unknown workload `{w}` (want fleet-dep, fleet-loop or serve-mix)"
        )),
    }?;
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number: {}", m.name, m.value));
    }
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(outcome)
}

fn main() {
    let result = parse_args().and_then(|a| match a.command.as_str() {
        "run" => run(&a).map(|o| println!("{}", o.json())),
        "setup" => match a.workload.as_str() {
            "fleet-dep" => fleet::setup_child(Mode::Dependence, a.trace),
            "fleet-loop" => fleet::setup_child(Mode::LoopProfile, a.trace),
            w => Err(format!("no fleet set-up for workload `{w}`")),
        },
        "reference" => calib::serve_reference(),
        "expect" => expect::regenerate(&a.daemon, &a.answers, &a.scratch.join("tmp")),
        other => Err(format!("unknown command `{other}`")),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

mod expect {
    //! Regenerating the expected answers with the tree-walker.

    use crate::expected::{fleet_id, render};
    use crate::gen::{pool, Key, DEP};
    use crate::wire::{exchange, result_fragment, Conn, Daemon};
    use ceres_core::{mode_wire_name, Mode};
    use std::path::Path;
    use std::sync::Mutex;

    pub fn regenerate(daemon: &Path, out: &Path, scratch: &Path) -> Result<(), String> {
        if ceres_interp::Interp::new(0).backend != ceres_interp::Backend::Tree {
            return Err("expected answers must come from the tree-walker: \
                        set CERES_INTERP_BACKEND=tree"
                .to_string());
        }
        let mut entries = Vec::new();
        for mode in [Mode::Dependence, Mode::LoopProfile] {
            let outcome = ceres_workloads::run_fleet_report(mode, 1, 1);
            for a in &outcome.apps {
                let r = a
                    .report
                    .as_ref()
                    .filter(|_| a.status.is_ok())
                    .ok_or_else(|| format!("fleet app {} failed under the tree-walker", a.slug))?;
                let json = serde_json::to_string(&r.canonical()).expect("AppReport serializes");
                entries.push((fleet_id(mode_wire_name(mode), &a.slug), json));
            }
        }
        let mut keys = pool();
        keys.extend(ceres_workloads::registry::all().iter().map(|w| Key::App {
            slug: w.slug,
            seed: 2015,
            mode: DEP,
        }));
        let d = Daemon::start(daemon, scratch)?;
        let next = Mutex::new(keys.into_iter());
        let answers = Mutex::new(Vec::new());
        let failed = Mutex::new(None);
        std::thread::scope(|s| {
            for _ in 0..crate::wire::WORKERS {
                s.spawn(|| {
                    let mut c = match Conn::open(&d.addr) {
                        Ok(c) => c,
                        Err(e) => {
                            *failed.lock().expect("lock") = Some(e);
                            return;
                        }
                    };
                    loop {
                        let Some(k) = next.lock().expect("lock").next() else {
                            return;
                        };
                        let (_, frames, err) =
                            exchange(&mut c, &k.request_line("x", false), false, false);
                        let line = frames.last().map(|f| f.line.clone()).unwrap_or_default();
                        match result_fragment(&line) {
                            Some(f) if err.is_none() && line.contains("\"ok\":true") => {
                                answers.lock().expect("lock").push((k.id(), f.to_string()))
                            }
                            _ => {
                                *failed.lock().expect("lock") =
                                    Some(format!("{}: {line} {err:?}", k.id()));
                                return;
                            }
                        }
                    }
                });
            }
        });
        d.stop()?;
        if let Some(e) = failed.into_inner().expect("lock") {
            return Err(format!("expected answer not produced: {e}"));
        }
        entries.extend(answers.into_inner().expect("lock"));
        let header = vec![
            "Expected answers for perfbench: SHA-256 of each checked output.".to_string(),
            "Produced by the tree-walking interpreter (CERES_INTERP_BACKEND=tree), not the VM under test."
                .to_string(),
            "Regenerate: python3 perfbench/run.py --regenerate-expected".to_string(),
        ];
        std::fs::write(out, render(&header, &entries))
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!(
            "{} expected answers written to {}",
            entries.len(),
            out.display()
        );
        Ok(())
    }
}
