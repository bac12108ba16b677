//! Per-layer tracing, from outside the program.
//!
//! [`trace_app`] takes one app through the same public steps
//! `ceres_core::pipeline::analyze` takes — parse, number, rewrite,
//! codegen, then compile and run with the fake DOM, the analysis engine
//! and the app's interaction, then classify and report — and records a
//! span around each call. Spans of one app share a run id, stay in
//! memory, and are written out when the benchmark ends. The canonical
//! report it builds must be byte-identical to the one the untraced path
//! produces, which is how the benchmark shows that tracing changed
//! nothing but the clock.

use ceres_core::fleet::AppReport;
use ceres_core::obs::{Counters, PhaseSpan, RunObs};
use ceres_core::pipeline::AppRun;
use ceres_core::Mode;
use ceres_dom::DomHandle;
use ceres_instrument::{ALL_HOOKS, HOOK_COUNT};
use ceres_interp::{Interp, JsResult, TICKS_PER_MS};
use std::time::Instant;

/// The interaction script a registry app runs after its page loads.
pub type Interaction = fn(&mut Interp, &DomHandle) -> JsResult<()>;

/// One program to analyze.
pub struct Input {
    /// Display name (the report's `app`).
    pub app: String,
    /// Short identifier (the report's `slug`).
    pub slug: String,
    /// HTML page with inline scripts, or bare JavaScript.
    pub source: String,
    /// Analysis seed.
    pub seed: u64,
    /// Interaction script, if any.
    pub interaction: Option<Interaction>,
}

/// The registry apps as the fleet serves them (scale 1, seed 2015).
pub fn registry_inputs() -> Vec<Input> {
    ceres_workloads::registry::all()
        .into_iter()
        .map(|w| Input {
            app: w.name.to_string(),
            slug: w.slug.to_string(),
            source: ceres_workloads::registry::workload_html(&w, 1),
            seed: 2015,
            interaction: Some(w.interaction),
        })
        .collect()
}

/// The program a serve-mix key asks for, as the daemon resolves it.
pub fn key_input(key: &crate::gen::Key) -> Input {
    match key {
        crate::gen::Key::App { slug, seed, .. } => {
            let w =
                ceres_workloads::registry::by_slug(slug).expect("pool slugs are registry slugs");
            Input {
                app: w.name.to_string(),
                slug: w.slug.to_string(),
                source: ceres_workloads::registry::workload_html(&w, 1),
                seed: *seed,
                interaction: Some(w.interaction),
            }
        }
        crate::gen::Key::Lib(i) => Input {
            app: "inline".to_string(),
            slug: "inline".to_string(),
            source: crate::gen::lib_source(*i),
            seed: crate::gen::APP_SEED_BASE,
            interaction: None,
        },
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// App run the span belongs to.
    pub run: u64,
    /// Step name.
    pub name: &'static str,
    /// Name of the enclosing span (`None` for the app's root span).
    pub parent: Option<&'static str>,
    /// Start, microseconds since the tracer started.
    pub start_us: u64,
    /// End, microseconds since the tracer started.
    pub end_us: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    /// Spans in the order they ended.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Start the clock.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Run `f` inside a span and return its result and duration in ms.
    fn span<T>(
        &mut self,
        run: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let start_us = self.now_us();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.spans.push(Span {
            run,
            name,
            parent: Some(parent),
            start_us,
            end_us: self.now_us(),
        });
        (out, ms)
    }

    /// Write the spans out, as a JSON array.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", self.spans.len(), path.display());
        Ok(())
    }

    fn to_json(&self) -> String {
        let items: Vec<String> =
            self.spans
                .iter()
                .map(|s| {
                    format!(
                    "{{\"run\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                    s.run,
                    s.name,
                    s.parent.map(|p| format!("\"{p}\"")).unwrap_or_else(|| "null".to_string()),
                    s.start_us,
                    s.end_us
                )
                })
                .collect();
        format!("[\n{}\n]\n", items.join(",\n"))
    }
}

/// Time and work of each step, for one app or summed over a pass.
#[derive(Debug, Clone, Default)]
pub struct Steps {
    /// `parse_program`.
    pub parse_ms: f64,
    /// `assign_loop_ids`.
    pub number_ms: f64,
    /// `instrument_program` (plus the HTML splice, as in the pipeline).
    pub rewrite_ms: f64,
    /// `program_to_source`.
    pub codegen_ms: f64,
    /// Bytecode lowering, from `Interp::compile_us`.
    pub compile_ms: f64,
    /// `eval_source` + interaction + `run_events`, minus compile.
    pub exec_ms: f64,
    /// `AppReport::from_run` (which classifies the nests).
    pub analyze_ms: f64,
    /// `AppReport::canonical` + JSON rendering.
    pub report_ms: f64,
    /// The whole app, root span.
    pub total_ms: f64,
    /// Bytes of JavaScript parsed.
    pub source_bytes: u64,
    /// Bytes of instrumented JavaScript produced.
    pub instrumented_bytes: u64,
    /// Virtual-clock ticks.
    pub ticks: u64,
    /// Hook invocations by kind, in `ALL_HOOKS` order.
    pub hooks: [u64; HOOK_COUNT],
    /// Dependence warnings.
    pub warnings: u64,
    /// Pushes onto the engine's loop stack.
    pub stack_pushes: u64,
}

impl Steps {
    /// Sum of the step times (the root span's children).
    pub fn step_sum_ms(&self) -> f64 {
        self.parse_ms
            + self.number_ms
            + self.rewrite_ms
            + self.codegen_ms
            + self.compile_ms
            + self.exec_ms
            + self.analyze_ms
            + self.report_ms
    }

    /// Total hook invocations.
    pub fn hook_calls(&self) -> u64 {
        self.hooks.iter().sum()
    }

    /// Hook cost, estimated across modes: the exec-time difference
    /// between a dependence and a loop-profile pass over the same
    /// programs, per extra hook call, in ns. A cross-mode estimate, not a
    /// measurement of one hook: it also carries the dependence engine's
    /// own work.
    pub fn hook_ns_estimate(&self, other: &Steps) -> f64 {
        let (dep, lp) = if self.hook_calls() >= other.hook_calls() {
            (self, other)
        } else {
            (other, self)
        };
        let calls = dep.hook_calls().saturating_sub(lp.hook_calls());
        if calls == 0 {
            return 0.0;
        }
        (dep.exec_ms - lp.exec_ms) * 1e6 / calls as f64
    }

    /// Accumulate another app's steps.
    pub fn add(&mut self, o: &Steps) {
        self.parse_ms += o.parse_ms;
        self.number_ms += o.number_ms;
        self.rewrite_ms += o.rewrite_ms;
        self.codegen_ms += o.codegen_ms;
        self.compile_ms += o.compile_ms;
        self.exec_ms += o.exec_ms;
        self.analyze_ms += o.analyze_ms;
        self.report_ms += o.report_ms;
        self.total_ms += o.total_ms;
        self.source_bytes += o.source_bytes;
        self.instrumented_bytes += o.instrumented_bytes;
        self.ticks += o.ticks;
        for (a, b) in self.hooks.iter_mut().zip(o.hooks.iter()) {
            *a += b;
        }
        self.warnings += o.warnings;
        self.stack_pushes += o.stack_pushes;
    }
}

/// A traced app: its canonical report JSON and its step times.
pub struct Traced {
    /// `serde_json` of the canonical report.
    pub report_json: String,
    /// Per-step times and counts.
    pub steps: Steps,
}

fn wall_span(phase: &str, ticks: u64, wall_us: u64) -> PhaseSpan {
    PhaseSpan {
        phase: phase.to_string(),
        start_ticks: 0,
        end_ticks: ticks,
        wall_start_us: 0,
        wall_us,
    }
}

/// Analyze `input` under `mode`, one traced step at a time.
pub fn trace_app(input: &Input, mode: Mode, run: u64, tr: &mut Tracer) -> Result<Traced, String> {
    let root_start_us = tr.now_us();
    let root = Instant::now();
    let mut s = Steps::default();
    let html = input.source.trim_start().starts_with('<');
    let blocks = if html {
        ceres_dom::extract_scripts(&input.source)
    } else {
        Vec::new()
    };
    let combined = if html {
        blocks
            .iter()
            .map(|b| b.content.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    } else {
        input.source.clone()
    };
    s.source_bytes = combined.len() as u64;

    let (program, ms) = tr.span(run, "parse", "app", || {
        ceres_parser::parse_program(&combined)
    });
    s.parse_ms = ms;
    let mut program = program.map_err(|e| format!("{}: parse error: {e}", input.slug))?;
    let (loops, ms) = tr.span(run, "number", "app", || {
        ceres_ast::assign_loop_ids(&mut program)
    });
    s.number_ms = ms;
    let (rewritten, ms) = tr.span(run, "rewrite", "app", || {
        ceres_instrument::instrument_program(&program, mode)
    });
    s.rewrite_ms = ms;
    let (instrumented, ms) = tr.span(run, "codegen", "app", || {
        let text = ceres_ast::program_to_source(&rewritten);
        if html && !blocks.is_empty() {
            // The pipeline splices the rewritten script back into the page.
            let mut replacements = vec![String::new(); blocks.len()];
            replacements[0] = text.clone();
            std::hint::black_box(ceres_dom::splice_scripts(
                &input.source,
                &blocks,
                &replacements,
            ));
        }
        text
    });
    s.codegen_ms = ms;
    s.instrumented_bytes = instrumented.len() as u64;

    let interp_start = Instant::now();
    let interp_start_us = tr.now_us();
    let mut interp = Interp::new(input.seed);
    let dom = ceres_dom::install_dom(&mut interp);
    let engine = ceres_core::attach_engine(&mut interp, mode, loops);
    engine
        .borrow_mut()
        .begin_task("main", interp.clock.now_ticks());
    let main = interp.eval_source(&instrumented);
    engine.borrow_mut().end_task(interp.clock.now_ticks());
    let ran = main
        .and_then(|()| match input.interaction {
            Some(f) => f(&mut interp, &dom),
            None => Ok(()),
        })
        .and_then(|()| {
            interp
                .run_events(ceres_core::AnalyzeOptions::default().max_events)
                .map(|_| ())
        });
    engine.borrow_mut().flush_events();
    let interp_ms = interp_start.elapsed().as_secs_f64() * 1e3;
    if ran.is_err() {
        return Err(format!("{}: the app failed while running", input.slug));
    }
    s.compile_ms = interp.compile_us as f64 / 1e3;
    s.exec_ms = interp_ms - s.compile_ms;
    let interp_end_us = tr.now_us();
    tr.spans.push(Span {
        run,
        name: "compile",
        parent: Some("interp"),
        start_us: interp_start_us,
        end_us: interp_start_us + interp.compile_us,
    });
    tr.spans.push(Span {
        run,
        name: "interp",
        parent: Some("app"),
        start_us: interp_start_us,
        end_us: interp_end_us,
    });

    let ticks = interp.clock.now_ticks();
    let counters = {
        let e = engine.borrow();
        s.ticks = ticks;
        for (i, h) in ALL_HOOKS.iter().enumerate() {
            s.hooks[i] = e.tally.get(h);
        }
        s.warnings = e.warnings.len() as u64;
        s.stack_pushes = e.stack_pushes;
        Counters {
            interp_ticks: ticks,
            samples: interp.clock.total_samples(),
            events: interp.events_processed,
            hook_calls: e.tally.total(),
            hooks: e
                .tally
                .nonzero()
                .into_iter()
                .map(|(name, n)| (name.to_string(), n))
                .collect(),
            stack_pushes: e.stack_pushes,
            warnings: e.warnings.len() as u64,
            retries: 0,
            watchdog_arms: 0,
        }
    };
    let loops_ms = engine.borrow().lw_loop_ticks as f64 / TICKS_PER_MS as f64;
    let run_record = AppRun {
        total_ms: interp.clock.now_ms(),
        active_ms: interp.clock.active_ms(),
        loops_ms,
        engine,
        dom,
        console: interp.console.clone(),
        steps: Vec::new(),
        source: combined,
        obs: RunObs {
            spans: vec![
                wall_span("parse", 0, (s.parse_ms * 1e3) as u64),
                wall_span("rewrite", 0, ((s.rewrite_ms + s.codegen_ms) * 1e3) as u64),
                wall_span("interp", ticks, (interp_ms * 1e3) as u64),
            ],
            counters,
            wall_start_us: 0,
        },
    };
    let (report, ms) = tr.span(run, "analyze", "app", || {
        AppReport::from_run(&input.app, &input.slug, mode, &run_record)
    });
    s.analyze_ms = ms;
    let (report_json, ms) = tr.span(run, "report", "app", || {
        serde_json::to_string(&report.canonical()).expect("AppReport serializes")
    });
    s.report_ms = ms;
    s.total_ms = root.elapsed().as_secs_f64() * 1e3;
    tr.spans.push(Span {
        run,
        name: "app",
        parent: None,
        start_us: root_start_us,
        end_us: tr.now_us(),
    });
    Ok(Traced {
        report_json,
        steps: s,
    })
}

/// A traced pass over a set of inputs.
pub struct TracedPass {
    /// Steps summed over the inputs.
    pub steps: Steps,
    /// Per-input root-span time, ms.
    pub latencies: Vec<f64>,
    /// Canonical report JSON per input.
    pub reports: Vec<String>,
}

/// Trace every input once; run ids count up from `run_base`.
pub fn trace_pass(
    inputs: &[Input],
    mode: Mode,
    tr: &mut Tracer,
    run_base: u64,
) -> Result<TracedPass, String> {
    let mut pass = TracedPass {
        steps: Steps::default(),
        latencies: Vec::new(),
        reports: Vec::new(),
    };
    for (i, input) in inputs.iter().enumerate() {
        let t = trace_app(input, mode, run_base + i as u64, tr)?;
        pass.latencies.push(t.steps.total_ms);
        pass.steps.add(&t.steps);
        pass.reports.push(t.report_json);
    }
    Ok(pass)
}
