//! Worker *process* supervision for `jsceresd`.
//!
//! `catch_unwind` contains a Rust panic, but a segfault-class failure
//! (stack overflow in native code, an `abort`, an OOM kill) would take
//! the whole daemon — and its queue, cache, and every connected client —
//! down with it. The Servo experience report (arXiv:1505.07383) names
//! the fix: make the **process** the isolation boundary. `jsceresd`
//! runs every analyze job in a worker process, and this module
//! implements that:
//!
//! * [`WorkerSpec`] describes how to start one analysis worker — in
//!   production, `jsceresd --worker …`, the daemon re-executing itself.
//! * [`worker_serve_stdio`] is the worker side: a loop that reads one
//!   line-JSON job per line on stdin, runs it through the same
//!   [`crate::fleet::supervise`] machinery a fleet job gets (so retry,
//!   tick watchdog, and panic containment still work *inside* the
//!   worker), and writes one [`WorkerResponse`] line on stdout.
//! * [`WorkerSlot`] is the supervisor side: each serve worker thread
//!   owns one slot, which owns (at most) one child process. A child
//!   that dies mid-job costs exactly that job: the slot reaps it,
//!   respawns with bounded exponential backoff, retries the job once on
//!   the fresh child, and otherwise fails the job cleanly while the
//!   daemon keeps serving.
//!
//! The worker protocol deliberately reuses the public wire vocabulary:
//! the job line is a normal [`crate::serve::AnalysisRequest`] (with the
//! options already resolved to explicit values by the supervisor, so a
//! worker's own defaults can never skew the cache key), and the
//! response fragment is built by [`crate::serve::result_fragment`] —
//! the exact bytes the supervisor caches and a warm hit replays.
//!
//! Each line a worker writes is one serde-encoded [`WorkerLine`]. For a
//! `stream:true` job the pipe carries *multiple* lines: zero or more
//! [`WorkerLine::Frame`] lines (`phase` and `partial` frames) followed
//! by exactly one terminal [`WorkerLine::Done`]. The
//! supervisor multiplexes the frame lines back to the right client
//! connection ([`WorkerSlot::run`]'s `on_frame` callback); a worker
//! that crashes mid-stream hits the ordinary crash path — the job is
//! retried once on a fresh child (which re-emits its frames) or failed
//! cleanly. Worker-side, a per-job stdout gate closes before the
//! terminal line is written, so a runner thread abandoned by the wall
//! watchdog can never interleave a stray frame into the next job's
//! response.

#![deny(missing_docs)]

use crate::fleet::{supervise, JobWork};
use crate::obs::Progress;
use crate::serve::{
    job_fragment, resolve_job_line, result_fragment, write_line, Frame, Resolver, ServeConfig,
};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// How a worker process is started.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Executable to spawn (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments — normally `--worker` plus the resolved serve defaults,
    /// so the child computes identical options (and cache keys) for
    /// every job.
    pub args: Vec<String>,
}

/// The finished job, as the terminal line of worker stdout reports it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerResponse {
    /// Whether the job produced a report.
    pub ok: bool,
    /// Interpreter ticks this job spent (0 for failures without reports).
    pub ticks: u64,
    /// The response payload fragment, which the supervisor caches and
    /// forwards unchanged.
    pub fragment: String,
}

/// One line of worker stdout: a frame streamed mid-job, or the job's
/// terminal response.
#[derive(Debug, Serialize, Deserialize)]
pub enum WorkerLine {
    /// A `phase` or `partial` frame, forwarded to a streaming client.
    Frame(Frame),
    /// The finished job; ends the job's lines.
    Done(WorkerResponse),
}

/// Map a pipeline progress event to its streamed frame, if it has one.
/// The supervisor's parse stage already emitted `parse`/`rewrite` (the
/// worker re-lowers from source and would re-record them), and
/// sub-spans like `interp.compile` are an implementation detail — so
/// the worker streams `interp`/`analyze`/`report` phases plus the
/// `partial` timing row.
fn frame_for_progress(p: &Progress) -> Option<Frame> {
    match p {
        Progress::Phase(span) => match span.phase.as_str() {
            "interp" | "analyze" | "report" => Some(Frame::Phase {
                phase: span.phase.clone(),
                start_ticks: span.start_ticks,
                end_ticks: span.end_ticks,
            }),
            _ => None,
        },
        Progress::Partial(timing) => Some(Frame::Partial(timing.clone())),
    }
}

/// Base respawn backoff after a worker crash; doubles per consecutive
/// crash up to [`MAX_BACKOFF`], and resets after a successful job.
const BASE_BACKOFF: Duration = Duration::from_millis(50);
/// Backoff ceiling — a crash-looping worker never locks the slot out for
/// more than this per respawn.
const MAX_BACKOFF: Duration = Duration::from_secs(2);
/// Spawn attempts per job before declaring the slot unavailable.
const SPAWN_TRIES: u32 = 3;
/// Job attempts across worker crashes: the job is retried once on a
/// fresh worker, then failed cleanly.
const JOB_TRIES: u32 = 2;

/// A live child process with its pipe pair.
struct WorkerChild {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl WorkerChild {
    fn spawn(spec: &WorkerSpec) -> std::io::Result<WorkerChild> {
        let mut child = Command::new(&spec.program)
            .args(&spec.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            // stderr inherits: worker panics and watchdog chatter land in
            // the daemon's stderr where the operator can see them.
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(WorkerChild {
            child,
            stdin,
            stdout,
        })
    }

    /// Send one job line and block for the terminal response line,
    /// forwarding any interleaved frame lines to `on_frame` as they
    /// arrive. Any I/O error (including EOF — the child died) is a
    /// crash signal to the slot.
    fn send(
        &mut self,
        wire: &str,
        on_frame: &mut dyn FnMut(Frame),
    ) -> std::io::Result<WorkerResponse> {
        write_line(&mut self.stdin, wire)?;
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.stdout.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "worker process closed stdout mid-job",
                ));
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            match serde_json::from_str(trimmed) {
                Ok(WorkerLine::Frame(frame)) if !frame.is_terminal() => on_frame(frame),
                Ok(WorkerLine::Done(response)) => return Ok(response),
                other => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad worker line: {other:?}"),
                    ))
                }
            }
        }
    }

    /// OS pid (for logs and the ops manual's kill-a-worker drills).
    fn id(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for WorkerChild {
    fn drop(&mut self) {
        // Closing stdin asks the worker loop to exit; give it a moment,
        // then make sure it is gone and reaped either way.
        let _ = self.stdin.flush();
        for _ in 0..20 {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The result of asking a slot to run one job.
#[derive(Debug)]
pub enum SlotOutcome {
    /// The worker answered.
    Done(WorkerResponse),
    /// The worker process died on every attempt; the job failed but the
    /// daemon (and the slot, after respawn) keep going.
    Crashed {
        /// Job attempts consumed (each on a fresh worker).
        attempts: u32,
    },
    /// The worker binary cannot be spawned at all (missing binary, fork
    /// failure). The job fails; admission stays up.
    Unavailable(String),
}

/// Supervisor-side handle owned by one serve worker thread: at most one
/// child process, plus the restart bookkeeping.
pub struct WorkerSlot {
    spec: WorkerSpec,
    child: Option<WorkerChild>,
    consecutive_crashes: u32,
    restarts: u64,
}

impl WorkerSlot {
    /// A slot for `spec`; the child is spawned lazily on the first job.
    pub fn new(spec: WorkerSpec) -> WorkerSlot {
        WorkerSlot {
            spec,
            child: None,
            consecutive_crashes: 0,
            restarts: 0,
        }
    }

    /// Total worker respawns this slot has performed.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Current child pid, if one is running.
    pub fn child_id(&self) -> Option<u32> {
        self.child.as_ref().map(WorkerChild::id)
    }

    fn backoff(&self) -> Duration {
        let shift = self.consecutive_crashes.saturating_sub(1).min(6);
        MAX_BACKOFF.min(BASE_BACKOFF * (1u32 << shift))
    }

    fn ensure_child(&mut self) -> Result<(), String> {
        if self.child.is_some() {
            return Ok(());
        }
        let mut last_err = String::new();
        for attempt in 0..SPAWN_TRIES {
            match WorkerChild::spawn(&self.spec) {
                Ok(c) => {
                    self.child = Some(c);
                    return Ok(());
                }
                Err(e) => {
                    last_err = e.to_string();
                    if attempt + 1 < SPAWN_TRIES {
                        std::thread::sleep(BASE_BACKOFF * (attempt + 1));
                    }
                }
            }
        }
        Err(format!(
            "cannot spawn worker `{}`: {last_err}",
            self.spec.program.display()
        ))
    }

    /// Run one job (a wire-format request line). Frame lines the worker
    /// streams mid-job are handed to `on_frame` as they arrive (pass a
    /// no-op for one-shot jobs); the terminal response is the return
    /// value. A job retried on a fresh worker after a crash re-emits
    /// its frames — clients see duplicate phases, never a lost
    /// terminal. Returns the outcome plus the number of worker restarts
    /// this call performed — the caller feeds that into the
    /// `worker_restarts` counter.
    pub fn run(&mut self, wire: &str, on_frame: &mut dyn FnMut(Frame)) -> (SlotOutcome, u64) {
        let mut restarts_this_call = 0u64;
        for attempt in 1..=JOB_TRIES {
            if let Err(e) = self.ensure_child() {
                return (SlotOutcome::Unavailable(e), restarts_this_call);
            }
            let child = self.child.as_mut().expect("ensured child");
            match child.send(wire, on_frame) {
                Ok(resp) => {
                    self.consecutive_crashes = 0;
                    return (SlotOutcome::Done(resp), restarts_this_call);
                }
                Err(_) => {
                    // The child died (or broke protocol) mid-job: reap
                    // it, back off boundedly, and either retry the job on
                    // a fresh worker or fail it cleanly.
                    self.child = None;
                    self.consecutive_crashes += 1;
                    self.restarts += 1;
                    restarts_this_call += 1;
                    if attempt < JOB_TRIES {
                        std::thread::sleep(self.backoff());
                    }
                }
            }
        }
        (
            SlotOutcome::Crashed {
                attempts: JOB_TRIES,
            },
            restarts_this_call,
        )
    }

    /// Drop the child (graceful: stdin EOF, then kill as a last resort).
    pub fn shutdown(&mut self) {
        self.child = None;
    }
}

/// The worker side of the protocol: serve jobs from stdin to stdout
/// until EOF. This is what `jsceresd --worker` runs. Each job line is an
/// [`AnalysisRequest`] with options already made explicit by the
/// supervisor; each response line is a [`WorkerResponse`].
///
/// Inside the worker, jobs still run under [`supervise`] — the tick
/// watchdog, wall backstop, transient-error retry, and `catch_unwind`
/// all apply — so the *process* boundary is reserved for the failures
/// those cannot contain. `inject:"crash"` aborts the worker process on
/// purpose (see [`crate::serve::inject_fault`]; the supervised-crash
/// drill used by tests and `scripts/serve_smoke.sh`).
pub fn worker_serve_stdio(config: &ServeConfig, resolver: &Resolver) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut line = String::new();
    loop {
        line.clear();
        let n = stdin.lock().read_line(&mut line)?;
        if n == 0 {
            return Ok(()); // supervisor closed our stdin: clean exit
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        send_line(&mut stdout, &run_one_job(trimmed, config, resolver))?;
    }
}

/// Write one line to the supervisor pipe and flush it.
fn send_line(out: &mut impl Write, line: &WorkerLine) -> std::io::Result<()> {
    let text = serde_json::to_string(line).expect("worker lines serialize");
    write_line(out, &text)
}

/// Wrap a job's work so each supervised attempt emits frame lines to
/// this process's stdout — but only while the per-job gate is open, and
/// only while *holding* the gate lock, so closing the gate (which
/// [`run_one_job`] does before rendering the terminal line) both blocks
/// on any in-flight write and silences stragglers. Without the gate, a
/// runner thread abandoned by the wall watchdog could write a frame
/// *after* the terminal response and desync the pipe into the next
/// job's stream.
fn streamed_stdio_work(inner: JobWork, gate: Arc<Mutex<bool>>) -> JobWork {
    Arc::new(move |worker, attempt| {
        let gate = Arc::clone(&gate);
        let _guard = crate::obs::install_progress_sink(Box::new(move |p| {
            let Some(frame) = frame_for_progress(p) else {
                return;
            };
            let open = gate.lock().unwrap_or_else(PoisonError::into_inner);
            if *open {
                let _ = send_line(&mut std::io::stdout().lock(), &WorkerLine::Frame(frame));
            }
        }));
        inner(worker, attempt)
    })
}

/// Run one job line — streaming frames to stdout when the job asks for
/// it — and return its terminal worker line.
fn run_one_job(wire: &str, config: &ServeConfig, resolver: &Resolver) -> WorkerLine {
    let (prepared, stream) = match resolve_job_line(wire, config, resolver) {
        Ok(p) => p,
        // A job line that never resolved to a job.
        Err(e) => {
            return WorkerLine::Done(WorkerResponse {
                ok: false,
                ticks: 0,
                fragment: job_fragment("", "", "", "failed", 0, Err(&e)),
            })
        }
    };
    let mut job = prepared.job;
    let gate = Arc::new(Mutex::new(true));
    if stream {
        job.work = streamed_stdio_work(job.work, Arc::clone(&gate));
    }
    let outcome = supervise(&job, 0, &config.policy);
    // Close the gate before the terminal line: blocks until any
    // in-flight frame write finishes, then stragglers no-op.
    *gate.lock().unwrap_or_else(PoisonError::into_inner) = false;
    let ticks = outcome
        .report
        .as_ref()
        .map(|r| r.obs.counters.interp_ticks)
        .unwrap_or(0);
    let (ok, fragment) = result_fragment(&prepared.key, &outcome);
    WorkerLine::Done(WorkerResponse {
        ok,
        ticks,
        fragment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_failure_is_reported_not_fatal() {
        let mut slot = WorkerSlot::new(WorkerSpec {
            program: PathBuf::from("/nonexistent/jsceresd-worker-binary"),
            args: vec!["--worker".to_string()],
        });
        let (outcome, restarts) = slot.run("{}", &mut |_| {});
        match outcome {
            SlotOutcome::Unavailable(e) => assert!(e.contains("cannot spawn"), "{e}"),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_eq!(restarts, 0, "spawn failures are not restarts");
    }

    #[test]
    fn crashing_command_burns_job_attempts_and_counts_restarts() {
        // `false` exits immediately: every send sees EOF ⇒ crash path.
        let mut slot = WorkerSlot::new(WorkerSpec {
            program: PathBuf::from("/bin/false"),
            args: vec![],
        });
        let (outcome, restarts) = slot.run("{\"op\":\"analyze\"}", &mut |_| {});
        match outcome {
            SlotOutcome::Crashed { attempts } => assert_eq!(attempts, JOB_TRIES),
            other => panic!("expected Crashed, got {other:?}"),
        }
        assert_eq!(restarts, JOB_TRIES as u64);
        assert_eq!(slot.restarts(), JOB_TRIES as u64);
        // The slot recovers for the next job (fresh spawn attempt).
        let (outcome2, _) = slot.run("{}", &mut |_| {});
        assert!(matches!(outcome2, SlotOutcome::Crashed { .. }));
    }

    #[test]
    fn echo_protocol_roundtrip_through_a_real_child() {
        // `cat` speaks the protocol trivially: echoes the job line back.
        // A terminal-line-shaped job line therefore parses as the
        // response — proving the pipe plumbing end to end.
        let mut slot = WorkerSlot::new(WorkerSpec {
            program: PathBuf::from("/bin/cat"),
            args: vec![],
        });
        let wire = serde_json::to_string(&WorkerLine::Done(WorkerResponse {
            ok: true,
            ticks: 7,
            fragment: "echoed".to_string(),
        }))
        .unwrap();
        let (outcome, restarts) = slot.run(&wire, &mut |_| {});
        match outcome {
            SlotOutcome::Done(resp) => {
                assert!(resp.ok);
                assert_eq!(resp.ticks, 7);
                assert_eq!(resp.fragment, "echoed");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(restarts, 0);
        assert!(slot.child_id().is_some());
        slot.shutdown();
        assert!(slot.child_id().is_none());
    }

    /// Every line kind a worker writes survives the pipe encoding: the
    /// frames a worker streams and a terminal response whose fragment
    /// needs escaping.
    #[test]
    fn worker_lines_round_trip_through_the_pipe_encoding() {
        let fragment = "\"key\":\"q\\\"u\\\\o\",\"error\":\"a\u{1}b\tc\nd\r é ✓ 😀\"";
        let lines = [
            WorkerLine::Frame(Frame::Phase {
                phase: "interp".to_string(),
                start_ticks: 3,
                end_ticks: 272,
            }),
            WorkerLine::Frame(Frame::Partial(crate::pipeline::Timing::new(
                0.136, 0.0, 0.122,
            ))),
            WorkerLine::Done(WorkerResponse {
                ok: false,
                ticks: u64::MAX,
                fragment: fragment.to_string(),
            }),
        ];
        for line in lines {
            let text = serde_json::to_string(&line).unwrap();
            assert!(!text.contains('\n'), "one line per message: {text}");
            let back: WorkerLine = serde_json::from_str(&text).unwrap();
            assert_eq!(format!("{back:?}"), format!("{line:?}"), "{text}");
        }
    }

    #[test]
    fn backoff_is_bounded() {
        let mut slot = WorkerSlot::new(WorkerSpec {
            program: PathBuf::from("/bin/false"),
            args: vec![],
        });
        slot.consecutive_crashes = 40;
        assert_eq!(slot.backoff(), MAX_BACKOFF);
        slot.consecutive_crashes = 1;
        assert_eq!(slot.backoff(), BASE_BACKOFF);
    }
}
