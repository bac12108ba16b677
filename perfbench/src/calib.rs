//! The machine reference: a fixed native kernel whose time tracks how
//! fast the machine is running right now.
//!
//! On a shared 2-core machine the same pass of the same code takes from
//! 300 to 520 ms depending on what the neighbours do, in bursts of a few
//! seconds that last whole runs at times. A pass timed alone cannot tell
//! a slower program from a busier machine. The reference kernel — code
//! of this benchmark that the program never runs — slows down with the
//! machine, so timing it right before and after each measured unit and
//! scaling the unit by [`NOMINAL_MS`] over the reference time gives the
//! unit's time at a fixed machine speed.
//!
//! The kernel is built to be slowed by what slows the analysis: one
//! half is data-dependent, unpredictable branches over a small table
//! that stays in the core's caches (interpreter dispatch), the other
//! random updates and lookups in a hash map of 100,000 entries (the
//! engine's and the interpreter's maps). Measured in one 150 s run per
//! workload on a shared 2-core Xeon virtual machine, the coefficient of
//! variation of the median pass time over windows of passes was:
//!
//! | scaled by | fleet-loop (252 passes, 40 per window) | fleet-dep (140 passes, 20 per window) |
//! |---|---|---|
//! | nothing (raw) | 8.9% | 9.8% |
//! | the branch half alone | 2.6% | 6.7% |
//! | the hash-map half alone | 2.4% | 3.6% |
//! | both (this kernel) | 1.1% | 3.9% |
//!
//! A dependent walk through a 4 MB permutation, tried first, made the
//! fleet-loop figure vary more than the raw one (15% against 6.3% in an
//! earlier 150 s run).
//!
//! The kernel runs in a process of its own (`perfbench reference`),
//! which the benchmark asks for one timing at a time over a pipe. Its
//! memory is never shared with the program under test, so the heap, the
//! allocator arenas and the page tables a pass leaves behind cannot
//! move the reference; what the two share is the machine — cores,
//! caches and memory bandwidth — which is what the reference measures.
//! The traced run reports the unscaled figures next to the scaled ones,
//! so the correction can be checked.
//!
//! Scaled are the fleet passes, the fleet set-ups and the daemon
//! start-ups of serve-mix: CPU work, with nothing else of the benchmark
//! running. Serve-mix throughput is not: request time is partly
//! timer-bound (the ≈44 ms reply floor, the slow client's pause), so
//! scaling it by CPU speed would over-correct, and a reference run
//! beside the daemon would measure the workload's own load instead of
//! the neighbours'.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// Reference time the scaled figures are expressed at: about what the
/// kernel takes on a quiet machine of this kind.
pub const NOMINAL_MS: f64 = 34.0;

/// Table slots of the branch half (64 KB of `u64`: resident in the
/// core's caches).
const SLOTS: usize = 8192;
const BRANCH_STEPS: u64 = 1_000_000;
/// Distinct keys and operations of the hash-map half.
const MAP_KEYS: u64 = 100_000;
const MAP_STEPS: u64 = 250_000;

/// xorshift64: the branches taken on its output are unpredictable.
fn step(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Run the kernel once on fresh data; its wall time in ms.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut table = vec![0u64; SLOTS];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for k in 0..BRANCH_STEPS {
        let x = step(&mut x);
        let i = (x as usize) % SLOTS;
        match (x >> 20) % 5 {
            0 => table[i] = table[i].wrapping_add(k),
            1 => acc ^= table[i],
            2 => table[i] = table[i].rotate_left(3),
            3 => acc = acc.wrapping_add(table[(i + 1) % SLOTS].wrapping_mul(3)),
            _ => acc = acc.wrapping_sub(k),
        }
    }
    // A fixed hasher, so every reference process does the same work.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for k in 0..MAP_STEPS {
        let x = step(&mut x);
        *map.entry(x % MAP_KEYS).or_insert(0) += k;
        if x & 1 == 0 {
            acc ^= map.get(&((x >> 7) % MAP_KEYS)).copied().unwrap_or(0);
        }
    }
    std::hint::black_box((acc, table, map.len()));
    t.elapsed().as_secs_f64() * 1e3
}

/// `perfbench reference`: answer each line read from stdin with one
/// kernel time in ms, until stdin closes.
pub fn serve_reference() -> Result<(), String> {
    let stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        let mut out = stdout.lock();
        writeln!(out, "{}", kernel_ms())
            .and_then(|_| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A running reference process.
pub struct Reference {
    child: Child,
    pipe: Mutex<Option<(ChildStdin, BufReader<ChildStdout>)>>,
}

impl Reference {
    /// Start the reference process (this same binary).
    pub fn start() -> Result<Reference, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("reference")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the reference process: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Reference {
            child,
            pipe: Mutex::new(Some((stdin, stdout))),
        })
    }

    /// Run the kernel once in the reference process; its time in ms.
    pub fn time_ms(&self) -> f64 {
        let mut pipe = self.pipe.lock().expect("no reference user panics");
        let (stdin, stdout) = pipe.as_mut().expect("the reference process runs");
        let mut line = String::new();
        writeln!(stdin)
            .and_then(|_| stdin.flush())
            .and_then(|_| stdout.read_line(&mut line))
            .expect("the reference process answers");
        line.trim()
            .parse()
            .unwrap_or_else(|e| panic!("reference time `{}`: {e}", line.trim()))
    }

    /// Time `f`, bracketed by two reference runs; returns its result,
    /// its raw wall time and its time scaled to [`NOMINAL_MS`], in ms.
    pub fn scaled<T>(&self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.time_ms();
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64() * 1e3;
        let after = self.time_ms();
        (out, raw, raw * NOMINAL_MS / ((before + after) / 2.0))
    }
}

impl Drop for Reference {
    /// Close the pipe, which ends the reference process, and wait for it.
    fn drop(&mut self) {
        if let Ok(mut pipe) = self.pipe.lock() {
            pipe.take();
        }
        let _ = self.child.wait();
    }
}
