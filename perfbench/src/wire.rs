//! A `jsceresd` client: start and stop the daemon, send request lines,
//! read frames, and judge each reply.
//!
//! The client behaves like an ordinary one: default socket options (no
//! `TCP_NODELAY`, no `TCP_QUICKACK`), one request in flight per
//! connection, and the slow-client class written in two parts with a
//! pause longer than the daemon's read poll. It must not hide the two
//! known defects it is there to show: the ≈44 ms reply floor and the
//! split-line failure.

use crate::expected::Expected;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Pause between the two writes of a slow-client request; the daemon
/// polls its read timeout every 200 ms.
pub const SLOW_PAUSE: Duration = Duration::from_millis(300);
/// How long the client waits for any one reply line before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Worker processes the daemon runs.
pub const WORKERS: usize = 2;

/// A running daemon started by the benchmark.
pub struct Daemon {
    child: Child,
    /// The daemon's own temporary directory, removed when it stops.
    tmp: PathBuf,
    /// `host:port` it listens on.
    pub addr: String,
    /// From spawning the process to every worker having answered a job.
    pub setup_s: f64,
}

/// The warm-up job sent to worker `w`: a registry app under a seed
/// outside the key pool, so it never shares a cache entry with the mix.
fn warmup_line(w: usize) -> String {
    format!("{{\"id\":\"warmup\",\"app\":\"harmony\",\"mode\":\"loop-profile\",\"seed\":{w}}}")
}

impl Daemon {
    /// Spawn `jsceresd` on a free loopback port with [`WORKERS`] worker
    /// processes and wait until it listens and every worker has answered
    /// a job (workers are spawned lazily, on their first job).
    /// Its temporary files (the spill queue) go in a directory of its
    /// own under `scratch`.
    pub fn start(bin: &Path, scratch: &Path) -> Result<Daemon, String> {
        static STARTED: AtomicU32 = AtomicU32::new(0);
        let tmp = scratch.join(format!(
            "jsceresd-{}-{}",
            std::process::id(),
            STARTED.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .env("TMPDIR", &tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut first = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout)
            .read_line(&mut first)
            .map_err(|e| format!("daemon did not report its address: {e}"))?;
        let addr = match first.trim().strip_prefix("listening on ") {
            Some(a) => a.to_string(),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("unexpected daemon greeting `{}`", first.trim()));
            }
        };
        let mut daemon = Daemon {
            child,
            tmp,
            addr,
            setup_s: 0.0,
        };
        // One job per worker, in flight together, so both worker threads
        // take one and spawn their process.
        let answers: Vec<Result<String, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let addr = &daemon.addr;
                    s.spawn(move || {
                        let mut c = Conn::open(addr)?;
                        c.send(&warmup_line(w), false).map_err(|e| e.to_string())?;
                        c.read_line().map(|(l, _)| l).map_err(|e| e.to_string())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up thread panicked"))
                .collect()
        });
        for a in answers {
            match a {
                Ok(line) if line.contains("\"ok\":true") => {}
                Ok(line) => return Err(format!("warm-up job failed: {line}")),
                Err(e) => return Err(format!("warm-up job failed: {e}")),
            }
        }
        daemon.setup_s = t0.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// Pids of the daemon's worker processes.
    fn worker_pids(&self) -> Vec<u32> {
        let mut pids = Vec::new();
        let tasks = PathBuf::from(format!("/proc/{}/task", self.child.id()));
        for task in std::fs::read_dir(tasks).into_iter().flatten().flatten() {
            let children =
                std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
            pids.extend(
                children
                    .split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
        pids
    }

    /// Peak resident set of the daemon plus each of its workers, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let mut kb = peak_rss_kb(self.child.id());
        for pid in self.worker_pids() {
            kb += peak_rss_kb(pid);
        }
        kb as f64 / 1024.0
    }

    /// Ask the daemon to drain and exit, and wait for it and its workers.
    pub fn stop(mut self) -> Result<(), String> {
        let workers = self.worker_pids();
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.send("{\"op\":\"shutdown\"}", false);
            let _ = c.read_line();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        // Workers exit on stdin EOF once the daemon is gone; wait for it.
        for pid in workers {
            let proc_dir = PathBuf::from(format!("/proc/{pid}"));
            let until = Instant::now() + Duration::from_secs(10);
            while proc_dir.exists() && Instant::now() < until {
                std::thread::sleep(Duration::from_millis(5));
            }
            if proc_dir.exists() {
                return Err(format!("worker {pid} outlived the daemon"));
            }
        }
        std::fs::remove_dir_all(&self.tmp).map_err(|e| format!("{}: {e}", self.tmp.display()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// `VmHWM` of a process, in kB (0 if it is gone).
pub fn peak_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect with default socket options.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line; a slow send writes the first half, pauses
    /// [`SLOW_PAUSE`], then writes the rest. Returns when the first byte
    /// was handed to the socket.
    pub fn send(&mut self, line: &str, slow: bool) -> std::io::Result<Instant> {
        let t = Instant::now();
        if slow {
            let mut cut = line.len() / 2;
            while !line.is_char_boundary(cut) {
                cut += 1;
            }
            self.writer.write_all(&line.as_bytes()[..cut])?;
            std::thread::sleep(SLOW_PAUSE);
            self.writer.write_all(&line.as_bytes()[cut..])?;
            self.writer.write_all(b"\n")?;
        } else {
            let mut buf = Vec::with_capacity(line.len() + 1);
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            self.writer.write_all(&buf)?;
        }
        Ok(t)
    }

    /// Read one reply line and the time it arrived.
    pub fn read_line(&mut self) -> std::io::Result<(String, Instant)> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        let t = Instant::now();
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok((line.trim_end().to_string(), t))
    }
}

/// One frame as the client saw it.
#[derive(Debug, Clone)]
pub struct Seen {
    /// The line as received.
    pub line: String,
    /// Arrival time.
    pub at: Instant,
}

/// What one request came to.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A terminal `ok` reply whose result matches the expected answer.
    Ok {
        /// Served from the daemon's cache.
        cached: bool,
    },
    /// Could not connect, send, or read (refused or dropped).
    Refused(String),
    /// A terminal reply with `ok:false`: the daemon's own error.
    ErrorReply(String),
    /// The stream ended or broke without a terminal frame, or its `seq`
    /// numbers had a gap.
    Broken(String),
    /// An `ok` reply whose result differs from the expected answer: a
    /// silent wrong answer.
    Wrong(String),
}

impl Verdict {
    /// Whether the operation counts as failed.
    pub fn failed(&self) -> bool {
        !matches!(self, Verdict::Ok { .. })
    }

    /// Whether the output is wrong rather than absent: a mismatched
    /// answer or a protocol violation. Error replies and refusals are
    /// failures the client is told about; these are not.
    pub fn incorrect(&self) -> bool {
        matches!(self, Verdict::Wrong(_) | Verdict::Broken(_))
    }

    /// Whether the run's output is wrong for a request of this kind. A
    /// slow-client request may fail (the split-line defect), as long as
    /// it fails openly; any other request must get its stored answer,
    /// so an error reply or a refusal there is wrong too.
    pub fn incorrect_for(&self, slow: bool) -> bool {
        self.incorrect() || (self.failed() && !slow)
    }
}

/// The result fragment of a terminal line: everything after the
/// envelope's `"cached":<bool>,` up to the closing brace.
pub fn result_fragment(line: &str) -> Option<&str> {
    for marker in ["\"cached\":true,", "\"cached\":false,"] {
        if let Some(at) = line.find(marker) {
            return line[at + marker.len()..].strip_suffix('}');
        }
    }
    None
}

/// Judge the frames a request received. `frames` holds every line read
/// for the request, in order; `io_error` is set when reading stopped on
/// an error instead of a terminal frame.
pub fn judge(
    frames: &[Seen],
    io_error: Option<&str>,
    stream: bool,
    id: &str,
    answer_id: &str,
    expected: &Expected,
) -> Verdict {
    let Some(last) = frames.last() else {
        return Verdict::Refused(io_error.unwrap_or("no reply").to_string());
    };
    let parsed: Vec<Option<serde_json::Value>> = frames
        .iter()
        .map(|f| serde_json::from_str(&f.line).ok())
        .collect();
    if parsed.iter().any(Option::is_none) {
        return Verdict::Broken("a reply line is not JSON".to_string());
    }
    let parsed: Vec<serde_json::Value> = parsed.into_iter().flatten().collect();
    let terminal = parsed.last().expect("frames is not empty");
    if stream {
        for (i, f) in parsed.iter().enumerate() {
            if field(f, &["seq"]).and_then(|x| x.as_u64()) != Some(i as u64 + 1) {
                // A bad request is refused before the stream starts, as
                // a one-shot error envelope.
                if parsed.len() == 1 && flag(f, "ok") == Some(false) {
                    return Verdict::ErrorReply(error_text(f));
                }
                return Verdict::Broken(format!("seq gap at frame {}", i + 1));
            }
        }
        let kind = text(terminal, "type").unwrap_or("");
        if kind != "result" && kind != "error" {
            return Verdict::Broken(io_error.unwrap_or("no terminal frame").to_string());
        }
    } else if io_error.is_some() || parsed.len() != 1 {
        return Verdict::Broken(io_error.unwrap_or("extra reply lines").to_string());
    }
    if flag(terminal, "ok") != Some(true) {
        return Verdict::ErrorReply(error_text(terminal));
    }
    if text(terminal, "id") != Some(id) {
        return Verdict::Wrong(format!(
            "reply id {:?} for request {id}",
            text(terminal, "id")
        ));
    }
    match result_fragment(&last.line) {
        Some(fragment) if expected.matches(answer_id, fragment) => Verdict::Ok {
            cached: flag(terminal, "cached") == Some(true),
        },
        _ => Verdict::Wrong(format!(
            "result for {answer_id} differs from the expected answer"
        )),
    }
}

fn error_text(v: &serde_json::Value) -> String {
    text(v, "error").unwrap_or("error reply").to_string()
}

fn field<'a>(v: &'a serde_json::Value, path: &[&str]) -> Option<&'a serde_json::Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

fn text<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a str> {
    field(v, &[key]).and_then(|x| x.as_str())
}

fn flag(v: &serde_json::Value, key: &str) -> Option<bool> {
    field(v, &[key]).and_then(|x| x.as_bool())
}

/// Send one request and read until its terminal frame.
pub fn exchange(
    conn: &mut Conn,
    line: &str,
    slow: bool,
    stream: bool,
) -> (Instant, Vec<Seen>, Option<String>) {
    let sent = match conn.send(line, slow) {
        Ok(t) => t,
        Err(e) => return (Instant::now(), Vec::new(), Some(e.to_string())),
    };
    let mut frames = Vec::new();
    loop {
        match conn.read_line() {
            Ok((line, at)) => {
                let terminal = !stream
                    || line.contains("\"type\":\"result\"")
                    || line.contains("\"type\":\"error\"")
                    || !line.contains("\"type\":");
                frames.push(Seen { line, at });
                if terminal {
                    return (sent, frames, None);
                }
            }
            Err(e) => return (sent, frames, Some(e.to_string())),
        }
    }
}

/// Counters from the daemon's `stats` op.
#[derive(Debug, Clone, Default)]
pub struct DaemonStats {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Peak job-queue depth.
    pub queue_peak_depth: u64,
    /// Non-terminal frames written to streaming clients.
    pub frames_streamed: u64,
    /// Worker processes restarted after a crash.
    pub worker_restarts: u64,
}

impl DaemonStats {
    /// Fold in the counters of another daemon of the same run.
    pub fn add(&mut self, o: &DaemonStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.queue_peak_depth = self.queue_peak_depth.max(o.queue_peak_depth);
        self.frames_streamed += o.frames_streamed;
        self.worker_restarts += o.worker_restarts;
    }

    /// Hits over lookups.
    pub fn hit_share(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Fetch the `stats` op.
pub fn stats(addr: &str) -> Result<DaemonStats, String> {
    let mut c = Conn::open(addr)?;
    c.send("{\"op\":\"stats\",\"id\":\"stats\"}", false)
        .map_err(|e| e.to_string())?;
    let (line, _) = c.read_line().map_err(|e| e.to_string())?;
    let v: serde_json::Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
    let n = |a: &str, b: &str| field(&v, &[a, b]).and_then(|x| x.as_u64()).unwrap_or(0);
    Ok(DaemonStats {
        hits: n("cache", "hits"),
        misses: n("cache", "misses"),
        evictions: n("cache", "evictions"),
        queue_peak_depth: n("counters", "queue_peak_depth"),
        frames_streamed: n("counters", "frames_streamed"),
        worker_restarts: n("counters", "worker_restarts"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(lines: &[&str]) -> Vec<Seen> {
        lines
            .iter()
            .map(|l| Seen {
                line: l.to_string(),
                at: Instant::now(),
            })
            .collect()
    }

    fn answers(fragment: &str) -> Expected {
        Expected::parse(&crate::expected::render(
            &[],
            &[("k".to_string(), fragment.to_string())],
        ))
        .unwrap()
    }

    const FRAG: &str = "\"key\":\"ab\",\"report\":{\"x\":1}";

    #[test]
    fn one_shot_match_is_ok() {
        let e = answers(FRAG);
        let line = format!("{{\"schema\":1,\"id\":\"r1\",\"ok\":true,\"cached\":true,{FRAG}}}");
        let v = judge(&frames(&[&line]), None, false, "r1", "k", &e);
        assert_eq!(v, Verdict::Ok { cached: true });
        assert!(!v.failed());
    }

    #[test]
    fn wrong_answer_fails_and_is_incorrect() {
        let e = answers(FRAG);
        let line = "{\"schema\":1,\"id\":\"r1\",\"ok\":true,\"cached\":false,\"key\":\"zz\"}";
        let v = judge(&frames(&[line]), None, false, "r1", "k", &e);
        assert!(v.failed() && v.incorrect(), "{v:?}");
    }

    #[test]
    fn error_reply_is_wrong_unless_the_request_was_slow() {
        let e = answers(FRAG);
        let line = "{\"schema\":1,\"id\":\"\",\"ok\":false,\"cached\":false,\
                    \"error\":\"bad request: trailing characters at byte 6\"}";
        let v = judge(&frames(&[line]), None, false, "r1", "k", &e);
        assert!(matches!(v, Verdict::ErrorReply(_)) && v.failed() && !v.incorrect());
        // Allowed for a slow-client request only: any other request has
        // a stored answer, and an error instead of it is wrong.
        assert!(!v.incorrect_for(true));
        assert!(v.incorrect_for(false));
        // The same refusal arriving for a streamed request.
        let v = judge(&frames(&[line]), None, true, "r1", "k", &e);
        assert!(matches!(v, Verdict::ErrorReply(_)), "{v:?}");
        assert!(v.incorrect_for(false));
    }

    #[test]
    fn refused_request_fails() {
        let e = answers(FRAG);
        let v = judge(&[], Some("connection refused"), false, "r1", "k", &e);
        assert!(matches!(v, Verdict::Refused(_)) && v.failed());
        assert!(v.incorrect_for(false) && !v.incorrect_for(true));
        // A wrong answer is wrong whatever the request's kind.
        let wrong = Verdict::Wrong("differs".to_string());
        assert!(wrong.incorrect_for(true) && wrong.incorrect_for(false));
        assert!(!Verdict::Ok { cached: false }.incorrect_for(false));
    }

    #[test]
    fn stream_without_terminal_or_with_gap_fails() {
        let e = answers(FRAG);
        let acc = "{\"schema\":2,\"type\":\"accepted\",\"id\":\"r1\",\"seq\":1,\"queue_depth\":0}";
        let ph = "{\"schema\":2,\"type\":\"phase\",\"id\":\"r1\",\"seq\":2,\"phase\":\"parse\",\
                  \"start_ticks\":0,\"end_ticks\":0}";
        let res3 = format!(
            "{{\"schema\":2,\"type\":\"result\",\"id\":\"r1\",\"seq\":3,\"ok\":true,\"cached\":false,{FRAG}}}"
        );
        let res4 = res3.replace("\"seq\":3", "\"seq\":4");
        let ok = judge(&frames(&[acc, ph, &res3]), None, true, "r1", "k", &e);
        assert_eq!(ok, Verdict::Ok { cached: false });
        let cut = judge(&frames(&[acc, ph]), Some("eof"), true, "r1", "k", &e);
        assert!(matches!(cut, Verdict::Broken(_)) && cut.failed(), "{cut:?}");
        let gap = judge(&frames(&[acc, ph, &res4]), None, true, "r1", "k", &e);
        assert!(matches!(gap, Verdict::Broken(_)) && gap.failed(), "{gap:?}");
    }

    #[test]
    fn fragment_is_the_envelope_tail() {
        let line = format!("{{\"schema\":1,\"id\":\"a\",\"ok\":true,\"cached\":false,{FRAG}}}");
        assert_eq!(result_fragment(&line), Some(FRAG));
    }
}
