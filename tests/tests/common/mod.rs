//! Helpers shared by the serve integration tests: every test server
//! runs its jobs in worker processes started from the
//! `serve-worker-harness` bin, the production worker loop over the
//! workload registry (see `tests/bin/serve_worker_harness.rs`).

// Each test crate uses its own subset of these helpers.
#![allow(dead_code)]

use ceres_core::supervisor::WorkerSpec;
use ceres_core::{serve, ServeConfig, ServerHandle};
use ceres_workloads::registry_resolver;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The production worker loop, as a spawnable test binary.
pub fn harness_spec() -> WorkerSpec {
    WorkerSpec {
        program: PathBuf::from(env!("CARGO_BIN_EXE_serve-worker-harness")),
        args: Vec::new(),
    }
}

/// Start a server on a loopback port with worker processes from
/// [`harness_spec`].
pub fn start(config: ServeConfig) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let policy = config.policy.clone();
    serve(listener, config, registry_resolver(policy), harness_spec())
}

/// Send one request line and read one response line.
pub fn roundtrip(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("response");
    response.trim_end().to_string()
}

/// Everything after the request-specific prefix (`id`/`cached` differ
/// between cold and warm by design; the result payload must not).
pub fn payload_tail(response: &str) -> &str {
    let at = response.find("\"key\":").expect("key field in response");
    &response[at..]
}

/// A fresh scratch directory (std-only; no tempfile crate).
pub fn tmpdir(label: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ceres-serve-test-{label}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}
