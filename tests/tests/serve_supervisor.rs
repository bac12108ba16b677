//! Integration tests for the multi-process serving architecture: worker
//! crash isolation (a dying worker process costs one job, never the
//! daemon), injected faults contained inside the worker, spill-queue
//! admission under overflow, and the drain-flush → restart-replay
//! lifecycle. The operator-facing story these tests pin down is in
//! `docs/OPERATIONS.md`.

mod common;

use ceres_core::ServeConfig;
use common::{payload_tail, roundtrip, start, tmpdir};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fault isolation

/// Injected faults run under the worker's own supervisor and never touch
/// the cache: a panic is contained and reported, a transient error
/// clears on retry without its result being stored, and a warm entry
/// never short-circuits a later injected request.
#[test]
fn injected_faults_exercise_the_supervisor_and_skip_the_cache() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();

    // A panic is contained and reported, not fatal to the worker.
    let p = roundtrip(addr, r#"{"source":"var x;","inject":"panic"}"#);
    assert!(p.contains("\"status\":\"panicked\""), "{p}");
    assert!(p.contains("\"ok\":false"), "{p}");

    // A transient error clears on retry; the result is real but must
    // not be cached (attempts differ from a clean run).
    let e = roundtrip(addr, r#"{"source":"var x;","inject":"error"}"#);
    assert!(e.contains("\"status\":\"ok\""), "{e}");
    assert!(e.contains("\"attempts\":2"), "{e}");
    let clean = roundtrip(addr, r#"{"source":"var x;"}"#);
    assert!(
        clean.contains("\"cached\":false"),
        "injected result leaked: {clean}"
    );
    assert!(clean.contains("\"attempts\":1"), "{clean}");

    // And the reverse leak: a warm cache entry must not short-circuit
    // a later injected request — the fault has to actually run.
    let e2 = roundtrip(addr, r#"{"source":"var x;","inject":"error"}"#);
    assert!(e2.contains("\"cached\":false"), "{e2}");
    assert!(e2.contains("\"attempts\":2"), "{e2}");

    let counters = server.counters();
    assert_eq!(counters.jobs_failed, 1, "{counters:?}");
    assert_eq!(counters.jobs_ok, 3, "{counters:?}");
    assert_eq!(counters.worker_restarts, 0, "{counters:?}");
    server.shutdown();
}

/// `inject:"crash"` aborts the worker *process* mid-job. The job must
/// fail cleanly (status `worker-crashed`), the supervisor must report
/// the restart, and the daemon must keep serving — including on the very
/// slot that crashed — with byte-identical results afterwards.
#[test]
fn worker_crash_during_job_fails_cleanly_and_daemon_keeps_serving() {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // A clean job before the crash, for the byte-identity comparison.
    let before = roundtrip(
        addr,
        r#"{"id":"b","source":"var k = 0; for (var i = 0; i < 9; i++) { k += i; }","mode":"dependence"}"#,
    );
    assert!(before.contains("\"ok\":true"), "{before}");

    // Kill a worker mid-job.
    let crash = roundtrip(addr, r#"{"id":"x","source":"var q = 1;","inject":"crash"}"#);
    assert!(crash.contains("\"ok\":false"), "{crash}");
    assert!(
        crash.contains("\"status\":\"worker-crashed\""),
        "crash must be attributed to the worker process: {crash}"
    );

    // The daemon is still serving, and a fresh worker answers with the
    // exact bytes the pre-crash worker produced (cached — but also
    // re-runnable: a different source gives a cold run on the respawned
    // worker).
    let warm = roundtrip(
        addr,
        r#"{"id":"b2","source":"var k = 0; for (var i = 0; i < 9; i++) { k += i; }","mode":"dependence"}"#,
    );
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(payload_tail(&before), payload_tail(&warm));
    let cold2 = roundtrip(
        addr,
        r#"{"id":"c","source":"var z = 0; for (var i = 0; i < 7; i++) { z += i * i; }","mode":"dependence"}"#,
    );
    assert!(
        cold2.contains("\"ok\":true"),
        "respawned worker must run new jobs: {cold2}"
    );

    let counters = server.counters();
    assert!(
        counters.worker_restarts >= 1,
        "the crash must be counted as a restart: {counters:?}"
    );
    assert_eq!(counters.jobs_failed, 1, "{counters:?}");
    server.shutdown();
}

/// In-flight jobs on *other* workers survive a crash on one worker: fire
/// a crash and real work concurrently; every non-crash client gets its
/// answer.
#[test]
fn crash_on_one_worker_does_not_disturb_jobs_on_others() {
    let server = start(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for i in 0..4 {
        let req = format!(
            r#"{{"id":"job-{i}","source":"var v{i} = 0; for (var i = 0; i < {n}; i++) {{ v{i} += i; }}","mode":"dependence"}}"#,
            n = 40 + i
        );
        handles.push(std::thread::spawn(move || roundtrip(addr, &req)));
    }
    let crash = std::thread::spawn(move || {
        roundtrip(
            addr,
            r#"{"id":"boom","source":"var c = 1;","inject":"crash"}"#,
        )
    });

    for h in handles {
        let r = h.join().unwrap();
        assert!(
            r.contains("\"ok\":true"),
            "non-crash job must complete despite a concurrent worker crash: {r}"
        );
    }
    let c = crash.join().unwrap();
    assert!(c.contains("\"worker-crashed\""), "{c}");
    assert_eq!(server.counters().jobs_ok, 4);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Spill queue under overflow

/// A burst far past the in-memory ring must spill to disk, keep FIFO
/// admission order, route every reply to the right client, and reject
/// nobody.
#[test]
fn overflow_spills_fifo_and_replies_route_to_the_right_clients() {
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    let handles: Vec<_> = (0..10)
        .map(|i| {
            let req = format!(
                r#"{{"id":"burst-{i}","source":"var w{i} = 0; for (var i = 0; i < {n}; i++) {{ w{i} += i; }}","mode":"dependence"}}"#,
                n = 30 + i
            );
            std::thread::spawn(move || (i, roundtrip(addr, &req)))
        })
        .collect();

    let mut fingerprints = std::collections::HashSet::new();
    for h in handles {
        let (i, r) = h.join().unwrap();
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(
            r.contains(&format!("\"id\":\"burst-{i}\"")),
            "reply must route back to its own client: {r}"
        );
        // Distinct sources ⇒ distinct cache keys; a crossed reply would
        // collapse two ids onto one fingerprint.
        let tail = payload_tail(&r);
        let fp = tail["\"key\":\"".len()..]
            .split('"')
            .next()
            .unwrap()
            .to_string();
        assert!(
            fingerprints.insert(fp),
            "two clients saw the same payload: {r}"
        );
    }
    let counters = server.counters();
    assert!(
        counters.jobs_spilled > 0,
        "a burst of 10 into a ring of 2 with one worker must spill: {counters:?}"
    );
    assert!(counters.spill_peak_depth > 0, "{counters:?}");
    assert_eq!(counters.rejected_queue_full, 0, "{counters:?}");
    assert_eq!(counters.jobs_ok, 10, "{counters:?}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Drain flush → restart replay

/// Graceful drain must not silently drop accepted jobs: a client's
/// `shutdown` op starts the drain, and with a persistent spill directory
/// the queued tail is flushed to disk and its clients told explicitly;
/// a restarted daemon replays the backlog into its cache so a retry is
/// a warm hit.
#[test]
fn drain_flushes_the_tail_and_restart_replays_it_into_the_cache() {
    let spill_dir = tmpdir("drain-replay");
    let config = ServeConfig {
        workers: 1,
        spill_dir: Some(spill_dir.clone()),
        ..ServeConfig::default()
    };

    // Phase 1: accept a burst, then drain before one worker can finish
    // it. The tail lands in the spill file; every still-waiting client
    // hears "draining", never silence.
    let server = start(config.clone());
    let addr = server.local_addr();
    let reqs: Vec<String> = (0..6)
        .map(|i| {
            format!(
                r#"{{"id":"d-{i}","source":"var d{i} = 0; for (var i = 0; i < {n}; i++) {{ d{i} += i; }}","mode":"dependence"}}"#,
                n = 200 + i
            )
        })
        .collect();
    let handles: Vec<_> = reqs
        .iter()
        .map(|req| {
            let req = req.clone();
            std::thread::spawn(move || roundtrip(addr, &req))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60));
    let bye = roundtrip(addr, r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    let drained = server.join();
    assert!(drained.requests >= 1, "{drained:?}");
    let mut drained_notices = 0;
    for h in handles {
        let r = h.join().unwrap();
        assert!(
            r.contains("\"ok\":true") || r.contains("draining"),
            "every accepted client gets a definitive answer: {r}"
        );
        if r.contains("flushed to the spill queue") {
            drained_notices += 1;
        }
    }

    // Phase 2: a fresh daemon on the same spill dir replays the backlog.
    let server2 = start(config);
    let addr2 = server2.local_addr();
    let deadline = Instant::now() + Duration::from_secs(120);
    if drained_notices > 0 {
        assert!(
            server2.counters().spill_replayed > 0,
            "flushed jobs must be replayed on restart"
        );
        // Wait for the replay to execute.
        while server2.counters().jobs_ok < server2.counters().spill_replayed {
            assert!(Instant::now() < deadline, "replay did not finish");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    // Every request from phase 1 is now served — flushed ones from the
    // replayed cache, completed ones after one cold run.
    for req in &reqs {
        let r = roundtrip(addr2, req);
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&spill_dir);
}
