//! The metric sets every workload reports, and the result line.
//!
//! Every workload reports every metric of a set, under the same names,
//! so runs of different workloads line up column by column: with
//! tracing off the [`EndToEnd`] set, with tracing on the [`PerLayer`]
//! set. The names and units here are the ones `BENCHMARK.json` lists.

use crate::layers::Steps;
use ceres_instrument::ALL_HOOKS;

/// Latency reported for a percentile that falls on a failed operation:
/// a failure misses every latency limit, and JSON has no infinity.
pub const FAILED_MS: f64 = 1e9;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a user of the system sees. Operations are apps analyzed for the
/// fleet workloads and requests answered for serve-mix.
///
/// Only set-up time and throughput are gated end to end; the fleet
/// workloads report both at the reference machine speed (see
/// [`crate::calib`]). Peak memory and the
/// latency percentiles did not repeat within a tenth from run to run:
/// the fleet's peak RSS jumps between about 50 and 90 MB with the
/// allocator's arenas, the fleet median falls between two apps of very
/// different cost, and the serve-mix p90 on the steep edge between
/// library sources and the two slowest apps. They are reported with the
/// per-layer set instead.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Launch to ready for the first timed operation, median of several
    /// set-ups in the run.
    pub setup_s: f64,
    /// Successful operations per second.
    pub ops_per_s: f64,
    /// Median operation latency (failures as infinite).
    pub op_p50_ms: f64,
    /// 90th-percentile operation latency (failures as infinite).
    pub op_p90_ms: f64,
    /// Peak resident memory of the processes under test.
    pub peak_rss_mb: f64,
    /// `setup_s` before scaling to the reference machine speed (the
    /// same figure for serve-mix, which is not scaled).
    pub raw_setup_s: f64,
    /// `ops_per_s` before scaling.
    pub raw_ops_per_s: f64,
}

impl EndToEnd {
    /// The end-to-end set, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            m("setup_s", self.setup_s, "s"),
            m("ops_per_s", self.ops_per_s, "1/s"),
        ]
    }

    /// The end-to-end set plus memory and the latency percentiles.
    pub fn all(&self) -> Vec<Metric> {
        let mut v = self.metrics();
        v.push(m("peak_rss_mb", self.peak_rss_mb, "MB"));
        v.push(m("op_p50_ms", self.op_p50_ms, "ms"));
        v.push(m("op_p90_ms", self.op_p90_ms, "ms"));
        v
    }

    /// `self - other`, metric by metric.
    pub fn minus(&self, other: &EndToEnd) -> EndToEnd {
        EndToEnd {
            setup_s: self.setup_s - other.setup_s,
            ops_per_s: self.ops_per_s - other.ops_per_s,
            op_p50_ms: self.op_p50_ms - other.op_p50_ms,
            op_p90_ms: self.op_p90_ms - other.op_p90_ms,
            peak_rss_mb: self.peak_rss_mb - other.peak_rss_mb,
            raw_setup_s: self.raw_setup_s - other.raw_setup_s,
            raw_ops_per_s: self.raw_ops_per_s - other.raw_ops_per_s,
        }
    }

    /// Print as a tracing overhead (traced minus untraced).
    pub fn print_overhead(&self) {
        let parts: Vec<String> = self
            .all()
            .iter()
            .map(|x| format!("{} {:+.4} {}", x.name, x.value, x.unit))
            .collect();
        println!("tracing overhead (traced - untraced): {}", parts.join(", "));
    }
}

/// Latency percentile for the result line: the ≥10-beyond rule must
/// hold, and a percentile that lands on a failure reads [`FAILED_MS`].
pub fn latency(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let p = crate::stats::percentile(samples, q);
    match p.value {
        Some(v) if v.is_finite() => Ok(v),
        Some(_) => Ok(FAILED_MS),
        None => Err(format!(
            "{what}: {} samples are too few for p{:.0}",
            p.samples,
            q * 100.0
        )),
    }
}

/// Serve-layer figures, measured by a client against the daemon.
#[derive(Debug, Clone, Default)]
pub struct ServeLayer {
    /// Median `ping` round trip.
    pub ping_p50_ms: f64,
    /// Median send → `accepted` on streamed cold requests.
    pub admit_ms: f64,
    /// Median `accepted` → `rewrite` phase frame.
    pub front_ms: f64,
    /// Median `rewrite` phase → `partial` frame.
    pub exec_ms: f64,
    /// Median `partial` → terminal frame.
    pub tail_ms: f64,
    /// Mean `render_frame` time over the run's terminal frames.
    pub render_frame_us: f64,
    /// From the `stats` op.
    pub stats: crate::wire::DaemonStats,
    /// Mean `CacheKey::of` time over the workload's sources.
    pub key_us: f64,
    /// Mean `ShardedCache::lookup` time (hits) over the workload's keys.
    pub lookup_us: f64,
    /// Mean `ShardedCache::insert_or_get` time (fresh inserts).
    pub insert_us: f64,
    /// Median `WorkerSlot::run` round trip for a trivial job.
    pub slot_rt_ms: f64,
    /// Slow-client requests (a line split across the read poll) that
    /// failed, over those sent.
    pub split_line_fail_share: f64,
}

/// Per-layer figures of one traced run.
#[derive(Debug, Clone, Default)]
pub struct PerLayer {
    /// Median traced pass over the workload's source set.
    pub pass: Steps,
    /// Hook-call cost estimated across modes.
    pub hook_ns_est: f64,
    /// Untraced pass wall time minus the traced steps.
    pub fleet_overhead_ms: f64,
    /// Serve-layer figures.
    pub serve: ServeLayer,
    /// The untraced part of the run (for the latency percentiles).
    pub untraced: EndToEnd,
    /// Traced minus untraced, per end-to-end metric.
    pub overhead: EndToEnd,
}

impl PerLayer {
    /// The set, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let p = &self.pass;
        let mut v = vec![
            m("parser.parse_ms", p.parse_ms, "ms"),
            m(
                "parser.kb_per_ms",
                p.source_bytes as f64 / 1024.0 / p.parse_ms,
                "KB/ms",
            ),
            m("ast.number_ms", p.number_ms, "ms"),
            m("ast.codegen_ms", p.codegen_ms, "ms"),
            m("instrument.rewrite_ms", p.rewrite_ms, "ms"),
            m(
                "instrument.growth",
                p.instrumented_bytes as f64 / p.source_bytes as f64,
                "ratio",
            ),
            m("interp.compile_ms", p.compile_ms, "ms"),
            m("interp.exec_ms", p.exec_ms, "ms"),
            m("interp.ticks", p.ticks as f64, "count"),
            m(
                "interp.mticks_per_s",
                p.ticks as f64 / 1e6 / (p.exec_ms / 1e3),
                "Mticks/s",
            ),
        ];
        for (i, h) in ALL_HOOKS.iter().enumerate() {
            let short = h.trim_start_matches("__ceres_");
            v.push(m(
                format!("engine.hook_calls.{short}"),
                p.hooks[i] as f64,
                "count",
            ));
        }
        let s = &self.serve;
        v.extend([
            m("peak_rss_mb", self.untraced.peak_rss_mb, "MB"),
            m("op_p50_ms", self.untraced.op_p50_ms, "ms"),
            m("op_p90_ms", self.untraced.op_p90_ms, "ms"),
            m("unscaled.setup_s", self.untraced.raw_setup_s, "s"),
            m("unscaled.ops_per_s", self.untraced.raw_ops_per_s, "1/s"),
            m("engine.warnings", p.warnings as f64, "count"),
            m("engine.stack_pushes", p.stack_pushes as f64, "count"),
            m("engine.hook_ns_est", self.hook_ns_est, "ns"),
            m("analyze.ms", p.analyze_ms, "ms"),
            m("report.json_ms", p.report_ms, "ms"),
            m("fleet.overhead_ms", self.fleet_overhead_ms, "ms"),
            m("serve.ping_p50_ms", s.ping_p50_ms, "ms"),
            m("serve.admit_ms", s.admit_ms, "ms"),
            m("serve.front_ms", s.front_ms, "ms"),
            m("serve.exec_ms", s.exec_ms, "ms"),
            m("serve.tail_ms", s.tail_ms, "ms"),
            m("serve.render_frame_us", s.render_frame_us, "us"),
            m(
                "serve.queue_peak_depth",
                s.stats.queue_peak_depth as f64,
                "count",
            ),
            m(
                "serve.frames_streamed",
                s.stats.frames_streamed as f64,
                "count",
            ),
            m(
                "serve.split_line_fail_share",
                s.split_line_fail_share,
                "ratio",
            ),
            m("cache.hit_share", s.stats.hit_share(), "ratio"),
            m("cache.evictions", s.stats.evictions as f64, "count"),
            m("cache.key_us", s.key_us, "us"),
            m("cache.lookup_us", s.lookup_us, "us"),
            m("cache.insert_us", s.insert_us, "us"),
            m("supervisor.slot_rt_ms", s.slot_rt_ms, "ms"),
            m(
                "supervisor.worker_restarts",
                s.stats.worker_restarts as f64,
                "count",
            ),
        ]);
        for e in self.overhead.all() {
            v.push(m(format!("trace_overhead.{}", e.name), e.value, e.unit));
        }
        v
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No operation returned a wrong answer or broke the protocol.
    pub correct: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// The reported metric set.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|x| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    serde_json::to_string(&x.name).expect("a string serializes"),
                    serde_json::to_string(&x.value).expect("a float serializes"),
                    serde_json::to_string(x.unit).expect("a string serializes"),
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_sets_have_unique_names() {
        let mut names: Vec<String> = PerLayer::default()
            .metrics()
            .into_iter()
            .chain(EndToEnd::default().metrics())
            .map(|x| x.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn metric_sets_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |set: &str| -> Vec<(String, String)> {
            spec.get(set)
                .and_then(|x| x.as_array())
                .unwrap()
                .iter()
                .map(|x| {
                    let s = |k: &str| x.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |v: Vec<Metric>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|x| (x.name, x.unit.to_string()))
                .collect()
        };
        assert_eq!(ours(EndToEnd::default().metrics()), listed("end_to_end"));
        assert_eq!(ours(PerLayer::default().metrics()), listed("per_layer"));
    }

    #[test]
    fn result_line_is_json() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: EndToEnd {
                setup_s: 0.5,
                ..Default::default()
            }
            .metrics(),
        };
        let v: serde_json::Value = serde_json::from_str(&o.json()).unwrap();
        let metric = |name: &str, key: &str| {
            v.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|x| x.get(key))
                .cloned()
        };
        assert!(metric("op_p50_ms", "value").is_none());
        assert_eq!(
            metric("setup_s", "value").and_then(|x| x.as_f64()),
            Some(0.5)
        );
        assert_eq!(
            metric("ops_per_s", "unit").and_then(|x| x.as_str().map(String::from)),
            Some("1/s".to_string())
        );
        assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(1));
    }

    #[test]
    fn latency_reads_failures_as_missed_limits() {
        let mut s: Vec<f64> = (1..=80).map(f64::from).collect();
        s.extend(std::iter::repeat_n(f64::INFINITY, 20));
        assert_eq!(latency(&s, 0.9, "x").unwrap(), FAILED_MS);
        assert!(latency(&s[..15], 0.5, "x").is_err());
    }
}
