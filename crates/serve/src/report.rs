//! Latency/goodput reduction and the byte-deterministic
//! `BENCH_serve.json` serialization.
//!
//! JSON is hand-rolled with fixed-width float formatting (`{:.9}` for
//! times and rates, `{:.6}` for derived ratios) exactly like
//! `ds_trace::summary::Telemetry::to_json`, so that two runs with the
//! same seed produce *byte-identical* files — which is what the CI gate
//! `cmp`s and what `bench_gate serve` parses back through
//! `ds_trace::json`.

use crate::engine::ServeStats;
use crate::ShedReason;
use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `q·n` values at or below it. Panics on an
/// empty slice (a load point with zero completions has no latency
/// distribution to report).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty distribution");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The serving metrics for one offered-load point.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadPoint {
    /// Offered load of the open-loop trace (requests/second).
    pub offered_rps: f64,
    /// Requests in the trace.
    pub requests: u64,
    /// Requests answered (fresh or degraded).
    pub completed: u64,
    /// Requests shed (all reasons).
    pub shed: u64,
    /// Sheds from the bounded admission queue.
    pub shed_queue: u64,
    /// Sheds from pre-execution deadline expiry.
    pub shed_deadline: u64,
    /// Completed answers served from a stale shard copy.
    pub degraded: u64,
    /// Micro-batches containing at least one stale row.
    pub degraded_batches: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Mean requests per executed micro-batch.
    pub mean_batch: f64,
    /// Deadline-met completions per second of virtual time.
    pub goodput_rps: f64,
    /// Median response latency (milliseconds).
    pub p50_ms: f64,
    /// 99th-percentile response latency (milliseconds).
    pub p99_ms: f64,
    /// 99.9th-percentile response latency (milliseconds).
    pub p999_ms: f64,
    /// FNV hash over batch compositions and logits (determinism probe;
    /// not gated across code changes, only across same-binary reruns).
    pub batch_hash: u64,
}

impl LoadPoint {
    /// Reduces one engine run at `offered_rps` to its load point.
    pub fn from_stats(offered_rps: f64, stats: &ServeStats) -> LoadPoint {
        let completed = stats.responses.len() as u64;
        let shed = stats.sheds.len() as u64;
        let shed_queue = stats
            .sheds
            .iter()
            .filter(|s| s.reason == ShedReason::QueueFull)
            .count() as u64;
        let shed_deadline = stats
            .sheds
            .iter()
            .filter(|s| s.reason == ShedReason::DeadlineExceeded)
            .count() as u64;
        let degraded = stats.responses.iter().filter(|r| r.degraded).count() as u64;
        let met = stats.responses.iter().filter(|r| r.deadline_met).count() as u64;
        let mut lat: Vec<f64> = stats.responses.iter().map(|r| r.latency_s).collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let (p50, p99, p999) = if lat.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            (
                percentile(&lat, 0.50) * 1e3,
                percentile(&lat, 0.99) * 1e3,
                percentile(&lat, 0.999) * 1e3,
            )
        };
        LoadPoint {
            offered_rps,
            requests: completed + shed,
            completed,
            shed,
            shed_queue,
            shed_deadline,
            degraded,
            degraded_batches: stats.degraded_batches,
            batches: stats.batches,
            mean_batch: if stats.batches == 0 {
                0.0
            } else {
                completed as f64 / stats.batches as f64
            },
            goodput_rps: if stats.duration_s > 0.0 {
                met as f64 / stats.duration_s
            } else {
                0.0
            },
            p50_ms: p50,
            p99_ms: p99,
            p999_ms: p999,
            batch_hash: stats.batch_hash,
        }
    }
}

/// The full `BENCH_serve.json` payload: run parameters plus one
/// [`LoadPoint`] per offered-load level.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Workload/sampling seed.
    pub seed: u64,
    /// Size trigger of the micro-batcher.
    pub batch_max: usize,
    /// Deadline trigger of the micro-batcher (seconds).
    pub batch_delay_s: f64,
    /// Admission-queue bound.
    pub queue_cap: usize,
    /// One entry per offered-load level, in run order.
    pub points: Vec<LoadPoint>,
}

impl ServeReport {
    /// Byte-deterministic JSON (same float policy as
    /// `Telemetry::to_json`): `{:.9}` for latencies/rates, `{:.6}` for
    /// ratios, integers verbatim, `batch_hash` as a hex string (JSON
    /// f64 numbers cannot carry 64 hash bits exactly).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"serve\",\n");
        s.push_str("  \"schema\": 1,\n");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"batch_max\": {},", self.batch_max);
        let _ = writeln!(s, "  \"batch_delay_us\": {:.6},", self.batch_delay_s * 1e6);
        let _ = writeln!(s, "  \"queue_cap\": {},", self.queue_cap);
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"offered_rps\": {:.6},", p.offered_rps);
            let _ = writeln!(s, "      \"requests\": {},", p.requests);
            let _ = writeln!(s, "      \"completed\": {},", p.completed);
            let _ = writeln!(s, "      \"shed\": {},", p.shed);
            let _ = writeln!(s, "      \"shed_queue\": {},", p.shed_queue);
            let _ = writeln!(s, "      \"shed_deadline\": {},", p.shed_deadline);
            let _ = writeln!(s, "      \"degraded\": {},", p.degraded);
            let _ = writeln!(s, "      \"degraded_batches\": {},", p.degraded_batches);
            let _ = writeln!(s, "      \"batches\": {},", p.batches);
            let _ = writeln!(s, "      \"mean_batch\": {:.6},", p.mean_batch);
            let _ = writeln!(s, "      \"goodput_rps\": {:.9},", p.goodput_rps);
            let _ = writeln!(s, "      \"p50_ms\": {:.9},", p.p50_ms);
            let _ = writeln!(s, "      \"p99_ms\": {:.9},", p.p99_ms);
            let _ = writeln!(s, "      \"p999_ms\": {:.9},", p.p999_ms);
            let _ = writeln!(s, "      \"batch_hash\": \"{:016x}\"", p.batch_hash);
            s.push_str(if i + 1 < self.points.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_matches_hand_computation() {
        let d = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&d, 0.50), 5.0);
        assert_eq!(percentile(&d, 0.99), 10.0);
        assert_eq!(percentile(&d, 0.10), 1.0);
        assert_eq!(percentile(&d, 1.0), 10.0);
        assert_eq!(percentile(&[42.0], 0.999), 42.0);
    }

    fn point() -> LoadPoint {
        LoadPoint {
            offered_rps: 1000.0,
            requests: 100,
            completed: 90,
            shed: 10,
            shed_queue: 7,
            shed_deadline: 3,
            degraded: 4,
            degraded_batches: 2,
            batches: 12,
            mean_batch: 7.5,
            goodput_rps: 880.0,
            p50_ms: 1.25,
            p99_ms: 3.5,
            p999_ms: 4.0,
            batch_hash: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn report_json_is_byte_stable_and_parses() {
        let rep = ServeReport {
            seed: 42,
            batch_max: 8,
            batch_delay_s: 200e-6,
            queue_cap: 64,
            points: vec![point(), point()],
        };
        let a = rep.to_json();
        let b = rep.to_json();
        assert_eq!(a, b);
        let parsed = ds_trace::json::parse(&a).expect("valid json");
        let pts = match parsed.get("points") {
            Some(ds_trace::json::Json::Arr(v)) => v,
            other => panic!("points must be an array, got {other:?}"),
        };
        assert_eq!(pts.len(), 2);
        assert_eq!(
            pts[0].get("goodput_rps").and_then(|j| j.as_f64()),
            Some(880.0)
        );
        assert_eq!(pts[1].get("completed").and_then(|j| j.as_f64()), Some(90.0));
    }
}
