//! Negative tests for `ds_bench::gate` (found-vs-proven): each committed
//! baseline is the base side and a mutated copy of it the fresh side.
//! Every mutation below breaks one bound the gate holds, and must fail
//! with a message that names the metric and the side; the boundary
//! cases just inside a bound must pass.

use ds_bench::gate::{compare, Kind, Outcome, KINDS};
use ds_trace::json::{parse, Json};

const PIPELINE: &str = include_str!("../../../results/BENCH_baseline.json");
const SERVE: &str = include_str!("../../../results/BENCH_serve_baseline.json");
const SPLIT: &str = include_str!("../../../results/BENCH_split_baseline.json");
const GEMM: &str = include_str!("../../../results/BENCH_gemm_baseline.json");

fn kind(name: &str) -> Option<&'static Kind> {
    KINDS.iter().find(|k| k.0 == name)
}

fn baseline(kind: &Kind) -> Json {
    let text = match kind.0 {
        "pipeline" => PIPELINE,
        "serve" => SERVE,
        "split" => SPLIT,
        "gemm" => GEMM,
        other => panic!("no committed baseline for `{other}`"),
    };
    parse(text).expect("committed baseline parses")
}

/// The value at `path` (object keys, or array indices as numbers).
fn at<'a>(j: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(j, |j, seg| match j {
        Json::Obj(fields) => {
            let (_, v) = fields.iter_mut().find(|(k, _)| k == seg).expect(seg);
            v
        }
        Json::Arr(items) => &mut items[seg.parse::<usize>().expect(seg)],
        _ => panic!("no `{seg}` in a scalar"),
    })
}

fn remove(j: &mut Json, path: &[&str]) {
    let (last, parent) = path.split_last().unwrap();
    match at(j, parent) {
        Json::Obj(fields) => fields.retain(|(k, _)| k != last),
        Json::Arr(items) => {
            items.remove(last.parse::<usize>().unwrap());
        }
        _ => panic!("cannot remove from a scalar"),
    }
}

fn scale(j: &mut Json, path: &[&str], by: f64) {
    let v = at(j, path);
    *v = Json::Num(v.as_f64().expect("numeric") * by);
}

/// Gate a mutated copy of `kind`'s baseline against the baseline.
fn gate_fresh(name: &str, mutate: impl FnOnce(&mut Json)) -> Outcome {
    let kind = kind(name).unwrap();
    let mut fresh = baseline(kind);
    mutate(&mut fresh);
    compare(kind, &fresh, &baseline(kind))
}

/// Gate the baseline against a mutated copy of itself as the baseline.
fn gate_base(name: &str, mutate: impl FnOnce(&mut Json)) -> Outcome {
    let kind = kind(name).unwrap();
    let mut base = baseline(kind);
    mutate(&mut base);
    compare(kind, &baseline(kind), &base)
}

#[track_caller]
fn passes(out: &Outcome) {
    assert!(
        out.failures.is_empty(),
        "unexpected failures: {:?}",
        out.failures
    );
}

/// Fails, and some failure names `metric` and `side`.
#[track_caller]
fn fails(out: &Outcome, metric: &str, side: &str) {
    assert!(
        out.failures
            .iter()
            .any(|f| f.contains(&format!("`{metric}`")) && f.contains(side)),
        "expected a failure naming `{metric}` and the {side}, got {:?}",
        out.failures
    );
}

const FRESH: &str = "fresh run";
const BASE: &str = "baseline";

#[test]
fn each_baseline_passes_against_itself() {
    for kind in &KINDS {
        let out = compare(kind, &baseline(kind), &baseline(kind));
        passes(&out);
        assert!(out.rows.len() > 5, "{}: the report table is empty", kind.0);
    }
}

#[test]
fn default_baselines_are_the_committed_files() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for kind in &KINDS {
        let (fresh, base) = kind.default_paths();
        assert_eq!(fresh, format!("BENCH_{}.json", kind.0));
        assert!(root.join(&base).is_file(), "{}: no {base}", kind.0);
    }
    assert_eq!(
        kind("pipeline").unwrap().default_paths().1,
        "results/BENCH_baseline.json"
    );
}

#[test]
fn pipeline_epoch_time_may_rise_24_not_26_percent() {
    passes(&gate_fresh("pipeline", |j| {
        scale(j, &["epoch_time_s"], 1.24)
    }));
    let out = gate_fresh("pipeline", |j| scale(j, &["epoch_time_s"], 1.26));
    fails(&out, "epoch_time_s", FRESH);
}

#[test]
fn pipeline_stage_mean_rise_fails() {
    let out = gate_fresh("pipeline", |j| {
        scale(j, &["stages", "sample", "total_s"], 1.3)
    });
    fails(&out, "stage.sample.mean_s", FRESH);
}

#[test]
fn pipeline_stage_missing_from_the_fresh_run_fails() {
    let out = gate_fresh("pipeline", |j| remove(j, &["stages", "train"]));
    fails(&out, "stage.train.mean_s", "missing from the fresh run");
}

#[test]
fn pipeline_non_numeric_total_fails_on_either_side() {
    let garble = |j: &mut Json| *at(j, &["stages", "load", "total_s"]) = Json::Str("x".into());
    fails(&gate_fresh("pipeline", garble), "stage.load.total_s", FRESH);
    fails(&gate_base("pipeline", garble), "stage.load.total_s", BASE);
    let out = gate_base("pipeline", |j| remove(j, &["epoch_time_s"]));
    fails(&out, "epoch_time_s", BASE);
}

#[test]
fn pipeline_beneficial_counters_must_exist_and_hold_75_percent() {
    for key in ["cache.hits", "cache.prefetch_hits"] {
        let out = gate_fresh("pipeline", |j| remove(j, &["counters", key]));
        fails(&out, key, FRESH);
        let out = gate_fresh("pipeline", |j| scale(j, &["counters", key], 0.74));
        fails(&out, key, FRESH);
        // Required on both sides: a baseline without the counter would
        // leave the fresh value unchecked.
        let out = gate_base("pipeline", |j| remove(j, &["counters", key]));
        fails(&out, key, BASE);
        passes(&gate_fresh("pipeline", |j| {
            scale(j, &["counters", key], 0.76)
        }));
    }
}

#[test]
fn pipeline_recovery_latency_is_gated_once_baselined() {
    let key = "recovery.time_to_healthy_s";
    let out = gate_fresh("pipeline", |j| remove(j, &["counters", key]));
    fails(&out, key, "missing from the fresh run");
    let out = gate_fresh("pipeline", |j| scale(j, &["counters", key], 1.3));
    fails(&out, key, FRESH);
    // Absent from the baseline: nothing to hold the fresh value to.
    passes(&gate_base("pipeline", |j| remove(j, &["counters", key])));
}

#[test]
fn pipeline_new_stage_in_the_fresh_run_is_additive() {
    passes(&gate_fresh("pipeline", |j| {
        let Json::Obj(stages) = at(j, &["stages"]) else {
            panic!("stages is an object")
        };
        let new = parse(r#"{"total_s": 9.0, "count": 1}"#).unwrap();
        stages.push(("brand_new".into(), new));
    }));
}

#[test]
fn serve_p99_may_not_rise_26_percent() {
    let out = gate_fresh("serve", |j| scale(j, &["points", "1", "p99_ms"], 1.26));
    fails(&out, "point.1.p99_ms", FRESH);
}

#[test]
fn serve_goodput_must_hold_75_percent() {
    let out = gate_fresh("serve", |j| scale(j, &["points", "2", "goodput_rps"], 0.74));
    fails(&out, "point.2.goodput_rps", FRESH);
}

#[test]
fn serve_missing_load_point_fails() {
    let out = gate_fresh("serve", |j| remove(j, &["points", "3"]));
    fails(&out, "point.3.p99_ms", "missing from the fresh run");
}

#[test]
fn serve_offered_load_must_match() {
    let out = gate_fresh("serve", |j| scale(j, &["points", "0", "offered_rps"], 2.0));
    fails(&out, "point.0.offered_rps", FRESH);
}

#[test]
fn serve_shed_and_degraded_lanes_must_keep_firing() {
    for (point, key) in [
        ("2", "shed_queue"),
        ("3", "degraded"),
        ("3", "degraded_batches"),
    ] {
        let out = gate_fresh("serve", |j| scale(j, &["points", point, key], 0.0));
        fails(&out, &format!("point.{point}.{key}"), FRESH);
    }
}

#[test]
fn serve_missing_key_names_the_side() {
    let out = gate_base("serve", |j| remove(j, &["points", "1", "p50_ms"]));
    fails(&out, "point.1.p50_ms", BASE);
    let out = gate_fresh("serve", |j| remove(j, &["points", "1", "degraded"]));
    fails(&out, "point.1.degraded", FRESH);
    let out = gate_fresh("serve", |j| remove(j, &["points"]));
    fails(&out, "points", FRESH);
}

#[test]
fn split_missing_lane_fails() {
    let out = gate_fresh("split", |j| remove(j, &["lanes", "5"]));
    fails(&out, "lane.5", "missing from the fresh run");
    fails(&out, "lane.Papers-8.gsplit_s", "missing from the fresh run");
}

#[test]
fn split_lane_identity_must_match() {
    let out = gate_fresh("split", |j| {
        *at(j, &["lanes", "1", "gpus"]) = Json::Num(3.0)
    });
    fails(&out, "lane.1", FRESH);
    let out = gate_fresh("split", |j| {
        *at(j, &["lanes", "0", "dataset"]) = Json::Str("Papers".into())
    });
    fails(&out, "lane.0", FRESH);
}

#[test]
fn split_gsplit_time_may_not_rise_26_percent() {
    let out = gate_fresh("split", |j| scale(j, &["lanes", "3", "gsplit_s"], 1.26));
    fails(&out, "lane.Papers-2.gsplit_s", FRESH);
}

#[test]
fn split_products_crossover_may_not_recede() {
    for gpus in [4.0, 0.0] {
        let out = gate_fresh("split", |j| {
            *at(j, &["crossovers", "0", "crossover_gpus"]) = Json::Num(gpus)
        });
        fails(&out, "crossover.Products", FRESH);
    }
    // Papers never crosses over in the baseline; crossing over fresh
    // is a gain, not a regression.
    passes(&gate_fresh("split", |j| {
        *at(j, &["crossovers", "1", "crossover_gpus"]) = Json::Num(8.0)
    }));
}

#[test]
fn split_dataset_missing_from_crossovers_fails() {
    let out = gate_fresh("split", |j| remove(j, &["crossovers", "0"]));
    fails(&out, "crossover.Products", "missing from the fresh run");
}

#[test]
fn split_new_lane_in_the_fresh_run_is_additive() {
    passes(&gate_fresh("split", |j| {
        let Json::Arr(lanes) = at(j, &["lanes"]) else {
            panic!("lanes is an array")
        };
        let mut lane = lanes[0].clone();
        *at(&mut lane, &["gpus"]) = Json::Num(16.0);
        lanes.push(lane);
    }));
}

#[test]
fn gemm_hash_drift_fails() {
    let key = "gemm_nn_4096x32x32_hash";
    let out = gate_fresh("gemm", |j| *at(j, &[key]) = Json::Str("0".repeat(16)));
    fails(&out, key, FRESH);
}

#[test]
fn gemm_missing_hash_lane_fails() {
    let key = "trainer_step_gat_hash";
    let out = gate_fresh("gemm", |j| remove(j, &[key]));
    fails(&out, key, "missing from the fresh run");
    let out = gate_base("gemm", |j| *at(j, &[key]) = Json::Num(1.0));
    fails(&out, key, BASE);
}

#[test]
fn gemm_wall_lane_may_reach_3_9x_not_4_1x() {
    let key = "trainer_step_sage_ms";
    passes(&gate_fresh("gemm", |j| scale(j, &[key], 3.9)));
    fails(&gate_fresh("gemm", |j| scale(j, &[key], 4.1)), key, FRESH);
}

#[test]
fn gemm_new_lane_in_the_fresh_run_is_additive() {
    passes(&gate_fresh("gemm", |j| {
        let Json::Obj(keys) = j else {
            panic!("gemm file is an object")
        };
        keys.push(("new_lane_ms".into(), Json::Num(99.0)));
        keys.push(("new_lane_hash".into(), Json::Str("ff".into())));
    }));
}
