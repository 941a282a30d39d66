//! One regression gate for the four committed benchmark baselines.
//!
//! `bench_pipeline`, `bench_serve`, `bench_split` and `bench_gemm` each
//! write their own JSON shape. An extractor per [`Kind`] flattens a
//! file into named records — `epoch_time_s`, `stage.<name>.mean_s`
//! (`total_s / count`), `point.<i>.p99_ms`, `lane.<dataset>-<gpus>.gsplit_s`,
//! `crossover.<dataset>`, `<lane>_hash`, … — each carrying the check
//! it is held to. One comparator then holds every baseline record
//! against the fresh record of the same name:
//!
//! - a baseline record missing from the fresh run fails; a record new
//!   in the fresh run is additive and passes;
//! - a key an extractor requires that is missing or has the wrong type
//!   fails, naming the side (fresh run or baseline) it is missing from,
//!   so a red CI log says whether the code stopped reporting or the
//!   baseline is stale.
//!
//! Virtual-clock numbers are bit-deterministic per source tree, so
//! drift in them is a real modelling or code change, not machine noise.
//! Only the GEMM microbench's `_ms` lanes are wall time; they are gated
//! at a factor that catches fast-path cliffs, not percent drift.

use ds_trace::json::{parse, Json};

/// Largest allowed rise of a time or latency over its baseline.
const RISE: f64 = 0.25;
/// Share of a non-zero baseline a beneficial count or goodput must keep.
const FLOOR: f64 = 0.75;
/// Largest allowed factor of a wall-clock lane over its baseline.
const WALL_FACTOR: f64 = 4.0;

/// One gated benchmark file: its name on the command line and the
/// extractor that flattens it into records.
pub struct Kind(pub &'static str, fn(&Json, &mut Extract));

/// The four gated files.
pub const KINDS: [Kind; 4] = [
    Kind("pipeline", pipeline),
    Kind("serve", serve),
    Kind("split", split),
    Kind("gemm", gemm),
];

impl Kind {
    /// Default `(fresh, baseline)` paths, relative to the repo root.
    pub fn default_paths(&self) -> (String, String) {
        let base = match self.0 {
            "pipeline" => "results/BENCH_baseline.json".into(),
            name => format!("results/BENCH_{name}_baseline.json"),
        };
        (format!("BENCH_{}.json", self.0), base)
    }

    fn extract(&self, j: &Json, side: &'static str) -> Extract {
        let mut x = Extract {
            side,
            records: Vec::new(),
            errors: Vec::new(),
        };
        (self.1)(j, &mut x);
        x
    }
}

/// The bound a fresh value is held to against its baseline.
#[derive(Clone, Copy, Debug)]
enum Check {
    /// At most [`RISE`] above the baseline (times, latencies).
    Rise,
    /// At least [`FLOOR`] of a non-zero baseline (hits, goodput).
    Floor,
    /// Equal to the baseline (hashes, identities, offered load).
    Exact,
    /// At most [`WALL_FACTOR`] times the baseline (wall-clock lanes).
    Wall,
    /// Non-zero in the baseline ⇒ non-zero fresh (shed/degraded lanes).
    Presence,
    /// A crossover GPU count (0 = never) that must exist whenever the
    /// baseline's does, at a count no larger than the baseline's.
    Crossover,
}

/// One named value of one side, with the check it is held to: a
/// `Json::Num`, or a `Json::Str` for exact text (hashes, identities).
type Record = (String, Check, Json);

/// The gate's verdict: report-table rows and failure messages.
pub struct Outcome {
    pub rows: Vec<String>,
    pub failures: Vec<String>,
}

/// One side's records plus the required keys it lacks.
struct Extract {
    side: &'static str,
    records: Vec<Record>,
    errors: Vec<String>,
}

impl Extract {
    /// `v`, or — when it is `None` — an error naming `key`, the type it
    /// should have had, and this side.
    fn need<T>(&mut self, key: &str, what: &str, v: Option<T>) -> Option<T> {
        if v.is_none() {
            let side = self.side;
            self.errors
                .push(format!("`{key}` missing or not {what} in the {side}"));
        }
        v
    }

    fn num(&mut self, key: &str, v: Option<&Json>) -> Option<f64> {
        self.need(key, "a number", v.and_then(Json::as_f64))
    }

    fn text<'j>(&mut self, key: &str, v: Option<&'j Json>) -> Option<&'j str> {
        self.need(key, "a string", v.and_then(Json::as_str))
    }

    fn arr<'j>(&mut self, key: &str, j: &'j Json) -> &'j [Json] {
        let a = j.get(key).and_then(Json::as_array);
        self.need(key, "an array", a).unwrap_or_default()
    }

    /// A required numeric record.
    fn req(&mut self, name: String, check: Check, v: Option<&Json>) {
        if let Some(n) = self.num(&name, v) {
            self.records.push((name, check, Json::Num(n)));
        }
    }
}

fn pipeline(j: &Json, x: &mut Extract) {
    x.req("epoch_time_s".into(), Check::Rise, j.get("epoch_time_s"));
    if let Some(Json::Obj(stages)) = j.get("stages") {
        for (name, s) in stages {
            let total = x.num(&format!("stage.{name}.total_s"), s.get("total_s"));
            let count = x.num(&format!("stage.{name}.count"), s.get("count"));
            if let (Some(total), Some(count)) = (total, count.filter(|&c| c > 0.0)) {
                let mean = Json::Num(total / count);
                x.records
                    .push((format!("stage.{name}.mean_s"), Check::Rise, mean));
            }
        }
    }
    let counter = |key: &str| j.get("counters").and_then(|c| c.get(key));
    // Optional in the baseline; once there, the comparator requires it.
    let recovery = "recovery.time_to_healthy_s";
    if let Some(v) = counter(recovery) {
        x.req(recovery.into(), Check::Rise, Some(v));
    }
    for key in ["cache.hits", "cache.prefetch_hits"] {
        x.req(key.into(), Check::Floor, counter(key));
    }
}

fn serve(j: &Json, x: &mut Extract) {
    use Check::*;
    const KEYS: [(Check, &[&str]); 4] = [
        (Exact, &["offered_rps"]),
        (Rise, &["p50_ms", "p99_ms", "p999_ms"]),
        (Floor, &["goodput_rps"]),
        (Presence, &["shed_queue", "degraded", "degraded_batches"]),
    ];
    for (i, p) in x.arr("points", j).iter().enumerate() {
        for (check, keys) in KEYS {
            for key in keys {
                x.req(format!("point.{i}.{key}"), check, p.get(key));
            }
        }
    }
}

fn split(j: &Json, x: &mut Extract) {
    for (i, lane) in x.arr("lanes", j).iter().enumerate() {
        let dataset = x.text(&format!("lane.{i}.dataset"), lane.get("dataset"));
        let gpus = x.num(&format!("lane.{i}.gpus"), lane.get("gpus"));
        let (Some(dataset), Some(gpus)) = (dataset, gpus) else {
            continue;
        };
        let id = format!("{dataset}-{gpus}");
        for key in ["dsp_s", "gsplit_s"] {
            x.req(format!("lane.{id}.{key}"), Check::Rise, lane.get(key));
        }
        // Lane order is gated too: a reordered sweep fails.
        x.records
            .push((format!("lane.{i}"), Check::Exact, Json::Str(id)));
    }
    for (i, c) in x.arr("crossovers", j).iter().enumerate() {
        if let Some(d) = x.text(&format!("crossovers.{i}.dataset"), c.get("dataset")) {
            let gpus = c.get("crossover_gpus");
            x.req(format!("crossover.{d}"), Check::Crossover, gpus);
        }
    }
}

fn gemm(j: &Json, x: &mut Extract) {
    let Json::Obj(keys) = j else {
        x.need::<()>("(document)", "an object", None);
        return;
    };
    for (key, v) in keys {
        if key.ends_with("_hash") {
            if let Some(h) = x.text(key, Some(v)) {
                x.records
                    .push((key.clone(), Check::Exact, Json::Str(h.into())));
            }
        } else if key.ends_with("_ms") {
            x.req(key.clone(), Check::Wall, Some(v));
        }
    }
}

/// Delta column (fresh / baseline), and whether `fresh` breaks `check`
/// against `base`.
fn judge(check: Check, base: &Json, fresh: &Json) -> (String, bool) {
    let (&Json::Num(b), &Json::Num(f)) = (base, fresh) else {
        return (String::new(), base != fresh);
    };
    let rel = if b > 0.0 { (f - b) / b } else { 0.0 };
    let factor = if b > 0.0 { f / b } else { 1.0 };
    let bad = match check {
        Check::Rise => rel > RISE,
        Check::Floor => b > 0.0 && f < b * FLOOR,
        Check::Exact => (b - f).abs() > 1e-9,
        Check::Wall => factor > WALL_FACTOR,
        Check::Presence => b > 0.0 && f == 0.0,
        Check::Crossover => b > 0.0 && (f == 0.0 || f > b),
    };
    (format!("{factor:.3}x"), bad)
}

fn show(v: &Json) -> String {
    v.as_str().map_or_else(
        || format!("{:.9}", v.as_f64().unwrap_or(f64::NAN)),
        String::from,
    )
}

/// Report-table header; rows are `{:<40} {:<9} {:>18} {:>18} {:>8}`.
const HEADER: &str = "metric                                   check               baseline              fresh    delta";

/// Holds every baseline record of `kind` against the fresh one.
pub fn compare(kind: &Kind, fresh: &Json, base: &Json) -> Outcome {
    let b = kind.extract(base, "baseline");
    let f = kind.extract(fresh, "fresh run");
    let mut out = Outcome {
        rows: vec![HEADER.into()],
        failures: b.errors.into_iter().chain(f.errors).collect(),
    };
    for (name, check, bval) in &b.records {
        let Some((_, _, fval)) = f.records.iter().find(|r| r.0 == *name) else {
            out.failures.push(format!(
                "`{name}` present in the baseline, missing from the fresh run"
            ));
            continue;
        };
        let (bv, fv) = (show(bval), show(fval));
        let (delta, bad) = judge(*check, bval, fval);
        let check = format!("{check:?}").to_lowercase();
        let flag = if bad { "  FAIL" } else { "" };
        out.rows.push(format!(
            "{name:<40} {check:<9} {bv:>18} {fv:>18} {delta:>8}{flag}"
        ));
        if bad {
            out.failures.push(format!(
                "`{name}` breaks its {check} bound: baseline {bv}, fresh run {fv}"
            ));
        }
    }
    out
}

/// [`compare`] over two files; an unreadable or unparsable file is a
/// failure naming its side.
pub fn compare_files(kind: &Kind, fresh_path: &str, base_path: &str) -> Outcome {
    let load = |path: &str, side: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
        text.and_then(|t| parse(&t))
            .map_err(|e| format!("cannot load the {side} ({path}): {e}"))
    };
    match (load(fresh_path, "fresh run"), load(base_path, "baseline")) {
        (Ok(fresh), Ok(base)) => compare(kind, &fresh, &base),
        (fresh, base) => Outcome {
            rows: Vec::new(),
            failures: [fresh.err(), base.err()].into_iter().flatten().collect(),
        },
    }
}
