//! The repository's benchmark: four named workloads of the DSP
//! reproduction on 2 simulated GPUs, timed on both clocks.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-products --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload with tracing forced off and reports the
//! end-to-end metrics; `--trace 1` is the separate traced run that
//! reports the per-layer metrics. Human-readable lines come first; the
//! last line of standard output is one JSON object. A failed
//! correctness check makes the command exit with code 1; bad arguments
//! or a configuration variable set in the environment exit with code 2
//! before anything runs. See `perfbench/README.md`.

mod clock;
mod layers;
mod spans;
mod stats;
mod workloads;

use stats::Tally;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workloads::Workload;

const USAGE: &str =
    "usage: perfbench --workload <train-products|pipeline-papers|serve-papers|split-products> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// Environment variables that would silently change a workload's
/// configuration. The benchmark pins every field itself and refuses to
/// start while any of these is set (plus every `DS_SERVE_*`).
const REFUSED_VARS: [&str; 10] = [
    "DS_TRAIN_MODE",
    "DS_CACHE_POLICY",
    "DS_PREFETCH_WINDOW",
    "DS_CKPT_EVERY",
    "DS_CKPT_DIR",
    "DS_FAULT_PLAN",
    "DS_FAULT_SEED",
    "DS_TRACE",
    "DS_TRACE_REALTIME",
    "DS_TRACE_WALL",
];

/// Where runs leave their manifests and checkpoint scratch, relative to
/// the checkout root the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The first configuration variable set in the environment, if any.
fn refused_var() -> Option<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DS_SERVE_"))
        .collect();
    names.extend(
        REFUSED_VARS
            .iter()
            .filter(|v| std::env::var_os(v).is_some())
            .map(|v| v.to_string()),
    );
    names.sort();
    names.into_iter().next()
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything a run reports: metrics, correctness checks, the failure
/// tally and the manifest.
pub struct Run {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    checks: u64,
    failed_checks: Vec<String>,
    pub tally: Tally,
    manifest: Vec<(String, String)>,
}

impl Run {
    fn new() -> Self {
        Run {
            metrics: Vec::new(),
            notes: Vec::new(),
            checks: 0,
            failed_checks: Vec::new(),
            tally: Tally::default(),
            manifest: Vec::new(),
        }
    }

    /// Reports `name` (replacing an earlier value of the same name).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.check(&format!("{name} is finite"), false, &format!("{value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn has_metric(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// A human-readable line printed with the metric table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one correctness check; a failure counts in the tally and
    /// fails the run.
    pub fn check(&mut self, what: &str, ok: bool, detail: &str) {
        self.checks += 1;
        if !ok {
            eprintln!("perfbench: CHECK FAILED: {what}: {detail}");
            self.failed_checks.push(format!("{what}: {detail}"));
        }
    }

    /// Adds a manifest entry (resolved configuration and environment).
    pub fn manifest(&mut self, key: &str, value: impl std::fmt::Display) {
        self.manifest.push((key.to_string(), value.to_string()));
    }

    fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    /// The final tally: work attempted and failed, plus the checks.
    fn final_tally(&self) -> Tally {
        Tally {
            attempted: self.tally.attempted + self.checks,
            failed: self.tally.failed + self.failed_checks.len() as u64,
        }
    }

    fn json_line(&self) -> String {
        let t = self.final_tally();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            t.attempted,
            t.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    fn manifest_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.manifest.iter().enumerate() {
            let sep = if i + 1 == self.manifest.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(out, "  {}: {}{sep}", json_str(k), json_str(v));
        }
        out.push('}');
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit the checkout was made from, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A per-run scratch directory under [`OUT_DIR`], removed on drop —
/// also when a run unwinds.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(OUT_DIR).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Deletes the directory's contents, keeping the directory.
    pub fn clear(&self) -> std::io::Result<()> {
        for entry in std::fs::read_dir(&self.0)? {
            std::fs::remove_file(entry?.path())?;
        }
        Ok(())
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(var) = refused_var() {
        eprintln!(
            "perfbench: refusing to start: {var} is set. The benchmark pins every \
             workload setting itself; unset it and run again."
        );
        std::process::exit(2);
    }
    // Timed runs must not record; the traced run switches the recorder
    // on only around the epoch it traces.
    dsp::trace::recorder().set_enabled(false);

    let mut run = Run::new();
    run.manifest("workload", args.workload.name());
    run.manifest("seed", args.seed);
    run.manifest("seconds", args.seconds);
    run.manifest("trace", u8::from(args.trace));
    run.manifest("git_rev", git_rev());
    run.manifest(
        "DS_PAR_THREADS",
        std::env::var("DS_PAR_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    run.manifest(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    if args.trace {
        layers::traced_run(&args, &mut run);
    } else {
        workloads::timed_run(&args, &mut run);
    }

    let t = run.final_tally();
    run.manifest("attempted", t.attempted);
    run.manifest("failed", t.failed);
    run.manifest("failed_frac", t.failed_frac());
    let manifest = run.manifest_json();
    let path = Path::new(OUT_DIR).join(format!(
        "manifest-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, &manifest))
    {
        run.check(
            "manifest written",
            false,
            &format!("{}: {e}", path.display()),
        );
    }
    eprintln!("{manifest}");

    println!(
        "# {} seed {} ({} run, {:.0} s)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" },
        args.seconds
    );
    for m in &run.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for n in &run.notes {
        println!("# {n}");
    }
    println!(
        "# failed_frac {:.6} ({} failed of {} attempted, checks included)",
        t.failed_frac(),
        t.failed,
        t.attempted
    );
    println!("{}", run.json_line());
    std::process::exit(if run.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-papers --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServePapers);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve-papers --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload serve-papers --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload serve-papers --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn json_line_has_the_result_shape() {
        let mut run = Run::new();
        run.tally = Tally {
            attempted: 10,
            failed: 0,
        };
        run.metric("setup_s", 0.5, "s");
        run.metric("items_per_ref_cpu_s", 1234.5, "1/s");
        run.check("ok", true, "");
        assert_eq!(
            run.json_line(),
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"items_per_ref_cpu_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        run.check("bad", false, "detail");
        run.metric("x", f64::NAN, "s");
        let t = run.final_tally();
        assert!(!run.correct());
        assert_eq!((t.attempted, t.failed), (13, 2));
    }
}
