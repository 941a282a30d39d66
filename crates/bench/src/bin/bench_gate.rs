//! bench_gate: CI regression gate over the four committed benchmark
//! baselines (see [`ds_bench::gate`] for the records and checks).
//!
//! Usage: bench_gate <pipeline|serve|split|gemm> [fresh.json] [baseline.json]
//!
//! Defaults per kind: `BENCH_<kind>.json` against
//! `results/BENCH_<kind>_baseline.json` (`results/BENCH_baseline.json`
//! for `pipeline`). Exit 0 when every check holds, 1 on any failure,
//! 2 on a usage error.

use ds_bench::gate::{compare_files, KINDS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let kind = KINDS.iter().find(|k| k.0 == name);
    let (Some(kind), 1..=3) = (kind, args.len()) else {
        eprintln!("usage: bench_gate <pipeline|serve|split|gemm> [fresh.json] [baseline.json]");
        return ExitCode::from(2);
    };
    let (fresh, base) = kind.default_paths();
    let (fresh, base) = (args.get(1).unwrap_or(&fresh), args.get(2).unwrap_or(&base));
    let out = compare_files(kind, fresh, base);
    println!("{}", out.rows.join("\n"));
    for failure in &out.failures {
        eprintln!("bench_gate {name}: {failure}");
    }
    if out.failures.is_empty() {
        println!("bench_gate {name}: OK, {fresh} vs {base}");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_gate {name}: FAILED, fresh run {fresh} vs baseline {base}");
        ExitCode::FAILURE
    }
}
