//! Machine-readable DSP-vs-GSplit head-to-head: runs the same training
//! configuration in data-parallel mode (DSP) and split-parallel mode
//! (GSplit) across GPU counts and datasets, and writes the epoch times,
//! per-lane interconnect traffic and the measured crossover — the
//! smallest GPU count at which split parallelism wins — to
//! `BENCH_split.json`.
//!
//! Every number comes off the virtual clock, so the file is
//! byte-deterministic for a given source tree: CI runs this binary
//! twice and `cmp`s the outputs, then gates the times against the
//! committed `results/BENCH_split_baseline.json` via `bench_gate split`.
//!
//! ```sh
//! cargo run --release -p ds-bench --bin bench_split [out.json]
//! ```

use ds_bench::{dataset, quick_mode};
use dsp_core::config::{SystemKind, TrainConfig, TrainMode};
use dsp_core::runner::run_epoch_time;

const DATASETS: [&str; 2] = ["Products", "Papers"];
const GPU_COUNTS: [usize; 3] = [2, 4, 8];

struct Lane {
    dataset: &'static str,
    gpus: usize,
    dsp_s: f64,
    gsplit_s: f64,
    dsp_nvlink: u64,
    dsp_pcie: u64,
    gsplit_nvlink: u64,
    gsplit_pcie: u64,
}

fn main() {
    let mut cfg = TrainConfig::paper_default();
    // Timing-only: the virtual-clock charges are identical either way
    // and the head-to-head sweeps 2 modes × 3 GPU counts × 2 datasets.
    cfg.exec_compute = false;
    let measure = if quick_mode() { 1 } else { 2 };

    let mut lanes: Vec<Lane> = Vec::new();
    for name in DATASETS {
        let d = dataset(name);
        for gpus in GPU_COUNTS {
            let run = |mode: TrainMode| {
                let mut c = cfg.clone();
                c.train_mode = mode;
                let stats = run_epoch_time(SystemKind::Dsp, d, gpus, &c, 0, measure);
                eprintln!(
                    "[bench_split] {name} {}-GPU {}: {:.4}s (nvlink {} B, pcie {} B)",
                    gpus,
                    mode.name(),
                    stats.epoch_time,
                    stats.nvlink_bytes,
                    stats.pcie_bytes
                );
                stats
            };
            let dsp = run(TrainMode::DataParallel);
            let gsplit = run(TrainMode::Split);
            assert!(dsp.epoch_time > 0.0 && gsplit.epoch_time > 0.0);
            assert_eq!(
                dsp.num_batches, gsplit.num_batches,
                "both modes consume the same schedule"
            );
            lanes.push(Lane {
                dataset: name,
                gpus,
                dsp_s: dsp.epoch_time,
                gsplit_s: gsplit.epoch_time,
                dsp_nvlink: dsp.nvlink_bytes,
                dsp_pcie: dsp.pcie_bytes,
                gsplit_nvlink: gsplit.nvlink_bytes,
                gsplit_pcie: gsplit.pcie_bytes,
            });
        }
    }

    // Crossover per dataset: the smallest GPU count where GSplit's
    // epoch beats DSP's (0 = DSP wins the whole sweep).
    let crossover = |name: &str| -> usize {
        lanes
            .iter()
            .filter(|l| l.dataset == name && l.gsplit_s < l.dsp_s)
            .map(|l| l.gpus)
            .min()
            .unwrap_or(0)
    };

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"quick\": {},\n", quick_mode() as u32));
    out.push_str("  \"lanes\": [\n");
    for (i, l) in lanes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"gpus\": {}, \"dsp_s\": {:.6}, \"gsplit_s\": {:.6}, \
             \"ratio\": {:.4}, \"dsp_nvlink_bytes\": {}, \"dsp_pcie_bytes\": {}, \
             \"gsplit_nvlink_bytes\": {}, \"gsplit_pcie_bytes\": {}}}{}\n",
            l.dataset,
            l.gpus,
            l.dsp_s,
            l.gsplit_s,
            l.gsplit_s / l.dsp_s,
            l.dsp_nvlink,
            l.dsp_pcie,
            l.gsplit_nvlink,
            l.gsplit_pcie,
            if i + 1 < lanes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"crossovers\": [\n");
    for (i, name) in DATASETS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"crossover_gpus\": {}}}{}\n",
            name,
            crossover(name),
            if i + 1 < DATASETS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");

    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_split.json".into());
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    for name in DATASETS {
        let g = crossover(name);
        println!(
            "{path}: {name} crossover = {}",
            if g == 0 {
                "none (DSP wins the sweep)".to_string()
            } else {
                format!("{g} GPUs")
            }
        );
    }
}
