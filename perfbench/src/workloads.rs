//! The four workloads — their pinned configuration and the timed run
//! that reports the end-to-end metrics with tracing off.

use crate::clock::{Calibration, Cores, Stopwatch};
use crate::stats::{self, highest_passing, median};
use crate::{peak_rss_mb, Args, Run, ScratchDir};
use dsp::cache::{CachePolicy, DynamicPolicyKind};
use dsp::core::config::TrainMode;
use dsp::core::layout::{build_dsp_layout, DspLayout};
use dsp::core::{DspSystem, EpochStats, TrainConfig};
use dsp::gnn::GnnKind;
use dsp::graph::DatasetSpec;
use dsp::sampling::csp::Scheme;
use dsp::serve::{open_loop_trace, LoadPoint, ServeConfig, ServeEngine, ServeStats};

/// The end-to-end metrics with their units, reported by every timed
/// run. Training and serving each give them their own meaning (see
/// README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("items_per_ref_cpu_s", "1/s"),
    ("virtual_latency_ms", "ms"),
    ("virtual_items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Simulated GPUs in every workload.
pub const GPUS: usize = 2;
/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// `pipeline-papers` snapshots every this many global batches.
pub const CKPT_EVERY: u64 = 8;
/// At least this many measured samples (epochs after the warm-up, or
/// runs of the serving trace) per timed run.
const MIN_SAMPLES: usize = 2;

/// Serving: the fixed sub-saturation point.
pub const SERVE_RATE: f64 = 50_000.0;
/// Requests per run of the fixed point.
pub const SERVE_REQUESTS: usize = 20_000;
/// Requests per probe of the max-rate search (each probe replays the
/// same seed's trace, time-scaled to the probed rate).
const SWEEP_REQUESTS: usize = 5_000;
/// Bracket and halvings of the max-rate search: from the 50 000 rps
/// point (which must pass) to 150 000 rps (which must fail), halved
/// down to a 24 rps step.
const SWEEP_LO: f64 = SERVE_RATE;
const SWEEP_HI: f64 = 150_000.0;
const SWEEP_ITERS: u32 = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainProducts,
    PipelinePapers,
    ServePapers,
    SplitProducts,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainProducts => "train-products",
            Workload::PipelinePapers => "pipeline-papers",
            Workload::ServePapers => "serve-papers",
            Workload::SplitProducts => "split-products",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        [
            Workload::TrainProducts,
            Workload::PipelinePapers,
            Workload::ServePapers,
            Workload::SplitProducts,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// The dataset and the factor it is shrunk by. Each factor keeps
    /// the property the workload exists for; the timed run checks it.
    pub fn dataset(self, seed: u64) -> (DatasetSpec, usize) {
        let (base, factor) = match self {
            // Kernel shapes depend on batch, fan-out and width, not on
            // graph size; 1/8 still fits the aggregate cache.
            Workload::TrainProducts => (DatasetSpec::products_s(), 8),
            // `scaled_down` shrinks modelled GPU memory with the graph,
            // so the cold share (and the UVA-bound epoch) stays.
            Workload::PipelinePapers | Workload::ServePapers => (DatasetSpec::papers_s(), 2),
            // The split-vs-dp crossover was measured at full Products-S.
            Workload::SplitProducts => (DatasetSpec::products_s(), 1),
        };
        let mut spec = base.scaled_down(factor);
        spec.seed = seed;
        (spec, factor)
    }

    /// Every training field set here, none read from the environment
    /// (the environment variables that `paper_default` consults are
    /// refused before this runs).
    pub fn train_config(self, seed: u64, ckpt_dir: Option<&std::path::Path>) -> TrainConfig {
        let mut c = TrainConfig::paper_default();
        c.model = GnnKind::GraphSage;
        c.hidden = 256;
        c.num_layers = 3;
        c.fanout = vec![15, 10, 5];
        c.scheme = Scheme::NodeWise;
        c.train_mode = match self {
            Workload::SplitProducts => TrainMode::Split,
            _ => TrainMode::DataParallel,
        };
        c.biased = false;
        c.batch_size = 64;
        c.lr = 3e-3;
        c.seed = seed;
        c.cache_policy = CachePolicy::InDegree;
        c.dynamic_policy = DynamicPolicyKind::StaticDegree;
        c.prefetch_window = 2;
        c.mem_reserve_frac = 0.5;
        c.cache_budget_override = None;
        c.queue_capacity = 2;
        c.slots_per_device = 2;
        c.use_ccc = true;
        c.exec_compute = self == Workload::TrainProducts;
        c.comm_deadline_secs = 30.0;
        c.max_retries = 3;
        c.retry_backoff_secs = 1e-3;
        match ckpt_dir {
            Some(dir) if self == Workload::PipelinePapers => {
                c.ckpt_every = CKPT_EVERY;
                c.ckpt_dir = dir.to_path_buf();
            }
            _ => {
                c.ckpt_every = 0;
                c.ckpt_dir = std::path::PathBuf::new();
            }
        }
        c
    }
}

/// Records the resolved configuration in the manifest.
pub fn describe(run: &mut Run, w: Workload, spec: &DatasetSpec, factor: usize, cfg: &TrainConfig) {
    run.manifest("dataset", spec.name);
    run.manifest("scale_factor", format!("1/{factor}"));
    run.manifest("dataset_spec", format!("{spec:?}"));
    if w == Workload::ServePapers {
        run.manifest("layout_config", format!("{cfg:?}"));
        run.manifest(
            "serve_config",
            format!("{:?}", ServeConfig::paper_default()),
        );
    } else {
        run.manifest("train_config", format!("{cfg:?}"));
        run.manifest("pipelined", true);
    }
    run.manifest("gpus", GPUS);
}

pub fn timed_run(args: &Args, run: &mut Run) {
    if args.workload == Workload::ServePapers {
        timed_serve(args, run);
    } else {
        timed_training(args, run);
    }
    run.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // A run cut short by a failed check still reports every metric.
    for (name, unit) in END_TO_END {
        if !run.has_metric(name) {
            run.metric(name, 0.0, unit);
        }
    }
}

/// The virtual-clock fingerprint of one epoch: everything that must
/// repeat exactly under the same seed.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    stats: [u64; 9],
    checksums: Vec<u64>,
    grad_hashes: Vec<u64>,
}

pub fn fingerprint(s: &EpochStats, sys: &DspSystem) -> Fingerprint {
    Fingerprint {
        stats: [
            s.epoch_time.to_bits(),
            s.sample_time.to_bits(),
            s.load_time.to_bits(),
            s.train_time.to_bits(),
            s.utilization.to_bits(),
            s.nvlink_bytes,
            s.pcie_bytes,
            s.seeds as u64,
            s.num_batches as u64,
        ],
        checksums: sys.all_checksums().iter().map(|c| c.to_bits()).collect(),
        grad_hashes: sys.grad_stream_hashes(),
    }
}

/// Runs one epoch and applies the per-epoch checks: BSP replica
/// equality, a clean supervisor, and the property the workload's scale
/// factor must keep. Counts the epoch's batches (and any failure) in
/// the tally.
pub fn checked_epoch(
    w: Workload,
    sys: &mut DspSystem,
    epoch: u64,
    batches_hint: usize,
    run: &mut Run,
) -> Option<EpochStats> {
    let s = match sys.try_run_epoch(epoch) {
        Ok(s) => s,
        Err(e) => {
            run.tally.attempted += (batches_hint * GPUS) as u64;
            run.tally.failed += 1;
            run.check(&format!("epoch {epoch} ran"), false, &e.to_string());
            return None;
        }
    };
    run.tally.attempted += (s.num_batches * GPUS) as u64;
    run.tally.failed += s.retried_batches as u64;
    let sums = sys.all_checksums();
    run.check(
        "replica checksums equal across ranks",
        sums.windows(2).all(|p| p[0].to_bits() == p[1].to_bits()),
        &format!("epoch {epoch}: {sums:?}"),
    );
    let hashes = sys.grad_stream_hashes();
    run.check(
        "gradient stream hashes equal across ranks",
        hashes.windows(2).all(|p| p[0] == p[1]),
        &format!("epoch {epoch}: {hashes:x?}"),
    );
    run.check(
        "clean run: no retried batches, no degraded ranks",
        s.retried_batches == 0 && s.degraded_ranks == 0,
        &format!(
            "epoch {epoch}: {} retried, {} degraded",
            s.retried_batches, s.degraded_ranks
        ),
    );
    let (prop, ok) = match w {
        Workload::TrainProducts => (
            "products fits the aggregate cache (0 PCIe bytes)",
            s.pcie_bytes == 0,
        ),
        // Cold rows cross PCIe on the loader's clock, or on the
        // prefetcher's when it runs; either way neither sampling nor
        // compute sets the makespan.
        Workload::PipelinePapers => (
            "papers is UVA-bound (PCIe bytes > 0, makespan over twice sampling and compute busy)",
            s.pcie_bytes > 0 && s.epoch_time > 2.0 * s.sample_time.max(s.train_time),
        ),
        Workload::SplitProducts => (
            "split exchange runs over NVLink only",
            s.nvlink_bytes > 0 && s.pcie_bytes == 0,
        ),
        Workload::ServePapers => unreachable!("serving has no epochs"),
    };
    run.check(
        prop,
        ok,
        &format!(
            "epoch {epoch}: pcie {} nvlink {} busy s/l/t {:.4}/{:.4}/{:.4}",
            s.pcie_bytes, s.nvlink_bytes, s.sample_time, s.load_time, s.train_time
        ),
    );
    Some(s)
}

/// One set-up's time on both clocks, and its CPU time in reference
/// CPU seconds.
struct SetupTime {
    wall_s: f64,
    cpu_s: f64,
    reference_s: f64,
}

/// Runs one set-up between two calibration samples.
fn timed_setup<T>(build: impl FnOnce() -> T) -> (T, SetupTime) {
    // Set-up runs mostly on the calling thread.
    let mut cal = Calibration::new(Cores::Caller);
    cal.sample();
    let t = Stopwatch::start();
    let built = build();
    let (wall_s, cpu_s) = (t.wall_s(), t.cpu_s());
    cal.sample();
    let reference_s = cal.to_reference_s(&[cpu_s])[0];
    let time = SetupTime {
        wall_s,
        cpu_s,
        reference_s,
    };
    (built, time)
}

/// One timed set-up: dataset build plus system construction.
fn setup_training(spec: &DatasetSpec, cfg: &TrainConfig) -> (DspSystem, SetupTime) {
    timed_setup(|| DspSystem::new(&spec.build(), GPUS, cfg, true))
}

fn timed_training(args: &Args, run: &mut Run) {
    let w = args.workload;
    let (spec, factor) = w.dataset(args.seed);
    let ckpt = ScratchDir::new("ckpt").expect("create the per-run checkpoint directory");
    let cfg = w.train_config(args.seed, Some(ckpt.path()));
    describe(run, w, &spec, factor, &cfg);

    // Set up SETUP_REPS times, one system alive at a time. The first is
    // timed only; the next two each run epoch 0 — the warm-up epoch the
    // timed metrics exclude — and must agree bit for bit (the repeat-run
    // check). The last one is kept for the measured epochs.
    let mut setup = Vec::new();
    let mut reference: Option<(EpochStats, Fingerprint)> = None;
    let mut main = None;
    for rep in 0..SETUP_REPS {
        let (mut sys, secs) = setup_training(&spec, &cfg);
        setup.push(secs);
        if rep + 2 < SETUP_REPS {
            continue;
        }
        let Some(s) = checked_epoch(w, &mut sys, 0, 0, run) else {
            continue;
        };
        let fp = fingerprint(&s, &sys);
        match &reference {
            None => reference = Some((s, fp)),
            Some((_, first)) => {
                run.check(
                    "same seed repeats virtual metrics and parameter checksum",
                    *first == fp,
                    &format!("{first:?} vs {fp:?}"),
                );
                main = Some(sys);
            }
        }
        ckpt.clear().expect("clear checkpoint scratch");
    }
    report_setup(run, &setup);

    let Some((warm, _)) = reference else {
        run.check("warm-up epoch ran", false, "no epoch 0 completed");
        return;
    };
    run.metric("virtual_latency_ms", warm.epoch_time * 1e3, "ms");
    run.metric(
        "virtual_items_per_s",
        stats::ratio(warm.seeds as f64, warm.epoch_time),
        "1/s",
    );
    run.note(format!(
        "epoch 0 virtual: {:.6} s for {} seeds in {} batches/rank; pcie {} B nvlink {} B",
        warm.epoch_time, warm.seeds, warm.num_batches, warm.pcie_bytes, warm.nvlink_bytes
    ));
    let Some(mut sys) = main else {
        run.check("second warm-up epoch ran", false, "no system to measure");
        return;
    };

    // Measured epochs: BSP closed loop. The rate is all measured seeds
    // over all CPU time the process spent on them (see `report_rate`).
    let mut samples = Vec::new();
    // Both ranks' threads keep every core busy.
    let mut cal = Calibration::new(Cores::All);
    let start = Stopwatch::start();
    let mut epoch = 1u64;
    while samples.len() < MIN_SAMPLES || start.wall_s() < args.seconds {
        cal.sample();
        let t = Stopwatch::start();
        if let Some(s) = checked_epoch(w, &mut sys, epoch, warm.num_batches, run) {
            samples.push(Sample {
                items: s.seeds as f64,
                wall_s: t.wall_s(),
                cpu_s: t.cpu_s(),
            });
        }
        if w == Workload::PipelinePapers {
            let written = std::fs::read_dir(ckpt.path()).map_or(0, |d| d.count());
            run.check(
                "checkpoints written to the per-run directory",
                written > 0,
                &format!("epoch {epoch}: {written} files"),
            );
            ckpt.clear().expect("clear checkpoint scratch");
        }
        epoch += 1;
        // A run whose epochs keep failing still ends.
        if start.wall_s() > 3.0 * args.seconds + 60.0 {
            break;
        }
    }
    let report = sys.last_fault_report();
    run.check(
        "supervisor saw no crashes or degradation",
        report.crashed.is_empty() && report.degraded.is_empty() && report.retried.is_empty(),
        &format!("{report:?}"),
    );
    cal.sample();
    report_rate(run, "train_seeds", "epoch", &samples, &cal);
}

/// One timed serving set-up: dataset build, layout, engine.
fn setup_serving(spec: &DatasetSpec, cfg: &TrainConfig) -> (DspLayout, SetupTime) {
    timed_setup(|| {
        let layout = build_dsp_layout(&spec.build(), GPUS, cfg);
        drop(ServeEngine::new(&layout, ServeConfig::paper_default()));
        layout
    })
}

/// The serving SLO: nothing shed and every class's p99 within its
/// deadline.
pub fn meets_slo(stats: &ServeStats, cfg: &ServeConfig) -> bool {
    if !stats.sheds.is_empty() {
        return false;
    }
    (0..3).all(|class| {
        let mut lat: Vec<f64> = stats
            .responses
            .iter()
            .filter(|r| r.class.index() == class)
            .map(|r| r.latency_s)
            .collect();
        lat.sort_by(f64::total_cmp);
        lat.is_empty() || stats::percentile(&lat, 0.99) <= cfg.deadlines_s[class]
    })
}

/// The virtual fields of a load point that must repeat exactly.
fn virtual_key(p: &LoadPoint) -> [u64; 8] {
    [
        p.completed,
        p.shed,
        p.batches,
        p.p50_ms.to_bits(),
        p.p99_ms.to_bits(),
        p.p999_ms.to_bits(),
        p.goodput_rps.to_bits(),
        p.batch_hash,
    ]
}

/// Applies the per-run serving checks to one fixed-point run.
pub fn check_serve_point(run: &mut Run, p: &LoadPoint, offered: usize) {
    run.check(
        "serving accounts for every request (completed + shed == offered)",
        p.completed + p.shed == offered as u64,
        &format!("{} + {} != {offered}", p.completed, p.shed),
    );
    run.check(
        "no degraded answers on a clean layout",
        p.degraded == 0 && p.degraded_batches == 0,
        &format!("{} degraded in {} batches", p.degraded, p.degraded_batches),
    );
}

fn timed_serve(args: &Args, run: &mut Run) {
    let w = args.workload;
    let (spec, factor) = w.dataset(args.seed);
    let cfg = w.train_config(args.seed, None);
    let scfg = ServeConfig::paper_default();
    describe(run, w, &spec, factor, &cfg);

    let mut setup = Vec::new();
    let mut layout = None;
    for _ in 0..SETUP_REPS {
        // One layout alive at a time.
        drop(layout.take());
        let (l, secs) = setup_serving(&spec, &cfg);
        setup.push(secs);
        layout = Some(l);
    }
    let layout = layout.expect("at least one set-up");
    report_setup(run, &setup);
    let engine = ServeEngine::new(&layout, scfg.clone());
    let nodes = layout.graph.num_nodes();

    // Highest rate meeting the SLO (virtual clock, exact per seed).
    let max_rps = highest_passing(SWEEP_LO, SWEEP_HI, SWEEP_ITERS, |rate| {
        let trace = open_loop_trace(args.seed, rate, SWEEP_REQUESTS, nodes);
        meets_slo(&engine.run(&trace), &scfg)
    });
    run.check(
        "the 50k rps point meets the SLO",
        max_rps.is_some(),
        "sweep found no passing rate",
    );
    run.metric("virtual_items_per_s", max_rps.unwrap_or(0.0), "1/s");

    // The fixed point, repeated for the timed rate. Every repeat must
    // reproduce the first one's virtual metrics and batch hash.
    let trace = open_loop_trace(args.seed, SERVE_RATE, SERVE_REQUESTS, nodes);
    let mut first: Option<LoadPoint> = None;
    let mut samples = Vec::new();
    // `ServeEngine::run` runs on the calling thread.
    let mut cal = Calibration::new(Cores::Caller);
    let start = Stopwatch::start();
    while samples.len() < MIN_SAMPLES || start.wall_s() < args.seconds {
        cal.sample();
        let t = Stopwatch::start();
        let stats = engine.run(&trace);
        samples.push(Sample {
            items: SERVE_REQUESTS as f64,
            wall_s: t.wall_s(),
            cpu_s: t.cpu_s(),
        });
        let p = LoadPoint::from_stats(SERVE_RATE, &stats);
        check_serve_point(run, &p, SERVE_REQUESTS);
        run.tally.attempted += SERVE_REQUESTS as u64;
        run.tally.failed +=
            p.shed + stats.responses.iter().filter(|r| !r.deadline_met).count() as u64;
        match &first {
            None => first = Some(p),
            Some(f) => run.check(
                "same seed repeats serving latencies and batch hash",
                virtual_key(f) == virtual_key(&p),
                &format!("{f:?} vs {p:?}"),
            ),
        }
    }
    let p = first.expect("at least one fixed-point run");
    run.metric("virtual_latency_ms", p.p99_ms, "ms");
    cal.sample();
    report_rate(run, "serve_requests", "run", &samples, &cal);
    run.note(format!(
        "50k rps: p50 {:.6} ms p99 {:.6} ms (virtual, n={}), {} shed, mean batch {:.3}; \
         open loop on the virtual clock, so generator lateness is 0",
        p.p50_ms, p.p99_ms, p.completed, p.shed, p.mean_batch
    ));
    run.note(format!(
        "serve_max_rps_under_slo {:.1} (search {SWEEP_LO}..{SWEEP_HI}, {SWEEP_ITERS} halvings, \
         {SWEEP_REQUESTS} requests per probe)",
        max_rps.unwrap_or(0.0)
    ));
}

/// One measured epoch (training) or run of the 50k trace (serving).
struct Sample {
    items: f64,
    wall_s: f64,
    cpu_s: f64,
}

/// Reports `items_per_ref_cpu_s`: all measured items over all CPU
/// time the process spent on them, in reference CPU seconds (see
/// [`crate::clock`]). Pooled rather than a median of per-sample rates,
/// so slow and fast stretches average out. The raw wall and CPU rates,
/// which move with the host as well as the program, go to the notes.
fn report_rate(run: &mut Run, what: &str, unit: &str, samples: &[Sample], cal: &Calibration) {
    let items: f64 = samples.iter().map(|s| s.items).sum();
    let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let reference: f64 = cal.to_reference_s(&cpu).iter().sum();
    let cpu: f64 = cpu.iter().sum();
    let wall: f64 = samples.iter().map(|s| s.wall_s).sum();
    run.metric("items_per_ref_cpu_s", stats::ratio(items, reference), "1/s");
    let wall_rates: Vec<f64> = samples.iter().map(|s| s.items / s.wall_s).collect();
    if let Some(s) = stats::summarize(&wall_rates) {
        run.note(format!(
            "{what} per wall s: {:.3} overall; per {unit}: n={} median {:.3}, p{} {:.3}",
            stats::ratio(items, wall),
            s.n,
            s.p50,
            s.tail_q * 100.0,
            s.tail
        ));
    }
    run.note(format!(
        "{what} per CPU s: {:.3} ({cpu:.3} CPU s in {wall:.3} wall s, {:.2} cores busy); \
         host speed {:?}",
        stats::ratio(items, cpu),
        stats::ratio(cpu, wall),
        cal.samples()
    ));
}

/// Reports `setup_s`: the median of the set-ups' CPU seconds, each in
/// reference CPU seconds. Notes both clocks' raw samples.
fn report_setup(run: &mut Run, setup: &[SetupTime]) {
    let reference: Vec<f64> = setup.iter().map(|s| s.reference_s).collect();
    run.metric("setup_s", median(&reference), "s");
    run.note(format!(
        "setup reference CPU s {reference:?}; CPU s {:?}; wall s {:?}",
        setup.iter().map(|s| s.cpu_s).collect::<Vec<_>>(),
        setup.iter().map(|s| s.wall_s).collect::<Vec<_>>()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LAYER_METRICS;
    use dsp::trace::json::{self, Json};

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(&LAYER_METRICS));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        for w in &workloads {
            assert!(Workload::from_name(w).is_some(), "unknown workload {w}");
        }
        assert_eq!(workloads.len(), 4);
    }

    #[test]
    fn every_workload_pins_its_config() {
        for w in [
            Workload::TrainProducts,
            Workload::PipelinePapers,
            Workload::SplitProducts,
        ] {
            let dir = std::path::Path::new("ckpt");
            let c = w.train_config(7, Some(dir));
            c.validate();
            assert_eq!(c.seed, 7);
            assert_eq!(c.exec_compute, w == Workload::TrainProducts);
            assert_eq!(
                c.train_mode == TrainMode::Split,
                w == Workload::SplitProducts
            );
            assert_eq!(c.ckpt_every > 0, w == Workload::PipelinePapers);
            let (spec, _) = w.dataset(7);
            assert_eq!(spec.seed, 7);
        }
    }
}
