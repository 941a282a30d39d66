//! The traced run: per-layer metrics, measured from outside the
//! program.
//!
//! Training workloads get two parts. First, a pipelined epoch runs with
//! the `ds_trace` recorder on; its event stream is folded over the full
//! span tree (self time per span) and compared in wall time with an
//! untraced epoch. Second, a per-layer wall driver composes the DSP-Seq
//! step from the public per-rank components — `CspSampler`,
//! `DspLoader`, `SplitExchange`, `Trainer` — and wraps every call in a
//! span with both clocks. Its final parameter checksum must equal
//! DSP-Seq's, which proves it runs the same step. Serving traces one
//! `ServeEngine::run` the same way.

use crate::spans::{self, Span};
use crate::stats::{self, mean, median, ratio, summarize};
use crate::workloads::{
    check_serve_point, checked_epoch, describe, Workload, GPUS, SERVE_RATE, SERVE_REQUESTS,
};
use crate::{Args, Run, ScratchDir};
use dsp::cache::DspLoader;
use dsp::comm::{CommConfig, Communicator};
use dsp::core::config::TrainMode;
use dsp::core::layout::{build_dsp_layout, DspLayout};
use dsp::core::split::SplitExchange;
use dsp::core::{DspSystem, TrainConfig};
use dsp::gnn::{GnnKind, Trainer};
use dsp::graph::NodeId;
use dsp::sampling::{CspConfig, CspSampler, GraphSample};
use dsp::serve::{open_loop_trace, LoadPoint, ServeConfig, ServeEngine};
use dsp::simgpu::{Clock, TrafficMeter};
use dsp::store::Checkpoint;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit. A layer a workload bypasses
/// reports 0 there.
pub const LAYER_METRICS: [(&str, &str); 62] = [
    ("graph.build_s", "s"),
    ("partition.layout_s", "s"),
    ("dsp.new_s", "s"),
    ("sampling.wall_ms.p50", "ms"),
    ("sampling.wall_ms.tail", "ms"),
    ("sampling.virtual_ms", "ms"),
    ("sampling.shuffle_virtual_ms", "ms"),
    ("sampling.sample_virtual_ms", "ms"),
    ("sampling.reshuffle_virtual_ms", "ms"),
    ("sampling.nvlink_bytes", "bytes"),
    ("sampling.input_rows", "count"),
    ("sampling.calls", "count"),
    ("cache.wall_ms.p50", "ms"),
    ("cache.wall_ms.tail", "ms"),
    ("cache.virtual_ms", "ms"),
    ("cache.hot_virtual_ms", "ms"),
    ("cache.cold_virtual_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.prefetch_hit_ratio", "ratio"),
    ("cache.pcie_bytes", "bytes"),
    ("cache.calls", "count"),
    ("gnn.forward_wall_ms", "ms"),
    ("gnn.backward_wall_ms", "ms"),
    ("gnn.gflops", "GFLOP/s"),
    ("trainer.step_wall_ms.p50", "ms"),
    ("trainer.step_wall_ms.tail", "ms"),
    ("trainer.step_virtual_ms", "ms"),
    ("trainer.calls", "count"),
    ("comm.allreduce_wall_us", "us"),
    ("comm.allreduce_bytes", "bytes"),
    ("comm.rounds", "count"),
    ("comm.round_virtual_us", "us"),
    ("pipeline.utilization", "ratio"),
    ("pipeline.busy_virtual_s.sample", "s"),
    ("pipeline.busy_virtual_s.load", "s"),
    ("pipeline.busy_virtual_s.train", "s"),
    ("pipeline.queue_wait_virtual_s.q.sample", "s"),
    ("pipeline.queue_wait_virtual_s.q.feat", "s"),
    ("pipeline.queue_wait_virtual_s.q.prefetch", "s"),
    ("exec.tasks", "count"),
    ("exec.helped_ratio", "ratio"),
    ("exec.stolen", "count"),
    ("split.exchange_wall_ms", "ms"),
    ("split.exchange_virtual_ms", "ms"),
    ("split.nvlink_bytes", "bytes"),
    ("split.pcie_bytes", "bytes"),
    ("store.ckpt_save_ms", "ms"),
    ("store.ckpt_bytes", "bytes"),
    ("serve.wall_us_per_request", "us"),
    ("serve.sample_virtual_us", "us"),
    ("serve.fetch_virtual_us", "us"),
    ("serve.forward_virtual_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.shed_queue", "count"),
    ("serve.shed_deadline", "count"),
    ("serve.p50_ms", "ms"),
    ("sampling.wall_per_virtual", "ratio"),
    ("cache.wall_per_virtual", "ratio"),
    ("trainer.wall_per_virtual", "ratio"),
    ("split.wall_per_virtual", "ratio"),
    ("unattributed_wall_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Serving's overload point, where admission control must shed.
const OVERLOAD_RATE: f64 = 80_000.0;

fn unit_of(name: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
        .1
}

/// Reports a declared per-layer metric.
fn put(run: &mut Run, name: &str, value: f64) {
    run.metric(name, value, unit_of(name));
}

pub fn traced_run(args: &Args, run: &mut Run) {
    if args.workload == Workload::ServePapers {
        traced_serve(args, run);
    } else {
        traced_training(args, run);
    }
    // Layers this workload bypasses did no work: report them as 0.
    for (name, unit) in LAYER_METRICS {
        if !run.has_metric(name) {
            run.metric(name, 0.0, unit);
        }
    }
}

/// Runs `f` with the recorder on and returns its result, its wall time
/// and the events it recorded.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, f64, Vec<dsp::trace::Event>) {
    let rec = dsp::trace::recorder();
    rec.clear();
    rec.set_enabled(true);
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    rec.set_enabled(false);
    (out, wall, rec.take())
}

/// Folds a recorded event stream; an unbalanced stream fails the run.
fn fold(run: &mut Run, events: &[dsp::trace::Event]) -> BTreeMap<String, (f64, u64)> {
    match spans::spans_from_events(events) {
        Ok(s) => spans::totals_by_name(&s),
        Err(e) => {
            run.check(
                "trace event stream folds into a span tree",
                false,
                &e.to_string(),
            );
            BTreeMap::new()
        }
    }
}

fn traced_training(args: &Args, run: &mut Run) {
    let w = args.workload;
    let (spec, factor) = w.dataset(args.seed);
    let ckpt = ScratchDir::new("ckpt-trace").expect("create the per-run checkpoint directory");
    let cfg = w.train_config(args.seed, Some(ckpt.path()));
    describe(run, w, &spec, factor, &cfg);

    let t = Instant::now();
    let dataset = spec.build();
    put(run, "graph.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let layout = build_dsp_layout(&dataset, GPUS, &cfg);
    put(run, "partition.layout_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut sys = DspSystem::new(&dataset, GPUS, &cfg, true);
    put(run, "dsp.new_s", t.elapsed().as_secs_f64());

    // Part 1: the pipelined system. Epoch 0 warms up, epoch 1 runs
    // untraced, epoch 2 runs with the recorder on.
    let Some(warm) = checked_epoch(w, &mut sys, 0, 0, run) else {
        return;
    };
    let exec0 = dsp::exec::stats();
    let (hits0, cold0) = sys.loader_totals();
    let pf0 = sys.prefetch_hit_total();
    let t = Instant::now();
    let untraced = checked_epoch(w, &mut sys, 1, warm.num_batches, run);
    let wall_untraced = t.elapsed().as_secs_f64();
    let exec1 = dsp::exec::stats();
    let (hits1, cold1) = sys.loader_totals();
    let pf1 = sys.prefetch_hit_total();
    if let Some(s) = untraced {
        put(run, "pipeline.utilization", s.utilization);
        put(run, "pipeline.busy_virtual_s.sample", s.sample_time);
        put(run, "pipeline.busy_virtual_s.load", s.load_time);
        put(run, "pipeline.busy_virtual_s.train", s.train_time);
    }
    let (hits, cold) = ((hits1 - hits0) as f64, (cold1 - cold0) as f64);
    put(run, "cache.hit_ratio", ratio(hits, hits + cold));
    put(
        run,
        "cache.prefetch_hit_ratio",
        ratio((pf1 - pf0) as f64, cold),
    );
    let executed = (exec1.executed - exec0.executed) as f64;
    put(
        run,
        "exec.tasks",
        (exec1.submitted - exec0.submitted) as f64,
    );
    put(
        run,
        "exec.helped_ratio",
        ratio((exec1.helped - exec0.helped) as f64, executed),
    );
    put(run, "exec.stolen", (exec1.stolen - exec0.stolen) as f64);

    let (traced, wall_traced, events) =
        recorded(|| checked_epoch(w, &mut sys, 2, warm.num_batches, run));
    ckpt.clear().expect("clear checkpoint scratch");
    if traced.is_some() {
        put(
            run,
            "trace.overhead_frac",
            wall_traced / wall_untraced - 1.0,
        );
        fold_pipeline(run, &events);
    }
    drop(sys);

    // Part 2: DSP-Seq's checksum, then the per-layer driver.
    let mut seq = DspSystem::new(&dataset, GPUS, &cfg, false);
    let seq_epoch = checked_epoch(w, &mut seq, 0, warm.num_batches, run);
    let seq_sum = seq.param_checksum();
    let seq_hash = seq.grad_stream_hashes()[0];
    put(run, "comm.allreduce_bytes", seq.grad_bytes() as f64);
    drop(seq);
    ckpt.clear().expect("clear checkpoint scratch");
    drop(dataset);

    let mut driver = Driver::new(&layout, &cfg, ckpt.path());
    let mut calls = Vec::new();
    let mut unattributed = Vec::new();
    let start = Instant::now();
    let mut epoch = 0u64;
    loop {
        let makespan = match driver.run_epoch(epoch) {
            Ok(e) => {
                calls.extend(e.calls);
                unattributed.push(e.unattributed);
                e.makespan
            }
            Err(e) => {
                run.check("per-layer driver epoch ran", false, &e);
                break;
            }
        };
        let sums = driver.checksums();
        run.check(
            "per-layer driver replicas equal",
            sums.windows(2).all(|p| p[0].to_bits() == p[1].to_bits()),
            &format!("epoch {epoch}: {sums:?}"),
        );
        if let (0, Some(seq_epoch)) = (epoch, &seq_epoch) {
            // Same parameters, same gradient stream and the same virtual
            // makespan: the driver composes exactly DSP-Seq's step.
            let hash = driver.ranks[0].trainer.grad_stream_hash();
            run.check(
                "per-layer driver composes the DSP-Seq step",
                sums[0].to_bits() == seq_sum.to_bits()
                    && hash == seq_hash
                    && makespan.to_bits() == seq_epoch.epoch_time.to_bits(),
                &format!(
                    "checksum {} vs {seq_sum}, grad hash {hash:x} vs {seq_hash:x}, \
                     makespan {makespan} vs {}",
                    sums[0], seq_epoch.epoch_time
                ),
            );
        }
        if w == Workload::PipelinePapers {
            let written = std::fs::read_dir(ckpt.path()).map_or(0, |d| d.count());
            run.check(
                "driver checkpoints written to the per-run directory",
                written > 0,
                &format!("epoch {epoch}: {written} files"),
            );
        }
        ckpt.clear().expect("clear checkpoint scratch");
        epoch += 1;
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    report_driver(run, &calls);
    put(run, "unattributed_wall_frac", mean(&unattributed));
    run.note(format!(
        "driver: {epoch} epochs, {} calls; extra calls (not part of the step): {}",
        calls.len(),
        if cfg.exec_compute {
            "gnn.forward + gnn.backward on the trainer's model, comm.allreduce of a parameter-sized buffer"
        } else {
            "comm.allreduce of a parameter-sized buffer"
        }
    ));
}

/// Per-batch virtual self times and counters from the traced pipelined
/// epoch.
fn fold_pipeline(run: &mut Run, events: &[dsp::trace::Event]) {
    let totals = fold(run, events);
    let counters = spans::counter_sums(events);
    let count = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
    let self_ms = |name: &str, per: f64| ratio(totals.get(name).map_or(0.0, |t| t.0), per) * 1e3;
    let batches = count("sample");
    let loads = count("load");
    put(
        run,
        "sampling.shuffle_virtual_ms",
        self_ms("csp.shuffle", batches),
    );
    put(
        run,
        "sampling.sample_virtual_ms",
        self_ms("csp.sample", batches),
    );
    put(
        run,
        "sampling.reshuffle_virtual_ms",
        self_ms("csp.reshuffle", batches),
    );
    put(run, "cache.hot_virtual_ms", self_ms("load.hot", loads));
    put(run, "cache.cold_virtual_ms", self_ms("load.cold", loads));
    let rounds: u64 = totals
        .iter()
        .filter(|(n, _)| n.starts_with("comm."))
        .map(|(_, t)| t.1)
        .sum();
    put(run, "comm.rounds", ratio(rounds as f64, batches));
    let (round_s, round_n) = counters.get("comm.round_s").copied().unwrap_or_default();
    put(
        run,
        "comm.round_virtual_us",
        ratio(round_s, round_n as f64) * 1e6,
    );
    for q in ["q.sample", "q.feat", "q.prefetch"] {
        let wait = counters.get(&format!("{q}.wait_s")).map_or(0.0, |c| c.0);
        put(
            run,
            &format!("pipeline.queue_wait_virtual_s.{q}"),
            wait / GPUS as f64,
        );
    }
    run.note(format!(
        "traced epoch: {} events, {batches} sample spans, {rounds} comm rounds; queue waits are \
         per rank per epoch",
        events.len()
    ));
}

/// One timed call of the per-layer driver.
struct Call {
    layer: &'static str,
    rank: usize,
    /// Wall seconds since the epoch started.
    wall: (f64, f64),
    /// The rank's virtual clock before and after.
    virt: (f64, f64),
    /// NVLink and PCIe bytes this rank's device sent during the call.
    nvlink: u64,
    pcie: u64,
    /// Layer-specific size: sampled input rows, checkpoint bytes or
    /// model FLOPs.
    items: u64,
}

/// The per-rank state of the driver.
struct RankParts {
    sampler: CspSampler,
    loader: DspLoader,
    trainer: Trainer,
    exchange: Option<SplitExchange>,
}

/// What every rank of the driver shares.
struct Shared<'a> {
    layout: &'a DspLayout,
    exec: bool,
    seed: u64,
    ckpt_every: u64,
    ckpt_dir: &'a std::path::Path,
    /// A separate group for the extra, parameter-sized allreduce.
    extra_comm: Arc<Communicator>,
}

/// DSP-Seq's step composed from the public per-rank components, with
/// plain communicators and one thread per rank.
struct Driver<'a> {
    shared: Shared<'a>,
    ranks: Vec<RankParts>,
}

impl<'a> Driver<'a> {
    fn new(layout: &'a DspLayout, cfg: &TrainConfig, ckpt_dir: &'a std::path::Path) -> Self {
        let cluster = &layout.cluster;
        let comm_cfg = CommConfig {
            deadline: Duration::from_secs_f64(cfg.comm_deadline_secs),
        };
        let comm = |id| Arc::new(Communicator::new(id, Arc::clone(cluster)).with_config(comm_cfg));
        let (sampler_comm, loader_comm, trainer_comm) = (comm(1), comm(2), comm(3));
        let exchange_comm = (cfg.train_mode == TrainMode::Split).then(|| comm(4));
        let csp = CspConfig {
            fanout: cfg.fanout.clone(),
            scheme: cfg.scheme,
            biased: cfg.biased,
            fused: true,
            temporal_cutoff: None,
            seed: cfg.seed,
        };
        let ranks = (0..GPUS)
            .map(|rank| RankParts {
                sampler: CspSampler::new(
                    Arc::clone(&layout.dist_graph),
                    Arc::clone(cluster),
                    Arc::clone(&sampler_comm),
                    rank,
                    csp.clone(),
                ),
                loader: DspLoader::new(
                    Arc::clone(&layout.cache),
                    Arc::clone(&layout.features),
                    Arc::clone(cluster),
                    Arc::clone(&loader_comm),
                    rank,
                ),
                trainer: Trainer::new(
                    cfg.model,
                    layout.in_dim,
                    cfg.hidden,
                    layout.classes,
                    cfg.num_layers,
                    cfg.lr,
                    Arc::clone(&trainer_comm),
                    Arc::clone(cluster),
                    rank,
                    cfg.seed,
                ),
                exchange: exchange_comm.as_ref().map(|ex| {
                    SplitExchange::new(
                        Arc::clone(ex),
                        Arc::clone(&layout.cache),
                        Arc::clone(&layout.features),
                        Arc::clone(cluster),
                        Arc::clone(&layout.dist_graph),
                        rank,
                        cfg.model == GnnKind::Gcn,
                    )
                }),
            })
            .collect();
        Driver {
            shared: Shared {
                layout,
                exec: cfg.exec_compute,
                seed: cfg.seed,
                ckpt_every: cfg.ckpt_every,
                ckpt_dir,
                extra_comm: comm(5),
            },
            ranks,
        }
    }

    fn checksums(&self) -> Vec<f64> {
        self.ranks
            .iter()
            .map(|r| r.trainer.param_checksum())
            .collect()
    }

    /// One epoch on one thread per rank.
    fn run_epoch(&mut self, epoch: u64) -> Result<DriverEpoch, String> {
        let shared = &self.shared;
        let t0 = Instant::now();
        let results: Vec<Result<(Vec<Call>, f64), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .ranks
                .iter_mut()
                .enumerate()
                .map(|(rank, parts)| {
                    let batches = shared.layout.schedules[rank].epoch_batches(epoch);
                    s.spawn(move || run_rank(parts, rank, epoch, &batches, shared, t0))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver rank thread panicked"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut calls = Vec::new();
        let mut makespan = 0.0f64;
        for r in results {
            let (c, now) = r?;
            calls.extend(c);
            makespan = makespan.max(now);
        }
        let fracs: Vec<f64> = (0..GPUS)
            .map(|rank| {
                let top: Vec<Span> = calls
                    .iter()
                    .filter(|c| c.rank == rank)
                    .map(|c| Span {
                        name: c.layer.to_string(),
                        start: c.wall.0,
                        end: c.wall.1,
                        parent: None,
                    })
                    .collect();
                spans::unattributed_frac(&top, (0.0, wall))
            })
            .collect();
        Ok(DriverEpoch {
            calls,
            unattributed: mean(&fracs),
            makespan,
        })
    }
}

/// What one driver epoch measured.
struct DriverEpoch {
    calls: Vec<Call>,
    /// Wall share no top-level span covers, mean over ranks.
    unattributed: f64,
    /// Virtual makespan: the latest rank clock.
    makespan: f64,
}

/// One rank's call log: every call timed on both clocks, with the bytes
/// the rank's device sent meanwhile.
struct CallLog<'a> {
    calls: Vec<Call>,
    rank: usize,
    t0: Instant,
    meter: &'a TrafficMeter,
}

impl CallLog<'_> {
    /// Runs `f` as one call of `layer`; `items` sizes its result.
    fn time<T>(
        &mut self,
        layer: &'static str,
        clock: &mut Clock,
        items: impl FnOnce(&T) -> u64,
        f: impl FnOnce(&mut Clock) -> T,
    ) -> T {
        let (nv0, pc0, _) = self.meter.snapshot();
        let v0 = clock.now();
        let w0 = self.t0.elapsed().as_secs_f64();
        let out = f(clock);
        let w1 = self.t0.elapsed().as_secs_f64();
        let (nv1, pc1, _) = self.meter.snapshot();
        self.calls.push(Call {
            layer,
            rank: self.rank,
            wall: (w0, w1),
            virt: (v0, clock.now()),
            nvlink: nv1 - nv0,
            pcie: pc1 - pc0,
            items: items(&out),
        });
        out
    }
}

/// One rank's epoch of the DSP-Seq step, every call logged. Returns the
/// calls and the rank's final virtual time.
// The timed closures return the library's own `CommError`.
#[allow(clippy::result_large_err)]
fn run_rank(
    parts: &mut RankParts,
    rank: usize,
    epoch: u64,
    batches: &[Vec<NodeId>],
    shared: &Shared,
    t0: Instant,
) -> Result<(Vec<Call>, f64), String> {
    let mut log = CallLog {
        calls: Vec::new(),
        rank,
        t0,
        meter: &shared.layout.cluster.device(rank).meter,
    };
    let mut clock = Clock::new();
    let base = parts.sampler.next_batch_index();
    let num_params = parts.trainer.model().num_params();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("rank {rank} {what}: {e}");
    for (b, seeds) in batches.iter().enumerate() {
        let sample = log
            .time(
                "sampling",
                &mut clock,
                |r: &Result<GraphSample, _>| r.as_ref().map_or(0, |s| s.input_nodes().len() as u64),
                |c| parts.sampler.try_sample_batch(c, seeds),
            )
            .map_err(|e| fail("sampling", &e))?;
        let labels: Vec<u32> = sample
            .seeds
            .iter()
            .map(|&v| shared.layout.labels.get(v))
            .collect();
        // Split mode loads only the innermost block's dst rows and
        // exchanges partial aggregates for the rest.
        let (feats, agg) = match &parts.exchange {
            Some(ex) => {
                let block = sample.layers.last().expect("sample has layers");
                let feats = log
                    .time(
                        "cache",
                        &mut clock,
                        |_| 0,
                        |c| parts.loader.try_load(c, &block.dst),
                    )
                    .map_err(|e| fail("load", &e))?;
                let agg = log
                    .time(
                        "split",
                        &mut clock,
                        |_| 0,
                        |c| ex.try_exchange(c, block, &feats),
                    )
                    .map_err(|e| fail("exchange", &e))?;
                (feats, Some(agg))
            }
            None => {
                let feats = log
                    .time(
                        "cache",
                        &mut clock,
                        |_| 0,
                        |c| parts.loader.try_load(c, sample.input_nodes()),
                    )
                    .map_err(|e| fail("load", &e))?;
                (feats, None)
            }
        };
        // Extra calls, off the step's clock: forward and backward on the
        // trainer's model where math executes.
        if shared.exec && agg.is_none() && !sample.seeds.is_empty() {
            let model = parts.trainer.model();
            let flops = model.train_flops(&sample);
            let mut scratch = Clock::new();
            let (_, tape) = log.time(
                "gnn.forward",
                &mut scratch,
                |_| flops,
                |_| model.forward(&sample, &feats, &labels),
            );
            std::hint::black_box(log.time(
                "gnn.backward",
                &mut scratch,
                |_| 0,
                |_| model.backward(&sample, &tape, &labels),
            ));
        }
        let trainer = &mut parts.trainer;
        log.time(
            "trainer",
            &mut clock,
            |_| 0,
            |c| match (shared.exec, &agg) {
                (true, None) => trainer.try_train_batch(c, &sample, &feats, &labels),
                (true, Some(agg)) => {
                    trainer.try_train_batch_split(c, &sample, &feats, agg, &labels)
                }
                (false, None) => trainer.try_train_batch_timing_only(c, &sample),
                (false, Some(_)) => trainer.try_train_batch_timing_only_split(c, &sample),
            },
        )
        .map_err(|e| fail("train", &e))?;
        // Rank 0 snapshots on the global-batch cadence, as the system's
        // trainer does; saving charges no virtual time.
        let done = base + b as u64 + 1;
        if rank == 0 && shared.ckpt_every > 0 && done.is_multiple_of(shared.ckpt_every) {
            let (params, adam_t, adam_m, adam_v) = parts.trainer.checkpoint_state();
            let snapshot = Checkpoint {
                seed: shared.seed,
                epoch,
                batch_in_epoch: b as u64 + 1,
                cursors: vec![done; GPUS],
                rng: dsp::rng::Rng::seed_from_u64(shared.seed).state(),
                params,
                adam_t,
                adam_m,
                adam_v,
            };
            let file_len = |r: &Result<std::path::PathBuf, _>| {
                r.as_ref()
                    .ok()
                    .and_then(|p| std::fs::metadata(p).ok())
                    .map_or(0, |m| m.len())
            };
            log.time("store", &mut clock, file_len, |_| {
                snapshot.save(shared.ckpt_dir)
            })
            .map_err(|e| fail("checkpoint", &e))?;
        }
        // Extra call: an allreduce of a parameter-sized buffer on its own
        // group, off the step's clock.
        let buf = vec![0.0f32; num_params];
        let mut scratch = Clock::new();
        std::hint::black_box(
            log.time(
                "comm.allreduce",
                &mut scratch,
                |_| 0,
                |c| shared.extra_comm.try_all_reduce_sum(rank, c, buf),
            )
            .map_err(|e| fail("extra allreduce", &e))?,
        );
    }
    Ok((log.calls, clock.now()))
}

/// Per-layer metrics from the driver's calls.
fn report_driver(run: &mut Run, calls: &[Call]) {
    let of = |layer: &'static str| calls.iter().filter(move |c| c.layer == layer);
    let wall_ms = |layer: &'static str| {
        of(layer)
            .map(|c| (c.wall.1 - c.wall.0) * 1e3)
            .collect::<Vec<_>>()
    };
    let virt_ms = |layer: &'static str| {
        of(layer)
            .map(|c| (c.virt.1 - c.virt.0) * 1e3)
            .collect::<Vec<_>>()
    };
    let per_call = |layer: &'static str, f: fn(&Call) -> u64| {
        mean(&of(layer).map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let calibration =
        |layer: &'static str| ratio(wall_ms(layer).iter().sum(), virt_ms(layer).iter().sum());
    for (layer, prefix) in [
        ("sampling", "sampling.wall_ms"),
        ("cache", "cache.wall_ms"),
        ("trainer", "trainer.step_wall_ms"),
    ] {
        if let Some(s) = summarize(&wall_ms(layer)) {
            put(run, &format!("{prefix}.p50"), s.p50);
            put(run, &format!("{prefix}.tail"), s.tail);
            run.note(format!(
                "{prefix}: n={} p50 {:.4} ms, tail p{} {:.4} ms (the highest percentile with >= {} samples beyond)",
                s.n,
                s.p50,
                s.tail_q * 100.0,
                s.tail,
                stats::MIN_BEYOND
            ));
        }
    }
    put(run, "sampling.virtual_ms", mean(&virt_ms("sampling")));
    put(
        run,
        "sampling.nvlink_bytes",
        per_call("sampling", |c| c.nvlink),
    );
    put(
        run,
        "sampling.input_rows",
        per_call("sampling", |c| c.items),
    );
    put(run, "sampling.calls", of("sampling").count() as f64);
    put(run, "cache.virtual_ms", mean(&virt_ms("cache")));
    put(run, "cache.pcie_bytes", per_call("cache", |c| c.pcie));
    put(run, "cache.calls", of("cache").count() as f64);
    put(run, "trainer.step_virtual_ms", mean(&virt_ms("trainer")));
    put(run, "trainer.calls", of("trainer").count() as f64);
    put(
        run,
        "comm.allreduce_wall_us",
        median(&wall_ms("comm.allreduce")) * 1e3,
    );
    put(run, "sampling.wall_per_virtual", calibration("sampling"));
    put(run, "cache.wall_per_virtual", calibration("cache"));
    put(run, "trainer.wall_per_virtual", calibration("trainer"));
    if of("gnn.forward").next().is_some() {
        let fwd = wall_ms("gnn.forward");
        let bwd = wall_ms("gnn.backward");
        put(run, "gnn.forward_wall_ms", median(&fwd));
        put(run, "gnn.backward_wall_ms", median(&bwd));
        let flops: u64 = of("gnn.forward").map(|c| c.items).sum();
        let secs = (fwd.iter().sum::<f64>() + bwd.iter().sum::<f64>()) * 1e-3;
        put(run, "gnn.gflops", ratio(flops as f64, secs) * 1e-9);
    }
    if of("split").next().is_some() {
        put(run, "split.exchange_wall_ms", median(&wall_ms("split")));
        put(run, "split.exchange_virtual_ms", mean(&virt_ms("split")));
        put(run, "split.nvlink_bytes", per_call("split", |c| c.nvlink));
        put(run, "split.pcie_bytes", per_call("split", |c| c.pcie));
        put(run, "split.wall_per_virtual", calibration("split"));
    }
    if of("store").next().is_some() {
        put(run, "store.ckpt_save_ms", median(&wall_ms("store")));
        put(run, "store.ckpt_bytes", per_call("store", |c| c.items));
    }
}

fn traced_serve(args: &Args, run: &mut Run) {
    let w = args.workload;
    let (spec, factor) = w.dataset(args.seed);
    let cfg = w.train_config(args.seed, None);
    let scfg = ServeConfig::paper_default();
    describe(run, w, &spec, factor, &cfg);

    let t = Instant::now();
    let dataset = spec.build();
    put(run, "graph.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let layout = build_dsp_layout(&dataset, GPUS, &cfg);
    put(run, "partition.layout_s", t.elapsed().as_secs_f64());
    drop(dataset);
    let t = Instant::now();
    let engine = ServeEngine::new(&layout, scfg);
    put(run, "dsp.new_s", t.elapsed().as_secs_f64());
    let nodes = layout.graph.num_nodes();

    // Warm-up, then repeated untraced runs of the fixed point. The
    // phase's wall time not spent inside `ServeEngine::run` is the
    // unattributed share.
    let trace = open_loop_trace(args.seed, SERVE_RATE, SERVE_REQUESTS, nodes);
    let exec0 = dsp::exec::stats();
    let warm = engine.run(&trace);
    let exec1 = dsp::exec::stats();
    put(
        run,
        "exec.tasks",
        (exec1.submitted - exec0.submitted) as f64,
    );
    put(
        run,
        "exec.helped_ratio",
        ratio(
            (exec1.helped - exec0.helped) as f64,
            (exec1.executed - exec0.executed) as f64,
        ),
    );
    put(run, "exec.stolen", (exec1.stolen - exec0.stolen) as f64);
    let mut run_walls = Vec::new();
    let mut fracs = Vec::new();
    let start = Instant::now();
    while run_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let phase = Instant::now();
        let trace = open_loop_trace(args.seed, SERVE_RATE, SERVE_REQUESTS, nodes);
        let t = Instant::now();
        let stats = engine.run(&trace);
        let wall = t.elapsed().as_secs_f64();
        let p = LoadPoint::from_stats(SERVE_RATE, &stats);
        check_serve_point(run, &p, SERVE_REQUESTS);
        run.tally.attempted += SERVE_REQUESTS as u64;
        run.tally.failed +=
            p.shed + stats.responses.iter().filter(|r| !r.deadline_met).count() as u64;
        run.check(
            "same seed repeats serving stats",
            stats == warm,
            "untraced repeat differs from the warm-up run",
        );
        run_walls.push(wall);
        fracs.push(1.0 - wall / phase.elapsed().as_secs_f64());
    }
    let wall_untraced = median(&run_walls);
    put(
        run,
        "serve.wall_us_per_request",
        wall_untraced / SERVE_REQUESTS as f64 * 1e6,
    );
    put(run, "unattributed_wall_frac", median(&fracs));
    let p = LoadPoint::from_stats(SERVE_RATE, &warm);
    put(run, "serve.mean_batch", p.mean_batch);
    put(run, "serve.p50_ms", p.p50_ms);

    let (traced, wall_traced, events) = recorded(|| engine.run(&trace));
    run.check(
        "tracing leaves the virtual serving run unchanged",
        traced == warm,
        "traced run differs from the untraced one",
    );
    put(
        run,
        "trace.overhead_frac",
        wall_traced / wall_untraced - 1.0,
    );
    let totals = fold(run, &events);
    let batches = totals.get("serve.batch").map_or(0, |t| t.1) as f64;
    for part in ["sample", "fetch", "forward"] {
        let self_s = totals.get(&format!("serve.{part}")).map_or(0.0, |t| t.0);
        put(
            run,
            &format!("serve.{part}_virtual_us"),
            ratio(self_s, batches) * 1e6,
        );
    }

    let overload = engine.run(&open_loop_trace(
        args.seed,
        OVERLOAD_RATE,
        SERVE_REQUESTS,
        nodes,
    ));
    let o = LoadPoint::from_stats(OVERLOAD_RATE, &overload);
    check_serve_point(run, &o, SERVE_REQUESTS);
    put(run, "serve.shed_queue", o.shed_queue as f64);
    put(run, "serve.shed_deadline", o.shed_deadline as f64);
    run.note(format!(
        "serving: {} untraced runs of {SERVE_REQUESTS} requests at {SERVE_RATE} rps; sheds \
         counted at the {OVERLOAD_RATE} rps overload point ({} of {SERVE_REQUESTS} shed)",
        run_walls.len(),
        o.shed
    ));
}
