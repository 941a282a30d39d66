//! The rank executor every system runs on.
//!
//! A rank trains one mini-batch in three steps: **sample** the batch's
//! subgraph, **load** its input features, **train** on them. DSP's
//! supervised steps live on `RankCtx` in [`crate::dsp`]; the baselines
//! supply plain, unsupervised steps over their own samplers and loaders.
//! The steps are composed in exactly two ways:
//!
//! - [`run_sequential`] calls the three steps back to back on one thread
//!   per rank — DSP-Seq and every baseline;
//! - `run_rank_pipelined` in [`crate::dsp`] runs each step on its own
//!   worker thread, linked by bounded queues — DSP.
//!
//! Every composition reports one [`RankEpoch`] per rank, and
//! [`fold_epoch`] folds those into the epoch's [`EpochStats`].

use crate::error::DspError;
use crate::stats::{EpochStats, MetricAccumulator};
use ds_comm::CommError;
use ds_gnn::{BatchResult, Trainer};
use ds_graph::{Labels, NodeId};
use ds_sampling::{BatchSampler, GraphSample, SeedSchedule};
use ds_simgpu::{Clock, Cluster};
use ds_tensor::matrix::Matrix;

/// One rank's measurement of one epoch.
pub(crate) struct RankEpoch {
    pub sample_busy: f64,
    pub load_busy: f64,
    pub train_busy: f64,
    /// Occupancy-weighted device-useful seconds (Fig. 6's metric).
    pub useful: f64,
    pub makespan: f64,
    pub metrics: MetricAccumulator,
}

/// What a load step hands the train step: the batch's feature rows and,
/// in split mode, the combined innermost aggregate.
pub(crate) type Loaded = (Matrix, Option<Matrix>);

/// Runs `body` as one worker of rank `rank`: its own virtual clock, its
/// trace lane `tid` and an outer span `name` around the whole epoch.
pub(crate) fn worker<T>(
    rank: usize,
    tid: u32,
    name: &'static str,
    body: impl FnOnce(&mut Clock) -> Result<T, DspError>,
) -> Result<(Clock, T), DspError> {
    let _trace = ds_trace::worker(rank as u32, tid);
    let mut clock = Clock::new();
    ds_trace::span_begin(clock.now(), name);
    let out = body(&mut clock)?;
    ds_trace::span_end(clock.now());
    Ok((clock, out))
}

/// Runs `f` inside a span `name` tagged with batch `b`. A failed `f`
/// leaves the span open; the worker's trace guard closes it.
pub(crate) fn spanned<T>(
    clock: &mut Clock,
    name: &'static str,
    b: u64,
    f: impl FnOnce(&mut Clock) -> Result<T, DspError>,
) -> Result<T, DspError> {
    ds_trace::span_begin_arg(clock.now(), name, b);
    let out = f(clock)?;
    ds_trace::span_end(clock.now());
    Ok(out)
}

/// The sequential composition: the sample, load and train steps of
/// every batch run back to back on this thread. Busy time is measured
/// around whole steps; the injected stalls and backoffs inside a step
/// only wait, so they never count as busy.
pub(crate) fn run_sequential(
    rank: usize,
    batches: &[Vec<NodeId>],
    mut sample: impl FnMut(&mut Clock, u64, &[NodeId]) -> Result<GraphSample, DspError>,
    mut load: impl FnMut(&mut Clock, u64, &GraphSample) -> Result<Loaded, DspError>,
    mut train: impl FnMut(
        &mut Clock,
        u64,
        &GraphSample,
        &Matrix,
        Option<&Matrix>,
    ) -> Result<BatchResult, DspError>,
) -> Result<RankEpoch, DspError> {
    let (clock, (sb, lb, tb, metrics)) = worker(rank, ds_trace::TID_MAIN, "rank", |clock| {
        let mut metrics = MetricAccumulator::default();
        let (mut sb, mut lb, mut tb) = (0.0, 0.0, 0.0);
        for (b, seeds) in batches.iter().enumerate() {
            let b = b as u64;
            let b0 = clock.busy();
            let s = sample(clock, b, seeds)?;
            let b1 = clock.busy();
            let (feats, agg) = load(clock, b, &s)?;
            let b2 = clock.busy();
            let r = train(clock, b, &s, &feats, agg.as_ref())?;
            let b3 = clock.busy();
            sb += b1 - b0;
            lb += b2 - b1;
            tb += b3 - b2;
            metrics.add(r.loss, r.accuracy, r.seeds);
        }
        Ok((sb, lb, tb, metrics))
    })?;
    Ok(RankEpoch {
        sample_busy: sb,
        load_busy: lb,
        train_busy: tb,
        useful: clock.device_useful(),
        makespan: clock.now(),
        metrics,
    })
}

/// One training call: the real math against `labels` when given, the
/// timing model alone otherwise; `agg` (split mode's pre-combined
/// innermost aggregate) selects the split path.
pub(crate) fn train_call(
    trainer: &mut Trainer,
    clock: &mut Clock,
    sample: &GraphSample,
    feats: &Matrix,
    agg: Option<&Matrix>,
    labels: Option<&Labels>,
) -> Result<BatchResult, CommError> {
    let Some(labels) = labels else {
        return match agg {
            Some(_) => trainer.try_train_batch_timing_only_split(clock, sample),
            None => trainer.try_train_batch_timing_only(clock, sample),
        };
    };
    let lab: Vec<u32> = sample.seeds.iter().map(|&v| labels.get(v)).collect();
    match agg {
        Some(agg) => trainer.try_train_batch_split(clock, sample, feats, agg, &lab),
        None => trainer.try_train_batch(clock, sample, feats, &lab),
    }
}

/// Runs `f` for every rank on its own `dev-{rank}` thread and returns
/// the results in rank order.
pub(crate) fn on_each_rank<S: Send, R: Send>(
    states: impl IntoIterator<Item = S>,
    f: impl Fn(usize, S) -> R + Sync,
) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(rank, state)| {
                ds_exec::spawn_scoped_named(scope, format!("dev-{rank}"), move || f(rank, state))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// Ranks errors by how much they explain: a crash is the root cause, an
/// exhausted retry budget is a consequence, a bare comm error is
/// usually collateral from a peer's failure.
pub(crate) fn pick_error(errs: Vec<DspError>) -> Option<DspError> {
    errs.into_iter().min_by_key(|e| match e {
        DspError::WorkerCrashed { .. } => 0u8,
        DspError::Checkpoint { .. } => 1,
        DspError::RetriesExhausted { .. } => 2,
        DspError::Comm(_) => 3,
    })
}

/// Folds the ranks' results into the epoch's statistics: the most
/// explanatory error if any rank failed. The supervisor's counters
/// (`retried_batches`, `degraded_ranks`) are left at 0 for the caller.
pub(crate) fn fold_epoch(
    results: Vec<Result<RankEpoch, DspError>>,
    cluster: &Cluster,
    num_batches: usize,
) -> Result<EpochStats, DspError> {
    let mut oks = Vec::new();
    let mut errs = Vec::new();
    for r in results {
        match r {
            Ok(e) => oks.push(e),
            Err(e) => errs.push(e),
        }
    }
    if let Some(e) = pick_error(errs) {
        return Err(e);
    }
    let mut metrics = MetricAccumulator::default();
    for r in &oks {
        metrics.merge(&r.metrics);
    }
    let (loss, accuracy, seeds) = metrics.finish();
    let (nvlink, pcie, _) = cluster.traffic_totals();
    let fmax = |f: fn(&RankEpoch) -> f64| oks.iter().map(f).fold(0.0, f64::max);
    Ok(EpochStats {
        epoch_time: fmax(|r| r.makespan),
        sample_time: fmax(|r| r.sample_busy),
        load_time: fmax(|r| r.load_busy),
        train_time: fmax(|r| r.train_busy),
        utilization: oks
            .iter()
            .map(|r| (r.useful / r.makespan.max(1e-12)).min(1.0))
            .sum::<f64>()
            / oks.len().max(1) as f64,
        loss,
        accuracy,
        nvlink_bytes: nvlink,
        pcie_bytes: pcie,
        num_batches,
        seeds,
        retried_batches: 0,
        degraded_ranks: 0,
    })
}

/// Runs every rank's sampler alone over `epoch`'s batches ("without
/// interference from other workers", §7.3) and returns the slowest
/// rank's simulated sampling time — the Table 6 metric.
pub fn sampler_only_epoch<'a>(
    samplers: impl IntoIterator<Item = &'a mut (dyn BatchSampler + Send)>,
    schedules: &[SeedSchedule],
    epoch: u64,
) -> f64 {
    on_each_rank(
        samplers.into_iter().zip(schedules),
        |_, (sampler, sched)| {
            let mut clock = Clock::new();
            for seeds in &sched.epoch_batches(epoch) {
                let _ = sampler.sample_batch(&mut clock, seeds);
            }
            clock.now()
        },
    )
    .into_iter()
    .fold(0.0, f64::max)
}
