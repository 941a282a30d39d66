//! Machine-readable pipeline telemetry: runs a short DSP training under
//! tracing and folds the event stream into `BENCH_pipeline.json` —
//! epoch time, utilization, per-stage times, queue occupancy, cache and
//! communication counters. Every number is consumed from the trace
//! stream (not recomputed by hand), so this file is also an end-to-end
//! check that the instrumentation carries the whole story.
//!
//! CI gates the file against the committed
//! `results/BENCH_baseline.json` with `bench_gate pipeline`.
//!
//! ```sh
//! cargo run --release -p ds-bench --bin bench_pipeline [out.json]
//! ```

use ds_graph::DatasetSpec;
use dsp_core::config::TrainConfig;
use dsp_core::dsp::DspSystem;
use dsp_core::system::System;

fn main() {
    // Tracing on programmatically — no env needed; clear any events a
    // DS_TRACE=1 environment may already have buffered.
    ds_trace::recorder().set_enabled(true);
    ds_trace::recorder().clear();

    let scale = if ds_bench::quick_mode() { 2 } else { 1 };
    let spec = DatasetSpec::tiny(4000 / scale);
    let dataset = spec.build();
    let mut cfg = TrainConfig::paper_default();
    cfg.hidden = 32;
    cfg.batch_size = 64;
    // Real math in the trainer (not timing-only): the virtual-clock
    // numbers this bench gates on are identical either way (charges
    // don't depend on exec_compute), but running the actual kernels
    // makes this binary double as the wall-clock yardstick for the
    // tensor layer — `time bench_pipeline` measures real GEMMs.
    cfg.exec_compute = true;
    // Cap the per-rank cache at ~15% of the features: tiny()'s default
    // budget holds everything, which would leave the cold path — and
    // the prefetch lane the telemetry gates on — with zero traffic.
    cfg.cache_budget_override = Some((spec.num_nodes * spec.feat_dim * 4 / 8) as u64);
    let epochs = if ds_bench::quick_mode() { 2 } else { 4 };

    let mut dsp = DspSystem::new(&dataset, 2, &cfg, true);
    for epoch in 0..epochs {
        let stats = dsp.run_epoch(epoch);
        eprintln!(
            "[bench_pipeline] epoch {epoch}: {} batches, epoch time {:.2} ms",
            stats.num_batches,
            stats.epoch_time * 1e3
        );
    }

    // Recovery lane: a second, smaller system loses rank 1's cache
    // shard and rebuilds it in the background while its epoch runs.
    // Its `recovery.*` counters fold into the same telemetry stream,
    // so the gate can hold time-to-healthy in place release to
    // release.
    let rspec = DatasetSpec::tiny(1200);
    let rdataset = rspec.build();
    let mut rcfg = cfg.clone();
    rcfg.batch_size = 16; // enough batches for the bounded rebuild to finish
    rcfg.cache_budget_override = None;
    let mut rec = DspSystem::new(&rdataset, 2, &rcfg, true);
    assert!(
        rec.cluster().install_fault_hook(std::sync::Arc::new(
            ds_fault::FaultPlan::new(0)
                .lose_shard(1)
                .rebuild_shard(1, 1)
        )),
        "recovery lane needs its fault hook"
    );
    let rstats = rec.run_epoch(0);
    let report = rec.last_fault_report();
    assert!(
        !report.shard_recoveries.is_empty(),
        "the lost shard must reach Healthy within the epoch: {}",
        report.summary()
    );
    eprintln!(
        "[bench_pipeline] recovery: {} batches, {}",
        rstats.num_batches,
        report.summary()
    );

    let events = ds_trace::recorder().take();
    let t = ds_trace::summary::telemetry(&events);
    assert!(
        t.counters
            .iter()
            .any(|(k, v)| k == "recovery.time_to_healthy_s" && *v > 0.0),
        "recovery lane emitted no time-to-healthy counter"
    );
    assert!(t.events > 0, "trace stream is empty — instrumentation lost");
    assert!(t.epoch_time_s > 0.0, "trace carries no epoch makespan");
    assert!(
        !t.stages.is_empty() && !t.queues.is_empty(),
        "telemetry must include per-stage times and queue occupancy"
    );
    let ex = ds_exec::stats();
    eprintln!(
        "[bench_pipeline] pool: {} submitted, {} executed, {} helped, {} stolen, \
         peak depth {} (injector {})",
        ex.submitted, ex.executed, ex.helped, ex.stolen, ex.max_deque_depth, ex.max_injector_depth
    );
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".into());
    std::fs::write(&out, t.to_json()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "{out}: {} epochs, epoch_time {:.3} ms, utilization {:.0}%, \
         {} stages, {} queues ({} events)",
        t.epochs,
        t.epoch_time_s * 1e3,
        t.utilization * 100.0,
        t.stages.len(),
        t.queues.len(),
        t.events
    );
}
