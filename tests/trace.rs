//! Observability contract of `ds-trace` against the full DSP system.
//!
//! Three properties are locked in:
//! 1. **Determinism** — two same-seed traced runs export byte-identical
//!    Chrome JSON; nothing about real-thread interleaving leaks into
//!    the trace, because every timestamp is virtual-clock time and the
//!    events are canonically ordered.
//! 2. **Zero cost when off** — with the recorder disabled (the
//!    default), a full training run records no events at all.
//! 3. **Balance under faults** — even when a fault plan crashes a
//!    worker mid-epoch, every span `B` is matched by an `E` per lane
//!    (the worker guard closes dangling spans on the way down), so the
//!    export always loads in `chrome://tracing`.
//!
//! The recorder is process-global, so the tests serialize on a mutex.

use dsp::core::config::TrainConfig;
use dsp::core::dsp::DspSystem;
use dsp::core::System;
use dsp::fault::FaultPlan;
use dsp::graph::DatasetSpec;
use dsp::simgpu::WorkerKind;
use dsp::trace::Event;
use std::sync::{Arc, Mutex, MutexGuard};

static GATE: Mutex<()> = Mutex::new(());

/// Serializes tests and guarantees the recorder is returned to its
/// disabled, empty default even if the test body panics.
struct TraceLock<'a> {
    _gate: MutexGuard<'a, ()>,
}

impl<'a> TraceLock<'a> {
    fn acquire() -> Self {
        let gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        dsp::trace::recorder().clear();
        TraceLock { _gate: gate }
    }
}

impl Drop for TraceLock<'_> {
    fn drop(&mut self) {
        dsp::trace::recorder().set_enabled(false);
        dsp::trace::recorder().clear();
    }
}

/// Trains `epochs` epochs on the standard tiny fixture and returns the
/// recorded trace stream.
fn run_traced(plan: Option<FaultPlan>, gpus: usize, epochs: u64) -> Vec<Event> {
    let d = DatasetSpec::tiny(1500).build();
    let cfg = TrainConfig {
        batch_size: 16,
        comm_deadline_secs: 8.0,
        ..TrainConfig::test_default()
    };
    let mut sys = DspSystem::new(&d, gpus, &cfg, true);
    if let Some(p) = plan {
        assert!(sys.cluster().install_fault_hook(Arc::new(p)));
    }
    for e in 0..epochs {
        sys.try_run_epoch(e).expect("epoch should complete");
    }
    dsp::trace::recorder().take()
}

#[test]
fn same_seed_traced_runs_export_byte_identical_chrome_json() {
    let _lock = TraceLock::acquire();
    dsp::trace::recorder().set_enabled(true);

    let first = run_traced(None, 2, 2);
    assert!(!first.is_empty(), "traced run must record events");
    let second = run_traced(None, 2, 2);

    let a = dsp::trace::chrome::chrome_json(&first);
    let b = dsp::trace::chrome::chrome_json(&second);
    assert_eq!(a.len(), b.len(), "export lengths diverged");
    assert!(a == b, "same-seed exports must be byte-identical");

    let spans = dsp::trace::chrome::check_chrome_text(&a).expect("well-formed export");
    assert!(spans > 0, "export must contain spans");

    // The machine-readable telemetry folded from the same stream is
    // populated: stages, queues and at least one counter series.
    let t = dsp::trace::summary::telemetry(&first);
    assert_eq!(t.epochs, 2);
    assert!(t.epoch_time_s > 0.0);
    assert!(!t.stages.is_empty() && !t.queues.is_empty() && !t.counters.is_empty());

    // The folded-stack export shares the determinism contract, has a
    // lane per (rank, worker) and integer-nanosecond self-time values.
    let fa = dsp::trace::summary::folded_stacks(&first);
    let fb = dsp::trace::summary::folded_stacks(&second);
    assert!(fa == fb, "same-seed folded stacks must be byte-identical");
    for expected_root in ["rank0;sampler;", "rank1;trainer;"] {
        assert!(
            fa.lines().any(|l| l.starts_with(expected_root)),
            "missing {expected_root} lane in:\n{fa}"
        );
    }
    for line in fa.lines() {
        let (_, value) = line.rsplit_once(' ').expect("stack space value");
        value.parse::<u64>().expect("integer self-time");
    }
}

#[test]
fn disabled_recorder_stays_empty_through_a_full_run() {
    let _lock = TraceLock::acquire();
    dsp::trace::recorder().set_enabled(false);

    let events = run_traced(None, 2, 1);
    assert!(
        events.is_empty(),
        "disabled tracing must record nothing, got {} events",
        events.len()
    );
    assert!(!dsp::trace::enabled());
}

#[test]
fn spans_stay_balanced_when_a_fault_plan_crashes_a_worker() {
    let _lock = TraceLock::acquire();
    dsp::trace::recorder().set_enabled(true);

    // Rank 1's sampler dies at batch 2; every rank degrades to local
    // sampling and the epoch completes. The dying worker's guard must
    // close its dangling spans so the export still balances.
    let plan = FaultPlan::new(11).crash(1, WorkerKind::Sampler, 2);
    let events = run_traced(Some(plan), 2, 2);
    assert!(!events.is_empty());

    dsp::trace::chrome::check_balance(&events).expect("B/E balanced per lane despite the crash");
    let json = dsp::trace::chrome::chrome_json(&events);
    dsp::trace::chrome::check_chrome_text(&json).expect("crash-run export well-formed");
}

#[test]
fn baselines_trace_the_same_step_spans_as_dsp_seq() {
    use dsp::core::config::SystemKind;
    use dsp::trace::Payload;

    let _lock = TraceLock::acquire();
    dsp::trace::recorder().set_enabled(true);

    // DSP-Seq and the four baselines share one sequential composition:
    // every rank's main lane holds one `rank` span around `sample`,
    // `load` and `train` spans tagged with each batch index in turn.
    let d = DatasetSpec::tiny(1500).build();
    let cfg = TrainConfig {
        batch_size: 64,
        exec_compute: false,
        ..TrainConfig::test_default()
    };
    let gpus = 2;
    for kind in [
        SystemKind::DspSeq,
        SystemKind::Quiver,
        SystemKind::DglUva,
        SystemKind::DglCpu,
        SystemKind::PyG,
    ] {
        let mut sys = dsp::core::build_system(kind, &d, gpus, &cfg);
        let stats = sys.run_epoch(0);
        let events = dsp::trace::recorder().take();
        dsp::trace::chrome::check_balance(&events).expect("B/E balanced per lane");
        for rank in 0..gpus as u32 {
            let steps: Vec<(&str, u64)> = events
                .iter()
                .filter(|e| e.rank == rank && e.tid == dsp::trace::TID_MAIN)
                .filter_map(|e| match e.payload {
                    Payload::Begin { name, arg, .. }
                        if matches!(name, "rank" | "sample" | "load" | "train") =>
                    {
                        Some((name, arg))
                    }
                    _ => None,
                })
                .collect();
            let mut expected = vec![("rank", 0)];
            for b in 0..stats.num_batches as u64 {
                expected.extend([("sample", b), ("load", b), ("train", b)]);
            }
            assert_eq!(steps, expected, "{} rank {rank}", sys.name());
        }
    }
}
