//! End-to-end behavioural tests across the whole stack: learning,
//! caching effects, topology spilling and traffic accounting.

use dsp::cache::CachePolicy;
use dsp::core::config::{SystemKind, TrainConfig};
use dsp::core::runner::{build_system, run_epoch_time};
use dsp::core::{DspSystem, System};
use dsp::graph::DatasetSpec;

fn dataset() -> dsp::graph::Dataset {
    DatasetSpec::tiny(3000).build()
}

#[test]
fn dsp_learns_to_classify_communities() {
    let d = dataset();
    let mut cfg = TrainConfig::test_default();
    cfg.hidden = 32;
    cfg.lr = 5e-3;
    let mut dsp = DspSystem::new(&d, 2, &cfg, true);
    for epoch in 0..8 {
        dsp.run_epoch(epoch);
    }
    let acc = dsp.validation_accuracy();
    // 8 classes => 12.5% chance.
    assert!(acc > 0.5, "validation accuracy {acc}");
}

#[test]
fn dsp_beats_every_baseline_on_epoch_time() {
    let d = dataset();
    let mut cfg = TrainConfig::test_default();
    cfg.exec_compute = false;
    let dsp = run_epoch_time(SystemKind::Dsp, &d, 4, &cfg, 0, 1).epoch_time;
    for kind in [
        SystemKind::PyG,
        SystemKind::DglCpu,
        SystemKind::Quiver,
        SystemKind::DglUva,
    ] {
        let t = run_epoch_time(kind, &d, 4, &cfg, 0, 1).epoch_time;
        assert!(
            t > dsp,
            "{:?} ({t}) should be slower than DSP ({dsp})",
            kind
        );
    }
}

#[test]
fn more_feature_cache_reduces_cold_traffic_until_topology_spills() {
    // Fig. 10's mechanism in miniature: sweep the cache override and
    // observe (a) PCIe traffic falls as the cache grows, (b) squeezing
    // the topology out (huge cache override) brings UVA sampling back.
    let d = dataset();
    let row_bytes = (d.spec.feat_dim * 4) as u64;
    let mut pcie_at = Vec::new();
    for cache_rows in [0u64, 200, 2000] {
        let mut cfg = TrainConfig::test_default();
        cfg.exec_compute = false;
        // Tighten usable memory so the override actually squeezes.
        cfg.mem_reserve_frac = 0.0;
        cfg.cache_budget_override = Some(cache_rows * row_bytes);
        let mut sys = DspSystem::new(&d, 2, &cfg, false);
        let stats = sys.run_epoch(0);
        pcie_at.push((cache_rows, stats.pcie_bytes, stats.epoch_time));
    }
    // More cache => less PCIe for features.
    assert!(pcie_at[1].1 < pcie_at[0].1, "{pcie_at:?}");
}

#[test]
fn topology_spill_slows_sampling() {
    let d = dataset();
    let mut cfg = TrainConfig::test_default();
    cfg.exec_compute = false;
    // Plenty of memory: no spill.
    let mut full = DspSystem::new(&d, 2, &cfg, false);
    let t_full = full.run_sampler_epoch(0);
    // Give nearly everything to the feature cache: topology spills.
    let mut squeezed_cfg = cfg.clone();
    squeezed_cfg.mem_reserve_frac = 0.0;
    let usable = (16.0 * (1u64 << 30) as f64 / d.spec.scale) as u64;
    squeezed_cfg.cache_budget_override = Some(usable - 4096);
    let mut squeezed = DspSystem::new(&d, 2, &squeezed_cfg, false);
    let t_squeezed = squeezed.run_sampler_epoch(0);
    assert!(
        t_squeezed > 1.5 * t_full,
        "spilled sampling {t_squeezed} should be much slower than resident {t_full}"
    );
}

#[test]
fn partitioned_cache_covers_more_than_replicated() {
    // The aggregate-cache argument of §3.1: with k GPUs, DSP's
    // partitioned cache holds ~k× the rows of Quiver's replicated one
    // under the same per-GPU budget.
    let d = dataset();
    let mut cfg = TrainConfig::test_default();
    cfg.cache_policy = CachePolicy::InDegree;
    let dsp = DspSystem::new(&d, 4, &cfg, false);
    let quiver = dsp::core::baseline::BaselineSystem::new(SystemKind::Quiver, &d, 4, &cfg);
    let dsp_rows = dsp.layout().cache.total_cached();
    let quiver_rows = quiver.layout().replicated.as_ref().unwrap().cached_rows();
    // Not exactly 4x: DSP spends part of its budget on topology.
    assert!(
        dsp_rows > 2 * quiver_rows || dsp_rows == d.graph.num_nodes(),
        "partitioned {dsp_rows} vs replicated {quiver_rows}"
    );
}

#[test]
fn traffic_meters_reflect_system_designs() {
    let d = dataset();
    let mut cfg = TrainConfig::test_default();
    cfg.exec_compute = false;
    // DSP at 2 GPUs: NVLink-dominant.
    let mut dsp = build_system(SystemKind::Dsp, &d, 2, &cfg);
    let s = dsp.run_epoch(0);
    assert!(s.nvlink_bytes > 0);
    // DGL-UVA: zero NVLink (no peer traffic), heavy PCIe.
    let mut uva = build_system(SystemKind::DglUva, &d, 2, &cfg);
    let u = uva.run_epoch(0);
    assert!(
        u.pcie_bytes > s.pcie_bytes,
        "UVA pcie {} vs DSP pcie {}",
        u.pcie_bytes,
        s.pcie_bytes
    );
}

#[test]
fn all_systems_report_consistent_stats_shape() {
    let d = dataset();
    let mut cfg = TrainConfig::test_default();
    cfg.exec_compute = false;
    let kinds = SystemKind::paper_suite()
        .into_iter()
        .chain([SystemKind::DspSeq]);
    for kind in kinds {
        let mut sys = build_system(kind, &d, 2, &cfg);
        let s = sys.run_epoch(0);
        assert!(s.epoch_time > 0.0);
        assert!(s.sample_time > 0.0);
        assert!(s.load_time > 0.0);
        assert!(s.train_time > 0.0);
        assert!(s.utilization > 0.0 && s.utilization <= 1.0);
        assert!(
            s.epoch_time >= s.sample_time.max(s.load_time).max(s.train_time) * 0.99,
            "{}: epoch {} vs stages {}/{}/{}",
            sys.name(),
            s.epoch_time,
            s.sample_time,
            s.load_time,
            s.train_time
        );
    }
}
