//! Data-layout construction for DSP and the baselines.
//!
//! DSP's layout (§3.1): METIS-substitute partition → renumber so each
//! rank owns a contiguous id range (§6) → per-GPU topology patches →
//! per-GPU partitioned feature cache filled hottest-first within each
//! rank's memory budget. Training seeds are co-located with their patch.
//!
//! Baseline layouts keep the topology (and features) in host memory;
//! Quiver additionally replicates a hot-feature cache on every GPU.

use crate::config::TrainConfig;
use ds_cache::{CachePolicy, PartitionedCache, ReplicatedCache};
use ds_graph::{algo, Csr, Dataset, Features, Labels, NodeId};
use ds_partition::{MultilevelPartitioner, Partitioner, Renumbering};
use ds_sampling::{DistGraph, SeedSchedule};
use ds_simgpu::{Cluster, ClusterSpec};
use std::sync::Arc;

/// Node weights used by the biased-sampling experiments: `1 + in-degree`
/// (any positive per-node weight works; degree keeps it deterministic).
pub fn biased_node_weights(g: &Csr) -> Vec<f32> {
    algo::in_degrees(g)
        .iter()
        .map(|&d| 1.0 + d as f32)
        .collect()
}

/// DSP's materialized layout.
pub struct DspLayout {
    /// The simulated machine (memory scaled to the dataset).
    pub cluster: Arc<Cluster>,
    /// Renumbered monolithic topology (reference/evaluation).
    pub graph: Arc<Csr>,
    /// Partitioned topology (one patch per GPU).
    pub dist_graph: Arc<DistGraph>,
    /// Renumbered features (host copy; hot rows also live in `cache`).
    pub features: Arc<Features>,
    /// Renumbered labels.
    pub labels: Arc<Labels>,
    /// The aggregate partitioned feature cache.
    pub cache: Arc<PartitionedCache>,
    /// Per-rank seed schedules (seeds co-located with patches).
    pub schedules: Vec<SeedSchedule>,
    /// Renumbered validation/test nodes for evaluation.
    pub val_nodes: Vec<NodeId>,
    /// Feature dimension.
    pub in_dim: usize,
    /// Label classes.
    pub classes: usize,
}

/// Builds DSP's layout for `gpus` devices.
pub fn build_dsp_layout(dataset: &Dataset, gpus: usize, cfg: &TrainConfig) -> DspLayout {
    cfg.validate();
    let cluster = Arc::new(ClusterSpec::v100_scaled(gpus, dataset.spec.scale).build());
    // Optionally weight edges for biased sampling (weights stored with
    // edges during data preparation, §4.2).
    let base = if cfg.biased {
        dataset
            .graph
            .with_node_weights(&biased_node_weights(&dataset.graph))
    } else {
        dataset.graph.clone()
    };
    // Partition + renumber (range-check ownership).
    let partition = MultilevelPartitioner::default().partition(&base, gpus);
    let renum = Renumbering::from_partition(&partition);
    let graph = Arc::new(renum.apply_graph(&base));
    let features = Arc::new(renum.apply_features(&dataset.features));
    let labels = Arc::new(renum.apply_labels(&dataset.labels));
    let mut dist_graph = DistGraph::from_renumbered(&graph, &renum);

    // Memory accounting: topology first (DSP prioritizes caching the
    // topology — Fig. 10's conclusion), remaining budget to features.
    // When a cache override is set (Fig. 10's sweep), the topology gets
    // whatever is left; patches that do not fit spill their coldest
    // adjacency lists to host memory behind UVA (§6).
    let usable = (cluster.spec().gpu_mem_bytes as f64 * (1.0 - cfg.mem_reserve_frac)) as u64;
    let topo_budget = match cfg.cache_budget_override {
        Some(c) => usable.saturating_sub(c.min(usable)),
        None => usable,
    };
    let max_patch = (0..gpus)
        .map(|r| dist_graph.patch_bytes(r))
        .max()
        .unwrap_or(0);
    if max_patch > topo_budget {
        dist_graph.apply_topology_budget(topo_budget);
    }
    let dist_graph = Arc::new(dist_graph);
    let mut min_remaining = u64::MAX;
    for r in 0..gpus {
        let topo = dist_graph.resident_bytes(r);
        cluster
            .device(r)
            .mem
            .alloc(topo)
            .expect("topology allocation");
        min_remaining = min_remaining.min(usable - topo);
    }
    let cache_budget = cfg
        .cache_budget_override
        .unwrap_or(min_remaining)
        .min(min_remaining);
    let hot_order = cfg.cache_policy.rank_nodes(&graph);
    let ranges: Vec<_> = (0..gpus as u32).map(|p| renum.range_of(p)).collect();
    let cache = Arc::new(PartitionedCache::build(
        &features,
        &ranges,
        &hot_order,
        cache_budget,
    ));
    for r in 0..gpus {
        cluster
            .device(r)
            .mem
            .alloc(cache.bytes(r))
            .expect("cache allocation");
    }
    // Host keeps the cold features (we conservatively charge the full
    // copy, as DSP does).
    cluster
        .host_mem()
        .alloc(features.total_bytes())
        .expect("host feature store");

    let schedules = colocated_schedules(&renum, &dataset.train, gpus, cfg);
    DspLayout {
        cluster,
        graph,
        dist_graph,
        features,
        labels,
        cache,
        schedules,
        val_nodes: renum.apply_nodes(&dataset.val),
        in_dim: dataset.features.dim(),
        classes: dataset.labels.num_classes(),
    }
}

/// Baseline layout: topology + features in host memory; Quiver gets a
/// replicated hot cache.
pub struct HostLayout {
    /// The simulated machine.
    pub cluster: Arc<Cluster>,
    /// Host-resident topology (original ids).
    pub graph: Arc<Csr>,
    /// Host-resident features.
    pub features: Arc<Features>,
    /// Labels.
    pub labels: Arc<Labels>,
    /// Quiver's replicated cache, if requested.
    pub replicated: Option<Arc<ReplicatedCache>>,
    /// Per-rank seed schedules (round-robin assignment).
    pub schedules: Vec<SeedSchedule>,
    /// Validation/test nodes.
    pub val_nodes: Vec<NodeId>,
    /// Feature dimension.
    pub in_dim: usize,
    /// Label classes.
    pub classes: usize,
}

/// Builds a baseline layout. `replicated_cache` selects Quiver's design.
pub fn build_host_layout(
    dataset: &Dataset,
    gpus: usize,
    cfg: &TrainConfig,
    replicated_cache: bool,
) -> HostLayout {
    cfg.validate();
    let cluster = Arc::new(ClusterSpec::v100_scaled(gpus, dataset.spec.scale).build());
    let graph = if cfg.biased {
        Arc::new(
            dataset
                .graph
                .with_node_weights(&biased_node_weights(&dataset.graph)),
        )
    } else {
        Arc::new(dataset.graph.clone())
    };
    let features = Arc::new(dataset.features.clone());
    let labels = Arc::new(dataset.labels.clone());
    cluster
        .host_mem()
        .alloc(graph.topology_bytes() + features.total_bytes())
        .expect("host graph+feature store");
    let replicated = replicated_cache.then(|| {
        let usable = (cluster.spec().gpu_mem_bytes as f64 * (1.0 - cfg.mem_reserve_frac)) as u64;
        let hot_order = cfg.cache_policy.rank_nodes(&graph);
        let cache = Arc::new(ReplicatedCache::build(&features, &hot_order, usable));
        for r in 0..gpus {
            cluster
                .device(r)
                .mem
                .alloc(cache.bytes())
                .expect("replicated cache allocation");
        }
        cache
    });
    // Round-robin seed assignment.
    let mut seeds_per_rank: Vec<Vec<NodeId>> = vec![Vec::new(); gpus];
    for (i, &v) in dataset.train.iter().enumerate() {
        seeds_per_rank[i % gpus].push(v);
    }
    let schedules = schedules(seeds_per_rank, cfg);
    HostLayout {
        cluster,
        graph,
        features,
        labels,
        replicated,
        schedules,
        val_nodes: dataset.val.clone(),
        in_dim: dataset.features.dim(),
        classes: dataset.labels.num_classes(),
    }
}

/// Evaluation helper shared by all systems: hot-node cache policy needs
/// the hot order of the graph the system actually uses.
pub fn default_policy() -> CachePolicy {
    CachePolicy::InDegree
}

/// Per-rank seed schedules with every training seed on the rank that
/// owns it after renumbering (seeds co-located with patches, §3.1).
pub fn colocated_schedules(
    renum: &Renumbering,
    train: &[NodeId],
    gpus: usize,
    cfg: &TrainConfig,
) -> Vec<SeedSchedule> {
    let mut seeds_per_rank: Vec<Vec<NodeId>> = vec![Vec::new(); gpus];
    for v in renum.apply_nodes(train) {
        seeds_per_rank[renum.owner_of(v) as usize].push(v);
    }
    schedules(seeds_per_rank, cfg)
}

/// One schedule per rank's seeds; every rank runs the common batch
/// count, so the rank with the most seeds covers them all.
fn schedules(seeds_per_rank: Vec<Vec<NodeId>>, cfg: &TrainConfig) -> Vec<SeedSchedule> {
    let max_seeds = seeds_per_rank.iter().map(Vec::len).max().unwrap_or(0);
    let num_batches = SeedSchedule::common_batches(max_seeds, cfg.batch_size);
    seeds_per_rank
        .into_iter()
        .map(|s| SeedSchedule::new(s, cfg.batch_size, num_batches, cfg.seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::DatasetSpec;

    fn tiny() -> Dataset {
        DatasetSpec::tiny(2000).build()
    }

    #[test]
    fn dsp_layout_accounts_memory_and_colocates_seeds() {
        let d = tiny();
        let cfg = TrainConfig::test_default();
        let l = build_dsp_layout(&d, 4, &cfg);
        assert_eq!(l.dist_graph.num_ranks(), 4);
        // Memory was actually allocated on each device.
        for r in 0..4 {
            assert!(l.cluster.device(r).mem.used() > 0);
        }
        // Every schedule's seeds are owned by that rank.
        for (r, sched) in l.schedules.iter().enumerate() {
            for batch in sched.epoch_batches(0) {
                for v in batch {
                    assert_eq!(l.dist_graph.owner(v), r);
                }
            }
        }
        // Seeds total preserved.
        let total: usize = l.schedules.iter().map(|s| s.num_seeds()).sum();
        assert_eq!(total, d.train.len());
    }

    #[test]
    fn dsp_layout_remaps_consistently() {
        let d = tiny();
        let cfg = TrainConfig::test_default();
        let l = build_dsp_layout(&d, 2, &cfg);
        assert_eq!(l.graph.num_edges(), d.graph.num_edges());
        assert_eq!(l.features.num_nodes(), d.features.num_nodes());
        assert_eq!(l.labels.len(), d.labels.len());
        assert_eq!(l.in_dim, d.spec.feat_dim);
    }

    #[test]
    fn host_layout_quiver_gets_replicated_cache() {
        let d = tiny();
        let cfg = TrainConfig::test_default();
        let q = build_host_layout(&d, 2, &cfg, true);
        assert!(q.replicated.is_some());
        assert!(q.cluster.device(0).mem.used() > 0);
        let u = build_host_layout(&d, 2, &cfg, false);
        assert!(u.replicated.is_none());
        assert_eq!(u.cluster.device(0).mem.used(), 0);
    }

    #[test]
    fn biased_layout_carries_weights() {
        let d = tiny();
        let mut cfg = TrainConfig::test_default();
        cfg.biased = true;
        let l = build_dsp_layout(&d, 2, &cfg);
        assert!(l.dist_graph.is_weighted());
        let h = build_host_layout(&d, 2, &cfg, false);
        assert!(h.graph.is_weighted());
    }

    #[test]
    fn cache_budget_override_limits_cache() {
        let d = tiny();
        let mut cfg = TrainConfig::test_default();
        cfg.cache_budget_override = Some(0);
        let l = build_dsp_layout(&d, 2, &cfg);
        assert_eq!(l.cache.total_cached(), 0);
    }
}
