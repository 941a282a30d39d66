//! Ablation: how much does the METIS-style partitioner buy over
//! structure-oblivious layouts? Measures CSP's NVLink traffic and
//! sampling time under multilevel / range / hash partitions (8 GPUs).
//! DESIGN.md calls this out: DSP's locality argument (§3.1) rests on
//! minimized edge cut.

use ds_bench::{dataset, print_table};
use ds_comm::Communicator;
use ds_partition::{quality, simple, MultilevelPartitioner, Partition, Partitioner, Renumbering};
use ds_sampling::csp::{CspConfig, CspSampler};
use ds_sampling::{BatchSampler, DistGraph};
use ds_simgpu::ClusterSpec;
use dsp_core::config::TrainConfig;
use dsp_core::layout::colocated_schedules;
use dsp_core::sampler_only_epoch;
use std::sync::Arc;

fn run_with_partition(
    d: &ds_graph::Dataset,
    partition: &Partition,
    cfg: &TrainConfig,
) -> (f64, u64, f64) {
    let gpus = partition.num_parts();
    let renum = Renumbering::from_partition(partition);
    let graph = renum.apply_graph(&d.graph);
    let dg = Arc::new(DistGraph::from_renumbered(&graph, &renum));
    let cluster = Arc::new(ClusterSpec::v100_scaled(gpus, d.spec.scale).build());
    let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)));
    let schedules = colocated_schedules(&renum, &d.train, gpus, cfg);
    let csp_cfg = CspConfig::node_wise(cfg.fanout.clone()).with_seed(cfg.seed);
    let mut samplers: Vec<CspSampler> = (0..gpus)
        .map(|rank| {
            let (dg, cluster, comm) = (Arc::clone(&dg), Arc::clone(&cluster), Arc::clone(&comm));
            CspSampler::new(dg, cluster, comm, rank, csp_cfg.clone())
        })
        .collect();
    let samplers = samplers
        .iter_mut()
        .map(|s| s as &mut (dyn BatchSampler + Send));
    let t = sampler_only_epoch(samplers, &schedules, 0);
    let (nvlink, _, _) = cluster.traffic_totals();
    (t, nvlink, quality::edge_cut_fraction(&d.graph, partition))
}

fn main() {
    let gpus = 8;
    let cfg = TrainConfig::paper_default();
    let mut rows = Vec::new();
    for name in ["Products", "Papers"] {
        let d = dataset(name);
        for (label, p) in [
            (
                "multilevel (METIS-like)",
                MultilevelPartitioner::default().partition(&d.graph, gpus),
            ),
            ("range", simple::range_partition(&d.graph, gpus)),
            ("hash", simple::hash_partition(&d.graph, gpus)),
        ] {
            let (t, nvlink, cut) = run_with_partition(d, &p, &cfg);
            rows.push(vec![
                d.spec.name.to_string(),
                label.to_string(),
                format!("{:.1}%", cut * 100.0),
                format!("{:.1} MB", nvlink as f64 / 1e6),
                format!("{t:.5}"),
            ]);
        }
    }
    print_table(
        "Ablation: partitioner quality vs CSP sampling traffic/time (8 GPUs)",
        &[
            "dataset",
            "partitioner",
            "edge cut",
            "NVLink volume",
            "sampling epoch (s)",
        ],
        &rows,
    );
}
