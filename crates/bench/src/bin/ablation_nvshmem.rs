//! Ablation for §3.2's communication-library discussion: "DSP conducts
//! inter-GPU communication with NCCL while the NVSHMEM library may be
//! more efficient... NVSHMEM can only handle GPUs with direct NVLink
//! connections." We measure CSP sampling with both backends where
//! NVSHMEM is legal (≤4 GPUs on the DGX-1 mesh) and show it is indeed
//! rejected at 8 GPUs.

use ds_bench::{dataset, print_table};
use ds_comm::{collective::Backend, Communicator};
use ds_partition::{MultilevelPartitioner, Partitioner, Renumbering};
use ds_sampling::csp::{CspConfig, CspSampler};
use ds_sampling::{BatchSampler, DistGraph};
use ds_simgpu::ClusterSpec;
use dsp_core::config::TrainConfig;
use dsp_core::layout::colocated_schedules;
use dsp_core::sampler_only_epoch;
use std::sync::Arc;

fn sampling_epoch(d: &ds_graph::Dataset, gpus: usize, backend: Backend, cfg: &TrainConfig) -> f64 {
    let partition = MultilevelPartitioner::default().partition(&d.graph, gpus);
    let renum = Renumbering::from_partition(&partition);
    let graph = renum.apply_graph(&d.graph);
    let dg = Arc::new(DistGraph::from_renumbered(&graph, &renum));
    let cluster = Arc::new(ClusterSpec::v100_scaled(gpus, d.spec.scale).build());
    let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)).with_backend(backend));
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
    sampler_only_epoch(samplers, &schedules, 0)
}

fn main() {
    let cfg = TrainConfig::paper_default();
    let d = dataset("Papers");
    let mut rows = Vec::new();
    for gpus in [2usize, 4] {
        let nccl = sampling_epoch(d, gpus, Backend::Nccl, &cfg);
        let shmem = sampling_epoch(d, gpus, Backend::Nvshmem, &cfg);
        eprintln!("[nvshmem] {gpus} GPUs: nccl {nccl:.4}s nvshmem {shmem:.4}s");
        rows.push(vec![
            gpus.to_string(),
            format!("{nccl:.4}"),
            format!("{shmem:.4}"),
            format!("{:.1}%", (1.0 - shmem / nccl) * 100.0),
        ]);
    }
    print_table(
        &format!("NVSHMEM vs NCCL for CSP sampling ({})", d.spec.name),
        &["GPUs", "NCCL (s)", "NVSHMEM (s)", "reduction"],
        &rows,
    );
    // 8 GPUs: non-mesh topology — NVSHMEM must refuse (the paper's
    // reason for using NCCL).
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cluster = Arc::new(ClusterSpec::v100(8).build());
        let _ = Communicator::new(1, cluster).with_backend(Backend::Nvshmem);
    }))
    .is_err();
    println!(
        "\n8 GPUs (hybrid cube-mesh, no full NVLink mesh): NVSHMEM {}",
        if refused {
            "correctly refused — NCCL required, as §3.2 explains"
        } else {
            "unexpectedly accepted (bug)"
        }
    );
}
