//! Fig. 11: CSP (task push) versus Pull-Data (pull whole adjacency +
//! weight lists) for **biased** sampling on 4 GPUs. Both construct
//! identical samples; Pull-Data moves each frontier node's full lists
//! while CSP moves one task and `fanout` sampled ids.

use ds_bench::{datasets, print_table};
use ds_comm::Communicator;
use ds_partition::{MultilevelPartitioner, Partitioner, Renumbering};
use ds_sampling::baselines::PullDataSampler;
use ds_sampling::csp::{CspConfig, CspSampler, Scheme};
use ds_sampling::{BatchSampler, DistGraph};
use ds_simgpu::ClusterSpec;
use dsp_core::config::TrainConfig;
use dsp_core::layout::{biased_node_weights, colocated_schedules};
use dsp_core::sampler_only_epoch;
use std::sync::Arc;

fn main() {
    let gpus = 4;
    let cfg = TrainConfig::paper_default();
    let mut rows = Vec::new();
    for d in datasets() {
        let weighted = d.graph.with_node_weights(&biased_node_weights(&d.graph));
        let partition = MultilevelPartitioner::default().partition(&weighted, gpus);
        let renum = Renumbering::from_partition(&partition);
        let graph = renum.apply_graph(&weighted);
        let dg = Arc::new(DistGraph::from_renumbered(&graph, &renum));
        let schedules = colocated_schedules(&renum, &d.train, gpus, &cfg);

        let mut times = Vec::new();
        for push in [true, false] {
            let cluster = Arc::new(ClusterSpec::v100_scaled(gpus, d.spec.scale).build());
            let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)));
            let mut samplers: Vec<Box<dyn BatchSampler + Send>> = (0..gpus)
                .map(|rank| -> Box<dyn BatchSampler + Send> {
                    let (dg, cluster, comm) =
                        (Arc::clone(&dg), Arc::clone(&cluster), Arc::clone(&comm));
                    let fanout = cfg.fanout.clone();
                    if push {
                        Box::new(CspSampler::new(
                            dg,
                            cluster,
                            comm,
                            rank,
                            CspConfig {
                                fanout,
                                scheme: Scheme::NodeWise,
                                biased: true,
                                fused: true,
                                temporal_cutoff: None,
                                seed: cfg.seed,
                            },
                        ))
                    } else {
                        Box::new(PullDataSampler::new(
                            dg, cluster, comm, rank, fanout, true, cfg.seed,
                        ))
                    }
                })
                .collect();
            let samplers = samplers
                .iter_mut()
                .map(|s| &mut **s as &mut (dyn BatchSampler + Send));
            let t = sampler_only_epoch(samplers, &schedules, 0);
            let (nvlink, pcie, _) = cluster.traffic_totals();
            times.push((t, nvlink + pcie));
        }
        let (t_push, b_push) = times[0];
        let (t_pull, b_pull) = times[1];
        eprintln!(
            "[fig11] {}: CSP {:.4}s PullData {:.4}s",
            d.spec.name, t_push, t_pull
        );
        rows.push(vec![
            d.spec.name.to_string(),
            format!("{t_push:.4}"),
            format!("{t_pull:.4}"),
            format!("-{:.0}%", (1.0 - t_push / t_pull) * 100.0),
            format!(
                "{:.1} MB vs {:.1} MB",
                b_push as f64 / 1e6,
                b_pull as f64 / 1e6
            ),
        ]);
    }
    print_table(
        "Fig. 11: CSP (task push) vs Pull-Data, biased sampling, 4 GPUs",
        &[
            "dataset",
            "CSP (s)",
            "Pull Data (s)",
            "time reduction",
            "traffic (CSP vs pull)",
        ],
        &rows,
    );
    println!("\nPaper shape: CSP reduces sampling time by up to 64%.");
}
