//! # dsp-core
//!
//! The assembled systems: **DSP** itself (partitioned topology +
//! partitioned feature cache + CSP sampling + producer-consumer pipeline
//! with CCC) and every baseline the paper evaluates against (Quiver,
//! DGL-UVA, DGL-CPU, PyG, plus the FastGCN CPU layer-wise baseline of
//! Table 7 and the DSP-Seq ablation of Fig. 12).
//!
//! The entry point is [`runner::run_epoch_time`] and friends, which the
//! `ds-bench` binaries use to regenerate every table and figure; the
//! underlying [`system::System`] trait lets examples drive training
//! end-to-end (epochs, evaluation, convergence curves).
//!
//! ```no_run
//! use dsp_core::config::{SystemKind, TrainConfig};
//! use dsp_core::runner;
//! use ds_graph::DatasetSpec;
//!
//! let dataset = DatasetSpec::products_s().build();
//! let cfg = TrainConfig::paper_default();
//! let mut system = runner::build_system(SystemKind::Dsp, &dataset, 4, &cfg);
//! let stats = system.run_epoch(0);
//! println!("epoch time: {:.3}s (simulated)", stats.epoch_time);
//! ```

pub mod baseline;
pub mod config;
pub mod dsp;
pub mod error;
mod executor;
pub mod layout;
pub mod multimachine;
pub mod prefetch;
pub mod runner;
pub mod split;
pub mod stats;
pub mod supervisor;
pub mod system;

pub use config::{SystemKind, TrainConfig};
pub use dsp::DspSystem;
pub use error::DspError;
pub use executor::sampler_only_epoch;
pub use runner::build_system;
pub use stats::EpochStats;
pub use supervisor::{FaultReport, RetryPolicy, Supervisor};
pub use system::System;
