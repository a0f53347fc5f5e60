//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§6).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table2`] | Table 2 — processor-family cross-validation summary |
//! | [`fig6`]   | Figure 6 — per-benchmark Spearman rank correlation |
//! | [`fig7`]   | Figure 7 — per-benchmark top-1 prediction error |
//! | [`table3`] | Table 3 — predicting 2009 machines from older ones |
//! | [`table4`] | Table 4 — limited predictive sets (10/5/3) |
//! | [`fig8`]   | Figure 8 — k-medoids vs random predictive selection |
//!
//! Beyond the paper, [`ablation`] sweeps the design choices DESIGN.md
//! calls out (MLP width/epochs/domain, NNᵀ selection criterion, GA-kNN k),
//! [`serve`] drives the concurrent ranking-query engine (shard-pruned
//! planning + batched prediction) under a synthetic request mix,
//! [`net_serve`] drives the same mix through the TCP front end over
//! loopback, cold and then warm (verifying wire responses byte-identical
//! to in-process serving and reporting p50/p99 latency per pass), and [`robustness`] sweeps
//! measurement noise over the catalog to produce perturbation-robustness
//! curves (rank correlation of each model's served ranking vs noise
//! level, dense and sharded), and [`approx`] sweeps the PCA-bucketed
//! approximate serving frontier (recall@top-k, Spearman ρ vs exact, and
//! speedup per `(n_components, probe_buckets)` operating point).
//!
//! Each module exposes `run(&ExperimentConfig) -> Result<...Result>` whose
//! output implements `Display`, printing rows in the paper's format. The
//! `repro` binary drives them all; `datatrans-bench` wraps each in a
//! Criterion bench.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod ablation;
pub mod approx;
pub mod config;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod net_serve;
pub mod robustness;
pub mod serve;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod textplot;

pub use config::ExperimentConfig;

/// Convenience alias: experiments surface core errors unchanged.
pub type Result<T> = std::result::Result<T, datatrans_core::CoreError>;
