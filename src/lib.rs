//! # datatrans — Ranking Commercial Machines through Data Transposition
//!
//! A production-quality Rust reproduction of Piccart, Georges, Blockeel and
//! Eeckhout, *Ranking Commercial Machines through Data Transposition*
//! (IISWC 2011).
//!
//! Given published benchmark results (a SPEC-like database of benchmarks ×
//! machines) and a handful of *predictive machines* you can actually run
//! code on, data transposition predicts how **your** application would
//! perform on every machine in the database — and therefore which machine
//! to buy, schedule on, or build next.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`linalg`] — dense matrices, QR least squares, the symmetric
//!   eigensolver, and the fixed-tree summation kernels.
//! * [`parallel`] — the deterministic scoped worker-pool executor
//!   (`Parallelism`, `par_map`) behind every fan-out; results are
//!   bitwise-identical at any thread count.
//! * [`stats`] — ranks, Spearman/Pearson/Kendall, error metrics, bootstrap.
//! * [`ml`] — linear regression, MLP, kNN, GA, k-medoids, PCA.
//! * [`dataset`] — the synthetic SPEC CPU2006 substrate: the 117-machine
//!   Table 1 catalog, 29 benchmark profiles, and the CPI-stack performance
//!   model.
//! * [`core`] — the paper's contribution: NNᵀ and MLPᵀ transposition
//!   models, the GA-kNN baseline, evaluation harnesses, and application
//!   layers (purchasing advisor, heterogeneous scheduler, design-space
//!   exploration).
//! * [`serve_net`] — the std-only TCP serving front end: line-oriented
//!   wire protocol, cache hits answered on each connection's reader, a
//!   work-conserving batcher for misses, per-connection backpressure, and
//!   graceful drain around the cached serving engine.
//! * [`experiments`] — drivers regenerating every table and figure.
//!
//! # Quickstart
//!
//! ```
//! use datatrans::core::model::{MlpT, Predictor};
//! use datatrans::core::ranking::Ranking;
//! use datatrans::core::task::PredictionTask;
//! use datatrans::dataset::generator::{generate, DatasetConfig};
//! use datatrans::dataset::workload_synth::{synthesize, WorkloadProfile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The published database: 29 benchmarks × 117 machines.
//! let db = generate(&DatasetConfig::default())?;
//!
//! // Your application, and the three machines you own.
//! let app = synthesize(WorkloadProfile::ServerInteger, 42);
//! let predictive = vec![3, 57, 81];
//! let targets: Vec<usize> =
//!     (0..db.n_machines()).filter(|m| !predictive.contains(m)).collect();
//!
//! // Predict its score on all 114 machines you cannot access.
//! let task = PredictionTask::external_app(&db, &app, &predictive, &targets, 7)?;
//! let predicted = MlpT::default().predict(&task)?;
//! let ranking = Ranking::from_scores(&predicted)?;
//! let best = &db.machines()[targets[ranking.top1()]];
//! println!("buy: {} {} ({})", best.family, best.name, best.year);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub use datatrans_core as core;
pub use datatrans_dataset as dataset;
pub use datatrans_experiments as experiments;
pub use datatrans_linalg as linalg;
pub use datatrans_ml as ml;
pub use datatrans_parallel as parallel;
pub use datatrans_serve_net as serve_net;
pub use datatrans_stats as stats;
