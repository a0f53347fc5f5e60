//! Data transposition: ranking commercial machines for an application of
//! interest (Piccart, Georges, Blockeel, Eeckhout — IISWC 2011).
//!
//! Given a published performance database (benchmarks × machines) and a
//! small set of *predictive machines* the user can run code on, data
//! transposition predicts the performance of an *application of interest*
//! on every *target machine* the user cannot access — by exploiting
//! **machine similarity** instead of workload similarity.
//!
//! * [`task::PredictionTask`] — the data of one prediction problem
//!   (Figure 2 of the paper).
//! * [`model`] — the predictors: [`model::NnT`] (linear regression over the
//!   best-fitting predictive machine), [`model::MlpT`] (neural network from
//!   benchmark scores to app score), and the prior-art baseline
//!   [`model::GaKnn`] (Hoste et al., PACT 2006).
//! * [`ranking`] — machine rankings and the paper's accuracy metrics.
//! * [`select`] — predictive-machine selection: random or k-medoids (§6.5).
//! * [`eval`] — the evaluation harnesses behind every table and figure:
//!   processor-family cross-validation (Table 2, Figures 6–7), temporal
//!   prediction (Table 3), limited predictive sets (Table 4), and the
//!   goodness-of-fit curve (Figure 8).
//! * [`apps`] — application layers from §4: heterogeneous-cluster
//!   scheduling and design-space exploration. The purchasing advisor
//!   (`examples/purchasing_advisor.rs`) serves through [`serve`].
//! * [`serve`] — the batched ranking-query front end: plan (with shard
//!   pruning) → gather → predict → rank, many requests per pool pass,
//!   bitwise-identical at any thread count and on either backing. Each
//!   request validates into a typed per-slot [`serve::ServeError`]
//!   (fault-isolated batches); an optional [`serve::ConfidenceConfig`]
//!   attaches bootstrap rank-confidence intervals and tie groups to the
//!   response, and an optional [`serve::ApproxConfig`] narrows the
//!   candidates to the best PCA buckets before exact evaluation.
//! * [`fingerprint`] — stable splitmix64-based 64-bit digests of ranking
//!   requests, the key material of the serving-path result cache.
//! * [`cache`] — the bounded, versioned LRU result cache: hits are
//!   bitwise-identical to cold evaluation, a fingerprint collision is a
//!   miss, and a moved catalog version (streaming ingest) drops every
//!   stale entry.
//!
//! # Example: rank machines for a held-out benchmark
//!
//! ```
//! use datatrans_core::model::{MlpT, Predictor};
//! use datatrans_core::ranking::Ranking;
//! use datatrans_core::task::PredictionTask;
//! use datatrans_dataset::generator::{generate, DatasetConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let db = generate(&DatasetConfig::default())?;
//! let app = db.benchmark_index("gcc")?;
//! // Predict the Xeon machines from everything else.
//! let targets = db.machines_in_family(datatrans_dataset::machine::ProcessorFamily::Xeon);
//! let predictive: Vec<usize> =
//!     (0..db.n_machines()).filter(|m| !targets.contains(m)).collect();
//! let task = PredictionTask::leave_one_out(&db, app, &predictive, &targets, 42)?;
//! let predicted = MlpT::default().predict(&task)?;
//! let ranking = Ranking::from_scores(&predicted)?;
//! assert_eq!(ranking.order().len(), targets.len());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;

pub mod apps;
pub mod cache;
pub mod eval;
pub mod fingerprint;
pub mod model;
pub mod ranking;
pub mod select;
pub mod serve;
pub mod task;

pub use error::CoreError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
