//! Synthetic SPEC CPU2006-like performance database.
//!
//! The paper evaluates data transposition on SPEC CPU2006 speed-base ratios
//! for 117 commercial machines (Table 1). Those published measurements are
//! not redistributable, so this crate builds the closest synthetic
//! equivalent:
//!
//! * [`catalog`] — the full Table 1 machine catalog: 17 processor families,
//!   39 CPU nicknames, 3 machines per nickname = 117 machines, each with
//!   latent microarchitecture parameters ([`microarch::MicroArch`]) and a
//!   release year.
//! * [`benchmark`] — the 29 SPEC CPU2006 benchmarks with latent workload
//!   demand vectors ([`characteristics::WorkloadCharacteristics`]),
//!   including the outlier profiles the paper discusses (`libquantum`,
//!   `cactusADM`, `leslie3d`, `lbm` as streaming outliers; `namd`, `hmmer`
//!   as regular compute outliers).
//! * [`perf_model`] — an analytical CPI-stack model turning (machine,
//!   workload) pairs into execution times, and SPEC-style speed ratios
//!   against a modeled SUN Ultra5 296 MHz reference.
//! * [`generator`] — deterministic, seeded assembly of the full
//!   [`database::PerfDatabase`], with measurement noise, plus synthesis of
//!   streaming-ingest batches ([`generator::synthesize_ingest`]) appended
//!   through [`database::PerfDatabase::push_machines`] /
//!   [`sharded::ShardedPerfDatabase::push_machines`] under a
//!   monotonically increasing catalog version.
//! * [`workload_synth`] — synthesis of *applications of interest* that are
//!   not part of the suite, for end-to-end examples.
//! * [`view`] — the backing-agnostic [`view::DatabaseView`] read surface
//!   every consumer goes through.
//! * [`sharded`] — the same table partitioned into machine-range shards
//!   ([`sharded::ShardedPerfDatabase`]) for serving-scale catalogs; bitwise
//!   interchangeable with the dense backing.
//! * [`query`] — machine-restriction filters ([`query::MachineFilter`])
//!   and the shard-pruning planner: per-shard statistics
//!   ([`query::ShardStats`]) let the sharded backing skip shards that
//!   provably cannot match, with plans identical to a full scan.
//! * [`bucket`] — the PCA bucket index ([`bucket::BucketIndex`]) behind
//!   approximate serving: machines projected into log-score component
//!   space and sliced into equal-width buckets along the leading
//!   component, with reconstructed centroid columns for coarse ranking.
//!   Both backings memoize it per catalog version
//!   ([`view::DatabaseView::bucket_index`]).
//!
//! # Example
//!
//! ```
//! use datatrans_dataset::generator::{generate, DatasetConfig};
//!
//! # fn main() -> Result<(), datatrans_dataset::DatasetError> {
//! let db = generate(&DatasetConfig::default())?;
//! assert_eq!(db.n_benchmarks(), 29);
//! assert_eq!(db.n_machines(), 117);
//! let score = db.score(0, 0); // SPEC-style ratio, > 1 for modern machines
//! assert!(score > 1.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;

pub mod benchmark;
pub mod bucket;
pub mod catalog;
pub mod characteristics;
pub mod database;
pub mod generator;
pub mod machine;
pub mod microarch;
pub mod perf_model;
pub mod query;
pub mod sharded;
pub mod view;
pub mod workload_synth;

pub use bucket::BucketIndex;
pub use database::MachineIngest;
pub use error::DatasetError;
pub use query::{MachineFilter, QueryPlan, ShardStats};
pub use sharded::ShardedPerfDatabase;
pub use view::DatabaseView;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, DatasetError>;
