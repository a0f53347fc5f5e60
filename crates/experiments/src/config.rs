//! Shared experiment configuration.

use datatrans_core::model::Predictor;
use datatrans_core::serve::{ModelKind, ServeConfig};
use datatrans_dataset::database::{MachineIngest, PerfDatabase};
use datatrans_dataset::generator::{generate, DatasetConfig};
use datatrans_dataset::sharded::ShardedPerfDatabase;
use datatrans_dataset::view::DatabaseView;
use datatrans_parallel::Parallelism;

use crate::Result;

/// Configuration shared by all experiment drivers.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset generation parameters (seed + measurement noise).
    pub dataset: DatasetConfig,
    /// Base seed for model training and subset draws.
    pub seed: u64,
    /// Scale factor for stochastic-repeat counts (random trials in Table 4
    /// and Figure 8). `1.0` reproduces the paper's counts; smaller values
    /// give quick approximate runs for tests and benches.
    pub trial_scale: f64,
    /// Restrict the leave-one-out loop to this many applications
    /// (`None` = all 29). Used by smoke tests and benches.
    pub max_apps: Option<usize>,
    /// MLPᵀ training epochs (paper/WEKA default: 500).
    pub mlp_epochs: usize,
    /// GA-kNN population size (default 32).
    pub ga_population: usize,
    /// GA-kNN generations (default 40).
    pub ga_generations: usize,
    /// Worker threads for the experiment harnesses' fan-outs
    /// ([`Parallelism::Auto`]: `DATATRANS_THREADS`, or every available
    /// core). Every table and figure is bitwise-identical at any thread
    /// count.
    pub parallelism: Parallelism,
    /// Database backing: `None` runs on the dense [`PerfDatabase`];
    /// `Some(n)` partitions it into `n` column-range shards
    /// ([`ShardedPerfDatabase`]). Every table and figure is
    /// bitwise-identical across backings — the shard-equivalence suite
    /// pins the contract.
    pub db_shards: Option<usize>,
    /// Nominal request count for the `repro serve` driver's synthetic
    /// batch (scaled by `trial_scale` like other stochastic-repeat
    /// counts).
    pub serve_requests: usize,
    /// `top_k` cut applied to each synthetic serving request.
    pub serve_top_k: usize,
    /// Run `repro serve` in ingest-interleaved mode: serve the batch cold,
    /// re-serve it warm (all cache hits), push a synthetic machine-ingest
    /// batch (bumping the catalog version), then serve again post-ingest —
    /// reporting the cache's hit/miss/invalidation counts across all three
    /// phases.
    pub serve_ingest: bool,
    /// Concurrent client connections opened by the `repro net-serve`
    /// loopback load driver.
    pub net_connections: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            dataset: DatasetConfig::default(),
            seed: 0xBEEF,
            trial_scale: 1.0,
            max_apps: None,
            mlp_epochs: 500,
            ga_population: 32,
            ga_generations: 40,
            parallelism: Parallelism::default(),
            db_shards: None,
            serve_requests: 48,
            serve_top_k: 5,
            serve_ingest: false,
            net_connections: 4,
        }
    }
}

/// The database backing an experiment run, chosen by
/// [`ExperimentConfig::db_shards`].
#[derive(Debug, Clone)]
pub enum DbBacking {
    /// The dense score matrix.
    Dense(PerfDatabase),
    /// The machine-range-sharded equivalent.
    Sharded(ShardedPerfDatabase),
}

impl DbBacking {
    /// The backing as a [`DatabaseView`] trait object, ready for the
    /// generic harnesses.
    pub fn view(&self) -> &dyn DatabaseView {
        match self {
            DbBacking::Dense(db) => db,
            DbBacking::Sharded(db) => db,
        }
    }

    /// Number of storage shards (dense: 1).
    pub fn n_shards(&self) -> usize {
        match self {
            DbBacking::Dense(_) => 1,
            DbBacking::Sharded(db) => db.n_shards(),
        }
    }

    /// Appends machines to whichever backing this is, bumping its catalog
    /// version (see [`PerfDatabase::push_machines`] and
    /// [`ShardedPerfDatabase::push_machines`]).
    ///
    /// # Errors
    ///
    /// Propagates ingest validation failures; the backing is unchanged on
    /// error.
    pub fn push_machines(&mut self, batch: &[MachineIngest]) -> Result<()> {
        match self {
            DbBacking::Dense(db) => db.push_machines(batch)?,
            DbBacking::Sharded(db) => db.push_machines(batch)?,
        }
        Ok(())
    }
}

impl ExperimentConfig {
    /// A reduced configuration for fast smoke runs (tests, benches).
    pub fn quick() -> Self {
        ExperimentConfig {
            trial_scale: 0.1,
            max_apps: Some(4),
            mlp_epochs: 60,
            ga_population: 12,
            ga_generations: 6,
            ..ExperimentConfig::default()
        }
    }

    /// The paper's three methods with this configuration's budgets, built
    /// by the serving engine's one model factory
    /// ([`ServeConfig::build_model`]): the harness-level (fold × app)
    /// fan-out owns the cores, so the GA runs sequentially inside a task.
    pub fn methods(&self) -> Vec<Box<dyn Predictor + Send + Sync>> {
        let serve = self.serve_config();
        ModelKind::ALL
            .iter()
            .map(|&kind| serve.build_model(kind))
            .collect()
    }

    /// The two data-transposition methods only (Table 4 evaluates NNᵀ and
    /// MLPᵀ; GA-kNN does not use predictive machines).
    pub fn transposition_methods(&self) -> Vec<Box<dyn Predictor + Send + Sync>> {
        let mut m = self.methods();
        m.truncate(2);
        m
    }

    /// Generates the dense dataset for this configuration.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation failures.
    pub fn build_database(&self) -> Result<PerfDatabase> {
        Ok(generate(&self.dataset)?)
    }

    /// Generates the dataset on the backing selected by
    /// [`ExperimentConfig::db_shards`].
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation failures and invalid shard counts.
    pub fn build_backing(&self) -> Result<DbBacking> {
        let dense = self.build_database()?;
        Ok(match self.db_shards {
            None => DbBacking::Dense(dense),
            Some(n) => DbBacking::Sharded(ShardedPerfDatabase::from_dense(&dense, n)?),
        })
    }

    /// The serving engine's configuration at this experiment's budgets:
    /// same model budgets, same fan-out threads.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            mlp_epochs: self.mlp_epochs,
            ga_population: self.ga_population,
            ga_generations: self.ga_generations,
            parallelism: self.parallelism,
        }
    }

    /// The application indices to evaluate.
    pub fn app_indices<D: DatabaseView + ?Sized>(&self, db: &D) -> Option<Vec<usize>> {
        self.max_apps
            .map(|n| (0..db.n_benchmarks().min(n)).collect())
    }

    /// Scales a nominal trial count, keeping at least one trial.
    pub fn scaled_trials(&self, nominal: usize) -> usize {
        ((nominal as f64 * self.trial_scale).round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reduces_work() {
        let q = ExperimentConfig::quick();
        assert_eq!(q.scaled_trials(50), 5);
        assert_eq!(q.max_apps, Some(4));
        let full = ExperimentConfig::default();
        assert_eq!(full.scaled_trials(50), 50);
        assert_eq!(full.max_apps, None);
    }

    #[test]
    fn app_indices_respects_cap() {
        let db = ExperimentConfig::default().build_database().unwrap();
        assert!(ExperimentConfig::default().app_indices(&db).is_none());
        let q = ExperimentConfig::quick();
        assert_eq!(q.app_indices(&db).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn methods_honour_budgets() {
        let q = ExperimentConfig::quick();
        let methods = q.methods();
        assert_eq!(methods.len(), 3);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["NN^T", "MLP^T", "GA-kNN"]);
        let two = q.transposition_methods();
        assert_eq!(two.len(), 2);
    }

    #[test]
    fn backing_selection_follows_db_shards() {
        let dense = ExperimentConfig::default().build_backing().unwrap();
        assert!(matches!(dense, DbBacking::Dense(_)));
        assert_eq!(dense.n_shards(), 1);
        let sharded = ExperimentConfig {
            db_shards: Some(5),
            ..ExperimentConfig::default()
        }
        .build_backing()
        .unwrap();
        assert!(matches!(sharded, DbBacking::Sharded(_)));
        assert_eq!(sharded.n_shards(), 5);
        assert_eq!(sharded.view().n_machines(), 117);
        assert!(ExperimentConfig {
            db_shards: Some(0),
            ..ExperimentConfig::default()
        }
        .build_backing()
        .is_err());
    }

    #[test]
    fn table2_identical_on_dense_and_sharded_backing() {
        // The cheapest end-to-end driver check: a quick Table 2 run must be
        // cell-for-cell identical on both backings.
        let quick = ExperimentConfig {
            max_apps: Some(1),
            mlp_epochs: 10,
            ga_population: 6,
            ga_generations: 2,
            parallelism: Parallelism::Sequential,
            ..ExperimentConfig::quick()
        };
        let dense = crate::table2::run(&quick).unwrap();
        let sharded = crate::table2::run(&ExperimentConfig {
            db_shards: Some(7),
            ..quick.clone()
        })
        .unwrap();
        assert_eq!(dense.report.cells, sharded.report.cells);
    }

    #[test]
    fn scaled_trials_floors_at_one() {
        let c = ExperimentConfig {
            trial_scale: 0.001,
            ..ExperimentConfig::default()
        };
        assert_eq!(c.scaled_trials(50), 1);
    }
}
