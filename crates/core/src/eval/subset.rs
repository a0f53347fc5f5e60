//! Limited predictive sets (paper §6.4; Table 4).
//!
//! "The target machines all have been released in 2009, whereas the
//! predictive machines are a subset of the machines released in 2008. We
//! use three subset sizes: 10, 5 and 3." Random subsets are averaged over
//! several trials.

use datatrans_dataset::view::DatabaseView;
use datatrans_parallel::Parallelism;

use crate::eval::{CvCell, CvReport};
use crate::model::Predictor;
use crate::ranking::EvalMetrics;
use crate::select::select_random;
use crate::task::PredictionTask;
use crate::{CoreError, Result};

/// Configuration of the limited-predictive-set harness.
#[derive(Debug, Clone)]
pub struct SubsetConfig {
    /// Base seed.
    pub seed: u64,
    /// Subset sizes (Table 4: `[10, 5, 3]`).
    pub sizes: Vec<usize>,
    /// Random draws averaged per size.
    pub trials: usize,
    /// Restrict to these application benchmark indices (`None` = all).
    pub apps: Option<Vec<usize>>,
    /// Target release year (the paper uses 2009; predictive pool is the
    /// prior year).
    pub target_year: u16,
    /// Worker threads for the (size × trial) fan-out. Cells come back in
    /// the same order at any thread count.
    pub parallelism: Parallelism,
}

impl Default for SubsetConfig {
    fn default() -> Self {
        SubsetConfig {
            seed: 0x5B5E,
            sizes: vec![10, 5, 3],
            trials: 5,
            apps: None,
            target_year: 2009,
            parallelism: Parallelism::default(),
        }
    }
}

/// Runs the limited-predictive-set evaluation. Fold labels are
/// `"size-{k}"`; trials are folded into the per-size aggregate (each trial
/// contributes its own cells with the same fold label).
///
/// Generic over the database backing ([`DatabaseView`]); bitwise-identical
/// across backings and thread counts.
///
/// # Errors
///
/// Returns [`CoreError`] if the pool is smaller than a requested size or a
/// model fails.
pub fn subset_evaluation<D: DatabaseView + ?Sized>(
    db: &D,
    methods: &[Box<dyn Predictor + Send + Sync>],
    config: &SubsetConfig,
) -> Result<CvReport> {
    if methods.is_empty() {
        return Err(CoreError::invalid_task("no methods to evaluate"));
    }
    if config.trials == 0 {
        return Err(CoreError::invalid_task("need at least one trial"));
    }
    let targets = db.machines_in_year(config.target_year);
    if targets.is_empty() {
        return Err(CoreError::invalid_task(format!(
            "no machines released in {}",
            config.target_year
        )));
    }
    let pool = db.machines_in_year(config.target_year - 1);
    let apps: Vec<usize> = config
        .apps
        .clone()
        .unwrap_or_else(|| (0..db.n_benchmarks()).collect());

    for &size in &config.sizes {
        if size == 0 || size > pool.len() {
            return Err(CoreError::invalid_task(format!(
                "subset size {size} invalid for pool of {}",
                pool.len()
            )));
        }
    }

    // Fan the (size × trial) grid out across the executor; each draw has
    // its own derived seed, so the cells are order-independent.
    let run_draw = |idx: usize| -> Result<Vec<CvCell>> {
        let size = config.sizes[idx / config.trials];
        let trial = idx % config.trials;
        let draw_seed = config
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add((size as u64) << 32)
            .wrapping_add(trial as u64);
        let predictive = select_random(&pool, size, draw_seed)?;
        let mut cells = Vec::with_capacity(apps.len() * methods.len());
        for &app in &apps {
            let task = PredictionTask::leave_one_out(
                db,
                app,
                &predictive,
                &targets,
                draw_seed ^ (app as u64),
            )?;
            let actual = PredictionTask::actual_scores(db, app, &targets);
            for method in methods {
                let predicted = method.predict(&task)?;
                let metrics = EvalMetrics::compute(&predicted, &actual)?;
                cells.push(CvCell {
                    fold: format!("size-{size}"),
                    app: db.benchmarks()[app].name.clone(),
                    method: method.name().to_owned(),
                    metrics,
                });
            }
        }
        Ok(cells)
    };

    let n_draws = config.sizes.len() * config.trials;
    let results: Vec<Result<Vec<CvCell>>> =
        config.parallelism.par_map_indexed(2, n_draws, run_draw);
    let mut report = CvReport::default();
    for r in results {
        report.cells.extend(r?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NnT;
    use datatrans_dataset::generator::{generate, DatasetConfig};

    fn quick_methods() -> Vec<Box<dyn Predictor + Send + Sync>> {
        vec![Box::new(NnT::default())]
    }

    #[test]
    fn smoke_run_sizes() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let config = SubsetConfig {
            sizes: vec![5, 3],
            trials: 2,
            apps: Some(vec![0]),
            ..SubsetConfig::default()
        };
        let report = subset_evaluation(&db, &quick_methods(), &config).unwrap();
        // 2 sizes × 2 trials × 1 app × 1 method.
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.folds(), vec!["size-5", "size-3"]);
        // Each size aggregate contains both trials.
        let agg = report.aggregate_method_fold("NN^T", "size-5").unwrap();
        assert_eq!(agg.cells, 2);
    }

    #[test]
    fn validates_config() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let bad_size = SubsetConfig {
            sizes: vec![10_000],
            ..SubsetConfig::default()
        };
        assert!(subset_evaluation(&db, &quick_methods(), &bad_size).is_err());
        let no_trials = SubsetConfig {
            trials: 0,
            ..SubsetConfig::default()
        };
        assert!(subset_evaluation(&db, &quick_methods(), &no_trials).is_err());
    }
}
