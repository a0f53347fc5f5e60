//! Processor-family cross-validation (paper §6.2; Table 2, Figures 6–7).
//!
//! "We consider a single processor family as the set of target machines,
//! and we use the machines from the other families as predictive machines"
//! — 17 predictive/target pairs, each combined with leave-one-out over the
//! 29 benchmarks.

use datatrans_dataset::machine::ProcessorFamily;
use datatrans_dataset::view::DatabaseView;
use datatrans_parallel::Parallelism;

use crate::eval::{CvCell, CvReport};
use crate::model::Predictor;
use crate::ranking::EvalMetrics;
use crate::task::PredictionTask;
use crate::{CoreError, Result};

/// Configuration of the family cross-validation harness.
#[derive(Debug, Clone)]
pub struct FamilyCvConfig {
    /// Base seed; each (family, app) pair derives its own stream.
    pub seed: u64,
    /// Restrict to these families (`None` = all 17).
    pub families: Option<Vec<ProcessorFamily>>,
    /// Restrict to these application benchmark indices (`None` = all 29).
    pub apps: Option<Vec<usize>>,
    /// Worker threads for the fold fan-out. Cells come back in the same
    /// order at any thread count.
    pub parallelism: Parallelism,
}

impl Default for FamilyCvConfig {
    fn default() -> Self {
        FamilyCvConfig {
            seed: 0x5EED,
            families: None,
            apps: None,
            parallelism: Parallelism::default(),
        }
    }
}

/// Runs the full processor-family cross-validation.
///
/// Every cell is one (family fold, application of interest, method)
/// evaluation following Figure 5: the target family's machines and the
/// application's row are withheld from training.
///
/// Generic over the database backing ([`DatabaseView`]): on a sharded
/// backing a fold's *target* family occupies a contiguous machine range
/// (shard-local reads), while the predictive gather necessarily spans the
/// remaining shards. The report is bitwise-identical across backings and
/// thread counts.
///
/// # Errors
///
/// Returns [`CoreError`] if a family has no machines, an app index is out
/// of range, or a model fails on a well-formed task.
pub fn family_cross_validation<D: DatabaseView + ?Sized>(
    db: &D,
    methods: &[Box<dyn Predictor + Send + Sync>],
    config: &FamilyCvConfig,
) -> Result<CvReport> {
    let families: Vec<ProcessorFamily> = config
        .families
        .clone()
        .unwrap_or_else(|| ProcessorFamily::ALL.to_vec());
    let apps: Vec<usize> = config
        .apps
        .clone()
        .unwrap_or_else(|| (0..db.n_benchmarks()).collect());
    for &a in &apps {
        if a >= db.n_benchmarks() {
            return Err(CoreError::invalid_task(format!(
                "app index {a} out of range"
            )));
        }
    }
    if methods.is_empty() {
        return Err(CoreError::invalid_task("no methods to evaluate"));
    }

    let run_fold = |&family: &ProcessorFamily| -> Result<Vec<CvCell>> {
        let targets = db.machines_in_family(family);
        if targets.is_empty() {
            return Err(CoreError::invalid_task(format!(
                "family {family} has no machines"
            )));
        }
        let predictive: Vec<usize> = (0..db.n_machines())
            .filter(|m| !targets.contains(m))
            .collect();
        let mut cells = Vec::with_capacity(apps.len() * methods.len());
        for &app in &apps {
            let seed = config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((family as u64) << 16)
                .wrapping_add(app as u64);
            let task = PredictionTask::leave_one_out(db, app, &predictive, &targets, seed)?;
            let actual = PredictionTask::actual_scores(db, app, &targets);
            for method in methods {
                let predicted = method.predict(&task)?;
                let metrics = EvalMetrics::compute(&predicted, &actual)?;
                cells.push(CvCell {
                    fold: family.to_string(),
                    app: db.benchmarks()[app].name.clone(),
                    method: method.name().to_owned(),
                    metrics,
                });
            }
        }
        Ok(cells)
    };

    // The executor merges fold results back in input order, so the report
    // is bitwise-identical to the sequential run.
    let mut report = CvReport::default();
    let results: Vec<Result<Vec<CvCell>>> = config.parallelism.par_map(2, &families, run_fold);
    for r in results {
        report.cells.extend(r?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FitCriterion, NnT};
    use datatrans_dataset::generator::{generate, DatasetConfig};

    fn quick_methods() -> Vec<Box<dyn Predictor + Send + Sync>> {
        vec![Box::new(NnT {
            criterion: FitCriterion::RSquared,
            log_domain: false,
        })]
    }

    #[test]
    fn two_family_smoke_run() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let config = FamilyCvConfig {
            families: Some(vec![ProcessorFamily::Xeon, ProcessorFamily::OpteronK10]),
            apps: Some(vec![0, 5]),
            parallelism: Parallelism::Sequential,
            ..FamilyCvConfig::default()
        };
        let report = family_cross_validation(&db, &quick_methods(), &config).unwrap();
        // 2 folds × 2 apps × 1 method.
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.folds().len(), 2);
        assert_eq!(report.apps().len(), 2);
        // NN^T on a family fold should correlate clearly positively.
        let agg = report.aggregate_method("NN^T").unwrap();
        assert!(
            agg.mean_rank_correlation > 0.3,
            "rank correlation {}",
            agg.mean_rank_correlation
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let base = FamilyCvConfig {
            families: Some(vec![ProcessorFamily::Power6, ProcessorFamily::CoreDuo]),
            apps: Some(vec![3]),
            parallelism: Parallelism::Sequential,
            ..FamilyCvConfig::default()
        };
        let seq = family_cross_validation(&db, &quick_methods(), &base).unwrap();
        for threads in [2, 4] {
            let par = family_cross_validation(
                &db,
                &quick_methods(),
                &FamilyCvConfig {
                    parallelism: Parallelism::Threads(threads),
                    ..base.clone()
                },
            )
            .unwrap();
            // The executor merges fold results back in input order, so the
            // reports are identical cell for cell.
            assert_eq!(seq.cells, par.cells, "{threads} threads");
        }
    }

    #[test]
    fn validates_inputs() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let config = FamilyCvConfig {
            apps: Some(vec![999]),
            ..FamilyCvConfig::default()
        };
        assert!(family_cross_validation(&db, &quick_methods(), &config).is_err());
        assert!(family_cross_validation(&db, &[], &FamilyCvConfig::default()).is_err());
    }
}
