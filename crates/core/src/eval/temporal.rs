//! Temporal prediction (paper §6.3; Table 3): predicting the 2009 machines
//! from progressively older predictive sets.
//!
//! "We now limit the target machines to those released in 2009, using
//! machines that were released before 2009 only as the predictive set. We
//! distinguish three possibilities for the predictive set: the machines
//! released in 2008, 2007 and pre-2007."

use datatrans_dataset::view::DatabaseView;
use datatrans_parallel::Parallelism;

use crate::eval::{CvCell, CvReport};
use crate::model::Predictor;
use crate::ranking::EvalMetrics;
use crate::task::PredictionTask;
use crate::{CoreError, Result};

/// The three predictive eras of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictiveEra {
    /// Machines released in 2008 — one year back.
    Year2008,
    /// Machines released in 2007 — two years back.
    Year2007,
    /// Machines released before 2007.
    Pre2007,
}

impl PredictiveEra {
    /// All eras, in Table 3 column order.
    pub const ALL: [PredictiveEra; 3] = [
        PredictiveEra::Year2008,
        PredictiveEra::Year2007,
        PredictiveEra::Pre2007,
    ];

    /// Machine indices of this era in `db`.
    pub fn machines<D: DatabaseView + ?Sized>(&self, db: &D) -> Vec<usize> {
        match self {
            PredictiveEra::Year2008 => db.machines_in_year(2008),
            PredictiveEra::Year2007 => db.machines_in_year(2007),
            PredictiveEra::Pre2007 => db.machines_before_year(2007),
        }
    }
}

impl std::fmt::Display for PredictiveEra {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictiveEra::Year2008 => write!(f, "2008"),
            PredictiveEra::Year2007 => write!(f, "2007"),
            PredictiveEra::Pre2007 => write!(f, "older"),
        }
    }
}

/// Configuration of the temporal harness.
#[derive(Debug, Clone)]
pub struct TemporalConfig {
    /// Base seed.
    pub seed: u64,
    /// Restrict to these application benchmark indices (`None` = all).
    pub apps: Option<Vec<usize>>,
    /// Target release year (the paper uses 2009).
    pub target_year: u16,
    /// Eras to evaluate (default: all three).
    pub eras: Vec<PredictiveEra>,
    /// Worker threads for the (era × application) fan-out. Cells come back
    /// in the same order at any thread count.
    pub parallelism: Parallelism,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        TemporalConfig {
            seed: 0x7E4A,
            apps: None,
            target_year: 2009,
            eras: PredictiveEra::ALL.to_vec(),
            parallelism: Parallelism::default(),
        }
    }
}

/// Runs the temporal evaluation. Fold labels are the era names
/// (`"2008"`, `"2007"`, `"older"`).
///
/// Generic over the database backing ([`DatabaseView`]); an era's machines
/// occupy contiguous column ranges, so era-side reads stay shard-local on
/// a sharded backing. Reports are bitwise-identical across backings and
/// thread counts.
///
/// # Errors
///
/// Returns [`CoreError`] if the target year or an era has no machines, or
/// a model fails.
pub fn temporal_evaluation<D: DatabaseView + ?Sized>(
    db: &D,
    methods: &[Box<dyn Predictor + Send + Sync>],
    config: &TemporalConfig,
) -> Result<CvReport> {
    if methods.is_empty() {
        return Err(CoreError::invalid_task("no methods to evaluate"));
    }
    let targets = db.machines_in_year(config.target_year);
    if targets.is_empty() {
        return Err(CoreError::invalid_task(format!(
            "no machines released in {}",
            config.target_year
        )));
    }
    let apps: Vec<usize> = config
        .apps
        .clone()
        .unwrap_or_else(|| (0..db.n_benchmarks()).collect());

    // Validate every era up front, then fan the (era × application) grid
    // out across the executor; per-cell seeds make the cells independent.
    let mut era_machines = Vec::with_capacity(config.eras.len());
    for &era in &config.eras {
        let predictive = era.machines(db);
        if predictive.is_empty() {
            return Err(CoreError::invalid_task(format!(
                "era {era} has no machines"
            )));
        }
        era_machines.push((era, predictive));
    }

    let run_cell = |idx: usize| -> Result<Vec<CvCell>> {
        let (era, predictive) = &era_machines[idx / apps.len()];
        let app = apps[idx % apps.len()];
        let seed = config
            .seed
            .wrapping_mul(0xD1B5_4A32_D192_ED03)
            .wrapping_add((*era as u64) << 24)
            .wrapping_add(app as u64);
        let task = PredictionTask::leave_one_out(db, app, predictive, &targets, seed)?;
        let actual = PredictionTask::actual_scores(db, app, &targets);
        let mut cells = Vec::with_capacity(methods.len());
        for method in methods {
            let predicted = method.predict(&task)?;
            let metrics = EvalMetrics::compute(&predicted, &actual)?;
            cells.push(CvCell {
                fold: era.to_string(),
                app: db.benchmarks()[app].name.clone(),
                method: method.name().to_owned(),
                metrics,
            });
        }
        Ok(cells)
    };

    let n_cells = era_machines.len() * apps.len();
    let results: Vec<Result<Vec<CvCell>>> =
        config.parallelism.par_map_indexed(2, n_cells, run_cell);
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
    fn eras_partition_pre_2009() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let y2008 = PredictiveEra::Year2008.machines(&db);
        let y2007 = PredictiveEra::Year2007.machines(&db);
        let older = PredictiveEra::Pre2007.machines(&db);
        let targets = db.machines_in_year(2009);
        assert_eq!(
            y2008.len() + y2007.len() + older.len() + targets.len(),
            db.n_machines()
        );
        assert!(!y2008.is_empty() && !y2007.is_empty() && !older.is_empty());
    }

    #[test]
    fn smoke_run_two_apps() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let config = TemporalConfig {
            apps: Some(vec![1, 7]),
            ..TemporalConfig::default()
        };
        let report = temporal_evaluation(&db, &quick_methods(), &config).unwrap();
        // 3 eras × 2 apps × 1 method.
        assert_eq!(report.cells.len(), 6);
        assert_eq!(report.folds(), vec!["2008", "2007", "older"]);
    }

    #[test]
    fn rejects_empty_target_year() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let config = TemporalConfig {
            target_year: 2050,
            ..TemporalConfig::default()
        };
        assert!(temporal_evaluation(&db, &quick_methods(), &config).is_err());
    }

    #[test]
    fn era_display_matches_table3() {
        assert_eq!(PredictiveEra::Year2008.to_string(), "2008");
        assert_eq!(PredictiveEra::Pre2007.to_string(), "older");
    }
}
