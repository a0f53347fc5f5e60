//! Goodness-of-fit curve (paper §6.5; Figure 8): k-medoids versus random
//! selection of predictive machines, as a function of how many predictive
//! machines the user can afford.
//!
//! For each `k`, the harness selects `k` predictive machines from the
//! pre-target-year pool — once by k-medoids clustering, and averaged over
//! many random draws — trains MLPᵀ per application (leave-one-out), and
//! reports the goodness of fit between predicted and actual scores pooled
//! across all (application, target machine) pairs: the squared Pearson
//! correlation in log-score space. Correlation-based R² stays defined and
//! comparable even for the one-machine predictive sets at the left edge of
//! the sweep, where a strict residual-based R² degenerates.

use datatrans_dataset::view::DatabaseView;
use datatrans_parallel::Parallelism;
use datatrans_stats::correlation::pearson;

use crate::model::{MlpT, Predictor};
use crate::select::{select_k_medoids, select_random};
use crate::task::PredictionTask;
use crate::{CoreError, Result};

/// Configuration of the goodness-of-fit harness.
#[derive(Debug, Clone)]
pub struct FitCurveConfig {
    /// Base seed.
    pub seed: u64,
    /// Predictive-set sizes to sweep (Figure 8 uses 1..=10).
    pub ks: Vec<usize>,
    /// Number of random draws averaged per size (the paper uses 50).
    pub random_trials: usize,
    /// Restrict to these application benchmark indices (`None` = all).
    pub apps: Option<Vec<usize>>,
    /// Target release year.
    pub target_year: u16,
    /// Worker threads for the random-draw fan-out at each `k`. The curve
    /// is identical at any thread count.
    pub parallelism: Parallelism,
}

impl Default for FitCurveConfig {
    fn default() -> Self {
        FitCurveConfig {
            seed: 0xF17,
            ks: (1..=10).collect(),
            random_trials: 50,
            apps: None,
            target_year: 2009,
            parallelism: Parallelism::default(),
        }
    }
}

/// One point of the Figure 8 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitCurvePoint {
    /// Number of predictive machines.
    pub k: usize,
    /// Pooled R² with k-medoids selection.
    pub kmedoids_r2: f64,
    /// Pooled R² with random selection, averaged over the trials.
    pub random_r2: f64,
}

/// Sweeps the goodness-of-fit curve with MLPᵀ.
///
/// Generic over the database backing ([`DatabaseView`]); the curve is
/// bitwise-identical across backings and thread counts.
///
/// # Errors
///
/// Returns [`CoreError`] if the predictive pool is smaller than a requested
/// `k`, or the model fails.
pub fn goodness_of_fit_curve<D: DatabaseView + ?Sized>(
    db: &D,
    config: &FitCurveConfig,
) -> Result<Vec<FitCurvePoint>> {
    if config.random_trials == 0 {
        return Err(CoreError::invalid_task("need at least one random trial"));
    }
    let targets = db.machines_in_year(config.target_year);
    if targets.is_empty() {
        return Err(CoreError::invalid_task(format!(
            "no machines released in {}",
            config.target_year
        )));
    }
    let pool = db.machines_before_year(config.target_year);
    let apps: Vec<usize> = config
        .apps
        .clone()
        .unwrap_or_else(|| (0..db.n_benchmarks()).collect());

    let mut points = Vec::with_capacity(config.ks.len());
    for &k in &config.ks {
        if k == 0 || k > pool.len() {
            return Err(CoreError::invalid_task(format!(
                "k = {k} invalid for pool of {}",
                pool.len()
            )));
        }
        let medoid_seed = config.seed.wrapping_add((k as u64) << 40);
        let medoids = select_k_medoids(db, &pool, k, medoid_seed)?;
        // The k-medoids point runs once per k, so its per-app MLPᵀ folds
        // own the workers directly.
        let kmedoids_r2 = pooled_r2(
            db,
            &medoids,
            &targets,
            &apps,
            medoid_seed,
            config.parallelism,
        )?;

        // Each trial derives its own seed, so the draws fan out across the
        // executor; summing the collected values in trial order keeps the
        // float accumulation identical to the sequential loop.
        let trial_r2s: Vec<Result<f64>> =
            config
                .parallelism
                .par_map_indexed(2, config.random_trials, |trial| {
                    let draw_seed = config
                        .seed
                        .wrapping_mul(0x2545_F491_4F6C_DD1D)
                        .wrapping_add((k as u64) << 32)
                        .wrapping_add(trial as u64);
                    let machines = select_random(&pool, k, draw_seed)?;
                    // The trial fan-out above already owns the workers; a
                    // nested per-app fan-out would only oversubscribe them.
                    pooled_r2(
                        db,
                        &machines,
                        &targets,
                        &apps,
                        draw_seed,
                        Parallelism::Sequential,
                    )
                });
        let mut random_sum = 0.0;
        for r2 in trial_r2s {
            random_sum += r2?;
        }
        points.push(FitCurvePoint {
            k,
            kmedoids_r2,
            random_r2: random_sum / config.random_trials as f64,
        });
    }
    Ok(points)
}

/// Pooled log-space goodness of fit (squared Pearson correlation) of MLPᵀ
/// predictions across all (app, target) pairs.
///
/// The per-application leave-one-out folds (one MLPᵀ train + predict each)
/// fan out across `parallelism` workers; fold results are merged back in
/// application order before pooling, so the R² is bitwise-identical at any
/// thread count.
fn pooled_r2<D: DatabaseView + ?Sized>(
    db: &D,
    predictive: &[usize],
    targets: &[usize],
    apps: &[usize],
    seed: u64,
    parallelism: Parallelism,
) -> Result<f64> {
    let mlpt = MlpT::default();
    let folds: Vec<Result<(Vec<f64>, Vec<f64>)>> = parallelism.par_map(2, apps, |&app| {
        let task =
            PredictionTask::leave_one_out(db, app, predictive, targets, seed ^ (app as u64))?;
        let predicted = mlpt.predict(&task)?;
        let actual = PredictionTask::actual_scores(db, app, targets);
        let pred_log: Vec<f64> = predicted.iter().map(|p| p.max(1e-9).ln()).collect();
        let act_log: Vec<f64> = actual.iter().map(|a| a.max(1e-9).ln()).collect();
        Ok((pred_log, act_log))
    });
    let mut predicted_log = Vec::with_capacity(apps.len() * targets.len());
    let mut actual_log = Vec::with_capacity(apps.len() * targets.len());
    for fold in folds {
        let (pred_log, act_log) = fold?;
        predicted_log.extend(pred_log);
        actual_log.extend(act_log);
    }
    let r = pearson(&predicted_log, &actual_log)?;
    Ok(r * r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_dataset::generator::{generate, DatasetConfig};

    #[test]
    fn smoke_curve_two_points() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let config = FitCurveConfig {
            ks: vec![2, 4],
            random_trials: 2,
            apps: Some(vec![0, 10]),
            ..FitCurveConfig::default()
        };
        let points = goodness_of_fit_curve(&db, &config).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].k, 2);
        assert_eq!(points[1].k, 4);
        for p in &points {
            assert!((0.0..=1.0 + 1e-9).contains(&p.kmedoids_r2));
            assert!((0.0..=1.0 + 1e-9).contains(&p.random_r2));
        }
    }

    #[test]
    fn validates_config() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let bad_k = FitCurveConfig {
            ks: vec![0],
            ..FitCurveConfig::default()
        };
        assert!(goodness_of_fit_curve(&db, &bad_k).is_err());
        let no_trials = FitCurveConfig {
            random_trials: 0,
            ..FitCurveConfig::default()
        };
        assert!(goodness_of_fit_curve(&db, &no_trials).is_err());
    }
}
