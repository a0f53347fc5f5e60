//! Figure 8: goodness of fit R² of MLPᵀ versus the number of predictive
//! machines — k-medoids selection against the average of random draws.

use std::fmt;

use datatrans_core::eval::fit::{goodness_of_fit_curve, FitCurveConfig, FitCurvePoint};

use crate::textplot::dual_series;
use crate::{ExperimentConfig, Result};

/// Nominal number of random selections averaged (the paper uses 50).
pub const NOMINAL_RANDOM_TRIALS: usize = 50;

/// Figure 8 output: the two R² curves over k = 1..=10.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Curve points in ascending k.
    pub points: Vec<FitCurvePoint>,
}

/// Runs the goodness-of-fit sweep.
///
/// # Errors
///
/// Propagates harness and model failures.
pub fn run(config: &ExperimentConfig) -> Result<Fig8Result> {
    let backing = config.build_backing()?;
    let db = backing.view();
    let fit_config = FitCurveConfig {
        seed: config.seed,
        ks: (1..=10).collect(),
        random_trials: config.scaled_trials(NOMINAL_RANDOM_TRIALS),
        apps: config.app_indices(db),
        parallelism: config.parallelism,
        ..FitCurveConfig::default()
    };
    let points = goodness_of_fit_curve(db, &fit_config)?;
    Ok(Fig8Result { points })
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ks: Vec<usize> = self.points.iter().map(|p| p.k).collect();
        let med: Vec<f64> = self.points.iter().map(|p| p.kmedoids_r2).collect();
        let rnd: Vec<f64> = self.points.iter().map(|p| p.random_r2).collect();
        write!(
            f,
            "{}",
            dual_series(
                "Figure 8: goodness of fit R² vs number of predictive machines",
                &ks,
                ("k-medoids", &med),
                ("random", &rnd),
                48,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shapes() {
        let mut config = ExperimentConfig::quick();
        config.max_apps = Some(2);
        config.trial_scale = 0.04; // 2 random trials
        let result = run(&config).unwrap();
        let ks: Vec<usize> = result.points.iter().map(|p| p.k).collect();
        assert_eq!(ks, (1..=10).collect::<Vec<_>>());
        assert!(result.to_string().contains("Figure 8"));
    }
}
