//! Fast design-space exploration (paper §4, third application).
//!
//! Cycle-accurate simulation is ~10⁵× slower than hardware, so evaluating
//! a new workload on every design point is infeasible. Data transposition
//! inverts the cost: simulate only the *benchmark suite* on each design
//! point (done once, reusable for every future workload), run the new
//! workload on a few *real* machines, and predict its performance on every
//! design point.
//!
//! Here the dataset's CPI-stack model plays the role of the detailed
//! simulator for the hypothetical design points.

use datatrans_dataset::characteristics::WorkloadCharacteristics;
use datatrans_dataset::database::PerfDatabase;
use datatrans_dataset::microarch::MicroArch;
use datatrans_dataset::perf_model::{execution_time_s, reference_time_s};
use datatrans_linalg::Matrix;

use crate::model::Predictor;
use crate::ranking::Ranking;
use crate::task::PredictionTask;
use crate::{CoreError, Result};

/// Result of exploring a design space for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DseOutcome {
    /// Predicted score of the workload on each design point.
    pub predicted: Vec<f64>,
    /// True (simulated) score on each design point — the oracle.
    pub actual: Vec<f64>,
    /// Design points ranked by predicted score, best first.
    pub ranking: Ranking,
}

impl DseOutcome {
    /// The design point predicted to be best.
    pub fn best_design(&self) -> usize {
        self.ranking.top1()
    }

    /// Deficiency of the predicted-best design versus the true best, in
    /// percent of the chosen design's actual score.
    pub fn top1_deficiency_pct(&self) -> f64 {
        let best_actual = self
            .actual
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let chosen = self.actual[self.best_design()];
        ((best_actual - chosen) / chosen * 100.0).max(0.0)
    }
}

/// Explores `designs` for the workload `app`.
///
/// `predictive` indexes real machines in `db` that the workload is run on;
/// the suite's scores on each design point come from the "detailed
/// simulator" (the CPI-stack model).
///
/// # Errors
///
/// Returns [`CoreError`] for empty design spaces, implausible design
/// points, or prediction failures.
pub fn explore_designs(
    db: &PerfDatabase,
    app: &WorkloadCharacteristics,
    designs: &[MicroArch],
    predictive: &[usize],
    method: &dyn Predictor,
    seed: u64,
) -> Result<DseOutcome> {
    if designs.is_empty() {
        return Err(CoreError::invalid_task("no design points"));
    }
    if designs.iter().any(|d| !d.is_plausible()) {
        return Err(CoreError::invalid_task(
            "design point has implausible parameters",
        ));
    }
    if predictive.is_empty() {
        return Err(CoreError::invalid_task("no predictive machines"));
    }
    for &m in predictive {
        if m >= db.n_machines() {
            return Err(CoreError::invalid_task(format!(
                "machine index {m} out of range"
            )));
        }
    }

    let b = db.n_benchmarks();
    // SPEC ratios, one reference-machine time per workload.
    let suite_reference: Vec<f64> = db
        .benchmarks()
        .iter()
        .map(|bench| reference_time_s(&bench.characteristics))
        .collect();
    let app_reference = reference_time_s(app);
    // "Simulate" the suite on every design point (the once-per-design cost).
    let train_target = Matrix::from_fn(b, designs.len(), |bench, d| {
        suite_reference[bench]
            / execution_time_s(&designs[d], &db.benchmarks()[bench].characteristics)
    });
    let train_predictive = Matrix::from_fn(b, predictive.len(), |bench, p| {
        db.score(bench, predictive[p])
    });
    // "Run" the workload on the user's real machines.
    let app_predictive: Vec<f64> = predictive
        .iter()
        .map(|&m| app_reference / execution_time_s(&db.machines()[m].micro, app))
        .collect();

    let mut train_characteristics = Matrix::zeros(b, WorkloadCharacteristics::MICA_DIMS);
    for bench in 0..b {
        let v = db.benchmarks()[bench].characteristics.to_mica_vector();
        for (j, &x) in v.iter().enumerate() {
            train_characteristics[(bench, j)] = x;
        }
    }

    let task = PredictionTask {
        train_predictive,
        train_target,
        app_predictive,
        train_characteristics,
        app_characteristics: app.to_mica_vector(),
        seed,
    };
    let predicted = method.predict(&task)?;
    let actual: Vec<f64> = designs
        .iter()
        .map(|d| app_reference / execution_time_s(d, app))
        .collect();
    let ranking = Ranking::from_scores(&predicted)?;
    Ok(DseOutcome {
        predicted,
        actual,
        ranking,
    })
}

/// Generates a frequency/cache sweep around a base design — a typical
/// early-stage exploration grid.
pub fn sweep_frequency_cache(
    base: &MicroArch,
    freqs_ghz: &[f64],
    l3_sizes_kib: &[f64],
) -> Vec<MicroArch> {
    let mut out = Vec::with_capacity(freqs_ghz.len() * l3_sizes_kib.len());
    for &f in freqs_ghz {
        for &l3 in l3_sizes_kib {
            let mut d = *base;
            d.freq_ghz = f;
            d.l3_kib = l3;
            out.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MlpT;
    use datatrans_dataset::catalog::nickname_specs;
    use datatrans_dataset::generator::{generate, DatasetConfig};
    use datatrans_dataset::perf_model::spec_ratio;
    use datatrans_dataset::workload_synth::{synthesize, WorkloadProfile};

    fn base_design() -> MicroArch {
        nickname_specs()
            .into_iter()
            .find(|s| s.nickname == "Gainestown")
            .unwrap()
            .template
    }

    #[test]
    fn sweep_generates_grid() {
        let designs = sweep_frequency_cache(&base_design(), &[2.0, 3.0], &[4096.0, 8192.0]);
        assert_eq!(designs.len(), 4);
        assert!(designs.iter().all(|d| d.is_plausible()));
    }

    #[test]
    fn explores_and_ranks_designs() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let app = synthesize(WorkloadProfile::Streaming, 5);
        let designs =
            sweep_frequency_cache(&base_design(), &[1.6, 2.4, 3.2], &[2048.0, 8192.0, 16384.0]);
        let predictive = vec![10, 40, 70, 100];
        let outcome =
            explore_designs(&db, &app, &designs, &predictive, &MlpT::default(), 2).unwrap();
        assert_eq!(outcome.predicted.len(), 9);
        assert_eq!(outcome.actual.len(), 9);
        // The oracle is the model's SPEC ratio, bit for bit.
        for (d, actual) in designs.iter().zip(&outcome.actual) {
            assert_eq!(actual.to_bits(), spec_ratio(d, &app).to_bits());
        }
        // Prediction-driven choice should land close to the oracle best.
        assert!(
            outcome.top1_deficiency_pct() < 30.0,
            "deficiency {:.1}%",
            outcome.top1_deficiency_pct()
        );
    }

    #[test]
    fn oracle_prefers_higher_frequency_for_compute() {
        // Sanity on the 'simulator': for a compute-bound app, higher
        // frequency at equal cache is better.
        let app = synthesize(WorkloadProfile::Embedded, 1);
        let designs = sweep_frequency_cache(&base_design(), &[1.6, 3.2], &[8192.0]);
        let slow = spec_ratio(&designs[0], &app);
        let fast = spec_ratio(&designs[1], &app);
        assert!(fast > slow);
    }

    #[test]
    fn validates_inputs() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let app = synthesize(WorkloadProfile::Embedded, 1);
        let designs = vec![base_design()];
        assert!(explore_designs(&db, &app, &[], &[0], &MlpT::default(), 1).is_err());
        assert!(explore_designs(&db, &app, &designs, &[], &MlpT::default(), 1).is_err());
        assert!(explore_designs(&db, &app, &designs, &[9999], &MlpT::default(), 1).is_err());
        let mut bad = base_design();
        bad.freq_ghz = 50.0;
        assert!(explore_designs(&db, &app, &[bad], &[0], &MlpT::default(), 1).is_err());
    }
}
