//! The data of one prediction problem — the paper's Figure 2.
//!
//! A [`PredictionTask`] carries the two data sets of the methodology:
//!
//! * the **predictive side**: scores of the training benchmarks *and* the
//!   application of interest on the predictive machines (machines the user
//!   owns and can run code on), and
//! * the **target side**: published scores of the training benchmarks on
//!   the target machines (which the user cannot access).
//!
//! It also carries the microarchitecture-independent characteristics of the
//! training benchmarks and of the application, which only the GA-kNN
//! baseline consumes (data transposition itself needs no profiling).

use datatrans_dataset::characteristics::WorkloadCharacteristics;
use datatrans_dataset::perf_model::{execution_time_s, reference_time_s};
use datatrans_dataset::view::DatabaseView;
use datatrans_linalg::Matrix;

use crate::serve::AppOfInterest;
use crate::{CoreError, Result};

/// One fully-specified prediction problem.
#[derive(Debug, Clone)]
pub struct PredictionTask {
    /// Scores of the training benchmarks on the predictive machines
    /// (`benchmarks × predictive`).
    pub train_predictive: Matrix,
    /// Published scores of the training benchmarks on the target machines
    /// (`benchmarks × targets`).
    pub train_target: Matrix,
    /// Measured scores of the application of interest on the predictive
    /// machines (`predictive` entries).
    pub app_predictive: Vec<f64>,
    /// Characteristic vectors of the training benchmarks
    /// (`benchmarks × dims`), consumed by GA-kNN only.
    pub train_characteristics: Matrix,
    /// Characteristic vector of the application of interest (`dims`
    /// entries), consumed by GA-kNN only.
    pub app_characteristics: Vec<f64>,
    /// Seed for stochastic models (MLP initialization, GA).
    pub seed: u64,
}

impl PredictionTask {
    /// Validates internal shape consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTask`] describing the first inconsistency
    /// found.
    pub fn validate(&self) -> Result<()> {
        let b = self.train_predictive.rows();
        let p = self.train_predictive.cols();
        let t = self.train_target.cols();
        if b == 0 {
            return Err(CoreError::invalid_task("no training benchmarks"));
        }
        if p == 0 {
            return Err(CoreError::invalid_task("no predictive machines"));
        }
        if t == 0 {
            return Err(CoreError::invalid_task("no target machines"));
        }
        if self.train_target.rows() != b {
            return Err(CoreError::invalid_task(format!(
                "target side has {} benchmarks, predictive side has {b}",
                self.train_target.rows()
            )));
        }
        if self.app_predictive.len() != p {
            return Err(CoreError::invalid_task(format!(
                "app measured on {} machines, predictive side has {p}",
                self.app_predictive.len()
            )));
        }
        if self.train_characteristics.rows() != b {
            return Err(CoreError::invalid_task(format!(
                "characteristics for {} benchmarks, expected {b}",
                self.train_characteristics.rows()
            )));
        }
        if self.app_characteristics.len() != self.train_characteristics.cols() {
            return Err(CoreError::invalid_task(format!(
                "app characteristics have {} dims, benchmarks have {}",
                self.app_characteristics.len(),
                self.train_characteristics.cols()
            )));
        }
        if !self.train_predictive.all_finite()
            || !self.train_target.all_finite()
            || self.app_predictive.iter().any(|v| !v.is_finite())
        {
            return Err(CoreError::invalid_task("scores contain NaN/inf"));
        }
        Ok(())
    }

    /// Number of training benchmarks.
    pub fn n_benchmarks(&self) -> usize {
        self.train_predictive.rows()
    }

    /// Number of predictive machines.
    pub fn n_predictive(&self) -> usize {
        self.train_predictive.cols()
    }

    /// Number of target machines.
    pub fn n_targets(&self) -> usize {
        self.train_target.cols()
    }

    /// Builds the leave-one-out task of the paper's evaluation: benchmark
    /// `app` is the application of interest; the remaining benchmarks are
    /// the training suite.
    ///
    /// Generic over the database backing ([`DatabaseView`]): dense and
    /// sharded backings produce bitwise-identical tasks, because the
    /// gather copies stored scores verbatim either way.
    ///
    /// The predictive and target machine sets must be disjoint, non-empty
    /// index sets into `db` (the cross-validation splits of Figure 5).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTask`] for an out-of-range app index,
    /// overlapping or empty machine sets, and
    /// [`CoreError::Dataset`]/[`CoreError::Linalg`] on indexing failures.
    pub fn leave_one_out<D: DatabaseView + ?Sized>(
        db: &D,
        app: usize,
        predictive: &[usize],
        targets: &[usize],
        seed: u64,
    ) -> Result<Self> {
        if app >= db.n_benchmarks() {
            return Err(CoreError::invalid_task(format!(
                "app index {app} out of range ({} benchmarks)",
                db.n_benchmarks()
            )));
        }
        validate_machine_split(db, predictive, targets)?;
        Self::for_app(db, &AppOfInterest::Suite(app), predictive, seed, |rows| {
            db.gather(rows, targets)
        })
    }

    /// Builds a task for an *external* application of interest (not part of
    /// the suite): the user has run it on the predictive machines
    /// (simulated here through the performance model, standing in for real
    /// hardware runs) and profiled its characteristics.
    ///
    /// All suite benchmarks are used as training benchmarks.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PredictionTask::leave_one_out`].
    pub fn external_app<D: DatabaseView + ?Sized>(
        db: &D,
        app: &WorkloadCharacteristics,
        predictive: &[usize],
        targets: &[usize],
        seed: u64,
    ) -> Result<Self> {
        validate_machine_split(db, predictive, targets)?;
        Self::for_app(
            db,
            &AppOfInterest::External(*app),
            predictive,
            seed,
            |rows| db.gather(rows, targets),
        )
    }

    /// The one constructor behind every task: training rows (every benchmark,
    /// minus the app's own row for a suite app), the predictive side
    /// gathered from the backing, the app's side (its stored scores, or
    /// its [`spec_ratio`](datatrans_dataset::perf_model::spec_ratio) on
    /// each predictive machine for an external app) and
    /// the characteristics. `target` builds the target side from the
    /// training rows: a gather of the target machines for an exact task,
    /// bucket centroid columns for the approximate path's coarse task.
    ///
    /// The gathers are the one unavoidable copy of task construction (a
    /// strided view cannot express a scattered column subset); the
    /// predict paths read the gathered matrices through zero-copy views.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTask`] if the assembled task fails
    /// [`PredictionTask::validate`].
    pub(crate) fn for_app<D: DatabaseView + ?Sized>(
        db: &D,
        app: &AppOfInterest,
        predictive: &[usize],
        seed: u64,
        target: impl FnOnce(&[usize]) -> Matrix,
    ) -> Result<Self> {
        let train_benchmarks: Vec<usize> = match app {
            AppOfInterest::Suite(app) => (0..db.n_benchmarks()).filter(|b| b != app).collect(),
            AppOfInterest::External(_) => (0..db.n_benchmarks()).collect(),
        };
        let train_predictive = db.gather(&train_benchmarks, predictive);
        let train_target = target(&train_benchmarks);
        let (app_predictive, app_characteristics) = match app {
            AppOfInterest::Suite(app) => (
                predictive.iter().map(|&m| db.score(*app, m)).collect(),
                db.benchmarks()[*app].characteristics.to_mica_vector(),
            ),
            // "Run" the app on the predictive machines the user owns.
            AppOfInterest::External(app) => {
                let reference = reference_time_s(app);
                (
                    predictive
                        .iter()
                        .map(|&m| reference / execution_time_s(&db.machines()[m].micro, app))
                        .collect(),
                    app.to_mica_vector(),
                )
            }
        };
        let task = PredictionTask {
            train_predictive,
            train_target,
            app_predictive,
            train_characteristics: characteristics_matrix(db, &train_benchmarks),
            app_characteristics,
            seed,
        };
        task.validate()?;
        Ok(task)
    }

    /// Actual scores of benchmark `app` on the `targets` — the ground truth
    /// the evaluation compares against (never given to models).
    pub fn actual_scores<D: DatabaseView + ?Sized>(
        db: &D,
        app: usize,
        targets: &[usize],
    ) -> Vec<f64> {
        targets.iter().map(|&m| db.score(app, m)).collect()
    }
}

fn validate_machine_split<D: DatabaseView + ?Sized>(
    db: &D,
    predictive: &[usize],
    targets: &[usize],
) -> Result<()> {
    if predictive.is_empty() {
        return Err(CoreError::invalid_task("no predictive machines"));
    }
    if targets.is_empty() {
        return Err(CoreError::invalid_task("no target machines"));
    }
    for &m in predictive.iter().chain(targets) {
        if m >= db.n_machines() {
            return Err(CoreError::invalid_task(format!(
                "machine index {m} out of range ({} machines)",
                db.n_machines()
            )));
        }
    }
    // Cross-validation demands disjoint splits (Figure 5).
    for &p in predictive {
        if targets.contains(&p) {
            return Err(CoreError::invalid_task(format!(
                "machine {p} appears in both predictive and target sets"
            )));
        }
    }
    Ok(())
}

fn characteristics_matrix<D: DatabaseView + ?Sized>(db: &D, benchmarks: &[usize]) -> Matrix {
    let dim = WorkloadCharacteristics::MICA_DIMS;
    let mut m = Matrix::zeros(benchmarks.len(), dim);
    for (i, &b) in benchmarks.iter().enumerate() {
        let v = db.benchmarks()[b].characteristics.to_mica_vector();
        for (j, &x) in v.iter().enumerate() {
            m[(i, j)] = x;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_dataset::database::PerfDatabase;
    use datatrans_dataset::generator::{generate, DatasetConfig};
    use datatrans_dataset::machine::ProcessorFamily;

    fn db() -> PerfDatabase {
        generate(&DatasetConfig::default()).unwrap()
    }

    fn family_split(db: &PerfDatabase) -> (Vec<usize>, Vec<usize>) {
        let targets = db.machines_in_family(ProcessorFamily::Itanium);
        let predictive: Vec<usize> = (0..db.n_machines())
            .filter(|m| !targets.contains(m))
            .collect();
        (predictive, targets)
    }

    #[test]
    fn loo_task_shapes() {
        let db = db();
        let (predictive, targets) = family_split(&db);
        let task = PredictionTask::leave_one_out(&db, 0, &predictive, &targets, 1).unwrap();
        assert_eq!(task.n_benchmarks(), 28);
        assert_eq!(task.n_predictive(), 114);
        assert_eq!(task.n_targets(), 3);
        assert_eq!(
            task.app_characteristics.len(),
            WorkloadCharacteristics::MICA_DIMS
        );
    }

    #[test]
    fn loo_excludes_app_row() {
        let db = db();
        let (predictive, targets) = family_split(&db);
        let app = db.benchmark_index("libquantum").unwrap();
        let task = PredictionTask::leave_one_out(&db, app, &predictive, &targets, 1).unwrap();
        // The app's own scores must not appear in the training matrices:
        // row `app` was removed, so training row for what used to be after
        // the app shifts up. Check matrix row count only (content checked
        // by construction) plus app scores match the database.
        assert_eq!(task.train_predictive.rows(), db.n_benchmarks() - 1);
        for (j, &m) in predictive.iter().enumerate() {
            assert_eq!(task.app_predictive[j], db.score(app, m));
        }
    }

    #[test]
    fn rejects_overlapping_splits() {
        let db = db();
        let (mut predictive, targets) = family_split(&db);
        predictive.push(targets[0]);
        assert!(matches!(
            PredictionTask::leave_one_out(&db, 0, &predictive, &targets, 1),
            Err(CoreError::InvalidTask { .. })
        ));
    }

    #[test]
    fn rejects_empty_sets_and_bad_indices() {
        let db = db();
        let (predictive, targets) = family_split(&db);
        assert!(PredictionTask::leave_one_out(&db, 0, &[], &targets, 1).is_err());
        assert!(PredictionTask::leave_one_out(&db, 0, &predictive, &[], 1).is_err());
        assert!(PredictionTask::leave_one_out(&db, 999, &predictive, &targets, 1).is_err());
        assert!(PredictionTask::leave_one_out(&db, 0, &[9999], &targets, 1).is_err());
    }

    #[test]
    fn external_app_task() {
        let db = db();
        let (predictive, targets) = family_split(&db);
        let app = datatrans_dataset::workload_synth::synthesize(
            datatrans_dataset::workload_synth::WorkloadProfile::Scientific,
            9,
        );
        let task = PredictionTask::external_app(&db, &app, &predictive, &targets, 1).unwrap();
        assert_eq!(task.n_benchmarks(), 29); // full suite trains
        assert_eq!(task.app_predictive.len(), predictive.len());
        assert!(task.app_predictive.iter().all(|s| *s > 0.0));
        // The app's side is its SPEC ratio on each machine, bit for bit.
        for (&score, &m) in task.app_predictive.iter().zip(&predictive) {
            let ratio = datatrans_dataset::perf_model::spec_ratio(&db.machines()[m].micro, &app);
            assert_eq!(score.to_bits(), ratio.to_bits());
        }
    }

    #[test]
    fn actual_scores_ground_truth() {
        let db = db();
        let (_, targets) = family_split(&db);
        let actual = PredictionTask::actual_scores(&db, 3, &targets);
        for (j, &m) in targets.iter().enumerate() {
            assert_eq!(actual[j], db.score(3, m));
        }
    }
}
