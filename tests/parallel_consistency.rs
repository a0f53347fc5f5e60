//! The executor's core guarantee, checked end to end: every parallelized
//! pipeline produces bitwise-identical results at 1, 2, and 4 threads.
//!
//! Unit-level coverage of `par_map`/`par_map_with` (ordering, panic
//! propagation, the sequential-fallback threshold, pool reuse, worker-local
//! scratch) lives in `datatrans-parallel`; this suite exercises the
//! wired-through consumers — GA-kNN predictions, the fit harness's
//! leave-one-out folds, and the family-CV tables. CI
//! additionally runs the whole workspace under `DATATRANS_THREADS=1` and
//! `=4`, which routes every `Parallelism::Auto` fan-out through both
//! extremes.

use datatrans::core::eval::family_cv::{family_cross_validation, FamilyCvConfig};
use datatrans::core::eval::fit::{goodness_of_fit_curve, FitCurveConfig};
use datatrans::core::model::{GaKnn, NnT, Predictor};
use datatrans::core::task::PredictionTask;
use datatrans::dataset::generator::{generate, DatasetConfig};
use datatrans::dataset::machine::ProcessorFamily;
use datatrans::parallel::Parallelism;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} != {y}");
    }
}

#[test]
fn gaknn_predictions_invariant_across_thread_counts() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let targets = db.machines_in_family(ProcessorFamily::Phenom);
    let predictive: Vec<usize> = (0..db.n_machines())
        .filter(|m| !targets.contains(m))
        .collect();
    let task = PredictionTask::leave_one_out(&db, 4, &predictive, &targets, 5).expect("task");

    let predict = |parallelism| {
        let mut gaknn = GaKnn::new();
        gaknn.config.ga.parallelism = parallelism;
        gaknn.predict(&task).expect("prediction")
    };
    let seq = predict(Parallelism::Sequential);
    for threads in THREAD_COUNTS {
        let par = predict(Parallelism::Threads(threads));
        assert_bits_eq(&seq, &par, &format!("GA-kNN at {threads} threads"));
    }
}

#[test]
fn fit_curve_fold_errors_invariant_across_thread_counts() {
    // The goodness-of-fit harness drives MLPᵀ's leave-one-out folds
    // through the pool (k-medoids point) and fans random draws out (random
    // point); both per-k R² values must be bit-equal at any thread count.
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let run = |parallelism| {
        goodness_of_fit_curve(
            &db,
            &FitCurveConfig {
                ks: vec![3],
                random_trials: 2,
                apps: Some(vec![0, 9, 17]),
                parallelism,
                ..FitCurveConfig::default()
            },
        )
        .expect("fit curve")
    };
    let seq = run(Parallelism::Sequential);
    for threads in THREAD_COUNTS {
        let par = run(Parallelism::Threads(threads));
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.k, p.k);
            assert_eq!(
                s.kmedoids_r2.to_bits(),
                p.kmedoids_r2.to_bits(),
                "k-medoids R² at {threads} threads"
            );
            assert_eq!(
                s.random_r2.to_bits(),
                p.random_r2.to_bits(),
                "random R² at {threads} threads"
            );
        }
    }
}

#[test]
fn family_cv_tables_invariant_across_thread_counts() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let methods: Vec<Box<dyn Predictor + Send + Sync>> = vec![Box::new(NnT::default())];
    let run = |parallelism| {
        family_cross_validation(
            &db,
            &methods,
            &FamilyCvConfig {
                families: Some(vec![
                    ProcessorFamily::Xeon,
                    ProcessorFamily::Power6,
                    ProcessorFamily::CoreDuo,
                ]),
                apps: Some(vec![0, 7]),
                parallelism,
                ..FamilyCvConfig::default()
            },
        )
        .expect("family cv")
    };
    let seq = run(Parallelism::Sequential);
    for threads in THREAD_COUNTS {
        let par = run(Parallelism::Threads(threads));
        // CvCell and EvalMetrics derive PartialEq over raw f64 metrics, so
        // equality here is exact, cell for cell, in the same order.
        assert_eq!(seq.cells, par.cells, "report at {threads} threads");
    }
}
