//! GA-kNN: the prior-art baseline (Hoste et al., PACT 2006; paper §2, §6).
//!
//! The method exploits **workload similarity**: the application of
//! interest's score on a target machine is predicted from its `k = 10`
//! nearest benchmarks in a weighted microarchitecture-independent
//! characteristic space. A genetic algorithm learns the per-characteristic
//! weights — "how to weight microarchitecture-independent workload
//! differences to performance differences" — by minimizing the
//! leave-one-out prediction error of the training benchmarks on the target
//! machines. Note that, per the paper (§6.3), GA-kNN "does not rely on data
//! from these predictive machines, and takes only the target machines and
//! the benchmark characteristics into account".
//!
//! Its characteristic failure mode — and the paper's motivation — is
//! *outlier workloads*: an application dissimilar to every benchmark has no
//! informative neighbours, so its prediction inherits the scale of
//! unrelated benchmarks (over 100% top-1 error on `libquantum`-class
//! workloads).

use datatrans_linalg::{kernels, Matrix};
use datatrans_ml::ga::{GaConfig, GeneticAlgorithm};
use datatrans_ml::knn::{
    combine_rows_into, select_k_nearest, KnnIndex, Neighbor, NeighborWeighting,
};
use datatrans_ml::scale::StandardScaler;

use crate::model::Predictor;
use crate::task::PredictionTask;
use crate::{CoreError, Result};

/// Configuration of the GA-kNN baseline.
#[derive(Debug, Clone)]
pub struct GaKnnConfig {
    /// Number of neighbours (the paper assumes `k = 10`).
    pub k: usize,
    /// Genetic-algorithm budget for weight learning. The seed inside is
    /// combined with the task seed.
    pub ga: GaConfig,
    /// Neighbour combination rule.
    pub weighting: NeighborWeighting,
}

impl Default for GaKnnConfig {
    fn default() -> Self {
        GaKnnConfig {
            k: 10,
            ga: GaConfig {
                population: 32,
                generations: 40,
                // GA-kNN is almost always driven by a harness whose own
                // fan-out (folds × apps) already owns the cores; a nested
                // per-generation fan-out would oversubscribe them. Set an
                // explicit `Threads(n)` for standalone single-task speed.
                parallelism: datatrans_parallel::Parallelism::Sequential,
                ..GaConfig::default_seeded(0)
            },
            weighting: NeighborWeighting::InverseDistance,
        }
    }
}

/// The GA-kNN predictor.
#[derive(Debug, Clone, Default)]
pub struct GaKnn {
    /// Method configuration.
    pub config: GaKnnConfig,
}

impl GaKnn {
    /// GA-kNN with the paper's settings (`k = 10`).
    pub fn new() -> Self {
        GaKnn::default()
    }

    /// Predicts and also returns the learned characteristic weights, for
    /// diagnostics and the weight-analysis example.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Predictor::predict`].
    pub fn predict_with_weights(&self, task: &PredictionTask) -> Result<(Vec<f64>, Vec<f64>)> {
        task.validate()?;
        let b = task.n_benchmarks();
        let dims = task.train_characteristics.cols();
        let k = self.config.k.min(b - 1);
        if k == 0 {
            return Err(CoreError::invalid_task(
                "GA-kNN needs at least 2 training benchmarks",
            ));
        }

        // Standardize the characteristic space on the training benchmarks.
        let scaler = StandardScaler::fit(&task.train_characteristics)?;
        let train_chars = scaler.transform(&task.train_characteristics)?;
        let app_chars: Vec<f64> = task
            .app_characteristics
            .iter()
            .enumerate()
            .map(|(j, &v)| scaler.transform_value(j, v))
            .collect();

        // Precompute per-dimension squared differences between benchmarks.
        let sq_diffs = pairwise_sq_diffs(&train_chars);

        // GA: maximize −(LOO mean relative error) of kNN predictions of the
        // training benchmarks on the target machines.
        let fitness_ctx = FitnessContext {
            sq_diffs: &sq_diffs,
            scores: &task.train_target,
            k,
            weighting: self.config.weighting,
        };
        let mut ga_config = self.config.ga.clone();
        ga_config.seed ^= task.seed;
        let ga = GeneticAlgorithm::new(dims, (0.0, 1.0), ga_config)?;
        // Each fitness worker owns one scratch (distances, neighbour list,
        // prediction row), so a parallel population sweep re-weights the
        // pairwise matrix without a single per-evaluation allocation.
        let result = ga.run_with(
            || fitness_ctx.scratch(),
            |scratch, w| -fitness_ctx.loo_error(w, scratch),
        );
        let weights = result.best_genome;

        // Final prediction: the app's k nearest benchmarks under the
        // learned weights, combined over their score rows for every target
        // machine at once — the same combine the fitness loop uses.
        let index = KnnIndex::fit_weighted(train_chars, weights.clone())?;
        let mut neighbors = Vec::with_capacity(b);
        index.nearest_into(&app_chars, k, &mut neighbors)?;
        let mut predictions = vec![0.0; task.n_targets()];
        combine_rows_into(
            &neighbors,
            &task.train_target,
            self.config.weighting,
            &mut predictions,
        );
        Ok((predictions, weights))
    }
}

impl Predictor for GaKnn {
    fn name(&self) -> &'static str {
        "GA-kNN"
    }

    fn predict(&self, task: &PredictionTask) -> Result<Vec<f64>> {
        Ok(self.predict_with_weights(task)?.0)
    }
}

/// Per-dimension squared differences between benchmark pairs, stored as one
/// flat `(b·b) × d` matrix: row `i·b + j` is the difference vector between
/// benchmarks `i` and `j` in standardized characteristic space. One
/// contiguous allocation replaces the former `Vec<Vec<Vec<f64>>>` (b² + b +
/// 1 allocations, pointer-chasing on every GA fitness evaluation). The
/// builder is the cache-tiled [`kernels::pairwise_sq_diffs`], whose output
/// is bitwise-identical to the naive pair loop it replaced (squaring is
/// elementwise; only the traversal order changed).
fn pairwise_sq_diffs(chars: &Matrix) -> Matrix {
    kernels::pairwise_sq_diffs(chars)
}

/// Shared state for GA fitness evaluation.
struct FitnessContext<'a> {
    /// Flat `(b·b) × d` pairwise squared-difference matrix.
    sq_diffs: &'a Matrix,
    scores: &'a Matrix,
    k: usize,
    weighting: NeighborWeighting,
}

/// Per-worker working memory for [`FitnessContext::loo_error`]: every
/// pairwise weighted distance (`b × b`, mirrored), the neighbour list and
/// one row of predictions, all reused across every evaluation a worker
/// performs.
struct LooScratch {
    dist: Vec<f64>,
    neighbors: Vec<Neighbor>,
    pred: Vec<f64>,
}

impl FitnessContext<'_> {
    /// A scratch sized for this context, one per fitness worker.
    fn scratch(&self) -> LooScratch {
        let (b, t) = self.scores.shape();
        LooScratch {
            dist: vec![0.0; b * b],
            neighbors: Vec::with_capacity(b),
            pred: vec![0.0; t],
        }
    }

    /// Leave-one-out mean relative error of kNN predictions of each
    /// training benchmark's scores on the target machines.
    ///
    /// Distances: rows `i·b + j` and `j·b + i` of the squared-difference
    /// matrix are equal, so each unordered pair's weighted distance is one
    /// [`kernels::dot_unrolled`] (the fixed 4-lane tree of a GEMV row),
    /// rooted once and mirrored. Predictions: each held-out benchmark's
    /// neighbours are combined over their contiguous score rows for every
    /// target at once ([`combine_rows_into`]), and the error sum runs in
    /// (held, target) order. Both give the bits of the per-row GEMV and the
    /// per-target column combine they replaced; the `#[cfg(test)]`
    /// reference below proves it.
    fn loo_error(&self, weights: &[f64], scratch: &mut LooScratch) -> f64 {
        let b = self.scores.rows();
        let LooScratch {
            dist,
            neighbors,
            pred,
        } = scratch;
        for i in 0..b {
            for j in (i + 1)..b {
                let d = kernels::dot_unrolled(self.sq_diffs.row(i * b + j), weights).sqrt();
                dist[i * b + j] = d;
                dist[j * b + i] = d;
            }
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for held in 0..b {
            let held_dists = &dist[held * b..(held + 1) * b];
            neighbors.clear();
            neighbors.extend((0..b).filter(|&i| i != held).map(|i| Neighbor {
                index: i,
                distance: held_dists[i],
            }));
            select_k_nearest(neighbors, self.k);
            combine_rows_into(neighbors, self.scores, self.weighting, pred);
            for (&p, &actual) in pred.iter().zip(self.scores.row(held)) {
                if actual > 0.0 {
                    total += (p - actual).abs() / actual;
                    count += 1;
                }
            }
        }
        if count == 0 {
            f64::INFINITY
        } else {
            total / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_ml::ga::GaConfig;
    use datatrans_ml::knn::combine_targets_with;
    use datatrans_rng::rngs::StdRng;
    use datatrans_rng::{Rng, SeedableRng};

    const WEIGHTINGS: [NeighborWeighting; 2] = [
        NeighborWeighting::Uniform,
        NeighborWeighting::InverseDistance,
    ];

    /// The fitness loop before the row combine, kept as the specification
    /// of [`FitnessContext::loo_error`]: one GEMV over all `b²`
    /// squared-difference rows, then a per-target [`combine_targets_with`]
    /// down each strided score column.
    fn loo_error_reference(ctx: &FitnessContext<'_>, weights: &[f64]) -> f64 {
        let b = ctx.scores.rows();
        let t = ctx.scores.cols();
        let mut sq_dist = vec![0.0; b * b];
        ctx.sq_diffs
            .mul_vec_into(weights, &mut sq_dist)
            .expect("sized for the context");
        let mut neighbors = Vec::with_capacity(b);
        let mut total = 0.0;
        let mut count = 0usize;
        for held in 0..b {
            let held_dists = &sq_dist[held * b..(held + 1) * b];
            neighbors.clear();
            neighbors.extend((0..b).filter(|&i| i != held).map(|i| Neighbor {
                index: i,
                distance: held_dists[i].sqrt(),
            }));
            select_k_nearest(&mut neighbors, ctx.k);
            for tj in 0..t {
                let scores = ctx.scores.col_view(tj);
                let pred = combine_targets_with(&neighbors, |i| scores.at(i), ctx.weighting);
                let actual = scores.at(held);
                if actual > 0.0 {
                    total += (pred - actual).abs() / actual;
                    count += 1;
                }
            }
        }
        if count == 0 {
            f64::INFINITY
        } else {
            total / count as f64
        }
    }

    /// A seeded fitness problem: the squared-difference matrix of `b`
    /// random characteristic rows of `d` dims, every third row a copy of
    /// the one before it (equal distances exercise the index tie-break),
    /// and a `b × t` score matrix with zero and negative cells (skipped).
    fn seeded_problem(seed: u64, b: usize, t: usize, d: usize) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chars = Matrix::from_fn(b, d, |_, _| rng.gen_range(-2.0..2.0));
        for i in (2..b).step_by(3) {
            for dim in 0..d {
                chars[(i, dim)] = chars[(i - 1, dim)];
            }
        }
        let scores = Matrix::from_fn(b, t, |i, tj| match (i * t + tj) % 7 {
            3 => 0.0,
            5 => -rng.gen_range(0.5..5.0),
            _ => rng.gen_range(1.0..80.0),
        });
        (pairwise_sq_diffs(&chars), scores)
    }

    /// `n` weight vectors of `d` dims: all-zero, all-one, then random ones
    /// in `[0, 1)` with every fifth dimension zeroed.
    fn seeded_weights(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = vec![vec![0.0; d], vec![1.0; d]];
        while out.len() < n {
            let j0 = out.len() % 5;
            out.push(
                (0..d)
                    .map(|j| {
                        let w = rng.gen_range(0.0..1.0);
                        if j % 5 == j0 {
                            0.0
                        } else {
                            w
                        }
                    })
                    .collect(),
            );
        }
        out
    }

    fn assert_fitness_matches_reference(ctx: &FitnessContext<'_>, weights: &[Vec<f64>]) {
        let mut scratch = ctx.scratch();
        for (wi, w) in weights.iter().enumerate() {
            let fast = ctx.loo_error(w, &mut scratch);
            let reference = loo_error_reference(ctx, w);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "b={} t={} k={} {:?} weights #{wi}: {fast} vs {reference}",
                ctx.scores.rows(),
                ctx.scores.cols(),
                ctx.k,
                ctx.weighting
            );
        }
    }

    #[test]
    fn loo_error_matches_reference_bitwise_across_shapes() {
        for b in [2, 3, 12, 28, 29] {
            for t in [1, 5, 26, 52] {
                let d = 3 + (b + t) % 6;
                let (sq_diffs, scores) = seeded_problem((b * 100 + t) as u64, b, t, d);
                let weights = seeded_weights(b as u64 ^ 0x5eed, 6, d);
                let mut ks = vec![1, 4, 10, b - 1];
                ks.retain(|&k| k < b);
                ks.dedup();
                for k in ks {
                    for weighting in WEIGHTINGS {
                        let ctx = FitnessContext {
                            sq_diffs: &sq_diffs,
                            scores: &scores,
                            k,
                            weighting,
                        };
                        assert_fitness_matches_reference(&ctx, &weights);
                    }
                }
            }
        }
    }

    #[test]
    fn loo_error_matches_reference_bitwise_over_200_weight_vectors() {
        let d = 11;
        let (sq_diffs, scores) = seeded_problem(42, 28, 26, d);
        let weights = seeded_weights(43, 200, d);
        for weighting in WEIGHTINGS {
            let ctx = FitnessContext {
                sq_diffs: &sq_diffs,
                scores: &scores,
                k: 10,
                weighting,
            };
            assert_fitness_matches_reference(&ctx, &weights);
        }
    }

    #[test]
    fn loo_error_is_infinite_when_every_actual_is_non_positive() {
        let d = 4;
        let (sq_diffs, scores) = seeded_problem(7, 12, 5, d);
        let scores = scores.map(|v| -v.abs());
        for weighting in WEIGHTINGS {
            let ctx = FitnessContext {
                sq_diffs: &sq_diffs,
                scores: &scores,
                k: 4,
                weighting,
            };
            for w in seeded_weights(8, 4, d) {
                let fast = ctx.loo_error(&w, &mut ctx.scratch());
                assert_eq!(fast, f64::INFINITY);
                assert_eq!(fast.to_bits(), loo_error_reference(&ctx, &w).to_bits());
            }
        }
    }

    #[test]
    fn final_combine_matches_per_target_column_combine_bitwise() {
        let mut tasks = vec![structured_task()];
        for seed in [1, 2] {
            let (b, t, d) = (14, 9, 5);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut task = structured_task();
            task.train_target = Matrix::from_fn(b, t, |_, _| rng.gen_range(1.0..80.0));
            task.train_predictive = Matrix::from_fn(b, 2, |_, _| rng.gen_range(1.0..80.0));
            task.train_characteristics = Matrix::from_fn(b, d, |_, _| rng.gen_range(-1.0..1.0));
            task.app_characteristics = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            task.seed = seed;
            tasks.push(task);
        }
        for task in &tasks {
            for weighting in WEIGHTINGS {
                let gaknn = GaKnn {
                    config: GaKnnConfig {
                        weighting,
                        ..quick_config()
                    },
                };
                let (pred, weights) = gaknn.predict_with_weights(task).unwrap();
                let scaler = StandardScaler::fit(&task.train_characteristics).unwrap();
                let train_chars = scaler.transform(&task.train_characteristics).unwrap();
                let app_chars: Vec<f64> = task
                    .app_characteristics
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| scaler.transform_value(j, v))
                    .collect();
                let k = gaknn.config.k.min(task.n_benchmarks() - 1);
                let neighbors = KnnIndex::fit_weighted(train_chars, weights)
                    .unwrap()
                    .nearest(&app_chars, k)
                    .unwrap();
                assert_eq!(pred.len(), task.n_targets());
                for (tj, p) in pred.iter().enumerate() {
                    let scores = task.train_target.col_view(tj);
                    let reference = combine_targets_with(&neighbors, |i| scores.at(i), weighting);
                    assert_eq!(
                        p.to_bits(),
                        reference.to_bits(),
                        "{weighting:?} target {tj}"
                    );
                }
            }
        }
    }

    /// A task where one characteristic dimension perfectly explains score
    /// scale and another is pure noise: GA should exploit the informative
    /// dimension and kNN should recover neighbour structure.
    fn structured_task() -> PredictionTask {
        let b = 12;
        let t = 4;
        let p = 2;
        // Benchmark "type" alternates slow/fast score families; dim 0
        // encodes the type, dim 1 is noise.
        let type_of = |i: usize| (i % 3) as f64; // three behaviour groups
        let scale_of = |i: usize| 10.0 + 15.0 * type_of(i);
        let train_target = Matrix::from_fn(b, t, |i, tj| scale_of(i) * (1.0 + 0.3 * tj as f64));
        let train_predictive = Matrix::from_fn(b, p, |i, pj| scale_of(i) * (0.8 + 0.2 * pj as f64));
        let train_characteristics = Matrix::from_fn(b, 2, |i, d| {
            if d == 0 {
                type_of(i)
            } else {
                ((i * 37) % 11) as f64 // noise
            }
        });
        PredictionTask {
            train_predictive,
            train_target,
            // App belongs to group 1 (scale 25).
            app_predictive: vec![25.0 * 0.8, 25.0],
            train_characteristics,
            app_characteristics: vec![1.0, 5.0],
            seed: 3,
        }
    }

    fn quick_config() -> GaKnnConfig {
        GaKnnConfig {
            k: 4,
            ga: GaConfig {
                population: 16,
                generations: 10,
                ..GaConfig::default_seeded(0)
            },
            weighting: NeighborWeighting::InverseDistance,
        }
    }

    #[test]
    fn predicts_group_scale_on_targets() {
        let task = structured_task();
        let gaknn = GaKnn {
            config: quick_config(),
        };
        let pred = gaknn.predict(&task).unwrap();
        // Expected: app behaves like group 1 → 25 * (1 + 0.3 t).
        for (tj, p) in pred.iter().enumerate() {
            let expected = 25.0 * (1.0 + 0.3 * tj as f64);
            let rel = (p - expected).abs() / expected;
            assert!(
                rel < 0.35,
                "target {tj}: predicted {p:.1}, expected {expected:.1}"
            );
        }
    }

    #[test]
    fn learned_weights_favor_informative_dimension() {
        let task = structured_task();
        let gaknn = GaKnn {
            config: quick_config(),
        };
        let (_, weights) = gaknn.predict_with_weights(&task).unwrap();
        assert_eq!(weights.len(), 2);
        assert!(
            weights[0] > weights[1],
            "informative dim should outweigh noise: {weights:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let task = structured_task();
        let gaknn = GaKnn {
            config: quick_config(),
        };
        assert_eq!(gaknn.predict(&task).unwrap(), gaknn.predict(&task).unwrap());
    }

    #[test]
    fn k_clamped_to_pool() {
        let task = structured_task();
        let gaknn = GaKnn {
            config: GaKnnConfig {
                k: 100, // more than available benchmarks
                ..quick_config()
            },
        };
        let pred = gaknn.predict(&task).unwrap();
        assert_eq!(pred.len(), task.n_targets());
    }

    #[test]
    fn constant_characteristic_column_does_not_panic() {
        // Regression: a zero-variance characteristic column used to be a
        // latent panic in neighbour ordering (NaN after standardization →
        // partial_cmp(...).expect). The scaler guards the division and the
        // comparator is now total, so this must predict cleanly.
        let mut task = structured_task();
        let b = task.train_characteristics.rows();
        task.train_characteristics = datatrans_linalg::Matrix::from_fn(b, 2, |i, d| {
            if d == 0 {
                (i % 3) as f64
            } else {
                7.5 // constant column
            }
        });
        task.app_characteristics = vec![1.0, 7.5];
        let gaknn = GaKnn {
            config: quick_config(),
        };
        let pred = gaknn.predict(&task).unwrap();
        assert_eq!(pred.len(), task.n_targets());
        assert!(pred.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn parallel_ga_matches_sequential_bitwise() {
        let task = structured_task();
        let predict = |parallelism| {
            let mut config = quick_config();
            config.ga.parallelism = parallelism;
            GaKnn { config }.predict(&task).unwrap()
        };
        let seq = predict(datatrans_parallel::Parallelism::Sequential);
        for threads in [2, 4] {
            let par = predict(datatrans_parallel::Parallelism::Threads(threads));
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn predictions_within_training_score_range() {
        // kNN averages training scores, so predictions are bounded by them.
        let task = structured_task();
        let gaknn = GaKnn {
            config: quick_config(),
        };
        let pred = gaknn.predict(&task).unwrap();
        let lo = 10.0;
        let hi = 40.0 * 1.9 + 1.0;
        assert!(pred.iter().all(|p| (lo..hi).contains(p)));
    }
}
