//! The batched ranking-query front end: the paper's end product — a
//! ranking of commercial machines for an application of interest — served
//! as a first-class query.
//!
//! A [`RankRequest`] names an application ([`AppOfInterest`]), a model
//! ([`ModelKind`]), the predictive machines the requester owns, a
//! [`MachineFilter`] restricting the candidate targets, and an optional
//! `top_k` cut. [`serve_batch`] executes many requests in **one pass over
//! the persistent worker pool**: each worker carries a lazily-built model
//! cache as its scratch and reads the shared view directly, and every
//! request independently
//!
//! 1. **plans** — [`DatabaseView::plan_machines`] resolves the restriction
//!    (on a sharded backing, shard statistics prune shards that provably
//!    cannot match),
//! 2. **gathers** — task construction copies exactly the planned columns,
//! 3. **predicts** — NNᵀ / MLPᵀ / GA-kNN, and
//! 4. **ranks** — descending predicted score, truncated to `top_k`.
//!
//! A request carrying an [`ApproxConfig`] first narrows the planned
//! candidates to the best PCA buckets; one without is served exactly. The
//! bucket index comes from [`DatabaseView::bucket_index`], asked inside
//! the fan-out by the worker serving the request: the backing builds each
//! distinct index once per catalog version, on whichever worker first
//! needs it, while the rest of the pass runs beside that build.
//!
//! Responses are returned in request order and are **bitwise-identical**
//! at any thread count, on dense and sharded backings, and under any
//! batch permutation (each response depends only on its own request and
//! the stored data; `tests/query_engine.rs` pins all three properties).

use std::error::Error;
use std::fmt;

use datatrans_dataset::bucket::BucketIndex;
use datatrans_dataset::characteristics::WorkloadCharacteristics;
use datatrans_dataset::generator::NoiseConfig;
use datatrans_dataset::perf_model::spec_ratio;
use datatrans_dataset::query::MachineFilter;
use datatrans_dataset::view::DatabaseView;
use datatrans_dataset::DatasetError;
use datatrans_linalg::Matrix;
use datatrans_ml::ga::GaConfig;
use datatrans_ml::mlp::MlpConfig;
use datatrans_parallel::Parallelism;
use datatrans_stats::rank::bootstrap_rank_confidence;

use crate::cache::ResultCache;
use crate::fingerprint::RequestFingerprint;
use crate::model::{GaKnn, GaKnnConfig, MlpT, NnT, Predictor};
use crate::ranking::Ranking;
use crate::task::PredictionTask;
use crate::CoreError;

/// Domain-separation constant for the measurement-noise streams a
/// confidence-bearing request synthesizes from its predicted scores.
const CONFIDENCE_NOISE_SEED: u64 = 0xC01F_1DE5_CE5E_ED01;

/// Domain-separation constant for the confidence bootstrap's replicate
/// streams (distinct from the measurement streams by construction).
const CONFIDENCE_BOOTSTRAP_SEED: u64 = 0xC01F_1DE5_CE5E_ED02;

/// A typed per-request serving failure.
///
/// Every way a [`RankRequest`] can be malformed is validated up front into
/// one of these variants, so request handling never panics and
/// [`serve_batch`] can degrade per slot instead of poisoning a whole
/// batch.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// A [`AppOfInterest::Suite`] row at or past the benchmark count.
    UnknownBenchmark {
        /// The requested row.
        index: usize,
        /// The catalog's benchmark count (exclusive bound).
        bound: usize,
    },
    /// The request names no predictive machines, so no model can train.
    EmptyPredictiveSet,
    /// A predictive machine index at or past the machine count.
    PredictiveOutOfRange {
        /// The offending machine index.
        index: usize,
        /// The catalog's machine count (exclusive bound).
        bound: usize,
    },
    /// The restriction references an out-of-range index
    /// (see [`MachineFilter::validate`]).
    InvalidRestriction {
        /// Which clause (`"min_score benchmark"` or `"subset machine"`).
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// The restriction (minus the predictive set) leaves no candidate
    /// target machines to rank.
    EmptyCandidates,
    /// A [`ConfidenceConfig`] parameter is outside its domain.
    InvalidConfidence {
        /// Parameter name.
        name: &'static str,
        /// Offending value (counts are converted to `f64`).
        value: f64,
    },
    /// An [`ApproxConfig`] parameter is outside its domain.
    InvalidApprox {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: usize,
    },
    /// `top_k: Some(0)` asks for an empty ranking — rejected up front so a
    /// wire client gets a clear error instead of paying full model
    /// evaluation for a confusing empty response.
    ZeroTopK,
    /// An internal serving invariant failed. This flags a bug in the
    /// engine (never in the request); surfacing it as a typed per-slot
    /// error means a cache- or batch-logic slip degrades one slot instead
    /// of panicking the whole listener process.
    Invariant {
        /// The invariant that did not hold.
        what: &'static str,
    },
    /// Task construction or model evaluation failed after validation.
    Evaluation(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownBenchmark { index, bound } => {
                write!(f, "unknown benchmark row {index} (catalog has {bound})")
            }
            ServeError::EmptyPredictiveSet => {
                write!(f, "request names no predictive machines")
            }
            ServeError::PredictiveOutOfRange { index, bound } => {
                write!(f, "predictive machine {index} out of bounds (< {bound})")
            }
            ServeError::InvalidRestriction { what, index, bound } => {
                write!(
                    f,
                    "restriction {what} index {index} out of bounds (< {bound})"
                )
            }
            ServeError::EmptyCandidates => {
                write!(f, "restriction leaves no candidate target machines")
            }
            ServeError::InvalidConfidence { name, value } => {
                write!(f, "confidence parameter {name} out of domain: {value}")
            }
            ServeError::InvalidApprox { name, value } => {
                write!(f, "approx parameter {name} out of domain: {value}")
            }
            ServeError::ZeroTopK => {
                write!(
                    f,
                    "top_k of 0 requests an empty ranking (omit top_k for the full ranking)"
                )
            }
            ServeError::Invariant { what } => {
                write!(f, "serving invariant violated: {what}")
            }
            ServeError::Evaluation(e) => write!(f, "evaluation failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Evaluation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Evaluation(e)
    }
}

/// Which predictor a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// NNᵀ: linear regression over the best-fitting predictive machine.
    NnT,
    /// MLPᵀ: neural network from benchmark scores to the app score.
    MlpT,
    /// GA-kNN: the prior-art workload-similarity baseline.
    GaKnn,
}

impl ModelKind {
    /// All three kinds, in the paper's order.
    pub const ALL: [ModelKind; 3] = [ModelKind::NnT, ModelKind::MlpT, ModelKind::GaKnn];

    /// The kind's display name — always equal to the
    /// [`Predictor::name`] of the model it builds.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::NnT => "NN^T",
            ModelKind::MlpT => "MLP^T",
            ModelKind::GaKnn => "GA-kNN",
        }
    }
}

/// The application a request ranks machines for.
#[derive(Debug, Clone, PartialEq)]
pub enum AppOfInterest {
    /// A suite benchmark by row index, evaluated leave-one-out: its row is
    /// withheld from training, exactly like the paper's evaluation cells.
    Suite(usize),
    /// An external (proprietary) application: profiled characteristics,
    /// "run" on the predictive machines through the performance model.
    External(WorkloadCharacteristics),
}

/// Noise assumptions under which a request wants rank-confidence
/// intervals and tie groups reported alongside its ranking.
///
/// The engine models measurement noise on the predicted scores:
/// `repeats` synthetic measurements per candidate machine, each the
/// predicted score times `exp(sigma * N(0, 1))` from a stream derived
/// from `(request seed, machine index)` alone, then a `resamples`-replicate
/// bootstrap over those measurements (see
/// [`datatrans_stats::rank::bootstrap_rank_confidence`]). The whole
/// computation is a pure function of `(request, catalog)` — independent of
/// backing, batch composition, thread count, and cache warmth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceConfig {
    /// Confidence level of every interval, in `(0, 1)` (default `0.95`).
    pub level: f64,
    /// Relative measurement-noise sigma, in `[0, 0.5]` (default `0.015`,
    /// the SPEC run-to-run order of magnitude). `0` yields degenerate
    /// zero-width intervals: every machine is its own tie group.
    pub sigma: f64,
    /// Synthetic measurements per machine, `>= 1` (default `8`).
    pub repeats: usize,
    /// Bootstrap replicates, `>= 1` (default `200`).
    pub resamples: usize,
}

impl Default for ConfidenceConfig {
    fn default() -> Self {
        ConfidenceConfig {
            level: 0.95,
            sigma: 0.015,
            repeats: 8,
            resamples: 200,
        }
    }
}

impl ConfidenceConfig {
    /// Validates every parameter against its documented domain.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfidence`] naming the first
    /// offending parameter.
    pub fn validate(&self) -> std::result::Result<(), ServeError> {
        if !(self.level > 0.0 && self.level < 1.0) {
            return Err(ServeError::InvalidConfidence {
                name: "level",
                value: self.level,
            });
        }
        if !self.sigma.is_finite() || !(0.0..=0.5).contains(&self.sigma) {
            return Err(ServeError::InvalidConfidence {
                name: "sigma",
                value: self.sigma,
            });
        }
        if self.repeats == 0 {
            return Err(ServeError::InvalidConfidence {
                name: "repeats",
                value: 0.0,
            });
        }
        if self.resamples == 0 {
            return Err(ServeError::InvalidConfidence {
                name: "resamples",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// Parameters of the approximate serving fast path.
///
/// When a request carries one, serving first **coarse-ranks** the
/// catalog's PCA buckets: a [`BucketIndex`] built at
/// `(n_components, n_buckets)` partitions the machines, the request's own
/// model scores each candidate-holding bucket's reconstructed centroid
/// column as a synthetic machine, and only machines inside the top
/// `probe_buckets` buckets survive to exact evaluation — the rest are
/// short-circuited. Survivor scores are bitwise-identical to the scores
/// the same machines get under exact serving (every model predicts each
/// target column independently), so the approximation error is purely
/// *recall*: machines the coarse ranking wrongly pruned.
///
/// `probe_buckets >= n_buckets` provably serves the exact ranking (no
/// bucket is pruned). Approx responses inherit the full determinism
/// contract: bitwise-identical across thread counts, backings, batch
/// order, and cache warmth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxConfig {
    /// Principal components kept by the bucket index, in
    /// `1..=n_benchmarks`. More components reconstruct more faithful
    /// centroid columns (better coarse ranking, higher recall).
    pub n_components: usize,
    /// Buckets along the leading component, in `1..=n_machines`.
    pub n_buckets: usize,
    /// Best-scoring buckets whose members survive to exact evaluation,
    /// in `1..=n_buckets`.
    pub probe_buckets: usize,
}

impl ApproxConfig {
    /// Validates every parameter against its documented domain on a
    /// catalog of `n_benchmarks × n_machines`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidApprox`] naming the first offending
    /// parameter.
    pub fn validate(
        &self,
        n_benchmarks: usize,
        n_machines: usize,
    ) -> std::result::Result<(), ServeError> {
        if self.n_components == 0 || self.n_components > n_benchmarks {
            return Err(ServeError::InvalidApprox {
                name: "n_components",
                value: self.n_components,
            });
        }
        if self.n_buckets == 0 || self.n_buckets > n_machines {
            return Err(ServeError::InvalidApprox {
                name: "n_buckets",
                value: self.n_buckets,
            });
        }
        if self.probe_buckets == 0 || self.probe_buckets > self.n_buckets {
            return Err(ServeError::InvalidApprox {
                name: "probe_buckets",
                value: self.probe_buckets,
            });
        }
        Ok(())
    }
}

/// One ranking query.
#[derive(Debug, Clone, PartialEq)]
pub struct RankRequest {
    /// The application of interest.
    pub app: AppOfInterest,
    /// The predictor to use.
    pub model: ModelKind,
    /// Machines the requester can run code on. Automatically excluded
    /// from the candidate targets.
    pub predictive: Vec<usize>,
    /// Restriction on the candidate target machines.
    pub restrict: MachineFilter,
    /// Return only the best `k` machines (`None` = the full ranking).
    pub top_k: Option<usize>,
    /// Seed for the stochastic models (MLP initialization, GA).
    pub seed: u64,
    /// When present, the response carries rank-confidence intervals and
    /// tie groups under these noise assumptions. `None` leaves the
    /// response (and its fingerprint) bitwise-identical to a request from
    /// before the confidence field existed.
    pub confidence: Option<ConfidenceConfig>,
    /// When present, serving takes the PCA-bucketed approximate fast
    /// path under these parameters. `None` leaves the response (and its
    /// fingerprint) bitwise-identical to a request from before the field
    /// existed.
    pub approx: Option<ApproxConfig>,
}

/// One machine in a response's ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedMachine {
    /// Index into the database's machine list.
    pub machine: usize,
    /// Predicted score of the application on this machine.
    pub predicted_score: f64,
}

/// Rank and score confidence of one ranked machine, under the request's
/// [`ConfidenceConfig`] noise assumptions.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRankCi {
    /// Index into the database's machine list (matches the aligned
    /// [`RankedMachine::machine`]).
    pub machine: usize,
    /// Fractional rank (1 = best, ties averaged) of the machine's mean
    /// synthetic measurement. Statistically indistinguishable machines
    /// may hold a different rank here than their slot position.
    pub rank: f64,
    /// Best rank the machine plausibly holds at the confidence level.
    pub rank_lower: f64,
    /// Worst rank the machine plausibly holds at the confidence level.
    pub rank_upper: f64,
    /// Lower confidence bound on the machine's measured score.
    pub score_lower: f64,
    /// Upper confidence bound on the machine's measured score.
    pub score_upper: f64,
    /// Tie group of the machine (0 = best group): machines whose score
    /// intervals overlap share a group.
    pub tie_group: usize,
}

/// The confidence annex of a [`RankResponse`]: per-machine rank CIs for
/// the returned slots plus the tie-group partition of the full candidate
/// set.
#[derive(Debug, Clone, PartialEq)]
pub struct RankConfidenceReport {
    /// Confidence level of every interval.
    pub level: f64,
    /// Per-machine confidence, aligned with [`RankResponse::ranked`]
    /// (truncated by `top_k` the same way).
    pub ranked: Vec<MachineRankCi>,
    /// Tie groups over **all** candidates (not just the returned `top_k`),
    /// best group first; members are machine indices in deterministic
    /// best-first order.
    pub tie_groups: Vec<Vec<usize>>,
}

/// The approx annex of a [`RankResponse`]: what the fast path pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxReport {
    /// Buckets that held at least one candidate target machine.
    pub buckets_total: usize,
    /// Buckets whose members survived to exact evaluation (equals
    /// `buckets_total` when nothing could be pruned).
    pub buckets_probed: usize,
    /// Candidate machines short-circuited before exact evaluation.
    pub short_circuited: usize,
}

/// The answer to one [`RankRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankResponse {
    /// Display name of the model that produced the ranking.
    pub method: &'static str,
    /// Candidate machines, best first, truncated to the request's `top_k`.
    pub ranked: Vec<RankedMachine>,
    /// Number of candidate target machines scored (before `top_k`).
    pub candidates: usize,
    /// Shards the planner examined for this request.
    pub shards_scanned: usize,
    /// Shards the planner skipped via statistics or subset range.
    pub shards_pruned: usize,
    /// Rank-confidence intervals and tie groups; present exactly when the
    /// request carried a [`ConfidenceConfig`].
    pub confidence: Option<RankConfidenceReport>,
    /// What the approximate fast path pruned; present exactly when the
    /// request carried an [`ApproxConfig`].
    pub approx: Option<ApproxReport>,
}

/// Model budgets and the batch fan-out configuration of the serving
/// engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// MLPᵀ training epochs (paper/WEKA default: 500).
    pub mlp_epochs: usize,
    /// GA-kNN population size (default 32).
    pub ga_population: usize,
    /// GA-kNN generations (default 40).
    pub ga_generations: usize,
    /// Worker threads for the request fan-out. Responses are
    /// bitwise-identical at any thread count. Models run sequentially
    /// inside a request — the batch fan-out owns the cores.
    pub parallelism: Parallelism,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mlp_epochs: 500,
            ga_population: 32,
            ga_generations: 40,
            parallelism: Parallelism::default(),
        }
    }
}

impl ServeConfig {
    /// Reduced budgets for tests and benches.
    pub fn quick() -> Self {
        ServeConfig {
            mlp_epochs: 40,
            ga_population: 8,
            ga_generations: 3,
            ..ServeConfig::default()
        }
    }

    /// Builds the predictor for `kind` at this configuration's budgets.
    fn build_model(&self, kind: ModelKind) -> Box<dyn Predictor + Send + Sync> {
        match kind {
            ModelKind::NnT => Box::new(NnT::default()),
            ModelKind::MlpT => Box::new(MlpT {
                config: MlpConfig {
                    epochs: self.mlp_epochs,
                    ..MlpConfig::weka_default(0)
                },
                ..MlpT::default()
            }),
            ModelKind::GaKnn => Box::new(GaKnn {
                config: GaKnnConfig {
                    ga: GaConfig {
                        population: self.ga_population,
                        generations: self.ga_generations,
                        parallelism: Parallelism::Sequential,
                        ..GaConfig::default_seeded(0)
                    },
                    ..GaKnnConfig::default()
                },
            }),
        }
    }
}

/// Per-worker model scratch: each predictor kind is built once per worker
/// per batch and reused across the requests that worker serves. Models
/// are immutable configuration holders, so the cache can never leak state
/// between requests — it only saves reconstruction.
#[derive(Default)]
struct ModelCache {
    models: [Option<Box<dyn Predictor + Send + Sync>>; 3],
}

impl ModelCache {
    /// The worker's predictor for `kind`, built on first use.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invariant`] if the slot is somehow still
    /// empty after the fill — a cache-logic bug that must degrade the one
    /// request, not panic the serving process.
    fn get(
        &mut self,
        kind: ModelKind,
        config: &ServeConfig,
    ) -> std::result::Result<&dyn Predictor, ServeError> {
        let slot = match kind {
            ModelKind::NnT => 0,
            ModelKind::MlpT => 1,
            ModelKind::GaKnn => 2,
        };
        if self.models[slot].is_none() {
            self.models[slot] = Some(config.build_model(kind));
        }
        self.models[slot]
            .as_deref()
            .map(|model| model as &dyn Predictor)
            .ok_or(ServeError::Invariant {
                what: "model cache slot empty after fill",
            })
    }
}

/// Validates everything about a request that could otherwise panic or
/// poison evaluation, so `serve_with` runs on vetted inputs only.
fn validate_request<D: DatabaseView + ?Sized>(
    view: &D,
    request: &RankRequest,
) -> std::result::Result<(), ServeError> {
    if let AppOfInterest::Suite(row) = request.app {
        if row >= view.n_benchmarks() {
            return Err(ServeError::UnknownBenchmark {
                index: row,
                bound: view.n_benchmarks(),
            });
        }
    }
    if request.predictive.is_empty() {
        return Err(ServeError::EmptyPredictiveSet);
    }
    let bound = view.n_machines();
    if let Some(&m) = request.predictive.iter().find(|&&m| m >= bound) {
        return Err(ServeError::PredictiveOutOfRange { index: m, bound });
    }
    if request.top_k == Some(0) {
        return Err(ServeError::ZeroTopK);
    }
    match request.restrict.validate(view) {
        Ok(()) => {}
        Err(DatasetError::IndexOutOfBounds { what, index, bound }) => {
            return Err(ServeError::InvalidRestriction { what, index, bound });
        }
        Err(other) => return Err(ServeError::Evaluation(CoreError::Dataset(other))),
    }
    if let Some(confidence) = &request.confidence {
        confidence.validate()?;
    }
    if let Some(approx) = &request.approx {
        approx.validate(view.n_benchmarks(), view.n_machines())?;
    }
    Ok(())
}

/// Builds the coarse prediction task: the request's real predictive side,
/// but the target side replaced by the reconstructed centroid columns of
/// `bucket_ids` — one synthetic "machine" per candidate bucket. Row
/// selection mirrors the exact task exactly (leave-one-out drops the app
/// row; an external app trains on the full suite).
fn coarse_task<D: DatabaseView + ?Sized>(
    view: &D,
    request: &RankRequest,
    index: &BucketIndex,
    bucket_ids: &[usize],
) -> std::result::Result<PredictionTask, ServeError> {
    let train_benchmarks: Vec<usize> = match &request.app {
        AppOfInterest::Suite(app) => (0..view.n_benchmarks()).filter(|b| b != app).collect(),
        AppOfInterest::External(_) => (0..view.n_benchmarks()).collect(),
    };
    let train_predictive = view.gather(&train_benchmarks, &request.predictive);
    let train_target = Matrix::from_fn(train_benchmarks.len(), bucket_ids.len(), |i, j| {
        index.centroid_column(bucket_ids[j])[train_benchmarks[i]]
    });
    let app_predictive: Vec<f64> = match &request.app {
        AppOfInterest::Suite(app) => request
            .predictive
            .iter()
            .map(|&m| view.score(*app, m))
            .collect(),
        AppOfInterest::External(app) => request
            .predictive
            .iter()
            .map(|&m| spec_ratio(&view.machines()[m].micro, app))
            .collect(),
    };
    let train_characteristics = crate::task::characteristics_matrix(view, &train_benchmarks);
    let app_characteristics = match &request.app {
        AppOfInterest::Suite(app) => view.benchmarks()[*app].characteristics.to_mica_vector(),
        AppOfInterest::External(app) => app.to_mica_vector(),
    };
    let task = PredictionTask {
        train_predictive,
        train_target,
        app_predictive,
        train_characteristics,
        app_characteristics,
        seed: request.seed,
    };
    task.validate()?;
    Ok(task)
}

/// The approximate fast path: coarse-rank the candidate buckets by
/// centroid score with the request's own model, keep the top
/// `probe_buckets`, and return the surviving candidates (in planned
/// order) plus the annex. Returns the full candidate set untouched when
/// the request carries no [`ApproxConfig`].
fn approx_filter<D: DatabaseView + ?Sized>(
    view: &D,
    request: &RankRequest,
    config: &ServeConfig,
    cache: &mut ModelCache,
    targets: Vec<usize>,
) -> std::result::Result<(Vec<usize>, Option<ApproxReport>), ServeError> {
    let Some(approx) = &request.approx else {
        return Ok((targets, None));
    };
    let index = view
        .bucket_index(approx.n_components, approx.n_buckets)
        .map_err(|e| ServeError::Evaluation(CoreError::Dataset(e)))?;
    if index.n_machines() != view.n_machines() || index.catalog_version() != view.catalog_version()
    {
        return Err(ServeError::Invariant {
            what: "bucket index covers a different catalog than the view",
        });
    }
    // Candidate buckets: every bucket holding at least one target,
    // ascending bucket id.
    let mut bucket_ids: Vec<usize> = targets.iter().map(|&m| index.bucket_of(m)).collect();
    bucket_ids.sort_unstable();
    bucket_ids.dedup();
    let buckets_total = bucket_ids.len();
    if buckets_total <= approx.probe_buckets {
        // Nothing can be pruned: provably the exact ranking.
        return Ok((
            targets,
            Some(ApproxReport {
                buckets_total,
                buckets_probed: buckets_total,
                short_circuited: 0,
            }),
        ));
    }
    let coarse = coarse_task(view, request, &index, &bucket_ids)?;
    let scores = {
        let model = cache.get(request.model, config)?;
        model.predict(&coarse)?
    };
    // Best-scoring buckets first; ties (and any non-finite score, via the
    // IEEE total order) break toward the lower bucket id, so the ranking
    // is a pure function of the scores.
    let mut order: Vec<usize> = (0..buckets_total).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .total_cmp(&scores[a])
            .then_with(|| bucket_ids[a].cmp(&bucket_ids[b]))
    });
    let mut keep: Vec<usize> = order[..approx.probe_buckets]
        .iter()
        .map(|&pos| bucket_ids[pos])
        .collect();
    keep.sort_unstable();
    let before = targets.len();
    let survivors: Vec<usize> = targets
        .into_iter()
        .filter(|&m| keep.binary_search(&index.bucket_of(m)).is_ok())
        .collect();
    let report = ApproxReport {
        buckets_total,
        buckets_probed: approx.probe_buckets,
        short_circuited: before - survivors.len(),
    };
    Ok((survivors, Some(report)))
}

/// Computes the rank-confidence annex: synthesize `repeats` noisy
/// measurements of each candidate's predicted score from per-machine
/// streams derived from the request seed, bootstrap score/rank intervals,
/// and map the position-space result back to machine indices.
///
/// Runs sequentially inside the request — the batch fan-out owns the
/// cores — and depends only on `(request, predicted scores, target
/// machine indices)`, so the annex inherits every determinism property of
/// the ranking itself.
fn confidence_report(
    request: &RankRequest,
    confidence: &ConfidenceConfig,
    targets: &[usize],
    predicted: &[f64],
    order: &[usize],
    k: usize,
) -> std::result::Result<RankConfidenceReport, ServeError> {
    let noise = NoiseConfig {
        seed: request.seed ^ CONFIDENCE_NOISE_SEED,
        sigma: confidence.sigma,
        repeats: confidence.repeats,
    };
    let samples: Vec<Vec<f64>> = targets
        .iter()
        .zip(predicted)
        .map(|(&machine, &score)| noise.measure(score, 0, machine))
        .collect();
    let rc = bootstrap_rank_confidence(
        &samples,
        confidence.resamples,
        confidence.level,
        request.seed ^ CONFIDENCE_BOOTSTRAP_SEED,
        Parallelism::Sequential,
    )
    .map_err(|e| ServeError::Evaluation(CoreError::Stats(e)))?;
    let ranked = order[..k]
        .iter()
        .map(|&pos| {
            let item = &rc.items[pos];
            MachineRankCi {
                machine: targets[pos],
                rank: item.rank,
                rank_lower: item.rank_lower,
                rank_upper: item.rank_upper,
                score_lower: item.score_lower,
                score_upper: item.score_upper,
                tie_group: rc.ties.group_of[pos],
            }
        })
        .collect();
    let tie_groups = rc
        .ties
        .groups
        .iter()
        .map(|group| group.iter().map(|&pos| targets[pos]).collect())
        .collect();
    Ok(RankConfidenceReport {
        level: confidence.level,
        ranked,
        tie_groups,
    })
}

/// Serves one request against a view, using (and filling) the worker's
/// model cache.
fn serve_with<D: DatabaseView + ?Sized>(
    view: &D,
    request: &RankRequest,
    config: &ServeConfig,
    cache: &mut ModelCache,
) -> std::result::Result<RankResponse, ServeError> {
    validate_request(view, request)?;
    let plan = view.plan_machines(&request.restrict);
    let targets: Vec<usize> = plan
        .machines
        .iter()
        .copied()
        .filter(|m| !request.predictive.contains(m))
        .collect();
    if targets.is_empty() {
        return Err(ServeError::EmptyCandidates);
    }
    let (targets, approx) = approx_filter(view, request, config, cache, targets)?;
    if targets.is_empty() {
        // Unreachable by construction (the kept buckets each hold at
        // least one target), but a typed error beats an empty ranking.
        return Err(ServeError::EmptyCandidates);
    }
    let task = match &request.app {
        AppOfInterest::Suite(app) => {
            PredictionTask::leave_one_out(view, *app, &request.predictive, &targets, request.seed)?
        }
        AppOfInterest::External(app) => {
            PredictionTask::external_app(view, app, &request.predictive, &targets, request.seed)?
        }
    };
    let model = cache.get(request.model, config)?;
    let predicted = model.predict(&task)?;
    let ranking = Ranking::from_scores(&predicted)?;
    let k = request.top_k.unwrap_or(targets.len()).min(targets.len());
    let confidence = match &request.confidence {
        None => None,
        Some(cfg) => Some(confidence_report(
            request,
            cfg,
            &targets,
            &predicted,
            ranking.order(),
            k,
        )?),
    };
    let ranked = ranking.order()[..k]
        .iter()
        .map(|&pos| RankedMachine {
            machine: targets[pos],
            predicted_score: predicted[pos],
        })
        .collect();
    Ok(RankResponse {
        method: model.name(),
        ranked,
        candidates: targets.len(),
        shards_scanned: plan.shards_scanned,
        shards_pruned: plan.shards_pruned,
        confidence,
        approx,
    })
}

/// Serves one request (validate → plan → gather → predict → rank).
///
/// # Errors
///
/// Returns a typed [`ServeError`]: a validation variant when the request
/// is malformed (unknown benchmark, empty or out-of-range predictive set,
/// out-of-range restriction, empty candidate set, invalid confidence
/// parameters), or [`ServeError::Evaluation`] when task construction or
/// the model itself fails.
pub fn serve_one<D: DatabaseView + ?Sized>(
    db: &D,
    request: &RankRequest,
    config: &ServeConfig,
) -> std::result::Result<RankResponse, ServeError> {
    serve_with(db, request, config, &mut ModelCache::default())
}

/// Serves a batch of requests in one pass over the persistent worker
/// pool, returning one `Result` per request in request order.
///
/// **Fault-isolated**: each request validates and evaluates into its own
/// slot, so a malformed request yields a typed [`ServeError`] in its slot
/// while every other slot carries its correct response — one bad request
/// can neither poison nor panic the batch, on either backing at any
/// thread count.
///
/// Each worker reads the shared view and keeps a model cache as scratch.
/// An approx request takes its bucket index from
/// [`DatabaseView::bucket_index`] on its own worker, so the first request
/// after a write builds the index while the other workers serve. The index
/// is a pure function of the catalog bytes, and requests are otherwise
/// independent, so the result vector is bitwise-identical at any thread
/// count and under any batch permutation (permuting requests permutes
/// results identically).
pub fn serve_batch<D: DatabaseView + ?Sized>(
    db: &D,
    requests: &[RankRequest],
    config: &ServeConfig,
) -> Vec<std::result::Result<RankResponse, ServeError>> {
    config
        .parallelism
        .par_map_with(2, requests, ModelCache::default, |cache, request| {
            serve_with(db, request, config, cache)
        })
}

/// The answer to one cached batch: per-request results in request order
/// plus what the cache did for this batch.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedBatch {
    /// Per-request results, in request order (fault-isolated exactly like
    /// [`serve_batch`]).
    pub responses: Vec<std::result::Result<RankResponse, ServeError>>,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that fell through to evaluation (successful or not —
    /// failed slots are never inserted, so they miss again next batch).
    pub misses: u64,
    /// Entries dropped because the catalog version moved since the cache
    /// last served.
    pub invalidations: u64,
}

/// Serves a batch through a [`ResultCache`]: syncs the cache with the
/// view's catalog version (dropping stale entries), answers hits from the
/// cache, and evaluates the remaining misses through [`serve_batch`] —
/// the same pooled path a cold batch takes — inserting each fresh
/// response before returning.
///
/// A hit is **bitwise-identical** to evaluating the request cold:
/// responses are stored verbatim, and every response is a deterministic
/// function of `(request, catalog)` alone — independent of thread count,
/// backing, and batch composition. Duplicate requests that miss within
/// one batch are each evaluated (they produce identical responses, so the
/// last insert wins and nothing changes); the first hit is only possible
/// on the *next* batch.
///
/// Fault isolation matches [`serve_batch`]: a malformed request occupies
/// its slot with a typed [`ServeError`], counts as a miss, and is never
/// inserted into the cache, so errors cannot displace resident responses.
pub fn serve_batch_cached<D: DatabaseView + ?Sized>(
    db: &D,
    requests: &[RankRequest],
    config: &ServeConfig,
    cache: &mut ResultCache,
) -> CachedBatch {
    let invalidations = cache.sync_version(db.catalog_version());
    let fingerprints: Vec<RequestFingerprint> =
        requests.iter().map(RequestFingerprint::of).collect();
    let mut slots: Vec<Option<std::result::Result<RankResponse, ServeError>>> =
        Vec::with_capacity(requests.len());
    let mut miss_indices = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let cached = cache.lookup(fingerprints[i], request);
        if cached.is_none() {
            miss_indices.push(i);
        }
        slots.push(cached.map(Ok));
    }
    let hits = (requests.len() - miss_indices.len()) as u64;
    let misses = miss_indices.len() as u64;
    let miss_requests: Vec<RankRequest> =
        miss_indices.iter().map(|&i| requests[i].clone()).collect();
    let fresh = serve_batch(db, &miss_requests, config);
    for (&i, result) in miss_indices.iter().zip(fresh) {
        if let Ok(response) = &result {
            cache.insert(fingerprints[i], &requests[i], response);
        }
        slots[i] = Some(result);
    }
    CachedBatch {
        // Every slot is a hit or a filled miss; if the bookkeeping ever
        // slips, the slot degrades to a typed invariant error instead of
        // panicking the listener process serving the batch.
        responses: slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or(Err(ServeError::Invariant {
                    what: "batch slot neither cache hit nor filled miss",
                }))
            })
            .collect(),
        hits,
        misses,
        invalidations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use datatrans_dataset::generator::{generate, DatasetConfig};
    use datatrans_dataset::machine::ProcessorFamily;
    use datatrans_dataset::sharded::ShardedPerfDatabase;
    use datatrans_dataset::workload_synth::{synthesize, WorkloadProfile};

    fn quick() -> ServeConfig {
        ServeConfig {
            parallelism: Parallelism::Sequential,
            ..ServeConfig::quick()
        }
    }

    #[test]
    fn model_kind_names_match_predictors() {
        let config = ServeConfig::quick();
        for kind in ModelKind::ALL {
            assert_eq!(kind.name(), config.build_model(kind).name());
        }
    }

    #[test]
    fn serves_a_family_restricted_suite_request() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            app: AppOfInterest::Suite(0),
            model: ModelKind::NnT,
            predictive: vec![0, 30, 60],
            restrict: MachineFilter::family(ProcessorFamily::Xeon),
            top_k: Some(5),
            seed: 7,
            confidence: None,
            approx: None,
        };
        let response = serve_one(&db, &request, &quick()).unwrap();
        assert_eq!(response.method, "NN^T");
        assert_eq!(response.ranked.len(), 5);
        assert_eq!(response.candidates, 39);
        let xeons = db.machines_in_family(ProcessorFamily::Xeon);
        for r in &response.ranked {
            assert!(xeons.contains(&r.machine));
            assert!(r.predicted_score.is_finite());
        }
        for w in response.ranked.windows(2) {
            assert!(w[0].predicted_score >= w[1].predicted_score);
        }
    }

    #[test]
    fn predictive_machines_are_excluded_from_candidates() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let xeons = db.machines_in_family(ProcessorFamily::Xeon);
        let request = RankRequest {
            app: AppOfInterest::Suite(2),
            model: ModelKind::NnT,
            predictive: vec![xeons[0], xeons[1], 0],
            restrict: MachineFilter::family(ProcessorFamily::Xeon),
            top_k: None,
            seed: 1,
            confidence: None,
            approx: None,
        };
        let response = serve_one(&db, &request, &quick()).unwrap();
        assert_eq!(response.candidates, xeons.len() - 2);
        for r in &response.ranked {
            assert!(!request.predictive.contains(&r.machine));
        }
    }

    #[test]
    fn external_app_request_ranks_candidates() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            app: AppOfInterest::External(synthesize(WorkloadProfile::Scientific, 3)),
            model: ModelKind::MlpT,
            predictive: vec![5, 40, 80],
            restrict: MachineFilter::years(2008, 2009),
            top_k: Some(3),
            seed: 9,
            confidence: None,
            approx: None,
        };
        let response = serve_one(&db, &request, &quick()).unwrap();
        assert_eq!(response.method, "MLP^T");
        assert_eq!(response.ranked.len(), 3);
        for r in &response.ranked {
            let year = db.machines()[r.machine].year;
            assert!((2008..=2009).contains(&year));
        }
    }

    fn base_request() -> RankRequest {
        RankRequest {
            app: AppOfInterest::Suite(0),
            model: ModelKind::NnT,
            predictive: vec![0],
            restrict: MachineFilter::all(),
            top_k: None,
            seed: 0,
            confidence: None,
            approx: None,
        }
    }

    #[test]
    fn empty_candidate_set_is_a_typed_error() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            restrict: MachineFilter::years(1980, 1981),
            ..base_request()
        };
        assert_eq!(
            serve_one(&db, &request, &quick()),
            Err(ServeError::EmptyCandidates)
        );
    }

    #[test]
    fn unknown_benchmark_is_a_typed_error() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            app: AppOfInterest::Suite(29),
            ..base_request()
        };
        assert_eq!(
            serve_one(&db, &request, &quick()),
            Err(ServeError::UnknownBenchmark {
                index: 29,
                bound: 29
            })
        );
    }

    #[test]
    fn empty_predictive_set_is_a_typed_error() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            predictive: vec![],
            ..base_request()
        };
        assert_eq!(
            serve_one(&db, &request, &quick()),
            Err(ServeError::EmptyPredictiveSet)
        );
    }

    #[test]
    fn out_of_range_predictive_machine_is_a_typed_error() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            predictive: vec![0, 117],
            ..base_request()
        };
        assert_eq!(
            serve_one(&db, &request, &quick()),
            Err(ServeError::PredictiveOutOfRange {
                index: 117,
                bound: 117
            })
        );
    }

    #[test]
    fn invalid_restriction_index_is_a_typed_error() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            restrict: MachineFilter::all().with_min_score(999, 1.0),
            ..base_request()
        };
        assert_eq!(
            serve_one(&db, &request, &quick()),
            Err(ServeError::InvalidRestriction {
                what: "min_score benchmark",
                index: 999,
                bound: 29
            })
        );
        let request = RankRequest {
            restrict: MachineFilter::all().with_subset(vec![5, 400]),
            ..base_request()
        };
        assert_eq!(
            serve_one(&db, &request, &quick()),
            Err(ServeError::InvalidRestriction {
                what: "subset machine",
                index: 400,
                bound: 117
            })
        );
    }

    #[test]
    fn invalid_confidence_is_a_typed_error() {
        let db = generate(&DatasetConfig::default()).unwrap();
        for (confidence, name) in [
            (
                ConfidenceConfig {
                    level: 1.0,
                    ..ConfidenceConfig::default()
                },
                "level",
            ),
            (
                ConfidenceConfig {
                    sigma: 0.9,
                    ..ConfidenceConfig::default()
                },
                "sigma",
            ),
            (
                ConfidenceConfig {
                    repeats: 0,
                    ..ConfidenceConfig::default()
                },
                "repeats",
            ),
            (
                ConfidenceConfig {
                    resamples: 0,
                    ..ConfidenceConfig::default()
                },
                "resamples",
            ),
        ] {
            let request = RankRequest {
                confidence: Some(confidence),
                ..base_request()
            };
            match serve_one(&db, &request, &quick()) {
                Err(ServeError::InvalidConfidence { name: got, .. }) => assert_eq!(got, name),
                other => panic!("expected InvalidConfidence for {name}, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_responses_are_in_request_order_and_match_serve_one() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let requests: Vec<RankRequest> = [
            ProcessorFamily::Xeon,
            ProcessorFamily::Phenom,
            ProcessorFamily::Itanium,
        ]
        .iter()
        .enumerate()
        .map(|(i, &family)| RankRequest {
            app: AppOfInterest::Suite(i),
            model: ModelKind::NnT,
            predictive: vec![0, 30, 60],
            restrict: MachineFilter::family(family),
            top_k: Some(4),
            seed: i as u64,
            confidence: None,
            approx: None,
        })
        .collect();
        let batch = serve_batch(&db, &requests, &quick());
        assert_eq!(batch.len(), requests.len());
        for (request, result) in requests.iter().zip(&batch) {
            let response = result.as_ref().unwrap();
            assert_eq!(response, &serve_one(&db, request, &quick()).unwrap());
        }
    }

    #[test]
    fn sharded_responses_report_pruning() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let sharded = ShardedPerfDatabase::from_dense(&db, 8).unwrap();
        let request = RankRequest {
            app: AppOfInterest::Suite(0),
            model: ModelKind::NnT,
            predictive: vec![0, 30, 60],
            restrict: MachineFilter::family(ProcessorFamily::Xeon),
            top_k: Some(5),
            seed: 7,
            confidence: None,
            approx: None,
        };
        let dense_response = serve_one(&db, &request, &quick()).unwrap();
        let sharded_response = serve_one(&sharded, &request, &quick()).unwrap();
        assert_eq!(dense_response.ranked, sharded_response.ranked);
        assert_eq!(dense_response.shards_pruned, 0);
        assert!(sharded_response.shards_pruned > 0);
        assert_eq!(
            sharded_response.shards_scanned + sharded_response.shards_pruned,
            8
        );
    }

    #[test]
    fn cached_batch_hits_are_bitwise_identical_to_cold() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let requests: Vec<RankRequest> = (0..3)
            .map(|i| RankRequest {
                app: AppOfInterest::Suite(i),
                model: ModelKind::NnT,
                predictive: vec![0, 30, 60],
                restrict: MachineFilter::all(),
                top_k: Some(4),
                seed: i as u64,
                confidence: None,
                approx: None,
            })
            .collect();
        let cold = serve_batch(&db, &requests, &quick());
        let mut cache = crate::cache::ResultCache::new(8);
        let first = serve_batch_cached(&db, &requests, &quick(), &mut cache);
        assert_eq!(first.responses, cold);
        assert_eq!((first.hits, first.misses), (0, 3));
        let second = serve_batch_cached(&db, &requests, &quick(), &mut cache);
        assert_eq!(second.responses, cold);
        assert_eq!((second.hits, second.misses), (3, 0));
        for (a, b) in cold.iter().zip(&second.responses) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            for (x, y) in a.ranked.iter().zip(&b.ranked) {
                assert_eq!(x.predicted_score.to_bits(), y.predicted_score.to_bits());
            }
        }
    }

    #[test]
    fn cached_batch_invalidates_on_catalog_version_move() {
        use datatrans_dataset::generator::synthesize_ingest;
        let mut db = generate(&DatasetConfig::default()).unwrap();
        let requests = vec![RankRequest {
            app: AppOfInterest::Suite(0),
            model: ModelKind::NnT,
            predictive: vec![0, 30, 60],
            restrict: MachineFilter::all(),
            top_k: Some(4),
            seed: 1,
            confidence: None,
            approx: None,
        }];
        let mut cache = crate::cache::ResultCache::new(8);
        serve_batch_cached(&db, &requests, &quick(), &mut cache);
        let batch = synthesize_ingest(3, db.benchmarks(), 2, 0.015).unwrap();
        db.push_machines(&batch).unwrap();
        let after = serve_batch_cached(&db, &requests, &quick(), &mut cache);
        assert_eq!((after.hits, after.misses, after.invalidations), (0, 1, 1));
        // The unrestricted candidate set grew with the catalog.
        assert_eq!(after.responses[0].as_ref().unwrap().candidates, 117 + 2 - 3);
    }

    #[test]
    fn cached_batch_never_caches_errors() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let good = RankRequest {
            predictive: vec![0, 30],
            top_k: Some(2),
            ..base_request()
        };
        let bad = RankRequest {
            app: AppOfInterest::Suite(999),
            ..good.clone()
        };
        let requests = vec![good.clone(), bad.clone()];
        let mut cache = crate::cache::ResultCache::new(8);
        let first = serve_batch_cached(&db, &requests, &quick(), &mut cache);
        assert_eq!((first.hits, first.misses), (0, 2));
        assert!(first.responses[0].is_ok());
        assert!(matches!(
            first.responses[1],
            Err(ServeError::UnknownBenchmark { .. })
        ));
        // The good slot hits on re-serve; the bad one misses again
        // (errors are never inserted) and fails identically.
        let second = serve_batch_cached(&db, &requests, &quick(), &mut cache);
        assert_eq!((second.hits, second.misses), (1, 1));
        assert_eq!(second.responses, first.responses);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_top_k_is_a_typed_error() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            top_k: Some(0),
            ..base_request()
        };
        assert_eq!(
            serve_one(&db, &request, &quick()),
            Err(ServeError::ZeroTopK)
        );
        // Some(1) and None still serve.
        for top_k in [Some(1), None] {
            let request = RankRequest {
                top_k,
                ..base_request()
            };
            assert!(serve_one(&db, &request, &quick()).is_ok());
        }
    }

    #[test]
    fn cached_batch_isolates_mixed_hit_miss_and_error_slots() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let warm = RankRequest {
            predictive: vec![0, 30],
            top_k: Some(2),
            ..base_request()
        };
        let cold = RankRequest {
            app: AppOfInterest::Suite(1),
            ..warm.clone()
        };
        let bad = RankRequest {
            top_k: Some(0),
            ..warm.clone()
        };
        let mut cache = crate::cache::ResultCache::new(8);
        serve_batch_cached(&db, std::slice::from_ref(&warm), &quick(), &mut cache);
        // One resident hit, one fresh miss, one typed error — all in one
        // batch through the cached path, each in its own slot.
        let mixed = serve_batch_cached(
            &db,
            &[warm.clone(), cold.clone(), bad],
            &quick(),
            &mut cache,
        );
        assert_eq!((mixed.hits, mixed.misses), (1, 2));
        assert_eq!(
            mixed.responses[0].as_ref().unwrap(),
            &serve_one(&db, &warm, &quick()).unwrap()
        );
        assert_eq!(
            mixed.responses[1].as_ref().unwrap(),
            &serve_one(&db, &cold, &quick()).unwrap()
        );
        assert_eq!(mixed.responses[2], Err(ServeError::ZeroTopK));
        // The error slot was never inserted: warm + cold are resident.
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn batch_isolates_malformed_requests_per_slot() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let good = RankRequest {
            predictive: vec![0, 30],
            top_k: Some(1),
            ..base_request()
        };
        let bad = RankRequest {
            restrict: MachineFilter::years(1980, 1981),
            ..good.clone()
        };
        let results = serve_batch(&db, &[good.clone(), bad, good.clone()], &quick());
        assert_eq!(results.len(), 3);
        assert_eq!(results[1], Err(ServeError::EmptyCandidates));
        let solo = serve_one(&db, &good, &quick()).unwrap();
        assert_eq!(results[0].as_ref().unwrap(), &solo);
        assert_eq!(results[2].as_ref().unwrap(), &solo);
    }

    #[test]
    fn confidence_annex_is_present_and_aligned() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            predictive: vec![0, 30, 60],
            restrict: MachineFilter::family(ProcessorFamily::Xeon),
            top_k: Some(5),
            seed: 7,
            confidence: Some(ConfidenceConfig {
                resamples: 60,
                ..ConfidenceConfig::default()
            }),
            ..base_request()
        };
        let response = serve_one(&db, &request, &quick()).unwrap();
        let annex = response.confidence.as_ref().expect("annex requested");
        assert_eq!(annex.level, 0.95);
        assert_eq!(annex.ranked.len(), response.ranked.len());
        for (slot, ci) in response.ranked.iter().zip(&annex.ranked) {
            assert_eq!(slot.machine, ci.machine);
            assert!(ci.rank_lower <= ci.rank && ci.rank <= ci.rank_upper);
            assert!(ci.rank_lower >= 1.0);
            assert!(ci.rank_upper <= response.candidates as f64);
            assert!(ci.score_lower <= ci.score_upper);
            assert!(ci.tie_group < annex.tie_groups.len());
        }
        // Tie groups partition the full candidate set.
        let total: usize = annex.tie_groups.iter().map(Vec::len).sum();
        assert_eq!(total, response.candidates);
        // The same request without confidence yields the same ranking,
        // bitwise, with no annex.
        let plain = serve_one(
            &db,
            &RankRequest {
                confidence: None,
                approx: None,
                ..request.clone()
            },
            &quick(),
        )
        .unwrap();
        assert!(plain.confidence.is_none());
        assert_eq!(plain.ranked, response.ranked);
    }

    #[test]
    fn confidence_annex_is_deterministic() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let request = RankRequest {
            predictive: vec![0, 30, 60],
            top_k: Some(8),
            seed: 11,
            confidence: Some(ConfidenceConfig {
                resamples: 50,
                ..ConfidenceConfig::default()
            }),
            ..base_request()
        };
        let a = serve_one(&db, &request, &quick()).unwrap();
        let b = serve_one(&db, &request, &quick()).unwrap();
        assert_eq!(a, b);
        // A different request seed moves the annex (different noise draws).
        let c = serve_one(
            &db,
            &RankRequest {
                seed: 12,
                ..request.clone()
            },
            &quick(),
        )
        .unwrap();
        assert_ne!(
            a.confidence.as_ref().unwrap().ranked,
            c.confidence.as_ref().unwrap().ranked
        );
    }

    #[test]
    fn invalid_approx_is_a_typed_error() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let reference = ApproxConfig {
            n_components: 2,
            n_buckets: 8,
            probe_buckets: 3,
        };
        for (approx, name) in [
            (
                ApproxConfig {
                    n_components: 0,
                    ..reference
                },
                "n_components",
            ),
            (
                ApproxConfig {
                    n_components: 30,
                    ..reference
                },
                "n_components",
            ),
            (
                ApproxConfig {
                    n_buckets: 0,
                    probe_buckets: 0,
                    ..reference
                },
                "n_buckets",
            ),
            (
                // One past the catalog's machine count.
                ApproxConfig {
                    n_buckets: db.n_machines() + 1,
                    ..reference
                },
                "n_buckets",
            ),
            (
                ApproxConfig {
                    probe_buckets: 0,
                    ..reference
                },
                "probe_buckets",
            ),
            (
                ApproxConfig {
                    probe_buckets: 9,
                    ..reference
                },
                "probe_buckets",
            ),
        ] {
            let request = RankRequest {
                approx: Some(approx),
                ..base_request()
            };
            match serve_one(&db, &request, &quick()) {
                Err(ServeError::InvalidApprox { name: got, .. }) => assert_eq!(got, name),
                other => panic!("expected InvalidApprox for {name}, got {other:?}"),
            }
        }
    }

    #[test]
    fn approx_prunes_and_survivor_scores_match_exact_bits() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let exact = RankRequest {
            predictive: vec![0, 30, 60],
            ..base_request()
        };
        let approximate = RankRequest {
            approx: Some(ApproxConfig {
                n_components: 2,
                n_buckets: 8,
                probe_buckets: 2,
            }),
            ..exact.clone()
        };
        let exact_response = serve_one(&db, &exact, &quick()).unwrap();
        assert!(exact_response.approx.is_none());
        let approx_response = serve_one(&db, &approximate, &quick()).unwrap();
        let report = approx_response.approx.expect("annex requested");
        assert!(report.buckets_probed < report.buckets_total);
        assert!(report.short_circuited > 0);
        assert_eq!(
            approx_response.candidates + report.short_circuited,
            exact_response.candidates
        );
        // Survivor scores are bitwise the exact path's scores for the same
        // machines: the models predict each target column independently.
        let exact_scores: HashMap<usize, u64> = exact_response
            .ranked
            .iter()
            .map(|r| (r.machine, r.predicted_score.to_bits()))
            .collect();
        for r in &approx_response.ranked {
            assert_eq!(
                exact_scores[&r.machine],
                r.predicted_score.to_bits(),
                "machine {}",
                r.machine
            );
        }
        // Survivors rank in the same relative order as under exact serving.
        let approx_machines: Vec<usize> =
            approx_response.ranked.iter().map(|r| r.machine).collect();
        let exact_filtered: Vec<usize> = exact_response
            .ranked
            .iter()
            .map(|r| r.machine)
            .filter(|m| approx_machines.contains(m))
            .collect();
        assert_eq!(approx_machines, exact_filtered);
    }

    #[test]
    fn probing_every_bucket_is_provably_exact() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let exact = RankRequest {
            predictive: vec![0, 30, 60],
            top_k: Some(10),
            ..base_request()
        };
        let approximate = RankRequest {
            approx: Some(ApproxConfig {
                n_components: 2,
                n_buckets: 6,
                probe_buckets: 6,
            }),
            ..exact.clone()
        };
        let exact_response = serve_one(&db, &exact, &quick()).unwrap();
        let approx_response = serve_one(&db, &approximate, &quick()).unwrap();
        let report = approx_response.approx.expect("annex requested");
        assert_eq!(report.short_circuited, 0);
        assert_eq!(report.buckets_probed, report.buckets_total);
        assert_eq!(approx_response.ranked, exact_response.ranked);
        for (a, e) in approx_response.ranked.iter().zip(&exact_response.ranked) {
            assert_eq!(a.predicted_score.to_bits(), e.predicted_score.to_bits());
        }
    }

    #[test]
    fn approx_is_bitwise_identical_across_backings_and_batch_order() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let sharded = ShardedPerfDatabase::from_dense(&db, 8).unwrap();
        let requests: Vec<RankRequest> = (0..3)
            .map(|i| RankRequest {
                app: AppOfInterest::Suite(i),
                predictive: vec![0, 30, 60],
                seed: i as u64,
                approx: Some(ApproxConfig {
                    n_components: 2,
                    n_buckets: 8,
                    probe_buckets: 2,
                }),
                ..base_request()
            })
            .collect();
        let dense = serve_batch(&db, &requests, &quick());
        let reversed: Vec<RankRequest> = requests.iter().rev().cloned().collect();
        let on_sharded = serve_batch(&sharded, &reversed, &quick());
        for (i, result) in dense.iter().enumerate() {
            let a = result.as_ref().unwrap();
            let b = on_sharded[requests.len() - 1 - i].as_ref().unwrap();
            assert_eq!(a.ranked, b.ranked);
            assert_eq!(a.approx, b.approx);
            for (x, y) in a.ranked.iter().zip(&b.ranked) {
                assert_eq!(x.predicted_score.to_bits(), y.predicted_score.to_bits());
            }
        }
    }
}
