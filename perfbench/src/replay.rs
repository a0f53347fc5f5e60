//! The traced replay: a replica of the serving pipeline built from each
//! layer's public functions, timed from outside around every call.
//!
//! For every request of a workload's stream the replica runs
//! parse → fingerprint → lookup → plan → bucket build → coarse rank →
//! gather → task build → predict → rank → confidence → render, recording
//! one span per call (stage, request id, start, end) in memory. The
//! engine then serves the same request through `serve_one` and, batch by
//! batch, through `serve_batch_cached`; the run fails unless all three
//! render the same bytes, so the replica cannot drift from the engine.
//! Self times come from the spans (a span's duration minus what its
//! children cover); the spans are written to `.bench_out/` at exit.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use datatrans_core::cache::ResultCache;
use datatrans_core::fingerprint::RequestFingerprint;
use datatrans_core::model::{GaKnn, GaKnnConfig, MlpT, NnT, Predictor};
use datatrans_core::ranking::Ranking;
use datatrans_core::serve::{
    serve_batch_cached, serve_one, AppOfInterest, ApproxReport, MachineRankCi, ModelKind,
    RankConfidenceReport, RankRequest, RankResponse, RankedMachine, ServeConfig, ServeError,
};
use datatrans_core::task::PredictionTask;
use datatrans_core::CoreError;
use datatrans_dataset::bucket::BucketIndex;
use datatrans_dataset::characteristics::WorkloadCharacteristics;
use datatrans_dataset::generator::NoiseConfig;
use datatrans_dataset::perf_model::spec_ratio;
use datatrans_dataset::sharded::ShardedPerfDatabase;
use datatrans_dataset::view::DatabaseView;
use datatrans_linalg::Matrix;
use datatrans_ml::ga::GaConfig;
use datatrans_ml::mlp::MlpConfig;
use datatrans_parallel::Parallelism;
use datatrans_serve_net::protocol::{parse_line, render_result, write_request, Command};
use datatrans_serve_net::server::ServerStats;
use datatrans_stats::rank::bootstrap_rank_confidence;

use crate::report::Metric;
use crate::requests::{Class, IngestEpoch};
use crate::stats::Sample;
use crate::wire::mean_batch_len;

/// The engine's confidence noise-stream domain constant
/// (`CONFIDENCE_NOISE_SEED` in `crates/core/src/serve.rs`).
const CONFIDENCE_NOISE_SEED: u64 = 0xC01F_1DE5_CE5E_ED01;

/// The engine's confidence bootstrap domain constant
/// (`CONFIDENCE_BOOTSTRAP_SEED` in `crates/core/src/serve.rs`).
const CONFIDENCE_BOOTSTRAP_SEED: u64 = 0xC01F_1DE5_CE5E_ED02;

/// Requests per `serve_batch_cached` pass when replaying a wire stream.
const WIRE_PASS: usize = 8;

/// One traced call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Stage {
    Request,
    Parse,
    Fingerprint,
    Lookup,
    Plan,
    BucketBuild,
    CoarseRank,
    Gather,
    TaskBuild,
    PredictNnt,
    PredictMlpt,
    PredictGaknn,
    Rank,
    Bootstrap,
    Render,
    ServeOne,
    Pass,
    Push,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Parse => "parse",
            Stage::Fingerprint => "fingerprint",
            Stage::Lookup => "lookup",
            Stage::Plan => "plan",
            Stage::BucketBuild => "bucket_build",
            Stage::CoarseRank => "coarse_rank",
            Stage::Gather => "gather",
            Stage::TaskBuild => "task_build",
            Stage::PredictNnt => "predict_nnt",
            Stage::PredictMlpt => "predict_mlpt",
            Stage::PredictGaknn => "predict_gaknn",
            Stage::Rank => "rank",
            Stage::Bootstrap => "bootstrap",
            Stage::Render => "render",
            Stage::ServeOne => "serve_one",
            Stage::Pass => "pass",
            Stage::Push => "push",
        }
    }

    fn predict(model: ModelKind) -> Stage {
        match model {
            ModelKind::NnT => Stage::PredictNnt,
            ModelKind::MlpT => Stage::PredictMlpt,
            ModelKind::GaKnn => Stage::PredictGaknn,
        }
    }

    /// Stages `serve_one` also runs; the rest of its wall time (validate,
    /// approx coarse rank, glue) is untraced.
    fn inside_serve_one(self) -> bool {
        matches!(
            self,
            Stage::Plan
                | Stage::BucketBuild
                | Stage::TaskBuild
                | Stage::PredictNnt
                | Stage::PredictMlpt
                | Stage::PredictGaknn
                | Stage::Rank
                | Stage::Bootstrap
        )
    }
}

/// One span: a call's stage, the request (or pass) it served, and its
/// start and end in nanoseconds since the replay began.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    stage: Stage,
    start: u64,
    end: u64,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn close(&mut self, id: u32, stage: Stage, start: u64) {
        let end = self.now();
        self.spans.push(Span {
            id,
            stage,
            start,
            end,
        });
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover. Children are the spans of the same id nested
    /// inside it.
    fn self_times(&self) -> Vec<u64> {
        let mut by_id: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            by_id.entry(s.id).or_default().push(i);
        }
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for mut group in by_id.into_values() {
            group.sort_by_key(|&i| (self.spans[i].start, std::cmp::Reverse(self.spans[i].end)));
            let mut open: Vec<usize> = Vec::new();
            for i in group {
                let span = self.spans[i];
                while open.last().is_some_and(|&p| self.spans[p].end < span.end) {
                    open.pop();
                }
                if let Some(&parent) = open.last() {
                    self_ns[parent] = self_ns[parent].saturating_sub(span.end - span.start);
                }
                open.push(i);
            }
        }
        self_ns
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
struct Counters {
    targets: HashMap<Stage, (u64, u64)>,
    shards_scanned: u64,
    shards_pruned: u64,
    approx_candidates: u64,
    approx_survivors: u64,
    lookups: u64,
    hits: u64,
    response_bytes: u64,
    responses: u64,
    invalidations: u64,
}

/// The predictors at the budgets `ServeConfig` gives the engine.
struct Models {
    nnt: NnT,
    mlpt: MlpT,
    gaknn: GaKnn,
}

impl Models {
    fn new(config: &ServeConfig) -> Self {
        Models {
            nnt: NnT::default(),
            mlpt: MlpT {
                config: MlpConfig {
                    epochs: config.mlp_epochs,
                    ..MlpConfig::weka_default(0)
                },
                ..MlpT::default()
            },
            gaknn: GaKnn {
                config: GaKnnConfig {
                    ga: GaConfig {
                        population: config.ga_population,
                        generations: config.ga_generations,
                        parallelism: Parallelism::Sequential,
                        ..GaConfig::default_seeded(0)
                    },
                    ..GaKnnConfig::default()
                },
            },
        }
    }

    fn get(&self, kind: ModelKind) -> &dyn Predictor {
        match kind {
            ModelKind::NnT => &self.nnt,
            ModelKind::MlpT => &self.mlpt,
            ModelKind::GaKnn => &self.gaknn,
        }
    }
}

/// Training benchmarks of a request: the suite minus a leave-one-out app.
fn train_benchmarks<D: DatabaseView + ?Sized>(view: &D, app: &AppOfInterest) -> Vec<usize> {
    match app {
        AppOfInterest::Suite(a) => (0..view.n_benchmarks()).filter(|b| b != a).collect(),
        AppOfInterest::External(_) => (0..view.n_benchmarks()).collect(),
    }
}

/// The coarse ranking of the approx fast path: score each candidate
/// bucket's centroid column with the request's model and keep the
/// members of the best `probe_buckets`.
fn coarse_rank<D: DatabaseView + ?Sized>(
    view: &D,
    request: &RankRequest,
    model: &dyn Predictor,
    index: &BucketIndex,
    probe: usize,
    targets: Vec<usize>,
) -> Result<(Vec<usize>, ApproxReport), ServeError> {
    let mut bucket_ids: Vec<usize> = targets.iter().map(|&m| index.bucket_of(m)).collect();
    bucket_ids.sort_unstable();
    bucket_ids.dedup();
    let total = bucket_ids.len();
    if total <= probe {
        let report = ApproxReport {
            buckets_total: total,
            buckets_probed: total,
            short_circuited: 0,
        };
        return Ok((targets, report));
    }
    let train = train_benchmarks(view, &request.app);
    let (app_predictive, app_characteristics) = match &request.app {
        AppOfInterest::Suite(a) => (
            request
                .predictive
                .iter()
                .map(|&m| view.score(*a, m))
                .collect(),
            view.benchmarks()[*a].characteristics.to_mica_vector(),
        ),
        AppOfInterest::External(app) => (
            request
                .predictive
                .iter()
                .map(|&m| spec_ratio(&view.machines()[m].micro, app))
                .collect(),
            app.to_mica_vector(),
        ),
    };
    let task = PredictionTask {
        train_predictive: view.gather(&train, &request.predictive),
        train_target: Matrix::from_fn(train.len(), total, |i, j| {
            index.centroid_column(bucket_ids[j])[train[i]]
        }),
        app_predictive,
        train_characteristics: Matrix::from_fn(
            train.len(),
            WorkloadCharacteristics::MICA_DIMS,
            |i, j| view.benchmarks()[train[i]].characteristics.to_mica_vector()[j],
        ),
        app_characteristics,
        seed: request.seed,
    };
    task.validate()?;
    let scores = model.predict(&task)?;
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .total_cmp(&scores[a])
            .then_with(|| bucket_ids[a].cmp(&bucket_ids[b]))
    });
    let mut keep: Vec<usize> = order[..probe].iter().map(|&pos| bucket_ids[pos]).collect();
    keep.sort_unstable();
    let before = targets.len();
    let survivors: Vec<usize> = targets
        .into_iter()
        .filter(|&m| keep.binary_search(&index.bucket_of(m)).is_ok())
        .collect();
    let report = ApproxReport {
        buckets_total: total,
        buckets_probed: probe,
        short_circuited: before - survivors.len(),
    };
    Ok((survivors, report))
}

/// The replica's answer to a cache miss, one traced call per layer.
fn replica_response<D: DatabaseView + ?Sized>(
    tracer: &mut Tracer,
    counters: &mut Counters,
    models: &Models,
    view: &D,
    id: u32,
    request: &RankRequest,
) -> Result<RankResponse, ServeError> {
    let model = models.get(request.model);
    let start = tracer.now();
    let plan = view.plan_machines(&request.restrict);
    tracer.close(id, Stage::Plan, start);
    counters.shards_scanned += plan.shards_scanned as u64;
    counters.shards_pruned += plan.shards_pruned as u64;
    let targets: Vec<usize> = plan
        .machines
        .iter()
        .copied()
        .filter(|m| !request.predictive.contains(m))
        .collect();
    if targets.is_empty() {
        return Err(ServeError::EmptyCandidates);
    }
    let (targets, approx) = match &request.approx {
        None => (targets, None),
        Some(approx) => {
            let start = tracer.now();
            let index = BucketIndex::build(view, approx.n_components, approx.n_buckets);
            tracer.close(id, Stage::BucketBuild, start);
            let index = index.map_err(|e| ServeError::Evaluation(CoreError::Dataset(e)))?;
            counters.approx_candidates += targets.len() as u64;
            let start = tracer.now();
            let coarse = coarse_rank(view, request, model, &index, approx.probe_buckets, targets);
            tracer.close(id, Stage::CoarseRank, start);
            let (survivors, report) = coarse?;
            counters.approx_survivors += survivors.len() as u64;
            (survivors, Some(report))
        }
    };
    let train = train_benchmarks(view, &request.app);
    let start = tracer.now();
    black_box(view.gather(&train, &targets));
    tracer.close(id, Stage::Gather, start);
    let start = tracer.now();
    let task = match &request.app {
        AppOfInterest::Suite(app) => {
            PredictionTask::leave_one_out(view, *app, &request.predictive, &targets, request.seed)
        }
        AppOfInterest::External(app) => {
            PredictionTask::external_app(view, app, &request.predictive, &targets, request.seed)
        }
    };
    tracer.close(id, Stage::TaskBuild, start);
    let task = task?;
    let stage = Stage::predict(request.model);
    let start = tracer.now();
    let predicted = model.predict(&task);
    tracer.close(id, stage, start);
    let predicted = predicted?;
    let entry = counters.targets.entry(stage).or_default();
    entry.0 += targets.len() as u64;
    entry.1 += 1;
    let start = tracer.now();
    let ranking = Ranking::from_scores(&predicted);
    tracer.close(id, Stage::Rank, start);
    let ranking = ranking?;
    let k = request.top_k.unwrap_or(targets.len()).min(targets.len());
    let confidence = match &request.confidence {
        None => None,
        Some(cfg) => {
            let noise = NoiseConfig {
                seed: request.seed ^ CONFIDENCE_NOISE_SEED,
                sigma: cfg.sigma,
                repeats: cfg.repeats,
            };
            let samples: Vec<Vec<f64>> = targets
                .iter()
                .zip(&predicted)
                .map(|(&machine, &score)| noise.measure(score, 0, machine))
                .collect();
            let start = tracer.now();
            let rc = bootstrap_rank_confidence(
                &samples,
                cfg.resamples,
                cfg.level,
                request.seed ^ CONFIDENCE_BOOTSTRAP_SEED,
                Parallelism::Sequential,
            );
            tracer.close(id, Stage::Bootstrap, start);
            let rc = rc.map_err(|e| ServeError::Evaluation(CoreError::Stats(e)))?;
            let ranked = ranking.order()[..k]
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
            Some(RankConfidenceReport {
                level: cfg.level,
                ranked,
                tie_groups,
            })
        }
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

/// What one replayed request produced.
struct Replayed {
    miss: bool,
    one_ms: Option<f64>,
}

/// The replay state: spans, counters, models and both caches.
struct Replayer {
    tracer: Tracer,
    counters: Counters,
    models: Models,
    config: ServeConfig,
    replica_cache: ResultCache,
    engine_cache: ResultCache,
    next_id: u32,
    mismatches: usize,
    checked: usize,
}

impl Replayer {
    fn new() -> Self {
        let config = ServeConfig::default();
        Replayer {
            tracer: Tracer::new(),
            counters: Counters::default(),
            models: Models::new(&config),
            config,
            replica_cache: ResultCache::new(256),
            engine_cache: ResultCache::new(256),
            next_id: 0,
            mismatches: 0,
            checked: 0,
        }
    }

    fn id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn check(&mut self, want: &str, got: &str) {
        self.checked += 1;
        self.mismatches += usize::from(want != got);
    }

    /// Fills both caches with `hot` without tracing, checking the
    /// replica's answers against the engine's.
    fn warm<D: DatabaseView + ?Sized>(&mut self, view: &D, hot: &[RankRequest]) {
        let engine = serve_batch_cached(view, hot, &self.config, &mut self.engine_cache);
        self.replica_cache.sync_version(view.catalog_version());
        let mut scratch = Tracer::new();
        let mut counters = Counters::default();
        for (request, result) in hot.iter().zip(&engine.responses) {
            let replica =
                replica_response(&mut scratch, &mut counters, &self.models, view, 0, request);
            if let Ok(response) = &replica {
                self.replica_cache
                    .insert(RequestFingerprint::of(request), request, response);
            }
            self.check(&render_result(result), &render_result(&replica));
        }
    }

    /// Replays one batch: a traced `serve_batch_cached` pass, then each
    /// request through the replica and, on a miss, `serve_one`.
    fn batch<D: DatabaseView + ?Sized>(
        &mut self,
        view: &D,
        requests: &[RankRequest],
    ) -> Vec<Replayed> {
        let pass = self.id();
        let start = self.tracer.now();
        let engine = serve_batch_cached(view, requests, &self.config, &mut self.engine_cache);
        self.tracer.close(pass, Stage::Pass, start);
        self.counters.invalidations += engine.invalidations;
        self.replica_cache.sync_version(view.catalog_version());
        let mut out = Vec::with_capacity(requests.len());
        for (request, engine_result) in requests.iter().zip(&engine.responses) {
            let id = self.id();
            let request_start = self.tracer.now();
            let line = write_request(request);
            let start = self.tracer.now();
            let parsed = parse_line(line.as_bytes());
            self.tracer.close(id, Stage::Parse, start);
            let parsed_ok = matches!(&parsed, Ok(Command::Rank(r)) if **r == *request);
            let start = self.tracer.now();
            let fingerprint = RequestFingerprint::of(request);
            self.tracer.close(id, Stage::Fingerprint, start);
            let start = self.tracer.now();
            let cached = self.replica_cache.lookup(fingerprint, request);
            self.tracer.close(id, Stage::Lookup, start);
            self.counters.lookups += 1;
            let miss = cached.is_none();
            let result = match cached {
                Some(response) => {
                    self.counters.hits += 1;
                    Ok(response)
                }
                None => {
                    let result = replica_response(
                        &mut self.tracer,
                        &mut self.counters,
                        &self.models,
                        view,
                        id,
                        request,
                    );
                    if let Ok(response) = &result {
                        self.replica_cache.insert(fingerprint, request, response);
                    }
                    result
                }
            };
            let start = self.tracer.now();
            let rendered = render_result(&result);
            self.tracer.close(id, Stage::Render, start);
            self.tracer.close(id, Stage::Request, request_start);
            self.counters.response_bytes += rendered.len() as u64;
            self.counters.responses += 1;
            self.check(&render_result(engine_result), &rendered);
            if !parsed_ok {
                self.mismatches += 1;
            }
            let one_ms = if miss {
                let start = self.tracer.now();
                let one = serve_one(view, request, &self.config);
                self.tracer.close(id, Stage::ServeOne, start);
                let span = self.tracer.spans.last().map_or(0, |s| s.end - s.start);
                self.check(&render_result(&one), &rendered);
                Some(span as f64 / 1e6)
            } else {
                None
            };
            out.push(Replayed { miss, one_ms });
        }
        out
    }

    /// A traced `push_machines` on a growing catalog.
    fn push(
        &mut self,
        db: &mut ShardedPerfDatabase,
        batch: &[datatrans_dataset::database::MachineIngest],
    ) -> Result<(), String> {
        let id = self.id();
        let start = self.tracer.now();
        let pushed = db.push_machines(batch);
        self.tracer.close(id, Stage::Push, start);
        pushed.map_err(|e| format!("push_machines: {e}"))
    }

    /// Aggregates spans and counters into the per-layer metrics.
    fn finish(
        self,
        observations: Option<&WireObservations>,
        overhead: &mut Sample,
        name: &str,
        seed: u64,
    ) -> Traced {
        let self_ns = self.tracer.self_times();
        let mut per_stage: HashMap<Stage, (f64, u64)> = HashMap::new();
        let mut traced_by_id: HashMap<u32, u64> = HashMap::new();
        let mut one_by_id: HashMap<u32, u64> = HashMap::new();
        for (span, &ns) in self.tracer.spans.iter().zip(&self_ns) {
            let e = per_stage.entry(span.stage).or_default();
            e.0 += ns as f64;
            e.1 += 1;
            if span.stage.inside_serve_one() {
                *traced_by_id.entry(span.id).or_default() += ns;
            }
            if span.stage == Stage::ServeOne {
                one_by_id.insert(span.id, span.end - span.start);
            }
        }
        let mean_ns = |stage: Stage| {
            per_stage
                .get(&stage)
                .map_or(0.0, |&(sum, n)| sum / n.max(1) as f64)
        };
        let (mut one_total, mut untraced_total) = (0.0, 0.0);
        for (id, &one) in &one_by_id {
            let traced = traced_by_id.get(id).copied().unwrap_or(0);
            one_total += one as f64;
            untraced_total += one.saturating_sub(traced) as f64;
        }
        let ones = one_by_id.len().max(1) as f64;
        let c = &self.counters;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let targets = |stage: Stage| c.targets.get(&stage).map_or(0.0, |&(sum, n)| ratio(sum, n));
        let count = |stage: Stage| per_stage.get(&stage).map_or(0, |&(_, n)| n);
        let m = |name: &'static str, value: f64, unit: &'static str, detail: String| {
            Metric::new(name, value, unit, detail)
        };
        let calls = |stage: Stage| format!("mean of {} calls", count(stage));
        let (lag, backlog, batch_len, max_batch) = observations.map_or((0.0, 0, 0.0, 0), |o| {
            (
                o.lag_p99_ms,
                o.backlog_end,
                mean_batch_len(o.stats),
                o.stats.max_batch_len,
            )
        });
        let overhead_p50 = overhead.percentile(50.0);
        let layers = vec![
            m(
                "model.nnt.predict_ms",
                mean_ns(Stage::PredictNnt) / 1e6,
                "ms",
                calls(Stage::PredictNnt),
            ),
            m(
                "model.mlpt.predict_ms",
                mean_ns(Stage::PredictMlpt) / 1e6,
                "ms",
                calls(Stage::PredictMlpt),
            ),
            m(
                "model.gaknn.predict_ms",
                mean_ns(Stage::PredictGaknn) / 1e6,
                "ms",
                calls(Stage::PredictGaknn),
            ),
            m(
                "model.nnt.targets",
                targets(Stage::PredictNnt),
                "count",
                "mean per predict".into(),
            ),
            m(
                "model.mlpt.targets",
                targets(Stage::PredictMlpt),
                "count",
                "mean per predict".into(),
            ),
            m(
                "model.gaknn.targets",
                targets(Stage::PredictGaknn),
                "count",
                "mean per predict".into(),
            ),
            m(
                "dataset.plan_us",
                mean_ns(Stage::Plan) / 1e3,
                "us",
                calls(Stage::Plan),
            ),
            m(
                "dataset.gather_us",
                mean_ns(Stage::Gather) / 1e3,
                "us",
                calls(Stage::Gather),
            ),
            m(
                "dataset.shards_pruned_share",
                ratio(c.shards_pruned, c.shards_pruned + c.shards_scanned),
                "share",
                format!(
                    "{} of {} shard visits",
                    c.shards_pruned,
                    c.shards_pruned + c.shards_scanned
                ),
            ),
            m(
                "dataset.bucket_build_ms",
                mean_ns(Stage::BucketBuild) / 1e6,
                "ms",
                calls(Stage::BucketBuild),
            ),
            m(
                "dataset.approx_survivor_share",
                ratio(c.approx_survivors, c.approx_candidates),
                "share",
                format!(
                    "{} of {} approx candidates",
                    c.approx_survivors, c.approx_candidates
                ),
            ),
            m(
                "dataset.push_ms",
                mean_ns(Stage::Push) / 1e6,
                "ms",
                calls(Stage::Push),
            ),
            m(
                "task.build_us",
                mean_ns(Stage::TaskBuild) / 1e3,
                "us",
                calls(Stage::TaskBuild),
            ),
            m(
                "ranking.rank_us",
                mean_ns(Stage::Rank) / 1e3,
                "us",
                calls(Stage::Rank),
            ),
            m(
                "confidence.bootstrap_ms",
                mean_ns(Stage::Bootstrap) / 1e6,
                "ms",
                calls(Stage::Bootstrap),
            ),
            m(
                "cache.fingerprint_us",
                mean_ns(Stage::Fingerprint) / 1e3,
                "us",
                calls(Stage::Fingerprint),
            ),
            m(
                "cache.lookup_us",
                mean_ns(Stage::Lookup) / 1e3,
                "us",
                calls(Stage::Lookup),
            ),
            m(
                "cache.hit_share",
                ratio(c.hits, c.lookups),
                "share",
                format!("{} of {} lookups", c.hits, c.lookups),
            ),
            m(
                "cache.invalidations",
                c.invalidations as f64,
                "count",
                "entries dropped by version moves".into(),
            ),
            m(
                "serve.one_us",
                one_total / ones / 1e3,
                "us",
                format!("mean of {} serve_one calls", one_by_id.len()),
            ),
            m(
                "serve.untraced_us",
                untraced_total / ones / 1e3,
                "us",
                "serve_one minus plan, bucket build, task build, predict, rank, bootstrap".into(),
            ),
            m(
                "serve.traced_share",
                if one_total > 0.0 {
                    1.0 - untraced_total / one_total
                } else {
                    0.0
                },
                "share",
                "share of serve_one the traced stages cover".into(),
            ),
            m(
                "serve.pass_ms",
                mean_ns(Stage::Pass) / 1e6,
                "ms",
                calls(Stage::Pass),
            ),
            m(
                "protocol.parse_us",
                mean_ns(Stage::Parse) / 1e3,
                "us",
                calls(Stage::Parse),
            ),
            m(
                "protocol.render_us",
                mean_ns(Stage::Render) / 1e3,
                "us",
                calls(Stage::Render),
            ),
            m(
                "protocol.response_bytes",
                ratio(c.response_bytes, c.responses),
                "bytes",
                format!("mean of {} responses", c.responses),
            ),
            m(
                "server.batch_len",
                batch_len,
                "count",
                "ServerStats requests / batches".into(),
            ),
            m(
                "server.max_batch_len",
                max_batch as f64,
                "count",
                "ServerStats".into(),
            ),
            Metric::percentile(
                "server.overhead_p50_ms",
                "server.overhead_p50_ms",
                overhead_p50,
            ),
            m("loadgen.lag_p99_ms", lag, "ms", "open-loop send lag".into()),
            m(
                "loadgen.backlog_end",
                backlog as f64,
                "count",
                "outstanding when the open loop ended".into(),
            ),
        ];
        let mut notes = vec![format!(
            "replay: {} responses checked against serve_one and serve_batch_cached, {} mismatches",
            self.checked, self.mismatches
        )];
        match write_spans(&self.tracer, &self_ns, name, seed) {
            Ok(path) => notes.push(format!(
                "spans: {} written to {path}",
                self.tracer.spans.len()
            )),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
        Traced {
            correct: self.mismatches == 0 && self.checked > 0,
            notes,
            layers,
        }
    }
}

/// Writes the spans as TSV under `.bench_out/` in the working directory.
fn write_spans(tracer: &Tracer, self_ns: &[u64], name: &str, seed: u64) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{name}-{seed}.tsv");
    let mut text = String::from("id\tstage\tstart_ns\tend_ns\tself_ns\n");
    for (s, ns) in tracer.spans.iter().zip(self_ns) {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{ns}",
            s.id,
            s.stage.name(),
            s.start,
            s.end
        );
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

/// The traced run's result.
pub struct Traced {
    /// Replica, `serve_one` and `serve_batch_cached` agreed on every
    /// response.
    pub correct: bool,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// The per-layer metrics.
    pub layers: Vec<Metric>,
}

/// What the wire phases of a traced run observed.
pub struct WireObservations<'a> {
    /// Wire latency of each open-loop request (`None`: failed).
    pub latency_ms: &'a [Option<f64>],
    /// The server's counters.
    pub stats: &'a ServerStats,
    /// p99 open-loop send lag.
    pub lag_p99_ms: f64,
    /// Requests outstanding when the open loop ended.
    pub backlog_end: usize,
}

/// Replays a wire workload's open-loop stream for `budget` seconds.
pub fn wire(
    db: &ShardedPerfDatabase,
    hot: &[RankRequest],
    stream: &[(RankRequest, Class)],
    observations: &WireObservations,
    budget: f64,
    name: &str,
    seed: u64,
) -> Result<Traced, String> {
    let mut replayer = Replayer::new();
    replayer.warm(db, hot);
    let started = Instant::now();
    let mut overhead = Sample::new();
    for (chunk_index, chunk) in stream.chunks(WIRE_PASS).enumerate() {
        if started.elapsed().as_secs_f64() >= budget && chunk_index > 0 {
            break;
        }
        let requests: Vec<RankRequest> = chunk.iter().map(|(r, _)| r.clone()).collect();
        let replayed = replayer.batch(db, &requests);
        for (k, r) in replayed.iter().enumerate() {
            let position = chunk_index * WIRE_PASS + k;
            if r.miss != (chunk[k].1 == Class::Miss) {
                replayer.mismatches += 1;
            }
            if let Some(Some(wire_ms)) = observations.latency_ms.get(position) {
                overhead.push(wire_ms - r.one_ms.unwrap_or(0.0));
            }
        }
    }
    Ok(replayer.finish(Some(observations), &mut overhead, name, seed))
}

/// Replays `ingest_engine` epochs for `budget` seconds, growing the
/// catalog on the workload's schedule.
pub fn ingest(
    base: &ShardedPerfDatabase,
    epoch: &IngestEpoch,
    budget: f64,
    seed: u64,
) -> Result<Traced, String> {
    let mut replayer = Replayer::new();
    let started = Instant::now();
    'epochs: loop {
        let mut db = base.clone();
        replayer.engine_cache = ResultCache::new(256);
        replayer.replica_cache = ResultCache::new(256);
        for (b, batch) in epoch.batches.iter().enumerate() {
            if started.elapsed().as_secs_f64() >= budget && replayer.checked > 0 {
                break 'epochs;
            }
            replayer.batch(&db, batch);
            if let Some(write) = epoch.write_after(b) {
                replayer.push(&mut db, write)?;
            }
        }
    }
    Ok(replayer.finish(None, &mut Sample::new(), "ingest_engine", seed))
}
