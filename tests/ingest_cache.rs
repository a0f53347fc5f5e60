//! The streaming-ingest and result-cache contract:
//!
//! * a catalog grown through `push_machines` — dense or sharded, in any
//!   batch split, including across a tail-shard split — is
//!   **bitwise-identical** to the same catalog built at once, through
//!   every `DatabaseView` accessor and every model's served rankings, at
//!   any thread count;
//! * request fingerprints are injective over the synthetic request corpus
//!   and pinned against drift by golden values;
//! * cache hits are bitwise-identical to cold evaluation across thread
//!   counts, backings, and batch orderings (including mixed hit/miss
//!   batches), and a catalog-version move invalidates every entry;
//! * the cache's memo of fitted MLPᵀ networks outlives a version move,
//!   reuses a network exactly when its training inputs are unchanged,
//!   and never changes a served byte.

use datatrans::core::cache::ResultCache;
use datatrans::core::fingerprint::RequestFingerprint;
use datatrans::core::serve::{
    serve_batch, serve_batch_cached, AppOfInterest, ApproxConfig, ConfidenceConfig, ModelKind,
    RankRequest, RankResponse, ServeConfig, ServeError,
};
use datatrans::dataset::database::{MachineIngest, PerfDatabase};
use datatrans::dataset::generator::{
    generate, generate_scaled, synthesize_ingest, DatasetConfig, ScaleConfig,
};
use datatrans::dataset::machine::ProcessorFamily;
use datatrans::dataset::query::MachineFilter;
use datatrans::dataset::sharded::ShardedPerfDatabase;
use datatrans::dataset::view::DatabaseView;
use datatrans::dataset::DatasetError;
use datatrans::experiments::serve::synth_requests;
use datatrans::parallel::Parallelism;

fn quick_config(parallelism: Parallelism) -> ServeConfig {
    ServeConfig {
        parallelism,
        ..ServeConfig::quick()
    }
}

/// Unwraps a fault-isolated batch in which every slot must have served.
fn ok_all(slots: Vec<Result<RankResponse, ServeError>>, what: &str) -> Vec<RankResponse> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|e| panic!("{what}: slot {i} failed: {e}")))
        .collect()
}

/// Bitwise comparison of two response slices: every field, scores by bit
/// pattern, including the optional rank-confidence annex.
fn assert_responses_bitwise_eq(a: &[RankResponse], b: &[RankResponse], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: response count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.method, y.method, "{what}: response {i} method");
        assert_eq!(x.candidates, y.candidates, "{what}: response {i}");
        assert_eq!(x.ranked.len(), y.ranked.len(), "{what}: response {i}");
        for (j, (r, s)) in x.ranked.iter().zip(&y.ranked).enumerate() {
            assert_eq!(r.machine, s.machine, "{what}: response {i} rank {j}");
            assert_eq!(
                r.predicted_score.to_bits(),
                s.predicted_score.to_bits(),
                "{what}: response {i} rank {j} score"
            );
        }
        match (&x.confidence, &y.confidence) {
            (None, None) => {}
            (Some(cx), Some(cy)) => {
                assert_eq!(
                    cx.level.to_bits(),
                    cy.level.to_bits(),
                    "{what}: response {i} confidence level"
                );
                assert_eq!(
                    cx.tie_groups, cy.tie_groups,
                    "{what}: response {i} tie groups"
                );
                assert_eq!(cx.ranked.len(), cy.ranked.len(), "{what}: response {i}");
                for (j, (u, v)) in cx.ranked.iter().zip(&cy.ranked).enumerate() {
                    assert_eq!(u.machine, v.machine, "{what}: ci {i}.{j} machine");
                    assert_eq!(u.tie_group, v.tie_group, "{what}: ci {i}.{j} group");
                    for (name, p, q) in [
                        ("rank", u.rank, v.rank),
                        ("rank_lower", u.rank_lower, v.rank_lower),
                        ("rank_upper", u.rank_upper, v.rank_upper),
                        ("score_lower", u.score_lower, v.score_lower),
                        ("score_upper", u.score_upper, v.score_upper),
                    ] {
                        assert_eq!(p.to_bits(), q.to_bits(), "{what}: ci {i}.{j} {name}");
                    }
                }
            }
            _ => panic!("{what}: response {i} confidence presence differs"),
        }
    }
}

/// Strips plan accounting for cross-backing comparison (rankings must be
/// identical; shard counts legitimately differ).
fn rankings_only(responses: &[RankResponse]) -> Vec<RankResponse> {
    responses
        .iter()
        .map(|r| RankResponse {
            shards_scanned: 0,
            shards_pruned: 0,
            ..r.clone()
        })
        .collect()
}

/// The last `n` columns of `db` as an ingest batch (metadata + exact
/// stored score bits).
fn tail_as_ingest(db: &PerfDatabase, n: usize) -> Vec<MachineIngest> {
    (db.n_machines() - n..db.n_machines())
        .map(|m| MachineIngest {
            machine: db.machines()[m].clone(),
            scores: (0..db.n_benchmarks()).map(|b| db.score(b, m)).collect(),
        })
        .collect()
}

/// The first `keep` columns of `db` as a standalone dense database.
fn prefix_database(db: &PerfDatabase, keep: usize) -> PerfDatabase {
    let mut scores = Vec::with_capacity(db.n_benchmarks() * keep);
    for b in 0..db.n_benchmarks() {
        scores.extend_from_slice(&db.benchmark_row(b)[..keep]);
    }
    PerfDatabase::new(
        db.benchmarks().to_vec(),
        db.machines()[..keep].to_vec(),
        scores,
    )
    .expect("prefix slice is a valid database")
}

/// Every `DatabaseView` accessor of `grown` against `reference`, bitwise.
fn assert_views_bitwise_eq(grown: &dyn DatabaseView, reference: &dyn DatabaseView, what: &str) {
    assert_eq!(grown.n_benchmarks(), reference.n_benchmarks(), "{what}");
    assert_eq!(grown.n_machines(), reference.n_machines(), "{what}");
    assert_eq!(grown.machines(), reference.machines(), "{what}: metadata");
    assert_eq!(grown.benchmarks().len(), reference.benchmarks().len());
    for b in 0..reference.n_benchmarks() {
        assert_eq!(
            grown.benchmark_row_vec(b),
            reference.benchmark_row_vec(b),
            "{what}: row {b}"
        );
        for m in 0..reference.n_machines() {
            assert_eq!(
                grown.score(b, m).to_bits(),
                reference.score(b, m).to_bits(),
                "{what}: score ({b}, {m})"
            );
        }
    }
    for m in 0..reference.n_machines() {
        assert_eq!(
            grown.machine_column(m).to_vec(),
            reference.machine_column(m).to_vec(),
            "{what}: column {m}"
        );
    }
    let rows: Vec<usize> = (0..reference.n_benchmarks()).collect();
    let cols: Vec<usize> = (0..reference.n_machines()).step_by(7).collect();
    let a = grown.gather(&rows, &cols);
    let b = reference.gather(&rows, &cols);
    assert_eq!(a.shape(), b.shape(), "{what}: gather shape");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits(), "{what}: gather");
        }
    }
}

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

#[test]
fn fingerprints_are_distinct_over_the_request_corpus() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let (requests, _) = synth_requests(&db, 48, 5, 42);
    let mut seen = std::collections::HashSet::new();
    for (i, request) in requests.iter().enumerate() {
        assert!(
            seen.insert(RequestFingerprint::of(request).as_u64()),
            "request {i} collides with an earlier fingerprint"
        );
    }
    assert_eq!(seen.len(), 48);
}

#[test]
fn fingerprints_match_pinned_golden_values() {
    // Pinned digests: if the mixing scheme drifts, externally persisted
    // cache keys would silently orphan — this test makes drift loud.
    let suite = RankRequest {
        app: AppOfInterest::Suite(3),
        model: ModelKind::NnT,
        predictive: vec![0, 30, 60],
        restrict: MachineFilter::family(ProcessorFamily::Xeon),
        top_k: Some(5),
        seed: 7,
        confidence: None,
        approx: None,
    };
    let unrestricted = RankRequest {
        app: AppOfInterest::Suite(0),
        model: ModelKind::GaKnn,
        predictive: vec![],
        restrict: MachineFilter::all(),
        top_k: None,
        seed: 0,
        confidence: None,
        approx: None,
    };
    let subset = RankRequest {
        app: AppOfInterest::Suite(11),
        model: ModelKind::MlpT,
        predictive: vec![1, 2, 3],
        restrict: MachineFilter::years(2007, 2009).with_subset(vec![5, 10, 15]),
        top_k: Some(2),
        seed: 0xDEAD_BEEF,
        confidence: None,
        approx: None,
    };
    assert_eq!(
        RequestFingerprint::of(&suite).as_u64(),
        0xED9C_4B62_9836_8DFF,
        "suite request digest drifted"
    );
    assert_eq!(
        RequestFingerprint::of(&unrestricted).as_u64(),
        0x1EA9_58A3_9997_1F62,
        "unrestricted request digest drifted"
    );
    assert_eq!(
        RequestFingerprint::of(&subset).as_u64(),
        0x573A_6B2E_5CBC_2531,
        "subset request digest drifted"
    );
}

// ---------------------------------------------------------------------
// Ingest equivalence
// ---------------------------------------------------------------------

#[test]
fn dense_incremental_growth_is_bitwise_equal_to_built_at_once() {
    let full = generate_scaled(&ScaleConfig {
        n_machines: 120,
        ..ScaleConfig::default()
    })
    .expect("scaled dataset");
    let mut grown = prefix_database(&full, 90);
    let tail = tail_as_ingest(&full, 30);
    grown.push_machines(&tail[..12]).expect("first batch");
    grown.push_machines(&tail[12..]).expect("second batch");
    assert_eq!(grown.catalog_version(), 2);
    assert_views_bitwise_eq(&grown, &full, "dense incremental");
}

#[test]
fn sharded_incremental_growth_across_a_split_matches_dense_for_every_model() {
    let full = generate_scaled(&ScaleConfig {
        n_machines: 120,
        ..ScaleConfig::default()
    })
    .expect("scaled dataset");
    let base = prefix_database(&full, 90);
    // 5 shards of width 18; the 48-wide tail after ingest crosses the
    // 20-column threshold and splits into 3 pieces of 16.
    let mut sharded = ShardedPerfDatabase::from_dense(&base, 5)
        .expect("shardable")
        .with_split_width(20)
        .expect("valid threshold");
    let tail = tail_as_ingest(&full, 30);
    sharded.push_machines(&tail[..10]).expect("first batch");
    sharded.push_machines(&tail[10..]).expect("second batch");
    assert_eq!(sharded.n_shards(), 7, "tail split into three pieces");
    assert!(sharded.shards().iter().all(|s| s.width() <= 20));
    assert_eq!(sharded.catalog_version(), 2);
    assert_views_bitwise_eq(&sharded, &full, "sharded incremental");
    assert_eq!(sharded.to_dense().score_matrix(), full.score_matrix());

    // Planner equivalence on the grown layout: pruned plans must list
    // exactly the machines a full scan finds.
    let threshold = full.score(2, 60);
    for filter in [
        MachineFilter::all(),
        MachineFilter::family(ProcessorFamily::Xeon),
        MachineFilter::years(2005, 2008),
        MachineFilter::all().with_min_score(2, threshold),
        MachineFilter::all().with_subset((0..120).step_by(9).collect()),
    ] {
        let plan = DatabaseView::plan_machines(&sharded, &filter);
        let dense_plan = DatabaseView::plan_machines(&full, &filter);
        assert_eq!(plan.machines, dense_plan.machines, "{filter:?}");
    }

    // Every model's served rankings, honouring DATATRANS_THREADS via
    // Parallelism::Auto, must match the dense built-at-once catalog.
    let requests: Vec<RankRequest> = ModelKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &model)| RankRequest {
            app: AppOfInterest::Suite(i),
            model,
            predictive: vec![0, 40, 80],
            restrict: MachineFilter::all(),
            top_k: Some(6),
            seed: 21 + i as u64,
            confidence: None,
            approx: None,
        })
        .collect();
    let config = quick_config(Parallelism::Auto);
    let on_dense = ok_all(serve_batch(&full, &requests, &config), "dense serve");
    let on_grown = ok_all(serve_batch(&sharded, &requests, &config), "sharded serve");
    assert_responses_bitwise_eq(
        &rankings_only(&on_dense),
        &rankings_only(&on_grown),
        "grown sharded vs built-at-once dense",
    );
}

#[test]
fn synthesized_ingest_is_split_invariant_on_both_backings() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let batch = synthesize_ingest(3, dense.benchmarks(), 12, 0.015).expect("batch");

    let mut at_once = dense.clone();
    at_once.push_machines(&batch).expect("push");
    let mut chunked = dense.clone();
    for chunk in batch.chunks(5) {
        chunked.push_machines(chunk).expect("push chunk");
    }
    assert_eq!(at_once.score_matrix(), chunked.score_matrix());
    assert_eq!(at_once.machines(), chunked.machines());
    assert_eq!(at_once.catalog_version(), 1);
    assert_eq!(chunked.catalog_version(), 3);

    let mut sharded_once = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    sharded_once.push_machines(&batch).expect("push");
    let mut sharded_chunked = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    for chunk in batch.chunks(5) {
        sharded_chunked.push_machines(chunk).expect("push chunk");
    }
    assert_views_bitwise_eq(
        &sharded_chunked,
        &sharded_once,
        "sharded chunked vs at once",
    );
    assert_views_bitwise_eq(&sharded_once, &at_once, "sharded vs dense ingest");
}

#[test]
fn empty_and_invalid_pushes_behave_on_both_backings() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let mut db = dense.clone();
    db.push_machines(&[]).expect("empty push");
    assert_eq!(db.catalog_version(), 0, "empty push must not bump");
    assert_eq!(db.score_matrix(), dense.score_matrix());

    let mut sharded = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    sharded.push_machines(&[]).expect("empty push");
    assert_eq!(sharded.catalog_version(), 0, "empty push must not bump");

    let short = MachineIngest {
        machine: dense.machines()[0].clone(),
        scores: vec![1.0; 28],
    };
    assert_eq!(
        db.push_machines(std::slice::from_ref(&short)),
        Err(DatasetError::BenchmarkCountMismatch {
            expected: 29,
            got: 28
        })
    );
    assert_eq!(
        sharded.push_machines(std::slice::from_ref(&short)),
        Err(DatasetError::BenchmarkCountMismatch {
            expected: 29,
            got: 28
        })
    );
    let negative = MachineIngest {
        machine: dense.machines()[0].clone(),
        scores: vec![-1.0; 29],
    };
    assert!(matches!(
        db.push_machines(std::slice::from_ref(&negative)),
        Err(DatasetError::InvalidConfig { name: "scores", .. })
    ));
    assert_eq!(db.catalog_version(), 0, "failed pushes must not bump");
}

// ---------------------------------------------------------------------
// Cache-hit identity
// ---------------------------------------------------------------------

/// A small mixed request set (all three models, several restriction
/// shapes) kept cheap enough to serve repeatedly.
fn cache_request_mix(db: &dyn DatabaseView) -> Vec<RankRequest> {
    let threshold = db.score(4, 58);
    vec![
        RankRequest {
            app: AppOfInterest::Suite(0),
            model: ModelKind::NnT,
            predictive: vec![0, 25, 50],
            restrict: MachineFilter::family(ProcessorFamily::Xeon),
            top_k: Some(5),
            seed: 11,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::Suite(7),
            model: ModelKind::MlpT,
            predictive: vec![0, 25, 50],
            restrict: MachineFilter::years(2007, 2009),
            top_k: Some(3),
            seed: 12,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::Suite(3),
            model: ModelKind::GaKnn,
            predictive: vec![0, 25, 50],
            restrict: MachineFilter::all().with_min_score(4, threshold),
            top_k: Some(4),
            seed: 13,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::Suite(15),
            model: ModelKind::NnT,
            predictive: vec![0, 25, 50],
            restrict: MachineFilter::all(),
            top_k: Some(10),
            seed: 14,
            confidence: None,
            approx: None,
        },
    ]
}

#[test]
fn cache_hits_are_bitwise_identical_across_threads_backings_and_orderings() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    let requests = cache_request_mix(&dense);
    let reference = ok_all(
        serve_batch(&dense, &requests, &quick_config(Parallelism::Sequential)),
        "cold reference",
    );

    let backings: [(&str, &dyn DatabaseView); 2] = [("dense", &dense), ("sharded8", &sharded)];
    for (backing, view) in backings {
        for threads in [1usize, 4] {
            let config = quick_config(Parallelism::Threads(threads));
            let what = format!("{backing} @ {threads} threads");
            let mut cache = ResultCache::new(16);
            let cold = serve_batch_cached(view, &requests, &config, &mut cache);
            assert_eq!((cold.hits, cold.misses), (0, 4), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(cold.responses, &what)),
                &format!("{what}: cold"),
            );
            let warm = serve_batch_cached(view, &requests, &config, &mut cache);
            assert_eq!((warm.hits, warm.misses), (4, 0), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(warm.responses, &what)),
                &format!("{what}: warm"),
            );

            // Permuted batch through the warm cache: responses permute
            // with the requests, still bitwise-identical.
            let order = [2usize, 0, 3, 1];
            let permuted: Vec<RankRequest> = order.iter().map(|&i| requests[i].clone()).collect();
            let served = serve_batch_cached(view, &permuted, &config, &mut cache);
            assert_eq!((served.hits, served.misses), (4, 0), "{what}");
            let expected: Vec<RankResponse> = order.iter().map(|&i| reference[i].clone()).collect();
            assert_responses_bitwise_eq(
                &rankings_only(&expected),
                &rankings_only(&ok_all(served.responses, &what)),
                &format!("{what}: permuted warm"),
            );

            // Mixed hit/miss batch: a half-warmed cache serves two
            // requests from storage and evaluates two cold, in one batch.
            let mut half = ResultCache::new(16);
            let firsts: Vec<RankRequest> = requests[..2].to_vec();
            serve_batch_cached(view, &firsts, &config, &mut half);
            let mixed = serve_batch_cached(view, &requests, &config, &mut half);
            assert_eq!((mixed.hits, mixed.misses), (2, 2), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(mixed.responses, &what)),
                &format!("{what}: mixed hit/miss"),
            );
        }
    }
}

#[test]
fn version_move_invalidates_and_reserves_against_the_grown_catalog() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let mut sharded = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    let requests = cache_request_mix(&dense);
    let config = quick_config(Parallelism::Sequential);
    let mut cache = ResultCache::new(16);
    let cold = serve_batch_cached(&sharded, &requests, &config, &mut cache);
    let cold_responses = ok_all(cold.responses, "cold");

    let batch = synthesize_ingest(17, dense.benchmarks(), 6, 0.015).expect("ingest");
    sharded.push_machines(&batch).expect("push");

    let post = serve_batch_cached(&sharded, &requests, &config, &mut cache);
    assert_eq!(post.invalidations, 4, "every resident entry dropped");
    assert_eq!((post.hits, post.misses), (0, 4), "nothing stale served");
    let post_responses = ok_all(post.responses, "post");
    // The unrestricted request now sees the grown candidate set.
    assert_eq!(
        post_responses[3].candidates,
        cold_responses[3].candidates + batch.len()
    );
    // And the grown responses match a cold evaluation against the grown
    // catalog exactly.
    let fresh = ok_all(serve_batch(&sharded, &requests, &config), "fresh");
    assert_responses_bitwise_eq(&fresh, &post_responses, "post-ingest vs fresh");
}

// ---------------------------------------------------------------------
// Confidence annex: fingerprint injectivity and cache identity
// ---------------------------------------------------------------------

#[test]
fn confidence_fingerprints_never_collide_with_plain_requests() {
    // The optional confidence block is domain-tagged: a confidence-bearing
    // request must be distinct from every plain request in the corpus and
    // from every variation of its own confidence fields.
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let (plain, _) = synth_requests(&db, 24, 5, 42);
    let mut corpus = plain.clone();
    for request in &plain {
        for confidence in [
            ConfidenceConfig::default(),
            ConfidenceConfig {
                level: 0.9,
                ..ConfidenceConfig::default()
            },
            ConfidenceConfig {
                sigma: 0.03,
                ..ConfidenceConfig::default()
            },
            ConfidenceConfig {
                resamples: 64,
                ..ConfidenceConfig::default()
            },
        ] {
            corpus.push(RankRequest {
                confidence: Some(confidence),
                ..request.clone()
            });
        }
    }
    let mut seen = std::collections::HashSet::new();
    for (i, request) in corpus.iter().enumerate() {
        assert!(
            seen.insert(RequestFingerprint::of(request).as_u64()),
            "request {i} collides with an earlier fingerprint"
        );
    }
    assert_eq!(seen.len(), 24 * 5);
}

#[test]
fn confidence_cache_hits_are_bitwise_identical_to_cold_evaluation() {
    // Warm-vs-cold identity for confidence-bearing requests: the annex
    // (rank CIs, tie groups) is stored verbatim and replayed bitwise, on
    // either backing, at either pinned thread count.
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    let mut requests = cache_request_mix(&dense);
    for request in &mut requests {
        request.confidence = Some(ConfidenceConfig {
            repeats: 4,
            resamples: 60,
            ..ConfidenceConfig::default()
        });
    }
    let reference = ok_all(
        serve_batch(&dense, &requests, &quick_config(Parallelism::Sequential)),
        "confidence reference",
    );
    assert!(
        reference.iter().all(|r| r.confidence.is_some()),
        "every response carries the annex"
    );

    let backings: [(&str, &dyn DatabaseView); 2] = [("dense", &dense), ("sharded8", &sharded)];
    for (backing, view) in backings {
        for threads in [1usize, 4] {
            let config = quick_config(Parallelism::Threads(threads));
            let what = format!("confidence {backing} @ {threads} threads");
            let mut cache = ResultCache::new(16);
            let cold = serve_batch_cached(view, &requests, &config, &mut cache);
            assert_eq!((cold.hits, cold.misses), (0, 4), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(cold.responses, &what)),
                &format!("{what}: cold"),
            );
            let warm = serve_batch_cached(view, &requests, &config, &mut cache);
            assert_eq!((warm.hits, warm.misses), (4, 0), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(warm.responses, &what)),
                &format!("{what}: warm"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fitted MLPᵀ networks kept across catalog writes
// ---------------------------------------------------------------------

/// Machine `m` of `db` as an ingest entry: its metadata and score bits.
fn copy_of(db: &dyn DatabaseView, m: usize) -> MachineIngest {
    MachineIngest {
        machine: db.machines()[m].clone(),
        scores: (0..db.n_benchmarks()).map(|b| db.score(b, m)).collect(),
    }
}

/// A mixed batch for the fit memo: NNᵀ, and MLPᵀ unrestricted, restricted
/// to another family than machine `copied`, restricted to years, with a
/// confidence annex, and approx (MLPᵀ and NNᵀ).
fn fit_memo_mix(db: &dyn DatabaseView, copied: usize) -> Vec<RankRequest> {
    let other_family = ProcessorFamily::ALL
        .into_iter()
        .find(|&f| f != db.machines()[copied].family)
        .expect("a second family");
    let request = |model, app, restrict, seed| RankRequest {
        app: AppOfInterest::Suite(app),
        model,
        predictive: vec![3, 40, 77, 101],
        restrict,
        top_k: Some(8),
        seed,
        confidence: None,
        approx: None,
    };
    let approx = Some(ApproxConfig {
        n_components: 2,
        n_buckets: 8,
        probe_buckets: 3,
    });
    vec![
        request(ModelKind::NnT, 2, MachineFilter::all(), 31),
        request(ModelKind::MlpT, 5, MachineFilter::all(), 32),
        request(ModelKind::MlpT, 9, MachineFilter::family(other_family), 33),
        request(ModelKind::MlpT, 12, MachineFilter::years(2006, 2008), 34),
        RankRequest {
            confidence: Some(ConfidenceConfig {
                repeats: 4,
                resamples: 60,
                ..ConfidenceConfig::default()
            }),
            ..request(ModelKind::MlpT, 5, MachineFilter::all(), 35)
        },
        RankRequest {
            approx,
            ..request(ModelKind::MlpT, 7, MachineFilter::all(), 36)
        },
        RankRequest {
            approx,
            ..request(ModelKind::NnT, 7, MachineFilter::all(), 37)
        },
    ]
}

/// The fit-memo contract on one backing at one thread count: after a push
/// that moves no scaler bound every plain MLPᵀ request reuses its fit,
/// after a push above every bound exactly the requests whose candidates
/// include the new machine refit, and every slot equals a cold
/// `serve_batch` on the grown catalog, bit for bit.
fn check_fit_memo<D: DatabaseView>(
    mut db: D,
    push: fn(&mut D, &[MachineIngest]) -> Result<(), DatasetError>,
    threads: usize,
    what: &str,
) {
    let copied = 0;
    let requests = fit_memo_mix(&db, copied);
    let plain_mlpt: Vec<RankRequest> = requests
        .iter()
        .filter(|r| r.model == ModelKind::MlpT && r.approx.is_none())
        .cloned()
        .collect();
    let config = quick_config(Parallelism::Threads(threads));
    let mut cache = ResultCache::new(32);
    let cold = serve_batch_cached(&db, &requests, &config, &mut cache);
    ok_all(cold.responses, what);
    assert_eq!(cold.fits_reused, 0, "{what}: nothing to reuse cold");
    assert!(cold.fits_trained >= 5, "{what}: {} fits", cold.fits_trained);

    // A copy of an existing machine moves no scaler bound: every plain
    // MLPᵀ request keeps its training inputs, so it keeps its fit.
    let copy = copy_of(&db, copied);
    push(&mut db, &[copy]).expect("push the copy");
    let reused = serve_batch_cached(&db, &plain_mlpt, &config, &mut cache);
    assert_eq!(reused.invalidations, requests.len() as u64, "{what}");
    assert_eq!(
        (reused.fits_reused, reused.fits_trained),
        (plain_mlpt.len() as u64, 0),
        "{what}: after the copy"
    );
    let served = serve_batch_cached(&db, &requests, &config, &mut cache);
    let expected = ok_all(serve_batch(&db, &requests, &config), what);
    assert_responses_bitwise_eq(
        &expected,
        &ok_all(served.responses, what),
        &format!("{what}: after the copy"),
    );

    // A machine above every benchmark's range widens the input scaler of
    // exactly the requests whose candidates include it.
    let above = MachineIngest {
        machine: db.machines()[copied].clone(),
        scores: (0..db.n_benchmarks())
            .map(|b| 2.0 * db.benchmark_row_vec(b).into_iter().fold(0.0, f64::max))
            .collect(),
    };
    push(&mut db, &[above]).expect("push above every bound");
    let pushed = db.n_machines() - 1;
    let mut refit = 0;
    for request in &plain_mlpt {
        let includes = db
            .plan_machines(&request.restrict)
            .machines
            .contains(&pushed);
        let one = serve_batch_cached(&db, std::slice::from_ref(request), &config, &mut cache);
        let want = if includes { (0, 1) } else { (1, 0) };
        assert_eq!(
            (one.fits_reused, one.fits_trained),
            want,
            "{what}: request seed {} after the push above every bound",
            request.seed
        );
        refit += usize::from(includes);
    }
    assert!(
        refit > 0 && refit < plain_mlpt.len(),
        "{what}: {refit} of {} refit; the mix must hold both kinds",
        plain_mlpt.len()
    );
    let served = serve_batch_cached(&db, &requests, &config, &mut cache);
    let expected = ok_all(serve_batch(&db, &requests, &config), what);
    assert_responses_bitwise_eq(
        &expected,
        &ok_all(served.responses, what),
        &format!("{what}: after the push above every bound"),
    );
}

#[test]
fn fitted_networks_survive_a_catalog_write_and_serve_the_same_bytes() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    for threads in [1, 4] {
        check_fit_memo(
            dense.clone(),
            PerfDatabase::push_machines,
            threads,
            &format!("dense @ {threads} threads"),
        );
        check_fit_memo(
            sharded.clone(),
            ShardedPerfDatabase::push_machines,
            threads,
            &format!("sharded8 @ {threads} threads"),
        );
    }
}
