//! The serving contract of the concurrent ranking-query engine: batched,
//! pruned, parallel query execution is **bitwise-identical** to the dense
//! sequential baseline for every model — across thread counts, database
//! backings (including non-dividing shard counts), and batch
//! permutations.

use datatrans::core::serve::{
    serve_batch, serve_one, AppOfInterest, ApproxConfig, ConfidenceConfig, ModelKind, RankRequest,
    RankResponse, ServeConfig, ServeError,
};
use datatrans::dataset::generator::{generate, DatasetConfig};
use datatrans::dataset::machine::ProcessorFamily;
use datatrans::dataset::query::MachineFilter;
use datatrans::dataset::sharded::ShardedPerfDatabase;
use datatrans::dataset::view::DatabaseView;
use datatrans::dataset::workload_synth::{synthesize, WorkloadProfile};
use datatrans::parallel::Parallelism;

fn quick_config(parallelism: Parallelism) -> ServeConfig {
    ServeConfig {
        parallelism,
        ..ServeConfig::quick()
    }
}

/// A request mix covering all three models, both application kinds, and
/// the planner's restriction shapes (family, years, score threshold,
/// subset, unrestricted).
fn request_mix(db: &dyn DatabaseView) -> Vec<RankRequest> {
    let predictive = vec![0, 25, 50, 75, 100];
    let threshold = db.score(4, 58);
    let mut requests = vec![
        RankRequest {
            app: AppOfInterest::Suite(0),
            model: ModelKind::NnT,
            predictive: predictive.clone(),
            restrict: MachineFilter::family(ProcessorFamily::Xeon),
            top_k: Some(5),
            seed: 11,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::Suite(7),
            model: ModelKind::MlpT,
            predictive: predictive.clone(),
            restrict: MachineFilter::years(2007, 2009),
            top_k: Some(3),
            seed: 12,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::External(synthesize(WorkloadProfile::Scientific, 5)),
            model: ModelKind::GaKnn,
            predictive: predictive.clone(),
            restrict: MachineFilter::all().with_min_score(4, threshold),
            top_k: Some(4),
            seed: 13,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::External(synthesize(WorkloadProfile::ServerInteger, 6)),
            model: ModelKind::NnT,
            predictive: predictive.clone(),
            restrict: MachineFilter::all().with_subset((0..117).step_by(5).collect()),
            top_k: None,
            seed: 14,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::Suite(15),
            model: ModelKind::MlpT,
            predictive: predictive.clone(),
            restrict: MachineFilter::all(),
            top_k: Some(10),
            seed: 15,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::Suite(3),
            model: ModelKind::GaKnn,
            predictive,
            restrict: MachineFilter::family(ProcessorFamily::Itanium).with_years(2002, 2009),
            top_k: Some(2),
            seed: 16,
            confidence: None,
            approx: None,
        },
    ];
    // A second family request so every model sees a pruned plan.
    requests.push(RankRequest {
        app: AppOfInterest::Suite(9),
        model: ModelKind::GaKnn,
        predictive: vec![0, 25, 50, 75, 100],
        restrict: MachineFilter::family(ProcessorFamily::Phenom),
        top_k: Some(5),
        seed: 17,
        confidence: None,
        approx: None,
    });
    requests
}

/// A batch the work-conserving pass reorders and coalesces: all three
/// models, approx and confidence annexes, and one request twice.
fn annex_mix() -> Vec<RankRequest> {
    let base = RankRequest {
        app: AppOfInterest::Suite(3),
        model: ModelKind::NnT,
        predictive: vec![0, 25, 50, 75, 100],
        restrict: MachineFilter::all(),
        top_k: Some(6),
        seed: 5,
        confidence: None,
        approx: None,
    };
    let approx = Some(ApproxConfig {
        n_components: 2,
        n_buckets: 8,
        probe_buckets: 3,
    });
    let confidence = Some(ConfidenceConfig {
        resamples: 40,
        ..ConfidenceConfig::default()
    });
    let mut requests = vec![
        base.clone(),
        RankRequest {
            model: ModelKind::MlpT,
            approx,
            ..base.clone()
        },
        RankRequest {
            app: AppOfInterest::External(synthesize(WorkloadProfile::Scientific, 4)),
            confidence,
            ..base.clone()
        },
        RankRequest {
            model: ModelKind::GaKnn,
            restrict: MachineFilter::family(ProcessorFamily::Xeon),
            ..base.clone()
        },
        RankRequest {
            model: ModelKind::MlpT,
            confidence,
            seed: 6,
            ..base.clone()
        },
        RankRequest {
            app: AppOfInterest::Suite(7),
            approx,
            ..base.clone()
        },
        RankRequest {
            model: ModelKind::GaKnn,
            approx,
            seed: 8,
            ..base.clone()
        },
    ];
    requests.push(requests[1].clone());
    requests
}

/// Unwraps a fault-isolated batch in which every slot must have served.
fn ok_all(slots: Vec<Result<RankResponse, ServeError>>, what: &str) -> Vec<RankResponse> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|e| panic!("{what}: slot {i} failed: {e}")))
        .collect()
}

/// Bitwise comparison of two responses: every field, scores by bit
/// pattern, including the optional rank-confidence annex.
fn assert_responses_bitwise_eq(a: &[RankResponse], b: &[RankResponse], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: response count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.method, y.method, "{what}: response {i} method");
        assert_eq!(x.candidates, y.candidates, "{what}: response {i}");
        assert_eq!(x.approx, y.approx, "{what}: response {i} approx annex");
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

/// Strips the plan-accounting fields for dense-vs-sharded comparison (the
/// ranking must be identical; the shard counts legitimately differ).
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

#[test]
fn batch_responses_identical_at_any_thread_count() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let requests = request_mix(&db);
    let reference = ok_all(
        serve_batch(&db, &requests, &quick_config(Parallelism::Sequential)),
        "sequential batch",
    );
    for threads in [1usize, 2, 4] {
        let parallel = ok_all(
            serve_batch(&db, &requests, &quick_config(Parallelism::Threads(threads))),
            "parallel batch",
        );
        assert_responses_bitwise_eq(&reference, &parallel, &format!("{threads} threads"));
    }
}

#[test]
fn pruned_sharded_serving_matches_dense_for_every_model() {
    // Non-dividing (8 over 117) and width-1 (117) shard layouts, at
    // several thread counts: the ranking bytes must match the dense
    // sequential baseline exactly, while the sharded planner actually
    // prunes.
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let requests = request_mix(&db);
    let reference = ok_all(
        serve_batch(&db, &requests, &quick_config(Parallelism::Sequential)),
        "dense sequential",
    );
    assert!(reference.iter().all(|r| r.shards_pruned == 0));
    for n_shards in [8usize, 117] {
        let sharded = ShardedPerfDatabase::from_dense(&db, n_shards).expect("shardable");
        for threads in [1usize, 4] {
            let responses = ok_all(
                serve_batch(
                    &sharded,
                    &requests,
                    &quick_config(Parallelism::Threads(threads)),
                ),
                "sharded batch",
            );
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&responses),
                &format!("{n_shards} shards, {threads} threads"),
            );
            // Family-restricted requests must skip most of the catalog.
            let family_pruned = responses.iter().filter(|r| r.shards_pruned > 0).count();
            assert!(
                family_pruned >= 3,
                "{n_shards} shards: expected pruned plans, saw {family_pruned}"
            );
            for r in &responses {
                assert_eq!(r.shards_scanned + r.shards_pruned, n_shards);
            }
        }
    }
}

#[test]
fn batch_order_is_irrelevant() {
    // Permuting the batch permutes the responses identically: each
    // response depends only on its own request.
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&db, 5).expect("shardable");
    let config = quick_config(Parallelism::Threads(2));
    for requests in [request_mix(&db), annex_mix()] {
        let forward = ok_all(serve_batch(&sharded, &requests, &config), "forward");
        let reversed_requests: Vec<RankRequest> = requests.iter().rev().cloned().collect();
        let reversed = ok_all(
            serve_batch(&sharded, &reversed_requests, &config),
            "reversed",
        );
        let unreversed: Vec<RankResponse> = reversed.into_iter().rev().collect();
        assert_responses_bitwise_eq(&forward, &unreversed, "reversed batch");
    }
}

#[test]
fn batch_agrees_with_one_by_one_serving() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&db, 8).expect("shardable");
    let config = quick_config(Parallelism::Threads(4));
    for requests in [request_mix(&db), annex_mix()] {
        let batch = ok_all(serve_batch(&sharded, &requests, &config), "batch");
        for (i, request) in requests.iter().enumerate() {
            let single = serve_one(&sharded, request, &config).expect("single");
            assert_responses_bitwise_eq(
                std::slice::from_ref(&batch[i]),
                std::slice::from_ref(&single),
                &format!("request {i}"),
            );
        }
    }
}

#[test]
fn top_k_is_a_prefix_of_the_full_ranking() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let full_request = RankRequest {
        app: AppOfInterest::Suite(2),
        model: ModelKind::NnT,
        predictive: vec![0, 40, 80],
        restrict: MachineFilter::years(2006, 2009),
        top_k: None,
        seed: 3,
        confidence: None,
        approx: None,
    };
    let cut_request = RankRequest {
        top_k: Some(4),
        ..full_request.clone()
    };
    let config = quick_config(Parallelism::Sequential);
    let full = serve_one(&db, &full_request, &config).expect("full");
    let cut = serve_one(&db, &cut_request, &config).expect("cut");
    assert_eq!(cut.ranked.len(), 4);
    assert_eq!(full.candidates, cut.candidates);
    assert_eq!(&full.ranked[..4], &cut.ranked[..]);
    // An oversized k clamps to the candidate count.
    let oversized = serve_one(
        &db,
        &RankRequest {
            top_k: Some(10_000),
            ..full_request
        },
        &config,
    )
    .expect("oversized");
    assert_eq!(oversized.ranked.len(), oversized.candidates);
}

#[test]
fn confidence_annexes_identical_across_threads_backings_and_order() {
    // Tie groups and bootstrap rank CIs ride the same determinism
    // contract as the rankings: bitwise-identical across thread counts,
    // dense vs sharded backings, and batch permutations.
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let mut requests = request_mix(&db);
    for request in &mut requests {
        request.confidence = Some(ConfidenceConfig {
            repeats: 4,
            resamples: 60,
            ..ConfidenceConfig::default()
        });
    }
    let reference = ok_all(
        serve_batch(&db, &requests, &quick_config(Parallelism::Sequential)),
        "confidence dense sequential",
    );
    assert!(
        reference.iter().all(|r| r.confidence.is_some()),
        "every response carries the annex"
    );

    // Thread counts on the dense backing.
    for threads in [1usize, 4] {
        let parallel = ok_all(
            serve_batch(&db, &requests, &quick_config(Parallelism::Threads(threads))),
            "confidence parallel",
        );
        assert_responses_bitwise_eq(
            &reference,
            &parallel,
            &format!("confidence @ {threads} threads"),
        );
    }

    // Sharded backing, plus a permuted batch on it.
    let sharded = ShardedPerfDatabase::from_dense(&db, 8).expect("shardable");
    let config = quick_config(Parallelism::Threads(4));
    let on_sharded = ok_all(
        serve_batch(&sharded, &requests, &config),
        "confidence sharded",
    );
    assert_responses_bitwise_eq(
        &rankings_only(&reference),
        &rankings_only(&on_sharded),
        "confidence sharded8",
    );
    let reversed_requests: Vec<RankRequest> = requests.iter().rev().cloned().collect();
    let reversed = ok_all(
        serve_batch(&sharded, &reversed_requests, &config),
        "confidence reversed",
    );
    let unreversed: Vec<RankResponse> = reversed.into_iter().rev().collect();
    assert_responses_bitwise_eq(&on_sharded, &unreversed, "confidence reversed batch");
}
