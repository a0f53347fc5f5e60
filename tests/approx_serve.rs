//! The approximate-serving contract end to end:
//!
//! * exact mode (`ApproxConfig = None`) is byte-identical to pre-approx
//!   serving — pinned against golden machine indices and score bits;
//! * approx responses are bitwise-identical across thread counts (1/4 and
//!   `Auto`), dense vs 8-shard backings, permuted batch order, and cache
//!   warmth;
//! * the bucket index after a streaming ingest is indistinguishable from
//!   one built from scratch: each backing memoizes its index per catalog
//!   version and `push_machines` drops the memo, so approx serving on a
//!   grown catalog whose pre-ingest index was memoized matches the same
//!   catalog built at once, bitwise;
//! * `probe_buckets = n_buckets` short-circuits nothing and reproduces the
//!   exact ranking bit for bit;
//! * exact and approx variants of the same request never collide in the
//!   result cache (distinct fingerprint domains).

use datatrans::core::cache::ResultCache;
use datatrans::core::fingerprint::RequestFingerprint;
use datatrans::core::serve::{
    serve_batch, serve_batch_cached, serve_one, AppOfInterest, ApproxConfig, ModelKind,
    RankRequest, RankResponse, ServeConfig, ServeError,
};
use datatrans::dataset::database::PerfDatabase;
use datatrans::dataset::generator::{generate, generate_scaled, DatasetConfig, ScaleConfig};
use datatrans::dataset::query::MachineFilter;
use datatrans::dataset::sharded::ShardedPerfDatabase;
use datatrans::dataset::view::DatabaseView;
use datatrans::parallel::Parallelism;

fn quick_config(parallelism: Parallelism) -> ServeConfig {
    ServeConfig {
        parallelism,
        ..ServeConfig::quick()
    }
}

fn approx_config() -> ApproxConfig {
    ApproxConfig {
        n_components: 2,
        n_buckets: 8,
        probe_buckets: 3,
    }
}

fn base_request() -> RankRequest {
    RankRequest {
        app: AppOfInterest::Suite(2),
        model: ModelKind::NnT,
        predictive: vec![0, 40, 80],
        restrict: MachineFilter::all(),
        top_k: Some(8),
        seed: 5,
        confidence: None,
        approx: None,
    }
}

/// A small batch across all three models, every request on the approx
/// fast path.
fn approx_mix() -> Vec<RankRequest> {
    let approx = Some(approx_config());
    vec![
        RankRequest {
            approx,
            ..base_request()
        },
        RankRequest {
            app: AppOfInterest::Suite(9),
            model: ModelKind::MlpT,
            top_k: Some(5),
            seed: 11,
            approx,
            ..base_request()
        },
        RankRequest {
            app: AppOfInterest::Suite(17),
            model: ModelKind::GaKnn,
            top_k: None,
            seed: 23,
            approx,
            ..base_request()
        },
        RankRequest {
            app: AppOfInterest::Suite(5),
            restrict: MachineFilter::years(2006, 2009),
            approx,
            ..base_request()
        },
    ]
}

/// Unwraps a fault-isolated batch in which every slot must have served.
fn ok_all(slots: Vec<Result<RankResponse, ServeError>>, what: &str) -> Vec<RankResponse> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|e| panic!("{what}: slot {i} failed: {e}")))
        .collect()
}

/// Bitwise comparison of two response slices: ranking, score bits, and
/// the approx annex (`candidates` already reflects post-filter survivors).
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

// ---------------------------------------------------------------------
// Exact mode is frozen
// ---------------------------------------------------------------------

/// Pinned golden for the exact path: if serving an `ApproxConfig = None`
/// request ever moves a bit, this fails loudly.
#[test]
fn exact_requests_match_the_pinned_golden_ranking() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let response = serve_one(&db, &base_request(), &quick_config(Parallelism::Sequential))
        .expect("exact serve");
    assert_eq!(response.candidates, 114);
    assert!(response.approx.is_none(), "exact mode must not carry annex");
    let machines: Vec<usize> = response.ranked.iter().map(|r| r.machine).collect();
    assert_eq!(machines, [81, 69, 82, 54, 70, 55, 83, 100]);
    let bits: Vec<u64> = response
        .ranked
        .iter()
        .map(|r| r.predicted_score.to_bits())
        .collect();
    assert_eq!(
        bits,
        [
            0x403E_AD2A_1DE8_0D1A,
            0x403E_A890_B887_4234,
            0x403E_1573_8D06_54E4,
            0x403D_825C_5E88_7EE2,
            0x403D_179C_25ED_B976,
            0x403C_6C22_5466_4850,
            0x403C_38D7_988B_1020,
            0x403B_F1DF_3394_C638,
        ]
    );
}

// ---------------------------------------------------------------------
// Approx determinism
// ---------------------------------------------------------------------

/// The approx fast path is a pure function of `(request, catalog)`: the
/// same mixed-model batch served on dense and 8-shard backings, at one
/// and four worker threads (plus `Auto`, which honours
/// `DATATRANS_THREADS` — CI pins 1 and 4), in forward and reversed batch
/// order, must agree bitwise with the sequential dense reference.
#[test]
fn approx_is_bitwise_identical_across_threads_backings_and_order() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    let batch = approx_mix();
    let mut reversed = batch.clone();
    reversed.reverse();

    let reference = rankings_only(&ok_all(
        serve_batch(&dense, &batch, &quick_config(Parallelism::Sequential)),
        "sequential dense reference",
    ));
    for response in &reference {
        let annex = response.approx.expect("approx annex present");
        assert!(annex.short_circuited > 0, "pruning actually happened");
    }

    let backings: [(&str, &dyn DatabaseView); 2] = [("dense", &dense), ("sharded8", &sharded)];
    for (backing, view) in backings {
        for parallelism in [
            Parallelism::Auto,
            Parallelism::Threads(1),
            Parallelism::Threads(4),
        ] {
            let config = quick_config(parallelism);
            let what = format!("{backing} @ {parallelism:?}");
            let forward = rankings_only(&ok_all(serve_batch(view, &batch, &config), &what));
            assert_responses_bitwise_eq(&reference, &forward, &what);

            let mut backward = rankings_only(&ok_all(serve_batch(view, &reversed, &config), &what));
            backward.reverse();
            assert_responses_bitwise_eq(&reference, &backward, &format!("{what} reversed"));
        }
    }
}

/// Cache warmth must not move a bit: a cold cached batch equals the
/// uncached serve, and the all-hit warm replay equals the cold pass.
#[test]
fn approx_is_bitwise_identical_across_cache_warmth() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    let batch = approx_mix();
    let config = quick_config(Parallelism::Threads(2));

    let uncached = rankings_only(&ok_all(serve_batch(&sharded, &batch, &config), "uncached"));
    let mut cache = ResultCache::new(32);
    let cold = serve_batch_cached(&sharded, &batch, &config, &mut cache);
    assert_eq!(
        cold.misses,
        batch.len() as u64,
        "cold pass misses everything"
    );
    assert_responses_bitwise_eq(
        &uncached,
        &rankings_only(&ok_all(cold.responses, "cold")),
        "cold vs uncached",
    );
    let warm = serve_batch_cached(&sharded, &batch, &config, &mut cache);
    assert_eq!(warm.hits, batch.len() as u64, "warm pass hits everything");
    assert_responses_bitwise_eq(
        &uncached,
        &rankings_only(&ok_all(warm.responses, "warm")),
        "warm vs uncached",
    );
}

// ---------------------------------------------------------------------
// Ingest: rebuilt index ≡ built from scratch
// ---------------------------------------------------------------------

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

/// Each backing memoizes its bucket index until `push_machines` drops
/// it, so a catalog grown through `push_machines` must serve approx
/// requests bitwise-identically to the same catalog built at once — on
/// both backings, each warmed with the pre-ingest index, and including a
/// cached serve whose pre-ingest entries the version move invalidates.
#[test]
fn index_rebuilt_after_ingest_equals_built_from_scratch() {
    use datatrans::dataset::database::MachineIngest;

    let full = generate_scaled(&ScaleConfig {
        n_machines: 140,
        ..ScaleConfig::default()
    })
    .expect("scaled dataset");
    let tail: Vec<MachineIngest> = (100..full.n_machines())
        .map(|m| MachineIngest {
            machine: full.machines()[m].clone(),
            scores: (0..full.n_benchmarks()).map(|b| full.score(b, m)).collect(),
        })
        .collect();

    let mut grown_dense = prefix_database(&full, 100);
    let mut grown_sharded =
        ShardedPerfDatabase::from_dense(&grown_dense, 4).expect("shardable prefix");

    let request = RankRequest {
        approx: Some(approx_config()),
        ..base_request()
    };
    let config = quick_config(Parallelism::Sequential);

    // Warm a cache and both backings' index memos on the 100-machine
    // prefix, then ingest: the version move must force a fresh evaluation
    // on the grown catalog, against a fresh index.
    let mut cache = ResultCache::new(8);
    let requests = [request.clone()];
    let before = serve_batch_cached(&grown_dense, &requests, &config, &mut cache);
    assert_eq!(before.misses, 1);
    let before_sharded = serve_one(&grown_sharded, &request, &config).expect("prefix sharded");
    assert_responses_bitwise_eq(
        &rankings_only(&ok_all(before.responses, "prefix dense")),
        &rankings_only(&[before_sharded]),
        "prefix dense vs prefix sharded",
    );

    grown_dense.push_machines(&tail).expect("dense ingest");
    grown_sharded.push_machines(&tail).expect("sharded ingest");

    let scratch = serve_one(&full, &request, &config).expect("built-at-once serve");
    let scratch_annex = scratch.approx.expect("annex present");
    assert!(scratch_annex.short_circuited > 0, "pruning happened");

    let on_dense = serve_one(&grown_dense, &request, &config).expect("grown dense serve");
    assert_responses_bitwise_eq(
        &rankings_only(std::slice::from_ref(&scratch)),
        &rankings_only(&[on_dense]),
        "grown dense vs scratch",
    );
    let on_sharded = serve_one(&grown_sharded, &request, &config).expect("grown sharded serve");
    assert_responses_bitwise_eq(
        &rankings_only(std::slice::from_ref(&scratch)),
        &rankings_only(&[on_sharded]),
        "grown sharded vs scratch",
    );

    let after = serve_batch_cached(&grown_dense, &requests, &config, &mut cache);
    assert_eq!(after.misses, 1, "version move invalidated the entry");
    assert_responses_bitwise_eq(
        &rankings_only(&[scratch]),
        &rankings_only(&ok_all(after.responses, "post-ingest cached")),
        "post-ingest cached vs scratch",
    );
}

// ---------------------------------------------------------------------
// Full probe ≡ exact
// ---------------------------------------------------------------------

/// `probe_buckets = n_buckets` keeps every bucket, so nothing is
/// short-circuited and the ranking equals the exact one bit for bit —
/// for a top-k request and for a full ranking.
#[test]
fn probing_every_bucket_reproduces_the_exact_ranking() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let config = quick_config(Parallelism::Sequential);
    for top_k in [Some(8), None] {
        let exact = RankRequest {
            top_k,
            ..base_request()
        };
        let full_probe = RankRequest {
            approx: Some(ApproxConfig {
                n_components: 2,
                n_buckets: 6,
                probe_buckets: 6,
            }),
            ..exact.clone()
        };
        let reference = serve_one(&dense, &exact, &config).expect("exact serve");
        let probed = serve_one(&dense, &full_probe, &config).expect("full-probe serve");
        let annex = probed.approx.expect("annex present");
        assert_eq!(annex.short_circuited, 0, "top_k {top_k:?}");
        assert_responses_bitwise_eq(
            &[reference],
            &[RankResponse {
                approx: None,
                ..probed
            }],
            &format!("full probe, top_k {top_k:?}"),
        );
    }
}

// ---------------------------------------------------------------------
// Cache keying
// ---------------------------------------------------------------------

/// Exact and approx variants of the same request live in distinct
/// fingerprint domains: serving one must never satisfy the other from
/// the cache.
#[test]
fn exact_and_approx_requests_never_collide_in_the_cache() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let exact = base_request();
    let approximate = RankRequest {
        approx: Some(approx_config()),
        ..base_request()
    };
    assert_ne!(
        RequestFingerprint::of(&exact).as_u64(),
        RequestFingerprint::of(&approximate).as_u64(),
        "approx participates in the fingerprint domain"
    );

    let config = quick_config(Parallelism::Sequential);
    let mut cache = ResultCache::new(8);
    let first = serve_batch_cached(&dense, std::slice::from_ref(&exact), &config, &mut cache);
    assert_eq!((first.hits, first.misses), (0, 1));
    let second = serve_batch_cached(
        &dense,
        std::slice::from_ref(&approximate),
        &config,
        &mut cache,
    );
    assert_eq!(
        (second.hits, second.misses),
        (0, 1),
        "an exact entry must not answer an approx request"
    );
    let third = serve_batch_cached(&dense, &[exact, approximate], &config, &mut cache);
    assert_eq!((third.hits, third.misses), (2, 0), "both now cached");
}
