//! Seeded inputs: the catalog, the three workloads' request streams, the
//! open-loop arrival schedule and the ingest growth schedule.
//!
//! Every request is a pure function of `(seed, stream tag, position)`, so
//! a stream can be regenerated anywhere (load generator, expected-answer
//! pass, traced replay) and the same seed always gives the same inputs.
//! Request kinds follow fixed position patterns rather than coin flips, so
//! every seed offers the same mix and only the details (applications,
//! predictive sets, restriction parameters, arrival gaps) move.

use datatrans_core::serve::{
    AppOfInterest, ApproxConfig, ConfidenceConfig, ModelKind, RankRequest,
};
use datatrans_dataset::database::MachineIngest;
use datatrans_dataset::generator::{generate_scaled, synthesize_ingest, ScaleConfig};
use datatrans_dataset::machine::ProcessorFamily;
use datatrans_dataset::query::MachineFilter;
use datatrans_dataset::sharded::ShardedPerfDatabase;
use datatrans_dataset::view::DatabaseView;
use datatrans_dataset::workload_synth::{synthesize, WorkloadProfile};
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, RngCore, SeedableRng};

/// Storage shards of every workload's backing.
pub const SHARDS: usize = 8;

/// Approx parameters of the wire workloads (the `synth_requests` pair).
pub const APPROX_A: ApproxConfig = ApproxConfig {
    n_components: 2,
    n_buckets: 8,
    probe_buckets: 3,
};

/// The second approx pair `ingest_engine` mixes in, so every pass builds
/// two bucket indexes.
pub const APPROX_B: ApproxConfig = ApproxConfig {
    n_components: 4,
    n_buckets: 16,
    probe_buckets: 6,
};

/// Fewest candidate targets a generated restriction may leave.
const MIN_CANDIDATES: usize = 5;

/// Stream tags: each stream draws from its own seed domain.
const TAG_COLD: u64 = 0xC01D_5CA1_E000_0001;
const TAG_HOT: u64 = 0x4077_5E70_0000_0002;
const TAG_GAKNN: u64 = 0x6A4E_4E00_0000_0003;
const TAG_HOT_PICK: u64 = 0x4077_91C4_0000_0004;
const TAG_FRESH: u64 = 0xF5E5_4000_0000_0005;
const TAG_WORKING: u64 = 0x3012_4140_0000_0006;
const TAG_INGEST: u64 = 0x1A6E_5700_0000_0007;
const TAG_ARRIVALS: u64 = 0xA221_7A15_0000_0008;

/// The shipped 1k-machine scale catalog on [`SHARDS`] shards.
///
/// # Panics
///
/// Panics if the default scale configuration stops generating, which is
/// a broken build of the engine, not a benchmark input.
pub fn build_catalog() -> ShardedPerfDatabase {
    let dense = generate_scaled(&ScaleConfig::default()).expect("default scale catalog generates");
    ShardedPerfDatabase::from_dense(&dense, SHARDS).expect("8 shards fit 1000 machines")
}

/// SplitMix64 finalizer: decorrelates `(seed, tag, position)` triples.
fn mix(seed: u64, tag: u64, position: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(position.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng(seed: u64, tag: u64, position: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, tag, position))
}

/// How a request is expected to meet the server's result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A repeat of a request warmed during set-up: must hit.
    Hit,
    /// A request never seen before: must miss.
    Miss,
}

/// The restriction shapes of `synth_requests`.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Family,
    Years,
    MinScore,
    All,
}

const SHAPES: [Shape; 4] = [Shape::Family, Shape::Years, Shape::MinScore, Shape::All];

/// 5–8 distinct predictive machines spread over the catalog.
fn predictive_set(rng: &mut StdRng, n_machines: usize) -> Vec<usize> {
    let count = rng.gen_range(5..9);
    let mut set: Vec<usize> = Vec::with_capacity(count);
    while set.len() < count {
        let m = rng.gen_range(0..n_machines);
        if !set.contains(&m) {
            set.push(m);
        }
    }
    set
}

/// A suite application (leave-one-out) or a profiled external one, half
/// and half by position.
fn application<D: DatabaseView + ?Sized>(
    rng: &mut StdRng,
    db: &D,
    position: usize,
) -> AppOfInterest {
    if position % 2 == 0 {
        AppOfInterest::Suite(rng.gen_range(0..db.n_benchmarks()))
    } else {
        let profile = WorkloadProfile::ALL[rng.gen_range(0..WorkloadProfile::ALL.len())];
        AppOfInterest::External(synthesize(profile, rng.next_u64()))
    }
}

/// Candidate targets `filter` leaves once the predictive set is excluded.
fn candidates<D: DatabaseView + ?Sized>(
    db: &D,
    filter: &MachineFilter,
    predictive: &[usize],
) -> usize {
    db.plan_machines(filter)
        .machines
        .iter()
        .filter(|m| !predictive.contains(m))
        .count()
}

/// Shares of the catalog a min-score restriction keeps, cycled by
/// position so every seed offers the same spread of candidate counts.
const KEEP_SHARES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// The score threshold on benchmark `b` that the best `keep` machines
/// meet.
fn top_threshold<D: DatabaseView + ?Sized>(db: &D, b: usize, keep: usize) -> f64 {
    let mut scores: Vec<f64> = (0..db.n_machines()).map(|m| db.score(b, m)).collect();
    scores.sort_by(|x, y| y.total_cmp(x));
    scores[keep.clamp(1, scores.len()) - 1]
}

/// A restriction of the given shape. Its parameters cycle with `stratum`
/// rather than being drawn, so the candidate counts — and with them the
/// cost of serving — are the same under every seed, even for small sets
/// such as a working set; only the benchmark a min-score clause reads is
/// drawn. A restriction leaving fewer than [`MIN_CANDIDATES`] candidates
/// falls back to the whole catalog.
fn restriction<D: DatabaseView + ?Sized>(
    rng: &mut StdRng,
    db: &D,
    shape: Shape,
    stratum: usize,
    predictive: &[usize],
) -> MachineFilter {
    let filter = match shape {
        Shape::Family => {
            MachineFilter::family(ProcessorFamily::ALL[stratum % ProcessorFamily::ALL.len()])
        }
        Shape::Years => {
            let lo = 2004 + (stratum % 5) as u16;
            MachineFilter::years(lo, lo + 1)
        }
        Shape::MinScore => {
            let b = rng.gen_range(0..db.n_benchmarks());
            let keep = (KEEP_SHARES[stratum % KEEP_SHARES.len()] * db.n_machines() as f64) as usize;
            MachineFilter::all().with_min_score(b, top_threshold(db, b, keep))
        }
        Shape::All => MachineFilter::all(),
    };
    if candidates(db, &filter, predictive) >= MIN_CANDIDATES {
        filter
    } else {
        MachineFilter::all()
    }
}

/// Candidate counts a GA-kNN restriction aims at.
const GAKNN_CANDIDATES: std::ops::RangeInclusive<usize> = 20..=40;

/// A GA-kNN restriction leaving about [`GAKNN_CANDIDATES`] machines, so
/// every miss costs about the same: a small family, a large family in one
/// release year, or the top of one benchmark's scores — the family, years
/// and min-score shapes, narrowed. Parameters cycle by `stratum`.
fn gaknn_restriction<D: DatabaseView + ?Sized>(
    rng: &mut StdRng,
    db: &D,
    shape: usize,
    stratum: usize,
    predictive: &[usize],
) -> MachineFilter {
    let mut families: Vec<ProcessorFamily> = Vec::new();
    let mut family_years: Vec<(ProcessorFamily, u16)> = Vec::new();
    for family in ProcessorFamily::ALL {
        let members = db.machines_in_family(family);
        if GAKNN_CANDIDATES.contains(&members.len()) {
            families.push(family);
        }
        let mut years: Vec<u16> = members.iter().map(|&m| db.machines()[m].year).collect();
        years.sort_unstable();
        years.dedup();
        for year in years {
            let n = members
                .iter()
                .filter(|&&m| db.machines()[m].year == year)
                .count();
            if GAKNN_CANDIDATES.contains(&n) {
                family_years.push((family, year));
            }
        }
    }
    let filter = match shape % 3 {
        0 if !families.is_empty() => MachineFilter::family(families[stratum % families.len()]),
        1 if !family_years.is_empty() => {
            let (family, year) = family_years[stratum % family_years.len()];
            MachineFilter::family(family).with_years(year, year)
        }
        _ => {
            let b = rng.gen_range(0..db.n_benchmarks());
            let keep = [24, 32, 40][stratum % 3];
            MachineFilter::all().with_min_score(b, top_threshold(db, b, keep))
        }
    };
    if candidates(db, &filter, predictive) >= MIN_CANDIDATES {
        filter
    } else {
        let b = rng.gen_range(0..db.n_benchmarks());
        MachineFilter::all().with_min_score(b, top_threshold(db, b, 32))
    }
}

/// A distinct NNᵀ/MLPᵀ request: model alternates, shape cycles, and fixed
/// positions carry an approx or confidence annex.
fn exact_model_request<D: DatabaseView + ?Sized>(
    db: &D,
    seed: u64,
    tag: u64,
    position: usize,
    approx_pairs: &[ApproxConfig],
) -> RankRequest {
    let mut rng = rng(seed, tag, position as u64);
    let predictive = predictive_set(&mut rng, db.n_machines());
    let shape = SHAPES[position / 2 % SHAPES.len()];
    let stratum = position / 8;
    let restrict = restriction(&mut rng, db, shape, stratum, &predictive);
    let app = application(&mut rng, db, position / 8);
    let approx = match position % 8 {
        5 => approx_pairs.first().copied(),
        7 => approx_pairs.get(1).copied(),
        _ => None,
    };
    // Confidence rides on the family shape (position / 2 % 4 == 0): its
    // bootstrap grows with the candidate count, and on the whole catalog
    // one request would cost as much as a dozen plain ones.
    let confidence = (position % 16 == 1).then(ConfidenceConfig::default);
    RankRequest {
        app,
        model: if position % 2 == 0 {
            ModelKind::NnT
        } else {
            ModelKind::MlpT
        },
        predictive,
        restrict,
        top_k: Some(10),
        seed: mix(seed, tag, u64::MAX).wrapping_add(position as u64),
        confidence,
        approx,
    }
}

/// `cold_scale` request at `position`: always distinct, always a miss.
pub fn cold_request<D: DatabaseView + ?Sized>(db: &D, seed: u64, position: usize) -> RankRequest {
    exact_model_request(db, seed, TAG_COLD, position, &[APPROX_A])
}

/// Size of `mixed_scale`'s hot set.
pub const HOT_SET: usize = 32;

/// One in this many `mixed_scale` requests is a GA-kNN miss. Odd, so both
/// connections carry misses. At one in 21 the GA-kNN passes and the
/// windows kept the single batcher so busy that a slower spell of a
/// shared host tipped most hits into queueing (hit p50 from 3 to 8 ms
/// between runs of unchanged code).
pub const MIXED_MISS_EVERY: usize = 41;

/// `mixed_scale`'s hot set, warmed during set-up: plain NNᵀ/MLPᵀ
/// requests that every later repeat finds in the cache.
pub fn hot_set<D: DatabaseView + ?Sized>(db: &D, seed: u64) -> Vec<RankRequest> {
    (0..HOT_SET)
        .map(|i| {
            let mut request = exact_model_request(db, seed, TAG_HOT, i, &[]);
            request.confidence = None;
            request
        })
        .collect()
}

/// A distinct GA-kNN request under a narrowed restriction.
fn gaknn_request<D: DatabaseView + ?Sized>(db: &D, seed: u64, position: usize) -> RankRequest {
    let mut rng = rng(seed, TAG_GAKNN, position as u64);
    let predictive = predictive_set(&mut rng, db.n_machines());
    let stratum = position / 3;
    let restrict = gaknn_restriction(&mut rng, db, position, stratum, &predictive);
    let app = application(&mut rng, db, position / 3);
    RankRequest {
        app,
        model: ModelKind::GaKnn,
        predictive,
        restrict,
        top_k: Some(10),
        seed: mix(seed, TAG_GAKNN, u64::MAX).wrapping_add(position as u64),
        confidence: None,
        approx: None,
    }
}

/// `mixed_scale` request at `position`: every [`MIXED_MISS_EVERY`]-th is
/// a distinct GA-kNN miss, the rest repeat a hot-set entry.
pub fn mixed_request<D: DatabaseView + ?Sized>(
    db: &D,
    hot: &[RankRequest],
    seed: u64,
    position: usize,
) -> (RankRequest, Class) {
    if position % MIXED_MISS_EVERY == MIXED_MISS_EVERY / 2 {
        (
            gaknn_request(db, seed, position / MIXED_MISS_EVERY),
            Class::Miss,
        )
    } else {
        let pick = rng(seed, TAG_HOT_PICK, position as u64).gen_range(0..hot.len());
        (hot[pick].clone(), Class::Hit)
    }
}

/// Requests per `ingest_engine` batch.
pub const INGEST_BATCH: usize = 12;

/// Batches per `ingest_engine` epoch (the growth schedule restarts from
/// the base catalog each epoch).
pub const INGEST_EPOCH_BATCHES: usize = 64;

/// A write follows every this many batches.
pub const INGEST_WRITE_EVERY: usize = 4;

/// Machines per write.
pub const INGEST_MACHINES: usize = 16;

/// Tail-shard split width: the base shards hold 125 machines, so the tail
/// splits once per epoch, on its ninth write (125 + 9 x 16 > 260). One
/// write in sixteen splits, so the write p90 stays inside the ordinary
/// appends instead of straddling the two kinds.
pub const INGEST_SPLIT_WIDTH: usize = 260;

/// Working-set entries repeats are drawn from: small enough that most
/// repeats between two writes hit.
pub const WORKING_SET: usize = 24;

/// One `ingest_engine` epoch: the batches in order, and the ingest batch
/// written after every [`INGEST_WRITE_EVERY`]-th batch.
pub struct IngestEpoch {
    /// `batches[b]` are the requests of batch `b`.
    pub batches: Vec<Vec<RankRequest>>,
    /// `writes[w]` is pushed after batch `(w + 1) * INGEST_WRITE_EVERY - 1`.
    pub writes: Vec<Vec<MachineIngest>>,
}

impl IngestEpoch {
    /// The write that follows batch `b`, if any.
    pub fn write_after(&self, b: usize) -> Option<&[MachineIngest]> {
        if (b + 1) % INGEST_WRITE_EVERY == 0 {
            self.writes.get(b / INGEST_WRITE_EVERY).map(Vec::as_slice)
        } else {
            None
        }
    }
}

/// The `ingest_engine` epoch: half of every batch repeats a working-set
/// entry, the other half is fresh; both halves mix NNᵀ/MLPᵀ, the two
/// approx pairs and confidence requests.
///
/// # Panics
///
/// Panics if synthesizing an ingest batch fails, which the fixed valid
/// parameters rule out.
pub fn ingest_epoch<D: DatabaseView + ?Sized>(db: &D, seed: u64) -> IngestEpoch {
    let pairs = [APPROX_A, APPROX_B];
    let working: Vec<RankRequest> = (0..WORKING_SET)
        .map(|i| exact_model_request(db, seed, TAG_WORKING, i, &pairs))
        .collect();
    let batches = (0..INGEST_EPOCH_BATCHES)
        .map(|b| {
            (0..INGEST_BATCH)
                .map(|j| {
                    let position = b * INGEST_BATCH + j;
                    if position % 2 == 0 {
                        let pick =
                            rng(seed, TAG_HOT_PICK, position as u64).gen_range(0..WORKING_SET);
                        working[pick].clone()
                    } else {
                        exact_model_request(db, seed, TAG_FRESH, position / 2, &pairs)
                    }
                })
                .collect()
        })
        .collect();
    let writes = (0..INGEST_EPOCH_BATCHES / INGEST_WRITE_EVERY)
        .map(|w| {
            synthesize_ingest(
                mix(seed, TAG_INGEST, w as u64),
                db.benchmarks(),
                INGEST_MACHINES,
                0.015,
            )
            .expect("fixed ingest parameters are valid")
        })
        .collect();
    IngestEpoch { batches, writes }
}

/// A seeded Poisson arrival schedule: `count` send times (seconds from
/// the phase start) at `rate` requests per second.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = rng(seed, TAG_ARRIVALS, 0);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            // 1 - U lies in (0, 1], so the logarithm is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_has_the_asked_rate() {
        let a = poisson_schedule(7, 100.0, 5000);
        assert_eq!(a, poisson_schedule(7, 100.0, 5000));
        assert_ne!(a, poisson_schedule(8, 100.0, 5000));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 100.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn streams_are_deterministic_distinct_and_classed_by_position() {
        let db = build_catalog();
        let a: Vec<RankRequest> = (0..48).map(|i| cold_request(&db, 3, i)).collect();
        let b: Vec<RankRequest> = (0..48).map(|i| cold_request(&db, 3, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], cold_request(&db, 4, 0));
        for (i, r) in a.iter().enumerate() {
            assert!(a[..i].iter().all(|q| q != r), "request {i} repeats");
            assert!((5..=8).contains(&r.predictive.len()));
            assert_eq!(r.approx.is_some(), i % 8 == 5);
            assert_eq!(r.confidence.is_some(), i % 16 == 1);
            assert_ne!(r.model, ModelKind::GaKnn);
        }
        let hot = hot_set(&db, 3);
        let mut misses = Vec::new();
        for i in 0..100 {
            let (request, class) = mixed_request(&db, &hot, 3, i);
            match class {
                Class::Hit => assert!(hot.contains(&request)),
                Class::Miss => {
                    misses.push(i);
                    assert_eq!(request.model, ModelKind::GaKnn);
                    let n = candidates(&db, &request.restrict, &request.predictive);
                    assert!(
                        (MIN_CANDIDATES..=*GAKNN_CANDIDATES.end()).contains(&n),
                        "{n} candidates"
                    );
                }
            }
        }
        let expected = (0..100).filter(|p| p % MIXED_MISS_EVERY == MIXED_MISS_EVERY / 2);
        assert_eq!(misses.len(), expected.count());
        // Both load-generator connections (even and odd positions) carry
        // misses.
        assert!(misses.iter().any(|i| i % 2 == 0) && misses.iter().any(|i| i % 2 == 1));
    }

    #[test]
    fn ingest_epoch_is_deterministic_and_writes_on_schedule() {
        let db = build_catalog();
        let a = ingest_epoch(&db, 11);
        let b = ingest_epoch(&db, 11);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.writes.len(), INGEST_EPOCH_BATCHES / INGEST_WRITE_EVERY);
        assert!(a.write_after(0).is_none());
        assert_eq!(
            a.write_after(INGEST_WRITE_EVERY - 1).map(<[_]>::len),
            Some(INGEST_MACHINES)
        );
        let flat: Vec<&RankRequest> = a.batches.iter().flatten().collect();
        assert!(flat.iter().any(|r| r.approx == Some(APPROX_A)));
        assert!(flat.iter().any(|r| r.approx == Some(APPROX_B)));
        assert!(flat.iter().any(|r| r.confidence.is_some()));
    }
}
