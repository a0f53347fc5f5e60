//! Micro-benchmarks of the numerical kernels underpinning the pipeline:
//! the three predictors on one task, dataset generation, Spearman,
//! k-medoids, QR least squares, MLP training, the GA-kNN fitness loop,
//! top-k neighbour selection vs a full sort, the blocked GEMV kernel vs
//! the scalar loop it replaced, the unrolled lane-tree kernels vs their
//! scalar references (`gemv_unrolled`), the cache-tiled sq-diff builder vs
//! the naive double loop (`sqdiff_tiled`), the fused scale+clamp pass vs
//! two passes (`scale_fused`), MLPᵀ batch prediction sequential vs
//! pooled, the persistent pool vs per-call scoped spawning at
//! GA-generation granularity, the parallel executor's thread scaling, and
//! the database layer at scale: point queries/gathers (`db_query`) and
//! row/shard scans (`db_shard_scan`) on a 1k-machine catalog, dense vs
//! sharded, plus the serving layer: the batched ranking-query front end
//! (`query_batch`), dense vs sharded-with-pruning, the versioned result
//! cache cold vs warm (`serve_cache`), streaming machine ingest with
//! tail-shard splitting (`db_ingest`), bootstrap rank-confidence
//! intervals sequential vs pooled (`rank_ci`), the serving path with
//! the confidence annex enabled vs plain (`serve_noisy`), the TCP
//! front end's warm loopback round trip vs warm in-process serving
//! (`net_serve`) — the gap prices the wire protocol, the reader's cache
//! lookup, and the socket hop — the PCA-bucketed approximate fast path vs exact
//! serving on the 1k-machine catalog (`serve_approx`), and the PCA
//! fit/projection kernels behind the bucket index (`pca_project`).

use datatrans_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datatrans_bench::{bench_database, bench_scaled_database, bench_sharded_database, bench_task};
use datatrans_core::cache::ResultCache;
use datatrans_core::model::{GaKnn, GaKnnConfig, MlpT, NnT, Predictor};
use datatrans_core::serve::{
    serve_batch, serve_batch_cached, AppOfInterest, ApproxConfig, ConfidenceConfig, ModelKind,
    RankRequest, ServeConfig,
};
use datatrans_dataset::generator::{generate, synthesize_ingest, DatasetConfig, NoiseConfig};
use datatrans_dataset::machine::ProcessorFamily;
use datatrans_dataset::query::MachineFilter;
use datatrans_dataset::sharded::ShardedPerfDatabase;
use datatrans_dataset::view::DatabaseView;
use datatrans_experiments::serve::synth_requests;
use datatrans_linalg::{solve::lstsq, Matrix};
use datatrans_ml::cluster::{k_medoids, KMedoidsConfig};
use datatrans_ml::ga::{GaConfig, GeneticAlgorithm};
use datatrans_ml::knn::{select_k_nearest, KnnIndex, Neighbor};
use datatrans_ml::mlp::{MlpConfig, MlpRegressor};
use datatrans_ml::pca::Pca;
use datatrans_parallel::Parallelism;
use datatrans_serve_net::protocol::{render_result, write_request};
use datatrans_serve_net::server::{NetServer, NetServerConfig};
use datatrans_stats::correlation::spearman;
use datatrans_stats::rank::bootstrap_rank_confidence;

fn bench_predictors(c: &mut Criterion) {
    let db = bench_database();
    let task = bench_task(&db);

    let mut group = c.benchmark_group("predictors");
    group.sample_size(10);
    group.bench_function("nnt_predict", |b| {
        let nnt = NnT::default();
        b.iter(|| std::hint::black_box(nnt.predict(&task).expect("nnt")))
    });
    group.bench_function("mlpt_predict_500_epochs", |b| {
        let mlpt = MlpT::default();
        b.iter(|| std::hint::black_box(mlpt.predict(&task).expect("mlpt")))
    });
    group.bench_function("gaknn_predict_32x40", |b| {
        let gaknn = GaKnn {
            config: GaKnnConfig {
                ga: GaConfig {
                    population: 32,
                    generations: 40,
                    // Single-thread kernel measurement; threading is
                    // covered by the parallel_scaling group.
                    parallelism: Parallelism::Sequential,
                    ..GaConfig::default_seeded(0)
                },
                ..GaKnnConfig::default()
            },
        };
        b.iter(|| std::hint::black_box(gaknn.predict(&task).expect("gaknn")))
    });
    group.finish();
}

fn bench_substrates(c: &mut Criterion) {
    let db = bench_database();

    let mut group = c.benchmark_group("substrates");
    group.bench_function("dataset_generate_29x117", |b| {
        b.iter(|| {
            let db = generate(&DatasetConfig::default()).expect("generates");
            std::hint::black_box(db.n_machines())
        })
    });
    group.bench_function("spearman_117", |b| {
        let xs: Vec<f64> = (0..117)
            .map(|i| (i as f64 * 0.7).sin() * 50.0 + 60.0)
            .collect();
        let ys: Vec<f64> = (0..117)
            .map(|i| (i as f64 * 0.7 + 0.3).sin() * 45.0 + 55.0)
            .collect();
        b.iter(|| std::hint::black_box(spearman(&xs, &ys).expect("spearman")))
    });
    group.bench_function("kmedoids_117_k5", |b| {
        let points = Matrix::from_fn(db.n_machines(), db.n_benchmarks(), |m, bench| {
            db.score(bench, m).ln()
        });
        b.iter(|| {
            std::hint::black_box(k_medoids(&points, &KMedoidsConfig::new(5, 7)).expect("kmedoids"))
        })
    });
    group.bench_function("qr_lstsq_100x10", |b| {
        let a = Matrix::from_fn(100, 10, |i, j| ((i * 13 + j * 7) % 23) as f64 - 11.0);
        let rhs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).cos() * 10.0).collect();
        b.iter(|| std::hint::black_box(lstsq(&a, &rhs).expect("lstsq")))
    });
    group.bench_function("mlp_fit_100x28", |b| {
        let x = Matrix::from_fn(100, 28, |i, j| ((i + j) % 17) as f64 / 17.0);
        let y: Vec<f64> = (0..100).map(|i| (i % 13) as f64 / 13.0).collect();
        let config = MlpConfig {
            epochs: 100,
            ..MlpConfig::weka_default(3)
        };
        b.iter(|| std::hint::black_box(MlpRegressor::fit(&x, &y, &config).expect("fit")))
    });
    group.finish();
}

/// The GA-kNN fitness loop in isolation: a GA over a synthetic
/// leave-one-out-style objective whose cost per genome matches the real
/// `loo_error` shape (b benchmarks × d characteristic dims).
fn bench_ga_fitness(c: &mut Criterion) {
    let b = 28;
    let d = 24;
    // Synthetic standardized pairwise squared differences, row i*b+j.
    let sq_diffs = Matrix::from_fn(b * b, d, |r, dim| {
        (((r * 31 + dim * 7) % 17) as f64) * 0.125
    });
    let loo_like = move |weights: &[f64]| -> f64 {
        let mut total = 0.0;
        for held in 0..b {
            let mut best = f64::INFINITY;
            for other in 0..b {
                if other == held {
                    continue;
                }
                let dist: f64 = (0..d)
                    .map(|dim| weights[dim] * sq_diffs[(held * b + other, dim)])
                    .sum();
                best = best.min(dist);
            }
            total += best.sqrt();
        }
        -total
    };

    let mut group = c.benchmark_group("ga_fitness");
    group.sample_size(10);
    group.bench_function("loo_like_32x20_seq", |bch| {
        let config = GaConfig {
            population: 32,
            generations: 20,
            parallelism: Parallelism::Sequential,
            ..GaConfig::default_seeded(5)
        };
        let ga = GeneticAlgorithm::new(d, (0.0, 1.0), config).expect("ga");
        bch.iter(|| std::hint::black_box(ga.run(&loo_like).best_fitness))
    });
    group.bench_function("gaknn_predict_16x10", |bch| {
        let db = bench_database();
        let task = bench_task(&db);
        let gaknn = GaKnn {
            config: GaKnnConfig {
                ga: GaConfig {
                    population: 16,
                    generations: 10,
                    parallelism: Parallelism::Sequential,
                    ..GaConfig::default_seeded(0)
                },
                ..GaKnnConfig::default()
            },
        };
        bch.iter(|| std::hint::black_box(gaknn.predict(&task).expect("gaknn")))
    });
    group.finish();
}

/// Top-k selection (`select_nth_unstable_by` + sort of the k survivors)
/// against the full `sort_by` it replaced, at the b values the GA-kNN
/// leave-one-out loop sees and above.
fn bench_knn_topk(c: &mut Criterion) {
    let k = 10;
    let mut group = c.benchmark_group("knn_topk");
    group.sample_size(30);
    for b in [64usize, 256, 1024] {
        let make = || -> Vec<Neighbor> {
            (0..b)
                .map(|i| Neighbor {
                    index: i,
                    distance: (((i * 2654435761) % 1_000_003) as f64) * 1e-6,
                })
                .collect()
        };
        group.bench_with_input(BenchmarkId::new("topk", b), &b, |bch, _| {
            bch.iter(|| {
                let mut n = make();
                select_k_nearest(&mut n, k);
                std::hint::black_box(n.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("fullsort", b), &b, |bch, _| {
            bch.iter(|| {
                let mut n = make();
                n.sort_by(|a, b| {
                    a.distance
                        .total_cmp(&b.distance)
                        .then(a.index.cmp(&b.index))
                });
                n.truncate(k);
                std::hint::black_box(n.len())
            })
        });
    }
    // The same comparison on the real query path.
    let points = Matrix::from_fn(256, 16, |i, j| (((i * 29 + j * 13) % 101) as f64) * 0.07);
    let index = KnnIndex::fit(points).expect("index");
    let query: Vec<f64> = (0..16).map(|j| (j as f64 * 0.41).cos() * 3.0).collect();
    group.bench_function("knn_index_nearest_b256_k10", |bch| {
        bch.iter(|| std::hint::black_box(index.nearest(&query, k).expect("nearest")))
    });
    group.finish();
}

/// The blocked GEMV kernel (`Matrix::mul_vec_into`) against the scalar
/// per-row loop it replaced on the GA-kNN fitness path, at the row counts
/// the leave-one-out loop sees and above.
fn bench_gemv(c: &mut Criterion) {
    let d = 32;
    let mut group = c.benchmark_group("gemv");
    group.sample_size(30);
    for b in [64usize, 256, 1024] {
        let m = Matrix::from_fn(b, d, |i, j| (((i * 31 + j * 7) % 23) as f64) * 0.125);
        let v: Vec<f64> = (0..d).map(|j| ((j * 13 % 11) as f64) * 0.09).collect();
        group.bench_with_input(BenchmarkId::new("mul_vec_into", b), &b, |bch, _| {
            let mut out = vec![0.0; b];
            bch.iter(|| {
                m.mul_vec_into(&v, &mut out).expect("shapes fixed");
                std::hint::black_box(out[b - 1])
            })
        });
        group.bench_with_input(BenchmarkId::new("scalar_rows", b), &b, |bch, _| {
            let mut out = vec![0.0; b];
            bch.iter(|| {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = m.row(i).iter().zip(&v).map(|(a, x)| a * x).sum();
                }
                std::hint::black_box(out[b - 1])
            })
        });
    }
    group.finish();
}

/// The unrolled lane-tree GEMV against its scalar reference at the gated
/// row count (b = 1024, the largest fitness-path shape). Both sides reduce
/// over the same fixed 4-lane summation tree — `scalar_ref` is
/// `kernels::dot_ref` per row, the bitwise-equal specification the
/// unrolled path is tested against — so the comparison isolates the
/// unrolling itself, not a summation-order change. `scalar_seq` (the plain
/// sequential sum) rides along for context and is not gated.
fn bench_gemv_unrolled(c: &mut Criterion) {
    use datatrans_linalg::kernels;
    let (b, d) = (1024usize, 32usize);
    let m = Matrix::from_fn(b, d, |i, j| (((i * 31 + j * 7) % 23) as f64) * 0.125);
    let v: Vec<f64> = (0..d).map(|j| ((j * 13 % 11) as f64) * 0.09).collect();
    let mut group = c.benchmark_group("gemv_unrolled");
    group.sample_size(60);
    group.bench_function("unrolled_1024", |bch| {
        let mut out = vec![0.0; b];
        bch.iter(|| {
            m.mul_vec_into(&v, &mut out).expect("shapes fixed");
            std::hint::black_box(out[b - 1])
        })
    });
    group.bench_function("scalar_ref_1024", |bch| {
        let mut out = vec![0.0; b];
        bch.iter(|| {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = kernels::dot_ref(m.row(i), &v);
            }
            std::hint::black_box(out[b - 1])
        })
    });
    group.bench_function("scalar_seq_1024", |bch| {
        let mut out = vec![0.0; b];
        bch.iter(|| {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = m.row(i).iter().zip(&v).map(|(a, x)| a * x).sum();
            }
            std::hint::black_box(out[b - 1])
        })
    });
    group.finish();
}

/// The cache-tiled pairwise squared-difference builder against the naive
/// mirror-writing double loop it replaced, at a row count above the
/// 32-row tile edge (GA-kNN's real b is 28; 64 exercises full tiles).
fn bench_sqdiff_tiled(c: &mut Criterion) {
    use datatrans_linalg::kernels;
    let (b, d) = (64usize, 24usize);
    let chars = Matrix::from_fn(b, d, |i, j| (((i * 29 + j * 13) % 19) as f64) * 0.21);
    let mut group = c.benchmark_group("sqdiff_tiled");
    group.sample_size(30);
    group.bench_function("tiled_64x24", |bch| {
        bch.iter(|| std::hint::black_box(kernels::pairwise_sq_diffs(&chars).as_slice()[d]))
    });
    group.bench_function("naive_64x24", |bch| {
        bch.iter(|| std::hint::black_box(kernels::pairwise_sq_diffs_ref(&chars).as_slice()[d]))
    });
    group.finish();
}

/// The fused in-place scale+clamp kernel against the two separate passes
/// it replaces on the MLPᵀ prediction clamp stage.
fn bench_scale_fused(c: &mut Criterion) {
    use datatrans_linalg::kernels;
    let n = 4096usize;
    let base: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) * 0.11 - 4.0).collect();
    let mut group = c.benchmark_group("scale_fused");
    group.sample_size(60);
    group.bench_function("fused_4096", |bch| {
        let mut buf = base.clone();
        bch.iter(|| {
            buf.copy_from_slice(&base);
            kernels::scale_clamp_in_place(&mut buf, 1.7, -3.0, 3.0);
            std::hint::black_box(buf[n - 1])
        })
    });
    group.bench_function("two_pass_4096", |bch| {
        let mut buf = base.clone();
        bch.iter(|| {
            buf.copy_from_slice(&base);
            for x in buf.iter_mut() {
                *x *= 1.7;
            }
            for x in buf.iter_mut() {
                *x = x.clamp(-3.0, 3.0);
            }
            std::hint::black_box(buf[n - 1])
        })
    });
    group.finish();
}

/// MLPᵀ batch prediction with the per-target loop sequential vs fanned out
/// over the persistent pool. The fit cost is shared (reduced epochs keep
/// it from drowning the predict loop); only the per-target forward passes
/// differ. Like `parallel_scaling`, the pooled numbers only beat
/// sequential on multi-core hardware — on a single-core container the
/// dispatch overhead shows up as a small slowdown.
fn bench_mlpt_predict(c: &mut Criterion) {
    println!(
        "(note: the pooled/threaded groups below measure dispatch overhead honestly \
         but only show speedups on multi-core hardware; a single-core container shows none)"
    );
    let db = bench_database();
    let task = bench_task(&db);
    let mut group = c.benchmark_group("mlpt_predict");
    group.sample_size(10);
    let variants: [(&str, Parallelism); 2] = [
        ("sequential", Parallelism::Sequential),
        ("pool_4", Parallelism::Threads(4)),
    ];
    for (name, parallelism) in variants {
        group.bench_function(name, |bch| {
            let mlpt = MlpT {
                config: MlpConfig {
                    epochs: 50,
                    ..MlpConfig::weka_default(0)
                },
                parallelism,
                ..MlpT::default()
            };
            bch.iter(|| std::hint::black_box(mlpt.predict(&task).expect("mlpt")))
        });
    }
    group.finish();
}

/// Per-call scoped spawning, as `par_map` worked before the persistent
/// pool: the baseline for `bench_executor`.
fn scoped_par_map<U: Send>(threads: usize, n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench worker"))
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

/// Dispatch overhead at GA-generation granularity: one call maps a
/// 32-genome population's worth of fitness-sized work items, comparing the
/// persistent pool (two channel messages per worker per call) against
/// fresh scoped threads per call (spawn + join per worker per call). The
/// work per item is fixed, so the gap between the two IS the per-call
/// spawn cost a GA run pays once per generation. Thread-spawn latency
/// exists on any hardware, so the pool should win here even on a
/// single-core container.
fn bench_executor(c: &mut Criterion) {
    let population = 32;
    let threads = 2;
    // Roughly one cheap fitness evaluation's worth of arithmetic.
    let work = |i: usize| -> f64 {
        let mut acc = i as f64;
        for k in 0..2_000 {
            acc += ((k as f64) * 1e-3).sin();
        }
        acc
    };
    let mut group = c.benchmark_group("executor");
    group.sample_size(30);
    group.bench_function("pool_generation_2x32", |bch| {
        let p = Parallelism::Threads(threads);
        bch.iter(|| std::hint::black_box(p.par_map_indexed(1, population, work)))
    });
    group.bench_function("scoped_generation_2x32", |bch| {
        bch.iter(|| std::hint::black_box(scoped_par_map(threads, population, work)))
    });
    group.finish();
}

/// GA-kNN fitness evaluation at 1/2/4 worker threads. On multi-core
/// hardware the 4-thread run should be at least ~2× the 1-thread run;
/// `Threads(1)` resolves to the inline sequential path, so the comparison
/// includes zero spawn overhead on the baseline.
fn bench_parallel_scaling(c: &mut Criterion) {
    let db = bench_database();
    let task = bench_task(&db);
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("gaknn_fitness_threads", threads),
            &threads,
            |bch, &threads| {
                let gaknn = GaKnn {
                    config: GaKnnConfig {
                        ga: GaConfig {
                            population: 32,
                            generations: 10,
                            parallelism: Parallelism::Threads(threads),
                            ..GaConfig::default_seeded(0)
                        },
                        ..GaKnnConfig::default()
                    },
                };
                bch.iter(|| std::hint::black_box(gaknn.predict(&task).expect("gaknn")))
            },
        );
    }
    group.finish();
}

/// Point queries and gathers against the 1k-machine scale catalog, dense
/// vs sharded (8 shards). Lookups return the same stored `f64` on both
/// backings; the group measures the cost of the shard indirection.
fn bench_db_query(c: &mut Criterion) {
    let dense = bench_scaled_database();
    let sharded = bench_sharded_database(&dense);
    let n_machines = dense.n_machines();
    let n_benchmarks = dense.n_benchmarks();

    // Pseudorandom (benchmark, machine) probe sequence, fixed across
    // variants; LCG strides keep it deterministic with no RNG in the loop.
    let probes: Vec<(usize, usize)> = (0..4096)
        .map(|i| {
            (
                (i * 2654435761) % n_benchmarks,
                (i * 40503 + 13) % n_machines,
            )
        })
        .collect();
    let xeon = DatabaseView::machines_in_family(&dense, ProcessorFamily::Xeon);

    let mut group = c.benchmark_group("db_query");
    group.sample_size(30);
    group.bench_function("score_dense_1k", |bch| {
        bch.iter(|| {
            let sum: f64 = probes.iter().map(|&(b, m)| dense.score(b, m)).sum();
            std::hint::black_box(sum)
        })
    });
    group.bench_function("score_sharded8_1k", |bch| {
        bch.iter(|| {
            let sum: f64 = probes
                .iter()
                .map(|&(b, m)| DatabaseView::score(&sharded, b, m))
                .sum();
            std::hint::black_box(sum)
        })
    });
    // The task-construction gather: every benchmark × one family's
    // machines, plus a scattered every-29th-machine predictive set.
    let rows: Vec<usize> = (0..n_benchmarks).collect();
    let scattered: Vec<usize> = (0..n_machines).step_by(29).collect();
    group.bench_function("gather_family_dense_1k", |bch| {
        bch.iter(|| std::hint::black_box(DatabaseView::gather(&dense, &rows, &xeon).rows()))
    });
    group.bench_function("gather_family_sharded8_1k", |bch| {
        bch.iter(|| std::hint::black_box(DatabaseView::gather(&sharded, &rows, &xeon).rows()))
    });
    group.bench_function("gather_scattered_dense_1k", |bch| {
        bch.iter(|| std::hint::black_box(DatabaseView::gather(&dense, &rows, &scattered).rows()))
    });
    group.bench_function("gather_scattered_sharded8_1k", |bch| {
        bch.iter(|| std::hint::black_box(DatabaseView::gather(&sharded, &rows, &scattered).rows()))
    });
    group.finish();
}

/// Full-row and full-shard scans over the 1k-machine catalog: the
/// aggregate read patterns (checksums, exports, per-shard statistics) that
/// sweep whole storage blocks rather than gathering subsets.
fn bench_db_shard_scan(c: &mut Criterion) {
    let dense = bench_scaled_database();
    let sharded = bench_sharded_database(&dense);
    let n_benchmarks = dense.n_benchmarks();

    let mut group = c.benchmark_group("db_shard_scan");
    group.sample_size(30);
    group.bench_function("row_scan_dense_1k", |bch| {
        bch.iter(|| {
            let mut sum = 0.0;
            for b in 0..n_benchmarks {
                for segment in DatabaseView::benchmark_row_segments(&dense, b) {
                    sum += segment.scores.iter().sum::<f64>();
                }
            }
            std::hint::black_box(sum)
        })
    });
    group.bench_function("row_scan_sharded8_1k", |bch| {
        bch.iter(|| {
            let mut sum = 0.0;
            for b in 0..n_benchmarks {
                for segment in DatabaseView::benchmark_row_segments(&sharded, b) {
                    sum += segment.scores.iter().sum::<f64>();
                }
            }
            std::hint::black_box(sum)
        })
    });
    group.bench_function("shard_block_scan_1k", |bch| {
        bch.iter(|| {
            // Shard-major order: each shard's block is one contiguous
            // sweep — the layout the per-shard workers exploit.
            let mut sum = 0.0;
            for shard in sharded.shards() {
                sum += shard.scores().as_slice().iter().sum::<f64>();
            }
            std::hint::black_box(sum)
        })
    });
    group.bench_function("column_scan_sharded8_1k", |bch| {
        let n_machines = dense.n_machines();
        bch.iter(|| {
            let mut sum = 0.0;
            for m in (0..n_machines).step_by(97) {
                sum += DatabaseView::machine_column(&sharded, m)
                    .iter()
                    .sum::<f64>();
            }
            std::hint::black_box(sum)
        })
    });
    group.finish();
}

/// The batched ranking-query front end: the serve driver's synthetic mix
/// (all three models, family/year/score restrictions) served in one pool
/// pass — dense vs sharded-with-pruning, sequential vs pooled fan-out.
fn bench_query_batch(c: &mut Criterion) {
    let dense = bench_database();
    let sharded = bench_sharded_database_117(&dense);
    let (requests, _labels) = synth_requests(&dense, 16, 5, 42);
    let config = |parallelism| ServeConfig {
        parallelism,
        ..ServeConfig::quick()
    };

    let mut group = c.benchmark_group("query_batch");
    group.sample_size(10);
    group.bench_function("mixed16_dense_seq", |bch| {
        let cfg = config(Parallelism::Sequential);
        bch.iter(|| std::hint::black_box(serve_batch(&dense, &requests, &cfg)))
    });
    group.bench_function("mixed16_sharded8_seq", |bch| {
        let cfg = config(Parallelism::Sequential);
        bch.iter(|| std::hint::black_box(serve_batch(&sharded, &requests, &cfg)))
    });
    group.bench_function("mixed16_sharded8_pool4", |bch| {
        let cfg = config(Parallelism::Threads(4));
        bch.iter(|| std::hint::black_box(serve_batch(&sharded, &requests, &cfg)))
    });
    group.finish();
}

/// The serving-path result cache on the same synthetic mix as
/// `query_batch`: a cold batch (fresh cache, every request evaluated,
/// every response inserted) against a warm batch (pre-warmed cache, every
/// request answered from storage). The warm/cold gap is the evaluation
/// work the cache elides; CI's trajectory gate asserts warm < cold in the
/// same run (`bench_diff --require-faster`).
fn bench_serve_cache(c: &mut Criterion) {
    let dense = bench_database();
    let sharded = bench_sharded_database_117(&dense);
    let (requests, _labels) = synth_requests(&dense, 16, 5, 42);
    let cfg = ServeConfig {
        parallelism: Parallelism::Sequential,
        ..ServeConfig::quick()
    };

    let mut group = c.benchmark_group("serve_cache");
    group.sample_size(10);
    group.bench_function("cold_mixed16_sharded8", |bch| {
        bch.iter(|| {
            let mut cache = ResultCache::new(64);
            let batch = serve_batch_cached(&sharded, &requests, &cfg, &mut cache);
            std::hint::black_box(batch.misses)
        })
    });
    group.bench_function("warm_mixed16_sharded8", |bch| {
        let mut cache = ResultCache::new(64);
        serve_batch_cached(&sharded, &requests, &cfg, &mut cache);
        bch.iter(|| {
            let batch = serve_batch_cached(&sharded, &requests, &cfg, &mut cache);
            std::hint::black_box(batch.hits)
        })
    });
    group.finish();
}

/// Streaming ingest on the 1k-machine catalog: appending a 64-machine
/// batch to the dense matrix and to the 8-shard backing (tail-shard
/// rebuild + in-place stats), plus the variant whose tail crosses the
/// split threshold and rebalances into new shards. Each iteration clones
/// the catalog first (ingest mutates); `clone_baseline` prices that clone
/// so the push cost can be read as the difference.
fn bench_db_ingest(c: &mut Criterion) {
    let dense = bench_scaled_database();
    let sharded = bench_sharded_database(&dense);
    // 8 shards over 1k machines: tail width 125. The split variant's
    // threshold of 150 makes the 64-machine push (125 + 64 = 189) split.
    let splitting = ShardedPerfDatabase::from_dense(&dense, 8)
        .expect("8 shards")
        .with_split_width(150)
        .expect("valid threshold");
    let batch = synthesize_ingest(0xD1CE, dense.benchmarks(), 64, 0.015).expect("ingest batch");

    let mut group = c.benchmark_group("db_ingest");
    group.sample_size(30);
    group.bench_function("clone_baseline_sharded8_1k", |bch| {
        bch.iter(|| std::hint::black_box(sharded.clone().n_machines()))
    });
    group.bench_function("push64_sharded8_1k", |bch| {
        bch.iter(|| {
            let mut db = sharded.clone();
            db.push_machines(&batch).expect("pushes");
            std::hint::black_box(db.n_machines())
        })
    });
    group.bench_function("push64_split_sharded8_1k", |bch| {
        bch.iter(|| {
            let mut db = splitting.clone();
            db.push_machines(&batch).expect("pushes");
            std::hint::black_box(db.n_shards())
        })
    });
    group.bench_function("push64_dense_1k", |bch| {
        bch.iter(|| {
            let mut db = dense.clone();
            db.push_machines(&batch).expect("pushes");
            std::hint::black_box(db.n_machines())
        })
    });
    group.finish();
}

/// Tie-aware bootstrap rank-confidence intervals: a catalog-sized panel
/// (117 items × 8 repeated measurements synthesized through the noise
/// model) at 200 resamples, sequential vs pool-fanned replicate loop.
/// Both variants are bitwise-identical by the per-replicate derived-stream
/// contract; the bench prices the fan-out.
fn bench_rank_ci(c: &mut Criterion) {
    let noise = NoiseConfig {
        seed: 7,
        sigma: 0.05,
        repeats: 8,
    };
    let samples: Vec<Vec<f64>> = (0..117)
        .map(|m| noise.measure(100.0 + m as f64, 0, m))
        .collect();

    let mut group = c.benchmark_group("rank_ci");
    group.sample_size(30);
    group.bench_function("bootstrap200_117x8_seq", |bch| {
        bch.iter(|| {
            std::hint::black_box(
                bootstrap_rank_confidence(&samples, 200, 0.95, 42, Parallelism::Sequential)
                    .expect("rank ci"),
            )
        })
    });
    group.bench_function("bootstrap200_117x8_pool4", |bch| {
        bch.iter(|| {
            std::hint::black_box(
                bootstrap_rank_confidence(&samples, 200, 0.95, 42, Parallelism::Threads(4))
                    .expect("rank ci"),
            )
        })
    });
    group.finish();
}

/// The serving path with the confidence annex: the same 8-request batch
/// served plain vs with bootstrap rank CIs and tie groups, on the
/// 8-shard backing. The gap is the per-request measurement synthesis +
/// bootstrap cost riding on top of model time.
fn bench_serve_noisy(c: &mut Criterion) {
    let dense = bench_database();
    let sharded = bench_sharded_database_117(&dense);
    let (requests, _labels) = synth_requests(&dense, 8, 5, 42);
    let cfg = ServeConfig {
        parallelism: Parallelism::Sequential,
        ..ServeConfig::quick()
    };
    let mut with_confidence = requests.clone();
    for request in &mut with_confidence {
        request.confidence = Some(ConfidenceConfig {
            repeats: 4,
            resamples: 100,
            ..ConfidenceConfig::default()
        });
    }

    let mut group = c.benchmark_group("serve_noisy");
    group.sample_size(10);
    group.bench_function("mixed8_plain_sharded8", |bch| {
        bch.iter(|| std::hint::black_box(serve_batch(&sharded, &requests, &cfg)))
    });
    group.bench_function("mixed8_confidence_sharded8", |bch| {
        bch.iter(|| std::hint::black_box(serve_batch(&sharded, &with_confidence, &cfg)))
    });
    group.finish();
}

/// The TCP front end against in-process serving on the same warm 16-mix:
/// `inproc` runs `serve_batch_cached` (all hits) and renders the wire
/// lines; `tcp` pipelines the same 16 request lines over a persistent
/// loopback connection to a warm server, whose reader answers every line
/// from the shared cache without involving the batcher. The gap is pure
/// front-end overhead — parse, cache lookup and render on the reader
/// thread, socket round trip — with model time cached out of both
/// sides. CI's trajectory gate asserts
/// inproc < tcp in the same run (`bench_diff --require-faster`).
fn bench_net_serve(c: &mut Criterion) {
    use std::io::{BufRead, Write};

    let dense = bench_database();
    let (requests, _labels) = synth_requests(&dense, 16, 5, 42);
    let cfg = ServeConfig {
        parallelism: Parallelism::Sequential,
        ..ServeConfig::quick()
    };
    let lines: Vec<String> = requests.iter().map(write_request).collect();

    let mut group = c.benchmark_group("net_serve");
    group.sample_size(10);
    group.bench_function("inproc_mixed16_warm", |bch| {
        let mut cache = ResultCache::new(64);
        serve_batch_cached(&dense, &requests, &cfg, &mut cache);
        bch.iter(|| {
            let batch = serve_batch_cached(&dense, &requests, &cfg, &mut cache);
            let rendered: Vec<String> = batch.responses.iter().map(render_result).collect();
            std::hint::black_box(rendered)
        })
    });
    group.bench_function("tcp_mixed16_warm", |bch| {
        let net_config = NetServerConfig {
            serve: cfg.clone(),
            cache_capacity: 64,
            ..NetServerConfig::default()
        };
        let server = NetServer::spawn(
            std::sync::Arc::new(dense.clone()),
            "127.0.0.1:0",
            net_config,
        )
        .expect("bind loopback");
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
        let round_trip = |stream: &mut std::net::TcpStream,
                          reader: &mut std::io::BufReader<std::net::TcpStream>|
         -> usize {
            let mut bytes = 0usize;
            for line in &lines {
                stream.write_all(line.as_bytes()).expect("send");
                stream.write_all(b"\n").expect("send");
            }
            let mut response = String::new();
            for _ in &lines {
                response.clear();
                assert!(reader.read_line(&mut response).expect("recv") > 0);
                bytes += response.len();
            }
            bytes
        };
        // Warm the server's cache so iterations price the wire, not the
        // models.
        round_trip(&mut stream, &mut reader);
        bch.iter(|| std::hint::black_box(round_trip(&mut stream, &mut reader)))
    });
    group.finish();
}

/// The PCA-bucketed approximate fast path against exact serving on the
/// 1k-machine catalog: the same four unrestricted top-10 NNᵀ requests
/// served with every candidate evaluated (`exact`) vs coarse-ranked over
/// 16 bucket centroids with only the best 2 buckets' members surviving to
/// the exact model. Survivor scores are bitwise-equal between the two
/// sides, so the gap is candidate pruning. `approx` is the steady state:
/// from its second iteration on, the catalog's memo holds the index.
/// `approx_cold` serves each iteration on a fresh clone, whose memo
/// starts empty, so every iteration also pays the clone and one index
/// build — what the first pass after a catalog write pays. CI's
/// trajectory gate asserts approx_cold < exact in the same run
/// (`bench_diff --require-faster`), so pruning must pay for the build.
fn bench_serve_approx(c: &mut Criterion) {
    let dense = bench_scaled_database();
    let predictive: Vec<usize> = (0..5).map(|p| p * dense.n_machines() / 5).collect();
    let exact: Vec<RankRequest> = (0..4)
        .map(|i| RankRequest {
            app: AppOfInterest::Suite(i * 7),
            model: ModelKind::NnT,
            predictive: predictive.clone(),
            restrict: MachineFilter::all(),
            top_k: Some(10),
            seed: 42 + i as u64,
            confidence: None,
            approx: None,
        })
        .collect();
    let mut approx = exact.clone();
    for request in &mut approx {
        request.approx = Some(ApproxConfig {
            n_components: 2,
            n_buckets: 16,
            probe_buckets: 2,
        });
    }
    let cfg = ServeConfig {
        parallelism: Parallelism::Sequential,
        ..ServeConfig::quick()
    };

    let mut group = c.benchmark_group("serve_approx");
    group.sample_size(10);
    group.bench_function("exact", |bch| {
        bch.iter(|| std::hint::black_box(serve_batch(&dense, &exact, &cfg)))
    });
    group.bench_function("approx", |bch| {
        bch.iter(|| std::hint::black_box(serve_batch(&dense, &approx, &cfg)))
    });
    group.bench_function("approx_cold", |bch| {
        bch.iter(|| std::hint::black_box(serve_batch(&dense.clone(), &approx, &cfg)))
    });
    group.finish();
}

/// The PCA kernels behind the bucket index, on the catalog-shaped matrix
/// the index actually fits (1000 machines × 29 benchmarks, log-score
/// space): `fit` is the per-build eigendecomposition cost, `transform`
/// the kernel-routed projection of every machine into component space.
fn bench_pca_project(c: &mut Criterion) {
    let dense = bench_scaled_database();
    let data = Matrix::from_fn(dense.n_machines(), dense.n_benchmarks(), |m, b| {
        dense.score(b, m).ln()
    });
    let pca = Pca::fit(&data, 4).expect("pca fits");

    let mut group = c.benchmark_group("pca_project");
    group.sample_size(30);
    group.bench_function("fit_1000x29_c4", |bch| {
        bch.iter(|| std::hint::black_box(Pca::fit(&data, 4).expect("pca fits")))
    });
    group.bench_function("transform_1000x29_c4", |bch| {
        bch.iter(|| std::hint::black_box(pca.transform(&data).expect("projects")))
    });
    group.finish();
}

/// The paper-sized (29 × 117) database partitioned 8 ways, for the
/// serving benches (the 1k fixture would drown the planner in model
/// time).
fn bench_sharded_database_117(
    dense: &datatrans_dataset::database::PerfDatabase,
) -> ShardedPerfDatabase {
    ShardedPerfDatabase::from_dense(dense, 8).expect("8 shards over 117 machines")
}

criterion_group!(
    benches,
    bench_predictors,
    bench_substrates,
    bench_ga_fitness,
    bench_knn_topk,
    bench_gemv,
    bench_gemv_unrolled,
    bench_sqdiff_tiled,
    bench_scale_fused,
    bench_mlpt_predict,
    bench_executor,
    bench_parallel_scaling,
    bench_db_query,
    bench_db_shard_scan,
    bench_query_batch,
    bench_serve_cache,
    bench_db_ingest,
    bench_rank_ci,
    bench_serve_noisy,
    bench_net_serve,
    bench_serve_approx,
    bench_pca_project
);
criterion_main!(benches);
