//! Timing ablation: how model runtime scales with the hyper-parameters
//! DESIGN.md calls out. Accuracy ablation lives in `repro -- ablation`.

use datatrans_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datatrans_bench::{bench_database, bench_task};
use datatrans_core::model::{FitCriterion, GaKnn, GaKnnConfig, MlpT, NnT, Predictor};
use datatrans_ml::ga::GaConfig;
use datatrans_ml::mlp::MlpConfig;

fn bench_mlp_scaling(c: &mut Criterion) {
    let db = bench_database();
    let task = bench_task(&db);
    let mut group = c.benchmark_group("ablation_mlp");
    group.sample_size(10);
    for epochs in [100usize, 500] {
        group.bench_with_input(BenchmarkId::new("epochs", epochs), &epochs, |b, &e| {
            let mlpt = MlpT {
                config: MlpConfig {
                    epochs: e,
                    ..MlpConfig::weka_default(0)
                },
                log_domain: true,
            };
            b.iter(|| std::hint::black_box(mlpt.predict(&task).expect("mlpt")))
        });
    }
    for hidden in [4usize, 14, 32] {
        group.bench_with_input(BenchmarkId::new("hidden", hidden), &hidden, |b, &h| {
            let mlpt = MlpT {
                config: MlpConfig {
                    hidden_layers: vec![h],
                    epochs: 100,
                    ..MlpConfig::weka_default(0)
                },
                log_domain: true,
            };
            b.iter(|| std::hint::black_box(mlpt.predict(&task).expect("mlpt")))
        });
    }
    group.finish();
}

fn bench_gaknn_scaling(c: &mut Criterion) {
    let db = bench_database();
    let task = bench_task(&db);
    let mut group = c.benchmark_group("ablation_gaknn");
    group.sample_size(10);
    for k in [1usize, 10, 20] {
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, &k| {
            let gaknn = GaKnn {
                config: GaKnnConfig {
                    k,
                    ga: GaConfig {
                        population: 16,
                        generations: 10,
                        ..GaConfig::default_seeded(0)
                    },
                    ..GaKnnConfig::default()
                },
            };
            b.iter(|| std::hint::black_box(gaknn.predict(&task).expect("gaknn")))
        });
    }
    group.finish();
}

fn bench_nnt_variants(c: &mut Criterion) {
    let db = bench_database();
    let task = bench_task(&db);
    let mut group = c.benchmark_group("ablation_nnt");
    for (name, criterion, log) in [
        ("r2_linear", FitCriterion::RSquared, false),
        ("r2_log", FitCriterion::RSquared, true),
        ("residual_std", FitCriterion::ResidualStd, false),
    ] {
        group.bench_function(name, |b| {
            let nnt = NnT {
                criterion,
                log_domain: log,
            };
            b.iter(|| std::hint::black_box(nnt.predict(&task).expect("nnt")))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mlp_scaling,
    bench_gaknn_scaling,
    bench_nnt_variants
);
criterion_main!(benches);
