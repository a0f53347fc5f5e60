//! Cross-shard equivalence: the sharded database is bitwise-identical to
//! the dense backing it was built from — for every `DatabaseView`
//! accessor, for task construction, and for full model prediction runs —
//! at any shard layout (1 shard, width-1 shards, counts that don't divide
//! the machine count) and any thread count.
//!
//! This suite is the contract that makes the sharded backing safe to
//! substitute anywhere: partitioning only moves stored bytes, it never
//! recomputes them.

use datatrans::core::eval::family_cv::{family_cross_validation, FamilyCvConfig};
use datatrans::core::model::{FitCriterion, GaKnn, GaKnnConfig, MlpT, NnT, Predictor};
use datatrans::core::task::PredictionTask;
use datatrans::dataset::database::PerfDatabase;
use datatrans::dataset::generator::{generate, generate_scaled, DatasetConfig, ScaleConfig};
use datatrans::dataset::machine::ProcessorFamily;
use datatrans::dataset::query::MachineFilter;
use datatrans::dataset::sharded::ShardedPerfDatabase;
use datatrans::dataset::view::DatabaseView;
use datatrans::ml::ga::GaConfig;
use datatrans::ml::mlp::MlpConfig;
use datatrans::parallel::Parallelism;
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};

/// Shard counts that exercise the edge layouts for a given machine count:
/// a single shard, two, a count that does not divide `n_machines`, and
/// width-1 shards.
fn shard_counts(n_machines: usize) -> Vec<usize> {
    let mut counts = vec![1];
    if n_machines >= 2 {
        counts.push(2);
    }
    // A count that does not divide n_machines, whenever one exists.
    if let Some(nd) = (2..n_machines).find(|k| n_machines % k != 0) {
        counts.push(nd);
    }
    counts.push(n_machines); // width-1 shards
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Every accessor of the `DatabaseView` surface, compared bitwise.
fn assert_view_equivalent(dense: &PerfDatabase, sharded: &ShardedPerfDatabase, label: &str) {
    let d: &dyn DatabaseView = dense;
    let s: &dyn DatabaseView = sharded;
    assert_eq!(d.n_benchmarks(), s.n_benchmarks(), "{label}");
    assert_eq!(d.n_machines(), s.n_machines(), "{label}");
    assert_eq!(d.benchmarks(), s.benchmarks(), "{label}");
    assert_eq!(d.machines(), s.machines(), "{label}");

    // score + machine_column, every cell.
    for m in 0..d.n_machines() {
        let dense_col = d.machine_column(m).to_vec();
        let sharded_col = s.machine_column(m).to_vec();
        for b in 0..d.n_benchmarks() {
            assert_eq!(
                d.score(b, m).to_bits(),
                s.score(b, m).to_bits(),
                "{label}: score({b}, {m})"
            );
            assert_eq!(
                dense_col[b].to_bits(),
                sharded_col[b].to_bits(),
                "{label}: column {m} row {b}"
            );
        }
    }

    // benchmark_row_segments: concatenated segments reproduce the dense
    // row exactly, with correct coverage.
    for b in 0..d.n_benchmarks() {
        let dense_row = dense.benchmark_row(b);
        let segments = s.benchmark_row_segments(b);
        assert_eq!(segments.len(), s.n_shards(), "{label}: row {b} segments");
        let mut covered = 0;
        for segment in &segments {
            assert_eq!(segment.start, covered, "{label}: row {b} contiguity");
            for (offset, value) in segment.scores.iter().enumerate() {
                assert_eq!(
                    value.to_bits(),
                    dense_row[segment.start + offset].to_bits(),
                    "{label}: row {b} machine {}",
                    segment.start + offset
                );
            }
            covered += segment.scores.len();
        }
        assert_eq!(covered, d.n_machines(), "{label}: row {b} coverage");
        assert_eq!(s.benchmark_row_vec(b), dense_row, "{label}: row {b} vec");
    }

    // Metadata-derived queries.
    for family in ProcessorFamily::ALL {
        assert_eq!(
            d.machines_in_family(family),
            s.machines_in_family(family),
            "{label}: family {family}"
        );
    }
    for year in 2002..=2010 {
        assert_eq!(
            d.machines_in_year(year),
            s.machines_in_year(year),
            "{label}"
        );
        assert_eq!(
            d.machines_before_year(year),
            s.machines_before_year(year),
            "{label}"
        );
    }
    let name = &d.benchmarks()[d.n_benchmarks() - 1].name;
    assert_eq!(
        d.benchmark_index(name).unwrap(),
        s.benchmark_index(name).unwrap(),
        "{label}"
    );
    assert!(s.benchmark_index("no-such-benchmark").is_err(), "{label}");
}

/// Random gathers (the task-construction read path), compared bitwise.
fn assert_gather_equivalent(
    dense: &PerfDatabase,
    sharded: &ShardedPerfDatabase,
    rng: &mut StdRng,
    label: &str,
) {
    let d: &dyn DatabaseView = dense;
    let s: &dyn DatabaseView = sharded;
    for _ in 0..4 {
        let n_rows = rng.gen_range(1..d.n_benchmarks() + 1);
        let n_cols = rng.gen_range(1..d.n_machines() + 1);
        let rows: Vec<usize> = (0..n_rows)
            .map(|_| rng.gen_range(0..d.n_benchmarks()))
            .collect();
        let cols: Vec<usize> = (0..n_cols)
            .map(|_| rng.gen_range(0..d.n_machines()))
            .collect();
        let dense_sub = d.gather(&rows, &cols);
        let sharded_sub = s.gather(&rows, &cols);
        assert_eq!(dense_sub.shape(), sharded_sub.shape(), "{label}");
        for i in 0..dense_sub.rows() {
            for j in 0..dense_sub.cols() {
                assert_eq!(
                    dense_sub[(i, j)].to_bits(),
                    sharded_sub[(i, j)].to_bits(),
                    "{label}: gather ({i}, {j})"
                );
            }
        }
    }
}

#[test]
fn accessors_identical_across_seeded_shapes_and_shard_layouts() {
    // Seeded random shapes, including machine counts far from the paper's
    // 117 and benchmark suites both truncated and extended past SPEC's 29.
    let mut rng = StdRng::seed_from_u64(0x05AA_DE00);
    let mut shapes = vec![(7usize, 5usize), (117, 29), (64, 3)];
    for _ in 0..5 {
        shapes.push((rng.gen_range(2..200), rng.gen_range(1..40)));
    }
    for (n_machines, n_benchmarks) in shapes {
        let dense = generate_scaled(&ScaleConfig {
            seed: 0x0E00 ^ (n_machines as u64) << 8 ^ n_benchmarks as u64,
            noise_sigma: 0.015,
            n_machines,
            n_benchmarks,
        })
        .expect("scale generation");
        for n_shards in shard_counts(n_machines) {
            let label = format!("{n_benchmarks}×{n_machines} @ {n_shards} shards");
            let sharded = ShardedPerfDatabase::from_dense(&dense, n_shards).expect("shardable");
            assert_view_equivalent(&dense, &sharded, &label);
            assert_gather_equivalent(&dense, &sharded, &mut rng, &label);
            assert_eq!(sharded.to_dense(), dense, "{label}: round trip");
        }
    }
}

#[test]
fn empty_index_gathers_identical_on_both_backings() {
    // `gather(&[], _)` / `gather(_, &[])` must return a well-formed 0×n /
    // n×0 matrix — no panic — on the dense and the sharded backing.
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&dense, 5).expect("shardable");
    let rows: Vec<usize> = (0..dense.n_benchmarks()).collect();
    let cols: Vec<usize> = vec![0, 58, 116];
    let views: [(&dyn DatabaseView, &str); 2] = [(&dense, "dense"), (&sharded, "sharded")];
    for (view, label) in views {
        let no_rows = view.gather(&[], &cols);
        assert_eq!(no_rows.shape(), (0, 3), "{label}");
        let no_cols = view.gather(&rows, &[]);
        assert_eq!(no_cols.shape(), (dense.n_benchmarks(), 0), "{label}");
        let nothing = view.gather(&[], &[]);
        assert_eq!(nothing.shape(), (0, 0), "{label}");
    }
}

#[test]
fn query_plans_identical_on_every_view() {
    // The planner's machine list is backing-independent: the dense full
    // scan and the sharded pruned plan must agree exactly.
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&dense, 8).expect("shardable");
    let threshold = dense.score(2, 60);
    let filters = [
        MachineFilter::all(),
        MachineFilter::family(ProcessorFamily::Xeon),
        MachineFilter::years(2005, 2008),
        MachineFilter::family(ProcessorFamily::Power6).with_years(2006, 2009),
        MachineFilter::all().with_min_score(2, threshold),
        MachineFilter::all().with_subset(vec![116, 3, 40, 3]),
        MachineFilter::years(1990, 1995), // empty result
    ];
    for filter in &filters {
        let reference = DatabaseView::plan_machines(&dense, filter);
        let pruned = DatabaseView::plan_machines(&sharded, filter);
        assert_eq!(reference.machines, pruned.machines, "{filter:?}");
        assert_eq!(
            pruned.shards_scanned + pruned.shards_pruned,
            8,
            "{filter:?}"
        );
    }
}

fn quick_gaknn(parallelism: Parallelism) -> GaKnn {
    GaKnn {
        config: GaKnnConfig {
            ga: GaConfig {
                population: 10,
                generations: 4,
                parallelism,
                ..GaConfig::default_seeded(0)
            },
            ..GaKnnConfig::default()
        },
    }
}

#[test]
fn full_prediction_runs_identical_on_dense_and_sharded() {
    // A complete GA-kNN + NNᵀ + MLPᵀ prediction pipeline — task gather,
    // training, prediction — from each backing, at 1/2/4 worker threads
    // and a shard count (5) that does not divide 117.
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let targets = dense.machines_in_family(ProcessorFamily::Phenom);
    let predictive: Vec<usize> = (0..dense.n_machines())
        .filter(|m| !targets.contains(m))
        .collect();

    for n_shards in [1usize, 5, 117] {
        let sharded = ShardedPerfDatabase::from_dense(&dense, n_shards).expect("shardable");
        let dense_task =
            PredictionTask::leave_one_out(&dense, 4, &predictive, &targets, 7).expect("task");
        let sharded_task =
            PredictionTask::leave_one_out(&sharded, 4, &predictive, &targets, 7).expect("task");
        assert_eq!(dense_task.train_predictive, sharded_task.train_predictive);
        assert_eq!(dense_task.train_target, sharded_task.train_target);
        assert_eq!(dense_task.app_predictive, sharded_task.app_predictive);

        for threads in [1usize, 2, 4] {
            let parallelism = Parallelism::Threads(threads);
            let methods: Vec<Box<dyn Predictor + Send + Sync>> = vec![
                Box::new(NnT {
                    criterion: FitCriterion::RSquared,
                    log_domain: false,
                }),
                Box::new(MlpT {
                    config: MlpConfig {
                        epochs: 20,
                        ..MlpConfig::weka_default(0)
                    },
                    ..MlpT::default()
                }),
                Box::new(quick_gaknn(parallelism)),
            ];
            for method in &methods {
                let from_dense = method.predict(&dense_task).expect("dense predict");
                let from_sharded = method.predict(&sharded_task).expect("sharded predict");
                let dense_bits: Vec<u64> = from_dense.iter().map(|v| v.to_bits()).collect();
                let sharded_bits: Vec<u64> = from_sharded.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    dense_bits,
                    sharded_bits,
                    "{} at {n_shards} shards, {threads} threads",
                    method.name()
                );
            }
        }
    }
}

#[test]
fn family_cv_harness_identical_across_backings_and_thread_counts() {
    // The wired read path end to end: the harness fans folds out across
    // the worker pool, each reading the shared view; reports must be
    // cell-for-cell identical on dense vs sharded at 1/2/4 threads.
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let sharded = ShardedPerfDatabase::from_dense(&dense, 4).expect("shardable");
    let methods = || -> Vec<Box<dyn Predictor + Send + Sync>> { vec![Box::new(NnT::default())] };
    let config = |parallelism| FamilyCvConfig {
        families: Some(vec![
            ProcessorFamily::Xeon,
            ProcessorFamily::Itanium,
            ProcessorFamily::Power6,
        ]),
        apps: Some(vec![0, 9]),
        parallelism,
        ..FamilyCvConfig::default()
    };
    let reference = family_cross_validation(&dense, &methods(), &config(Parallelism::Sequential))
        .expect("dense sequential");
    for threads in [1usize, 2, 4] {
        let parallelism = Parallelism::Threads(threads);
        let dense_report =
            family_cross_validation(&dense, &methods(), &config(parallelism)).expect("dense");
        let sharded_report =
            family_cross_validation(&sharded, &methods(), &config(parallelism)).expect("sharded");
        assert_eq!(reference.cells, dense_report.cells, "dense @ {threads}");
        assert_eq!(reference.cells, sharded_report.cells, "sharded @ {threads}");
    }
}

#[test]
fn scale_catalog_predictions_identical_on_sharded_backing() {
    // A 600-machine scale catalog sharded 7 ways (non-dividing): the
    // temporal-style split (2009 targets, older predictive) must produce
    // bitwise-identical NNᵀ predictions from both backings.
    let dense = generate_scaled(&ScaleConfig {
        n_machines: 600,
        ..ScaleConfig::default()
    })
    .expect("scale dataset");
    let sharded = ShardedPerfDatabase::from_dense(&dense, 7).expect("shardable");
    let targets = dense.machines_in_year(2009);
    let predictive = dense.machines_before_year(2009);
    assert!(!targets.is_empty() && !predictive.is_empty());
    let nnt = NnT::default();
    let dense_task =
        PredictionTask::leave_one_out(&dense, 0, &predictive, &targets, 3).expect("task");
    let sharded_task =
        PredictionTask::leave_one_out(&sharded, 0, &predictive, &targets, 3).expect("task");
    let a = nnt.predict(&dense_task).expect("dense");
    let b = nnt.predict(&sharded_task).expect("sharded");
    assert_eq!(
        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}
