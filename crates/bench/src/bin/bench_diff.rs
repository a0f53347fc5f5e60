//! CI gate on the benchmark trajectory: compares freshly measured
//! `BENCH_*.json` reports against the committed baseline and fails on
//! median regressions in the watched groups.
//!
//! ```text
//! bench_diff <baseline.json> <new.json>... [--threshold 0.25] [--groups ga_fitness,knn_topk]
//!            [--require-faster fast_id:slow_id]...
//! ```
//!
//! Several `<new.json>` files may be given because the harness writes one
//! report per (filtered) bench run; their records are unioned. Only
//! benchmarks whose group (the id segment before the first `/`) is in
//! `--groups` are gated; a watched benchmark regresses when its new median
//! exceeds `baseline_median × (1 + threshold)`. Watched benchmarks missing
//! a baseline entry are reported informationally (new benchmarks must be
//! allowed to land), and baseline entries missing from the new reports are
//! ignored (a filtered run measures a subset by design). Medians rather
//! than minima are compared — the committed baseline comes from a
//! different machine, so the threshold must absorb ordinary CI noise, and
//! 25% has proven wide enough for medians of ≥10 samples.
//!
//! `--require-faster fast_id:slow_id` (repeatable) asserts a *same-run*
//! ordering on the fresh reports: the gate fails unless `fast_id`'s fresh
//! median is strictly below `slow_id`'s. Unlike the baseline comparison
//! this is machine-independent — both medians come from the same run on
//! the same hardware — so it proves an optimization actually wins over the
//! reference it replaced (e.g. the unrolled GEMV over the scalar lane-tree
//! reference), not merely that it didn't regress. Both ids must be present
//! in the fresh reports; a missing id fails the gate (exit 2, like a
//! stale-baseline group).

use std::collections::BTreeMap;
use std::process::ExitCode;

use datatrans_bench::harness::{parse_report, BenchRecord};

/// Default allowed median growth before a watched benchmark fails the gate.
const DEFAULT_THRESHOLD: f64 = 0.25;
/// Default watched groups: the GA-kNN fitness kernel, top-k selection,
/// the unrolled-kernel and tiled-builder comparisons, the database layer's
/// scale queries, shard scans, and streaming ingest, and the serving
/// layer's batched ranking queries, result cache, bootstrap rank CIs, the
/// confidence-annex serving path, the TCP front end's loopback round trip
/// vs in-process serving, the PCA-bucketed approximate fast path vs exact
/// serving, and the PCA fit/projection kernels behind the bucket index.
const DEFAULT_GROUPS: &str = "ga_fitness,knn_topk,gemv_unrolled,sqdiff_tiled,scale_fused,\
                              db_query,db_shard_scan,query_batch,\
                              serve_cache,db_ingest,rank_ci,serve_noisy,net_serve,\
                              serve_approx,pca_project";

struct Args {
    baseline: String,
    new_reports: Vec<String>,
    threshold: f64,
    groups: Vec<String>,
    /// `(fast_id, slow_id)` same-run ordering assertions.
    require_faster: Vec<(String, String)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff <baseline.json> <new.json>... \
         [--threshold {DEFAULT_THRESHOLD}] [--groups {DEFAULT_GROUPS}] \
         [--require-faster fast_id:slow_id]..."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut paths = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut groups = DEFAULT_GROUPS.to_owned();
    let mut require_faster = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 && t.is_finite() => threshold = t,
                _ => usage(),
            },
            "--groups" => match args.next() {
                Some(g) => groups = g,
                None => usage(),
            },
            "--require-faster" => match args.next() {
                Some(pair) => match pair.split_once(':') {
                    Some((fast, slow)) if !fast.is_empty() && !slow.is_empty() => {
                        require_faster.push((fast.to_owned(), slow.to_owned()));
                    }
                    _ => usage(),
                },
                None => usage(),
            },
            _ if arg.starts_with('-') => usage(),
            _ => paths.push(arg),
        }
    }
    if paths.len() < 2 {
        usage();
    }
    let baseline = paths.remove(0);
    Args {
        baseline,
        new_reports: paths,
        threshold,
        groups: groups
            .split(',')
            .map(|g| g.trim().to_owned())
            .filter(|g| !g.is_empty())
            .collect(),
        require_faster,
    }
}

fn load(path: &str) -> Vec<BenchRecord> {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_report(&json).unwrap_or_else(|e| {
        eprintln!("bench_diff: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn group_of(id: &str) -> &str {
    id.split('/').next().unwrap_or(id)
}

fn main() -> ExitCode {
    let args = parse_args();
    let baseline: BTreeMap<String, u128> = load(&args.baseline)
        .into_iter()
        .map(|r| (r.id, r.median_ns))
        .collect();
    let mut fresh: BTreeMap<String, u128> = BTreeMap::new();
    for path in &args.new_reports {
        fresh.extend(load(path).into_iter().map(|r| (r.id, r.median_ns)));
    }

    println!(
        "bench_diff: gating groups [{}] at +{:.0}% median vs {}",
        args.groups.join(", "),
        args.threshold * 100.0,
        args.baseline
    );
    let mut regressions = Vec::new();
    let mut watched = 0usize;
    let mut compared_groups: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (id, &new_median) in &fresh {
        if !args.groups.iter().any(|g| g == group_of(id)) {
            continue;
        }
        watched += 1;
        match baseline.get(id) {
            None => println!("  {id:<44} {new_median:>12} ns  (new benchmark, no baseline)"),
            Some(&old_median) => {
                compared_groups.insert(group_of(id));
                let ratio = new_median as f64 / old_median.max(1) as f64;
                let verdict = if ratio > 1.0 + args.threshold {
                    regressions.push(id.clone());
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "  {id:<44} {old_median:>12} ns -> {new_median:>12} ns  ({ratio:>5.2}x)  {verdict}"
                );
            }
        }
    }
    if watched == 0 {
        eprintln!("bench_diff: no benchmarks from the watched groups in the new reports");
        return ExitCode::from(2);
    }
    // A watched group with nothing to compare means it silently fell out
    // of the gate — a renamed group or stale baseline, not a pass.
    let uncompared: Vec<&String> = args
        .groups
        .iter()
        .filter(|g| !compared_groups.contains(g.as_str()))
        .collect();
    if !uncompared.is_empty() {
        eprintln!(
            "bench_diff: watched group(s) with no baseline-matched benchmark: {} \
             (renamed ids or stale baseline? regenerate crates/bench/BENCH_micro.json)",
            uncompared
                .iter()
                .map(|g| g.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    }
    // Same-run ordering assertions: prove the optimized id actually beats
    // its reference on this machine, in this run.
    let mut ordering_failures = Vec::new();
    for (fast, slow) in &args.require_faster {
        let (Some(&fast_ns), Some(&slow_ns)) = (fresh.get(fast), fresh.get(slow)) else {
            let missing: Vec<&str> = [fast, slow]
                .into_iter()
                .filter(|id| !fresh.contains_key(*id))
                .map(|id| id.as_str())
                .collect();
            eprintln!(
                "bench_diff: --require-faster id(s) missing from the new reports: {}",
                missing.join(", ")
            );
            return ExitCode::from(2);
        };
        let ratio = slow_ns as f64 / fast_ns.max(1) as f64;
        let verdict = if fast_ns < slow_ns {
            "ok"
        } else {
            ordering_failures.push(format!("{fast} !< {slow}"));
            "NOT FASTER"
        };
        println!(
            "  require-faster {fast} ({fast_ns} ns) vs {slow} ({slow_ns} ns)  \
             ({ratio:.2}x)  {verdict}"
        );
    }
    if !ordering_failures.is_empty() {
        eprintln!(
            "bench_diff: {} required ordering(s) violated: {}",
            ordering_failures.len(),
            ordering_failures.join("; ")
        );
        return ExitCode::FAILURE;
    }
    if regressions.is_empty() {
        println!("bench_diff: {watched} watched benchmark(s), no median regression");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_diff: {} median regression(s) beyond +{:.0}%: {}",
            regressions.len(),
            args.threshold * 100.0,
            regressions.join(", ")
        );
        ExitCode::FAILURE
    }
}
