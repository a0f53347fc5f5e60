//! `repro approx` — the PCA-bucketed approximate serving frontier: how
//! much ranking quality does each `(n_components, probe_buckets)` point
//! give up, and how much serving time does it buy?
//!
//! The driver serves one unrestricted full-ranking NNᵀ request per
//! application exactly on the scale generator's catalog
//! ([`SWEEP_MACHINES`] machines at full budget — approximation is a
//! scale feature; on the paper's 117-machine catalog the index build
//! costs more than pruning saves), then re-serves the identical batch
//! with an [`ApproxConfig`] at every sweep point, reporting per point:
//!
//! * **recall@top-k** — the fraction of the exact top-k machines the
//!   approximate ranking also places in its top-k, averaged over
//!   applications (survivor scores are bitwise the exact path's scores,
//!   so missing machines are the *only* approximation error);
//! * **Spearman ρ vs exact** — rank correlation between the exact full
//!   ranking and the approximate one, with short-circuited machines
//!   ranked last (they were never scored);
//! * **pruned** — the mean fraction of candidates short-circuited past
//!   exact model evaluation;
//! * **speedup** — exact wall-clock over approximate wall-clock for the
//!   whole batch (the one non-deterministic column). Each point serves a
//!   fresh clone of the catalog, whose bucket-index memo starts empty, so
//!   every point pays exactly one index build, as the first pass after a
//!   catalog write does.
//!
//! Every approximate batch is also served on an 8-shard
//! [`ShardedPerfDatabase`], hard-failing unless the two backings agree
//! bitwise — the approximate path inherits the exact path's determinism
//! contract. The `probe = n_buckets` rung probes every bucket, so its
//! recall and ρ are exactly 1 by construction.

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use datatrans_core::serve::{
    serve_batch, AppOfInterest, ApproxConfig, ModelKind, RankRequest, RankResponse, ServeError,
};
use datatrans_core::CoreError;
use datatrans_dataset::generator::{generate_scaled, ScaleConfig};
use datatrans_dataset::query::MachineFilter;
use datatrans_dataset::sharded::ShardedPerfDatabase;
use datatrans_dataset::view::DatabaseView;
use datatrans_stats::correlation::spearman;

use crate::{ExperimentConfig, Result};

/// Bucket count shared by every sweep point (the swept knobs are the
/// projection width and the probe budget).
pub const N_BUCKETS: usize = 16;

/// Component counts swept.
pub const COMPONENT_LADDER: [usize; 3] = [1, 2, 4];

/// Probe budgets swept; the last rung probes every bucket and is provably
/// exact.
pub const PROBE_LADDER: [usize; 4] = [2, 4, 8, N_BUCKETS];

/// Ranking depth for the recall metric.
pub const RECALL_TOP_K: usize = 10;

/// Shard count for the sharded leg of the backing-equivalence check.
const CHECK_SHARDS: usize = 8;

/// Machines in the sweep catalog at `trial_scale = 1.0`. Approximation
/// is a scale feature — on the paper's 117-machine catalog the index
/// build each catalog version pays costs more than pruning saves — so
/// the sweep runs on the scale generator's catalog, like the
/// `serve_approx` bench.
pub const SWEEP_MACHINES: usize = 1000;

/// One swept `(n_components, probe_buckets)` operating point.
#[derive(Debug, Clone)]
pub struct ApproxPoint {
    /// PCA components the bucket index projects into.
    pub n_components: usize,
    /// Buckets probed (coarse-ranked survivors).
    pub probe_buckets: usize,
    /// Mean recall@[`RECALL_TOP_K`] vs the exact ranking.
    pub recall: f64,
    /// Mean Spearman ρ between exact and approximate full rankings.
    pub rho: f64,
    /// Mean fraction of candidates short-circuited.
    pub pruned: f64,
    /// Exact batch wall-clock over approximate batch wall-clock.
    pub speedup: f64,
}

/// The approx driver's outcome: the quality/speed frontier.
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// One row per sweep point, component-major then probe order.
    pub points: Vec<ApproxPoint>,
    /// Machines in the sweep catalog.
    pub machines: usize,
    /// Bucket count shared by every point.
    pub n_buckets: usize,
    /// Ranking depth of the recall column.
    pub top_k: usize,
    /// Applications averaged per point.
    pub apps: usize,
    /// Shard count of the sharded equivalence leg.
    pub shards: usize,
}

/// One unrestricted full-ranking NNᵀ request per application (NNᵀ is the
/// paper's headline transposition model and the cheapest, so the sweep's
/// speedups reflect pruning, not model-training noise).
fn ranking_requests<D: DatabaseView + ?Sized>(
    db: &D,
    apps: &[usize],
    seed: u64,
) -> Vec<RankRequest> {
    let n_machines = db.n_machines();
    let predictive: Vec<usize> = (0..5).map(|i| i * n_machines / 5).collect();
    apps.iter()
        .map(|&app| RankRequest {
            app: AppOfInterest::Suite(app),
            model: ModelKind::NnT,
            predictive: predictive.clone(),
            restrict: MachineFilter::all(),
            top_k: None,
            seed: seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(app as u64),
            confidence: None,
            approx: None,
        })
        .collect()
}

/// Unwraps a fault-isolated batch whose requests are valid by
/// construction.
fn ok_batch(
    slots: Vec<std::result::Result<RankResponse, ServeError>>,
) -> Result<Vec<RankResponse>> {
    slots
        .into_iter()
        .collect::<std::result::Result<Vec<_>, ServeError>>()
        .map_err(|e| CoreError::invalid_task(format!("approx sweep request failed: {e}")))
}

/// Hard-fails unless the dense and sharded approximate rankings (and
/// annexes) agree bitwise.
fn check_backing_equivalence(dense: &[RankResponse], sharded: &[RankResponse]) -> Result<()> {
    for (i, (a, b)) in dense.iter().zip(sharded).enumerate() {
        let same = a.approx == b.approx
            && a.ranked.len() == b.ranked.len()
            && a.ranked.iter().zip(&b.ranked).all(|(x, y)| {
                x.machine == y.machine && x.predicted_score.to_bits() == y.predicted_score.to_bits()
            });
        if !same {
            return Err(CoreError::invalid_task(format!(
                "request {i}: dense and sharded approximate rankings diverged"
            )));
        }
    }
    Ok(())
}

/// recall@k: the fraction of the exact top-k the approximate top-k keeps.
fn recall_at_k(exact: &RankResponse, approximate: &RankResponse, k: usize) -> f64 {
    let k = k.min(exact.ranked.len());
    if k == 0 {
        return 1.0;
    }
    let kept: Vec<usize> = approximate
        .ranked
        .iter()
        .take(k)
        .map(|r| r.machine)
        .collect();
    let hits = exact
        .ranked
        .iter()
        .take(k)
        .filter(|r| kept.contains(&r.machine))
        .count();
    hits as f64 / k as f64
}

/// Spearman ρ between the exact full ranking and the approximate one.
/// Machines the approximate path short-circuited were never scored; they
/// tie for the worst rank, which is exactly what a requester consuming
/// the truncated ranking experiences.
fn ranking_agreement(exact: &RankResponse, approximate: &RankResponse) -> Result<f64> {
    let approx_rank: HashMap<usize, f64> = approximate
        .ranked
        .iter()
        .enumerate()
        .map(|(pos, r)| (r.machine, pos as f64))
        .collect();
    let worst = approximate.ranked.len() as f64;
    let exact_positions: Vec<f64> = (0..exact.ranked.len()).map(|p| p as f64).collect();
    let approx_positions: Vec<f64> = exact
        .ranked
        .iter()
        .map(|r| approx_rank.get(&r.machine).copied().unwrap_or(worst))
        .collect();
    Ok(spearman(&exact_positions, &approx_positions)?)
}

/// Runs the sweep: serve the exact reference batch, then the same batch
/// at every `(n_components, probe_buckets)` point on both backings, and
/// aggregate the quality/speed frontier.
///
/// # Errors
///
/// Propagates dataset and serving failures, and fails hard if the dense
/// and sharded backings disagree at any sweep point.
pub fn run(config: &ExperimentConfig) -> Result<ApproxResult> {
    let db = generate_scaled(&ScaleConfig {
        seed: config.dataset.seed,
        n_machines: config.scaled_trials(SWEEP_MACHINES),
        ..ScaleConfig::default()
    })?;
    let apps: Vec<usize> = config
        .app_indices(&db)
        .unwrap_or_else(|| (0..db.n_benchmarks()).collect());
    let exact_requests = ranking_requests(&db, &apps, config.seed);
    let serve_config = config.serve_config();
    let sharded = ShardedPerfDatabase::from_dense(&db, CHECK_SHARDS)?;

    let exact_started = Instant::now();
    let exact = ok_batch(serve_batch(&db, &exact_requests, &serve_config))?;
    let exact_secs = exact_started.elapsed().as_secs_f64();

    let mut points = Vec::with_capacity(COMPONENT_LADDER.len() * PROBE_LADDER.len());
    for &n_components in &COMPONENT_LADDER {
        for &probe_buckets in &PROBE_LADDER {
            let approx = ApproxConfig {
                n_components,
                n_buckets: N_BUCKETS,
                probe_buckets,
            };
            let requests: Vec<RankRequest> = exact_requests
                .iter()
                .map(|r| RankRequest {
                    approx: Some(approx),
                    ..r.clone()
                })
                .collect();
            let fresh = db.clone();
            let started = Instant::now();
            let on_dense = ok_batch(serve_batch(&fresh, &requests, &serve_config))?;
            let approx_secs = started.elapsed().as_secs_f64();
            let on_sharded = ok_batch(serve_batch(&sharded, &requests, &serve_config))?;
            check_backing_equivalence(&on_dense, &on_sharded)?;

            let mut recall = 0.0;
            let mut rho = 0.0;
            let mut pruned = 0.0;
            for (e, a) in exact.iter().zip(&on_dense) {
                recall += recall_at_k(e, a, RECALL_TOP_K);
                rho += ranking_agreement(e, a)?;
                let total = a.candidates + a.approx.map_or(0, |r| r.short_circuited);
                pruned += a.approx.map_or(0, |r| r.short_circuited) as f64 / total.max(1) as f64;
            }
            let n = exact.len() as f64;
            points.push(ApproxPoint {
                n_components,
                probe_buckets,
                recall: recall / n,
                rho: rho / n,
                pruned: pruned / n,
                speedup: exact_secs / approx_secs.max(1e-9),
            });
        }
    }

    Ok(ApproxResult {
        points,
        machines: db.n_machines(),
        n_buckets: N_BUCKETS,
        top_k: RECALL_TOP_K,
        apps: apps.len(),
        shards: CHECK_SHARDS,
    })
}

impl fmt::Display for ApproxResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Approximate serving frontier: {} machines, {} buckets, {} apps, recall@{}",
            self.machines, self.n_buckets, self.apps, self.top_k
        )?;
        writeln!(
            f,
            "{:>10} {:>6} {:>10} {:>10} {:>8} {:>9}",
            "components", "probe", "recall", "spearman", "pruned", "speedup"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>10} {:>6} {:>10.3} {:>10.3} {:>7.0}% {:>8.2}x",
                p.n_components,
                p.probe_buckets,
                p.recall,
                p.rho,
                100.0 * p.pruned,
                p.speedup
            )?;
        }
        let best = self
            .points
            .iter()
            .filter(|p| p.recall >= 0.95)
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup));
        match best {
            Some(p) => writeln!(
                f,
                "best point with recall >= 0.95: components={} probe={} \
                 (recall {:.3}, {:.2}x vs exact); dense == {}-shard backing \
                 verified bitwise at every point",
                p.n_components, p.probe_buckets, p.recall, p.speedup, self.shards
            ),
            None => writeln!(f, "no sweep point reached recall >= 0.95"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_parallel::Parallelism;

    fn quick_approx_config() -> ExperimentConfig {
        ExperimentConfig {
            max_apps: Some(3),
            parallelism: Parallelism::Sequential,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_full_probe_is_exact() {
        let result = run(&quick_approx_config()).unwrap();
        assert_eq!(
            result.points.len(),
            COMPONENT_LADDER.len() * PROBE_LADDER.len()
        );
        for p in &result.points {
            assert!((0.0..=1.0).contains(&p.recall), "recall {}", p.recall);
            assert!(p.rho.is_finite() && p.rho <= 1.0 + 1e-12, "rho {}", p.rho);
            assert!((0.0..1.0).contains(&p.pruned), "pruned {}", p.pruned);
            assert!(p.speedup.is_finite() && p.speedup > 0.0);
            // Probing every bucket is provably the exact ranking.
            if p.probe_buckets == N_BUCKETS {
                assert!((p.recall - 1.0).abs() < 1e-12, "recall {}", p.recall);
                assert!((p.rho - 1.0).abs() < 1e-9, "rho {}", p.rho);
                assert_eq!(p.pruned, 0.0);
            }
        }
        let text = result.to_string();
        assert!(text.contains("Approximate serving frontier"));
        assert!(text.contains("speedup"));
    }

    #[test]
    fn tight_probe_budgets_actually_prune() {
        let result = run(&quick_approx_config()).unwrap();
        assert!(
            result
                .points
                .iter()
                .any(|p| p.probe_buckets < N_BUCKETS && p.pruned > 0.0),
            "no sweep point short-circuited anything"
        );
    }

    #[test]
    fn sweep_quality_metrics_are_deterministic() {
        let config = quick_approx_config();
        let a = run(&config).unwrap();
        let b = run(&config).unwrap();
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.recall.to_bits(), y.recall.to_bits());
            assert_eq!(x.rho.to_bits(), y.rho.to_bits());
            assert_eq!(x.pruned.to_bits(), y.pruned.to_bits());
        }
    }
}
