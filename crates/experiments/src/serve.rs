//! `repro serve` — the concurrent ranking-query engine under a synthetic
//! request mix.
//!
//! Synthesizes a deterministic batch of [`RankRequest`]s (suite and
//! external applications, family / year / score restrictions, all three
//! models), serves it through the versioned result cache
//! ([`serve_batch_cached`]), and reports per-model response counts,
//! planner pruning totals, cache counters, and throughput. With
//! [`ExperimentConfig::serve_ingest`] the driver interleaves a streaming
//! ingest: cold batch → warm batch (all hits) → push a synthetic machine
//! batch (bumping the catalog version) → post-ingest batch (every entry
//! invalidated, all misses again). Responses are bitwise-identical across
//! backings, thread counts, and batch permutations — only the throughput
//! line varies run to run.

use std::fmt;
use std::time::Instant;

use datatrans_core::cache::ResultCache;
use datatrans_core::serve::{
    serve_batch_cached, AppOfInterest, ApproxConfig, CachedBatch, ModelKind, RankRequest,
    RankResponse, ServeError,
};
use datatrans_core::CoreError;
use datatrans_dataset::generator::synthesize_ingest;
use datatrans_dataset::machine::ProcessorFamily;
use datatrans_dataset::query::MachineFilter;
use datatrans_dataset::view::DatabaseView;
use datatrans_dataset::workload_synth::{synthesize, WorkloadProfile};

use crate::{ExperimentConfig, Result};

/// Machines pushed by the ingest-interleaved mode's synthetic batch.
const INGEST_MACHINES: usize = 8;

/// The serve driver's outcome: the responses plus run accounting.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// The served responses, in request order (ingest mode: the
    /// post-ingest phase's responses, computed against the grown catalog).
    pub responses: Vec<RankResponse>,
    /// A short human-readable label of each request, aligned with
    /// `responses`.
    pub labels: Vec<String>,
    /// Number of storage shards in the backing (ingest mode: after the
    /// ingest, which may have split the tail shard).
    pub n_shards: usize,
    /// Result-cache hits across all served phases.
    pub cache_hits: u64,
    /// Result-cache misses across all served phases.
    pub cache_misses: u64,
    /// Cache entries invalidated by catalog-version moves.
    pub cache_invalidations: u64,
    /// MLPᵀ fits the cache's memo of fitted networks answered.
    pub fits_reused: u64,
    /// MLPᵀ fits trained through the cache's memo.
    pub fits_trained: u64,
    /// Machines pushed by the ingest-interleaved mode (0 otherwise).
    pub ingested_machines: usize,
    /// Responses served through the approximate fast path (annex present).
    pub approx_requests: u64,
    /// Candidate machines the approximate path short-circuited past exact
    /// evaluation, summed over all approx responses.
    pub machines_short_circuited: u64,
    /// Wall-clock seconds for the batch (the one non-deterministic field).
    pub elapsed_secs: f64,
}

/// Builds the deterministic synthetic request mix: `n` requests cycling
/// through models, restriction shapes, and applications, all derived from
/// `seed`.
pub fn synth_requests<D: DatabaseView + ?Sized>(
    db: &D,
    n: usize,
    top_k: usize,
    seed: u64,
) -> (Vec<RankRequest>, Vec<String>) {
    let families = ProcessorFamily::ALL;
    let profiles = WorkloadProfile::ALL;
    let n_machines = db.n_machines();
    // A spread of predictive machines the "requester" owns; the engine
    // excludes them from every candidate set automatically.
    let predictive: Vec<usize> = (0..5).map(|i| i * n_machines / 5).collect();
    let mut requests = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let model = ModelKind::ALL[i % 3];
        let (restrict, what) = match i % 4 {
            0 => {
                let family = families[i / 4 % families.len()];
                (MachineFilter::family(family), format!("family {family}"))
            }
            1 => {
                let lo = 2004 + (i as u16 / 4) % 5;
                (
                    MachineFilter::years(lo, lo + 1),
                    format!("years {lo}-{}", lo + 1),
                )
            }
            2 => {
                let b = i / 4 % db.n_benchmarks();
                let threshold = db.score(b, n_machines / 2);
                (
                    MachineFilter::all().with_min_score(b, threshold),
                    format!("score({}) >= {threshold:.1}", db.benchmarks()[b].name),
                )
            }
            _ => (MachineFilter::all(), "all machines".to_owned()),
        };
        let app = if i % 2 == 0 {
            let b = i / 2 % db.n_benchmarks();
            labels.push(format!(
                "{:<8} {:<16} {what}",
                model.name(),
                db.benchmarks()[b].name
            ));
            AppOfInterest::Suite(b)
        } else {
            let profile = profiles[i / 2 % profiles.len()];
            labels.push(format!("{:<8} {:<16} {what}", model.name(), profile));
            AppOfInterest::External(synthesize(profile, seed.wrapping_add(i as u64)))
        };
        // Every fifth request opts into the approximate fast path, so the
        // mix exercises exact and approx serving side by side.
        let approx = (i % 5 == 4).then_some(ApproxConfig {
            n_components: 2,
            n_buckets: 8,
            probe_buckets: 3,
        });
        requests.push(RankRequest {
            app,
            model,
            predictive: predictive.clone(),
            restrict,
            top_k: Some(top_k),
            seed: seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64),
            confidence: None,
            approx,
        });
    }
    (requests, labels)
}

/// Runs the serving driver: synthesize the batch, serve it through the
/// result cache, account for pruning, cache effectiveness, and
/// throughput. With [`ExperimentConfig::serve_ingest`], interleaves a
/// streaming ingest between a warm re-serve and a post-ingest re-serve.
///
/// # Errors
///
/// Propagates backing construction, ingest, and serving failures.
pub fn run(config: &ExperimentConfig) -> Result<ServeResult> {
    let mut backing = config.build_backing()?;
    let n = config.scaled_trials(config.serve_requests);
    let (requests, labels) = synth_requests(backing.view(), n, config.serve_top_k, config.seed);
    let serve_config = config.serve_config();
    let mut cache = ResultCache::new((n * 2).max(16));
    let mut hits = 0;
    let mut misses = 0;
    let mut invalidations = 0;
    let (mut fits_reused, mut fits_trained) = (0, 0);
    let mut absorb = |batch: &CachedBatch| {
        hits += batch.hits;
        misses += batch.misses;
        invalidations += batch.invalidations;
        fits_reused += batch.fits_reused;
        fits_trained += batch.fits_trained;
    };
    // The synthetic mix is valid by construction, so any per-slot error
    // is a driver bug worth surfacing as a hard failure.
    let respond = |batch: CachedBatch| -> Result<Vec<RankResponse>> {
        batch
            .responses
            .into_iter()
            .collect::<std::result::Result<Vec<_>, ServeError>>()
            .map_err(|e| CoreError::invalid_task(format!("synthetic request failed: {e}")))
    };
    let started = Instant::now();
    let cold = serve_batch_cached(backing.view(), &requests, &serve_config, &mut cache);
    absorb(&cold);
    let (responses, ingested_machines) = if config.serve_ingest {
        // Warm pass: the same batch again, answered entirely from the
        // cache (bitwise-identical to the cold responses).
        let warm = serve_batch_cached(backing.view(), &requests, &serve_config, &mut cache);
        absorb(&warm);
        debug_assert_eq!(warm.responses, cold.responses);
        // Streaming ingest: push new machines, bumping the catalog
        // version; the next batch drops every cached entry and
        // re-evaluates against the grown catalog.
        let ingest = synthesize_ingest(
            config.seed ^ 0x16E5_7ED0,
            backing.view().benchmarks(),
            INGEST_MACHINES,
            config.dataset.noise_sigma,
        )?;
        backing.push_machines(&ingest)?;
        let post = serve_batch_cached(backing.view(), &requests, &serve_config, &mut cache);
        absorb(&post);
        (respond(post)?, ingest.len())
    } else {
        (respond(cold)?, 0)
    };
    let elapsed_secs = started.elapsed().as_secs_f64();
    let approx_requests = responses.iter().filter(|r| r.approx.is_some()).count() as u64;
    let machines_short_circuited = responses
        .iter()
        .filter_map(|r| r.approx.as_ref())
        .map(|a| a.short_circuited as u64)
        .sum();
    Ok(ServeResult {
        responses,
        labels,
        n_shards: backing.n_shards(),
        cache_hits: hits,
        cache_misses: misses,
        cache_invalidations: invalidations,
        fits_reused,
        fits_trained,
        ingested_machines,
        approx_requests,
        machines_short_circuited,
        elapsed_secs,
    })
}

impl ServeResult {
    /// Total shards scanned across all responses.
    pub fn shards_scanned(&self) -> usize {
        self.responses.iter().map(|r| r.shards_scanned).sum()
    }

    /// Total shards pruned across all responses.
    pub fn shards_pruned(&self) -> usize {
        self.responses.iter().map(|r| r.shards_pruned).sum()
    }
}

impl fmt::Display for ServeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Serve: {} ranking queries against the {}-shard backing",
            self.responses.len(),
            self.n_shards
        )?;
        writeln!(
            f,
            "{:<8} {:<16} {:<24} {:>10} {:>8} {:>13}",
            "model", "app", "restriction", "candidates", "top-1", "shards s/p"
        )?;
        for (label, response) in self.labels.iter().zip(&self.responses) {
            let top1 = response
                .ranked
                .first()
                .map_or("-".to_owned(), |r| format!("m{}", r.machine));
            writeln!(
                f,
                "{label:<50} {:>10} {top1:>8} {:>13}",
                response.candidates,
                format!("{}/{}", response.shards_scanned, response.shards_pruned)
            )?;
        }
        let scanned = self.shards_scanned();
        let pruned = self.shards_pruned();
        let total = scanned + pruned;
        let pct = if total > 0 {
            100.0 * pruned as f64 / total as f64
        } else {
            0.0
        };
        writeln!(
            f,
            "planner: {scanned} shard scans, {pruned} pruned ({pct:.0}% of shard visits avoided)"
        )?;
        write!(
            f,
            "cache: {} hits, {} misses, {} invalidated; MLP^T fits: {} reused, {} trained",
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            self.fits_reused,
            self.fits_trained
        )?;
        if self.ingested_machines > 0 {
            write!(f, " (ingested {} machines)", self.ingested_machines)?;
        }
        writeln!(f)?;
        if self.approx_requests > 0 {
            writeln!(
                f,
                "approx: {} requests served approximately, {} candidates short-circuited",
                self.approx_requests, self.machines_short_circuited
            )?;
        }
        writeln!(
            f,
            "throughput: {:.1} queries/s ({:.2}s wall)",
            self.responses.len() as f64 / self.elapsed_secs.max(1e-9),
            self.elapsed_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_parallel::Parallelism;

    fn quick_serve_config() -> ExperimentConfig {
        ExperimentConfig {
            db_shards: Some(8),
            serve_requests: 12,
            parallelism: Parallelism::Sequential,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn serve_driver_runs_and_prunes() {
        let config = quick_serve_config();
        let result = run(&config).unwrap();
        // quick scales 12 nominal requests by 0.1 → at least one.
        assert!(!result.responses.is_empty());
        assert_eq!(result.responses.len(), result.labels.len());
        assert_eq!(result.n_shards, 8);
        // Plain mode: one cold pass, everything misses, nothing ingested.
        assert_eq!(result.cache_hits, 0);
        assert_eq!(result.cache_misses, result.responses.len() as u64);
        assert_eq!(result.cache_invalidations, 0);
        assert_eq!(result.ingested_machines, 0);
        let text = result.to_string();
        assert!(text.contains("ranking queries"));
        assert!(text.contains("planner:"));
        assert!(text.contains("cache:"));
    }

    #[test]
    fn ingest_mode_pins_cache_counters() {
        let config = ExperimentConfig {
            serve_ingest: true,
            trial_scale: 0.5,
            ..quick_serve_config()
        };
        // 12 nominal requests × 0.5 = 6 per phase: the cold pass misses
        // all 6, the warm pass hits all 6, the ingest invalidates the 6
        // resident entries, and the post-ingest pass misses all 6 again.
        let result = run(&config).unwrap();
        assert_eq!(result.responses.len(), 6);
        assert_eq!(result.cache_hits, 6);
        assert_eq!(result.cache_misses, 12);
        assert_eq!(result.cache_invalidations, 6);
        assert_eq!(result.ingested_machines, 8);
        let text = result.to_string();
        // The two MLP^T requests train their networks cold; after the
        // ingest both find their training inputs unchanged and reuse them.
        assert_eq!((result.fits_reused, result.fits_trained), (2, 2));
        assert!(text
            .contains("cache: 6 hits, 12 misses, 6 invalidated; MLP^T fits: 2 reused, 2 trained"));
        assert!(text.contains("ingested 8 machines"));
    }

    #[test]
    fn approx_counters_track_the_mix() {
        // trial_scale 1.0 keeps all 10 requests, so the mix includes the
        // two approx opt-ins at i = 4 and i = 9.
        let config = ExperimentConfig {
            serve_requests: 10,
            trial_scale: 1.0,
            ..quick_serve_config()
        };
        let result = run(&config).unwrap();
        assert_eq!(result.approx_requests, 2);
        assert!(result.machines_short_circuited > 0);
        let text = result.to_string();
        assert!(text.contains("approx: 2 requests served approximately"));
    }

    #[test]
    fn request_mix_is_deterministic_and_diverse() {
        let db = ExperimentConfig::default().build_database().unwrap();
        let (a, labels_a) = synth_requests(&db, 24, 5, 7);
        let (b, labels_b) = synth_requests(&db, 24, 5, 7);
        assert_eq!(labels_a, labels_b);
        assert_eq!(a.len(), 24);
        // All three models and at least two restriction shapes appear.
        for kind in ModelKind::ALL {
            assert!(a.iter().any(|r| r.model == kind), "{kind:?} missing");
        }
        assert!(a.iter().any(|r| r.restrict.family.is_some()));
        assert!(a.iter().any(|r| r.restrict.min_score.is_some()));
        assert_eq!(b[5].seed, a[5].seed);
    }
}
