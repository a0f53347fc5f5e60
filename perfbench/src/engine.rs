//! The `ingest_engine` workload: in-process `serve_batch_cached` calls
//! back to back, with a `push_machines` write after every few batches.
//!
//! No server: `NetServer` serves an immutable view. Each epoch restarts
//! from the base catalog and a fresh cache and replays the same batches
//! and writes, so the parent and a change always serve the same catalog
//! at the same batch, however many epochs each gets through.

use std::time::Instant;

use datatrans_core::cache::ResultCache;
use datatrans_core::serve::{serve_batch, serve_batch_cached, ServeConfig};
use datatrans_dataset::sharded::ShardedPerfDatabase;
use datatrans_serve_net::protocol::render_result;

use crate::calib::{host_median, speed_factors, Kernel, NOMINAL_MS};
use crate::replay;
use crate::report::{peak_rss_mb, Metric, Phase, Report};
use crate::requests::{self, IngestEpoch, INGEST_SPLIT_WIDTH};
use crate::stats::{median, Sample};
use crate::wire::SETUP_REPS;

/// Capacity of the engine's result cache (the server's default).
const CACHE_CAPACITY: usize = 256;

/// Batches after each write that `after_write_p50_ms` covers: the first
/// meets an emptied cache and a grown catalog, the second the first's
/// leftovers. Two per write give it 30 distinct batches an epoch; the
/// first alone gave 15, too few for the seed not to move their p50.
const AFTER_WRITE: usize = 2;

fn base_catalog() -> Result<ShardedPerfDatabase, String> {
    requests::build_catalog()
        .with_split_width(INGEST_SPLIT_WIDTH)
        .map_err(|e| format!("split width: {e}"))
}

/// Uncached answers for every batch of one epoch, each on the catalog
/// version that batch meets.
fn expected_epoch(
    base: &ShardedPerfDatabase,
    epoch: &IngestEpoch,
    config: &ServeConfig,
) -> Result<Vec<Vec<String>>, String> {
    let mut db = base.clone();
    let mut expected = Vec::with_capacity(epoch.batches.len());
    for (b, batch) in epoch.batches.iter().enumerate() {
        expected.push(
            serve_batch(&db, batch, config)
                .iter()
                .map(render_result)
                .collect(),
        );
        if let Some(write) = epoch.write_after(b) {
            db.push_machines(write)
                .map_err(|e| format!("push_machines: {e}"))?;
        }
    }
    Ok(expected)
}

/// Runs `ingest_engine`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let config = ServeConfig::default();
    let epoch = requests::ingest_epoch(&requests::build_catalog(), seed);

    // Set-up, several times, each after a kernel timing.
    let mut kernel = Kernel::new();
    let (mut setups, mut setup_kernel_ms) = (Vec::new(), Vec::new());
    let mut base = None;
    for _ in 0..SETUP_REPS {
        setup_kernel_ms.push(kernel.time_ms());
        let started = Instant::now();
        let built = base_catalog()?;
        setups.push(started.elapsed().as_secs_f64());
        base = Some(built);
    }
    let base = base.ok_or("no catalog")?;
    let expected = expected_epoch(&base, &epoch, &config)?;

    // A traced run spends half its time measuring, half replaying.
    let measure_seconds = if trace { seconds / 2.0 } else { seconds };
    // Per batch, in order: the host kernel's time just before it and its
    // latency (`None` if it failed); per write, its latency.
    let mut kernel_ms: Vec<f64> = Vec::new();
    let mut batch_ms: Vec<Option<f64>> = Vec::new();
    // Per batch: whether it is one of the [`AFTER_WRITE`] batches after a
    // write.
    let mut after_write: Vec<bool> = Vec::new();
    let mut write_ms: Vec<Option<f64>> = Vec::new();
    let (mut served, mut failed, mut writes, mut write_failed, mut epochs) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    // Per complete epoch: (requests served, seconds in batch and write calls).
    let mut epoch_rates: Vec<f64> = Vec::new();
    let (mut epoch_served, mut epoch_busy) = (0usize, 0.0);
    let mut busy = 0.0;
    let (mut hits, mut misses, mut invalidations) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    'run: loop {
        epochs += 1;
        let mut db = base.clone();
        let mut cache = ResultCache::new(CACHE_CAPACITY);
        for (b, batch) in epoch.batches.iter().enumerate() {
            if started.elapsed().as_secs_f64() >= measure_seconds && served > 0 {
                break 'run;
            }
            kernel_ms.push(kernel.time_ms());
            let t = Instant::now();
            let out = serve_batch_cached(&db, batch, &config, &mut cache);
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            epoch_busy += dt;
            served += batch.len();
            epoch_served += batch.len();
            hits += out.hits;
            misses += out.misses;
            invalidations += out.invalidations;
            let bad = out
                .responses
                .iter()
                .zip(&expected[b])
                .filter(|(got, want)| render_result(got) != **want || got.is_err())
                .count();
            failed += bad;
            batch_ms.push((bad == 0).then_some(dt * 1e3));
            after_write.push((1..=AFTER_WRITE.min(b)).any(|k| epoch.write_after(b - k).is_some()));
            if let Some(write) = epoch.write_after(b) {
                let t = Instant::now();
                let pushed = db.push_machines(write);
                let dt = t.elapsed().as_secs_f64();
                busy += dt;
                epoch_busy += dt;
                writes += 1;
                write_failed += usize::from(pushed.is_err());
                write_ms.push(pushed.is_ok().then_some(dt * 1e3));
            }
        }
        epoch_rates.push(epoch_served as f64 / epoch_busy);
        (epoch_served, epoch_busy) = (0, 0.0);
    }
    if epoch_rates.is_empty() {
        // Shorter than one epoch: the partial epoch is all there is.
        epoch_rates.push(served as f64 / busy);
    }
    let rss = peak_rss_mb();

    let mut report = Report {
        workload: "ingest_engine",
        correct: failed == 0 && write_failed == 0,
        ..Report::default()
    };
    report.phases.push(Phase {
        name: "batches",
        attempted: served,
        failed,
    });
    report.phases.push(Phase {
        name: "writes",
        attempted: writes,
        failed: write_failed,
    });
    report.notes.push(format!(
        "{} batches of {} over {epochs} epoch(s); cache {hits} hits, {misses} misses, {invalidations} invalidated; {writes} writes of {} machines, split width {INGEST_SPLIT_WIDTH}",
        batch_ms.len(),
        requests::INGEST_BATCH,
        requests::INGEST_MACHINES
    ));
    // Latencies as measured, and batches scaled to the reference host by
    // the kernel timings around each.
    let factors = speed_factors(&kernel_ms);
    let host: Vec<Option<f64>> = batch_ms
        .iter()
        .zip(&factors)
        .map(|(ms, f)| ms.map(|ms| ms * f))
        .collect();
    let after = |values: &[Option<f64>]| -> Sample {
        values
            .iter()
            .zip(&after_write)
            .filter(|(_, &after)| after)
            .map(|(&ms, _)| ms)
            .collect()
    };
    let mut batch_raw: Sample = batch_ms.iter().copied().collect();
    let mut batch_host: Sample = host.iter().copied().collect();
    let mut after_raw = after(&batch_ms);
    let mut after_host = after(&host);
    let mut write_raw: Sample = write_ms.iter().copied().collect();
    let attempted = report.attempted();
    let success = (attempted - report.failed()) as f64 / attempted.max(1) as f64;
    report.end_to_end = vec![
        Metric::new(
            "setup_s",
            host_median(&setups, &setup_kernel_ms),
            "s",
            format!(
                "host-scaled median of {SETUP_REPS} set-ups ({:.6} as measured)",
                median(&setups)
            ),
        ),
        Metric::new(
            "capacity_rps",
            median(&epoch_rates),
            "1/s",
            format!(
                "median over {} complete epochs of requests per second of batch and write calls ({served} requests in {busy:.2}s in all): {epoch_rates:.0?}",
                epoch_rates.len()
            ),
        ),
        Metric::new(
            "success_share",
            success,
            "share",
            format!("failed_share={:.6} of {attempted}", 1.0 - success),
        ),
        Metric::new("peak_rss_mb", rss, "MB", "VmHWM".to_owned()),
        Metric::new(
            "host_kernel_ms",
            median(&kernel_ms),
            "ms",
            format!(
                "median of {} calibration-kernel timings, one before each batch ({NOMINAL_MS} on the reference host)",
                kernel_ms.len()
            ),
        ),
        Metric::percentile("batch_p50_ms", "batch_p50_ms", batch_raw.percentile(50.0)),
        Metric::percentile("batch_p95_ms", "batch_p95_ms", batch_raw.percentile(95.0)),
        Metric::percentile("batch_p99_ms", "batch_p99_ms", batch_raw.percentile(99.0)),
        Metric::percentile(
            "after_write_p50_ms",
            "after_write_p50_ms",
            after_raw.percentile(50.0),
        ),
        Metric::percentile("write_p50_ms", "write_p50_ms", write_raw.percentile(50.0)),
        Metric::percentile("write_p90_ms", "write_p90_ms", write_raw.percentile(90.0)),
        Metric::percentile("host_batch_p50_ms", "p50_ms", batch_host.percentile(50.0)),
        Metric::percentile("host_batch_p95_ms", "tail_ms", batch_host.percentile(95.0)),
        Metric::percentile(
            "host_after_write_p50_ms",
            "second_p50_ms",
            after_host.percentile(50.0),
        ),
    ];

    if trace {
        let traced = replay::ingest(&base, &epoch, seconds - measure_seconds, seed)?;
        report.correct &= traced.correct;
        report.notes.extend(traced.notes);
        report.layers = traced.layers;
    }
    Ok(report)
}
