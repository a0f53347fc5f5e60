//! Run reports: metrics by name with units and sample counts, per-phase
//! accounting, the host and run stamp, and the final JSON line.

use std::fmt::Write as _;

use datatrans_parallel::Parallelism;

use crate::stats::Percentile;
use crate::wire;

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// `BENCHMARK.json` order. Each workload maps its own metrics onto the
/// generic latency names (see `README.md`).
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "success_share",
    "peak_rss_mb",
    "p50_ms",
    "tail_ms",
    "second_p50_ms",
];

/// The per-layer metrics every workload reports with `--trace 1`, in
/// `BENCHMARK.json` order. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[&str] = &[
    "model.nnt.predict_ms",
    "model.mlpt.predict_ms",
    "model.gaknn.predict_ms",
    "model.nnt.targets",
    "model.mlpt.targets",
    "model.gaknn.targets",
    "dataset.plan_us",
    "dataset.gather_us",
    "dataset.shards_pruned_share",
    "dataset.bucket_build_ms",
    "dataset.approx_survivor_share",
    "dataset.push_ms",
    "task.build_us",
    "ranking.rank_us",
    "confidence.bootstrap_ms",
    "cache.fingerprint_us",
    "cache.lookup_us",
    "cache.hit_share",
    "cache.invalidations",
    "serve.one_us",
    "serve.untraced_us",
    "serve.traced_share",
    "serve.pass_ms",
    "protocol.parse_us",
    "protocol.render_us",
    "protocol.response_bytes",
    "server.batch_len",
    "server.max_batch_len",
    "server.overhead_p50_ms",
    "loadgen.lag_p99_ms",
    "loadgen.backlog_end",
];

/// A second seed, never used while the benchmark or a change is tuned,
/// for re-checking a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 90_210;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's name in this workload's vocabulary.
    pub name: &'static str,
    /// The `BENCHMARK.json` name it is reported under (its own name when
    /// the JSON line does not carry it).
    pub key: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Sample count and related qualifiers.
    pub detail: String,
}

impl Metric {
    /// A metric reported under its own name.
    pub fn new(name: &'static str, value: f64, unit: &'static str, detail: String) -> Self {
        Metric {
            name,
            key: name,
            value,
            unit,
            detail,
        }
    }

    /// A latency percentile, reported under `key` in the JSON line.
    pub fn percentile(name: &'static str, key: &'static str, p: Percentile) -> Self {
        let mut detail = format!("p{} of n={}, {} beyond", p.p, p.n, p.beyond);
        if !p.supported() {
            detail.push_str(" (fewer than 10 beyond: under-sampled)");
        }
        Metric {
            name,
            key,
            value: p.value,
            unit: "ms",
            detail,
        }
    }
}

/// Requests attempted and failed in one phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Requests (or operations) attempted.
    pub attempted: usize,
    /// Of those, failed: error lines, byte mismatches, resets, timeouts.
    pub failed: usize,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// No response differed from in-process serving and the cache
    /// accounting held.
    pub correct: bool,
    /// Reasons the run does not count (load generator too late, backlog
    /// at the end of the open loop).
    pub invalid: Vec<String>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
    /// Per-phase accounting.
    pub phases: Vec<Phase>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Report {
    /// Requests attempted over all phases.
    pub fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Requests failed over all phases.
    pub fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The human-readable report.
    pub fn human(&self, seed: u64, seconds: f64, trace: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perfbench {} seed={seed} seconds={seconds} trace={}",
            self.workload,
            u8::from(trace)
        );
        let _ = writeln!(out, "stamp: {}", stamp(seed));
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        for p in &self.phases {
            let _ = writeln!(
                out,
                "phase {:<10} attempted={} succeeded={} failed={}",
                p.name,
                p.attempted,
                p.attempted - p.failed,
                p.failed
            );
        }
        for m in self.end_to_end.iter().chain(&self.layers) {
            let key = if m.key == m.name {
                String::new()
            } else {
                format!(" [{}]", m.key)
            };
            let _ = writeln!(
                out,
                "{:<30} {:>14.4} {:<6} {}{key}",
                m.name, m.value, m.unit, m.detail
            );
        }
        let _ = writeln!(
            out,
            "correct={} valid={}{}",
            self.correct,
            self.invalid.is_empty(),
            if self.invalid.is_empty() {
                String::new()
            } else {
                format!(" ({})", self.invalid.join("; "))
            }
        );
        out
    }

    /// The final JSON line: end-to-end metrics untraced, per-layer ones
    /// traced.
    pub fn json(&self, trace: bool) -> String {
        let (names, source) = if trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let mut metrics = Vec::new();
        for &name in names {
            if let Some(m) = source.iter().find(|m| m.key == name) {
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(m.value),
                    m.unit
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted().max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// A JSON number: full round-trip digits; `+∞` (a percentile landing on
/// failures) as 1e300 and an empty sample's NaN as 0.
fn json_number(v: f64) -> String {
    if v.is_nan() {
        "0".to_owned()
    } else if v.is_infinite() {
        "1e300".to_owned()
    } else {
        format!("{v:?}")
    }
}

/// Host and run stamp: core count, effective parallelism, compiler,
/// profile, commit, seed and the fixed open-loop rates.
pub fn stamp(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let env = std::env::var("DATATRANS_THREADS").unwrap_or_else(|_| "unset".to_owned());
    format!(
        "nproc={nproc} parallelism=Auto({} threads) DATATRANS_THREADS={env} rustc=\"{}\" profile={} commit={} seed={seed} held_out_seed={HELD_OUT_SEED} open_loop_rps=cold_scale:{},mixed_scale:{}",
        Parallelism::Auto.thread_count(),
        env!("PERFBENCH_RUSTC_VERSION"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit(),
        wire::COLD_RATE,
        wire::MIXED_RATE,
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without leaving it; `none` outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split(' ').next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process so far, in MB (0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
