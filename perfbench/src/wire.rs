//! The wire workloads, `cold_scale` and `mixed_scale`: a `NetServer` at
//! its shipped defaults on loopback, an open-loop phase at a fixed
//! arrival rate, then a closed-loop saturation phase.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use datatrans_core::serve::{serve_batch, RankRequest, ServeConfig};
use datatrans_dataset::sharded::ShardedPerfDatabase;
use datatrans_dataset::view::DatabaseView;
use datatrans_serve_net::protocol::{render_result, write_request};
use datatrans_serve_net::server::{NetServer, NetServerConfig, ServerStats};

use crate::calib::{self, factor_at, host_median, speed_factors, Kernel};
use crate::loadgen::{self, Outcome};
use crate::replay;
use crate::report::{peak_rss_mb, Metric, Phase, Report};
use crate::requests::{self, Class};
use crate::stats::{median, Sample};
use crate::Workload;

/// `cold_scale` open-loop arrival rate, requests per second.
pub const COLD_RATE: f64 = 60.0;

/// `mixed_scale` open-loop arrival rate, requests per second.
pub const MIXED_RATE: f64 = 100.0;

/// Load-generator connections (one thread each).
pub const CONNECTIONS: usize = 2;

/// Requests each saturation connection keeps pipelined: together more
/// than one 32-request batch, so the server's queue never drains and
/// passes do not fall into lock-step waves (it admits up to 64 per
/// connection).
const DEPTH: usize = 48;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// A run whose sends ran later than this at p99 is invalid.
const LAG_BOUND_MS: f64 = 50.0;

/// A run with more requests outstanding than this when the open loop
/// ends is invalid: the offered rate outran the server.
const BACKLOG_BOUND: usize = 64;

/// Rounds per run. The open loop and the saturation phase alternate this
/// many times, so a slow spell of a shared host spreads over both phases
/// instead of landing in one, and each saturation phase restarts its
/// pipeline rather than settling into one lock-step pattern.
const ROUNDS: usize = 3;

/// Requests pre-generated per second of saturation: about four times the
/// capacity of a 2-core host today, so a phase does not run dry. A run
/// that does is invalid; raise this if the engine outgrows it.
const POOL_RPS: f64 = 4000.0;

/// Share of `--seconds` spent in the open loop; the rest saturates.
/// `mixed_scale` needs the longer open loop to collect 100 GA-kNN misses
/// for its p90.
fn open_share(workload: Workload) -> f64 {
    match workload {
        Workload::MixedScale => 0.75,
        _ => 0.7,
    }
}

fn rate(workload: Workload) -> f64 {
    match workload {
        Workload::MixedScale => MIXED_RATE,
        _ => COLD_RATE,
    }
}

/// The request stream of a wire workload.
struct Stream<'a> {
    workload: Workload,
    db: &'a ShardedPerfDatabase,
    hot: Vec<RankRequest>,
    seed: u64,
}

impl Stream<'_> {
    fn at(&self, position: usize) -> (RankRequest, Class) {
        match self.workload {
            Workload::MixedScale => {
                requests::mixed_request(self.db, &self.hot, self.seed, position)
            }
            _ => (
                requests::cold_request(self.db, self.seed, position),
                Class::Miss,
            ),
        }
    }
}

/// One request sent over the wire: its position, class, outcome and
/// whether its bytes matched in-process serving.
struct Sent {
    request: RankRequest,
    class: Class,
    outcome: Outcome,
    ok: bool,
}

impl Sent {
    /// Wire latency in ms from the scheduled send to the response line;
    /// `None` for a failed request.
    fn latency_ms(&self) -> Option<f64> {
        match (&self.outcome.due, &self.outcome.response) {
            (Some(due), Some((at, _))) if self.ok => {
                Some(at.duration_since(*due).as_secs_f64() * 1e3)
            }
            _ => None,
        }
    }
}

/// Builds the catalog and spawns the server; on `mixed_scale`, warms the
/// hot set through the wire. Returns the server and the set-up seconds.
fn set_up(hot_lines: &[String]) -> Result<(NetServer, f64), String> {
    let started = Instant::now();
    let db: Arc<dyn DatabaseView + Send + Sync> = Arc::new(requests::build_catalog());
    let server = NetServer::spawn(db, "127.0.0.1:0", NetServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    if !hot_lines.is_empty() {
        let warm = loadgen::closed_loop(
            server.local_addr(),
            hot_lines,
            hot_lines.len(),
            Instant::now() + Duration::from_secs(60),
        );
        if warm.len() != hot_lines.len() || warm.iter().any(|o| o.response.is_none()) {
            return Err("hot-set warm-up lost responses".to_owned());
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// The open-loop phase: `schedule[i]` is request `i`'s due offset; the
/// connections take alternate requests. Beside them, the calibration
/// kernel samples the host's speed; its timings are returned too.
fn open_phase(
    addr: SocketAddr,
    schedule: &[f64],
    lines: &[String],
) -> (Vec<Outcome>, Vec<(Instant, f64)>) {
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut outcomes = vec![Outcome::default(); lines.len()];
    let stop = AtomicBool::new(false);
    let timings = thread::scope(|scope| {
        let sampler = scope.spawn(|| calib::sample_until(&stop));
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let jobs: Vec<(Duration, &str)> = (c..lines.len())
                    .step_by(CONNECTIONS)
                    .map(|i| (Duration::from_secs_f64(schedule[i]), lines[i].as_str()))
                    .collect();
                scope.spawn(move || loadgen::open_loop(addr, t0, &jobs))
            })
            .collect();
        for (c, handle) in handles.into_iter().enumerate() {
            let got = handle.join().unwrap_or_default();
            for (k, outcome) in got.into_iter().enumerate() {
                outcomes[c + k * CONNECTIONS] = outcome;
            }
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().unwrap_or_default()
    });
    (outcomes, timings)
}

/// The saturation phase: each connection pipelines its own slice of the
/// pool until `seconds` pass. Returns `(pool position, outcome)` pairs
/// and the phase's start and end.
fn saturation_phase(
    addr: SocketAddr,
    pool: &[String],
    seconds: f64,
) -> (Vec<(usize, Outcome)>, Instant, Instant, bool) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut sent = Vec::new();
    let mut exhausted = false;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let lines: Vec<String> =
                    pool.iter().skip(c).step_by(CONNECTIONS).cloned().collect();
                scope.spawn(move || (loadgen::closed_loop(addr, &lines, DEPTH, end), lines.len()))
            })
            .collect();
        for (c, handle) in handles.into_iter().enumerate() {
            let (got, available) = handle.join().unwrap_or_default();
            exhausted |= got.len() == available;
            sent.extend(
                got.into_iter()
                    .enumerate()
                    .map(|(k, o)| (c + k * CONNECTIONS, o)),
            );
        }
    });
    (sent, start, end, exhausted)
}

/// Compares every response with in-process serving of the same request
/// on the same catalog, computing each distinct answer once.
fn verify(db: &ShardedPerfDatabase, hot: &[RankRequest], sent: &mut [Sent]) -> usize {
    let config = ServeConfig::default();
    let hot_expected: Vec<String> = serve_batch(db, hot, &config)
        .iter()
        .map(render_result)
        .collect();
    let misses: Vec<usize> = (0..sent.len())
        .filter(|&i| sent[i].class == Class::Miss)
        .collect();
    let miss_requests: Vec<RankRequest> = misses.iter().map(|&i| sent[i].request.clone()).collect();
    let miss_expected: Vec<String> = serve_batch(db, &miss_requests, &config)
        .iter()
        .map(render_result)
        .collect();
    let mut expected: Vec<Option<&str>> = vec![None; sent.len()];
    for (k, &i) in misses.iter().enumerate() {
        expected[i] = Some(&miss_expected[k]);
    }
    let mut mismatches = 0;
    for (s, want) in sent.iter_mut().zip(expected) {
        let want = want.or_else(|| {
            hot.iter()
                .position(|h| *h == s.request)
                .map(|h| hot_expected[h].as_str())
        });
        s.ok = match (&s.outcome.response, want) {
            (Some((_, got)), Some(want)) => {
                let same = got == want;
                mismatches += usize::from(!same);
                same && !got.starts_with("err")
            }
            _ => false,
        };
    }
    mismatches
}

/// Runs `cold_scale` or `mixed_scale`.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    // Inputs: generated before any timing, from their own catalog copy.
    let input_db = requests::build_catalog();
    let hot = if workload == Workload::MixedScale {
        requests::hot_set(&input_db, seed)
    } else {
        Vec::new()
    };
    let stream = Stream {
        workload,
        db: &input_db,
        hot: hot.clone(),
        seed,
    };
    // A traced run spends half its time on the wire, half replaying.
    let wire_seconds = if trace { seconds / 2.0 } else { seconds };
    let open_seconds = wire_seconds * open_share(workload);
    let sat_seconds = (wire_seconds - open_seconds) / ROUNDS as f64;
    let n_open = ((rate(workload) * open_seconds).round() as usize).max(ROUNDS);
    let schedule = requests::poisson_schedule(seed, rate(workload), n_open);
    let open: Vec<(RankRequest, Class)> = (0..n_open).map(|i| stream.at(i)).collect();
    let open_lines: Vec<String> = open.iter().map(|(r, _)| write_request(r)).collect();
    let per_round = ((sat_seconds * POOL_RPS) as usize).max(64);
    let pool: Vec<(RankRequest, Class)> = (n_open..n_open + ROUNDS * per_round)
        .map(|i| stream.at(i))
        .collect();
    let pool_lines: Vec<String> = pool.iter().map(|(r, _)| write_request(r)).collect();
    let hot_lines: Vec<String> = hot.iter().map(write_request).collect();

    // Set-up, several times, each right after a kernel timing; the last
    // server stays up.
    let mut kernel = Kernel::new();
    let (mut setups, mut setup_kernel_ms) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            let _ = NetServer::join(previous);
        }
        setup_kernel_ms.push(kernel.time_ms());
        let (spawned, secs) = set_up(&hot_lines)?;
        setups.push(secs);
        server = Some(spawned);
    }
    let server = server.ok_or("no server")?;
    let addr = server.local_addr();

    // The rounds: each runs its share of the open-loop schedule, then
    // saturates on its own slice of the pool.
    let mut open_outcomes = Vec::with_capacity(n_open);
    let mut sat_outcomes = Vec::new();
    let mut windows = Vec::with_capacity(ROUNDS);
    let mut exhausted = false;
    let mut host: Vec<(Instant, f64)> = Vec::new();
    for r in 0..ROUNDS {
        let range = r * n_open / ROUNDS..(r + 1) * n_open / ROUNDS;
        let base = if range.start == 0 {
            0.0
        } else {
            schedule[range.start - 1]
        };
        let offsets: Vec<f64> = schedule[range.clone()].iter().map(|t| t - base).collect();
        let (outcomes, timings) = open_phase(addr, &offsets, &open_lines[range]);
        open_outcomes.extend(outcomes);
        host.extend(timings);
        let slice = r * per_round..(r + 1) * per_round;
        let (outcomes, start, end, ran_dry) =
            saturation_phase(addr, &pool_lines[slice.clone()], sat_seconds);
        sat_outcomes.extend(outcomes.into_iter().map(|(k, o)| (slice.start + k, o, r)));
        windows.push((start, end));
        exhausted |= ran_dry;
    }
    let rss = peak_rss_mb();
    let stats = server.join();

    let mut sent: Vec<Sent> = open
        .into_iter()
        .zip(open_outcomes)
        .map(|((request, class), outcome)| Sent {
            request,
            class,
            outcome,
            ok: false,
        })
        .collect();
    let n_open_sent = sent.len();
    let sat_rounds: Vec<usize> = sat_outcomes.iter().map(|&(_, _, r)| r).collect();
    sent.extend(sat_outcomes.into_iter().map(|(k, outcome, _)| Sent {
        request: pool[k].0.clone(),
        class: pool[k].1,
        outcome,
        ok: false,
    }));
    let mismatches = verify(&input_db, &hot, &mut sent);
    let (open_sent, sat_sent) = sent.split_at(n_open_sent);

    let mut report = Report {
        workload: workload.name(),
        ..Report::default()
    };
    let failed = |s: &[Sent]| s.iter().filter(|s| !s.ok).count();
    report.phases.push(Phase {
        name: "open",
        attempted: open_sent.len(),
        failed: failed(open_sent),
    });
    report.phases.push(Phase {
        name: "saturate",
        attempted: sat_sent.len(),
        failed: failed(sat_sent),
    });
    let hits_expected = sent
        .iter()
        .filter(|s| s.class == Class::Hit && s.outcome.response.is_some())
        .count();
    let lost = sent.iter().filter(|s| s.outcome.response.is_none()).count();
    let hits_hold = stats.hits == hits_expected as u64;
    report.correct = mismatches == 0 && (hits_hold || lost > 0);
    report.notes.push(format!(
        "server: {} requests, {} batches (max {}), {} hits (hot-class requests answered: {hits_expected}{}), {} misses; {mismatches} byte mismatches",
        stats.requests,
        stats.batches,
        stats.max_batch_len,
        stats.hits,
        if hits_hold { "" } else if lost > 0 { "; split void: responses lost" } else { "; HIT SPLIT VOID" },
        stats.misses
    ));
    report.notes.push(format!(
        "{ROUNDS} rounds of: open loop at {} rps ({n_open} arrivals in all, {open_seconds:.2}s), then saturation with {CONNECTIONS} connections x {DEPTH} pipelined for {sat_seconds:.2}s",
        rate(workload),
    ));

    // Open-loop honesty: send lag, and the backlog as each round's open
    // loop ends (the largest is reported).
    let mut lag = Sample::new();
    for s in open_sent {
        if let (Some(due), Some(sent_at)) = (s.outcome.due, s.outcome.sent) {
            lag.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
    }
    let lag_p99 = lag.percentile(99.0);
    let backlog_end = (0..ROUNDS)
        .map(|r| {
            let round = &open_sent[r * n_open / ROUNDS..(r + 1) * n_open / ROUNDS];
            let last_due = round.iter().filter_map(|s| s.outcome.due).max();
            round
                .iter()
                .filter(|s| match (&s.outcome.response, last_due) {
                    (Some((at, _)), Some(last)) => *at > last,
                    _ => true,
                })
                .count()
        })
        .max()
        .unwrap_or(0);
    if lag_p99.value > LAG_BOUND_MS {
        report.invalid.push(format!(
            "send lag p99 {:.2} ms > {LAG_BOUND_MS} ms",
            lag_p99.value
        ));
    }
    if backlog_end > BACKLOG_BOUND {
        report.invalid.push(format!(
            "{backlog_end} requests outstanding at the end of an open loop > {BACKLOG_BOUND}"
        ));
    }
    if exhausted {
        report.invalid.push("saturation pool exhausted".to_owned());
    }

    // End-to-end metrics.
    let per_round: Vec<(usize, f64)> = windows
        .iter()
        .enumerate()
        .map(|(r, &(start, end))| {
            let completed = sat_sent
                .iter()
                .zip(&sat_rounds)
                .filter(|(s, &round)| {
                    round == r
                        && s.ok
                        && s.outcome
                            .response
                            .as_ref()
                            .is_some_and(|(at, _)| *at <= end)
                })
                .count();
            (completed, end.duration_since(start).as_secs_f64())
        })
        .collect();
    let completed: usize = per_round.iter().map(|&(n, _)| n).sum();
    let saturated: f64 = per_round.iter().map(|&(_, secs)| secs).sum();
    let capacity = completed as f64 / saturated;
    let attempted = report.attempted();
    let success = (attempted - report.failed()) as f64 / attempted.max(1) as f64;
    // Latencies as measured, or scaled to the reference host by the
    // kernel timings nearest each request's due time.
    let host_times: Vec<Instant> = host.iter().map(|&(t, _)| t).collect();
    let kernel_ms: Vec<f64> = host.iter().map(|&(_, ms)| ms).collect();
    let factors = speed_factors(&kernel_ms);
    let latency = |pick: &dyn Fn(&Sent) -> bool, scaled: bool| -> Sample {
        open_sent
            .iter()
            .filter(|s| pick(s))
            .map(|s| match (s.latency_ms(), s.outcome.due) {
                (Some(ms), Some(due)) if scaled => Some(ms * factor_at(&host_times, &factors, due)),
                (ms, _) => ms,
            })
            .collect()
    };
    report.end_to_end.push(Metric::new(
        "setup_s",
        host_median(&setups, &setup_kernel_ms),
        "s",
        format!(
            "host-scaled median of {SETUP_REPS} set-ups ({:.6} as measured)",
            median(&setups)
        ),
    ));
    report.end_to_end.push(Metric::new(
        "capacity_rps",
        capacity,
        "1/s",
        format!(
            "{completed} verified responses in {saturated:.2}s of saturation; per round {:.1?}",
            per_round
                .iter()
                .map(|&(n, secs)| n as f64 / secs)
                .collect::<Vec<_>>()
        ),
    ));
    report.end_to_end.push(Metric::new(
        "success_share",
        success,
        "share",
        format!("failed_share={:.6} of {attempted}", 1.0 - success),
    ));
    report
        .end_to_end
        .push(Metric::new("peak_rss_mb", rss, "MB", "VmHWM".to_owned()));
    report.end_to_end.push(Metric::new(
        "host_kernel_ms",
        median(&kernel_ms),
        "ms",
        format!(
            "median of {} calibration-kernel timings beside the open loop ({} on the reference host)",
            kernel_ms.len(),
            calib::NOMINAL_MS
        ),
    ));
    match workload {
        Workload::MixedScale => {
            let hit = |s: &Sent| s.class == Class::Hit;
            let miss = |s: &Sent| s.class == Class::Miss;
            let (mut hits, mut misses) = (latency(&hit, false), latency(&miss, false));
            let (mut host_hits, mut host_misses) = (latency(&hit, true), latency(&miss, true));
            report.end_to_end.extend([
                Metric::percentile("hit_p50_ms", "p50_ms", hits.percentile(50.0)),
                Metric::percentile("hit_p99_ms", "hit_p99_ms", hits.percentile(99.0)),
                Metric::percentile("miss_p50_ms", "miss_p50_ms", misses.percentile(50.0)),
                Metric::percentile("miss_p90_ms", "miss_p90_ms", misses.percentile(90.0)),
                Metric::percentile("host_hit_p99_ms", "tail_ms", host_hits.percentile(99.0)),
                Metric::percentile(
                    "host_miss_p50_ms",
                    "second_p50_ms",
                    host_misses.percentile(50.0),
                ),
            ]);
        }
        _ => {
            let all = |_: &Sent| true;
            let annex = |s: &Sent| s.request.approx.is_some() || s.request.confidence.is_some();
            let (mut misses, mut annexed) = (latency(&all, false), latency(&annex, false));
            let (mut host_misses, mut host_annexed) = (latency(&all, true), latency(&annex, true));
            report.end_to_end.extend([
                Metric::percentile("miss_p50_ms", "miss_p50_ms", misses.percentile(50.0)),
                Metric::percentile("miss_p99_ms", "miss_p99_ms", misses.percentile(99.0)),
                Metric::percentile("annex_p50_ms", "annex_p50_ms", annexed.percentile(50.0)),
                Metric::percentile("annex_p90_ms", "annex_p90_ms", annexed.percentile(90.0)),
                Metric::percentile("host_miss_p50_ms", "p50_ms", host_misses.percentile(50.0)),
                Metric::percentile("host_miss_p99_ms", "tail_ms", host_misses.percentile(99.0)),
                Metric::percentile(
                    "host_annex_p50_ms",
                    "second_p50_ms",
                    host_annexed.percentile(50.0),
                ),
            ]);
        }
    }

    if trace {
        let latencies: Vec<Option<f64>> = open_sent.iter().map(Sent::latency_ms).collect();
        let stream: Vec<(RankRequest, Class)> = open_sent
            .iter()
            .map(|s| (s.request.clone(), s.class))
            .collect();
        let traced = replay::wire(
            &input_db,
            &hot,
            &stream,
            &replay::WireObservations {
                latency_ms: &latencies,
                stats: &stats,
                lag_p99_ms: lag_p99.value,
                backlog_end,
            },
            seconds - wire_seconds,
            workload.name(),
            seed,
        )?;
        report.correct &= traced.correct;
        report.notes.extend(traced.notes);
        report.layers = traced.layers;
    }
    Ok(report)
}

/// The server's mean batch length.
pub fn mean_batch_len(stats: &ServerStats) -> f64 {
    if stats.batches == 0 {
        0.0
    } else {
        stats.requests as f64 / stats.batches as f64
    }
}
