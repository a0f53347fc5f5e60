//! `repro net-serve` — the loopback load driver for the TCP serving
//! front end.
//!
//! Serves the same deterministic synthetic request mix as `repro serve`
//! ([`synth_requests`]), but over real TCP:
//! the driver spawns a [`NetServer`] on a loopback port, fans the request
//! lines across [`ExperimentConfig::net_connections`] closed-loop client
//! threads, and measures end-to-end response latency per request. It
//! replays the mix twice: a cold pass, whose misses the batcher
//! evaluates, then a warm pass, which the connections' readers answer
//! from the cache. Every wire response in both passes is compared
//! byte-for-byte against the in-process [`serve_batch`] result for the
//! same request — any divergence is a hard driver failure, so a passing
//! run certifies that the protocol layer, the shared cache, and the
//! backpressure path do not perturb the determinism contract. Latency
//! percentiles (p50/p99) and throughput are the only non-deterministic
//! outputs.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use datatrans_core::serve::serve_batch;
use datatrans_core::CoreError;
use datatrans_dataset::view::DatabaseView;
use datatrans_serve_net::protocol::{render_result, write_request};
use datatrans_serve_net::server::{NetServer, NetServerConfig, ServerStats};

use crate::config::DbBacking;
use crate::serve::synth_requests;
use crate::{ExperimentConfig, Result};

/// End-to-end latency of one replay of the request mix
/// (non-deterministic).
#[derive(Debug, Clone, Copy)]
pub struct PassLatency {
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds (nearest-rank, so
    /// small runs report the max).
    pub p99_us: f64,
    /// Wall-clock seconds for the whole pass.
    pub elapsed_secs: f64,
}

/// The net-serve driver's outcome: load-test accounting plus the server's
/// lifetime counters.
#[derive(Debug, Clone)]
pub struct NetServeResult {
    /// Ranking requests sent per pass (and responses verified
    /// byte-identical).
    pub requests: usize,
    /// Client connections driven concurrently.
    pub connections: usize,
    /// The first replay, against an empty cache.
    pub cold: PassLatency,
    /// The second replay of the same mix, against the warm cache.
    pub warm: PassLatency,
    /// Requests of the warm pass answered from the cache.
    pub warm_hits: u64,
    /// The server's lifetime counters (miss passes, cache effectiveness,
    /// ...).
    pub stats: ServerStats,
}

/// The network front end's configuration at this experiment's budgets.
pub fn net_server_config(config: &ExperimentConfig) -> NetServerConfig {
    NetServerConfig {
        serve: config.serve_config(),
        cache_capacity: (config.scaled_trials(config.serve_requests) * 2).max(16),
    }
}

/// Nearest-rank percentile of a sorted sample (`p` in `[0, 100]`).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Opens one client connection and waits for a `ping` round trip, so the
/// server has accepted it (its accept loop polls) before anything is
/// timed.
fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    stream.write_all(b"ping\n")?;
    let mut pong = String::new();
    reader.read_line(&mut pong)?;
    Ok((stream, reader))
}

/// One client's share of a pass: when it started and finished sending,
/// its request latencies in microseconds, and its byte mismatches.
type ClientRun = (Instant, Instant, Vec<f64>, usize);

/// Replays `lines` once over `connections` closed-loop clients:
/// connection c owns requests c, c+C, c+2C, ... Each sends one line,
/// waits for the response, records the latency, and checks the bytes.
/// The pass is timed from the first client's first send, once every
/// connection is open, to the last client's last response.
///
/// # Errors
///
/// Fails on a client I/O error or panic, and if any wire response
/// differs from `expected`.
fn replay(
    addr: SocketAddr,
    lines: &[String],
    expected: &[String],
    connections: usize,
) -> Result<PassLatency> {
    let all_open = Barrier::new(connections);
    let runs: Vec<_> = thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|c| {
                let all_open = &all_open;
                scope.spawn(move || -> std::io::Result<ClientRun> {
                    let connected = connect(addr);
                    all_open.wait();
                    let (mut stream, mut reader) = connected?;
                    let began = Instant::now();
                    let mut latencies = Vec::new();
                    let mut mismatches = 0;
                    for i in (c..lines.len()).step_by(connections) {
                        let sent = Instant::now();
                        stream.write_all(lines[i].as_bytes())?;
                        stream.write_all(b"\n")?;
                        let mut response = String::new();
                        reader.read_line(&mut response)?;
                        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                        if response.trim_end_matches(['\r', '\n']) != expected[i] {
                            mismatches += 1;
                        }
                    }
                    Ok((began, Instant::now(), latencies, mismatches))
                })
            })
            .collect();
        clients.into_iter().map(|client| client.join()).collect()
    });

    let mut latencies = Vec::with_capacity(lines.len());
    let mut mismatches = 0;
    let mut span: Option<(Instant, Instant)> = None;
    for run in runs {
        let (began, ended, client_latencies, client_mismatches) = run
            .map_err(|_| CoreError::invalid_task("net-serve client thread panicked".to_owned()))?
            .map_err(|e| CoreError::invalid_task(format!("net-serve client I/O failed: {e}")))?;
        latencies.extend(client_latencies);
        mismatches += client_mismatches;
        span = Some(span.map_or((began, ended), |(b, e)| (b.min(began), e.max(ended))));
    }
    if mismatches > 0 {
        return Err(CoreError::invalid_task(format!(
            "net-serve: {mismatches}/{} wire responses differ from in-process serving",
            lines.len()
        )));
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    Ok(PassLatency {
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        elapsed_secs: span.map_or(0.0, |(began, ended)| {
            ended.duration_since(began).as_secs_f64()
        }),
    })
}

/// Runs the loopback load driver: spawn the server, replay the synthetic
/// mix cold and then warm across client connections, verify every wire
/// response byte-for-byte against in-process serving, and report latency
/// percentiles per pass.
///
/// # Errors
///
/// Propagates backing construction and socket failures, and fails hard if
/// any wire response differs from its in-process counterpart.
pub fn run(config: &ExperimentConfig) -> Result<NetServeResult> {
    let backing = config.build_backing()?;
    let n = config.scaled_trials(config.serve_requests);
    let (requests, _labels) = synth_requests(backing.view(), n, config.serve_top_k, config.seed);
    let serve_config = config.serve_config();

    // The ground truth: in-process serving, rendered exactly as the
    // server renders it on the wire.
    let expected: Vec<String> = serve_batch(backing.view(), &requests, &serve_config)
        .iter()
        .map(render_result)
        .collect();
    let lines: Vec<String> = requests.iter().map(write_request).collect();

    let db: Arc<dyn DatabaseView + Send + Sync> = match backing {
        DbBacking::Dense(db) => Arc::new(db),
        DbBacking::Sharded(db) => Arc::new(db),
    };
    let server = NetServer::spawn(db, "127.0.0.1:0", net_server_config(config))
        .map_err(|e| CoreError::invalid_task(format!("net-serve bind failed: {e}")))?;
    let addr = server.local_addr();

    let connections = config.net_connections.max(1).min(lines.len().max(1));
    let cold = replay(addr, &lines, &expected, connections)?;
    let hits_before = server.stats().hits;
    let warm = replay(addr, &lines, &expected, connections)?;
    let warm_hits = server.stats().hits - hits_before;
    let stats = server.join();

    Ok(NetServeResult {
        requests: lines.len(),
        connections,
        cold,
        warm,
        warm_hits,
        stats,
    })
}

impl fmt::Display for NetServeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Net serve: {} ranking queries over {} loopback connections, replayed cold then warm",
            self.requests, self.connections
        )?;
        writeln!(
            f,
            "batcher: {} miss passes, largest {}; cache: {} hits, {} misses ({} of {} warm requests hit)",
            self.stats.batches,
            self.stats.max_batch_len,
            self.stats.hits,
            self.stats.misses,
            self.warm_hits,
            self.requests
        )?;
        for (name, pass) in [("cold", &self.cold), ("warm", &self.warm)] {
            writeln!(
                f,
                "{name} latency: p50 {:.1} us, p99 {:.1} us end-to-end; {:.1} queries/s ({:.2}s wall)",
                pass.p50_us,
                pass.p99_us,
                self.requests as f64 / pass.elapsed_secs.max(1e-9),
                pass.elapsed_secs
            )?;
        }
        writeln!(f, "all wire responses byte-identical to in-process serving")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_parallel::Parallelism;

    fn quick_net_config() -> ExperimentConfig {
        ExperimentConfig {
            serve_requests: 60,
            net_connections: 2,
            parallelism: Parallelism::Sequential,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn loopback_driver_verifies_byte_identity() {
        let result = run(&quick_net_config()).unwrap();
        // quick scales 60 nominal requests by 0.1 → six, two per model.
        assert_eq!(result.requests, 6);
        // Both passes were verified byte-identical inside `run`; the warm
        // one must have been answered entirely from the cache.
        assert_eq!(result.stats.requests, 2 * result.requests as u64);
        assert_eq!(result.warm_hits, result.requests as u64);
        assert_eq!(
            result.stats.hits + result.stats.misses,
            result.stats.requests
        );
        assert!(result.cold.p99_us >= result.cold.p50_us);
        assert!(result.warm.p99_us >= result.warm.p50_us);
        let text = result.to_string();
        assert!(text.contains("byte-identical"));
        assert!(text.contains("cold latency: p50"));
        assert!(text.contains("warm latency: p50"));
    }

    #[test]
    fn loopback_driver_runs_on_the_sharded_backing() {
        let config = ExperimentConfig {
            db_shards: Some(8),
            ..quick_net_config()
        };
        let result = run(&config).unwrap();
        assert!(result.requests >= 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sample, 50.0), 2.0);
        assert_eq!(percentile(&sample, 99.0), 4.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
