//! The network front end's contract:
//!
//! * wire responses are **byte-identical** to in-process
//!   `serve_batch` for the same requests — across thread counts
//!   (`DATATRANS_THREADS` via `Parallelism::Auto`; CI runs this suite at
//!   1 and 4), across backings, and whether a response is a cache hit
//!   answered by its connection's reader or a miss evaluated by the
//!   batcher;
//! * malformed input never panics the server, never kills the
//!   connection, and never desynchronizes the one-response-per-line
//!   protocol: a seeded fuzz corpus (random bytes, truncated requests,
//!   non-UTF-8, huge `top_k`, unknown model names) gets exactly one
//!   typed line back per line sent, and a valid request afterwards still
//!   serves byte-identically;
//! * a request that panics the serving pass fails only its own line, as
//!   `err invariant`, and the server keeps serving;
//! * no head-of-line blocking across connections: while a miss holds the
//!   batcher, a cache hit on another connection is answered; on the
//!   same connection the hit waits, so responses stay in request order;
//! * misses queued while the batcher is busy share its next pass;
//! * per-connection backpressure and graceful drain preserve ordering
//!   and completeness under pipelining.
//!
//! The fault-injection tests serve through [`FaultyView`], which
//! delegates to a real catalog but panics or blocks inside
//! `plan_machines` on marker restrictions that still validate, so the
//! fault lands inside the batcher's pass, deterministically.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use datatrans::core::serve::{
    serve_batch, AppOfInterest, ApproxConfig, ConfidenceConfig, ModelKind, RankRequest, ServeConfig,
};
use datatrans::dataset::benchmark::Benchmark;
use datatrans::dataset::bucket::BucketIndex;
use datatrans::dataset::database::PerfDatabase;
use datatrans::dataset::generator::{generate, DatasetConfig};
use datatrans::dataset::machine::{Machine, ProcessorFamily};
use datatrans::dataset::query::{MachineFilter, QueryPlan};
use datatrans::dataset::sharded::ShardedPerfDatabase;
use datatrans::dataset::view::{DatabaseView, RowSegment};
use datatrans::dataset::DatasetError;
use datatrans::experiments::serve::synth_requests;
use datatrans::linalg::{Matrix, VecView};
use datatrans::parallel::Parallelism;
use datatrans::serve_net::{
    parse_line, render_result, write_request, NetServer, NetServerConfig, ServerStats,
};
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};

fn quick_net_config(parallelism: Parallelism) -> NetServerConfig {
    NetServerConfig {
        serve: ServeConfig {
            parallelism,
            ..ServeConfig::quick()
        },
        ..NetServerConfig::quick()
    }
}

fn dense_db() -> Arc<dyn DatabaseView + Send + Sync> {
    Arc::new(generate(&DatasetConfig::default()).unwrap())
}

/// The synthetic mixed-model request mix, plus one confidence-annotated
/// request so the CI annex crosses the wire too.
fn request_mix(db: &dyn DatabaseView) -> Vec<RankRequest> {
    let (mut requests, _labels) = synth_requests(db, 8, 5, 42);
    requests.push(RankRequest {
        app: AppOfInterest::Suite(2),
        model: ModelKind::NnT,
        predictive: vec![0, 30, 60],
        restrict: MachineFilter::all(),
        top_k: Some(6),
        seed: 11,
        confidence: Some(ConfidenceConfig {
            repeats: 4,
            resamples: 50,
            ..ConfidenceConfig::default()
        }),
        approx: None,
    });
    requests.push(RankRequest {
        app: AppOfInterest::Suite(4),
        model: ModelKind::NnT,
        predictive: vec![0, 30, 60],
        restrict: MachineFilter::all(),
        top_k: Some(6),
        seed: 13,
        confidence: None,
        approx: Some(ApproxConfig {
            n_components: 2,
            n_buckets: 8,
            probe_buckets: 3,
        }),
    });
    requests
}

/// Sends `lines` pipelined over one connection and returns one response
/// line per request line.
fn exchange(server: &NetServer, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for line in lines {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    let mut responses = Vec::with_capacity(lines.len());
    for _ in lines {
        let mut response = String::new();
        assert!(
            reader.read_line(&mut response).unwrap() > 0,
            "connection closed early after {} responses",
            responses.len()
        );
        responses.push(response.trim_end().to_owned());
    }
    responses
}

#[test]
fn wire_responses_byte_identical_to_in_process_serving() {
    // Parallelism::Auto honours DATATRANS_THREADS: CI runs this test at
    // thread counts 1 and 4 and the wire bytes must not move.
    let db = dense_db();
    let config = quick_net_config(Parallelism::Auto);
    let requests = request_mix(&*db);
    let expected: Vec<String> = serve_batch(&*db, &requests, &config.serve)
        .iter()
        .map(render_result)
        .collect();
    let lines: Vec<String> = requests.iter().map(write_request).collect();

    let server = NetServer::spawn(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let got = exchange(&server, &lines);
    assert_eq!(got, expected, "wire vs in-process (pipelined, one conn)");
    // Same lines again: cache hits must produce the same bytes.
    let again = exchange(&server, &lines);
    assert_eq!(again, expected, "wire vs in-process (warm cache)");
    let stats = server.join();
    assert_eq!(stats.requests, 2 * requests.len() as u64);
    assert_eq!(stats.hits, requests.len() as u64);
}

/// Blanks the `shards=<scanned>/<pruned>` token: planner telemetry is
/// backing-dependent by design (dense has one shard; sharded backings
/// scan and prune several), while everything else on the line is pinned.
fn blank_shard_telemetry(line: &str) -> String {
    line.split(' ')
        .map(|token| {
            if token.starts_with("shards=") {
                "shards=_"
            } else {
                token
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn wire_bytes_identical_across_explicit_thread_counts_and_backings() {
    let dense = generate(&DatasetConfig::default()).unwrap();
    let sharded = ShardedPerfDatabase::from_dense(&dense, 8).unwrap();
    let requests = request_mix(&dense);
    let lines: Vec<String> = requests.iter().map(write_request).collect();

    let baseline = {
        let server = NetServer::spawn(
            Arc::new(dense),
            "127.0.0.1:0",
            quick_net_config(Parallelism::Sequential),
        )
        .unwrap();
        exchange(&server, &lines)
    };
    for response in &baseline {
        assert!(response.starts_with("ok "), "mix must serve: {response}");
    }
    let threaded = {
        let server = NetServer::spawn(
            Arc::new(sharded),
            "127.0.0.1:0",
            quick_net_config(Parallelism::Threads(4)),
        )
        .unwrap();
        exchange(&server, &lines)
    };
    // Rankings, scores, candidate counts, and the confidence annex are
    // bitwise-pinned across thread counts and backings; only the shard
    // scan/prune telemetry reflects the backing's physical layout.
    let normalize = |responses: &[String]| -> Vec<String> {
        responses.iter().map(|r| blank_shard_telemetry(r)).collect()
    };
    assert_eq!(
        normalize(&baseline),
        normalize(&threaded),
        "sequential/dense vs 4-thread/sharded wire bytes"
    );
}

/// Builds the seeded fuzz corpus: hostile fixed cases plus random
/// mutations. Every entry is newline-free so it travels as one line.
fn fuzz_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = vec![
        // Non-UTF-8.
        vec![0xFF, 0xFE, 0x80, 0x81],
        // Unknown command and unknown model.
        b"launch missiles".to_vec(),
        b"rank model=resnet app=suite:0 predictive=0".to_vec(),
        // Huge top_k: overflows usize -> typed bad-value.
        b"rank model=nnt app=suite:0 predictive=0 top_k=99999999999999999999".to_vec(),
        // Huge but representable top_k: parses, serves (clamped ranking).
        b"rank model=nnt app=suite:0 predictive=0,30,60 top_k=999999 seed=1".to_vec(),
        // Unknown benchmark name territory: suite index out of range.
        b"rank model=nnt app=suite:4096 predictive=0,30,60".to_vec(),
        // Zero top_k: typed serve error.
        b"rank model=nnt app=suite:0 predictive=0,30,60 top_k=0".to_vec(),
        // Wrong-arity external vector.
        b"rank model=nnt app=external:1,2,3 predictive=0".to_vec(),
        // NaN smuggling.
        b"rank model=nnt app=external:NaN,0,0,0,0,0,0,0,0,0,0,0 predictive=0".to_vec(),
        // Duplicate and missing attributes.
        b"rank model=nnt model=nnt app=suite:0 predictive=0".to_vec(),
        b"rank app=suite:0 predictive=0".to_vec(),
        // Malformed approx triples: wrong arity, non-numeric, negative.
        b"rank model=nnt app=suite:0 predictive=0 approx=2,8".to_vec(),
        b"rank model=nnt app=suite:0 predictive=0 approx=2,8,3,1".to_vec(),
        b"rank model=nnt app=suite:0 predictive=0 approx=a,b,c".to_vec(),
        b"rank model=nnt app=suite:0 predictive=0 approx=-1,8,3".to_vec(),
        // Well-formed approx triple with out-of-domain values: parses,
        // then fails serving with a typed invalid-approx error.
        b"rank model=nnt app=suite:0 predictive=0,30,60 approx=0,8,9".to_vec(),
        // More buckets than machines: refused before the index build
        // would try to allocate a member list per bucket.
        b"rank model=nnt app=suite:0 predictive=0,30,60 approx=1,1000000000000,1".to_vec(),
        // Valid approx request: parses and serves.
        b"rank model=nnt app=suite:0 predictive=0,30,60 top_k=3 approx=2,8,3".to_vec(),
    ];
    let valid = write_request(&RankRequest {
        app: AppOfInterest::Suite(1),
        model: ModelKind::NnT,
        predictive: vec![0, 30, 60],
        restrict: MachineFilter::all(),
        top_k: Some(5),
        seed: 3,
        confidence: None,
        approx: None,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..120 {
        let line: Vec<u8> = match i % 3 {
            // Truncated valid request (a prefix may legitimately parse).
            0 => {
                let cut = 1 + rng.gen_range(0..valid.len());
                valid.as_bytes()[..cut].to_vec()
            }
            // Random printable-ish garbage.
            1 => {
                let len = 1 + rng.gen_range(0..40usize);
                (0..len).map(|_| rng.gen_range(0x20u8..0x7F)).collect()
            }
            // Random raw bytes (newline excluded to stay one line).
            _ => {
                let len = 1 + rng.gen_range(0..40usize);
                (0..len)
                    .map(|_| loop {
                        let b = rng.gen_range(0u16..256) as u8;
                        if b != b'\n' {
                            break b;
                        }
                    })
                    .collect()
            }
        };
        corpus.push(line);
    }
    corpus
}

#[test]
fn fuzzed_lines_each_get_one_typed_line_and_never_kill_the_connection() {
    let db = dense_db();
    let config = quick_net_config(Parallelism::Auto);
    let serve_config = config.serve.clone();
    let server = NetServer::spawn(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let corpus = fuzz_corpus(0xF0CC);
    for (i, line) in corpus.iter().enumerate() {
        // Whitespace-only lines are skipped silently by design; everything
        // else gets exactly one response line.
        let expects_response = !line.iter().all(|&b| b == b' ' || b == b'\r');
        stream.write_all(line).unwrap();
        stream.write_all(b"\n").unwrap();
        if !expects_response {
            continue;
        }
        let mut response = String::new();
        assert!(
            reader.read_line(&mut response).unwrap() > 0,
            "connection died on corpus line {i}: {line:?}"
        );
        let response = response.trim_end();
        // Parse failures must come back as protocol errors; parseable
        // lines as either a served ranking or a typed serve error.
        match parse_line(line) {
            Err(_) => assert!(
                response.starts_with("err "),
                "corpus line {i} should be a protocol error, got: {response}"
            ),
            Ok(_) => assert!(
                response.starts_with("ok ") || response.starts_with("err "),
                "corpus line {i} got a malformed response: {response}"
            ),
        }
        assert!(!response.is_empty());
    }

    // The connection is still healthy and still serves byte-identically.
    let request = request_mix(&*db).remove(0);
    let expected = render_result(
        &serve_batch(&*db, std::slice::from_ref(&request), &serve_config)
            .pop()
            .unwrap(),
    );
    stream
        .write_all(write_request(&request).as_bytes())
        .unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    assert!(reader.read_line(&mut response).unwrap() > 0);
    assert_eq!(response.trim_end(), expected, "post-fuzz serving drifted");

    drop((reader, stream));
    let stats = server.join();
    assert!(stats.protocol_errors > 0, "fuzz corpus hit no parse errors");
}

#[test]
fn backpressure_pipelining_preserves_order_and_drain_flushes_everything() {
    let db = dense_db();
    let mut config = quick_net_config(Parallelism::Auto);
    config.max_inflight = 2; // reader must stall on the in-flight budget
    config.max_batch = 4;
    let requests = request_mix(&*db);
    let expected: Vec<String> = serve_batch(&*db, &requests, &config.serve)
        .iter()
        .map(render_result)
        .collect();
    let lines: Vec<String> = requests.iter().map(write_request).collect();

    let server = NetServer::spawn(db, "127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for line in &lines {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    // Wait for the first response so at least one request is known to be
    // in the pipeline, then shut down mid-stream: everything already
    // admitted past the backpressure gate must still come back, in
    // order, before the connection closes.
    let mut got = Vec::new();
    let mut first = String::new();
    assert!(reader.read_line(&mut first).unwrap() > 0);
    got.push(first.trim_end().to_owned());
    server.shutdown();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        got.push(line.trim_end().to_owned());
    }
    assert_eq!(
        got,
        expected[..got.len()],
        "drained responses out of order or corrupted"
    );
    drop((reader, stream));
    server.join();
}

/// `min_score` threshold on benchmark 0 that makes `plan_machines` panic.
/// Every catalog score clears it, so the request validates and would
/// otherwise serve like an unrestricted one.
const POISON: f64 = 0.25;
/// `min_score` threshold on benchmark 0 that makes `plan_machines` wait
/// at the [`Gate`].
const HELD: f64 = 0.5;
/// How long a test waits for something that should happen promptly, so
/// a regression fails as a timeout instead of hanging the suite.
const PATIENCE: Duration = Duration::from_secs(10);

/// Holds every [`HELD`] request inside the serving pass until opened.
#[derive(Default)]
struct Gate {
    /// (requests that reached the gate, gate open)
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Gate {
    /// Called from inside the pass: records the arrival and waits for
    /// the gate to open.
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        self.changed.notify_all();
        while !state.1 {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Waits until `n` requests have reached the gate; false on timeout.
    fn wait_arrivals(&self, n: usize) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, PATIENCE, |state| state.0 < n)
            .unwrap();
        state.0 >= n
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

/// Opens the gate when dropped, so a failing assertion cannot leave the
/// batcher blocked and hang the server's drain.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A real catalog behind every [`DatabaseView`] method, except that
/// `plan_machines` panics on the [`POISON`] restriction and waits at the
/// gate on the [`HELD`] one.
struct FaultyView {
    inner: PerfDatabase,
    gate: Arc<Gate>,
}

impl DatabaseView for FaultyView {
    fn n_benchmarks(&self) -> usize {
        self.inner.n_benchmarks()
    }
    fn n_machines(&self) -> usize {
        self.inner.n_machines()
    }
    fn benchmarks(&self) -> &[Benchmark] {
        self.inner.benchmarks()
    }
    fn machines(&self) -> &[Machine] {
        self.inner.machines()
    }
    fn score(&self, b: usize, m: usize) -> f64 {
        self.inner.score(b, m)
    }
    fn machine_column(&self, m: usize) -> VecView<'_> {
        self.inner.machine_column(m)
    }
    fn benchmark_row_segments(&self, b: usize) -> Vec<RowSegment<'_>> {
        self.inner.benchmark_row_segments(b)
    }
    fn gather(&self, benchmarks: &[usize], machines: &[usize]) -> Matrix {
        self.inner.gather(benchmarks, machines)
    }
    fn n_shards(&self) -> usize {
        self.inner.n_shards()
    }
    fn catalog_version(&self) -> u64 {
        self.inner.catalog_version()
    }
    fn bucket_index(
        &self,
        n_components: usize,
        n_buckets: usize,
    ) -> Result<Arc<BucketIndex>, DatasetError> {
        self.inner.bucket_index(n_components, n_buckets)
    }
    fn plan_machines(&self, filter: &MachineFilter) -> QueryPlan {
        match filter.min_score {
            Some((0, threshold)) if threshold == POISON => panic!("poisoned restriction"),
            Some((0, threshold)) if threshold == HELD => self.gate.pass(),
            _ => {}
        }
        self.inner.plan_machines(filter)
    }
    fn benchmark_row_vec(&self, b: usize) -> Vec<f64> {
        self.inner.benchmark_row_vec(b)
    }
    fn benchmark_index(&self, name: &str) -> Result<usize, DatasetError> {
        self.inner.benchmark_index(name)
    }
    fn machines_in_family(&self, family: ProcessorFamily) -> Vec<usize> {
        self.inner.machines_in_family(family)
    }
    fn machines_in_year(&self, year: u16) -> Vec<usize> {
        self.inner.machines_in_year(year)
    }
    fn machines_before_year(&self, year: u16) -> Vec<usize> {
        self.inner.machines_before_year(year)
    }
}

/// A server over a [`FaultyView`] of the default catalog, the gate that
/// holds its [`HELD`] requests, and the in-process expected line of any
/// request (served on the plain catalog).
struct FaultyServer {
    server: NetServer,
    gate: Arc<Gate>,
    plain: PerfDatabase,
    serve: ServeConfig,
}

impl FaultyServer {
    fn spawn() -> Self {
        let plain = generate(&DatasetConfig::default()).unwrap();
        let gate = Arc::new(Gate::default());
        let view = FaultyView {
            inner: plain.clone(),
            gate: Arc::clone(&gate),
        };
        let config = quick_net_config(Parallelism::Auto);
        let serve = config.serve.clone();
        let server = NetServer::spawn(Arc::new(view), "127.0.0.1:0", config).unwrap();
        FaultyServer {
            server,
            gate,
            plain,
            serve,
        }
    }

    fn expected(&self, request: &RankRequest) -> String {
        render_result(
            &serve_batch(&self.plain, std::slice::from_ref(request), &self.serve)
                .pop()
                .unwrap(),
        )
    }

    /// Polls the live stats until `done` holds; false after [`PATIENCE`].
    fn wait_for(&self, done: impl Fn(&ServerStats) -> bool) -> bool {
        let deadline = Instant::now() + PATIENCE;
        while !done(&self.server.stats()) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// A connection whose reads give up after [`PATIENCE`].
    fn connect(&self) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(self.server.local_addr()).unwrap();
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }
}

fn plain_request(app: usize, seed: u64) -> RankRequest {
    RankRequest {
        app: AppOfInterest::Suite(app),
        model: ModelKind::NnT,
        predictive: vec![0, 30, 60],
        restrict: MachineFilter::all(),
        top_k: Some(5),
        seed,
        confidence: None,
        approx: None,
    }
}

fn marked_request(threshold: f64, seed: u64) -> RankRequest {
    RankRequest {
        restrict: MachineFilter::all().with_min_score(0, threshold),
        ..plain_request(3, seed)
    }
}

fn send(stream: &mut TcpStream, request: &RankRequest) {
    stream
        .write_all(format!("{}\n", write_request(request)).as_bytes())
        .unwrap();
}

/// Reads one response line; a timeout or closed connection comes back as
/// an `Err` so the caller can release the gate before asserting.
fn recv(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed".to_owned()),
        Ok(_) => Ok(line.trim_end().to_owned()),
        Err(e) => Err(format!("no response: {e}")),
    }
}

#[test]
fn a_panicking_request_fails_alone_and_the_server_keeps_serving() {
    let faulty = FaultyServer::spawn();
    for threshold in [POISON, HELD] {
        assert!(
            (0..faulty.plain.n_machines()).all(|m| faulty.plain.score(0, m) > threshold),
            "marker restrictions must not shrink the candidate set"
        );
    }
    let (good_a, poison, good_b) = (
        plain_request(0, 1),
        marked_request(POISON, 2),
        plain_request(1, 3),
    );
    let (mut stream, mut reader) = faulty.connect();
    for request in [&good_a, &poison, &good_b] {
        send(&mut stream, request);
    }
    let got: Vec<String> = (0..3).map(|_| recv(&mut reader).unwrap()).collect();
    assert_eq!(got[0], faulty.expected(&good_a));
    assert!(
        got[1].starts_with("err invariant "),
        "poisoned request: {}",
        got[1]
    );
    assert_eq!(got[2], faulty.expected(&good_b));

    // The batcher survived: a fresh miss still serves byte-identically.
    let fresh = plain_request(2, 4);
    send(&mut stream, &fresh);
    assert_eq!(recv(&mut reader).unwrap(), faulty.expected(&fresh));
    drop((stream, reader));
    let stats = faulty.server.join();
    assert_eq!(stats.panics, 1, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, stats.requests);
}

#[test]
fn a_held_miss_does_not_block_a_hit_on_another_connection() {
    let faulty = FaultyServer::spawn();
    let _release = OpenOnDrop(Arc::clone(&faulty.gate));
    let (warm, held) = (plain_request(0, 1), marked_request(HELD, 2));
    let (mut b_stream, mut b_reader) = faulty.connect();
    send(&mut b_stream, &warm);
    let warmed = recv(&mut b_reader);

    let (mut a_stream, mut a_reader) = faulty.connect();
    send(&mut a_stream, &held);
    let arrived = faulty.gate.wait_arrivals(1);
    send(&mut b_stream, &warm);
    let hit = recv(&mut b_reader);
    faulty.gate.open();
    let held_line = recv(&mut a_reader);

    assert!(arrived, "the held miss never reached the batcher");
    let expected = faulty.expected(&warm);
    assert_eq!(warmed.unwrap(), expected);
    assert_eq!(hit.unwrap(), expected, "hit waited behind the held miss");
    assert_eq!(held_line.unwrap(), faulty.expected(&held));
}

#[test]
fn a_hit_behind_a_held_miss_on_the_same_connection_keeps_request_order() {
    let faulty = FaultyServer::spawn();
    let _release = OpenOnDrop(Arc::clone(&faulty.gate));
    let (warm, held) = (plain_request(0, 1), marked_request(HELD, 2));
    let (mut stream, mut reader) = faulty.connect();
    send(&mut stream, &warm);
    let warmed = recv(&mut reader);

    send(&mut stream, &held);
    send(&mut stream, &warm);
    let arrived = faulty.gate.wait_arrivals(1);
    // The reader answers the hit at once (it is counted while the miss is
    // held), but nothing may be written while the miss at its head is.
    let answered = faulty.wait_for(|stats| stats.hits == 1);
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut early = [0u8; 1];
    let leaked = match reader.read(&mut early) {
        Ok(n) => n > 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    };
    stream.set_read_timeout(Some(PATIENCE)).unwrap();
    faulty.gate.open();
    let first = recv(&mut reader);
    let second = recv(&mut reader);

    assert!(arrived, "the held miss never reached the batcher");
    assert!(
        answered,
        "the reader did not answer the hit while the miss was held"
    );
    assert!(!leaked, "bytes arrived while the head of the line was held");
    let expected = faulty.expected(&warm);
    assert_eq!(warmed.unwrap(), expected);
    assert_eq!(first.unwrap(), faulty.expected(&held));
    assert_eq!(second.unwrap(), expected);
}

#[test]
fn misses_queued_behind_a_busy_batcher_share_its_next_pass() {
    let faulty = FaultyServer::spawn();
    let _release = OpenOnDrop(Arc::clone(&faulty.gate));
    let held = marked_request(HELD, 1);
    let (mut held_stream, mut held_reader) = faulty.connect();
    send(&mut held_stream, &held);
    let arrived = faulty.gate.wait_arrivals(1);

    let misses: Vec<RankRequest> = (0..4).map(|i| plain_request(i, 10 + i as u64)).collect();
    let mut clients: Vec<_> = misses.iter().map(|_| faulty.connect()).collect();
    for ((stream, _), request) in clients.iter_mut().zip(&misses) {
        send(stream, request);
    }
    let queued = faulty.wait_for(|stats| stats.queue_depth == 4);
    faulty.gate.open();
    let held_line = recv(&mut held_reader);
    let got: Vec<Result<String, String>> =
        clients.iter_mut().map(|(_, reader)| recv(reader)).collect();

    assert!(arrived, "the held miss never reached the batcher");
    assert!(queued, "the four misses never queued behind the held pass");
    assert_eq!(held_line.unwrap(), faulty.expected(&held));
    for (line, request) in got.into_iter().zip(&misses) {
        assert_eq!(line.unwrap(), faulty.expected(request));
    }
    drop(clients);
    drop((held_stream, held_reader));
    let stats = faulty.server.join();
    assert!(stats.max_batch_len >= 4, "{stats:?}");
    assert_eq!(stats.queue_depth, 0);
}
