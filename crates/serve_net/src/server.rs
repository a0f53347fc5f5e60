//! The TCP server: accept loop, per-connection reader/writer threads, a
//! result cache the readers share with a single batching thread, and
//! graceful drain on shutdown.
//!
//! # Threading model
//!
//! ```text
//!                      ┌──── lookup ────▶ ResultCache ◀──── insert ────┐
//!                      │                (Arc<Mutex<_>>)                │
//! accept loop ─spawns─▶ reader ────── miss (mpsc) ──────────────────▶ batcher
//!   (1 thread)         (1/conn)                                     (1 thread)
//!                      │ Ready(line) | Pending(slot),                  │ fills
//!                      ▼ (mpsc, in request order)                      │ slot
//!                    writer ◀────── line (one-shot) ───────────────────┘
//!                    (1/conn)
//! ```
//!
//! A reader answers a cache hit itself: it fingerprints the request
//! outside the lock, looks it up inside it, renders the line on its own
//! thread and queues it for the writer. Hits therefore never wait for
//! the batcher, and a hit on one connection never waits for a miss on
//! another. A miss goes to the batcher together with a one-shot reply
//! slot, and the reader queues the slot's receiving end for the writer.
//!
//! The batcher is the only place a miss is evaluated, and it is
//! work-conserving: it blocks for the first queued miss, takes whatever
//! else is already queued (up to 32 misses) without waiting for more, runs
//! one [`serve_batch`] pool pass with no lock held, inserts the fresh
//! responses into the cache, and then fills each slot. It never holds the
//! cache lock while a model runs.
//!
//! Each connection's writer takes its replies from one queue in request
//! order and blocks on a pending slot until the batcher fills it, so each
//! connection's responses come back in the order its requests were sent,
//! by construction. The protocol has no request ids, so a hit queued
//! behind a pending miss on the *same* connection still waits for it.
//!
//! A request whose evaluation panics fails alone: [`serve_batch`] contains
//! the panic to its slots as [`ServeError::Panicked`], answered with
//! `err invariant` and counted in [`ServerStats::panics`], and the rest of
//! the pass serves.
//!
//! # Backpressure
//!
//! Each connection's reader-to-writer queue is bounded (64 replies). A
//! reader that finds it full blocks until the writer takes a reply, so a
//! client that pipelines faster than the server answers simply stops
//! being read — TCP flow control pushes back to the sender — and one
//! greedy connection cannot queue unbounded work. A request line is read
//! at most [`MAX_LINE_BYTES`] + 1 bytes at a time, so an endless line
//! costs a bounded buffer too.
//!
//! # Graceful drain
//!
//! [`NetServer::shutdown`] stops the accept loop and the readers (no new
//! requests), but everything already accepted keeps flowing: the batcher
//! drains its queue (the channel yields buffered misses before reporting
//! disconnect), writers flush every pending response, and only then do
//! connections close. [`NetServer::join`] performs the drain and returns
//! the final [`ServerStats`]. Until then, the accept loop reaps the
//! threads of closed connections each time it accepts a new one, so the
//! server holds handles for its open connections only.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use datatrans_core::cache::ResultCache;
use datatrans_core::fingerprint::RequestFingerprint;
use datatrans_core::serve::{serve_batch, RankRequest, RankResponse, ServeConfig, ServeError};
use datatrans_dataset::view::DatabaseView;

use crate::protocol::{
    parse_line, render_result, write_response, write_serve_error, Command, ProtocolError,
    MAX_LINE_BYTES,
};

/// How long a blocked reader or the accept loop sleeps between checks of
/// the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Most cache misses evaluated in one pool pass.
const MAX_BATCH: usize = 32;

/// Most replies queued per connection for its writer before the reader
/// stops pulling new requests off the socket.
const MAX_INFLIGHT: usize = 64;

/// Tuning knobs of the network front end.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// The serving-engine configuration used for every batch.
    pub serve: ServeConfig,
    /// Capacity of the server-owned [`ResultCache`].
    pub cache_capacity: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            serve: ServeConfig::default(),
            cache_capacity: 256,
        }
    }
}

impl NetServerConfig {
    /// A configuration sized for tests: quick models, small cache.
    pub fn quick() -> Self {
        NetServerConfig {
            serve: ServeConfig::quick(),
            cache_capacity: 64,
        }
    }
}

/// Counters and gauges of a running server: read live with
/// [`NetServer::stats`], or finally with [`NetServer::join`].
///
/// Readers count hits and the batcher counts misses, so
/// `hits + misses == requests` whenever the server is idle; a live
/// snapshot reads each counter separately and may catch one mid-update.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Ranking requests served (cache hits included).
    pub requests: u64,
    /// Miss passes executed (one [`serve_batch`] call each). Hits are
    /// answered by the readers and never make a pass.
    pub batches: u64,
    /// Most cache misses evaluated in one pass.
    pub max_batch_len: u64,
    /// Requests answered from the result cache by their connection's
    /// reader.
    pub hits: u64,
    /// Requests that fell through to model evaluation in the batcher.
    pub misses: u64,
    /// Cache entries dropped by catalog-version moves.
    pub invalidations: u64,
    /// Malformed lines answered with an `err` line.
    pub protocol_errors: u64,
    /// Requests served through the approximate fast path (response
    /// carried an approx annex).
    pub approx_requests: u64,
    /// Candidate machines the approximate path short-circuited past exact
    /// evaluation, summed over all approx responses.
    pub machines_short_circuited: u64,
    /// Requests answered `err invariant` because evaluating them
    /// panicked ([`ServeError::Panicked`]). The rest of their pass is
    /// served, and the batcher keeps serving.
    pub panics: u64,
    /// Gauge: misses sent to the batcher and not yet taken into a pass.
    pub queue_depth: u64,
}

/// Shared atomic counters behind [`ServerStats`].
#[derive(Default)]
struct SharedStats {
    connections: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch_len: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    protocol_errors: AtomicU64,
    approx_requests: AtomicU64,
    machines_short_circuited: AtomicU64,
    panics: AtomicU64,
    queue_depth: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch_len: self.max_batch_len.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            approx_requests: self.approx_requests.load(Ordering::Relaxed),
            machines_short_circuited: self.machines_short_circuited.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
        }
    }

    /// Counts one served response's approximate-path effect.
    fn count_approx(&self, response: &RankResponse) {
        if let Some(report) = &response.approx {
            self.approx_requests.fetch_add(1, Ordering::Relaxed);
            self.machines_short_circuited
                .fetch_add(report.short_circuited as u64, Ordering::Relaxed);
        }
    }
}

/// State every server thread shares.
struct Shared {
    db: Arc<dyn DatabaseView + Send + Sync>,
    config: NetServerConfig,
    /// Looked up by every reader, filled by the batcher.
    cache: Mutex<ResultCache>,
    stats: SharedStats,
    shutdown: AtomicBool,
}

impl Shared {
    /// Answers `request` from the cache if it is resident, counting the
    /// hit and rendering its line. A poisoned lock counts as a miss.
    ///
    /// Only the batcher syncs the catalog version: the view is shared
    /// read-only, so its version cannot move while the server runs, and
    /// every resident entry was inserted by a pass that synced first.
    fn answer_hit(&self, fingerprint: RequestFingerprint, request: &RankRequest) -> Option<String> {
        let response = self.cache.lock().ok()?.lookup(fingerprint, request)?;
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        self.stats.count_approx(&response);
        Some(write_response(&response))
    }
}

/// A cache miss on its way to the batcher.
struct Miss {
    request: RankRequest,
    fingerprint: RequestFingerprint,
    /// The one-shot slot the batcher fills with the response line.
    reply: mpsc::SyncSender<String>,
}

/// One response in a connection's writer queue, in request order.
enum Reply {
    /// A line the reader already has: a cache hit, `ok pong` or a
    /// protocol error.
    Ready(String),
    /// A miss's slot, filled by the batcher.
    Pending(mpsc::Receiver<String>),
}

/// A running network front end. Dropping it triggers shutdown and joins
/// every thread; call [`NetServer::join`] to also collect the stats.
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    batch_handle: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` and spawns the accept, batcher, and (per connection)
    /// reader/writer threads. Use port 0 to let the OS pick; the bound
    /// address is [`NetServer::local_addr`].
    ///
    /// # Errors
    ///
    /// Returns the [`io::Error`] from binding the listener.
    pub fn spawn(
        db: Arc<dyn DatabaseView + Send + Sync>,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            db,
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            config,
            stats: SharedStats::default(),
            shutdown: AtomicBool::new(false),
        });
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (work_tx, work_rx) = mpsc::channel::<Miss>();

        let batch_handle = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_batcher(&shared, &work_rx))
        };

        let accept_handle = {
            let shared = Arc::clone(&shared);
            let conn_handles = Arc::clone(&conn_handles);
            // The accept loop owns the only long-lived work sender: when it
            // exits (shutdown) and every reader is done, the batcher sees
            // the channel disconnect and drains.
            thread::spawn(move || run_accept_loop(&listener, &work_tx, &shared, &conn_handles))
        };

        Ok(NetServer {
            local_addr,
            shared,
            accept_handle: Some(accept_handle),
            batch_handle: Some(batch_handle),
            conn_handles,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live snapshot of the counters and the queue-depth gauge.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Requests shutdown: stop accepting and stop reading new requests.
    /// Already-queued requests still get responses (graceful drain);
    /// [`NetServer::join`] waits for that to finish.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Shuts down, drains in-flight work, joins every thread, and returns
    /// the lifetime stats.
    pub fn join(mut self) -> ServerStats {
        self.drain();
        self.stats()
    }

    /// The drain sequence shared by [`NetServer::join`] and `Drop`:
    /// accept loop first (stops new connections and drops the long-lived
    /// work sender), then readers/writers, then the batcher (which exits
    /// once every work sender is gone and the queue is dry).
    fn drain(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        loop {
            let handle = match self.conn_handles.lock() {
                Ok(mut handles) => handles.pop(),
                Err(_) => None,
            };
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        if let Some(handle) = self.batch_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain();
    }
}

fn run_accept_loop(
    listener: &TcpListener,
    work_tx: &mpsc::Sender<Miss>,
    shared: &Arc<Shared>,
    conn_handles: &Mutex<Vec<JoinHandle<()>>>,
) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                let handles = spawn_connection(stream, work_tx.clone(), shared);
                if let Ok(mut all) = conn_handles.lock() {
                    // Drop the handles of connections that have closed, so
                    // the list holds the open connections only; dropping a
                    // finished thread's handle frees its stack.
                    all.retain(|handle| !handle.is_finished());
                    all.extend(handles);
                }
            }
            // Nothing pending (or a transient accept failure): poll the
            // shutdown flag again after a short sleep.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Spawns the reader and writer threads of one accepted connection.
fn spawn_connection(
    stream: TcpStream,
    work_tx: mpsc::Sender<Miss>,
    shared: &Arc<Shared>,
) -> Vec<JoinHandle<()>> {
    // One request line is small and one response line matters: disable
    // Nagle so a lone request is not held back by the kernel.
    let _ = stream.set_nodelay(true);
    // The listener is non-blocking and accepted sockets inherit that on
    // some platforms; readers want blocking reads with a timeout.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));

    // The bound is the connection's in-flight budget: a reader facing a
    // full queue blocks until the writer takes a reply.
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Reply>(MAX_INFLIGHT);
    let mut handles = Vec::with_capacity(2);

    let write_stream = stream.try_clone();
    {
        let reader = Reader {
            shared: Arc::clone(shared),
            misses: work_tx,
            replies: reply_tx,
        };
        handles.push(thread::spawn(move || reader.run(stream)));
    }
    if let Ok(write_stream) = write_stream {
        handles.push(thread::spawn(move || {
            run_writer(write_stream, &reply_rx);
        }));
    }
    handles
}

/// One connection's reader: parses lines, answers hits from the shared
/// cache, hands misses to the batcher, and queues every reply for the
/// writer in request order.
struct Reader {
    shared: Arc<Shared>,
    misses: mpsc::Sender<Miss>,
    replies: mpsc::SyncSender<Reply>,
}

impl Reader {
    /// Reads and dispatches lines until EOF, a socket error, shutdown, or
    /// a dead writer or batcher.
    fn run(&self, stream: TcpStream) {
        read_lines(
            &mut BufReader::new(stream),
            &mut Vec::new(),
            &self.shared.shutdown,
            |parsed| self.dispatch(parsed),
        );
    }

    /// Answers one parsed line: a hit, pong or protocol error becomes a
    /// ready line, a miss goes to the batcher and leaves its slot in the
    /// writer queue, blocking while the queue is full. Returns `false`
    /// when the connection should stop reading (the writer or batcher is
    /// gone).
    fn dispatch(&self, parsed: Result<Command, ProtocolError>) -> bool {
        if matches!(parsed, Err(ProtocolError::EmptyLine)) {
            return true;
        }
        let stats = &self.shared.stats;
        let mut batcher_alive = true;
        let reply = match parsed {
            Ok(Command::Ping) => Reply::Ready(String::from("ok pong")),
            Err(error) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Reply::Ready(error.to_line())
            }
            Ok(Command::Rank(request)) => {
                let fingerprint = RequestFingerprint::of(&request);
                match self.shared.answer_hit(fingerprint, &request) {
                    Some(line) => Reply::Ready(line),
                    None => {
                        let (slot_tx, slot_rx) = mpsc::sync_channel(1);
                        stats.queue_depth.fetch_add(1, Ordering::Relaxed);
                        let miss = Miss {
                            request: *request,
                            fingerprint,
                            reply: slot_tx,
                        };
                        // If the batcher is gone the miss (and its slot
                        // sender) is dropped, so the writer answers the
                        // slot with `err invariant`.
                        if self.misses.send(miss).is_err() {
                            stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                            batcher_alive = false;
                        }
                        Reply::Pending(slot_rx)
                    }
                }
            }
        };
        if self.replies.send(reply).is_err() {
            return false;
        }
        batcher_alive
    }
}

/// Splits `source` into request lines and hands each parsed line to
/// `dispatch`, until EOF, a read error, `stop`, or `dispatch` returning
/// `false`. A read that times out mid-line keeps the partial line in `buf`
/// and polls `stop` again.
///
/// One read appends at most [`MAX_LINE_BYTES`] + 1 bytes, so `buf` never
/// holds more than that: the bytes of an over-long line are counted and
/// dropped as they stream in, and its [`ProtocolError::LineTooLong`]
/// goes out, with the exact length, once the newline arrives.
fn read_lines(
    source: &mut impl BufRead,
    buf: &mut Vec<u8>,
    stop: &AtomicBool,
    mut dispatch: impl FnMut(Result<Command, ProtocolError>) -> bool,
) {
    // Bytes of the current line already dropped for overrunning the limit.
    let mut overflow: usize = 0;
    while !stop.load(Ordering::Relaxed) {
        let limit = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match source.by_ref().take(limit).read_until(b'\n', buf) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            // Timeout mid-line: whatever arrived is already in `buf`.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
        let complete = buf.last() == Some(&b'\n');
        if complete {
            buf.pop();
        }
        if overflow > 0 || buf.len() > MAX_LINE_BYTES {
            overflow += buf.len();
            buf.clear();
        }
        if !complete {
            // EOF lands mid-line next iteration; parse what we have so a
            // final unterminated request still gets its response.
            continue;
        }
        let parsed = match overflow {
            0 => parse_line(buf),
            got => Err(ProtocolError::LineTooLong { got }),
        };
        buf.clear();
        overflow = 0;
        if !dispatch(parsed) {
            break;
        }
    }
    // A trailing unterminated line at EOF is still a request.
    if !buf.is_empty() && !stop.load(Ordering::Relaxed) {
        dispatch(parse_line(buf));
    }
}

/// Writes response lines back to the client in request order, blocking
/// on each pending slot until the batcher fills it. Keeps draining
/// (without writing) after a socket error, so a reader blocked on a full
/// queue is never stranded behind a dead writer.
fn run_writer(stream: TcpStream, replies: &mpsc::Receiver<Reply>) {
    let mut out = io::BufWriter::new(stream);
    let mut sink_only = false;
    for reply in replies.iter() {
        let line = match reply {
            Reply::Ready(line) => line,
            Reply::Pending(slot) => slot.recv().unwrap_or_else(|_| {
                write_serve_error(&ServeError::Invariant {
                    what: "batcher dropped a pending reply",
                })
            }),
        };
        if !sink_only {
            let ok = out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush())
                .is_ok();
            if !ok {
                sink_only = true;
            }
        }
    }
}

/// The single batching thread, the only place a miss is evaluated. It
/// blocks for the first queued miss, takes whatever else is already
/// queued (up to [`MAX_BATCH`]) without a timer, serves the pass with no
/// lock held, inserts each fresh response into the shared cache, and
/// only then fills the slots, so a client that reads its answer and asks
/// again is served from the cache.
fn run_batcher(shared: &Shared, work_rx: &mpsc::Receiver<Miss>) {
    let stats = &shared.stats;
    // Disconnect means every sender (accept loop + readers) is gone and
    // the queue is dry: the drain is complete.
    while let Ok(first) = work_rx.recv() {
        let mut pass = vec![first];
        pass.extend(work_rx.try_iter().take(MAX_BATCH - 1));
        stats
            .queue_depth
            .fetch_sub(pass.len() as u64, Ordering::Relaxed);
        let (requests, slots): (Vec<RankRequest>, Vec<_>) = pass
            .into_iter()
            .map(|miss| (miss.request, (miss.fingerprint, miss.reply)))
            .unzip();

        let version = shared.db.catalog_version();
        let results = serve_batch(&*shared.db, &requests, &shared.config.serve);
        let n = requests.len() as u64;
        let panics = results
            .iter()
            .filter(|result| matches!(result, Err(ServeError::Panicked)))
            .count();
        stats.panics.fetch_add(panics as u64, Ordering::Relaxed);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.requests.fetch_add(n, Ordering::Relaxed);
        stats.misses.fetch_add(n, Ordering::Relaxed);
        stats.max_batch_len.fetch_max(n, Ordering::Relaxed);
        for response in results.iter().flatten() {
            stats.count_approx(response);
        }

        if let Ok(mut cache) = shared.cache.lock() {
            let dropped = cache.sync_version(version);
            stats.invalidations.fetch_add(dropped, Ordering::Relaxed);
            for ((request, result), (fingerprint, _)) in requests.iter().zip(&results).zip(&slots) {
                if let Ok(response) = result {
                    cache.insert(*fingerprint, request, response);
                }
            }
        }
        for ((_, reply), result) in slots.into_iter().zip(&results) {
            let _ = reply.send(render_result(result));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_request;
    use datatrans_core::serve::{AppOfInterest, ModelKind};
    use datatrans_dataset::benchmark::spec_cpu2006;
    use datatrans_dataset::generator::{generate, DatasetConfig};
    use datatrans_dataset::query::MachineFilter;
    use std::io::BufRead;

    fn test_db() -> Arc<dyn DatabaseView + Send + Sync> {
        Arc::new(generate(&DatasetConfig::default()).unwrap())
    }

    fn sample_request(seed: u64) -> RankRequest {
        RankRequest {
            app: AppOfInterest::Suite((seed as usize) % 5),
            model: ModelKind::NnT,
            predictive: vec![0, 30, 60],
            restrict: MachineFilter::all(),
            top_k: Some(5),
            seed,
            confidence: None,
            approx: None,
        }
    }

    fn connect(server: &NetServer) -> (std::io::BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let reader = std::io::BufReader::new(stream.try_clone().unwrap());
        (reader, stream)
    }

    fn request_line(
        reader: &mut std::io::BufReader<TcpStream>,
        stream: &mut TcpStream,
        line: &str,
    ) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_owned()
    }

    #[test]
    fn closed_connections_do_not_accumulate_thread_handles() {
        let server = NetServer::spawn(test_db(), "127.0.0.1:0", NetServerConfig::quick()).unwrap();
        for _ in 0..200 {
            let (mut reader, mut stream) = connect(&server);
            assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        }
        // Let the last connections' threads see EOF, then accept one more:
        // the accept that follows reaps every finished pair.
        thread::sleep(Duration::from_millis(200));
        let (mut reader, mut stream) = connect(&server);
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        let retained = server.conn_handles.lock().unwrap().len();
        assert!(
            retained <= 8,
            "{retained} handles retained after 201 connections"
        );
        drop((reader, stream));
        assert_eq!(server.join().connections, 201);
    }

    #[test]
    fn ping_round_trip_and_stats() {
        let server = NetServer::spawn(test_db(), "127.0.0.1:0", NetServerConfig::quick()).unwrap();
        let (mut reader, mut stream) = connect(&server);
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        drop((reader, stream));
        let stats = server.join();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn served_response_matches_in_process_bytes() {
        let db = test_db();
        let config = NetServerConfig::quick();
        let request = sample_request(7);
        let expected = render_result(
            &serve_batch(&*db, std::slice::from_ref(&request), &config.serve)
                .pop()
                .unwrap(),
        );
        let server = NetServer::spawn(db, "127.0.0.1:0", config).unwrap();
        let (mut reader, mut stream) = connect(&server);
        let line = write_request(&request);
        let got = request_line(&mut reader, &mut stream, &line);
        assert_eq!(got, expected);
        // Same request again: a cache hit must be byte-identical too.
        let again = request_line(&mut reader, &mut stream, &line);
        assert_eq!(again, expected);
        drop((reader, stream));
        let stats = server.join();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn garbage_line_gets_error_and_connection_survives() {
        let server = NetServer::spawn(test_db(), "127.0.0.1:0", NetServerConfig::quick()).unwrap();
        let (mut reader, mut stream) = connect(&server);
        let err = request_line(
            &mut reader,
            &mut stream,
            "rank model=bogus app=suite:0 predictive=0",
        );
        assert!(err.starts_with("err bad-value "), "got: {err}");
        // The same connection still serves valid work afterwards.
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        drop((reader, stream));
        let stats = server.join();
        assert_eq!(stats.protocol_errors, 1);
    }

    #[test]
    fn pipelining_past_the_inflight_budget_keeps_request_order() {
        let db = test_db();
        let config = NetServerConfig::quick();
        // Twice the budget, sent before a single response is read: the
        // reader must stall on its full reply queue.
        let requests: Vec<RankRequest> = (0..2 * MAX_INFLIGHT as u64 + 2)
            .map(|i| sample_request(i % 10))
            .collect();
        let expected: Vec<String> = serve_batch(&*db, &requests, &config.serve)
            .iter()
            .map(render_result)
            .collect();
        let server = NetServer::spawn(db, "127.0.0.1:0", config).unwrap();
        let (mut reader, stream) = connect(&server);
        let mut stream = stream;
        // Fire everything without reading a single response.
        for request in &requests {
            stream.write_all(write_request(request).as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        for want in &expected {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), want);
        }
        drop((reader, stream));
        let stats = server.join();
        assert_eq!(stats.requests, requests.len() as u64);
        assert_eq!(stats.hits + stats.misses, stats.requests);
    }

    #[test]
    fn shutdown_drains_pending_responses_before_closing() {
        let db = test_db();
        let config = NetServerConfig::quick();
        let requests: Vec<RankRequest> = (0..4).map(sample_request).collect();
        let expected: Vec<String> = serve_batch(&*db, &requests, &config.serve)
            .iter()
            .map(render_result)
            .collect();
        let server = NetServer::spawn(db, "127.0.0.1:0", config).unwrap();
        let (mut reader, mut stream) = connect(&server);
        for request in &requests {
            stream.write_all(write_request(request).as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        // Ask for shutdown while the batch is (likely) still in flight;
        // every already-submitted request must still get its response.
        server.shutdown();
        let mut got = Vec::new();
        for _ in &expected {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            got.push(line.trim_end().to_owned());
        }
        // Responses that did make it out are correct and in order.
        assert_eq!(got, expected[..got.len()].to_vec());
        drop((reader, stream));
        server.join();
    }

    #[test]
    fn oversized_line_is_rejected_but_connection_survives() {
        let server = NetServer::spawn(test_db(), "127.0.0.1:0", NetServerConfig::quick()).unwrap();
        let (mut reader, mut stream) = connect(&server);
        let huge = "x".repeat(MAX_LINE_BYTES + 10);
        let err = request_line(&mut reader, &mut stream, &huge);
        assert!(err.starts_with("err line-too-long "), "got: {err}");
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        // A line of several MiB streams through in pieces and still gets
        // its exact length back.
        let streamed = "x".repeat(4 << 20);
        let err = request_line(&mut reader, &mut stream, &streamed);
        assert!(
            err.starts_with(&format!("err line-too-long line of {} bytes ", 4 << 20)),
            "got: {err}"
        );
        assert_eq!(request_line(&mut reader, &mut stream, "ping"), "ok pong");
        drop((reader, stream));
        server.join();
    }

    #[test]
    fn an_endless_line_is_dropped_as_it_streams_and_the_next_line_parses() {
        const STREAMED: usize = 8 << 20;
        let mut source = BufReader::new(
            io::repeat(b'x')
                .take(STREAMED as u64)
                .chain(&b"\nping\n"[..]),
        );
        let mut buf = Vec::new();
        let mut got = Vec::new();
        read_lines(&mut source, &mut buf, &AtomicBool::new(false), |parsed| {
            got.push(parsed);
            true
        });
        assert_eq!(
            got,
            vec![
                Err(ProtocolError::LineTooLong { got: STREAMED }),
                Ok(Command::Ping)
            ]
        );
        assert!(
            buf.capacity() <= 2 * (MAX_LINE_BYTES + 1),
            "line buffer grew to {} bytes",
            buf.capacity()
        );
    }

    #[test]
    fn serve_errors_travel_the_wire_as_typed_lines() {
        let server = NetServer::spawn(test_db(), "127.0.0.1:0", NetServerConfig::quick()).unwrap();
        let (mut reader, mut stream) = connect(&server);
        let mut bad = sample_request(0);
        bad.top_k = Some(0);
        let err = request_line(&mut reader, &mut stream, &write_request(&bad));
        assert!(err.starts_with("err zero-top-k "), "got: {err}");
        let mut bad = sample_request(0);
        bad.predictive = vec![10_000];
        let err = request_line(&mut reader, &mut stream, &write_request(&bad));
        assert!(
            err.starts_with("err predictive-out-of-range "),
            "got: {err}"
        );
        let mut bad = sample_request(0);
        bad.predictive = vec![0, 30, 0];
        let err = request_line(&mut reader, &mut stream, &write_request(&bad));
        assert!(err.starts_with("err duplicate-predictive "), "got: {err}");
        let mut bad = sample_request(0);
        let mut app = spec_cpu2006()[0].characteristics;
        app.working_set_mib = -1.0;
        bad.app = AppOfInterest::External(app);
        let err = request_line(&mut reader, &mut stream, &write_request(&bad));
        assert!(err.starts_with("err invalid-app "), "got: {err}");
        drop((reader, stream));
        server.join();
    }

    #[test]
    fn response_lines_parse_as_ok_payloads() {
        // Belt-and-braces: the ok line exposes the same ranking as the
        // in-process response object.
        let db = test_db();
        let config = NetServerConfig::quick();
        let request = sample_request(3);
        let response: RankResponse =
            serve_batch(&*db, std::slice::from_ref(&request), &config.serve)
                .pop()
                .unwrap()
                .unwrap();
        let line = render_result(&Ok(response.clone()));
        assert!(line.contains(&format!("candidates={}", response.candidates)));
        let ranked_field = line
            .split(" ranked=")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap();
        assert_eq!(ranked_field.split(',').count(), response.ranked.len());
    }
}
