//! `actuary serve` — a long-running process answering POSTed scenario
//! documents with chunk-streamed artifacts over HTTP/1.1.
//!
//! The server is hand-rolled on `std::net::TcpListener` (no new
//! dependencies): a bounded pool of worker threads pulls accepted
//! connections from a rendezvous channel, speaks persistent HTTP/1.1
//! (keep-alive with pipelined request parsing), and answers:
//!
//! | method | path       | body          | response |
//! |--------|------------|---------------|----------|
//! | `POST` | `/run`     | scenario TOML | `200`, chunked: every artifact of the run, in order — `text/csv` by default, JSON lines under `Accept: application/json` |
//! | `GET`  | `/healthz` | —             | `200 ok` |
//! | `GET`  | `/statz`   | —             | `200`, one JSON object of serving counters |
//! | `GET`  | `/metricsz`| —             | `200`, Prometheus text exposition of the same registry |
//!
//! A served scenario goes through exactly the same runner
//! (`Scenario::run_with`) and
//! [`ScenarioRun::artifacts`](actuary_scenario::ScenarioRun::artifacts)
//! renderers as `actuary run`, so the streamed CSV body is byte-identical to
//! `actuary run FILE --csv` — zero new model code. The JSON-lines
//! encoding is the [`Artifact`] layer's second
//! *sink* over the same row source, not a second serializer. Malformed
//! TOML answers `400` with the parser's line:column diagnostic in the
//! body; a scenario that parses but fails in the engine answers `422`;
//! oversized bodies answer `413`. A batch run does all model work
//! *before* the `200` header is written, so a success status never
//! precedes a failure (`?stream=refine` trades that for immediacy; see
//! `respond_run`).
//!
//! # Content-addressed result cache
//!
//! Successful runs are cached under the canonical digest of the *parsed*
//! document ([`actuary_scenario::canon::digest_document`]), so formatting,
//! key order and comments do not defeat the cache — only semantics do. A
//! hit replays the stored run through the same artifact renderers,
//! byte-identical to a cold miss (in either encoding). Below the result
//! cache, a [`SharedCoreCache`] reuses the expensive quantity-independent
//! core evaluations across *overlapping* (not just identical) requests,
//! keyed by the canonical digest of the library portion of the document.
//! Hit/miss/eviction counters for both layers are served on `GET /statz`.
//!
//! # Observability
//!
//! Every instrument lives in one per-server [`actuary_obs::Registry`]:
//! request counters, per-request latency/size histograms (labeled by
//! method, route and status), and collector callbacks polling the two
//! cache layers. `GET /metricsz` renders that registry (merged with the
//! process-global one, where the engine's phase spans land) in
//! Prometheus text exposition format, and `GET /statz` is a JSON view
//! over the *same snapshot type* — the two endpoints cannot drift.
//! Each served request also emits one `http.request` access-log event
//! through [`actuary_obs::log`] (`--log-format text|json`,
//! `--log-level`). Observability is off the result path: artifact
//! bytes are asserted identical with metrics enabled (see the
//! `serve_obs` integration test), and all log output goes to stderr —
//! stdout stays reserved for the handshake.
//!
//! # Backpressure and shutdown
//!
//! Per-client-IP admission happens before any work: an optional token-
//! bucket request rate and an optional concurrent-request cap, both
//! answering `429` with a `Retry-After` header when exceeded. When every
//! worker is busy, accepted connections queue in the dispatch channel and
//! the OS backlog (never dropped), and a rate-limited one-line note lands
//! on stderr so operators can tell server saturation from client
//! slowness. `SIGTERM`/`SIGINT` stop the accept loop, drain in-flight and
//! queued requests to completion (responses carry `Connection: close`),
//! then exit cleanly.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use actuary_dse::cache::{CacheStats, Lru};
use actuary_dse::portfolio::SharedCoreCache;
use actuary_dse::refine::ExploreMode;
use actuary_obs::clock::{self, Stopwatch, Tick};
use actuary_obs::log::{self, Format, Level, RateLimited};
use actuary_obs::metrics::{LATENCY_SECONDS, SIZE_BYTES};
use actuary_obs::{expo, Counter, Registry};
use actuary_report::{Artifact, IoSink};
use actuary_scenario::canon::{digest_document, library_digest};
use actuary_scenario::toml::parse as parse_toml;
use actuary_scenario::{Job, Scenario, ScenarioRun, StreamSink};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a POSTed scenario document.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Target payload size of one response chunk.
const CHUNK_BYTES: usize = 8 * 1024;
/// Upper bound on requests served over one keep-alive connection; the
/// 1001st answer says `Connection: close` so no client monopolizes a
/// worker forever.
const MAX_KEEPALIVE_REQUESTS: usize = 1000;
/// Seconds an idle keep-alive connection may sit between requests before
/// the worker reclaims itself (also the timeout between body segments).
const IDLE_READ_SECS: u64 = 5;
/// Per-client entries the admission governor tracks before it prunes
/// idle buckets.
const MAX_TRACKED_CLIENTS: usize = 4096;
/// Upper bound on one served explore job's grid, in cells. A few KB of
/// TOML can request a combinatorially huge grid (five 2,000-entry axes =
/// 3.2 × 10¹⁶ cells), so the body-size cap alone does not bound the
/// server's work; `actuary run` stays uncapped — there the operator wrote
/// the file.
const MAX_SERVED_CELLS: u128 = 1_000_000;
/// Upper bound for `mode = "refine"` explore jobs. Refinement prices the
/// axis endpoints in full and, between them, only the configurations its
/// cost bound cannot exclude, so the served work scales with the
/// *structure* of the space, not its cell count — grids up to 10⁸ cells
/// stay answerable.
const MAX_SERVED_CELLS_REFINE: u128 = 100_000_000;

/// Everything `actuary serve` can be configured with; see the flag docs
/// in `main.rs` and `docs/operations.md`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind, `host:port` (port `0` = OS-assigned).
    pub addr: String,
    /// Engine threads per request (`0` = all hardware threads).
    pub engine_threads: usize,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Result-cache capacity in cached runs (`0` disables it).
    pub result_cache_entries: usize,
    /// Core-cache capacity in cached core evaluations (`0` disables it).
    pub core_cache_entries: usize,
    /// Per-client-IP sustained request rate per second (`0` = unlimited).
    pub rate_limit: u32,
    /// Per-client-IP concurrent `/run` requests (`0` = unlimited).
    pub max_concurrent: u32,
    /// Minimum severity of emitted log events.
    pub log_level: Level,
    /// Log line encoding, `text` or `json`.
    pub log_format: Format,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:8080".to_string(),
            engine_threads: 0,
            workers: 4,
            result_cache_entries: 16,
            core_cache_entries: 4096,
            rate_limit: 0,
            max_concurrent: 0,
            log_level: Level::Info,
            log_format: Format::Text,
        }
    }
}

/// Binds the address and serves until `SIGTERM`/`SIGINT`, then drains
/// in-flight requests and returns. The bound address is announced on
/// `out`.
///
/// # Errors
///
/// Returns a message when the address cannot be bound or the shutdown
/// handler cannot be registered; per-connection errors are answered over
/// HTTP and never take the server down.
pub fn serve(options: &ServeOptions, out: &mut dyn Write) -> Result<(), String> {
    log::init(options.log_level, options.log_format);
    let listener = TcpListener::bind(&options.addr)
        .map_err(|e| format!("cannot bind {:?}: {e}", options.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the bound address: {e}"))?;
    // The address line is the startup handshake: tests (and scripts) bind
    // port 0 and read the chosen port from it, so flush before serving.
    writeln!(
        out,
        "actuary serve: listening on http://{local} ({} worker(s); POST /run, GET /healthz, GET /statz, GET /metricsz)",
        options.workers
    )
    .and_then(|()| out.flush())
    .map_err(|e| e.to_string())?;

    let state = Arc::new(ServerState::new(options));
    for sig in [signal_hook::consts::SIGTERM, signal_hook::consts::SIGINT] {
        signal_hook::flag::register(sig, Arc::clone(&state.shutdown))
            .map_err(|e| format!("cannot register the shutdown handler: {e}"))?;
    }
    // Shutdown is a flag poll, so the accept loop must never block in
    // `accept` indefinitely: nonblocking accept + a short sleep.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure the listener: {e}"))?;

    let (tx, rx) = mpsc::sync_channel::<TcpStream>(options.workers);
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(options.workers);
    for _ in 0..options.workers {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        workers.push(std::thread::spawn(move || loop {
            // Hold the lock only to pull the next connection, not to
            // serve it — the pool drains the queue concurrently.
            let next = match rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => break,
            };
            match next {
                Ok(stream) => {
                    // A panicking request must cost at most its own
                    // connection, never a pool slot — an uncaught panic
                    // here would silently shrink the pool until the
                    // server stops answering while still accepting.
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(stream, &state);
                    }));
                    if caught.is_err() {
                        log::event(
                            Level::Error,
                            "serve.panic",
                            &[(
                                "note",
                                "request handler panicked; connection dropped".into(),
                            )],
                        );
                    }
                }
                // Channel closed: the accept loop is shutting down and
                // the queue is drained.
                Err(_) => break,
            }
        }));
    }

    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // The accepted socket must block normally regardless of
                // the listener's mode.
                let _ = stream.set_nonblocking(false);
                dispatch(stream, &tx, &state);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            // A failed accept (e.g. the peer reset before we got to it)
            // must not take the server down.
            Err(_) => continue,
        }
    }

    // Graceful drain: closing the channel makes every worker finish its
    // current connection (responses during shutdown say `Connection:
    // close`), drain the queue, and exit.
    drop(tx);
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

/// Hands one accepted connection to the worker pool, emitting a
/// rate-limited (≤ 1 per ~5 s) `serve.saturated` log event when the pool
/// is saturated, then queueing anyway — the backpressure lands on the
/// accept loop and the OS backlog, never on a dropped connection.
fn dispatch(stream: TcpStream, tx: &mpsc::SyncSender<TcpStream>, state: &ServerState) {
    match tx.try_send(stream) {
        Ok(()) => {}
        Err(mpsc::TrySendError::Full(stream)) => {
            state.metrics.saturation.inc();
            state.saturation_note.emit(
                Level::Warn,
                "serve.saturated",
                &[
                    ("saturated_total", state.metrics.saturation.get().into()),
                    ("hint", "raise --workers if this persists".into()),
                ],
            );
            let _ = tx.send(stream);
        }
        Err(mpsc::TrySendError::Disconnected(_)) => {}
    }
}

/// Everything the workers share: caches, admission control, the metric
/// registry and the shutdown flag.
struct ServerState {
    engine_threads: usize,
    results: Arc<ResultCache>,
    cores: Arc<SharedCoreCache>,
    governor: Governor,
    metrics: Metrics,
    registry: Arc<Registry>,
    saturation_note: RateLimited,
    shutdown: Arc<AtomicBool>,
}

/// The hot-path counters, resolved once at startup so serving a request
/// never takes the registry lock for them.
struct Metrics {
    requests: Arc<Counter>,
    rate_limited: Arc<Counter>,
    saturation: Arc<Counter>,
}

impl ServerState {
    fn new(options: &ServeOptions) -> Self {
        // One registry per server (not the process-global one): unit
        // tests build many servers in one process and each must count
        // from zero. The global registry — engine phase spans — is
        // merged in at render time instead.
        let registry = Arc::new(Registry::new());
        let metrics = Metrics {
            requests: registry.counter(
                "actuary_http_requests_total",
                "Requests answered, across all endpoints and statuses.",
                &[],
            ),
            rate_limited: registry.counter(
                "actuary_http_rate_limited_total",
                "Requests answered 429 by the per-client admission governor.",
                &[],
            ),
            saturation: registry.counter(
                "actuary_worker_saturation_total",
                "Accepted connections that found every worker busy and queued.",
                &[],
            ),
        };
        let results = Arc::new(ResultCache::new(options.result_cache_entries));
        let cores = Arc::new(SharedCoreCache::new(options.core_cache_entries));
        register_cache_metrics(&registry, &results, &cores);
        ServerState {
            engine_threads: options.engine_threads,
            results,
            cores,
            governor: Governor::new(options.rate_limit, options.max_concurrent),
            metrics,
            registry,
            saturation_note: RateLimited::new(5.0),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// Joins both cache layers to the registry via collector callbacks: the
/// caches keep owning their counters, and every snapshot (so both
/// `/statz` and `/metricsz`) polls the live values.
fn register_cache_metrics(
    registry: &Registry,
    results: &Arc<ResultCache>,
    cores: &Arc<SharedCoreCache>,
) {
    let results = Arc::clone(results);
    register_cache_layer(
        registry,
        [
            ("actuary_result_cache_hits_total", "Result-cache hits."),
            ("actuary_result_cache_misses_total", "Result-cache misses."),
            (
                "actuary_result_cache_evictions_total",
                "Result-cache LRU evictions.",
            ),
            (
                "actuary_result_cache_entries",
                "Cached runs resident in the result cache.",
            ),
        ],
        move || results.stats(),
    );
    let cores = Arc::clone(cores);
    register_cache_layer(
        registry,
        [
            ("actuary_core_cache_hits_total", "Core-cache hits."),
            ("actuary_core_cache_misses_total", "Core-cache misses."),
            (
                "actuary_core_cache_evictions_total",
                "Core-cache LRU evictions.",
            ),
            (
                "actuary_core_cache_entries",
                "Core evaluations resident in the shared core cache.",
            ),
        ],
        move || cores.stats(),
    );
}

/// Registers one cache layer: the name and help text of its hit, miss
/// and eviction counters and of its occupancy gauge, in that order, all
/// read from `stats`.
fn register_cache_layer(
    registry: &Registry,
    [hits, misses, evictions, entries]: [(&str, &str); 4],
    stats: impl Fn() -> CacheStats + Clone + Send + Sync + 'static,
) {
    let read = stats.clone();
    registry.counter_fn(hits.0, hits.1, &[], move || read().hits);
    let read = stats.clone();
    registry.counter_fn(misses.0, misses.1, &[], move || read().misses);
    let read = stats.clone();
    registry.counter_fn(evictions.0, evictions.1, &[], move || read().evictions);
    registry.gauge_fn(entries.0, entries.1, &[], move || stats().entries as f64);
}

/// Locks a mutex, surviving poisoning: every guarded structure here is
/// plain data that stays coherent even if a panic ever unwound through
/// an update.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// --- Result cache ---------------------------------------------------------

/// LRU cache of successful runs, keyed by the canonical digest of the
/// parsed scenario document. One cached run serves both encodings — the
/// renderers run per response, only the model work is skipped.
type ResultCache = Lru<[u8; 32], Arc<ScenarioRun>>;

// --- Admission control ----------------------------------------------------

/// Per-client-IP admission: a token bucket for sustained rate (burst up
/// to one second's worth) and a concurrent-request cap. Both off by
/// default; `/healthz` and `/statz` are always exempt.
struct Governor {
    rate_limit: u32,
    max_concurrent: u32,
    clients: Mutex<BTreeMap<IpAddr, ClientBucket>>,
}

struct ClientBucket {
    tokens: f64,
    refilled: Tick,
    active: u32,
}

/// Proof of admission; dropping it releases the concurrency slot.
struct Admission<'a> {
    governor: &'a Governor,
    ip: Option<IpAddr>,
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        if let Some(ip) = self.ip {
            let mut clients = lock(&self.governor.clients);
            if let Some(bucket) = clients.get_mut(&ip) {
                bucket.active = bucket.active.saturating_sub(1);
            }
        }
    }
}

impl Governor {
    fn new(rate_limit: u32, max_concurrent: u32) -> Self {
        Governor {
            rate_limit,
            max_concurrent,
            clients: Mutex::new(BTreeMap::new()),
        }
    }

    /// Admits or asks the client to retry after the returned number of
    /// seconds. Connections without a peer address (unit-test streams)
    /// have nothing to key on and are always admitted.
    fn admit(&self, peer: Option<IpAddr>) -> Result<Admission<'_>, u64> {
        if self.rate_limit == 0 && self.max_concurrent == 0 {
            return Ok(Admission {
                governor: self,
                ip: None,
            });
        }
        let Some(ip) = peer else {
            return Ok(Admission {
                governor: self,
                ip: None,
            });
        };
        let mut clients = lock(&self.clients);
        if clients.len() > MAX_TRACKED_CLIENTS {
            // Keep only clients with requests in flight; a pruned heavy
            // client restarts with a full bucket, which under-limits for
            // one second — bounded memory is worth that.
            clients.retain(|_, bucket| bucket.active > 0);
        }
        let now = clock::now();
        let bucket = clients.entry(ip).or_insert_with(|| ClientBucket {
            tokens: f64::from(self.rate_limit.max(1)),
            refilled: now,
            active: 0,
        });
        if self.rate_limit > 0 {
            let rate = f64::from(self.rate_limit);
            let elapsed = now.seconds_since(bucket.refilled);
            bucket.tokens = (bucket.tokens + elapsed * rate).min(rate);
            bucket.refilled = now;
            if bucket.tokens < 1.0 {
                let wait = ((1.0 - bucket.tokens) / rate).ceil().max(1.0);
                return Err(wait as u64);
            }
        }
        if self.max_concurrent > 0 && bucket.active >= self.max_concurrent {
            return Err(1);
        }
        if self.rate_limit > 0 {
            bucket.tokens -= 1.0;
        }
        bucket.active += 1;
        Ok(Admission {
            governor: self,
            ip: Some(ip),
        })
    }
}

// --- Connection handling --------------------------------------------------

fn handle_connection(stream: TcpStream, state: &ServerState) {
    // A response is written as head + chunks before the next read; with
    // Nagle on, that write-write-read pattern stalls ~40 ms per request
    // on delayed ACKs, dwarfing a cache hit.
    let _ = stream.set_nodelay(true);
    // The read timeout doubles as the keep-alive idle timeout: a worker
    // blocked on a silent client reclaims itself after this long.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(IDLE_READ_SECS)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let peer = stream.peer_addr().ok().map(|addr| addr.ip());
    let mut stream = stream;
    serve_connection(&mut stream, peer, state);
}

/// Serves one connection: a keep-alive loop over pipelined requests.
/// Generic over the stream so the unit tests drive it with an in-memory
/// duplex. Every answer, a read-level error's included, is counted,
/// observed and logged.
fn serve_connection<S: Read + Write>(stream: &mut S, peer: Option<IpAddr>, state: &ServerState) {
    // Count response bytes at the stream boundary so every handler's
    // output (heads, chunk framing, bodies) lands in one histogram.
    let mut stream = Metered {
        inner: stream,
        written: 0,
    };
    // Bytes read past the previous request (pipelining) wait here.
    let mut buf: Vec<u8> = Vec::new();
    for served in 1..=MAX_KEEPALIVE_REQUESTS {
        // `None` is a clean close or an idle timeout between requests.
        let Some(read) = read_request(&mut stream, &mut buf).transpose() else {
            return;
        };
        // The stopwatch starts after the request is fully read: idle
        // keep-alive time between requests is the client's, not ours.
        let stopwatch = Stopwatch::start();
        let written_before = stream.written;
        state.metrics.requests.inc();
        let (method, route, keep, answer) = match read {
            // After a read-level error the stream position is unknowable
            // (an unread body would parse as the next head), so the
            // connection always closes. The request was never routed, so
            // its method and route are labelled `other`.
            Err(e) => (
                "other",
                "other",
                false,
                reply(&mut stream, e.status, &e.message, false),
            ),
            Ok(request) => {
                let keep = request.keep_alive
                    && served < MAX_KEEPALIVE_REQUESTS
                    && !state.shutdown.load(Ordering::SeqCst);
                // The query string selects response *delivery*
                // (`?stream=refine`), not the resource; routing happens on
                // the bare path.
                let (path, query) = match request.path.split_once('?') {
                    Some((path, query)) => (path, Some(query)),
                    None => (request.path.as_str(), None),
                };
                let answer = match (request.method.as_str(), path) {
                    ("GET", "/healthz") => reply(&mut stream, 200, "ok\n", keep),
                    ("GET", "/statz") => respond_statz(&mut stream, state, keep),
                    ("GET", "/metricsz") => respond_metricsz(&mut stream, state, keep),
                    ("POST", "/run") => match state.governor.admit(peer) {
                        Ok(_admission) => respond_run(&mut stream, &request, query, state, keep),
                        Err(retry_after) => {
                            state.metrics.rate_limited.inc();
                            respond(
                                &mut stream,
                                429,
                                PLAIN_TEXT,
                                &format!("Retry-After: {retry_after}\r\n"),
                                &format!("rate limit exceeded; retry in {retry_after}s\n"),
                                keep,
                            )
                        }
                    },
                    ("GET" | "POST", _) => reply(
                        &mut stream,
                        404,
                        "no such endpoint (POST /run, GET /healthz, GET /statz, GET /metricsz)\n",
                        keep,
                    ),
                    _ => reply(
                        &mut stream,
                        405,
                        "only POST /run, GET /healthz, GET /statz and GET /metricsz are served\n",
                        keep,
                    ),
                };
                (
                    method_label(&request.method),
                    route_label(path),
                    keep,
                    answer,
                )
            }
        };
        record_request(
            state,
            method,
            route,
            answer.status,
            stopwatch.elapsed_seconds(),
            stream.written - written_before,
        );
        if !keep || !answer.usable {
            return;
        }
    }
}

/// What a handler reports back to the keep-alive loop: the status it
/// answered (for metrics and the access log) and whether the connection
/// is still usable.
struct Reply {
    status: u16,
    usable: bool,
}

/// Counts bytes written through to the inner stream; reads delegate.
struct Metered<'a, S> {
    inner: &'a mut S,
    written: u64,
}

impl<S: Read> Read for Metered<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: Write> Write for Metered<'_, S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Bounded label values: anything a client can vary freely (paths,
/// methods) collapses to `other` so metric cardinality stays fixed.
fn route_label(path: &str) -> &'static str {
    match path {
        "/run" => "/run",
        "/healthz" => "/healthz",
        "/statz" => "/statz",
        "/metricsz" => "/metricsz",
        _ => "other",
    }
}

fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        _ => "other",
    }
}

/// The `status` metric label and the reason phrase of every status the
/// server answers: the one table that status lines and metric labels
/// are both read from. (`100 Continue` is an interim response, not an
/// answer.)
fn status_text(status: u16) -> (&'static str, &'static str) {
    match status {
        200 => ("200", "OK"),
        400 => ("400", "Bad Request"),
        404 => ("404", "Not Found"),
        405 => ("405", "Method Not Allowed"),
        411 => ("411", "Length Required"),
        413 => ("413", "Content Too Large"),
        422 => ("422", "Unprocessable Content"),
        429 => ("429", "Too Many Requests"),
        431 => ("431", "Request Header Fields Too Large"),
        501 => ("501", "Not Implemented"),
        _ => ("other", "Unknown"),
    }
}

/// Records one answered request into the latency and size histograms
/// and emits its access-log event.
fn record_request(
    state: &ServerState,
    method: &'static str,
    route: &'static str,
    status: u16,
    seconds: f64,
    bytes: u64,
) {
    state
        .registry
        .histogram(
            "actuary_http_request_seconds",
            "Wall time from request fully read to response fully written.",
            &[
                ("method", method),
                ("route", route),
                ("status", status_text(status).0),
            ],
            LATENCY_SECONDS,
        )
        .observe(seconds);
    state
        .registry
        .histogram(
            "actuary_http_response_bytes",
            "Response size on the wire, including head and chunk framing.",
            &[("route", route)],
            SIZE_BYTES,
        )
        .observe(bytes as f64);
    if log::enabled(Level::Info) {
        log::event(
            Level::Info,
            "http.request",
            &[
                ("method", method.into()),
                ("route", route.into()),
                ("status", status.into()),
                ("seconds", seconds.into()),
                ("bytes", bytes.into()),
            ],
        );
    }
}

/// One parsed request.
#[derive(Debug)]
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    /// The client's keep-alive wish: `Connection` header if present,
    /// otherwise the HTTP-version default (1.1 keeps, 1.0 closes).
    keep_alive: bool,
    /// `Accept: application/json` selects the JSON-lines encoding.
    accept_json: bool,
}

/// A read-level error: the status it answers and the plain-text body
/// naming the problem.
#[derive(Debug)]
struct HttpError {
    status: u16,
    message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Reads and parses one HTTP/1.1 request (head, then a `Content-Length`
/// body on any method, honoring `Expect: 100-continue` the way curl sends
/// it). A `POST` without a length, conflicting lengths, a header line
/// that could be read two ways and any `Transfer-Encoding` are errors, so
/// a body's end is never guessed.
///
/// `buf` persists across calls on one connection: bytes past the parsed
/// request (the next pipelined request) stay buffered for the next call.
/// `Ok(None)` means the client closed (or went idle past the timeout)
/// *between* requests — a normal end of a keep-alive conversation, not an
/// error.
fn read_request<S: Read + Write>(
    stream: &mut S,
    buf: &mut Vec<u8>,
) -> Result<Option<Request>, HttpError> {
    let io_err = |e: io::Error| HttpError::new(400, format!("request read failed: {e}\n"));
    let is_timeout = |e: &io::Error| {
        matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    };
    let mut tmp = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_subslice(buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(
                431,
                format!("request heads are capped at {MAX_HEAD_BYTES} bytes\n"),
            ));
        }
        match stream.read(&mut tmp) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::new(400, "truncated request head\n"));
            }
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if is_timeout(&e) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::new(400, "timed out mid-request head\n"));
            }
            Err(e) => return Err(io_err(e)),
        }
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    // Lines end at CRLF only. A bare CR or LF inside a line is a line
    // break to some recipients and data to others (RFC 9112 §2.2), and a
    // NUL or other control character is where some parsers stop reading a
    // value (RFC 9110 §5.5), so either is rejected, not kept in a value.
    // HTAB is the one control character a field value may hold.
    let forbidden = |b: u8| b.is_ascii_control() && b != b'\t';
    if let Some(line) = head.split("\r\n").find(|line| line.bytes().any(forbidden)) {
        let what = if line.contains(['\r', '\n']) {
            "bare CR or LF"
        } else {
            "control character"
        };
        return Err(HttpError::new(
            400,
            format!("{what} in the request head line {line:?}\n"),
        ));
    }
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    // `method SP request-target SP HTTP-version` (RFC 9112 §3): a token
    // method, single spaces, a target of visible characters and nothing
    // after the version.
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version), None)
            if is_token(method)
                && !path.is_empty()
                && path.bytes().all(|b| b.is_ascii_graphic()) =>
        {
            (method, path, version)
        }
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed request line {request_line:?}\n"),
            ))
        }
    };
    if !version
        .strip_prefix("HTTP/1.")
        .is_some_and(|minor| matches!(minor.as_bytes(), [digit] if digit.is_ascii_digit()))
    {
        return Err(HttpError::new(
            400,
            format!("unsupported protocol {version:?}\n"),
        ));
    }
    let mut content_length: Option<usize> = None;
    let mut expect_continue = false;
    let mut connection: Option<String> = None;
    let mut accept_json = false;
    for line in lines {
        // A field line is `name: value` with a token for a name (RFC 9110
        // §5.1). A line without a colon, whitespace before the colon and
        // an obs-folded line (one opening with whitespace) are rejected,
        // not skipped or trimmed (RFC 9112 §5.1–5.2): a proxy that read
        // one of them otherwise would find the body's end elsewhere.
        let Some((name, value)) = line.split_once(':').filter(|(name, _)| is_token(name)) else {
            return Err(HttpError::new(
                400,
                format!("malformed header line {line:?}\n"),
            ));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // `Content-Length = 1*DIGIT` (RFC 9110 §8.6): no sign.
            let length = Some(value)
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| {
                    HttpError::new(400, format!("invalid Content-Length {value:?}\n"))
                })?;
            // Two different lengths leave the body's end ambiguous
            // (RFC 9112 §6.3): either reading could smuggle a request.
            if content_length.is_some_and(|first| first != length) {
                return Err(HttpError::new(400, "conflicting Content-Length headers\n"));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // No transfer coding is decoded here, so the body's end is
            // unknowable (RFC 9112 §6.1).
            return Err(HttpError::new(
                501,
                "Transfer-Encoding request bodies are not supported; send a Content-Length \
                 body\n",
            ));
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value.to_ascii_lowercase());
        } else if name.eq_ignore_ascii_case("accept") {
            accept_json = value.to_ascii_lowercase().contains("application/json");
        }
    }
    let keep_alive = match connection.as_deref() {
        Some(value) if value.contains("close") => false,
        Some(value) if value.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };

    // Everything past the head stays in `buf` (body, then any pipelined
    // next request).
    let after_head = buf.split_off(head_end + 4);
    *buf = after_head;
    if method == "POST" && content_length.is_none() {
        return Err(HttpError::new(411, "POST needs a Content-Length\n"));
    }
    // A body is framed by its Content-Length whatever the method: a GET's
    // body is read (and ignored by its handler), never parsed as the next
    // request.
    let mut body = Vec::new();
    if let Some(length) = content_length {
        if length > MAX_BODY_BYTES {
            return Err(HttpError::new(
                413,
                format!("request bodies are capped at {MAX_BODY_BYTES} bytes\n"),
            ));
        }
        if expect_continue && buf.len() < length {
            // curl holds bodies over ~1 KiB until the interim response.
            stream
                .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
                .map_err(io_err)?;
            stream.flush().map_err(io_err)?;
        }
        while buf.len() < length {
            match stream.read(&mut tmp) {
                Ok(0) => return Err(HttpError::new(400, "truncated request body\n")),
                Ok(n) => buf.extend_from_slice(&tmp[..n]),
                Err(e) if is_timeout(&e) => {
                    return Err(HttpError::new(400, "timed out mid-request body\n"));
                }
                Err(e) => return Err(io_err(e)),
            }
        }
        let after_body = buf.split_off(length);
        body = std::mem::replace(buf, after_body);
    }
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        keep_alive,
        accept_json,
    }))
}

/// Whether `name` is a token (RFC 9110 §5.6.2), the grammar of a field
/// name: visible ASCII characters other than delimiters, at least one.
fn is_token(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// First index of `needle` in `haystack`.
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

// --- Responses ------------------------------------------------------------

/// The content type of every plain-text answer, errors included.
const PLAIN_TEXT: &str = "text/plain; charset=utf-8";

/// A response head: the status line with its reason phrase from
/// [`status_text`], `Content-Type`, the `framing` header lines, then
/// `Connection`.
fn head(status: u16, content_type: &str, framing: &str, keep: bool) -> String {
    let reason = status_text(status).1;
    let connection = if keep { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         {framing}Connection: {connection}\r\n\r\n"
    )
}

/// Writes a complete fixed-length response, `extra_headers` after its
/// `Content-Length`. The connection stays usable if every byte went out.
fn respond<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    extra_headers: &str,
    body: &str,
    keep: bool,
) -> Reply {
    let framing = format!("Content-Length: {}\r\n{extra_headers}", body.len());
    let head = head(status, content_type, &framing, keep);
    let usable = stream.write_all(head.as_bytes()).is_ok()
        && stream.write_all(body.as_bytes()).is_ok()
        && stream.flush().is_ok();
    Reply { status, usable }
}

/// Answers `status` with a plain-text `body`.
fn reply<S: Write>(stream: &mut S, status: u16, body: &str, keep: bool) -> Reply {
    respond(stream, status, PLAIN_TEXT, "", body, keep)
}

/// `GET /statz`: the serving counters as one JSON object — a JSON view
/// over the same registry snapshot `/metricsz` renders, so the two
/// endpoints cannot disagree about a value.
fn respond_statz<S: Write>(stream: &mut S, state: &ServerState, keep: bool) -> Reply {
    let snapshot = state.registry.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    let entries = |name: &str| snapshot.gauge(name).unwrap_or(0.0) as u64;
    let body = format!(
        concat!(
            "{{\"requests_total\":{},\"rate_limited_total\":{},\"saturation_total\":{},",
            "\"result_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}},",
            "\"core_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}}}}\n"
        ),
        counter("actuary_http_requests_total"),
        counter("actuary_http_rate_limited_total"),
        counter("actuary_worker_saturation_total"),
        counter("actuary_result_cache_hits_total"),
        counter("actuary_result_cache_misses_total"),
        counter("actuary_result_cache_evictions_total"),
        entries("actuary_result_cache_entries"),
        counter("actuary_core_cache_hits_total"),
        counter("actuary_core_cache_misses_total"),
        counter("actuary_core_cache_evictions_total"),
        entries("actuary_core_cache_entries"),
    );
    respond(
        stream,
        200,
        "application/json; charset=utf-8",
        "",
        &body,
        keep,
    )
}

/// `GET /metricsz`: the per-server registry merged with the process
/// registry (engine phase spans), in Prometheus text exposition format.
fn respond_metricsz<S: Write>(stream: &mut S, state: &ServerState, keep: bool) -> Reply {
    let snapshot = state
        .registry
        .snapshot()
        .merged(Registry::global().snapshot());
    respond(
        stream,
        200,
        expo::CONTENT_TYPE,
        "",
        &expo::render(&snapshot),
        keep,
    )
}

/// Parses, runs (or replays from cache) and chunk-streams one scenario
/// document. `query` selects delivery: `stream=refine` delivers every
/// artifact segment the moment the runner hands it over; any other
/// non-empty query is rejected, not ignored.
///
/// A batch run does all model work before the `200` head is written, so
/// a success status never precedes a failure. A streamed run writes the
/// head *before* the engine runs, so a refine-mode grid's coarse segment
/// reaches the client while bisection is still running. The price of
/// that immediacy is the error contract: an engine failure after the
/// head cannot change the status, so it truncates the chunked body (no
/// terminal `0\r\n\r\n` chunk) and drops the connection. Schema-level
/// rejections (parse errors, grid bounds, an unknown query) answer 4xx
/// in both modes, because they are checked before the head.
fn respond_run<S: Write>(
    stream: &mut S,
    request: &Request,
    query: Option<&str>,
    state: &ServerState,
    keep: bool,
) -> Reply {
    let streamed = match query {
        None | Some("") => false,
        Some("stream=refine") => true,
        Some(other) => {
            let message =
                format!("unknown query {other:?} (the only supported query is ?stream=refine)\n");
            return reply(stream, 400, &message, keep);
        }
    };
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return reply(stream, 400, "scenario documents must be UTF-8\n", keep);
    };
    let doc = match parse_toml(text) {
        Ok(doc) => doc,
        // The diagnostic names the offending line and column.
        Err(e) => return reply(stream, 400, &format!("scenario error: {e}\n"), keep),
    };
    // Content addressing happens on the *parsed* document: formatting,
    // comments and key order hit the cache; semantic changes miss it.
    // Streamed delivery bypasses the cache *read* — replaying a finished
    // run cannot deliver waves incrementally — but still stores its
    // completed run for later batch requests.
    let digest = digest_document(&doc).bytes();
    let json = request.accept_json;
    // A batch answer, cached or fresh, renders its finished run.
    let replay = |stream: &mut S, run: &ScenarioRun| {
        respond_chunked(stream, json, false, keep, |sink| {
            run.artifacts()
                .into_iter()
                .all(|artifact| sink.segment(artifact, false))
        })
    };
    if !streamed {
        if let Some(run) = state.results.get(&digest) {
            return replay(stream, &run);
        }
    }
    let scenario = match Scenario::from_doc(&doc) {
        Ok(scenario) => scenario,
        Err(e) => return reply(stream, 400, &format!("scenario error: {e}\n"), keep),
    };
    if let Err(message) = check_served_grid_bound(&scenario) {
        return reply(stream, 422, &message, keep);
    }
    let shared = Some((&*state.cores, library_digest(&doc).bytes()));
    if streamed {
        return respond_chunked(stream, json, true, keep, |sink| {
            let Ok(run) = scenario.run_with(state.engine_threads, shared, sink) else {
                return false;
            };
            state.results.insert(digest, Arc::new(run));
            true
        });
    }
    let run = match scenario.run_with(state.engine_threads, shared, &mut ()) {
        Ok(run) => Arc::new(run),
        Err(e) => return reply(stream, 422, &format!("scenario error: {e}\n"), keep),
    };
    state.results.insert(digest, Arc::clone(&run));
    replay(stream, &run)
}

/// Answers `200` with a chunked body in the requested encoding: the
/// head, then whatever `body` hands the [`ChunkSink`], then — only when
/// `body` reports success — the terminal chunk. After the head the
/// status can no longer change, so a failed body truncates the response
/// (the missing terminal chunk marks it incomplete) and the connection
/// closes. The one writer behind cache replays, batch runs and streamed
/// runs.
fn respond_chunked<S: Write>(
    stream: &mut S,
    json: bool,
    eager: bool,
    keep: bool,
    body: impl FnOnce(&mut ChunkSink<&mut S>) -> bool,
) -> Reply {
    let content_type = if json {
        "application/jsonl; charset=utf-8"
    } else {
        "text/csv; charset=utf-8"
    };
    let head = head(200, content_type, "Transfer-Encoding: chunked\r\n", keep);
    let usable = stream.write_all(head.as_bytes()).is_ok() && {
        let mut sink = ChunkSink {
            chunked: ChunkedWriter::new(stream),
            json,
            eager,
        };
        body(&mut sink) && sink.chunked.finish().is_ok()
    };
    Reply {
        status: 200,
        usable,
    }
}

/// Renders artifact segments into a response's chunked framing, in its
/// encoding: an opening segment carries the header (or JSON-lines meta
/// line), a continuation only rows. An `eager` sink flushes every
/// segment to the wire, so a streamed run's waves arrive as they
/// complete; otherwise the framing coalesces [`CHUNK_BYTES`] chunks.
struct ChunkSink<W: Write> {
    chunked: ChunkedWriter<W>,
    json: bool,
    eager: bool,
}

impl<W: Write> StreamSink for ChunkSink<W> {
    fn segment(&mut self, artifact: Artifact<'_>, continuation: bool) -> bool {
        let mut sink = IoSink::new(&mut self.chunked);
        let written = match (self.json, continuation) {
            (false, false) => artifact.write_csv_to(&mut sink),
            (false, true) => artifact.write_csv_rows_to(&mut sink),
            (true, false) => artifact.write_jsonl_to(&mut sink),
            (true, true) => artifact.write_jsonl_rows_to(&mut sink),
        };
        written.is_ok() && (!self.eager || self.chunked.flush().is_ok())
    }
}

/// Rejects explore jobs whose grid exceeds [`MAX_SERVED_CELLS`]
/// ([`MAX_SERVED_CELLS_REFINE`] for `mode = "refine"` jobs), using an
/// overflow-proof u128 product (the engine's own `len()` would wrap in
/// release builds long before the bound is reached).
fn check_served_grid_bound(scenario: &Scenario) -> Result<(), String> {
    for job in &scenario.jobs {
        let Job::Explore(explore) = job else {
            continue;
        };
        let space = &explore.space;
        let cells = [
            space.nodes.len(),
            space.areas_mm2.len(),
            space.quantities.len(),
            space.integrations.len(),
            space.chiplet_counts.len(),
            space.flows.len(),
            space.scheme_variants().len(),
        ]
        .iter()
        .try_fold(1u128, |product, &axis| product.checked_mul(axis as u128))
        .unwrap_or(u128::MAX);
        let cap = match explore.mode {
            ExploreMode::Exhaustive => MAX_SERVED_CELLS,
            ExploreMode::Refine => MAX_SERVED_CELLS_REFINE,
        };
        if cells > cap {
            return Err(format!(
                "scenario error: explore job `{}` asks for {cells} grid cells; served \
                 {} requests are capped at {cap} cells (run it locally with \
                 `actuary run` for unbounded grids)\n",
                explore.name, explore.mode,
            ));
        }
    }
    Ok(())
}

/// Frames writes as HTTP/1.1 chunked transfer encoding, coalescing small
/// writes (one CSV row each) into [`CHUNK_BYTES`]-sized chunks.
struct ChunkedWriter<W: Write> {
    inner: W,
    buffer: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    fn new(inner: W) -> Self {
        ChunkedWriter {
            inner,
            buffer: Vec::with_capacity(CHUNK_BYTES),
        }
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        write!(self.inner, "{:x}\r\n", self.buffer.len())?;
        self.inner.write_all(&self.buffer)?;
        self.inner.write_all(b"\r\n")?;
        self.buffer.clear();
        Ok(())
    }

    /// Flushes the tail and writes the terminal chunk.
    fn finish(mut self) -> io::Result<()> {
        self.flush_chunk()?;
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buffer.extend_from_slice(buf);
        if self.buffer.len() >= CHUNK_BYTES {
            self.flush_chunk()?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_chunk()?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::net::Ipv4Addr;

    /// An in-memory duplex stream: reads deliver the queued segments one
    /// `read` call each (so a body can arrive *after* the head, like on a
    /// socket), writes are recorded.
    struct Fake {
        segments: std::collections::VecDeque<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Fake {
        fn new(input: &[u8]) -> Self {
            Fake::segmented(&[input])
        }

        fn segmented(segments: &[&[u8]]) -> Self {
            Fake {
                segments: segments.iter().map(|s| s.to_vec()).collect(),
                output: Vec::new(),
            }
        }
    }

    impl Read for Fake {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(mut segment) = self.segments.pop_front() else {
                return Ok(0);
            };
            let n = segment.len().min(buf.len());
            buf[..n].copy_from_slice(&segment[..n]);
            if n < segment.len() {
                self.segments.push_front(segment.split_off(n));
            }
            Ok(n)
        }
    }

    impl Write for Fake {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn state() -> ServerState {
        ServerState::new(&ServeOptions::default())
    }

    fn parse_one(fake: &mut Fake) -> Request {
        read_request(fake, &mut Vec::new()).unwrap().unwrap()
    }

    const TINY_SCENARIO: &str = concat!(
        "name = \"t\"\n",
        "[[yield]]\n",
        "name = \"y\"\n",
        "techs = [\"7nm\"]\n",
        "areas_mm2 = [100]\n",
    );

    fn post(body: &str, extra_headers: &str) -> Vec<u8> {
        format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n{extra_headers}\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// Splits concatenated keep-alive responses on their status lines.
    fn responses(output: &[u8]) -> Vec<String> {
        let text = String::from_utf8_lossy(output);
        let mut out: Vec<String> = Vec::new();
        for line in text.split_inclusive("\r\n") {
            if line.starts_with("HTTP/1.1 ") && !out.last().is_some_and(|r| r.is_empty()) {
                out.push(String::new());
            }
            if out.is_empty() {
                out.push(String::new());
            }
            if let Some(last) = out.last_mut() {
                last.push_str(line);
            }
        }
        out
    }

    #[test]
    fn parses_a_post_with_body() {
        let mut fake =
            Fake::new(b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello");
        let r = parse_one(&mut fake);
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/run");
        assert_eq!(r.body, b"hello");
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(!r.accept_json);
        assert!(fake.output.is_empty(), "no interim response without Expect");
    }

    #[test]
    fn connection_and_accept_headers_steer_keep_alive_and_encoding() {
        let mut fake = Fake::new(
            b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\
              Accept: application/json\r\n\r\nok",
        );
        let r = parse_one(&mut fake);
        assert!(!r.keep_alive);
        assert!(r.accept_json);

        let mut fake = Fake::new(b"GET /healthz HTTP/1.0\r\n\r\n");
        assert!(!parse_one(&mut fake).keep_alive, "1.0 defaults to close");

        let mut fake = Fake::new(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(parse_one(&mut fake).keep_alive);
    }

    #[test]
    fn pipelined_requests_stay_buffered_for_the_next_read() {
        let mut fake = Fake::new(
            b"POST /run HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n",
        );
        let mut buf = Vec::new();
        let first = read_request(&mut fake, &mut buf).unwrap().unwrap();
        assert_eq!(first.body, b"hello");
        let second = read_request(&mut fake, &mut buf).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(read_request(&mut fake, &mut buf).unwrap().is_none());
    }

    #[test]
    fn expect_100_continue_gets_the_interim_response() {
        // curl's behavior: the body is held back until the interim
        // response, so it arrives in a later packet than the head.
        let mut fake = Fake::segmented(&[
            b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n",
            b"ok",
        ]);
        let r = parse_one(&mut fake);
        assert_eq!(r.body, b"ok");
        assert_eq!(fake.output, b"HTTP/1.1 100 Continue\r\n\r\n");

        // A client that sent the body anyway gets no interim response.
        let mut eager =
            Fake::new(b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\nok");
        let r = parse_one(&mut eager);
        assert_eq!(r.body, b"ok");
        assert!(eager.output.is_empty());
    }

    #[test]
    fn missing_length_and_bad_request_lines_are_4xx() {
        let mut fake = Fake::new(b"POST /run HTTP/1.1\r\nHost: x\r\n\r\n");
        let err = read_request(&mut fake, &mut Vec::new()).unwrap_err();
        assert_eq!(err.status, 411);

        let mut fake = Fake::new(b"nonsense\r\n\r\n");
        let err = read_request(&mut fake, &mut Vec::new()).unwrap_err();
        assert_eq!(err.status, 400);

        let mut fake = Fake::new(b"GET / SPDY/9\r\n\r\n");
        let err = read_request(&mut fake, &mut Vec::new()).unwrap_err();
        assert_eq!(err.status, 400);

        let mut fake = Fake::new(
            format!(
                "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        let err = read_request(&mut fake, &mut Vec::new()).unwrap_err();
        assert_eq!(err.status, 413);

        // The cap holds whatever the method.
        let mut fake = Fake::new(
            format!(
                "GET /healthz HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        let err = read_request(&mut fake, &mut Vec::new()).unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn oversized_request_heads_are_431() {
        let huge = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "x".repeat(MAX_HEAD_BYTES * 2)
        );
        let mut fake = Fake::new(huge.as_bytes());
        let err = read_request(&mut fake, &mut Vec::new()).unwrap_err();
        assert_eq!(err.status, 431);
    }

    #[test]
    fn clean_eof_between_requests_is_not_an_error() {
        let mut fake = Fake::new(b"");
        assert!(read_request(&mut fake, &mut Vec::new()).unwrap().is_none());
    }

    /// Serves `input` as one connection: how many final answers came
    /// back (their framing checked) and the raw output.
    fn serve_bytes(input: &[u8]) -> (usize, String) {
        let mut fake = Fake::new(input);
        serve_connection(&mut fake, None, &state());
        let output = String::from_utf8_lossy(&fake.output).into_owned();
        let answers = check_framing(&fake.output).unwrap_or_else(|e| panic!("{e}: {output}"));
        (answers, output)
    }

    #[test]
    fn a_get_body_is_read_not_answered_as_a_second_request() {
        // A GET whose body is itself a request head: one answer, the
        // GET's, and the body is never parsed.
        let smuggled = "DELETE /x HTTP/1.1\r\nX: 1\r\n\r\n";
        let get = format!(
            "GET /healthz HTTP/1.1\r\nContent-Length: {}\r\n\r\n{smuggled}",
            smuggled.len()
        );
        let (answers, output) = serve_bytes(get.as_bytes());
        assert_eq!(answers, 1, "{output}");
        assert!(output.starts_with("HTTP/1.1 200 OK"), "{output}");

        // The connection stays framed: a request after the body is the
        // second one answered.
        let (answers, output) = serve_bytes(format!("{get}GET /statz HTTP/1.1\r\n\r\n").as_bytes());
        assert_eq!(answers, 2, "{output}");
        assert_eq!(output.matches("HTTP/1.1 200 OK").count(), 2, "{output}");
        assert!(output.contains("requests_total"), "{output}");

        let parsed = parse_one(&mut Fake::new(get.as_bytes()));
        assert_eq!(parsed.method, "GET");
        assert_eq!(parsed.body, smuggled.as_bytes());
    }

    #[test]
    fn conflicting_content_lengths_get_one_400_and_close() {
        // A later `Content-Length: 0` overriding the first used to turn
        // this body into two more requests (answered 404, 405, 200).
        let smuggled = "DELETE /x HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
        let overridden = format!(
            "POST /nope HTTP/1.1\r\nContent-Length: {}\r\nContent-Length: 0\r\n\r\n{smuggled}",
            smuggled.len()
        );
        let (answers, output) = serve_bytes(overridden.as_bytes());
        assert_eq!(answers, 1, "{output}");
        assert!(output.starts_with("HTTP/1.1 400 Bad Request"), "{output}");
        assert!(output.contains("Connection: close"), "{output}");
        assert!(output.contains("conflicting Content-Length"), "{output}");

        // Repeating the same length is unambiguous and accepted.
        let twice = post(
            TINY_SCENARIO,
            &format!("Content-Length: {}\r\n", TINY_SCENARIO.len()),
        );
        let (answers, output) = serve_bytes(&twice);
        assert_eq!(answers, 1, "{output}");
        assert!(output.starts_with("HTTP/1.1 200 OK"), "{output}");
    }

    #[test]
    fn transfer_encoded_requests_get_one_501_and_close() {
        let (answers, output) = serve_bytes(
            b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
        );
        assert_eq!(answers, 1, "{output}");
        assert!(
            output.starts_with("HTTP/1.1 501 Not Implemented"),
            "{output}"
        );
        assert!(output.contains("Connection: close"), "{output}");
    }

    #[test]
    fn ambiguous_header_lines_get_one_400_and_close() {
        // The body is itself a complete request: a server that reads
        // these lengths as 25 answers one `200`, while a proxy that reads
        // them otherwise sees a second request in the body. A line
        // without a colon is no more skippable, a bare CR or LF hides a
        // length from a reader that keeps it in the value, a NUL or other
        // control byte ends the value early for a reader that stops there,
        // and a request line off its grammar (tabs, doubled spaces, extra
        // tokens, a version like `HTTP/1.1x`) gets no lenient reading.
        let body = "GET /healthz HTTP/1.1\r\n\r\n";
        assert_eq!(body.len(), 25);
        let get = "GET /healthz HTTP/1.1";
        for (request_line, fields, body) in [
            (get, "Content-Length: +25\r\n", body),
            (get, "Content-Length : 25\r\n", body),
            (get, "X-A: b\r\n Content-Length: 25\r\n", body),
            (get, "bogus line\r\n", ""),
            (get, "X: a\rContent-Length: 25\r\n", body),
            (get, "X: a\nContent-Length: 25\r\n", body),
            (get, "X: a\0b\r\n", body),
            (get, "X: a\x01b\r\n", body),
            (get, "X: a\x7fb\r\n", body),
            ("GET /healthz HTTP/1.1 extra tokens", "", body),
            ("GET\t/healthz\tHTTP/1.1", "", body),
            ("GET /healthz HTTP/1.1x", "", body),
            ("GET  /healthz  HTTP/1.1", "", body),
        ] {
            let request = format!("{request_line}\r\n{fields}\r\n{body}");
            let (answers, output) = serve_bytes(request.as_bytes());
            assert_eq!(answers, 1, "{request_line:?} {fields:?}: {output}");
            assert!(output.starts_with("HTTP/1.1 400 Bad Request"), "{output}");
            assert!(output.contains("Connection: close"), "{output}");
        }
        // HTAB is the one control byte a field value may hold.
        let (answers, output) = serve_bytes(format!("{get}\r\nX: a\tb\r\n\r\n{body}").as_bytes());
        assert_eq!(answers, 2, "{output}");
        assert!(output.starts_with("HTTP/1.1 200 OK"), "{output}");
    }

    #[test]
    fn read_level_errors_are_counted_and_observed() {
        let state = state();
        for (request, status) in [
            (
                &b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
                "501",
            ),
            (b"POST /run HTTP/1.1\r\n\r\n", "411"),
        ] {
            let before = state.metrics.requests.get();
            let mut fake = Fake::new(request);
            serve_connection(&mut fake, None, &state);
            let output = String::from_utf8_lossy(&fake.output);
            assert!(
                output.starts_with(&format!("HTTP/1.1 {status} ")),
                "{output}"
            );
            assert_eq!(state.metrics.requests.get(), before + 1, "{status}");
            // Never routed, so the method and route read `other`.
            let sample = format!(
                "actuary_http_request_seconds_count{{method=\"other\",route=\"other\",\
                 status=\"{status}\"}} 1\n"
            );
            let metrics = expo::render(&state.registry.snapshot());
            assert!(metrics.contains(&sample), "{sample} in:\n{metrics}");
        }
    }

    #[test]
    fn chunked_framing_is_decodable_and_terminated() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::new(&mut out);
        w.write_all(b"a,b\n").unwrap();
        w.write_all(b"1,2\n").unwrap();
        w.finish().unwrap();
        // One coalesced 8-byte chunk plus the terminal chunk.
        assert_eq!(out, b"8\r\na,b\n1,2\n\r\n0\r\n\r\n");
    }

    #[test]
    fn large_payloads_split_into_multiple_chunks() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::new(&mut out);
        let row = vec![b'x'; CHUNK_BYTES / 2 + 1];
        w.write_all(&row).unwrap();
        w.write_all(&row).unwrap();
        w.write_all(b"tail").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.ends_with("4\r\ntail\r\n0\r\n\r\n"), "{text}");
    }

    fn run_request(body: &[u8], json: bool) -> Request {
        Request {
            method: "POST".to_string(),
            path: "/run".to_string(),
            body: body.to_vec(),
            keep_alive: false,
            accept_json: json,
        }
    }

    #[test]
    fn respond_run_streams_csv_or_diagnoses() {
        let state = state();
        let mut fake = Fake::new(b"");
        respond_run(
            &mut fake,
            &run_request(b"name = \"x\"\nquanttiy = 1\n", false),
            None,
            &state,
            false,
        );
        let text = String::from_utf8_lossy(&fake.output);
        assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
        assert!(text.contains("line 2, column 1"), "{text}");

        let mut fake = Fake::new(b"");
        respond_run(
            &mut fake,
            &run_request(TINY_SCENARIO.as_bytes(), false),
            None,
            &state,
            false,
        );
        let text = String::from_utf8_lossy(&fake.output);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        assert!(text.contains("Content-Type: text/csv"), "{text}");
        assert!(text.contains("job,tech,area_mm2"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text}");
    }

    #[test]
    fn accept_json_streams_jsonl_rows() {
        let state = state();
        let mut fake = Fake::new(b"");
        respond_run(
            &mut fake,
            &run_request(TINY_SCENARIO.as_bytes(), true),
            None,
            &state,
            false,
        );
        let text = String::from_utf8_lossy(&fake.output);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("Content-Type: application/jsonl"), "{text}");
        assert!(text.contains("{\"artifact\":"), "{text}");
        assert!(text.contains("\"job\":\"y\""), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text}");
    }

    const REFINE_SCENARIO: &str = concat!(
        "name = \"r\"\n",
        "[explore]\n",
        "name = \"job\"\n",
        "nodes = [\"7nm\"]\n",
        "areas_mm2 = [100, 200, 300, 400, 500, 600, 700, 800]\n",
        "quantities = [1000000, 2000000, 3000000, 4000000, 5000000, 6000000, 7000000, 8000000]\n",
        "integrations = [\"soc\", \"mcm\"]\n",
        "chiplets = [1, 2]\n",
        "mode = \"refine\"\n",
        "outputs = [\"grid\", \"winners\"]\n",
    );

    /// Strips the response head and chunked framing, returning each
    /// chunk's payload separately.
    fn dechunk(output: &[u8]) -> Vec<String> {
        let text = String::from_utf8_lossy(output);
        let (_, mut rest) = text.split_once("\r\n\r\n").expect("a response head");
        let mut chunks = Vec::new();
        loop {
            let (size, tail) = rest.split_once("\r\n").expect("a chunk size line");
            let size = usize::from_str_radix(size, 16).expect("a hex chunk size");
            if size == 0 {
                return chunks;
            }
            chunks.push(tail[..size].to_string());
            rest = &tail[size + 2..];
        }
    }

    #[test]
    fn stream_refine_delivers_incremental_segments_matching_the_batch_body() {
        let batch_state = state();
        let mut batch = Fake::new(b"");
        respond_run(
            &mut batch,
            &run_request(REFINE_SCENARIO.as_bytes(), false),
            None,
            &batch_state,
            false,
        );
        let batch_body = dechunk(&batch.output).concat();

        // A fresh state, so the streamed request cannot lean on the
        // result cache even by accident.
        let state = state();
        let mut streamed = Fake::new(b"");
        let reply = respond_run(
            &mut streamed,
            &run_request(REFINE_SCENARIO.as_bytes(), false),
            Some("stream=refine"),
            &state,
            false,
        );
        assert_eq!(reply.status, 200);
        let text = String::from_utf8_lossy(&streamed.output);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text}");
        let chunks = dechunk(&streamed.output);
        // The coarse segment flushes as its own chunk batch: the first
        // chunk opens the grid but must not already hold the whole run.
        assert!(chunks.len() >= 3, "wave flushes, got {}", chunks.len());
        assert!(chunks[0].starts_with("node,area_mm2,"), "{}", chunks[0]);
        let streamed_body = chunks.concat();
        assert!(chunks[0].lines().count() < streamed_body.lines().count());
        // Same rows, wave-interleaved delivery: every grid row carries
        // its full coordinates, so line-sorting both bodies must agree.
        let mut batch_lines: Vec<&str> = batch_body.lines().collect();
        let mut streamed_lines: Vec<&str> = streamed_body.lines().collect();
        batch_lines.sort_unstable();
        streamed_lines.sort_unstable();
        assert_eq!(batch_lines, streamed_lines);

        // The streamed run still lands in the result cache for later
        // batch requests.
        let mut replay = Fake::new(b"");
        respond_run(
            &mut replay,
            &run_request(REFINE_SCENARIO.as_bytes(), false),
            None,
            &state,
            false,
        );
        assert_eq!(dechunk(&replay.output).concat(), batch_body);
    }

    #[test]
    fn unknown_run_queries_are_rejected_not_ignored() {
        let state = state();
        let mut fake = Fake::new(b"");
        let reply = respond_run(
            &mut fake,
            &run_request(TINY_SCENARIO.as_bytes(), false),
            Some("stream=everything"),
            &state,
            false,
        );
        assert_eq!(reply.status, 400);
        let text = String::from_utf8_lossy(&fake.output);
        assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
        assert!(text.contains("stream=refine"), "{text}");
    }

    #[test]
    fn cache_hits_replay_byte_identical_bodies_in_both_encodings() {
        let state = state();
        // Cold miss, then a formatting-only variant (extra whitespace and
        // a comment): same canonical digest, so the second answer comes
        // from the cache and must be byte-identical.
        let reformatted = format!("# a comment\n{}", TINY_SCENARIO.replace(" = ", "   =  "));
        let mut cold = Fake::new(b"");
        respond_run(
            &mut cold,
            &run_request(TINY_SCENARIO.as_bytes(), false),
            None,
            &state,
            false,
        );
        let mut hot = Fake::new(b"");
        respond_run(
            &mut hot,
            &run_request(reformatted.as_bytes(), false),
            None,
            &state,
            false,
        );
        assert_eq!(cold.output, hot.output);

        // The same cached run also serves the JSON-lines encoding.
        let mut json = Fake::new(b"");
        respond_run(
            &mut json,
            &run_request(TINY_SCENARIO.as_bytes(), true),
            None,
            &state,
            false,
        );
        assert!(
            String::from_utf8_lossy(&json.output).contains("application/jsonl"),
            "cache hits honor the requested encoding"
        );

        let stats = state.results.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn keep_alive_serves_two_requests_on_one_connection() {
        let state = state();
        let mut requests = post(TINY_SCENARIO, "");
        requests.extend_from_slice(&post(TINY_SCENARIO, "Connection: close\r\n"));
        let mut fake = Fake::new(&requests);
        serve_connection(&mut fake, None, &state);
        let replies = responses(&fake.output);
        assert_eq!(replies.len(), 2, "{:?}", replies);
        assert!(
            replies[0].contains("Connection: keep-alive"),
            "{}",
            replies[0]
        );
        assert!(replies[1].contains("Connection: close"), "{}", replies[1]);
        // Byte-identical bodies: same scenario, second served from cache.
        let body = |r: &str| r.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
        assert_eq!(body(&replies[0]), {
            let b = body(&replies[1]);
            b.map(|b| b.replace("Connection: close", "Connection: keep-alive"))
        });
        assert_eq!(state.results.stats().hits, 1);
    }

    #[test]
    fn rate_limit_answers_429_with_retry_after() {
        let options = ServeOptions {
            rate_limit: 1,
            ..ServeOptions::default()
        };
        let state = ServerState::new(&options);
        let peer = Some(IpAddr::V4(Ipv4Addr::LOCALHOST));

        let mut requests = post(TINY_SCENARIO, "");
        requests.extend_from_slice(&post(TINY_SCENARIO, ""));
        let mut fake = Fake::new(&requests);
        serve_connection(&mut fake, peer, &state);
        let replies = responses(&fake.output);
        assert_eq!(replies.len(), 2, "{:?}", replies);
        assert!(replies[0].starts_with("HTTP/1.1 200 "), "{}", replies[0]);
        assert!(replies[1].starts_with("HTTP/1.1 429 "), "{}", replies[1]);
        assert!(replies[1].contains("Retry-After: 1"), "{}", replies[1]);
        assert_eq!(state.metrics.rate_limited.get(), 1);

        // /healthz and /statz stay exempt.
        let mut fake = Fake::new(b"GET /healthz HTTP/1.1\r\n\r\n");
        serve_connection(&mut fake, peer, &state);
        assert!(String::from_utf8_lossy(&fake.output).starts_with("HTTP/1.1 200 "));
    }

    #[test]
    fn concurrency_cap_releases_its_slot_after_each_request() {
        let options = ServeOptions {
            max_concurrent: 1,
            ..ServeOptions::default()
        };
        let state = ServerState::new(&options);
        let peer = Some(IpAddr::V4(Ipv4Addr::LOCALHOST));
        // Sequential requests never trip a concurrency cap of 1 — the
        // admission guard must release on drop.
        for _ in 0..3 {
            let admission = state.governor.admit(peer);
            assert!(admission.is_ok());
        }
        // Holding one admission makes the next one bounce with retry 1s.
        let held = state.governor.admit(peer);
        assert!(held.is_ok());
        let bounced = state.governor.admit(peer);
        assert_eq!(bounced.err(), Some(1));
    }

    #[test]
    fn statz_reports_counters_as_json() {
        let state = state();
        let mut fake = Fake::new(b"");
        respond_run(
            &mut fake,
            &run_request(TINY_SCENARIO.as_bytes(), false),
            None,
            &state,
            false,
        );
        let mut fake = Fake::new(b"GET /statz HTTP/1.1\r\nConnection: close\r\n\r\n");
        serve_connection(&mut fake, None, &state);
        let text = String::from_utf8_lossy(&fake.output);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("Content-Type: application/json"), "{text}");
        assert!(text.contains("\"requests_total\":1"), "{text}");
        assert!(
            text.contains("\"result_cache\":{\"hits\":0,\"misses\":1"),
            "{text}"
        );
        assert!(text.contains("\"core_cache\":"), "{text}");
        assert!(text.contains("\"saturation_total\":0"), "{text}");
    }

    #[test]
    fn metricsz_serves_valid_exposition_with_request_histograms() {
        let state = state();
        let mut warm = Fake::new(&post(TINY_SCENARIO, ""));
        serve_connection(&mut warm, None, &state);
        let mut fake = Fake::new(b"GET /metricsz HTTP/1.1\r\nConnection: close\r\n\r\n");
        serve_connection(&mut fake, None, &state);
        let text = String::from_utf8_lossy(&fake.output).into_owned();
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(
            text.contains("Content-Type: text/plain; version=0.0.4"),
            "{text}"
        );
        let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        expo::validate(body).expect("exposition body validates");
        assert!(
            body.contains(
                "actuary_http_request_seconds_bucket{method=\"POST\",route=\"/run\",status=\"200\",le=\"+Inf\"} 1"
            ),
            "{body}"
        );
        assert!(
            body.contains("actuary_http_response_bytes_bucket{route=\"/run\""),
            "{body}"
        );
        assert!(
            body.contains("\nactuary_result_cache_misses_total 1\n"),
            "{body}"
        );
    }

    #[test]
    fn statz_and_metricsz_agree_because_they_share_a_registry() {
        let state = state();
        // Two identical runs: one miss, one hit, three requests total
        // once /statz itself is counted.
        let mut requests = post(TINY_SCENARIO, "");
        requests.extend_from_slice(&post(TINY_SCENARIO, ""));
        let mut fake = Fake::new(&requests);
        serve_connection(&mut fake, None, &state);

        let mut statz = Fake::new(b"GET /statz HTTP/1.1\r\nConnection: close\r\n\r\n");
        serve_connection(&mut statz, None, &state);
        let statz_text = String::from_utf8_lossy(&statz.output).into_owned();
        assert!(
            statz_text.contains("\"result_cache\":{\"hits\":1,\"misses\":1"),
            "{statz_text}"
        );
        assert!(statz_text.contains("\"requests_total\":3"), "{statz_text}");

        // The Prometheus view of the same counters must agree exactly
        // (one more request: /statz above).
        let mut metricsz = Fake::new(b"GET /metricsz HTTP/1.1\r\nConnection: close\r\n\r\n");
        serve_connection(&mut metricsz, None, &state);
        let metrics_text = String::from_utf8_lossy(&metricsz.output).into_owned();
        assert!(
            metrics_text.contains("\nactuary_result_cache_hits_total 1\n"),
            "{metrics_text}"
        );
        assert!(
            metrics_text.contains("\nactuary_result_cache_misses_total 1\n"),
            "{metrics_text}"
        );
        assert!(
            metrics_text.contains("\nactuary_http_requests_total 4\n"),
            "{metrics_text}"
        );
    }

    #[test]
    fn combinatorially_huge_grids_are_refused_before_any_work() {
        // A few hundred bytes of TOML requesting > 10¹⁰ cells: the server
        // must answer 422 naming the cap instead of expanding the grid
        // (this test would hang or abort if evaluation started).
        let axis: Vec<String> = (1..=500).map(|i| format!("{}.0", i * 2)).collect();
        let scenario = format!(
            concat!(
                "name = \"huge\"\n",
                "[explore]\n",
                "nodes = [\"7nm\", \"5nm\", \"14nm\"]\n",
                "areas_mm2 = [{areas}]\n",
                "quantities = [{quantities}]\n",
                "chiplets = [1, 2, 3, 4, 5]\n",
            ),
            areas = axis.join(", "),
            quantities = (1..=500)
                .map(|i| (i * 1000).to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
        let state = state();
        let mut fake = Fake::new(b"");
        respond_run(
            &mut fake,
            &run_request(scenario.as_bytes(), false),
            None,
            &state,
            false,
        );
        let text = String::from_utf8_lossy(&fake.output);
        assert!(text.starts_with("HTTP/1.1 422 "), "{text}");
        assert!(text.contains("capped at 1000000 cells"), "{text}");
    }

    /// Builds a one-job explore scenario with `areas × quantities` grid
    /// cells (single node, SoC only, one chiplet count) in the given mode.
    fn grid_scenario(mode: &str, areas: usize, quantities: usize) -> Scenario {
        let area_axis: Vec<String> = (1..=areas).map(|i| format!("{i}.0")).collect();
        let quantity_axis: Vec<String> = (1..=quantities).map(|i| (i * 1000).to_string()).collect();
        let text = format!(
            concat!(
                "name = \"bound\"\n",
                "[explore]\n",
                "mode = \"{mode}\"\n",
                "nodes = [\"7nm\"]\n",
                "areas_mm2 = [{areas}]\n",
                "quantities = [{quantities}]\n",
                "integrations = [\"soc\"]\n",
                "chiplets = [1]\n",
            ),
            mode = mode,
            areas = area_axis.join(", "),
            quantities = quantity_axis.join(", "),
        );
        Scenario::from_toml(&text).unwrap()
    }

    #[test]
    fn refine_mode_raises_the_served_grid_cap_to_one_hundred_million() {
        // 2,000 × 2,000 = 4 × 10⁶ cells: over the exhaustive cap, under
        // the refine cap. The bound check (not a full run — that is the
        // engine's job) must let the refine job through.
        assert!(check_served_grid_bound(&grid_scenario("refine", 2_000, 2_000)).is_ok());
        let refused = check_served_grid_bound(&grid_scenario("exhaustive", 2_000, 2_000));
        let message = refused.unwrap_err();
        assert!(message.contains("capped at 1000000 cells"), "{message}");
        assert!(message.contains("exhaustive"), "{message}");
    }

    #[test]
    fn even_refine_mode_grids_are_bounded() {
        // 20,000 × 20,000 = 4 × 10⁸ cells exceeds even the refine cap.
        let refused = check_served_grid_bound(&grid_scenario("refine", 20_000, 20_000));
        let message = refused.unwrap_err();
        assert!(message.contains("capped at 100000000 cells"), "{message}");
        assert!(message.contains("refine"), "{message}");
    }

    /// A refine-mode explore job that prices in milliseconds, so a fuzzed
    /// `?stream=refine` request streams real waves.
    const TINY_REFINE: &str = concat!(
        "name = \"f\"\n",
        "[explore]\n",
        "nodes = [\"7nm\"]\n",
        "areas_mm2 = [100, 300, 500]\n",
        "quantities = [1000000]\n",
        "integrations = [\"soc\", \"mcm\"]\n",
        "chiplets = [1, 2]\n",
        "mode = \"refine\"\n",
    );

    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[(rng.gen::<u64>() % items.len() as u64) as usize]
    }

    fn below(rng: &mut StdRng, bound: usize) -> usize {
        (rng.gen::<u64>() % bound as u64) as usize
    }

    /// One random request, and whether it is well-formed. A well-formed
    /// one is a `GET` of a status endpoint (now and then carrying a body
    /// it frames with `Content-Length`) or a `POST /run` (batch or
    /// `?stream=refine`) whose body is a tiny valid scenario, random bytes
    /// or nothing, its `Content-Length` sometimes repeated with the same
    /// value; either may carry a field value holding a HTAB. A hostile one
    /// draws its method, path, version, the spacing of its request line
    /// (single spaces, tabs, doubled spaces or extra tokens) and
    /// `Content-Length` (valid, too long, over the cap, negative, signed,
    /// not a number, or repeated with a different value) and its field
    /// line (plain, with whitespace before the colon, or obs-folded)
    /// freely, may carry a line without a colon, a bare CR or LF, a NUL or
    /// another control character inside a field line or
    /// `Transfer-Encoding`, and may be mutated byte by byte.
    fn fuzz_request(rng: &mut StdRng) -> (Vec<u8>, bool) {
        let hostile = rng.gen_bool(0.3);
        let (method, path, version) = if hostile {
            (
                pick(rng, &["POST", "GET", "PUT", "HEAD", "post", ""]),
                pick(
                    rng,
                    &["/run", "/run?stream=everything", "/run?", "/nope", "*"],
                ),
                pick(rng, &["HTTP/1.1", "HTTP/1.0", "HTTP/2", "HTTP/1.1x", ""]),
            )
        } else if rng.gen_bool(0.7) {
            (
                "POST",
                pick(rng, &["/run", "/run?stream=refine"]),
                "HTTP/1.1",
            )
        } else {
            (
                "GET",
                pick(rng, &["/healthz", "/statz", "/metricsz"]),
                "HTTP/1.1",
            )
        };
        let body: Vec<u8> = if method == "GET" && !hostile && rng.gen_bool(0.8) {
            Vec::new()
        } else {
            match below(rng, 5) {
                0 | 1 => TINY_SCENARIO.into(),
                2 => TINY_REFINE.into(),
                3 => (0..below(rng, 64))
                    .map(|_| rng.gen::<u32>() as u8)
                    .collect(),
                _ => Vec::new(),
            }
        };
        let mut head = if hostile && rng.gen_bool(0.2) {
            match below(rng, 3) {
                0 => format!("{method}\t{path}\t{version}\r\n"),
                1 => format!("{method}  {path}  {version}\r\n"),
                _ => format!("{method} {path} {version} extra tokens\r\n"),
            }
        } else {
            format!("{method} {path} {version}\r\n")
        };
        if !hostile && (method == "POST" || !body.is_empty()) {
            let length = format!("Content-Length: {}\r\n", body.len());
            head += &length;
            if rng.gen_bool(0.1) {
                head += &length;
            }
        } else if hostile && rng.gen_bool(0.8) {
            let length = match below(rng, 6) {
                0 => body.len().to_string(),
                // Longer than the body: the next request is read as body.
                1 => (body.len() + 1 + below(rng, 40)).to_string(),
                // Over the body cap, or past what `usize` holds.
                2 if rng.gen_bool(0.5) => (MAX_BODY_BYTES + 1).to_string(),
                2 => "99999999999999999999999".to_string(),
                3 => "-5".to_string(),
                // A sign, which `usize::from_str` accepts.
                4 => format!("+{}", body.len()),
                _ => "ten".to_string(),
            };
            // Plain, with whitespace before the colon, or obs-folded onto
            // the line before.
            head += &match below(rng, 4) {
                0 => format!("Content-Length : {length}\r\n"),
                1 => format!("X-A: b\r\n Content-Length: {length}\r\n"),
                _ => format!("Content-Length: {length}\r\n"),
            };
            if rng.gen_bool(0.2) {
                // A second, differing length: the body's end is ambiguous.
                head += &format!("Content-Length: {}\r\n", below(rng, 64));
            }
        }
        if hostile && rng.gen_bool(0.1) {
            head += "bogus line\r\n";
        }
        if hostile && rng.gen_bool(0.1) {
            // A length only a reader that breaks lines at a bare CR or LF
            // sees.
            head += pick(
                rng,
                &["X: a\rContent-Length: 5\r\n", "X: a\nContent-Length: 5\r\n"],
            );
        }
        if hostile && rng.gen_bool(0.1) {
            // A value a reader that stops at the control byte cuts short.
            head += pick(rng, &["X: a\0b\r\n", "X: a\x01b\r\n"]);
        }
        if hostile && rng.gen_bool(0.1) {
            head += pick(
                rng,
                &[
                    "Transfer-Encoding: chunked\r\n",
                    "Transfer-Encoding: gzip, chunked\r\n",
                ],
            );
        }
        if rng.gen_bool(if hostile { 0.5 } else { 0.1 }) {
            head += pick(
                rng,
                &[
                    "Connection: close\r\n",
                    "Connection: keep-alive\r\n",
                    "Connection: upgrade\r\n",
                ],
            );
        }
        if rng.gen_bool(0.2) {
            head += "Expect: 100-continue\r\n";
        }
        if rng.gen_bool(0.3) {
            head += pick(
                rng,
                &["Accept: application/json\r\n", "Accept: text/csv\r\n"],
            );
        }
        if rng.gen_bool(0.1) {
            head += "X-Note: a\tb\r\n";
        }
        head += "\r\n";
        let mut bytes = head.into_bytes();
        if hostile && rng.gen_bool(0.5) {
            for _ in 0..1 + below(rng, 3) {
                let at = below(rng, bytes.len());
                let byte = rng.gen::<u32>() as u8;
                match below(rng, 3) {
                    0 => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ => {
                        bytes.remove(at);
                    }
                }
            }
        }
        bytes.extend(body);
        (bytes, !hostile)
    }

    /// Splits a chunked body off the front of `rest`: its payload, and
    /// whether the terminal chunk arrived before the output ended.
    fn take_chunked(rest: &mut &[u8]) -> Result<(Vec<u8>, bool), String> {
        let mut body = Vec::new();
        loop {
            let Some(line_end) = find_subslice(rest, b"\r\n") else {
                *rest = &[];
                return Ok((body, false));
            };
            let size = std::str::from_utf8(&rest[..line_end])
                .ok()
                .and_then(|size| usize::from_str_radix(size, 16).ok())
                .ok_or_else(|| {
                    let line = String::from_utf8_lossy(&rest[..line_end]);
                    format!("malformed chunk size {line:?}")
                })?;
            let chunk = &rest[line_end + 2..];
            if chunk.len() < size + 2 {
                *rest = &[];
                return Ok((body, false));
            }
            if &chunk[size..size + 2] != b"\r\n" {
                return Err("a chunk without its CRLF".to_string());
            }
            body.extend_from_slice(&chunk[..size]);
            *rest = &chunk[size + 2..];
            if size == 0 {
                return Ok((body, true));
            }
        }
    }

    /// Checks one connection's output and counts its final (non-`100`)
    /// responses: every response has a well-formed status line and
    /// framing, every 4xx or 5xx names its reason in a non-empty
    /// `text/plain` body, every `200` chunked body ends in its terminal
    /// chunk unless it is the last thing the server wrote, and nothing
    /// follows a `Connection: close` response.
    fn check_framing(output: &[u8]) -> Result<usize, String> {
        let mut rest = output;
        let mut answers = 0;
        while !rest.is_empty() {
            let head_end =
                find_subslice(rest, b"\r\n\r\n").ok_or("a response head without its end")?;
            let head = std::str::from_utf8(&rest[..head_end])
                .map_err(|_| "a response head that is not UTF-8".to_string())?;
            rest = &rest[head_end + 4..];
            let mut lines = head.split("\r\n");
            let status_line = lines.next().unwrap_or_default();
            let status = status_line
                .strip_prefix("HTTP/1.1 ")
                .and_then(|s| s.split_once(' '))
                .filter(|(code, reason)| code.len() == 3 && !reason.is_empty())
                .and_then(|(code, _)| code.parse::<u16>().ok())
                .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
            if status == 100 {
                continue;
            }
            answers += 1;
            let headers: Vec<(&str, &str)> = lines.filter_map(|l| l.split_once(": ")).collect();
            let header = |name: &str| {
                headers
                    .iter()
                    .find(|(n, _)| n.eq_ignore_ascii_case(name))
                    .map(|(_, v)| *v)
            };
            let (body, terminated) = if header("Transfer-Encoding") == Some("chunked") {
                take_chunked(&mut rest)?
            } else {
                let length: usize = header("Content-Length")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("a {status} response without framing"))?;
                if rest.len() < length {
                    return Err(format!("a {status} body shorter than its Content-Length"));
                }
                let (body, tail) = rest.split_at(length);
                rest = tail;
                (body.to_vec(), true)
            };
            if (400..600).contains(&status) {
                if !header("Content-Type").is_some_and(|t| t.starts_with("text/plain")) {
                    return Err(format!("a {status} response that is not text/plain"));
                }
                if body.iter().all(u8::is_ascii_whitespace) {
                    return Err(format!("a {status} response without a reason"));
                }
            }
            if status == 200 && !terminated && !rest.is_empty() {
                return Err("an unterminated chunked body before more output".to_string());
            }
            if header("Connection") == Some("close") && !rest.is_empty() {
                return Err(format!("bytes after a {status} Connection: close response"));
            }
        }
        Ok(answers)
    }

    /// Serves one seeded random connection (one to six pipelined requests
    /// cut into random read segments) and checks what it wrote back. When
    /// every request is well-formed, each gets exactly one answer up to
    /// the first that asks for `Connection: close`.
    fn fuzz_connection(seed: u64) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut input = Vec::new();
        // Per request: whether it is well-formed and asks to close.
        let mut requests = Vec::new();
        for _ in 0..1 + below(&mut rng, 6) {
            let (request, well_formed) = fuzz_request(&mut rng);
            let closes = find_subslice(&request, b"Connection: close").is_some();
            requests.push((well_formed, closes));
            input.extend(request);
        }
        let expected = requests
            .iter()
            .all(|&(well_formed, _)| well_formed)
            .then(|| {
                (requests.iter())
                    .position(|&(_, closes)| closes)
                    .map_or(requests.len(), |at| at + 1)
            });
        let mut segments: Vec<&[u8]> = Vec::new();
        let mut rest = input.as_slice();
        while !rest.is_empty() {
            let cap = if rng.gen_bool(0.5) { 8 } else { rest.len() };
            let (segment, tail) = rest.split_at(1 + below(&mut rng, cap.min(rest.len())));
            segments.push(segment);
            rest = tail;
        }
        let mut fake = Fake::segmented(&segments);
        let state = state();
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_connection(&mut fake, None, &state);
        }));
        let outcome = match served {
            Ok(()) => check_framing(&fake.output).and_then(|answers| match expected {
                Some(expected) if answers != expected => Err(format!(
                    "{answers} answers to {expected} well-formed requests"
                )),
                _ => Ok(()),
            }),
            Err(_) => Err("the server panicked".to_string()),
        };
        outcome.map_err(|e| {
            format!(
                "seed {seed}: {e}\ninput: {:?}\noutput: {:?}",
                String::from_utf8_lossy(&input),
                String::from_utf8_lossy(&fake.output)
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Byte-level fuzz of the connection loop: random pipelined
        /// requests in random read segments never panic the server and
        /// always get well-framed answers.
        #[test]
        fn fuzz_pipelined_requests_get_well_framed_answers(seed in 0u64..u64::MAX) {
            fuzz_connection(seed).map_err(TestCaseError::fail)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50_000))]

        /// The long soak of the same fuzz; CI runs it in release mode
        /// (`cargo test --release -p actuary-cli fuzz -- --ignored`).
        #[test]
        #[ignore = "soak: 50,000 connections, run in release mode"]
        fn fuzz_soak_pipelined_requests_get_well_framed_answers(seed in 0u64..u64::MAX) {
            fuzz_connection(seed).map_err(TestCaseError::fail)?;
        }
    }
}
