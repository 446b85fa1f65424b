//! The serving runtime: acceptor, connection handlers, a classify
//! permit count, and the hot-reload watcher.
//!
//! Threading model — thread-per-connection, no worker pool:
//!
//! * an **acceptor** polls a non-blocking listener, spawning one handler
//!   thread per connection and joining them all before it exits;
//! * each **connection handler** parses a frame and serves the request on
//!   its own thread. Admission counts the requests waiting for a permit;
//!   past `queue_capacity` the request gets an immediate typed
//!   `overloaded` response with a retry hint, so the wait never grows
//!   unbounded. The handler then waits at most `deadline_ms` for one of
//!   `workers` classify permits (typed `deadline_exceeded` on timeout),
//!   classifies through the shared [`Pipeline`]'s batch call
//!   ([`Pipeline::classify_corpus`], which times the request under its
//!   one `classify` span), releases the permit, and writes the reply;
//! * an optional **watcher** polls the model path and atomically swaps
//!   the model `Arc` when a changed artifact passes deep validation —
//!   in-flight requests finish on the model they started with, and a
//!   failed candidate is counted and ignored (the old model keeps
//!   serving).
//!
//! The permit count is a mutex-guarded integer plus a condvar; its lock
//! is held only while counting, never across classification.
//!
//! Graceful shutdown drains: the flag stops admissions (typed
//! `shutting_down`), and the acceptor joins every handler, each of which
//! answers the request it admitted — an admitted request is never
//! dropped.

use crate::protocol::{
    self, parse_payload, read_frame, write_message, Request, Response, Status, WireError,
};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Duration;
use tabmeta_core::persist::{fnv1a, load_pipeline_bytes};
use tabmeta_core::Pipeline;
use tabmeta_obs::{clock, names};

use tabmeta_obs::lockorder::{self, TrackedMutex, TrackedRwLock};

/// Tuning knobs for a [`Server`]. All durations are milliseconds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Classifications that may run at once (classify permits).
    pub workers: usize,
    /// Requests that may wait for a permit; one more is rejected with
    /// `overloaded` instead of waiting.
    pub queue_capacity: usize,
    /// Max permit wait before a request is answered `deadline_exceeded`.
    pub deadline_ms: u64,
    /// Socket read/write timeout; slower peers get `slow_read` + close.
    pub io_timeout_ms: u64,
    /// Largest accepted frame payload.
    pub max_frame_bytes: u32,
    /// Model-path poll interval for hot reload.
    pub reload_poll_ms: u64,
    /// Retry hint carried by `overloaded` responses.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            deadline_ms: 2_000,
            io_timeout_ms: 2_000,
            max_frame_bytes: protocol::MAX_FRAME_BYTES_DEFAULT,
            reload_poll_ms: 50,
            retry_after_ms: 25,
        }
    }
}

/// The read-only classify state one model version serves with.
#[derive(Debug)]
pub struct ServingModel {
    /// Trained pipeline; all classify entry points take `&self`, so one
    /// instance is shared by every connection handler via `Arc`.
    pub pipeline: Pipeline,
    /// Envelope fingerprint of the artifact this model came from.
    pub fingerprint: u64,
}

/// Monotonic serving counters, updated with relaxed atomics.
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    admitted: AtomicU64,
    ok: AtomicU64,
    deadline_exceeded: AtomicU64,
    internal_error: AtomicU64,
    overloaded: AtomicU64,
    bad_request: AtomicU64,
    frame_too_large: AtomicU64,
    slow_read: AtomicU64,
    shutting_down: AtomicU64,
    wire_truncated: AtomicU64,
    wire_io: AtomicU64,
    reloads: AtomicU64,
    reload_rejected: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    in_flight: AtomicU64,
}

/// Point-in-time view of [`Server`] accounting, for callers and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror ServerStats one-to-one
pub struct StatsSnapshot {
    pub connections: u64,
    pub admitted: u64,
    pub ok: u64,
    pub deadline_exceeded: u64,
    /// Always 0: each handler answers the request it admitted, so
    /// shutdown never drops one. Kept for readers of the conservation law.
    pub drained: u64,
    pub internal_error: u64,
    pub overloaded: u64,
    pub bad_request: u64,
    pub frame_too_large: u64,
    pub slow_read: u64,
    pub shutting_down: u64,
    pub wire_truncated: u64,
    pub wire_io: u64,
    pub reloads: u64,
    pub reload_rejected: u64,
    pub queue_depth: u64,
    pub max_queue_depth: u64,
    pub in_flight: u64,
}

impl StatsSnapshot {
    /// Every admitted request must be answered: classified, expired, or
    /// rejected after a caught classify panic (`drained` is always 0).
    /// Zero-drop invariant for the chaos gate.
    pub fn admissions_conserved(&self) -> bool {
        self.admitted == self.ok + self.deadline_exceeded + self.drained + self.internal_error
    }
}

struct Instruments {
    requests: Arc<tabmeta_obs::Counter>,
    reloads: Arc<tabmeta_obs::Counter>,
    reload_rejected: Arc<tabmeta_obs::Counter>,
    queue_depth: Arc<tabmeta_obs::Gauge>,
    in_flight: Arc<tabmeta_obs::Gauge>,
    request_micros: Arc<tabmeta_obs::Histogram>,
}

impl Instruments {
    fn from_global() -> Instruments {
        let obs = tabmeta_obs::global();
        Instruments {
            requests: obs.counter(names::SERVE_REQUESTS),
            reloads: obs.counter(names::SERVE_RELOADS),
            reload_rejected: obs.counter(names::SERVE_RELOAD_REJECTED),
            queue_depth: obs.gauge(names::SERVE_QUEUE_DEPTH),
            in_flight: obs.gauge(names::SERVE_IN_FLIGHT),
            request_micros: obs.histogram(names::SERVE_REQUEST_MICROS),
        }
    }
}

/// Count a typed rejection in the dynamic `serve.rejected.<reason>`
/// family.
fn count_rejected(reason: &str) {
    tabmeta_obs::global().counter(&format!("{}{}", names::SERVE_REJECTED_PREFIX, reason)).inc();
}

/// Test-only poison switch: a request whose id matches this value
/// panics inside the classify closure, exercising the
/// `catch_unwind` fence without needing a genuinely panicking model
/// (classification is designed never to panic).
#[cfg(test)]
pub(crate) static POISON_REQUEST_ID: AtomicU64 = AtomicU64::new(u64::MAX);

/// Test-only hold switch: a request whose id matches this value keeps
/// classifying until the test resets the switch, so a test can pin the
/// server at capacity and watch it shed load.
#[cfg(test)]
pub(crate) static HOLD_REQUEST_ID: AtomicU64 = AtomicU64::new(u64::MAX);

struct Shared {
    config: ServeConfig,
    model: TrackedRwLock<Arc<ServingModel>>,
    /// Free classify permits, out of `config.workers`.
    permits: TrackedMutex<usize>,
    permit_freed: Condvar,
    shutdown: AtomicBool,
    stats: ServerStats,
    instruments: Instruments,
    last_reload_error: TrackedMutex<String>,
}

impl Shared {
    /// Admit one request, wait for a classify permit, and classify on the
    /// calling connection thread. Every path returns a typed response.
    fn serve(&self, request: Request) -> Response {
        if self.shutdown.load(Ordering::Acquire) {
            self.stats.shutting_down.fetch_add(1, Ordering::Relaxed);
            count_rejected(Status::ShuttingDown.as_str());
            return Response::rejected(
                request.id,
                Status::ShuttingDown,
                "server is draining; no new requests admitted".to_string(),
                0,
            );
        }
        let admitted_micros = clock::monotonic_micros();
        // Count the waiter before checking the bound so racing admissions
        // can never all slip under it; roll back on rejection.
        let depth = self.stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        if depth > self.config.queue_capacity.max(1) as u64 {
            self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
            self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            count_rejected(Status::Overloaded.as_str());
            return Response::rejected(
                request.id,
                Status::Overloaded,
                format!("admission queue full ({} requests)", self.config.queue_capacity),
                self.config.retry_after_ms.max(1),
            );
        }
        self.stats.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        self.instruments.queue_depth.set(depth as f64);
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        self.instruments.requests.inc();

        let deadline = Duration::from_millis(self.config.deadline_ms);
        let (mut free, timed_out) =
            self.permits.lock().wait_timeout_while(&self.permit_freed, deadline, |f| *f == 0);
        if !timed_out {
            *free -= 1;
        }
        drop(free);
        let depth = self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        self.instruments.queue_depth.set(depth as f64);

        let response = if timed_out {
            self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            count_rejected(Status::DeadlineExceeded.as_str());
            Response::rejected(
                request.id,
                Status::DeadlineExceeded,
                format!("no classify permit within the {}ms deadline", self.config.deadline_ms),
                0,
            )
        } else {
            let in_flight = self.stats.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
            self.instruments.in_flight.set(in_flight as f64);
            let response = self.classify(&request);
            *self.permits.lock() += 1;
            self.permit_freed.notify_one();
            let in_flight = self.stats.in_flight.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
            self.instruments.in_flight.set(in_flight as f64);
            response
        };
        self.instruments
            .request_micros
            .record(clock::monotonic_micros().saturating_sub(admitted_micros));
        response
    }

    /// Classify one permitted request on a snapshot of the model.
    fn classify(&self, request: &Request) -> Response {
        // Snapshot the model once: a hot reload swapping the slot
        // mid-request cannot change the model this request sees.
        let model = Arc::clone(&self.model.read());
        // A panic inside classification must not take the handler down
        // with its permit — the permits would leak until no admitted
        // request could ever be answered. Catch it and reject the one
        // poisoned request instead.
        let classified = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(test)]
            if request.id == POISON_REQUEST_ID.load(Ordering::Relaxed) {
                panic!("poisoned request {} (test hook)", request.id);
            }
            #[cfg(test)]
            while request.id == HOLD_REQUEST_ID.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            model.pipeline.classify_corpus(&request.tables)
        }));
        match classified {
            Ok(verdicts) => {
                self.stats.ok.fetch_add(1, Ordering::Relaxed);
                Response::ok(request.id, model.fingerprint, verdicts)
            }
            Err(panic) => {
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                self.stats.internal_error.fetch_add(1, Ordering::Relaxed);
                count_rejected(Status::InternalError.as_str());
                Response::rejected(
                    request.id,
                    Status::InternalError,
                    format!("classification panicked: {detail}"),
                    0,
                )
            }
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let s = &self.stats;
        StatsSnapshot {
            connections: s.connections.load(Ordering::Relaxed),
            admitted: s.admitted.load(Ordering::Relaxed),
            ok: s.ok.load(Ordering::Relaxed),
            deadline_exceeded: s.deadline_exceeded.load(Ordering::Relaxed),
            drained: 0,
            internal_error: s.internal_error.load(Ordering::Relaxed),
            overloaded: s.overloaded.load(Ordering::Relaxed),
            bad_request: s.bad_request.load(Ordering::Relaxed),
            frame_too_large: s.frame_too_large.load(Ordering::Relaxed),
            slow_read: s.slow_read.load(Ordering::Relaxed),
            shutting_down: s.shutting_down.load(Ordering::Relaxed),
            wire_truncated: s.wire_truncated.load(Ordering::Relaxed),
            wire_io: s.wire_io.load(Ordering::Relaxed),
            reloads: s.reloads.load(Ordering::Relaxed),
            reload_rejected: s.reload_rejected.load(Ordering::Relaxed),
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: s.max_queue_depth.load(Ordering::Relaxed),
            in_flight: s.in_flight.load(Ordering::Relaxed),
        }
    }
}

fn handle_conn(shared: &Shared, mut stream: TcpStream) {
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    let timeout = Duration::from_millis(shared.config.io_timeout_ms.max(1));
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream, shared.config.max_frame_bytes) {
            Ok(payload) => payload,
            Err(WireError::Closed) => return,
            Err(WireError::TimedOut) => {
                shared.stats.slow_read.fetch_add(1, Ordering::Relaxed);
                count_rejected(Status::SlowRead.as_str());
                let _ = write_message(
                    &mut stream,
                    &Response::rejected(
                        0,
                        Status::SlowRead,
                        format!("no complete frame within {}ms", shared.config.io_timeout_ms),
                        0,
                    ),
                );
                return;
            }
            Err(WireError::FrameTooLarge { declared, max }) => {
                shared.stats.frame_too_large.fetch_add(1, Ordering::Relaxed);
                count_rejected(Status::FrameTooLarge.as_str());
                // The body was never read, so the stream cannot be
                // resynchronized — answer typed, then close.
                let _ = write_message(
                    &mut stream,
                    &Response::rejected(
                        0,
                        Status::FrameTooLarge,
                        format!("frame of {declared} bytes exceeds the {max}-byte bound"),
                        0,
                    ),
                );
                return;
            }
            Err(WireError::Truncated { .. }) => {
                // Peer died mid-frame; nobody is left to answer.
                shared.stats.wire_truncated.fetch_add(1, Ordering::Relaxed);
                count_rejected("truncated");
                return;
            }
            Err(WireError::Io { .. }) => {
                shared.stats.wire_io.fetch_add(1, Ordering::Relaxed);
                count_rejected("io");
                return;
            }
        };
        let response = match parse_payload::<Request>(&payload) {
            Err(e) => {
                shared.stats.bad_request.fetch_add(1, Ordering::Relaxed);
                count_rejected(Status::BadRequest.as_str());
                Response::rejected(0, Status::BadRequest, e.to_string(), 0)
            }
            Ok(request) => shared.serve(request),
        };
        if write_message(&mut stream, &response).is_err() {
            shared.stats.wire_io.fetch_add(1, Ordering::Relaxed);
            count_rejected("io");
            return;
        }
    }
}

fn watcher_loop(shared: &Shared, path: PathBuf) {
    // Seed change detection with the on-disk bytes at startup so an
    // unchanged artifact is never re-validated.
    let mut last_seen = std::fs::read(&path).map(|b| fnv1a(&b)).unwrap_or(0);
    let step = Duration::from_millis(10);
    loop {
        let mut waited = 0;
        while waited < shared.config.reload_poll_ms.max(1) {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(step);
            waited += 10;
        }
        // A transient read failure (e.g. the path briefly missing) is
        // not a reload attempt; keep serving and keep polling.
        let Ok(bytes) = std::fs::read(&path) else { continue };
        let seen = fnv1a(&bytes);
        if seen == last_seen {
            continue;
        }
        last_seen = seen;
        match load_pipeline_bytes(&bytes) {
            Ok((pipeline, fingerprint)) => {
                *shared.model.write() = Arc::new(ServingModel { pipeline, fingerprint });
                shared.stats.reloads.fetch_add(1, Ordering::Relaxed);
                shared.instruments.reloads.inc();
            }
            Err(e) => {
                // Typed rejection: the candidate failed envelope or deep
                // validation; the old model keeps serving. The reason is
                // stored before the counter moves, so a reader that sees
                // the new count and then takes the lock reads this reason.
                *shared.last_reload_error.lock() = e.reason().to_string();
                shared.stats.reload_rejected.fetch_add(1, Ordering::Relaxed);
                shared.instruments.reload_rejected.inc();
            }
        }
    }
}

/// A running classification server. Dropping without calling
/// [`Server::shutdown`] detaches its threads; call `shutdown` for a
/// drained, join-checked stop.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `model`. When `watch` is given, the artifact at that path is
    /// polled for hot reload.
    pub fn start(
        model: ServingModel,
        config: ServeConfig,
        addr: impl ToSocketAddrs,
        watch: Option<PathBuf>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            permits: TrackedMutex::new(&lockorder::SERVE_PERMITS, config.workers.max(1)),
            permit_freed: Condvar::new(),
            config,
            model: TrackedRwLock::new(&lockorder::SERVE_MODEL, Arc::new(model)),
            shutdown: AtomicBool::new(false),
            stats: ServerStats::default(),
            instruments: Instruments::from_global(),
            last_reload_error: TrackedMutex::new(&lockorder::SERVE_RELOAD_ERROR, String::new()),
        });

        let watcher = match watch {
            Some(path) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("serve-watcher".to_string())
                        .spawn(move || watcher_loop(&shared, path))?,
                )
            }
            None => None,
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name("serve-acceptor".to_string()).spawn(move || {
                let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                loop {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Accepted sockets must block; only the
                            // listener polls.
                            if stream.set_nonblocking(false).is_err() {
                                continue;
                            }
                            let conn_shared = Arc::clone(&shared);
                            if let Ok(handle) = std::thread::Builder::new()
                                .name("serve-conn".to_string())
                                .spawn(move || handle_conn(&conn_shared, stream))
                            {
                                handlers.push(handle);
                            }
                            handlers.retain(|h| !h.is_finished());
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
                // Each handler answers the request it admitted before it
                // exits, so joining them drains the server.
                for handle in handlers {
                    let _ = handle.join();
                }
            })?
        };

        Ok(Server { shared, local_addr, acceptor, watcher })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Fingerprint of the model currently serving.
    pub fn model_fingerprint(&self) -> u64 {
        self.shared.model.read().fingerprint
    }

    /// Reason tag of the most recent rejected reload, empty if none.
    pub fn last_reload_error(&self) -> String {
        self.shared.last_reload_error.lock().clone()
    }

    /// Current accounting.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Stop accepting, drain every admitted request, join all threads.
    /// `Err` carries the names of any threads that panicked.
    pub fn shutdown(self) -> Result<StatsSnapshot, String> {
        self.shared.shutdown.store(true, Ordering::Release);
        let mut panicked = Vec::new();
        // The acceptor joins every connection handler, and each handler
        // answers the request it admitted before it exits.
        if self.acceptor.join().is_err() {
            panicked.push("acceptor");
        }
        if self.watcher.is_some_and(|watcher| watcher.join().is_err()) {
            panicked.push("watcher");
        }
        if panicked.is_empty() {
            Ok(self.shared.snapshot())
        } else {
            Err(format!("serve threads panicked: {}", panicked.join(", ")))
        }
    }
}

/// A minimal blocking client for the serve protocol, used by perfbench's
/// load generator, the serve tests and the chaos soaks.
pub struct Client {
    stream: TcpStream,
    max_frame_bytes: u32,
}

impl Client {
    /// Connect with symmetric read/write timeouts.
    pub fn connect(addr: impl ToSocketAddrs, timeout_ms: u64) -> Result<Client, WireError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| WireError::Io { detail: e.to_string() })?;
        let timeout = Duration::from_millis(timeout_ms.max(1));
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| WireError::Io { detail: e.to_string() })?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream, max_frame_bytes: protocol::MAX_FRAME_BYTES_DEFAULT })
    }

    /// Send one request and wait for its response frame.
    pub fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        write_message(&mut self.stream, request)?;
        self.read_response()
    }

    /// Read one response frame.
    pub fn read_response(&mut self) -> Result<Response, WireError> {
        let payload = read_frame(&mut self.stream, self.max_frame_bytes)?;
        parse_payload(&payload)
    }

    /// Write raw bytes as-is (no framing) — the chaos gate uses this to
    /// deliver deterministically corrupted traffic.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        match self.stream.write_all(bytes).and_then(|()| self.stream.flush()) {
            Ok(()) => Ok(()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(WireError::TimedOut)
            }
            Err(e) => Err(WireError::Io { detail: e.to_string() }),
        }
    }

    /// Half-close the write side, signalling a mid-frame disconnect.
    pub fn shutdown_write(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}
