//! # setsim-server — the network serving tier
//!
//! A std-only, thread-per-connection TCP server exposing a
//! [`MutableEngine`] over the wire-stable protocol defined in
//! [`setsim_core::api`] (length-prefixed frames, versioned handshake,
//! explicit discriminants — see DESIGN.md §14). No async runtime, no
//! registry dependencies: the offline-shim rules from PR 1 apply to the
//! serving tier too.
//!
//! ## Robustness model
//!
//! * **Admission control**: at most [`ServerConfig::max_inflight`]
//!   requests execute at once. A request arriving beyond that is *shed*
//!   with a typed [`setsim_core::ErrorCode::Overloaded`] response carrying a
//!   `retry_after` hint — never a silent drop, never an unbounded queue.
//! * **Budgets and deadlines**: a client's `max_elements`/`deadline`
//!   propagate into the engine [`setsim_core::Budget`]; the server can tighten them
//!   with [`ServerConfig::max_elements_per_query`] and charges every
//!   search against an optional per-connection quota
//!   ([`ServerConfig::conn_quota`]). Exhaustion is a typed
//!   [`setsim_core::ErrorCode::QuotaExhausted`], and budget-tripped searches return
//!   exact-but-partial results flagged `BudgetExceeded`.
//! * **Timeouts**: a connection idle longer than
//!   [`ServerConfig::idle_timeout`] is closed; a frame that *starts* but
//!   does not finish within [`ServerConfig::read_timeout`] drops the
//!   connection (a stalled writer cannot pin a serving thread).
//! * **Graceful drain**: [`ServerHandle::shutdown`] stops accepting,
//!   then every open connection keeps serving frames that arrive within
//!   [`ServerConfig::drain_grace`] before closing — an accepted in-flight
//!   query is never lost.
//! * **Zero-downtime swap**: the `Compact` verb runs the engine's
//!   existing lock-free-rebuild compaction; reads proceed against the
//!   old state and cut over atomically.
//!
//! Concurrency in this file is deliberately boring: all hot-path serving
//! state is lock-free atomics; the only mutex guards the join-handle
//! list. It is a leaf, taken on accept and shutdown with no other lock
//! held, and shutdown releases it before joining the threads it drained.

// Library-code policy (DESIGN.md §13): a panic in a connection thread
// kills the connection, one in the accept loop kills the listener.
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::missing_panics_doc
)]
// Runs while a guard is held, where a panic poisons the lock (or strands
// a pool frame) for every other thread (DESIGN.md §13).
#![deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)]

use setsim_core::api::{
    read_frame, write_frame, FrameReadError, SearchCall, SearchReply, WireError, WireRequest,
    WireResponse, WireStats, PROTOCOL_VERSION,
};
use setsim_core::{MutableEngine, MutableIndex, RecordId, SearchRequest};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

mod client;
pub use client::{Client, ClientError};

/// How often blocked accept/read loops poll the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Tuning knobs for a [`ServerHandle`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests, loadgen).
    pub addr: String,
    /// Maximum requests executing concurrently; excess is shed with a
    /// typed `Overloaded` response.
    pub max_inflight: usize,
    /// Maximum simultaneously open connections; excess connects receive
    /// a typed `Overloaded` refusal frame and are closed.
    pub max_connections: usize,
    /// Backoff hint attached to `Overloaded` responses, in milliseconds.
    pub retry_after_ms: u64,
    /// Close a connection with no traffic for this long.
    pub idle_timeout: Duration,
    /// A frame that started must complete within this window.
    pub read_timeout: Duration,
    /// After shutdown, each connection keeps serving frames arriving
    /// within this grace window, so in-flight requests are never lost.
    pub drain_grace: Duration,
    /// Largest accepted frame payload.
    pub max_frame_len: u32,
    /// Server-side ceiling folded into every search budget.
    pub max_elements_per_query: Option<u64>,
    /// Cumulative per-connection work quota (list elements + records
    /// read); once spent, further searches get `QuotaExhausted`.
    pub conn_quota: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: 8,
            max_connections: 64,
            retry_after_ms: 25,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_millis(250),
            max_frame_len: setsim_core::api::MAX_FRAME_LEN,
            max_elements_per_query: None,
            conn_quota: None,
        }
    }
}

/// Counters reported by [`ServerHandle::shutdown`] and the `Stats` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DrainReport {
    /// Requests that received a successful response.
    pub served: u64,
    /// Requests shed by admission control (each got a typed response).
    pub shed: u64,
    /// Connections accepted over the server's lifetime.
    pub accepted_connections: u64,
}

/// State shared between the accept loop, connection threads, and the
/// handle. Hot-path fields are atomics; `conns` (the only lock) is
/// touched on accept and shutdown.
struct Shared {
    engine: MutableEngine,
    cfg: ServerConfig,
    /// Set once by shutdown; observed by every loop within one poll tick.
    stop: AtomicBool,
    /// Requests currently admitted and executing.
    inflight: AtomicUsize,
    open_conns: AtomicUsize,
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    /// Join handles of live connection threads, drained at shutdown.
    conns: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Shared {
    fn wire_stats(&self) -> WireStats {
        let m = self.engine.metrics();
        let mut s = WireStats::from_metrics(&m);
        s.queue_depth = self.inflight.load(Ordering::Relaxed) as u64;
        s.shed = self.shed.load(Ordering::Relaxed);
        s.accepted_connections = self.accepted.load(Ordering::Relaxed);
        s.open_connections = self.open_conns.load(Ordering::Relaxed) as u64;
        s.live_records = self.engine.with_index(MutableIndex::live_len) as u64;
        s.draining = self.stop.load(Ordering::Relaxed);
        s
    }
}

/// An admission permit; holding one means the request counts against
/// `max_inflight`. Dropping it releases the slot even on early return.
struct Permit<'a> {
    shared: &'a Shared,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn try_admit(shared: &Shared) -> Option<Permit<'_>> {
    let max = shared.cfg.max_inflight;
    let admitted = shared
        .inflight
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            if n < max {
                Some(n + 1)
            } else {
                None
            }
        })
        .is_ok();
    if admitted {
        Some(Permit { shared })
    } else {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        None
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves the threads running detached;
/// call `shutdown` for a graceful drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Bind `cfg.addr`, spawn the accept loop, and serve `engine`.
    pub fn spawn(engine: MutableEngine, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            cfg,
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            open_conns: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("setsim-accept".to_owned())
            .spawn(move || accept_loop(&accept_shared, &listener))?;
        Ok(ServerHandle {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine being served (for seeding and direct inspection).
    #[must_use]
    pub fn engine(&self) -> &MutableEngine {
        &self.shared.engine
    }

    /// Engine + serving metrics, as the `Stats` verb reports them.
    #[must_use]
    pub fn wire_stats(&self) -> WireStats {
        self.shared.wire_stats()
    }

    /// Graceful drain: stop accepting, let every open connection finish
    /// requests arriving within the drain grace window, join all
    /// threads, and report final counters.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _joined = h.join();
        }
        let handles = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for h in handles {
            let _joined = h.join();
        }
        DrainReport {
            served: self.shared.served.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            accepted_connections: self.shared.accepted.load(Ordering::Relaxed),
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                if shared.open_conns.load(Ordering::Acquire) >= shared.cfg.max_connections {
                    // Connection-level shed: still a typed response on
                    // the wire, never a silent RST-and-vanish.
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    let mut refused = stream;
                    refuse(&mut refused, shared.cfg.retry_after_ms);
                    continue;
                }
                shared.open_conns.fetch_add(1, Ordering::AcqRel);
                let conn_shared = Arc::clone(shared);
                let spawned =
                    thread::Builder::new()
                        .name("setsim-conn".to_owned())
                        .spawn(move || {
                            serve_conn(&conn_shared, stream);
                            conn_shared.open_conns.fetch_sub(1, Ordering::AcqRel);
                        });
                match spawned {
                    Ok(handle) => {
                        let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
                        // Reap finished threads so a long-lived server
                        // does not accumulate handles unboundedly.
                        let mut live = Vec::with_capacity(conns.len() + 1);
                        for h in conns.drain(..) {
                            if h.is_finished() {
                                let _joined = h.join();
                            } else {
                                live.push(h);
                            }
                        }
                        live.push(handle);
                        *conns = live;
                    }
                    Err(_spawn_failed) => {
                        shared.open_conns.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            Err(_transient) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Send a typed `Overloaded` refusal to a connection we will not serve
/// (the caller drops — and thereby closes — the stream).
fn refuse(stream: &mut TcpStream, retry_after_ms: u64) {
    let resp = WireResponse::Error(WireError::overloaded(retry_after_ms));
    let _best_effort = write_frame(stream, &resp.encode());
}

/// What the poll loop saw on a connection.
enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Peer closed, idle/read timeout expired, drain window elapsed, or
    /// the stream failed — in every case the connection is done.
    Done,
    /// The declared frame length exceeded the maximum: answer with a
    /// typed error, then drop (we cannot resync the stream).
    TooLarge,
}

/// Wait for the next frame, polling the stop flag, enforcing idle and
/// read timeouts, and honoring the drain grace window after shutdown.
fn next_frame(
    stream: &mut TcpStream,
    shared: &Shared,
    drain_deadline: &mut Option<Instant>,
) -> FrameEvent {
    let idle_since = Instant::now();
    let mut probe = [0u8; 1];
    loop {
        if shared.stop.load(Ordering::Relaxed) && drain_deadline.is_none() {
            *drain_deadline = Some(Instant::now() + shared.cfg.drain_grace);
        }
        if let Some(deadline) = *drain_deadline {
            if Instant::now() >= deadline {
                return FrameEvent::Done;
            }
        }
        // Peek so an idle poll consumes nothing: a frame either has not
        // started (timeout here is harmless) or is read to completion
        // below under the read timeout.
        match stream.peek(&mut probe) {
            Ok(0) => return FrameEvent::Done,
            Ok(_started) => {
                if stream
                    .set_read_timeout(Some(shared.cfg.read_timeout))
                    .is_err()
                {
                    return FrameEvent::Done;
                }
                let result = read_frame(stream, shared.cfg.max_frame_len);
                if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
                    return FrameEvent::Done;
                }
                return match result {
                    Ok(payload) => FrameEvent::Frame(payload),
                    Err(FrameReadError::TooLarge { .. }) => FrameEvent::TooLarge,
                    Err(_closed_or_io) => FrameEvent::Done,
                };
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now().duration_since(idle_since) > shared.cfg.idle_timeout {
                    return FrameEvent::Done;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_io) => return FrameEvent::Done,
        }
    }
}

fn serve_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut drain_deadline: Option<Instant> = None;
    // Handshake: the first frame must be a `Hello` with our magic and a
    // version we can speak. Anything else gets a typed error and the
    // connection is closed.
    match next_frame(&mut stream, shared, &mut drain_deadline) {
        FrameEvent::Frame(payload) => match WireRequest::decode(&payload) {
            Ok(WireRequest::Hello { version }) if version >= 1 => {
                let agreed = version.min(PROTOCOL_VERSION);
                if !send(&mut stream, &WireResponse::Hello { version: agreed }) {
                    return;
                }
            }
            Ok(WireRequest::Hello { version }) => {
                send(
                    &mut stream,
                    &WireResponse::Error(WireError::new(
                        setsim_core::ErrorCode::ProtocolMismatch,
                        format!("cannot speak protocol version {version}; supported: 1..={PROTOCOL_VERSION}"),
                    )),
                );
                return;
            }
            Ok(_not_hello) => {
                send(
                    &mut stream,
                    &WireResponse::Error(WireError::new(
                        setsim_core::ErrorCode::ProtocolMismatch,
                        "handshake required: first frame must be Hello",
                    )),
                );
                return;
            }
            Err(decode) => {
                send(&mut stream, &WireResponse::Error(WireError::from(decode)));
                return;
            }
        },
        FrameEvent::TooLarge => {
            send(
                &mut stream,
                &WireResponse::Error(WireError::new(
                    setsim_core::ErrorCode::FrameTooLarge,
                    "frame exceeds maximum length",
                )),
            );
            return;
        }
        FrameEvent::Done => return,
    }
    // Steady state: serve frames until the peer closes, a timeout fires,
    // or the drain window elapses.
    let mut quota_left = shared.cfg.conn_quota;
    loop {
        match next_frame(&mut stream, shared, &mut drain_deadline) {
            FrameEvent::Frame(payload) => {
                let resp = match WireRequest::decode(&payload) {
                    // A malformed payload is a typed error, not a
                    // disconnect: framing is intact, so the stream is
                    // still in sync.
                    Err(decode) => WireResponse::Error(WireError::from(decode)),
                    Ok(req) => handle_request(shared, &req, &mut quota_left),
                };
                let ok = send(&mut stream, &resp);
                if !ok {
                    return;
                }
                if !matches!(resp, WireResponse::Error(_)) {
                    shared.served.fetch_add(1, Ordering::Relaxed);
                }
            }
            FrameEvent::TooLarge => {
                send(
                    &mut stream,
                    &WireResponse::Error(WireError::new(
                        setsim_core::ErrorCode::FrameTooLarge,
                        "frame exceeds maximum length",
                    )),
                );
                return;
            }
            FrameEvent::Done => return,
        }
    }
}

fn send(stream: &mut TcpStream, resp: &WireResponse) -> bool {
    write_frame(stream, &resp.encode()).is_ok()
}

fn handle_request(
    shared: &Shared,
    req: &WireRequest,
    quota_left: &mut Option<u64>,
) -> WireResponse {
    match req {
        // A repeated Hello is answered idempotently (cheap, no permit).
        WireRequest::Hello { .. } => WireResponse::Hello {
            version: PROTOCOL_VERSION,
        },
        WireRequest::Ping => WireResponse::Pong,
        // Stats bypass admission control: observability must keep
        // working precisely when the server is saturated.
        WireRequest::Stats => WireResponse::Stats(shared.wire_stats()),
        WireRequest::Search(call) => {
            let Some(_permit) = try_admit(shared) else {
                return WireResponse::Error(WireError::overloaded(shared.cfg.retry_after_ms));
            };
            handle_search(shared, call, quota_left)
        }
        WireRequest::Insert { text } => {
            let Some(_permit) = try_admit(shared) else {
                return WireResponse::Error(WireError::overloaded(shared.cfg.retry_after_ms));
            };
            WireResponse::Insert {
                id: shared.engine.insert(text).0,
            }
        }
        WireRequest::Delete { id } => {
            let Some(_permit) = try_admit(shared) else {
                return WireResponse::Error(WireError::overloaded(shared.cfg.retry_after_ms));
            };
            WireResponse::Delete {
                existed: shared.engine.delete(RecordId(*id)),
            }
        }
        WireRequest::Upsert { id, text } => {
            let Some(_permit) = try_admit(shared) else {
                return WireResponse::Error(WireError::overloaded(shared.cfg.retry_after_ms));
            };
            WireResponse::Upsert {
                existed: shared.engine.upsert(RecordId(*id), text),
            }
        }
        WireRequest::Compact => {
            let Some(_permit) = try_admit(shared) else {
                return WireResponse::Error(WireError::overloaded(shared.cfg.retry_after_ms));
            };
            // Zero-downtime: the engine rebuilds off-lock and swaps.
            shared.engine.compact();
            WireResponse::Compact
        }
        // Forward compatibility: a request variant this build does not
        // know is a typed error, not a disconnect.
        _unknown => WireResponse::Error(WireError::new(
            setsim_core::ErrorCode::MalformedFrame,
            "request not supported by this server version",
        )),
    }
}

fn handle_search(shared: &Shared, call: &SearchCall, quota_left: &mut Option<u64>) -> WireResponse {
    if *quota_left == Some(0) {
        return WireResponse::Error(WireError::new(
            setsim_core::ErrorCode::QuotaExhausted,
            "per-connection work quota exhausted",
        ));
    }
    // Fold the client's budget, the server-wide per-query ceiling, and
    // the connection's remaining quota into one engine budget: the
    // tightest bound wins, so a query can never spend work the server
    // has not granted.
    let mut budget = call.budget();
    let server_caps = [shared.cfg.max_elements_per_query, *quota_left];
    for cap in server_caps.into_iter().flatten() {
        let bounded = budget.max_elements_read.map_or(cap, |b| b.min(cap));
        budget = budget.with_max_elements_read(bounded);
    }
    let query = shared.engine.prepare_query_str(&call.text);
    let req = SearchRequest::new(&query)
        .tau(call.tau)
        .algorithm(call.algorithm)
        .config(call.algo_config())
        .budget(budget);
    match shared.engine.search(&req) {
        Ok(outcome) => {
            let mut reply = SearchReply::from_outcome(&outcome);
            if let Some(q) = quota_left {
                *q = q.saturating_sub(reply.work);
            }
            if call.want_texts {
                shared.engine.with_index(|ix| {
                    for m in &mut reply.matches {
                        m.text = ix.text(RecordId(m.record)).map(str::to_owned);
                    }
                });
            }
            WireResponse::Search(reply)
        }
        Err(search_err) => WireResponse::Error(WireError::from(search_err)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_permits_release_on_drop() {
        let shared = Shared {
            engine: MutableEngine::new(
                setsim_core::MutableIndex::from_collection(
                    Box::new(
                        setsim_core::CollectionBuilder::new(
                            setsim_tokenize::QGramTokenizer::new(3).with_padding('#'),
                        )
                        .build(),
                    ),
                    setsim_core::IndexOptions::default(),
                )
                .expect("empty collection builds"),
            ),
            cfg: ServerConfig {
                max_inflight: 1,
                ..ServerConfig::default()
            },
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            open_conns: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        };
        {
            let first = try_admit(&shared);
            assert!(first.is_some());
            assert!(try_admit(&shared).is_none(), "second admit must shed");
            assert_eq!(shared.shed.load(Ordering::Relaxed), 1);
        }
        assert!(try_admit(&shared).is_some(), "permit drop frees the slot");
    }
}
