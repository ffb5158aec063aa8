//! End-to-end serving tests over real loopback TCP: handshake, typed
//! errors for malformed input, admission-control sheds, per-connection
//! quotas, deadline propagation, zero-downtime compaction, and the
//! graceful-drain guarantee (no accepted in-flight query is lost).

// Tests may hand-roll wire bytes (`clippy.toml` forbids it in serving code).
#![allow(clippy::disallowed_methods)]

use setsim_core::api::{write_frame, SearchCall, WireRequest, WireResponse, PROTOCOL_VERSION};
use setsim_core::{
    AlgorithmKind, Budget, CollectionBuilder, ErrorCode, IndexOptions, MutableEngine, MutableIndex,
    MutableSearchRequest, RecordId, SearchStatus,
};
use setsim_server::{Client, ClientError, ServerConfig, ServerHandle};
use setsim_tokenize::QGramTokenizer;
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const CORPUS: &[&str] = &[
    "main street",
    "main st",
    "maine street",
    "park avenue",
    "park ave",
    "ocean drive",
    "mountain road",
    "river lane",
];

fn engine() -> MutableEngine {
    let mut builder = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for s in CORPUS {
        builder.add(s);
    }
    let index = MutableIndex::from_collection(Box::new(builder.build()), IndexOptions::default())
        .expect("corpus builds");
    MutableEngine::new(index)
}

fn spawn(cfg: ServerConfig) -> ServerHandle {
    ServerHandle::spawn(engine(), cfg).expect("bind loopback")
}

fn local_cfg() -> ServerConfig {
    // Port 0: the OS picks a free port; tests read it from the handle.
    ServerConfig::default()
}

#[test]
fn remote_search_matches_local_engine_exactly() {
    let server = spawn(local_cfg());
    let local = engine();
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.version(), PROTOCOL_VERSION);

    for (text, tau) in [("main street", 0.5), ("park avenue", 0.3), ("ocean", 0.2)] {
        let reply = client
            .search(&SearchCall::new(text).tau(tau).algorithm(AlgorithmKind::Sf))
            .expect("remote search");
        let q = local.prepare_query_str(text);
        let expect = local
            .search(&MutableSearchRequest::new(&q).tau(tau))
            .expect("local search");
        assert_eq!(reply.status, SearchStatus::Complete);
        let mut got: Vec<(u64, u64)> = reply
            .matches
            .iter()
            .map(|m| (m.record, m.score.to_bits()))
            .collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = expect
            .results
            .iter()
            .map(|m| (m.record.0, m.score.to_bits()))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "query {text:?} at tau {tau}");
    }
    let report = server.shutdown();
    assert_eq!(report.shed, 0);
}

#[test]
fn want_texts_round_trips_record_texts() {
    let server = spawn(local_cfg());
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client
        .search(&SearchCall::new("main street").tau(0.5).with_texts())
        .expect("search");
    assert!(!reply.matches.is_empty());
    for m in &reply.matches {
        let text = m.text.as_deref().expect("texts requested");
        assert!(CORPUS.contains(&text), "unexpected text {text:?}");
    }
    server.shutdown();
}

#[test]
fn mutations_over_wire_are_visible_and_survive_compaction() {
    let server = spawn(local_cfg());
    let mut client = Client::connect(server.addr()).expect("connect");

    let id = client.insert("brand new street").expect("insert");
    let reply = client
        .search(&SearchCall::new("brand new street").tau(0.8))
        .expect("search");
    assert!(reply.matches.iter().any(|m| m.record == id.0));

    // Zero-downtime swap: compact over the wire, record must survive.
    client.compact().expect("compact");
    let reply = client
        .search(&SearchCall::new("brand new street").tau(0.8))
        .expect("post-compact search");
    assert!(reply.matches.iter().any(|m| m.record == id.0));

    assert!(client.delete(id).expect("delete"));
    assert!(!client.delete(id).expect("double delete reports absent"));
    assert!(client.upsert(RecordId(0), "renamed road").expect("upsert"));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.live_records, CORPUS.len() as u64);
    assert!(stats.queries >= 2);
    server.shutdown();
}

#[test]
fn invalid_tau_is_a_typed_error_and_connection_survives() {
    let server = spawn(local_cfg());
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client
        .search(&SearchCall::new("main street").tau(1.5))
        .expect_err("tau out of range");
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::InvalidTau),
        other => panic!("expected typed server error, got {other}"),
    }
    // The connection is still usable after a typed error.
    client.ping().expect("ping after error");
    server.shutdown();
}

#[test]
fn malformed_frames_yield_typed_errors_never_panics() {
    let server = spawn(local_cfg());
    // The typed client deliberately cannot send raw bytes, so drive the
    // protocol manually on a bare stream.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(
        &mut stream,
        &WireRequest::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .expect("hello");
    assert!(matches!(
        read_response(&mut stream),
        WireResponse::Hello { .. }
    ));

    // An unknown tag inside a well-formed frame: typed error, connection
    // stays in sync.
    write_frame(&mut stream, &[0x7A, 1, 2, 3]).expect("send");
    expect_code(&read_response(&mut stream), ErrorCode::MalformedFrame);

    // A truncated Search body: typed error.
    let mut bytes = WireRequest::Search(SearchCall::new("main street")).encode();
    bytes.truncate(bytes.len() - 3);
    write_frame(&mut stream, &bytes).expect("send");
    expect_code(&read_response(&mut stream), ErrorCode::MalformedFrame);

    // Trailing garbage after a valid Ping: typed error.
    let mut bytes = WireRequest::Ping.encode();
    bytes.extend_from_slice(&[9, 9]);
    write_frame(&mut stream, &bytes).expect("send");
    expect_code(&read_response(&mut stream), ErrorCode::MalformedFrame);

    // And the connection still works.
    write_frame(&mut stream, &WireRequest::Ping.encode()).expect("send");
    assert!(matches!(read_response(&mut stream), WireResponse::Pong));
    server.shutdown();
}

fn expect_code(resp: &WireResponse, code: ErrorCode) {
    match resp {
        WireResponse::Error(e) => assert_eq!(e.code, code),
        other => panic!("expected error {code}, got {other:?}"),
    }
}

#[test]
fn oversized_frame_header_gets_typed_error_then_close() {
    let server = spawn(local_cfg());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(
        &mut stream,
        &WireRequest::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .expect("hello");
    let resp = read_response(&mut stream);
    assert!(matches!(resp, WireResponse::Hello { .. }));
    // Declare a payload far beyond the server's maximum.
    use std::io::Write as _;
    stream.write_all(&u32::MAX.to_le_bytes()).expect("header");
    let resp = read_response(&mut stream);
    expect_code(&resp, ErrorCode::FrameTooLarge);
    // The server cannot resync; the stream must now close.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty());
    server.shutdown();
}

#[test]
fn wrong_protocol_version_is_refused_with_typed_error() {
    let server = spawn(local_cfg());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, &WireRequest::Hello { version: 0 }.encode()).expect("hello");
    let resp = read_response(&mut stream);
    expect_code(&resp, ErrorCode::ProtocolMismatch);
    server.shutdown();
}

#[test]
fn skipping_handshake_is_refused() {
    let server = spawn(local_cfg());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, &WireRequest::Ping.encode()).expect("ping");
    let resp = read_response(&mut stream);
    expect_code(&resp, ErrorCode::ProtocolMismatch);
    server.shutdown();
}

fn read_response(stream: &mut TcpStream) -> WireResponse {
    let payload =
        setsim_core::api::read_frame(stream, setsim_core::api::MAX_FRAME_LEN).expect("frame");
    WireResponse::decode(&payload).expect("decode")
}

#[test]
fn deadline_and_work_budget_propagate_into_engine() {
    let server = spawn(local_cfg());
    let mut client = Client::connect(server.addr()).expect("connect");
    // A zero-work budget must trip immediately: exact-but-partial result
    // with the BudgetExceeded status, not an error.
    let reply = client
        .search(
            &SearchCall::new("main street")
                .tau(0.3)
                .with_budget(&Budget::unlimited().with_max_elements_read(0)),
        )
        .expect("budgeted search");
    assert_eq!(reply.status, SearchStatus::BudgetExceeded);
    server.shutdown();
}

#[test]
fn server_side_element_cap_applies_without_client_budget() {
    let mut cfg = local_cfg();
    cfg.max_elements_per_query = Some(0);
    let server = spawn(cfg);
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client
        .search(&SearchCall::new("main street").tau(0.3))
        .expect("capped search");
    assert_eq!(reply.status, SearchStatus::BudgetExceeded);
    server.shutdown();
}

#[test]
fn connection_quota_exhausts_with_typed_error() {
    let mut cfg = local_cfg();
    cfg.conn_quota = Some(1);
    let server = spawn(cfg);
    let mut client = Client::connect(server.addr()).expect("connect");
    // First search is admitted (budget clamps to the quota remainder);
    // once the quota hits zero, the typed QuotaExhausted error follows.
    let mut saw_exhausted = false;
    for _ in 0..4 {
        match client.search(&SearchCall::new("main street").tau(0.3)) {
            Ok(_partial) => {}
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::QuotaExhausted);
                saw_exhausted = true;
                break;
            }
            Err(other) => panic!("unexpected failure {other}"),
        }
    }
    assert!(saw_exhausted, "quota never tripped");
    // Other verbs are unaffected by the search quota.
    client.ping().expect("ping after quota exhaustion");
    // A fresh connection gets a fresh quota.
    let mut fresh = Client::connect(server.addr()).expect("reconnect");
    fresh
        .search(&SearchCall::new("main street").tau(0.3))
        .expect("fresh quota");
    server.shutdown();
}

#[test]
fn saturation_sheds_with_typed_overloaded_and_no_silent_drops() {
    let mut cfg = local_cfg();
    cfg.max_inflight = 1;
    let server = spawn(cfg);
    let addr = server.addr();
    // Deterministic saturation. Racing fast clients against a small
    // permit count is a scheduler lottery — on a single-core host each
    // client's next arrival lands right after the permit frees, and a
    // run can legitimately shed nothing. Instead one clog connection
    // runs a Scan search whose ~1 MB query text costs a wide window of
    // server-side tokenization, holding the single permit for that
    // whole window; probes are only fired once Stats (which bypasses
    // admission) reports the clog in flight, so they land inside the
    // held window by construction.
    let clog = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("clog connect");
        let big = "main street station ".repeat(50_000);
        client
            .search(&SearchCall::new(big).tau(0.9).algorithm(AlgorithmKind::Scan))
            .expect("clog search completes")
    });
    let mut stats_probe = Client::connect(addr).expect("stats connect");
    while stats_probe
        .stats()
        .expect("stats bypass admission")
        .queue_depth
        == 0
    {
        thread::sleep(Duration::from_millis(1));
    }

    let requests_per_thread = 10u64;
    let threads = 4;
    let ok = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..threads {
        let ok = Arc::clone(&ok);
        let overloaded = Arc::clone(&overloaded);
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            for i in 0..requests_per_thread {
                let text = CORPUS[(t + i as usize) % CORPUS.len()];
                match client.search(&SearchCall::new(text).tau(0.2)) {
                    Ok(_reply) => {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ClientError::Server(e)) => {
                        // Sheds are typed and carry the retry hint.
                        assert_eq!(e.code, ErrorCode::Overloaded);
                        assert!(e.retry_after_ms.is_some());
                        overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("unexpected failure {other}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let clog_reply = clog.join().expect("clog thread");
    assert_eq!(clog_reply.status, SearchStatus::Complete);
    let total = ok.load(Ordering::Relaxed) + overloaded.load(Ordering::Relaxed);
    // Zero silent drops: every request received a typed response.
    assert_eq!(total, threads as u64 * requests_per_thread);
    assert!(
        overloaded.load(Ordering::Relaxed) > 0,
        "probes into the clog's held window must shed"
    );
    // Saturation over, the server serves again.
    stats_probe
        .search(&SearchCall::new("main street").tau(0.3))
        .expect("post-saturation search succeeds");
    let report = server.shutdown();
    assert_eq!(report.shed, overloaded.load(Ordering::Relaxed));
}

#[test]
fn low_load_never_sheds() {
    let mut cfg = local_cfg();
    cfg.max_inflight = 8;
    let server = spawn(cfg);
    let addr = server.addr();
    let mut handles = Vec::new();
    for _ in 0..3 {
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            for text in CORPUS {
                client
                    .search(&SearchCall::new(*text).tau(0.3))
                    .expect("low-load search");
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let report = server.shutdown();
    // 3 concurrent connections can never exceed 8 permits.
    assert_eq!(report.shed, 0);
}

#[test]
fn graceful_drain_loses_no_inflight_accepted_query() {
    let mut cfg = local_cfg();
    cfg.drain_grace = Duration::from_millis(500);
    let server = spawn(cfg);
    let addr = server.addr();
    // Clients issue a burst of queries; shutdown fires mid-burst. Every
    // request sent before the connection observes the drain deadline
    // must still be answered — the kill-during-drain guarantee.
    let worker = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let mut answered = 0u32;
        for text in CORPUS.iter().take(4) {
            let reply = client
                .search(&SearchCall::new(*text).tau(0.3))
                .expect("drain-window search");
            assert!(matches!(
                reply.status,
                SearchStatus::Complete | SearchStatus::BudgetExceeded
            ));
            answered += 1;
        }
        answered
    });
    // Let the first request land, then kill the server while the burst
    // is in flight.
    thread::sleep(Duration::from_millis(10));
    let report = server.shutdown();
    let answered = worker.join().expect("drain worker");
    assert_eq!(answered, 4, "an accepted in-flight query was lost");
    assert!(report.served >= u64::from(answered));
}

#[test]
fn stats_report_sheds_and_draining_flag() {
    let mut cfg = local_cfg();
    cfg.max_inflight = 8;
    let server = spawn(cfg);
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .search(&SearchCall::new("main street").tau(0.5))
        .expect("search");
    let stats = client.stats().expect("stats");
    assert!(!stats.draining);
    assert_eq!(stats.shed, 0);
    assert!(stats.queries >= 1);
    assert_eq!(stats.open_connections, 1);
    assert_eq!(stats.live_records, CORPUS.len() as u64);
    server.shutdown();
}
