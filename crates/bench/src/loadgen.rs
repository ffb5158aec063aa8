//! Concurrent load generator for the serving tier (`setsim-bench
//! loadgen`).
//!
//! Starts an in-process [`setsim_server::ServerHandle`] on an ephemeral
//! port over a seeded corpus, then drives it over real TCP with `R`
//! reader threads (similarity selections through the typed protocol
//! client) and `W` writer threads (insert/upsert/delete mutations)
//! concurrently. Every reader sample is one client-observed round-trip,
//! so the reduced [`LatencySection`] carries tail percentiles
//! (p50/p95/p99) — the serving-tier signal the offline harness cannot
//! produce. The outcome folds into the versioned [`BenchReport`] schema
//! so `bench-diff` and CI read loadgen runs with the same tooling as
//! harness runs.
//!
//! Shedding is part of the contract, not an error: a request refused by
//! admission control arrives back as a typed `Overloaded` response and
//! is counted separately from transport failures. The CI `serving` job
//! asserts zero shed at low load and nonzero shed (with zero transport
//! errors) at saturation. Saturation is made deterministic by *clog*
//! connections ([`LoadgenConfig::clog`]) rather than by racing fast
//! requests against a small permit count, which is a scheduler lottery —
//! and a clogged run waits for its first shed (up to
//! [`SATURATION_DEADLINE`]) before it stops the clogs, so saturation is
//! a condition the run reaches, not a race against the readers finishing.

use crate::report::{
    AlgoReport, BenchReport, CounterSection, EnvFingerprint, LatencySection, WorkloadReport,
    SCHEMA_VERSION,
};
use crate::Scale;
use setsim_core::{
    AlgorithmKind, ErrorCode, IndexOptions, MutableEngine, MutableIndex, RecordId, SearchCall,
    WireStats,
};
use setsim_datagen::LengthBucket;
use setsim_server::{Client, ClientError, DrainReport, ServerConfig, ServerHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long a clogged run whose readers and writers finished without a
/// single shed keeps its clog connections running, waiting for one.
pub const SATURATION_DEADLINE: Duration = Duration::from_secs(30);

/// Parameters of one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Corpus scale served by the in-process server.
    pub scale: Scale,
    /// Master seed for corpus and query workload generation.
    pub seed: u64,
    /// Concurrent reader (search) connections.
    pub readers: usize,
    /// Concurrent writer (mutation) connections.
    pub writers: usize,
    /// Search requests issued per reader.
    pub requests: usize,
    /// Mutations issued per writer.
    pub mutations: usize,
    /// Selection threshold for the reader queries.
    pub tau: f64,
    /// Server admission-control permit count; saturate by setting this
    /// below the reader count.
    pub inflight: usize,
    /// Connections dedicated to *clog* searches: Scan queries whose text
    /// alone costs hundreds of milliseconds to tokenize server-side, so
    /// each one holds an admission permit for a wide window. With
    /// `clog >= 2` and `inflight = 1`, shedding is guaranteed — the
    /// clogs refuse each other — instead of a scheduler race between
    /// fast requests (which on a single-core host can produce zero
    /// sheds, because a client's next arrival anti-correlates with the
    /// held window).
    pub clog: usize,
    /// Report label (`BENCH_<label>.json`).
    pub label: String,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 42,
            readers: 4,
            writers: 1,
            requests: 50,
            mutations: 20,
            tau: 0.8,
            inflight: 8,
            clog: 0,
            label: "loadgen".to_string(),
        }
    }
}

/// What one loadgen run observed, beyond the report itself.
#[derive(Debug, Clone)]
pub struct LoadgenOutcome {
    /// The run folded into the versioned report schema (one workload,
    /// one algo entry, tail percentiles populated).
    pub report: BenchReport,
    /// Search requests answered with results.
    pub ok: u64,
    /// Search/mutation requests refused with a typed `Overloaded`.
    pub overloaded: u64,
    /// Transport-level failures (broken connection, decode error) — the
    /// saturation contract requires these stay zero.
    pub transport_errors: u64,
    /// Mutations acknowledged by the server.
    pub mutations_applied: u64,
    /// Server-side counters sampled just before shutdown.
    pub server: WireStats,
    /// What the graceful drain reported.
    pub drain: DrainReport,
}

struct ReaderResult {
    samples: Vec<f64>,
    ok: u64,
    overloaded: u64,
    transport_errors: u64,
    matches: u64,
}

struct WriterResult {
    applied: u64,
    overloaded: u64,
    transport_errors: u64,
}

/// Run the load: spawn the server, drive it, drain it, fold the report.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenOutcome, String> {
    let (corpus, collection) = crate::word_collection_seeded(cfg.scale, cfg.seed);
    let index = MutableIndex::from_collection(Box::new(collection), IndexOptions::default())
        .map_err(|e| e.to_string())?;
    let engine = MutableEngine::new(index);

    let mut scfg = ServerConfig::default();
    scfg.addr = "127.0.0.1:0".to_string();
    scfg.max_inflight = cfg.inflight.max(1);
    let handle = ServerHandle::spawn(engine, scfg).map_err(|e| e.to_string())?;
    let addr = handle.addr();

    // The paper's query workload: perturbed words drawn from the served
    // corpus, so selections do real index work rather than missing.
    let requests = cfg.requests.max(1);
    let wl = crate::workload(
        &corpus,
        LengthBucket::PAPER[2],
        1,
        requests,
        cfg.seed ^ 0x6c6f_6164,
    );
    let queries: Vec<String> = wl.queries().to_vec();

    let stop_clogs = Arc::new(AtomicBool::new(false));
    // One slot is enough: the run only asks whether *a* clog was shed.
    let (shed_tx, shed_rx) = mpsc::sync_channel::<()>(1);
    let clogs: Vec<_> = (0..cfg.clog)
        .map(|t| {
            let stop = Arc::clone(&stop_clogs);
            let shed = shed_tx.clone();
            let tau = cfg.tau;
            std::thread::Builder::new()
                .name(format!("loadgen-clog-{t}"))
                .spawn(move || clog_loop(addr, &stop, &shed, tau))
                .expect("spawn clog")
        })
        .collect();
    // Only the clogs hold senders now: if they all exit early the wait
    // below ends at once instead of running to the deadline.
    drop(shed_tx);
    let readers: Vec<_> = (0..cfg.readers.max(1))
        .map(|t| {
            let queries = queries.clone();
            let tau = cfg.tau;
            std::thread::Builder::new()
                .name(format!("loadgen-reader-{t}"))
                .spawn(move || reader_loop(addr, &queries, tau, t, requests))
                .expect("spawn reader")
        })
        .collect();
    let writers: Vec<_> = (0..cfg.writers)
        .map(|t| {
            let mutations = cfg.mutations;
            std::thread::Builder::new()
                .name(format!("loadgen-writer-{t}"))
                .spawn(move || writer_loop(addr, t, mutations))
                .expect("spawn writer")
        })
        .collect();

    let mut samples = Vec::new();
    let (mut ok, mut overloaded, mut transport, mut matches) = (0u64, 0u64, 0u64, 0u64);
    for r in readers {
        let r = r.join().map_err(|_| "reader thread panicked".to_string())?;
        samples.extend(r.samples);
        ok += r.ok;
        overloaded += r.overloaded;
        transport += r.transport_errors;
        matches += r.matches;
    }
    let mut applied = 0u64;
    for w in writers {
        let w = w.join().map_err(|_| "writer thread panicked".to_string())?;
        applied += w.applied;
        overloaded += w.overloaded;
        transport += w.transport_errors;
    }
    if overloaded == 0 {
        // The readers can finish before two clog requests ever overlap.
        // The clogs keep refusing each other for as long as they run, so
        // hold them until one reports a shed (no clogs: returns at once).
        let _shed_or_deadline = shed_rx.recv_timeout(SATURATION_DEADLINE);
    }
    stop_clogs.store(true, Ordering::Release);
    for c in clogs {
        let c = c.join().map_err(|_| "clog thread panicked".to_string())?;
        samples.extend(c.samples);
        ok += c.ok;
        overloaded += c.overloaded;
        transport += c.transport_errors;
        matches += c.matches;
    }

    let server = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("final stats probe: {e}"))?;
    let drain = handle.shutdown();

    if samples.is_empty() {
        return Err("no search request succeeded; nothing to report".to_string());
    }
    let latency = LatencySection::from_request_samples_ms(&samples);
    // The Stats frame carries five of the access counters; the rest read
    // zero (the serving tier fronts a single unsharded, unpaged index).
    let counters = CounterSection::from_stats(&server.totals, ok, matches);
    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        label: cfg.label.clone(),
        scale: Scale::name(cfg.scale).to_string(),
        seed: cfg.seed,
        warmup: 0,
        reps: 1,
        env: EnvFingerprint::capture(),
        workloads: vec![WorkloadReport {
            label: format!(
                "loadgen tau={} {}r+{}w+{}c inflight={}",
                cfg.tau,
                cfg.readers.max(1),
                cfg.writers,
                cfg.clog,
                cfg.inflight.max(1)
            ),
            tau: cfg.tau,
            queries: ok,
            algos: vec![AlgoReport {
                name: "SF-remote".to_string(),
                counters,
                latency,
            }],
        }],
    };
    Ok(LoadgenOutcome {
        report,
        ok,
        overloaded,
        transport_errors: transport,
        mutations_applied: applied,
        server,
        drain,
    })
}

fn reader_loop(
    addr: std::net::SocketAddr,
    queries: &[String],
    tau: f64,
    thread: usize,
    requests: usize,
) -> ReaderResult {
    let mut out = ReaderResult {
        samples: Vec::with_capacity(requests),
        ok: 0,
        overloaded: 0,
        transport_errors: 0,
        matches: 0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        out.transport_errors += 1;
        return out;
    };
    for i in 0..requests {
        // Stride by a prime so concurrent readers don't march through
        // the workload in lockstep.
        let text = &queries[(thread + i * 7) % queries.len()];
        let call = SearchCall::new(text.clone())
            .tau(tau)
            .algorithm(AlgorithmKind::Sf);
        let start = Instant::now();
        match client.search(&call) {
            Ok(reply) => {
                out.samples.push(start.elapsed().as_secs_f64() * 1e3);
                out.ok += 1;
                out.matches += reply.matches.len() as u64;
            }
            Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {
                out.overloaded += 1;
                // Honor the server's retry hint, capped so a saturation
                // run still finishes quickly.
                let wait = e.retry_after_ms.unwrap_or(1).min(5);
                std::thread::sleep(Duration::from_millis(wait));
            }
            Err(ClientError::Server(_)) => out.transport_errors += 1,
            Err(_) => {
                out.transport_errors += 1;
                return out;
            }
        }
    }
    out
}

/// One clog connection: repeat a Scan search whose ~1 MB query text
/// costs a wide window of server-side tokenization per request, each
/// holding an admission permit for that whole window. Round trips are
/// real successful searches, so they feed the same tallies as reader
/// requests (their latencies are the overload tail, which is the
/// point of a saturation run).
fn clog_loop(
    addr: std::net::SocketAddr,
    stop: &AtomicBool,
    shed: &mpsc::SyncSender<()>,
    tau: f64,
) -> ReaderResult {
    let mut out = ReaderResult {
        samples: Vec::new(),
        ok: 0,
        overloaded: 0,
        transport_errors: 0,
        matches: 0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        out.transport_errors += 1;
        return out;
    };
    let text = "loadgen clog permit holder ".repeat(40_000);
    while !stop.load(Ordering::Acquire) {
        let call = SearchCall::new(text.clone())
            .tau(tau.max(0.9))
            .algorithm(AlgorithmKind::Scan);
        let start = Instant::now();
        match client.search(&call) {
            Ok(reply) => {
                out.samples.push(start.elapsed().as_secs_f64() * 1e3);
                out.ok += 1;
                out.matches += reply.matches.len() as u64;
            }
            Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {
                out.overloaded += 1;
                // Full slot or a run that already moved on: both fine.
                let _already_signalled = shed.try_send(());
                let wait = e.retry_after_ms.unwrap_or(1).min(5);
                std::thread::sleep(Duration::from_millis(wait));
            }
            Err(ClientError::Server(_)) => out.transport_errors += 1,
            Err(_) => {
                out.transport_errors += 1;
                return out;
            }
        }
    }
    out
}

fn writer_loop(addr: std::net::SocketAddr, thread: usize, mutations: usize) -> WriterResult {
    let mut out = WriterResult {
        applied: 0,
        overloaded: 0,
        transport_errors: 0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        out.transport_errors += 1;
        return out;
    };
    let mut last: Option<RecordId> = None;
    for i in 0..mutations {
        // Rotate insert → upsert → delete so the delta segment sees all
        // three mutation kinds while readers are in flight.
        let res = match (i % 3, last) {
            (1, Some(id)) => client
                .upsert(id, &format!("loadgen w{thread} u{i}"))
                .map(|_| ()),
            (2, Some(id)) => {
                last = None;
                client.delete(id).map(|_| ())
            }
            _ => client.insert(&format!("loadgen w{thread} i{i}")).map(|id| {
                last = Some(id);
            }),
        };
        match res {
            Ok(()) => out.applied += 1,
            Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {
                out.overloaded += 1;
                let wait = e.retry_after_ms.unwrap_or(1).min(5);
                std::thread::sleep(Duration::from_millis(wait));
            }
            Err(ClientError::Server(_)) => out.transport_errors += 1,
            Err(_) => {
                out.transport_errors += 1;
                return out;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_load_run_sheds_nothing_and_reports_tails() {
        let cfg = LoadgenConfig {
            readers: 2,
            writers: 1,
            requests: 5,
            mutations: 3,
            inflight: 8,
            label: "loadgen-test".to_string(),
            ..LoadgenConfig::default()
        };
        let out = run(&cfg).expect("loadgen run");
        assert_eq!(out.ok, 10, "every search answered");
        assert_eq!(out.overloaded, 0, "no shedding below the permit count");
        assert_eq!(out.transport_errors, 0);
        assert_eq!(out.mutations_applied, 3);
        assert_eq!(out.server.shed, 0);
        assert_eq!(out.drain.shed, 0);
        let algo = &out.report.workloads[0].algos[0];
        let tail = algo.latency.tail.expect("loadgen keeps tail percentiles");
        assert!(tail.p50_ms <= tail.p95_ms && tail.p95_ms <= tail.p99_ms);
        // The folded report round-trips through the shared schema.
        let text = out.report.to_json_string();
        let back = BenchReport::parse(&text).expect("parse loadgen report");
        assert_eq!(back, out.report);
    }

    #[test]
    fn clogged_run_sheds_typed_refusals_only() {
        let cfg = LoadgenConfig {
            readers: 2,
            writers: 0,
            requests: 5,
            inflight: 1,
            clog: 2,
            label: "loadgen-sat".to_string(),
            ..LoadgenConfig::default()
        };
        let out = run(&cfg).expect("clogged run");
        // Two clogs against one permit refuse each other, and the run
        // holds them until one has: shedding is guaranteed, not a
        // scheduling race.
        assert!(out.overloaded > 0, "clogged run must shed");
        assert_eq!(out.transport_errors, 0, "sheds are typed, never drops");
        assert_eq!(
            out.drain.shed, out.overloaded,
            "every shed was a typed refusal some client observed"
        );
        assert!(out.ok > 0, "admitted work still completes under overload");
    }
}
