//! The traced run: a prefix of the query stream replayed through every
//! rung of the stack — kernel, algorithm, engine, wrapper, codec, socket —
//! by timing calls into each layer's public functions from outside, so
//! that a layer's cost is a subtraction between two adjacent rungs. Each
//! call is wrapped in a span; counts come from the program's own
//! `SearchStats` and pool counters and must repeat exactly.
//!
//! The workload named on the command line picks the rung that is run
//! once more with and without span recording (`trace.overhead_pct`) and
//! split by query class (`class.*`); a paged workload also picks the pool
//! size of the paged rung.

use crate::check::Answer;
use crate::inputs::{Query, CLASSES, DATA_SEED, SHARDS};
use crate::measure::{median, run_passes, timed, Lat, PassPlan, SpanSink, Timing};
use crate::spans::Tracer;
use crate::sut::{
    self, AlgorithmKind, HeapRung, MutableRung, PageProbe, PagedRung, Prepared, Rng, Rung, Scratch,
    SearchStats, Server, ShardRung, SliceRandom, StdRng, WireRung,
};
use crate::workloads::{judge, pool_pages, serve, Ctx, WriteCursor, WARM_UP_ONLY, WRITE_KINDS};
use std::hint::black_box;
use std::path::Path;

/// What a traced run measured.
pub(crate) struct Traced {
    pub(crate) metrics: Vec<(&'static str, f64)>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) spans: usize,
    /// Heap-engine answers for the replayed prefix.
    pub(crate) answers: Vec<Answer>,
}

struct Ladder {
    tracer: Tracer,
    /// The span every rung hangs from.
    root: u32,
    plan: PassPlan,
    metrics: Vec<(&'static str, f64)>,
    /// Per-query medians of the rungs that overheads are taken between.
    rungs: Vec<(&'static str, Lat)>,
    attempted: u64,
    failed: u64,
}

impl Ladder {
    /// Report a rung's median and keep its per-query medians.
    fn set_rung(&mut self, name: &'static str, lat: Lat) {
        self.set(name, lat.p50());
        self.rungs.push((name, lat));
    }

    /// What `top` adds to `bottom`: the median over queries of the
    /// difference between the two rungs' per-query medians. Pairing by
    /// query is steadier than subtracting two medians, which matters for
    /// an overhead of tens of nanoseconds on a ten-microsecond query.
    /// A rung measured on a shorter prefix is paired on that prefix.
    fn overhead(&self, top: &str, bottom: &str) -> f64 {
        let lat = |name: &str| {
            let rung = self.rungs.iter().find(|(n, _)| *n == name);
            rung.map_or(&[][..], |(_, lat)| &lat.per_op_us[..])
        };
        let mut added: Vec<f64> = lat(top)
            .iter()
            .zip(lat(bottom))
            .map(|(t, b)| t - b)
            .collect();
        median(&mut added)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// Run `f` once inside a span; returns its result and its seconds.
    fn staged<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.tracer.open(name, self.root);
        let (timing, out) = timed(f);
        self.tracer.close(span);
        (out, timing.seconds())
    }

    /// One rung: warm-up plus timed passes of `ops` operations, each a
    /// span named `name` under a rung span of the same name.
    fn passes<R>(
        &mut self,
        name: &'static str,
        ops: usize,
        op: impl FnMut(usize) -> (Timing, R),
        check: impl FnMut(usize, usize, R) -> bool,
    ) -> Lat {
        let span = self.tracer.open(name, self.root);
        let sink = SpanSink {
            tracer: &mut self.tracer,
            parent: span,
            name,
        };
        let out = run_passes(ops, self.plan, Some(sink), op, check);
        self.tracer.close(span);
        self.attempted += out.attempted;
        self.failed += out.failed;
        out.lat()
    }

    /// A rung whose operations yield answers, each checked on every pass.
    /// Returns the latencies and the counters summed over the last pass.
    fn answered(
        &mut self,
        name: &'static str,
        expect: Expect<'_>,
        ops: usize,
        op: impl FnMut(usize) -> (Timing, (Answer, SearchStats)),
    ) -> (Lat, SearchStats) {
        let mut last = (0usize, SearchStats::default());
        let lat = self.passes(name, ops, op, |pass, i, (answer, stats)| {
            if pass != last.0 {
                last = (pass, SearchStats::default());
            }
            last.1.merge(&stats);
            match expect {
                Expect::Exactly(reference) => answer == reference[i],
                Expect::Count(reference) => answer.matches == reference[i].matches,
                Expect::Complete => answer != Answer::FAILED,
            }
        });
        (lat, last.1)
    }

    /// Prepared queries through `rung.run`: the layer's search alone.
    fn replay<R: Rung>(
        &mut self,
        name: &'static str,
        rung: &mut R,
        prepared: &[Prepared<R::Query>],
        expect: Expect<'_>,
    ) -> (Lat, SearchStats) {
        self.answered(name, expect, prepared.len(), |i| {
            let (timing, out) = timed(|| rung.run(&prepared[i]));
            (timing, (judge::<R>(&out), stats_of::<R>(&out)))
        })
    }

    /// The named workload's own rung, text in to matches out, once
    /// without and once with span recording.
    fn top<R: Rung>(&mut self, rung: &mut R, stream: &[Query]) {
        let plan = PassPlan {
            min_passes: 2,
            seconds: self.plan.seconds * 4.0,
        };
        let untraced = serve(rung, stream, plan, None);
        let span = self.tracer.open("top", self.root);
        let sink = SpanSink {
            tracer: &mut self.tracer,
            parent: span,
            name: "query",
        };
        let traced = serve(rung, stream, plan, Some(sink));
        self.tracer.close(span);
        for served in [&untraced, &traced] {
            self.attempted += served.passes.attempted;
            self.failed += served.passes.failed;
        }
        let untraced = untraced.passes.lat();
        let (plain, spanned) = (untraced.p50(), traced.passes.lat().p50());
        self.set("trace.overhead_pct", 100.0 * (spanned - plain) / plain);
        let names = [
            "class.selective_p50_us",
            "class.permissive_p50_us",
            "class.dirty_p50_us",
        ];
        for (class, name) in names.into_iter().enumerate() {
            self.set(name, untraced.class_p50(class, CLASSES.len()));
        }
    }
}

/// What a rung's answer to query `i` is held to.
#[derive(Clone, Copy)]
enum Expect<'a> {
    /// The heap engine's SF answer, bit for bit: every engine that serves
    /// the same corpus promises it.
    Exactly(&'a [Answer]),
    /// As many matches as the reference: another algorithm returns the
    /// same records but may sum a score in another order.
    Count(&'a [Answer]),
    /// The corpus differs from the reference's; the search must complete.
    Complete,
}

fn stats_of<R: Rung>(out: &Result<R::Out, String>) -> SearchStats {
    out.as_ref()
        .map_or_else(|_| SearchStats::default(), |o| R::view(o).stats)
}

fn prepare_all<R: Rung>(rung: &R, stream: &[Query]) -> Vec<Prepared<R::Query>> {
    stream
        .iter()
        .map(|q| rung.prepare(&q.text, q.tau, AlgorithmKind::Sf))
        .collect()
}

/// Run the traced ladder for `workload` and write its spans to
/// `trace_file`.
pub(crate) fn run(cx: &Ctx<'_>, workload: &str, trace_file: &Path) -> Result<Traced, String> {
    let stream = &cx.inputs.stream[..cx.scale.trace_queries];
    let mut tracer = Tracer::new();
    let root = tracer.open("run", 0);
    let mut lad = Ladder {
        tracer,
        root,
        plan: PassPlan {
            min_passes: cx.plan.min_passes,
            seconds: cx.scale.rung_seconds,
        },
        metrics: Vec::new(),
        rungs: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    let (collection, s) = lad.staged("setup.collection_build", || {
        sut::build_collection(cx.inputs.corpus.words())
    });
    lad.set("setup.collection_build_s", s);
    let (mut heap, s) = lad.staged("setup.index_build", || HeapRung::build(&collection));
    lad.set("setup.index_build_s", s);
    let reference = serve(&mut heap, stream, WARM_UP_ONLY, None);
    lad.attempted += reference.passes.attempted;
    lad.failed += reference.passes.failed;
    let reference = reference.answers;

    // The mutable engine and its server are built before any rung runs, so
    // that the pristine mutable rung is timed right after the engine rung
    // it is subtracted from.
    let (engine, s) = lad.staged("setup.mutable_build", || {
        sut::build_mutable(cx.inputs.corpus.words(), true)
    });
    lad.set("setup.mutable_build_s", s);
    let engine = engine?;
    let (spawned, s) = lad.staged("setup.server_spawn", || {
        let server = Server::spawn(engine)?;
        let client = server.connect()?;
        Ok::<_, String>((server, client))
    });
    lad.set("setup.server_spawn_ms", s * 1e3);
    let (server, mut client) = spawned?;
    let mut local = MutableRung::new(server.engine());

    heap_rungs(
        &mut lad,
        &mut heap,
        &mut local,
        stream,
        cx.scale.slow_queries,
        &reference,
    );
    if workload == "heap_select" {
        lad.top(&mut heap, stream);
    }

    let (shard, s) = lad.staged("setup.shard_build", || {
        ShardRung::build(&collection, SHARDS)
    });
    lad.set("setup.shard_build_s", s);
    let mut shard = shard?;
    shard_rungs(&mut lad, &mut shard, stream, &reference);
    if workload == "sharded_scatter" {
        lad.top(&mut shard, stream);
    }
    drop(shard);

    serving_rungs(
        &mut lad,
        cx,
        workload,
        stream,
        &reference,
        &mut local,
        &mut client,
    )?;
    drop(client);
    let shed = server.shutdown();
    lad.set("server.shed", shed as f64);
    lad.failed += shed;

    storage_rungs(&mut lad, cx, workload, &heap, stream, &reference)?;
    kernel_rungs(&mut lad);

    for (name, top, bottom) in [
        ("engine.overhead_us", "engine.search_us", "algo.sf_us"),
        (
            "segment.overhead_us",
            "segment.search_us",
            "engine.search_us",
        ),
        (
            "shard.spawn_overhead_us",
            "shard.scatter_us",
            "shard.inline_us",
        ),
        ("paged.overhead_us", "paged.search_us", "engine.search_us"),
    ] {
        lad.set(name, lad.overhead(top, bottom));
    }
    let codec: f64 = ["encode_req", "decode_req", "encode_resp", "decode_resp"]
        .iter()
        .map(|c| lad.get(&format!("api.{c}_us")))
        .sum();
    lad.set(
        "server.socket_overhead_us",
        lad.overhead("server.search_rtt_us", "segment.search_us")
            - lad.get("tokenize.prepare_us")
            - codec,
    );

    lad.tracer.close(lad.root);
    lad.tracer
        .write_jsonl(trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    Ok(Traced {
        metrics: lad.metrics,
        attempted: lad.attempted,
        failed: lad.failed,
        spans: lad.tracer.len(),
        answers: reference,
    })
}

/// Tokenizer, SF on the raw index, the engine and the pristine mutable
/// engine back to back (each is subtracted from the next), then the two
/// slower algorithms and the batch path.
fn heap_rungs(
    lad: &mut Ladder,
    heap: &mut HeapRung<'_>,
    local: &mut MutableRung<'_>,
    stream: &[Query],
    slow_queries: usize,
    reference: &[Answer],
) {
    let lat = lad.passes(
        "tokenize.prepare",
        stream.len(),
        |i| timed(|| heap.prepare(&stream[i].text, stream[i].tau, AlgorithmKind::Sf)),
        |_, _, _| true,
    );
    lad.set("tokenize.prepare_us", lat.p50());

    let prepared = prepare_all(heap, stream);
    let mut scratch = Scratch::default();
    let mut algo_rung = |lad: &mut Ladder, heap: &HeapRung<'_>, algo, span, expect, ops| {
        lad.answered(span, expect, ops, |i| {
            let (timing, done) = timed(|| heap.execute_into(&mut scratch, &prepared[i], algo));
            let view = sut::scratch_view(&scratch);
            let answer = match done {
                Ok(true) => Answer::of(&view),
                _ => Answer::FAILED,
            };
            (timing, (answer, view.stats))
        })
    };
    let exactly = Expect::Exactly(reference);
    let (lat, stats) = algo_rung(
        lad,
        heap,
        AlgorithmKind::Sf,
        "algo.sf",
        exactly,
        stream.len(),
    );
    lad.set_rung("algo.sf_us", lat);
    lad.set("algo.elements_read", stats.elements_read as f64);
    lad.set("algo.elements_skipped", stats.elements_skipped as f64);
    lad.set("algo.candidates_inserted", stats.candidates_inserted as f64);
    lad.set("algo.pruning_pct", stats.pruning_pct());

    let (lat, _) = lad.replay("engine.search", heap, &prepared, exactly);
    lad.set_rung("engine.search_us", lat);
    let (lat, _) = lad.replay(
        "segment.search",
        local,
        &prepare_all(local, stream),
        exactly,
    );
    lad.set_rung("segment.search_us", lat);

    // iNRA and Hybrid take about a millisecond a query here: the short
    // prefix. They return SF's records but may sum a score in another order.
    let count = Expect::Count(reference);
    let (lat, _) = algo_rung(
        lad,
        heap,
        AlgorithmKind::INra,
        "algo.inra",
        count,
        slow_queries,
    );
    lad.set("algo.inra_us", lat.p50());
    let (lat, _) = algo_rung(
        lad,
        heap,
        AlgorithmKind::Hybrid,
        "algo.hybrid",
        count,
        slow_queries,
    );
    lad.set("algo.hybrid_us", lat.p50());

    // The same layer used for throughput instead of latency.
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut rates = Vec::new();
    for _ in 0..5 {
        let (done, s) = lad.staged("engine.batch", || heap.search_batch(&prepared, threads));
        lad.attempted += prepared.len() as u64;
        lad.failed += (prepared.len() - done) as u64;
        rates.push(prepared.len() as f64 / s);
    }
    lad.set("engine.batch_qps", median(&mut rates));
}

/// The sharded index searched inline and through the scatter engine.
fn shard_rungs(lad: &mut Ladder, shard: &mut ShardRung, stream: &[Query], reference: &[Answer]) {
    let prepared = prepare_all(shard, stream);
    let mut scratch = Scratch::default();
    let (lat, _) = lad.answered(
        "shard.inline",
        Expect::Exactly(reference),
        prepared.len(),
        |i| {
            let (timing, out) = timed(|| shard.search_inline(&mut scratch, &prepared[i]));
            (
                timing,
                (judge::<ShardRung>(&out), stats_of::<ShardRung>(&out)),
            )
        },
    );
    lad.set_rung("shard.inline_us", lat);

    let (lat, stats) = lad.replay(
        "shard.scatter",
        shard,
        &prepared,
        Expect::Exactly(reference),
    );
    lad.set_rung("shard.scatter_us", lat);
    let visits = (prepared.len() * shard.num_shards()) as f64;
    let pruned = stats.shards_pruned as f64;
    lad.set("shard.shards_pruned_share", pruned / visits);
    lad.set(
        "shard.surviving_per_query",
        (visits - pruned) / prepared.len() as f64,
    );
}

/// The codec on the stream's own frames, the mutable engine behind its
/// loopback server, and the same engine in process once it has drifted.
fn serving_rungs(
    lad: &mut Ladder,
    cx: &Ctx<'_>,
    workload: &str,
    stream: &[Query],
    reference: &[Answer],
    local: &mut MutableRung<'_>,
    client: &mut WireRung,
) -> Result<(), String> {
    let prepared = prepare_all(local, stream);
    let outcomes = prepared
        .iter()
        .map(|p| local.run(p))
        .collect::<Result<Vec<_>, _>>()?;
    let requests: Vec<_> = stream
        .iter()
        .map(|q| sut::wire_request(&q.text, q.tau))
        .collect();
    let responses: Vec<_> = outcomes.iter().map(sut::wire_response).collect();
    codec_rungs(lad, &requests, &responses);

    let calls = prepare_all(client, stream);
    let (lat, _) = lad.replay(
        "server.search_rtt",
        client,
        &calls,
        Expect::Exactly(reference),
    );
    lad.set_rung("server.search_rtt_us", lat);
    let lat = lad.passes(
        "server.ping",
        stream.len(),
        |_| timed(|| client.ping()),
        |_, _, pong| pong.is_ok(),
    );
    lad.set("server.ping_rtt_us", lat.p50());
    if workload == "wire_loopback" {
        lad.top(client, stream);
    }

    // The writes `mixed_rw` applies before its compaction, timed one by
    // one (a write changes the state, so it cannot be repeated).
    let words: Vec<&str> = cx.inputs.corpus.words().collect();
    let heldout = &words[words.len() - cx.scale.heldout..];
    let mut cursor = WriteCursor::new(words.len());
    let mut by_kind = [Vec::new(), Vec::new(), Vec::new()];
    let span = lad.tracer.open("segment.writes", lad.root);
    for _ in 0..cx.scale.per_class / 2 {
        let (kind, timing, ok) = cursor.apply(local, heldout);
        lad.tracer
            .record(WRITE_KINDS[kind], span, None, timing.start, timing.end);
        by_kind[kind].push(timing.seconds() * 1e6);
        lad.attempted += 1;
        lad.failed += u64::from(!ok);
    }
    lad.tracer.close(span);
    let names = [
        "segment.insert_us",
        "segment.delete_us",
        "segment.upsert_us",
    ];
    for (name, samples) in names.into_iter().zip(&mut by_kind) {
        lad.set(name, median(samples));
    }

    let prepared = prepare_all(local, stream);
    let (lat, stats) = lad.replay("segment.drifted_search", local, &prepared, Expect::Complete);
    lad.set("segment.drifted_search_us", lat.p50());
    lad.set("segment.records_scanned", stats.records_scanned as f64);
    if matches!(workload, "mixed_rw" | "write_compact") {
        lad.top(local, stream);
    }
    let ((), s) = lad.staged("segment.compact", || local.compact());
    lad.set("segment.compact_s", s);
    Ok(())
}

/// `encode_into` / `decode` on the stream's actual frames.
fn codec_rungs(lad: &mut Ladder, requests: &[sut::WireRequest], responses: &[sut::WireResponse]) {
    let mut buf = Vec::new();
    let lat = lad.passes(
        "api.encode_req",
        requests.len(),
        |i| {
            buf.clear();
            timed(|| sut::encode_request(&requests[i], &mut buf))
        },
        |_, _, ()| true,
    );
    lad.set("api.encode_req_us", lat.p50());
    let lat = lad.passes(
        "api.encode_resp",
        responses.len(),
        |i| {
            buf.clear();
            timed(|| sut::encode_response(&responses[i], &mut buf))
        },
        |_, _, ()| true,
    );
    lad.set("api.encode_resp_us", lat.p50());

    let encode = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut frame = Vec::new();
        f(&mut frame);
        frame
    };
    let request_frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode(&|b| sut::encode_request(r, b)))
        .collect();
    let response_frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| encode(&|b| sut::encode_response(r, b)))
        .collect();
    let lat = lad.passes(
        "api.decode_req",
        requests.len(),
        |i| timed(|| sut::decode_request(&request_frames[i])),
        |_, i, decoded| decoded.as_ref() == Some(&requests[i]),
    );
    lad.set("api.decode_req_us", lat.p50());
    let lat = lad.passes(
        "api.decode_resp",
        responses.len(),
        |i| timed(|| sut::decode_response(&response_frames[i])),
        |_, i, decoded| decoded.as_ref() == Some(&responses[i]),
    );
    lad.set("api.decode_resp_us", lat.p50());
    let mut sizes: Vec<f64> = response_frames.iter().map(|f| f.len() as f64).collect();
    lad.set("api.resp_bytes_p50", median(&mut sizes));
}

/// Snapshot save / load / lazy open, the paged engine, and single page
/// faults below it.
fn storage_rungs(
    lad: &mut Ladder,
    cx: &Ctx<'_>,
    workload: &str,
    heap: &HeapRung<'_>,
    stream: &[Query],
    reference: &[Answer],
) -> Result<(), String> {
    let path = cx.tmp.join("ladder.snap");
    let (saved, s) = lad.staged("storage.snapshot_save", || heap.save(&path));
    saved?;
    lad.set("storage.snapshot_save_s", s);
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    lad.set("storage.snapshot_bytes", bytes as f64);
    lad.set(
        "storage.bytes_per_posting",
        bytes as f64 / heap.total_postings() as f64,
    );
    let (loaded, s) = lad.staged("storage.snapshot_load", || HeapRung::open(&path));
    drop(loaded?);
    lad.set("storage.snapshot_load_s", s);

    let pool = pool_pages(&path, workload == "paged_tight")?;
    let (paged, s) = lad.staged("storage.open_paged", || PagedRung::open(&path, pool));
    lad.set("storage.open_paged_s", s);
    let mut paged = paged?;
    // About 3.6 ms a query today: the short prefix.
    let stream = &stream[..cx.scale.slow_queries];
    let prepared = prepare_all(&paged, stream);
    let (lat, stats) = lad.replay(
        "paged.search",
        &mut paged,
        &prepared,
        Expect::Exactly(reference),
    );
    lad.set_rung("paged.search_us", lat);
    let queries = prepared.len() as f64;
    let (hits, misses) = (stats.page_cache_hits as f64, stats.page_cache_misses as f64);
    lad.set(
        "paged.pages_touched_per_query",
        stats.pages_touched as f64 / queries,
    );
    lad.set("paged.pool_misses_per_query", misses / queries);
    lad.set("paged.pool_hit_ratio", hits / (hits + misses));
    if workload.starts_with("paged_") {
        lad.top(&mut paged, stream);
    }
    drop(paged);

    // A seeded sequence of distinct pages through `PagedSnapshot::page`:
    // into an empty pool every access is a miss (file read + CRC), and
    // the same sequence again is all hits (CRC re-verify only).
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let num_pages = PageProbe::open(&path, 1)?.num_pages();
    let mut pages: Vec<u32> = (0..u32::try_from(num_pages).unwrap_or(u32::MAX)).collect();
    pages.shuffle(&mut rng);
    pages.truncate(256);
    let (mut miss_rows, mut hit_rows) = (Vec::new(), Vec::new());
    for _ in 0..lad.plan.min_passes {
        let mut probe = PageProbe::open(&path, pages.len())?;
        for (rows, name) in [
            (&mut miss_rows, "storage.page_miss"),
            (&mut hit_rows, "storage.page_hit"),
        ] {
            let span = lad.tracer.open(name, lad.root);
            let mut row = Vec::with_capacity(pages.len());
            for &page in &pages {
                let (timing, len) = timed(|| probe.page(page));
                lad.tracer
                    .record(name, span, None, timing.start, timing.end);
                row.push(timing.nanos());
                lad.attempted += 1;
                lad.failed += u64::from(len.is_err());
            }
            lad.tracer.close(span);
            rows.push(row);
        }
        // Every first access missed and every second one hit.
        let expected = pages.len() as u64;
        lad.failed += u64::from(probe.pool_counters() != (expected, expected));
    }
    lad.set("storage.page_miss_us", Lat::from_passes(&miss_rows).p50());
    lad.set("storage.page_hit_us", Lat::from_passes(&hit_rows).p50());
    Ok(())
}

/// `n` strictly ascending values with gaps of 1 to `max_gap`.
fn ascending(rng: &mut StdRng, n: usize, max_gap: u32) -> Vec<u32> {
    let mut at = 0u32;
    (0..n)
        .map(|_| {
            at += rng.gen_range(1..=max_gap);
            at
        })
        .collect()
}

/// Fixed seeded arrays through the intersection kernels and the CRC, to
/// be read against the per-element budgets of Ding & König (PAPERS.md).
fn kernel_rungs(lad: &mut Ladder) {
    const REPEATS: usize = 31;
    let mut rng = StdRng::seed_from_u64(DATA_SEED ^ 0x6b65_726e_656c);
    let long = ascending(&mut rng, 65_536, 16);
    let short = ascending(&mut rng, 1_024, 1_024);
    let left = ascending(&mut rng, 16_384, 4);
    let right = ascending(&mut rng, 16_384, 4);
    let block: Vec<u8> = (0..1 << 20).map(|_| rng.gen_range(0..=u8::MAX)).collect();

    let mut kernel = |name: &'static str, per: f64, f: &mut dyn FnMut() -> usize| {
        let mut samples = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let (timing, _) = timed(|| black_box(f()));
            lad.tracer
                .record(name, lad.root, None, timing.start, timing.end);
            samples.push(timing.seconds() * 1e9 / per);
        }
        median(&mut samples)
    };
    let seek = kernel("kernels.gallop_seek", short.len() as f64, &mut || {
        let mut at = 0;
        for &target in &short {
            at = sut::gallop_seek(black_box(&long), at, target);
        }
        at
    });
    let both = (short.len() + long.len()) as f64;
    let gallop = kernel("kernels.intersect_gallop", both, &mut || {
        sut::intersect_gallop(black_box(&short), black_box(&long))
    });
    let both = (left.len() + right.len()) as f64;
    let linear = kernel("kernels.intersect_linear", both, &mut || {
        sut::intersect_linear(black_box(&left), black_box(&right))
    });
    let ns_per_byte = kernel("kernels.crc32", block.len() as f64, &mut || {
        sut::crc32(black_box(&block)) as usize
    });
    lad.set("kernels.gallop_seek_ns", seek);
    lad.set("kernels.intersect_gallop_ns_per_elem", gallop);
    lad.set("kernels.intersect_linear_ns_per_elem", linear);
    lad.set("kernels.crc32_gb_s", 1.0 / ns_per_byte);
}
