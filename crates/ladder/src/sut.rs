//! The adapter: every call the benchmark makes into the program under
//! test goes through this file, and no other file of the crate names a
//! `setsim_*` item. `README.md` lists the public functions used here;
//! they are the entry points that must stay source-compatible until a
//! follow-up benchmark issue re-points this adapter.
//!
//! Nothing here measures: the callers time these calls from outside.

use setsim_collections::{checksum, kernels};
use setsim_core::api::WireMatch;
use setsim_core::{
    engine, CollectionBuilder, DriftBudget, IndexOptions, InvertedIndex, Match, MutableEngine,
    MutableIndex, MutableMatch, MutableOutcome, MutableQuery, MutableSearchRequest, PagedEngine,
    PreparedQuery, QueryEngine, RecordId, SearchCall, SearchOutcome, SearchReply, SearchRequest,
    SearchStatus, ShardedEngine, ShardedIndex,
};
use setsim_datagen::{CorpusConfig, LengthBucket, QueryWorkload};
use setsim_server::{Client, ServerConfig, ServerHandle};
use setsim_storage::PagedSnapshot;
use setsim_tokenize::QGramTokenizer;
use std::path::Path;

pub(crate) use setsim_core::{
    AlgorithmKind, Scratch, SearchStats, SetCollection, WireRequest, WireResponse,
};
pub(crate) use setsim_datagen::Corpus;
/// The workspace's seeded generator, for the benchmark's own orderings
/// and fixed arrays.
pub(crate) use setsim_prng::{Rng, SliceRandom, StdRng};

/// `(record id, score bits)` per match — the engine-independent form of
/// an answer. Heap, sharded and paged engines report global set ids, the
/// mutable engine and the wire report record ids; over a pristine
/// mutable index the two numberings coincide.
pub(crate) type Hits = Vec<(u64, u64)>;

/// The matches of one outcome, still borrowed from the engine's type.
pub(crate) enum Matches<'a> {
    Sets(&'a [Match]),
    Records(&'a [MutableMatch]),
    Wire(&'a [WireMatch]),
}

impl Matches<'_> {
    pub(crate) fn hits(&self) -> Hits {
        match self {
            Matches::Sets(m) => m
                .iter()
                .map(|m| (u64::from(m.id.0), m.score.to_bits()))
                .collect(),
            Matches::Records(m) => m.iter().map(|m| (m.record.0, m.score.to_bits())).collect(),
            Matches::Wire(m) => m.iter().map(|m| (m.record, m.score.to_bits())).collect(),
        }
    }
}

/// What the benchmark reads from an outcome, whichever engine made it.
pub(crate) struct View<'a> {
    /// The query ran to completion (no budget tripped).
    pub(crate) complete: bool,
    pub(crate) matches: Matches<'a>,
    /// Access counters; all zero over the wire, which does not carry them.
    pub(crate) stats: SearchStats,
}

fn view_sets(out: &SearchOutcome) -> View<'_> {
    View {
        complete: out.status.is_complete(),
        matches: Matches::Sets(&out.results),
        stats: out.stats,
    }
}

fn view_records(out: &MutableOutcome) -> View<'_> {
    View {
        complete: out.status.is_complete(),
        matches: Matches::Records(&out.results),
        stats: out.stats,
    }
}

/// A tokenised query plus the request parameters that go with it.
pub(crate) struct Prepared<Q> {
    query: Q,
    tau: f64,
    algo: AlgorithmKind,
}

impl Prepared<PreparedQuery> {
    fn request(&self) -> SearchRequest<'_> {
        SearchRequest::new(&self.query)
            .tau(self.tau)
            .algorithm(self.algo)
    }
}

/// One serving stack: text in (`prepare`), matches out (`run`).
pub(crate) trait Rung {
    type Query;
    type Out;
    fn prepare(&self, text: &str, tau: f64, algo: AlgorithmKind) -> Prepared<Self::Query>;
    fn run(&mut self, p: &Prepared<Self::Query>) -> Result<Self::Out, String>;
    fn view(out: &Self::Out) -> View<'_>;
}

// ---------------------------------------------------------------- inputs

/// The paper's §VIII word-occurrence corpus at the given size.
pub(crate) fn corpus(records: usize, vocab: usize, seed: u64) -> Corpus {
    Corpus::generate(&CorpusConfig {
        num_records: records,
        vocab_size: vocab,
        words_per_record: (1, 4),
        word_len: (3, 18),
        zipf_s: 1.0,
        seed,
    })
}

/// `n` distinct corpus words from one of the paper's gram-count buckets,
/// each perturbed by `edits` character edits.
pub(crate) fn bucket_queries(
    corpus: &Corpus,
    bucket: usize,
    edits: usize,
    n: usize,
    seed: u64,
) -> Vec<String> {
    QueryWorkload::generate(
        corpus.words(),
        LengthBucket::PAPER[bucket],
        3,
        edits,
        n,
        seed,
    )
    .queries()
    .to_vec()
}

/// Tokenise `words` into 3-gram sets, one record per word occurrence.
pub(crate) fn build_collection<'a>(words: impl Iterator<Item = &'a str>) -> SetCollection {
    let mut builder = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    builder.extend(words);
    builder.build()
}

// ------------------------------------------------------------------ heap

/// `QueryEngine` over a heap-resident `InvertedIndex`.
pub(crate) struct HeapRung<'c> {
    engine: QueryEngine<'c>,
}

impl<'c> HeapRung<'c> {
    pub(crate) fn build(collection: &'c SetCollection) -> Self {
        Self {
            engine: QueryEngine::new(InvertedIndex::build(collection, IndexOptions::default())),
        }
    }

    /// `engine::execute_into` on the raw index with the caller's warm
    /// scratch: the algorithm alone, below the engine.
    pub(crate) fn execute_into(
        &self,
        scratch: &mut Scratch,
        p: &Prepared<PreparedQuery>,
        algo: AlgorithmKind,
    ) -> Result<bool, String> {
        let req = p.request().algorithm(algo);
        engine::execute_into(self.engine.index(), scratch, &req)
            .map(SearchStatus::is_complete)
            .map_err(|e| e.to_string())
    }

    /// `QueryEngine::search_batch` over every prepared query; returns
    /// how many completed.
    pub(crate) fn search_batch(&self, ps: &[Prepared<PreparedQuery>], threads: usize) -> usize {
        let reqs: Vec<SearchRequest<'_>> = ps.iter().map(Prepared::request).collect();
        self.engine
            .search_batch(&reqs, threads)
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|o| o.status.is_complete()))
            .count()
    }

    pub(crate) fn save(&self, path: &Path) -> Result<(), String> {
        self.engine.index().save(path).map_err(|e| e.to_string())
    }

    pub(crate) fn total_postings(&self) -> u64 {
        self.engine.index().total_postings()
    }
}

impl HeapRung<'static> {
    /// `QueryEngine::open`: full decode of a snapshot into heap.
    pub(crate) fn open(path: &Path) -> Result<Self, String> {
        QueryEngine::open(path)
            .map(|engine| Self { engine })
            .map_err(|e| e.to_string())
    }
}

impl Rung for HeapRung<'_> {
    type Query = PreparedQuery;
    type Out = SearchOutcome;

    fn prepare(&self, text: &str, tau: f64, algo: AlgorithmKind) -> Prepared<PreparedQuery> {
        Prepared {
            query: self.engine.prepare_query_str(text),
            tau,
            algo,
        }
    }

    fn run(&mut self, p: &Prepared<PreparedQuery>) -> Result<SearchOutcome, String> {
        self.engine.search(p.request()).map_err(|e| e.to_string())
    }

    fn view(out: &SearchOutcome) -> View<'_> {
        view_sets(out)
    }
}

/// The matches left in a scratch by [`HeapRung::execute_into`].
pub(crate) fn scratch_view(scratch: &Scratch) -> View<'_> {
    View {
        complete: scratch.status().is_complete(),
        matches: Matches::Sets(scratch.results()),
        stats: *scratch.stats(),
    }
}

// --------------------------------------------------------------- sharded

/// `ShardedEngine` over a length-banded `ShardedIndex`.
pub(crate) struct ShardRung {
    engine: ShardedEngine,
}

impl ShardRung {
    pub(crate) fn build(collection: &SetCollection, shards: usize) -> Result<Self, String> {
        ShardedIndex::build(collection, shards, IndexOptions::default())
            .map(|index| Self {
                engine: ShardedEngine::new(index),
            })
            .map_err(|e| e.to_string())
    }

    /// `ShardedIndex::search_with_scratch`: the same plan and gather
    /// with the surviving shards searched inline, no threads.
    pub(crate) fn search_inline(
        &self,
        scratch: &mut Scratch,
        p: &Prepared<PreparedQuery>,
    ) -> Result<SearchOutcome, String> {
        self.engine
            .index()
            .search_with_scratch(scratch, &p.request())
            .map_err(|e| e.to_string())
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.engine.index().num_shards()
    }
}

impl Rung for ShardRung {
    type Query = PreparedQuery;
    type Out = SearchOutcome;

    fn prepare(&self, text: &str, tau: f64, algo: AlgorithmKind) -> Prepared<PreparedQuery> {
        Prepared {
            query: self.engine.prepare_query_str(text),
            tau,
            algo,
        }
    }

    fn run(&mut self, p: &Prepared<PreparedQuery>) -> Result<SearchOutcome, String> {
        self.engine.search(&p.request()).map_err(|e| e.to_string())
    }

    fn view(out: &SearchOutcome) -> View<'_> {
        view_sets(out)
    }
}

// ----------------------------------------------------------------- paged

/// `PagedEngine` serving a snapshot through a bounded page pool.
pub(crate) struct PagedRung {
    engine: PagedEngine,
}

impl PagedRung {
    pub(crate) fn open(path: &Path, pool_pages: usize) -> Result<Self, String> {
        QueryEngine::open_paged(path, pool_pages)
            .map(|engine| Self { engine })
            .map_err(|e| e.to_string())
    }
}

impl Rung for PagedRung {
    type Query = PreparedQuery;
    type Out = SearchOutcome;

    fn prepare(&self, text: &str, tau: f64, algo: AlgorithmKind) -> Prepared<PreparedQuery> {
        Prepared {
            query: self.engine.prepare_query_str(text),
            tau,
            algo,
        }
    }

    fn run(&mut self, p: &Prepared<PreparedQuery>) -> Result<SearchOutcome, String> {
        self.engine.search(p.request()).map_err(|e| e.to_string())
    }

    fn view(out: &SearchOutcome) -> View<'_> {
        view_sets(out)
    }
}

/// `PagedSnapshot::page` below the engine: one CRC-verified page fault.
pub(crate) struct PageProbe {
    snapshot: PagedSnapshot,
}

impl PageProbe {
    pub(crate) fn open(path: &Path, pool_pages: usize) -> Result<Self, String> {
        PagedSnapshot::open(path, pool_pages)
            .map(|snapshot| Self { snapshot })
            .map_err(|e| e.to_string())
    }

    pub(crate) fn num_pages(&self) -> u64 {
        self.snapshot.num_pages()
    }

    /// Payload length of page `id`, faulted through the pool.
    pub(crate) fn page(&mut self, id: u32) -> Result<usize, String> {
        self.snapshot
            .page(id)
            .map(<[u8]>::len)
            .map_err(|e| e.to_string())
    }

    /// Cumulative `(hits, misses)` of the page pool.
    pub(crate) fn pool_counters(&self) -> (u64, u64) {
        (self.snapshot.hits(), self.snapshot.misses())
    }
}

// --------------------------------------------------------------- mutable

/// A `MutableEngine` over `words`. With `manual_compaction` the drift
/// budget is disabled, so only an explicit `compact()` rebuilds.
pub(crate) fn build_mutable<'a>(
    words: impl Iterator<Item = &'a str>,
    manual_compaction: bool,
) -> Result<MutableEngine, String> {
    let collection = Box::new(build_collection(words));
    let mut index = MutableIndex::from_collection(collection, IndexOptions::default())
        .map_err(|e| e.to_string())?;
    if manual_compaction {
        index = index.with_budget(DriftBudget {
            max_rel_err: f64::INFINITY,
            max_delta_records: usize::MAX,
        });
    }
    Ok(MutableEngine::new(index))
}

/// A borrowed `MutableEngine`: reads through `search`, writes through
/// `insert` / `delete` / `upsert` / `compact`.
pub(crate) struct MutableRung<'e> {
    engine: &'e MutableEngine,
}

impl<'e> MutableRung<'e> {
    pub(crate) fn new(engine: &'e MutableEngine) -> Self {
        Self { engine }
    }

    pub(crate) fn insert(&self, text: &str) -> u64 {
        self.engine.insert(text).0
    }

    pub(crate) fn delete(&self, id: u64) -> bool {
        self.engine.delete(RecordId(id))
    }

    pub(crate) fn upsert(&self, id: u64, text: &str) -> bool {
        self.engine.upsert(RecordId(id), text)
    }

    pub(crate) fn compact(&self) {
        self.engine.compact();
    }
}

impl Rung for MutableRung<'_> {
    type Query = MutableQuery;
    type Out = MutableOutcome;

    fn prepare(&self, text: &str, tau: f64, algo: AlgorithmKind) -> Prepared<MutableQuery> {
        Prepared {
            query: self.engine.prepare_query_str(text),
            tau,
            algo,
        }
    }

    fn run(&mut self, p: &Prepared<MutableQuery>) -> Result<MutableOutcome, String> {
        let req = MutableSearchRequest::new(&p.query)
            .tau(p.tau)
            .algorithm(p.algo);
        self.engine.search(&req).map_err(|e| e.to_string())
    }

    fn view(out: &MutableOutcome) -> View<'_> {
        view_records(out)
    }
}

// ------------------------------------------------------------------ wire

/// A `setsim-server` on an ephemeral loopback port with the default
/// `ServerConfig` (admission control and timeouts left on).
pub(crate) struct Server {
    handle: ServerHandle,
}

impl Server {
    pub(crate) fn spawn(engine: MutableEngine) -> Result<Self, String> {
        ServerHandle::spawn(engine, ServerConfig::default())
            .map(|handle| Self { handle })
            .map_err(|e| e.to_string())
    }

    pub(crate) fn connect(&self) -> Result<WireRung, String> {
        Client::connect(self.handle.addr())
            .map(|client| WireRung { client })
            .map_err(|e| e.to_string())
    }

    /// The engine being served, for in-process rungs on the same state.
    pub(crate) fn engine(&self) -> &MutableEngine {
        self.handle.engine()
    }

    /// Drain and join every server thread; returns the requests shed.
    pub(crate) fn shutdown(self) -> u64 {
        self.handle.shutdown().shed
    }
}

/// One `Client` connection issuing `SearchCall`s.
pub(crate) struct WireRung {
    client: Client,
}

impl WireRung {
    /// `Client::ping`: socket and frame, no engine.
    pub(crate) fn ping(&mut self) -> Result<(), String> {
        self.client.ping().map_err(|e| e.to_string())
    }
}

fn search_call(text: &str, tau: f64, algo: AlgorithmKind) -> SearchCall {
    SearchCall::new(text).tau(tau).algorithm(algo)
}

impl Rung for WireRung {
    type Query = SearchCall;
    type Out = SearchReply;

    fn prepare(&self, text: &str, tau: f64, algo: AlgorithmKind) -> Prepared<SearchCall> {
        Prepared {
            query: search_call(text, tau, algo),
            tau,
            algo,
        }
    }

    /// A wire `Error` or `Overloaded` reply surfaces as `Err`.
    fn run(&mut self, p: &Prepared<SearchCall>) -> Result<SearchReply, String> {
        self.client.search(&p.query).map_err(|e| e.to_string())
    }

    fn view(out: &SearchReply) -> View<'_> {
        View {
            complete: out.status.is_complete(),
            matches: Matches::Wire(&out.matches),
            stats: SearchStats::default(),
        }
    }
}

/// The request frame a client sends for this query.
pub(crate) fn wire_request(text: &str, tau: f64) -> WireRequest {
    WireRequest::Search(search_call(text, tau, AlgorithmKind::Sf))
}

/// The response frame the server sends for this outcome.
pub(crate) fn wire_response(out: &MutableOutcome) -> WireResponse {
    WireResponse::Search(SearchReply::from_outcome(out))
}

pub(crate) fn encode_request(req: &WireRequest, buf: &mut Vec<u8>) {
    req.encode_into(buf);
}

pub(crate) fn decode_request(buf: &[u8]) -> Option<WireRequest> {
    WireRequest::decode(buf).ok()
}

pub(crate) fn encode_response(resp: &WireResponse, buf: &mut Vec<u8>) {
    resp.encode_into(buf);
}

pub(crate) fn decode_response(buf: &[u8]) -> Option<WireResponse> {
    WireResponse::decode(buf).ok()
}

// --------------------------------------------------------------- kernels

/// Index of the first element `>= target` at or after `from`.
pub(crate) fn gallop_seek(xs: &[u32], from: usize, target: u32) -> usize {
    kernels::gallop_seek_by(xs, from, |&x| x < target).0
}

pub(crate) fn intersect_gallop(a: &[u32], b: &[u32]) -> usize {
    kernels::intersect_sorted_gallop(a, b).len()
}

pub(crate) fn intersect_linear(a: &[u32], b: &[u32]) -> usize {
    kernels::intersect_sorted_linear(a, b).len()
}

pub(crate) fn crc32(data: &[u8]) -> u32 {
    checksum::crc32(data)
}
