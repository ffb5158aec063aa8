//! The serving layer: a persistent query engine over the selection
//! algorithms.
//!
//! The paper's algorithms (Sections III–VII) are pure pruning logic; this
//! module supplies the serving-loop machinery a production deployment
//! needs around them:
//!
//! * **[`QueryEngine`]** — owns the index plus reusable per-worker
//!   [`Scratch`] state, so steady-state queries allocate nothing on the
//!   hot path (iNRA/SF/Hybrid are fully allocation-free on a warm
//!   scratch).
//! * **[`SearchRequest`]** — the one public entry point: a builder pairing
//!   a prepared query with a threshold, an [`AlgorithmKind`], an
//!   [`AlgoConfig`] ablation toggle, and a [`Budget`].
//! * **Work-stealing batches** — [`QueryEngine::search_batch`] drains a
//!   request slice through a shared atomic cursor, so one expensive query
//!   never idles a worker's whole chunk.
//! * **[`EngineMetrics`]** — latency histograms (p50/p95/p99) and
//!   aggregated pruning power, printed by `setsim-cli bench`.
//!
//! Errors are typed ([`SearchError`]) — an out-of-range `tau` is a value,
//! never a panic — and budget-exceeded queries return an exact-but-partial
//! [`SearchOutcome`] tagged [`SearchStatus::BudgetExceeded`].

// Runs while a guard is held, where a panic poisons the lock (or strands
// a pool frame) for every other thread (DESIGN.md §13).
#![deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)]

// why: the deny above governs this file's guard-holding code; the
// submodules index against lengths they computed themselves.
#[allow(clippy::indexing_slicing, clippy::integer_division_remainder_used)]
mod budget;
#[allow(clippy::indexing_slicing, clippy::integer_division_remainder_used)]
mod metrics;
#[allow(clippy::indexing_slicing, clippy::integer_division_remainder_used)]
mod paged;
#[allow(clippy::indexing_slicing, clippy::integer_division_remainder_used)]
mod pool;
#[allow(clippy::indexing_slicing, clippy::integer_division_remainder_used)]
mod scratch;

pub(crate) use budget::ArmedBudget;
pub use budget::Budget;
pub use metrics::{EngineMetrics, MetricsSnapshot};
pub use paged::PagedEngine;
pub(crate) use pool::{steal, ScratchPool};
pub use scratch::Scratch;
pub(crate) use scratch::{CandCell, DetHashMap, PoolCand, SfCand};

use crate::algorithms::{hybrid, inra, ita, merge, nra, scan, sf, ta, MAX_QUERY_LISTS};
use crate::index::QueryLists;
use crate::{
    AlgoConfig, InvertedIndex, Match, PreparedQuery, SearchOutcome, SearchStats, SearchStatus,
    SnapshotError, Tau,
};
use setsim_tokenize::Token;
use std::fmt;

/// Everything a selection algorithm needs for one query: the index, the
/// prepared query and (validated) threshold, the armed [`Budget`], and the
/// borrowed [`Scratch`]. Built by `run_search` only.
pub(crate) struct SearchCtx<'a, 'i> {
    pub(crate) index: &'a InvertedIndex<'i>,
    pub(crate) query: &'a PreparedQuery,
    pub(crate) tau: f64,
    pub(crate) budget: ArmedBudget,
    pub(crate) scratch: &'a mut Scratch,
}

/// The eight selection strategies, as data. The engine dispatches on this
/// (plus an [`AlgoConfig`]) instead of callers juggling algorithm structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AlgorithmKind {
    /// Exhaustive base-table scan (the correctness oracle).
    Scan,
    /// Sort-by-id multiway merge (Section III-B baseline).
    Merge,
    /// Classic Threshold Algorithm.
    Ta,
    /// Classic No-Random-Access algorithm (Algorithm 1).
    Nra,
    /// Improved TA (Section V).
    ITa,
    /// Improved NRA (Algorithm 2).
    INra,
    /// Shortest-First (Algorithm 3) — the default.
    Sf,
    /// Hybrid (Algorithm 4).
    Hybrid,
}

impl AlgorithmKind {
    /// Every kind, index-list algorithms ordered as in the paper.
    pub const ALL: [AlgorithmKind; 8] = [
        AlgorithmKind::Scan,
        AlgorithmKind::Merge,
        AlgorithmKind::Ta,
        AlgorithmKind::Nra,
        AlgorithmKind::ITa,
        AlgorithmKind::INra,
        AlgorithmKind::Sf,
        AlgorithmKind::Hybrid,
    ];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Scan => "scan",
            AlgorithmKind::Merge => "sort-by-id",
            AlgorithmKind::Ta => "TA",
            AlgorithmKind::Nra => "NRA",
            AlgorithmKind::ITa => "iTA",
            AlgorithmKind::INra => "iNRA",
            AlgorithmKind::Sf => "SF",
            AlgorithmKind::Hybrid => "Hybrid",
        }
    }

    /// Parse a user-facing name (CLI flags). Case-insensitive; accepts
    /// both the paper names and the CLI short forms (`merge` for the
    /// sort-by-id baseline).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scan" | "fullscan" => Some(AlgorithmKind::Scan),
            "merge" | "sort-by-id" => Some(AlgorithmKind::Merge),
            "ta" => Some(AlgorithmKind::Ta),
            "nra" => Some(AlgorithmKind::Nra),
            "ita" => Some(AlgorithmKind::ITa),
            "inra" => Some(AlgorithmKind::INra),
            "sf" => Some(AlgorithmKind::Sf),
            "hybrid" => Some(AlgorithmKind::Hybrid),
            _ => None,
        }
    }

    /// True for kinds whose bookkeeping uses per-list bitsets and is
    /// therefore capped at [`MAX_QUERY_LISTS`] query lists.
    #[must_use]
    pub fn width_limited(self) -> bool {
        matches!(
            self,
            AlgorithmKind::Nra | AlgorithmKind::INra | AlgorithmKind::Hybrid
        )
    }

    /// True for kinds that probe lists by id (TA, iTA): each run list
    /// must carry its extendible-hash index
    /// ([`IndexOptions::build_hash_indexes`](crate::IndexOptions)).
    pub(crate) fn reads_hash_indexes(self) -> bool {
        matches!(self, AlgorithmKind::Ta | AlgorithmKind::ITa)
    }

    /// True for the kind that enumerates lists in id order (sort-by-id
    /// merge): each non-bitmap list must carry its id-sorted copy
    /// ([`IndexOptions::build_id_sorted_lists`](crate::IndexOptions)).
    pub(crate) fn reads_id_sorted_lists(self) -> bool {
        matches!(self, AlgorithmKind::Merge)
    }
}

/// Why a request failed: rejected before any search work ran, or — on
/// the paged engine — a page fault or window decode that failed
/// mid-query.
#[derive(Debug)]
#[non_exhaustive]
pub enum SearchError {
    /// The threshold is outside `(0, 1]` (or not finite). The IDF score is
    /// normalized to `[0, 1]`, so such a threshold is meaningless.
    InvalidTau(f64),
    /// The query has more lists than the requested algorithm's candidate
    /// bitsets support.
    QueryTooWide {
        /// Lists in the prepared query.
        lists: usize,
        /// The supported maximum ([`MAX_QUERY_LISTS`]).
        max: usize,
    },
    /// A query list lacks a structure the requested algorithm reads: the
    /// index was built, or saved, with `with_id_sorted_lists(false)`
    /// (sort-by-id) or `with_hash_indexes(false)` (TA, iTA).
    Unsupported {
        /// The requested algorithm.
        algorithm: AlgorithmKind,
        /// The missing structure.
        missing: &'static str,
    },
    /// The prepared query carries a token the index has no list for: it
    /// was prepared against a different index. Re-prepare it with the
    /// serving engine's `prepare_query_str`.
    ForeignQuery {
        /// The token with no list.
        token: Token,
    },
    /// The threshold is below the `τ_min` a prefix filter was built for:
    /// its prefixes were cut for `τ_min`, so a lower `τ` could lose
    /// results.
    BelowTauMin {
        /// The requested threshold.
        tau: f64,
        /// The filter's minimum supported threshold.
        tau_min: f64,
    },
    /// A page fault or window decode failed (a damaged page, a file that
    /// shrank underneath the reader, a window decoding to inconsistent
    /// postings); the query produced nothing. Only [`PagedEngine`] reads
    /// pages while it searches.
    Snapshot(SnapshotError),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::InvalidTau(tau) => {
                write!(f, "threshold must lie in (0, 1], got {tau}")
            }
            SearchError::QueryTooWide { lists, max } => {
                write!(f, "query has {lists} lists; maximum supported is {max}")
            }
            SearchError::Unsupported { algorithm, missing } => write!(
                f,
                "{} needs {missing}, which this index was built without",
                algorithm.name()
            ),
            SearchError::ForeignQuery { token } => write!(
                f,
                "prepared-query token {} has no list in this index; the query was \
                 prepared against a different index",
                token.0
            ),
            SearchError::BelowTauMin { tau, tau_min } => {
                write!(f, "filter built for tau >= {tau_min}, asked for {tau}")
            }
            SearchError::Snapshot(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for SearchError {
    fn from(e: SnapshotError) -> Self {
        SearchError::Snapshot(e)
    }
}

/// [`SearchError::QueryTooWide`] if `query` has more lists than the
/// per-candidate bitsets of the width-limited algorithms (and NRA top-k)
/// hold.
pub(crate) fn check_query_width(query: &PreparedQuery) -> Result<(), SearchError> {
    if query.num_lists() > MAX_QUERY_LISTS {
        return Err(SearchError::QueryTooWide {
            lists: query.num_lists(),
            max: MAX_QUERY_LISTS,
        });
    }
    Ok(())
}

/// One selection query, fully specified: the single public entry point of
/// every engine. Build with [`SearchRequest::new`] plus the setters; the
/// struct is `#[non_exhaustive]` so future knobs are non-breaking.
///
/// `Q` is the prepared query the engine reads: a [`PreparedQuery`] for the
/// heap, sharded and paged engines, a [`MutableQuery`](crate::MutableQuery)
/// for the mutable index.
/// There, budgets truncate *candidates*, never scores: a record that
/// survives a budget-limited base pass still receives its exact live score
/// in the re-scoring phase, so a tripped budget yields an exact **subset**
/// of the answer (reported as [`SearchStatus::BudgetExceeded`]), never an
/// approximate score — the property the serving tier's deadline
/// propagation relies on.
#[derive(Debug)]
#[non_exhaustive]
pub struct SearchRequest<'q, Q = PreparedQuery> {
    /// The prepared query.
    pub query: &'q Q,
    /// Selection threshold in `(0, 1]` (validated at execution).
    pub tau: f64,
    /// Which algorithm runs the selection (the base-segment candidate
    /// pass, on the mutable index).
    pub algorithm: AlgorithmKind,
    /// Property-ablation toggles for the algorithms that take them.
    pub config: AlgoConfig,
    /// Per-query work limit.
    pub budget: Budget,
}

// Manual impls: the derives would demand `Q: Clone`/`Q: Copy`, but the
// request only borrows its query.
impl<Q> Clone for SearchRequest<'_, Q> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<Q> Copy for SearchRequest<'_, Q> {}

impl<'q, Q> SearchRequest<'q, Q> {
    /// A request with the defaults: `τ = 0.7`, SF (the paper's
    /// best-overall algorithm), full property config, no budget.
    #[must_use]
    pub fn new(query: &'q Q) -> Self {
        Self {
            query,
            tau: 0.7,
            algorithm: AlgorithmKind::Sf,
            config: AlgoConfig::full(),
            budget: Budget::unlimited(),
        }
    }

    /// Set the selection threshold.
    #[must_use]
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Set the algorithm.
    #[must_use]
    pub fn algorithm(mut self, kind: AlgorithmKind) -> Self {
        self.algorithm = kind;
        self
    }

    /// Set the property-ablation config.
    #[must_use]
    pub fn config(mut self, config: AlgoConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the per-query budget.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The same request over another prepared query: how the sharded and
    /// mutable engines hand a request on to the index they run it against.
    pub(crate) fn with_query<'p, P>(&self, query: &'p P) -> SearchRequest<'p, P> {
        SearchRequest {
            query,
            tau: self.tau,
            algorithm: self.algorithm,
            config: self.config,
            budget: self.budget,
        }
    }
}

impl SearchRequest<'_> {
    /// The checks that need no index — τ in `(0, 1]`, and no more lists
    /// than a width-limited algorithm's bitsets hold — made by every
    /// engine before it touches a list, so all refuse the same requests.
    pub(crate) fn validate(&self) -> Result<Tau, SearchError> {
        let tau = Tau::try_from(self.tau)?;
        if self.algorithm.width_limited() {
            check_query_width(self.query)?;
        }
        Ok(tau)
    }
}

/// Borrowed view of a finished query's results, valid until the scratch's
/// next search. The zero-allocation read path: nothing is copied out.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct SearchView<'s> {
    /// All sets with score ≥ τ (order unspecified).
    pub results: &'s [Match],
    /// Access counters for this query.
    pub stats: &'s SearchStats,
    /// Whether the query ran to completion.
    pub status: SearchStatus,
}

/// Validate and run one request against caller-provided scratch, leaving
/// results, stats, and status readable through the scratch accessors.
/// The allocation-free core every engine entry point shares, and — with
/// [`execute`] — the only way to run a selection.
pub fn execute_into(
    index: &InvertedIndex<'_>,
    scratch: &mut Scratch,
    req: &SearchRequest<'_>,
) -> Result<SearchStatus, SearchError> {
    let tau = req.validate()?;
    // Every algorithm reads each query token's list: check once that
    // they all exist, and hold what the requested algorithm needs.
    for qt in &req.query.tokens {
        let Some(list) = index.list(qt.token) else {
            return Err(SearchError::ForeignQuery { token: qt.token });
        };
        let missing = if req.algorithm.reads_id_sorted_lists() && list.id_postings().is_none() {
            "id-sorted lists"
        } else if req.algorithm.reads_hash_indexes() && !list.supports_random_access() {
            "hash indexes"
        } else {
            continue;
        };
        let algorithm = req.algorithm;
        return Err(SearchError::Unsupported { algorithm, missing });
    }
    run_search(index, scratch, req, tau, |ctx| {
        match req.algorithm {
            AlgorithmKind::Scan => scan::search(ctx),
            AlgorithmKind::Merge => merge::search(ctx),
            AlgorithmKind::Ta => ta::search(ctx),
            AlgorithmKind::Nra => nra::search(ctx),
            AlgorithmKind::ITa => ita::search(ctx, req.config),
            AlgorithmKind::INra => inra::search(ctx, req.config),
            AlgorithmKind::Sf => sf::search(ctx, req.config)?,
            AlgorithmKind::Hybrid => hybrid::search(ctx, req.config),
        }
        Ok(())
    })
}

/// SF over `lists` rather than over `index`'s own: the paged engine's
/// window runs, which decode blocks as SF reaches them. `index` supplies
/// the collection and lengths; the request is already validated (`tau`)
/// and each list resolved by the caller.
pub(crate) fn execute_sf_into<L: QueryLists>(
    index: &InvertedIndex<'_>,
    scratch: &mut Scratch,
    req: &SearchRequest<'_>,
    tau: Tau,
    lists: &mut L,
) -> Result<SearchStatus, SearchError> {
    run_search(index, scratch, req, tau, |ctx| {
        sf::search_lists(ctx, req.config, lists)
    })
}

/// Scan over `index`'s base table, reporting `total_list_elements` as the
/// caller counted it: the paged engine's Scan, which needs the windows'
/// directory counts and no posting. The request is already validated
/// (`tau`) and each list resolved by the caller.
pub(crate) fn execute_scan_into(
    index: &InvertedIndex<'_>,
    scratch: &mut Scratch,
    req: &SearchRequest<'_>,
    tau: Tau,
    total_list_elements: u64,
) -> Result<SearchStatus, SearchError> {
    run_search(index, scratch, req, tau, |ctx| {
        scan::search_table(ctx, total_list_elements);
        Ok(())
    })
}

/// Run `search` over a fresh [`SearchCtx`] on `scratch`. A fault the
/// search returns is the query's error.
fn run_search(
    index: &InvertedIndex<'_>,
    scratch: &mut Scratch,
    req: &SearchRequest<'_>,
    tau: Tau,
    search: impl FnOnce(&mut SearchCtx<'_, '_>) -> Result<(), SnapshotError>,
) -> Result<SearchStatus, SearchError> {
    scratch.begin();
    let mut ctx = SearchCtx {
        index,
        query: req.query,
        tau: tau.get(),
        budget: req.budget.arm(),
        scratch,
    };
    search(&mut ctx)?;
    debug_assert!(
        scratch.results.iter().all(|m| m.score.to_bits()
            == crate::algorithms::table_score(index, req.query, m.id).to_bits()),
        "{} emitted a score that is not the canonical score",
        req.algorithm.name()
    );
    Ok(scratch.status())
}

/// Like [`execute_into`], but move the results out into an owned
/// [`SearchOutcome`] (one allocation-sized-move per query; the scratch
/// stays warm otherwise).
pub fn execute(
    index: &InvertedIndex<'_>,
    scratch: &mut Scratch,
    req: &SearchRequest<'_>,
) -> Result<SearchOutcome, SearchError> {
    execute_into(index, scratch, req)?;
    Ok(scratch.take_outcome())
}

/// A persistent executor over one index: reusable scratch, per-query
/// budgets, work-stealing batches, and serving metrics. See the module
/// docs for the architecture.
pub struct QueryEngine<'c> {
    index: InvertedIndex<'c>,
    scratch: Scratch,
    metrics: EngineMetrics,
    /// Warm scratches returned by batch workers, reused by later batches.
    scratch_pool: ScratchPool,
}

impl QueryEngine<'static> {
    /// Cold-start an engine from an index snapshot on disk (written by
    /// [`InvertedIndex::save`]): the `load → serve` path that skips
    /// re-tokenizing and re-indexing the corpus. The loaded index owns
    /// its collection, so the engine has no outstanding borrows and can
    /// be moved anywhere.
    ///
    /// Every failure is a typed [`SnapshotError`]
    /// — bad magic, unsupported version, checksum mismatch, truncation,
    /// or malformed contents. A file that fails validation never
    /// produces an engine.
    // why: the sanctioned single-file cold-start path; segment directories
    // go through `MutableEngine::open`.
    #[allow(clippy::disallowed_methods)]
    pub fn open(path: &std::path::Path) -> Result<Self, crate::SnapshotError> {
        Ok(QueryEngine::new(InvertedIndex::load(path)?))
    }
}

impl<'c> QueryEngine<'c> {
    /// Wrap an index in an engine.
    #[must_use]
    pub fn new(index: InvertedIndex<'c>) -> Self {
        Self {
            index,
            scratch: Scratch::default(),
            metrics: EngineMetrics::default(),
            scratch_pool: ScratchPool::default(),
        }
    }

    /// The wrapped index.
    #[must_use]
    pub fn index(&self) -> &InvertedIndex<'c> {
        &self.index
    }

    /// Give the index back, dropping the engine state.
    #[must_use]
    pub fn into_index(self) -> InvertedIndex<'c> {
        self.index
    }

    /// Tokenize and prepare a query string against the wrapped index.
    #[must_use]
    pub fn prepare_query_str(&self, text: &str) -> PreparedQuery {
        self.index.prepare_query_str(text)
    }

    /// Run one request, returning an owned outcome. Replaces direct
    /// algorithm-struct construction: validation is typed (no panics) and
    /// the candidate structures come from the engine's warm scratch.
    pub fn search(&mut self, req: SearchRequest<'_>) -> Result<SearchOutcome, SearchError> {
        self.metrics.observe(
            || execute(&self.index, &mut self.scratch, &req),
            SearchOutcome::served,
        )
    }

    /// Run one request and borrow the results out of the scratch — the
    /// zero-allocation serving path (nothing is copied; the view dies at
    /// the next search).
    pub fn search_view(&mut self, req: SearchRequest<'_>) -> Result<SearchView<'_>, SearchError> {
        let (index, scratch) = (&self.index, &mut self.scratch);
        self.metrics.observe(
            move || {
                // Moved, not reborrowed: the view outlives the closure.
                let scratch = scratch;
                let status = execute_into(index, scratch, &req)?;
                Ok(SearchView {
                    results: scratch.results(),
                    stats: scratch.stats(),
                    status,
                })
            },
            |view| (view.stats, view.status, view.results.len()),
        )
    }

    /// Run a batch of requests across `num_threads` workers with **work
    /// stealing**: workers pull the next unclaimed request from a shared
    /// atomic cursor, so a straggler query occupies one worker while the
    /// rest drain the tail (static chunking would idle the straggler's
    /// whole chunk).
    ///
    /// Results come back in request order. Each worker keeps one warm
    /// scratch, drawn from (and returned to) the engine's pool, so
    /// repeated batches reuse capacity.
    pub fn search_batch(
        &self,
        reqs: &[SearchRequest<'_>],
        num_threads: usize,
    ) -> Vec<Result<SearchOutcome, SearchError>> {
        steal(&self.scratch_pool, num_threads, reqs, |scratch, req| {
            self.metrics
                .observe(|| execute(&self.index, scratch, req), SearchOutcome::served)
        })
    }

    /// Point-in-time serving metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zero the serving metrics (between benchmark phases).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }
}

/// Serving engine over a [`ShardedIndex`](crate::ShardedIndex): resolves
/// the band table, runs the surviving shards, and **gathers** the
/// per-shard outcomes into one result set that is bit-identical to
/// searching the unsharded index.
///
/// Skipped shards are charged to [`SearchStats::shards_pruned`] /
/// [`SearchStats::shard_pruned_elements`](crate::SearchStats) without a
/// single posting access, which is the whole point of length banding:
/// at high thresholds most shards fall outside the Theorem 1 window
/// `[τ·len(q), len(q)/τ]` and scale-out is nearly free.
///
/// [`search`](Self::search) runs the surviving shards one after another
/// on the calling thread: on the 2-vCPU host it was measured on,
/// spawning and joining workers cost more than the shard searches of
/// nearly every query, heavy ones included (EXPERIMENTS.md, *Inline, not
/// scatter*).
/// [`search_with_threads`](Self::search_with_threads) **scatters** them
/// across a work-stealing worker pool instead (the same idiom as
/// [`QueryEngine::search_batch`], stealing shards instead of requests).
/// Either way the gather folds outcomes in shard order, so results, stats
/// and status do not depend on the thread count.
pub struct ShardedEngine {
    index: crate::ShardedIndex,
    metrics: EngineMetrics,
    scratch_pool: ScratchPool,
}

impl ShardedEngine {
    /// Wrap a sharded index in a serving engine.
    #[must_use]
    pub fn new(index: crate::ShardedIndex) -> Self {
        Self {
            index,
            metrics: EngineMetrics::default(),
            scratch_pool: ScratchPool::default(),
        }
    }

    /// Cold-start from a sharded snapshot directory written by
    /// [`ShardedIndex::save`](crate::ShardedIndex::save). Every shard
    /// file is length- and CRC-verified against the `MANIFEST` before a
    /// byte of it is decoded.
    pub fn open(dir: &std::path::Path) -> Result<Self, crate::SnapshotError> {
        Ok(Self::new(crate::ShardedIndex::open(dir)?))
    }

    /// The wrapped sharded index.
    #[must_use]
    pub fn index(&self) -> &crate::ShardedIndex {
        &self.index
    }

    /// Give the sharded index back, dropping the engine state.
    #[must_use]
    pub fn into_index(self) -> crate::ShardedIndex {
        self.index
    }

    /// Tokenize and prepare a query against the global dictionary and
    /// weight table (bit-identical to the unsharded preparation).
    #[must_use]
    pub fn prepare_query_str(&self, text: &str) -> PreparedQuery {
        self.index.prepare_query_str(text)
    }

    /// Run one request, its surviving shards in order on the calling
    /// thread.
    pub fn search(&self, req: &SearchRequest<'_>) -> Result<SearchOutcome, SearchError> {
        self.search_with_threads(req, 1)
    }

    /// [`search`](Self::search) with an explicit worker count: one worker
    /// runs the shards on the calling thread, more scatter them. One warm
    /// scratch per worker, drawn from (and returned to) the engine pool.
    pub fn search_with_threads(
        &self,
        req: &SearchRequest<'_>,
        num_threads: usize,
    ) -> Result<SearchOutcome, SearchError> {
        self.metrics.observe(
            || {
                req.validate()?;
                let plan = self.index.plan(req.query, req.tau);
                if num_threads <= 1 || plan.surviving.len() <= 1 {
                    let mut scratch = self.scratch_pool.pop();
                    let out = self.index.search_planned(&mut scratch, &plan, req);
                    self.scratch_pool.push(scratch);
                    return out;
                }
                let per_shard = steal(
                    &self.scratch_pool,
                    num_threads,
                    &plan.surviving,
                    |scratch, (shard, fq)| self.index.search_shard(scratch, *shard, fq, req),
                );
                let mut outcomes = Vec::with_capacity(plan.surviving.len());
                for (res, (shard, _)) in per_shard.into_iter().zip(&plan.surviving) {
                    outcomes.push((*shard, res?));
                }
                Ok(self.index.gather(&plan, outcomes))
            },
            SearchOutcome::served,
        )
    }

    /// Point-in-time serving metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zero the serving metrics (between benchmark phases).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }
}
