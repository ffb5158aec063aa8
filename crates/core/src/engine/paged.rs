//! Larger-than-RAM serving: [`PagedEngine`] answers queries directly
//! from a snapshot file, faulting posting pages on demand through a
//! bounded buffer pool instead of decoding the whole index up front.
//!
//! Opening decodes only what the footer carries — tokenizer spec,
//! dictionary, texts, multisets, options, and the per-list block
//! directory — and recomputes weights and lengths exactly like the heap
//! load path. No posting page is read at open: time-to-first-query is
//! O(footer), not O(index).
//!
//! Per query, the engine resolves the Theorem 1 length window against
//! the directory's fence keys first ([`crate::snapshot::window_blocks`])
//! and faults only the pages the surviving blocks live on, through a
//! [`PagedSnapshot`] whose pool caps resident posting-page memory at
//! `pool_pages × page_size`. Every list is stored in `(len, id)` order —
//! dense lists too, which the heap index serves as bitmaps — so every
//! window is a contiguous block range, decoded block by block and already
//! in serving order. The decoded windows are assembled into the same
//! [`PostingList`](crate::PostingList) structures the heap engine serves,
//! so all eight algorithms run unmodified — and, because a block is
//! dropped only when its score upper bound is *safely* below τ (the
//! prune slack, which lies strictly outside the pass rule's), no posting
//! of a passing set is dropped and the result set is bit-identical to the
//! heap engine's (`tests/snapshot_equivalence.rs`).
//!
//! The windows are assembled per request, with only the auxiliary
//! structures the requested algorithm reads
//! ([`IndexOptions::for_algorithm`](crate::IndexOptions)): the
//! extendible hash for TA and iTA, the id-sorted copy for the sort-by-id
//! merge, and each only where the snapshot's options carry it; a dense
//! list's bitmap, which stands in for both, only for those three kinds.
//! So an SF query builds none of them, and a request the heap engine
//! would refuse for a missing structure is refused here too.
//!
//! Every page access is CRC-verified once by the pool; damage in a faulted
//! page surfaces as [`SearchError::Snapshot`] carrying a typed
//! [`SnapshotError::ChecksumMismatch`] that names the exact page, at fault
//! time — never a panic, never a silent read.
//! Damage in pages no query faults is invisible by design (run
//! [`crate::snapshot::verify`] for an eager sweep).

use super::{execute_into, EngineMetrics, MetricsSnapshot, Scratch, SearchError, SearchRequest};
use crate::snapshot::{
    check_stored_lengths, decode_footer, read_list_blocks, window_blocks, ListRef, PageFetch,
};
use crate::{
    InvertedIndex, Posting, PreparedQuery, QueryToken, SearchOutcome, SetCollection, SnapshotError,
};
use setsim_storage::PagedSnapshot;
use setsim_tokenize::Token;
use std::path::Path;

/// Page fetcher over the pooled snapshot that records every page a query
/// fetches; the distinct count is the `pages_touched` counter.
struct PooledPages<'a> {
    snap: &'a mut PagedSnapshot,
    touched: &'a mut Vec<u32>,
}

impl PageFetch for PooledPages<'_> {
    fn fetch(&mut self, id: u32) -> Result<&[u8], SnapshotError> {
        self.touched.push(id);
        self.snap.page(id)
    }
}

/// A query engine that serves a snapshot **without loading it**: posting
/// pages are faulted on demand through a bounded buffer pool, so a
/// snapshot much larger than RAM is served with `pool_pages ×
/// page_size` resident posting-page bytes. Construct with
/// [`PagedEngine::open`] (or the
/// [`QueryEngine::open_paged`](super::QueryEngine::open_paged) alias).
pub struct PagedEngine {
    /// Collection, weights, lengths, and options from the footer; its
    /// lists hold only the current query's decoded windows.
    index: InvertedIndex<'static>,
    /// The footer's per-list block directory, token-ascending.
    directory: Vec<ListRef>,
    snap: PagedSnapshot,
    /// The current query's page fetches, reused across queries.
    touched: Vec<u32>,
    scratch: Scratch,
    metrics: EngineMetrics,
}

impl PagedEngine {
    /// Open `path` for demand-paged serving with a pool of `pool_pages`
    /// frames. Decodes the header, trailer, and footer eagerly (all
    /// CRC-verified) and recomputes weights and set lengths; reads no
    /// posting page. `pool_pages == 0` is rejected as
    /// [`SnapshotError::Unsupported`].
    pub fn open(path: &Path, pool_pages: usize) -> Result<Self, SnapshotError> {
        let snap = PagedSnapshot::open(path, pool_pages)?;
        let (spec, dict, texts, multisets, options, directory) = decode_footer(snap.footer())?;
        let collection = Box::new(SetCollection::from_parts(
            spec.build(),
            dict,
            texts,
            multisets,
        ));
        let index = InvertedIndex::assemble_owned(collection, options, Vec::new());
        Ok(Self {
            index,
            directory,
            snap,
            touched: Vec::new(),
            scratch: Scratch::default(),
            metrics: EngineMetrics::default(),
        })
    }

    /// The underlying index state (collection, weights, options). Its
    /// posting lists reflect only the most recent query's windows.
    #[must_use]
    pub fn index(&self) -> &InvertedIndex<'static> {
        &self.index
    }

    /// Number of posting pages in the snapshot file.
    #[must_use]
    pub fn num_pages(&self) -> u64 {
        self.snap.num_pages()
    }

    /// Pool capacity in pages.
    #[must_use]
    pub fn pool_pages(&self) -> usize {
        self.snap.pool_pages()
    }

    /// Currently resident pool pages (always ≤ [`pool_pages`]).
    ///
    /// [`pool_pages`]: Self::pool_pages
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.snap.resident()
    }

    /// Tokenize and prepare a query. Token filtering consults the block
    /// directory instead of materialized lists; the directory holds
    /// exactly the tokens the heap index has lists for, so preparation
    /// (idf weighting, unknown-token mass) is bit-identical to
    /// [`InvertedIndex::prepare_query_str`].
    #[must_use]
    pub fn prepare_query_str(&self, text: &str) -> PreparedQuery {
        let (known, unknown) = self.index.collection().tokenize_query(text);
        let weights = self.index.weights();
        let toks: Vec<QueryToken> = known
            .iter()
            .filter(|t| find_list(&self.directory, *t).is_some())
            .map(|t| {
                let idf = weights.idf(t);
                QueryToken {
                    token: t,
                    idf,
                    idf_sq: idf * idf,
                }
            })
            .collect();
        let unseen = weights.unseen_idf();
        let dictionary_only = known.len() - toks.len();
        let unknown_mass = (unknown + dictionary_only) as f64 * unseen * unseen;
        PreparedQuery::assemble(toks, unknown_mass)
    }

    /// Run one request. Resolves each query list's Theorem 1 window
    /// against the directory, faults only the pages inside it, swaps the
    /// decoded windows into the index, and dispatches to the requested
    /// algorithm unmodified. Results are bit-identical to the heap
    /// engine; [`SearchStats`](crate::SearchStats) additionally carries
    /// `pages_touched` / `page_cache_hits` / `page_cache_misses`.
    pub fn search(&mut self, req: SearchRequest<'_>) -> Result<SearchOutcome, SearchError> {
        self.metrics.observe(
            || {
                // Validate before faulting a single page (execute_into
                // re-validates; both use the same predicates).
                let tau = req.validate()?;
                let hits0 = self.snap.hits();
                let misses0 = self.snap.misses();
                let num_sets = self.index.collection().len();
                let len_q = req.query.len;
                self.touched.clear();
                let mut lists: Vec<(Token, Vec<Posting>)> =
                    Vec::with_capacity(req.query.tokens.len());
                for qt in &req.query.tokens {
                    let Some(list) = find_list(&self.directory, qt.token) else {
                        // A query prepared by this engine only carries tokens the
                        // directory has lists for; anything else was prepared
                        // against a different index and must not be served.
                        return Err(SearchError::ForeignQuery { token: qt.token });
                    };
                    let range = window_blocks(list, len_q, tau.get());
                    let mut pages = PooledPages {
                        snap: &mut self.snap,
                        touched: &mut self.touched,
                    };
                    let postings = read_list_blocks(&mut pages, list, range, num_sets)?;
                    // The heap load path cross-checks every stored length
                    // against the recomputed table; do the same for each
                    // faulted window, so a cross-wired file (checksums fine,
                    // pages from another index) is rejected at fault time,
                    // not served.
                    check_stored_lengths(&self.index, qt.token, &postings)?;
                    lists.push((qt.token, postings));
                }
                self.index.replace_lists(lists, req.algorithm);
                execute_into(&self.index, &mut self.scratch, &req)?;
                self.touched.sort_unstable();
                self.touched.dedup();
                self.scratch.stats.pages_touched = self.touched.len() as u64;
                self.scratch.stats.page_cache_hits = self.snap.hits() - hits0;
                self.scratch.stats.page_cache_misses = self.snap.misses() - misses0;
                Ok(self.scratch.take_outcome())
            },
            SearchOutcome::served,
        )
    }

    /// Point-in-time serving metrics (includes the page-fault counters).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zero the serving metrics (between benchmark phases).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    /// Lifetime pool hits across all queries.
    #[must_use]
    pub fn pool_hits(&self) -> u64 {
        self.snap.hits()
    }

    /// Lifetime pool misses across all queries.
    #[must_use]
    pub fn pool_misses(&self) -> u64 {
        self.snap.misses()
    }

    /// Lifetime page reads from the snapshot file — one per pool miss —
    /// classified sequential (the page after the previous read) or random
    /// on the reader's one read path. The I/O replay experiment prices
    /// these with a [`CostModel`](setsim_storage::CostModel).
    #[must_use]
    pub fn disk_stats(&self) -> setsim_storage::DiskStats {
        self.snap.disk_stats()
    }
}

/// Binary-search the token-ascending directory.
fn find_list(directory: &[ListRef], token: Token) -> Option<&ListRef> {
    directory
        .binary_search_by_key(&token.0, |l| l.token.0)
        .ok()
        .map(|i| &directory[i])
}

impl super::QueryEngine<'static> {
    /// Open a snapshot for **demand-paged** serving: the larger-than-RAM
    /// counterpart of [`open`](Self::open). Where `open` decodes every
    /// posting page up front into a heap index, `open_paged` decodes only
    /// the footer and faults posting pages per query through a pool of
    /// `pool_pages` frames — same results, bounded memory, O(footer)
    /// cold start.
    pub fn open_paged(path: &Path, pool_pages: usize) -> Result<PagedEngine, SnapshotError> {
        PagedEngine::open(path, pool_pages)
    }
}
