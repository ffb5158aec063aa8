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
//! Per query, the engine resolves each query list's Theorem 1 length
//! window against the directory's fence keys
//! ([`crate::snapshot::window_blocks`]). Every list is stored in
//! `(len, id)` order — dense lists too, which the heap index serves as
//! bitmaps — so every window is a contiguous block range, already in
//! serving order. A block is dropped only when its score upper bound is
//! *safely* below τ (the prune slack, which lies strictly outside the
//! pass rule's), so no posting of a passing set is dropped and the result
//! set is bit-identical to the heap engine's
//! (`tests/snapshot_equivalence.rs`).
//!
//! SF, the paper's recommended algorithm and the default request, reads
//! each window in place as a *window run*: a block is faulted through the
//! pool, decoded and checked only when SF first reads a posting in it,
//! and SF's length and candidate seeks jump whole blocks by their
//! directory first keys without reading them. Past λᵢ SF only jumps to
//! pending candidates, so most blocks of the long, frequent-token windows
//! are never read: the engine faults only the pages of the blocks SF
//! reads. Nothing is assembled per query.
//!
//! Scan reads the collection's base table, never a list: it gets the
//! windows' directory counts as its `total_list_elements` and faults no
//! page.
//!
//! The other six kinds decode every block of every window up front and
//! assemble the windows into the same [`PostingList`](crate::PostingList)
//! structures the heap engine serves, so they run unmodified. Assembly
//! builds only the auxiliary structures the requested algorithm reads
//! ([`IndexOptions::for_algorithm`](crate::IndexOptions)): the extendible
//! hash for TA and iTA, the id-sorted copy for the sort-by-id merge, and
//! each only where the snapshot's options carry it; a dense list's
//! bitmap, which stands in for both, only for those three kinds. A
//! request the heap engine would refuse for a missing structure is
//! refused here too.
//!
//! Both paths decode through one block decoder
//! ([`crate::snapshot::decode_block`]), so every posting served has passed
//! the same checks: the page's CRC (verified by the pool on every
//! access), the block's first key against the directory, its entry count,
//! the id range, strict `(len, id)` order, and the stored length against
//! the collection's. Damage in a faulted page surfaces as
//! [`SearchError::Snapshot`] carrying a typed
//! [`SnapshotError::ChecksumMismatch`] that names the exact page (or a
//! [`SnapshotError::Corrupt`] for a block that fails a check), at fault
//! time, as the query's error — never a panic, never a partial outcome,
//! never a silent read. Damage in blocks no query reads is invisible by
//! design (run [`crate::snapshot::verify`] for an eager sweep).

use super::{
    execute_into, execute_scan_into, execute_sf_into, AlgorithmKind, EngineMetrics,
    MetricsSnapshot, Scratch, SearchError, SearchRequest,
};
use crate::index::{QueryLists, SortedList};
use crate::snapshot::{
    decode_block, decode_footer, posting_key, read_list_blocks, window_blocks, window_len, ListRef,
    PageFetch,
};
use crate::{
    InvertedIndex, Posting, PreparedQuery, QueryToken, SearchOutcome, SearchStats, SetCollection,
    SetId, SnapshotError,
};
use setsim_storage::PagedSnapshot;
use setsim_tokenize::Token;
use std::ops::Range;
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

/// One query list's Theorem 1 window.
struct Window {
    /// Index of the list in the directory.
    list: usize,
    /// The window's blocks, as indexes into the list's blocks.
    blocks: Range<usize>,
    /// Postings in those blocks, by the directory's counts.
    len: usize,
}

/// The snapshot side of the engine: the footer's block directory, the
/// pooled file, and the per-query window state, reused across queries.
struct Pages {
    /// The footer's per-list block directory, token-ascending.
    directory: Vec<ListRef>,
    snap: PagedSnapshot,
    /// The current query's windows, one per query token.
    windows: Vec<Window>,
    /// The block a window run decoded last.
    block: Vec<Posting>,
    /// The current query's page fetches.
    touched: Vec<u32>,
    /// The snapshot's path, for the audit's reads past the pool.
    #[cfg(feature = "audit")]
    path: std::path::PathBuf,
}

impl Pages {
    /// Resolve each query list's window against the directory. A token
    /// with no list was prepared against a different index.
    fn resolve(&mut self, query: &PreparedQuery, tau: f64) -> Result<(), SearchError> {
        self.windows.clear();
        for qt in &query.tokens {
            let Some(list) = find_list(&self.directory, qt.token) else {
                return Err(SearchError::ForeignQuery { token: qt.token });
            };
            let blocks = window_blocks(&self.directory[list], query.len, tau);
            let len = window_len(&self.directory[list], blocks.clone())?;
            self.windows.push(Window { list, blocks, len });
        }
        Ok(())
    }

    /// Decode every window whole through the pool: the eager path of
    /// every kind but SF and Scan.
    fn read_windows(
        &mut self,
        lengths: &[f64],
    ) -> Result<Vec<(Token, Vec<Posting>)>, SnapshotError> {
        let mut pages = PooledPages {
            snap: &mut self.snap,
            touched: &mut self.touched,
        };
        read_windows(&self.directory, &self.windows, &mut pages, lengths)
    }

    /// The windows as runs that decode a block on first touch: SF's path.
    fn lists<'p>(&'p mut self, index: &'p InvertedIndex<'_>) -> WindowRuns<'p> {
        WindowRuns {
            directory: &self.directory,
            windows: &self.windows,
            lengths: index.lengths(),
            fenced: index.options().build_skip_lists,
            snap: &mut self.snap,
            touched: &mut self.touched,
            block: &mut self.block,
        }
    }

    /// Distinct pages the current query fetched.
    fn pages_touched(&mut self) -> u64 {
        self.touched.sort_unstable();
        self.touched.dedup();
        self.touched.len() as u64
    }
}

/// Postings in `windows`, by the directory's counts: the query's
/// `total_list_elements`.
fn window_total(windows: &[Window]) -> u64 {
    windows.iter().map(|w| w.len as u64).sum()
}

/// Decode `windows` whole, fetching pages through `pages`.
fn read_windows(
    directory: &[ListRef],
    windows: &[Window],
    pages: &mut impl PageFetch,
    lengths: &[f64],
) -> Result<Vec<(Token, Vec<Posting>)>, SnapshotError> {
    windows
        .iter()
        .map(|w| {
            let list = &directory[w.list];
            let postings = read_list_blocks(pages, list, w.blocks.clone(), lengths)?;
            Ok((list.token, postings))
        })
        .collect()
}

/// A query's windows, handed to SF one run at a time; every run decodes
/// into the one shared block buffer.
struct WindowRuns<'p> {
    directory: &'p [ListRef],
    windows: &'p [Window],
    lengths: &'p [f64],
    fenced: bool,
    snap: &'p mut PagedSnapshot,
    touched: &'p mut Vec<u32>,
    block: &'p mut Vec<Posting>,
}

impl QueryLists for WindowRuns<'_> {
    type List<'s>
        = WindowRun<'s>
    where
        Self: 's;

    fn total_elements(&self) -> u64 {
        window_total(self.windows)
    }

    fn list(&mut self, i: usize) -> WindowRun<'_> {
        let w = &self.windows[i];
        WindowRun {
            list: &self.directory[w.list],
            blocks: w.blocks.clone(),
            len: w.len,
            lengths: self.lengths,
            fenced: self.fenced,
            pages: PooledPages {
                snap: &mut *self.snap,
                touched: &mut *self.touched,
            },
            buf: &mut *self.block,
            cur: w.blocks.start,
            cur_start: 0,
            hot: 0,
            last: None,
        }
    }
}

/// One window read in place. Its fences are the blocks' directory first
/// keys, so a seek skips whole blocks unread; a block is fetched, decoded
/// and checked ([`decode_block`]) when a posting in it is first read.
struct WindowRun<'s> {
    list: &'s ListRef,
    /// The window's blocks, as indexes into `list.blocks`.
    blocks: Range<usize>,
    len: usize,
    lengths: &'s [f64],
    /// Whether the index carries skip lists: without, seeks walk.
    fenced: bool,
    pages: PooledPages<'s>,
    buf: &'s mut Vec<Posting>,
    /// The cursor: block `cur` of `list` starts at window offset
    /// `cur_start`, and `buf` holds its `hot` postings (0: not decoded).
    cur: usize,
    cur_start: usize,
    hot: usize,
    /// Key of the last posting this run decoded: the next block decoded
    /// must start above it.
    last: Option<(u64, u32)>,
}

impl WindowRun<'_> {
    /// Point the cursor at block `b` of the window, undecoded unless it
    /// already is; returns its window offset.
    fn move_to(&mut self, b: usize) -> usize {
        if b < self.cur {
            // Backwards (SF never seeks back): restart at the window.
            self.cur = self.blocks.start;
            self.cur_start = 0;
            self.hot = 0;
            self.last = None;
        }
        while self.cur < b {
            self.cur_start += self.list.blocks[self.cur].count as usize;
            self.cur += 1;
            self.hot = 0;
        }
        self.cur_start
    }

    /// Where window offset `pos < len` sits in `buf`, first decoding the
    /// block that holds it if that is not the decoded one.
    #[inline]
    fn at(&mut self, pos: usize) -> Result<usize, SnapshotError> {
        let rel = pos.wrapping_sub(self.cur_start);
        if rel < self.hot {
            return Ok(rel);
        }
        self.load(pos)?;
        Ok(pos - self.cur_start)
    }

    /// Make the block holding window offset `pos < len` the decoded one.
    fn load(&mut self, pos: usize) -> Result<(), SnapshotError> {
        if pos < self.cur_start {
            self.move_to(self.blocks.start);
        }
        while pos >= self.cur_start + self.list.blocks[self.cur].count as usize {
            self.move_to(self.cur + 1);
        }
        if self.hot == 0 {
            let payload = self.pages.fetch(self.list.blocks[self.cur].page)?;
            self.buf.clear();
            decode_block(
                payload,
                self.list,
                self.cur,
                self.lengths,
                self.last,
                self.buf,
            )?;
            self.last = self.buf.last().map(posting_key);
            self.hot = self.buf.len();
        }
        Ok(())
    }

    /// Move the cursor forward to the last block whose first key is below
    /// `bits`, returning that block's window offset; `None` if that block
    /// is not past the cursor's.
    fn fence_forward(&mut self, bits: u64) -> Option<usize> {
        let window = &self.list.blocks[self.blocks.clone()];
        let b = self.blocks.start + window.partition_point(|b| b.first_key < bits);
        let b = b.saturating_sub(1);
        (b > self.cur).then(|| self.move_to(b))
    }
}

impl SortedList for WindowRun<'_> {
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn posting(&mut self, pos: usize) -> Result<Posting, SnapshotError> {
        let rel = self.at(pos)?;
        Ok(self.buf[rel])
    }

    fn seek_len(
        &mut self,
        min_len: f64,
        use_skip: bool,
        stats: &mut SearchStats,
    ) -> Result<usize, SnapshotError> {
        // Lengths are positive, so nothing lies below a target ≤ 0 (whose
        // bits would sort above every length), nor below NaN, as on the
        // heap; above 0, `len ≥ min_len` is `key ≥ (min_len bits, id 0)`.
        if min_len.is_nan() || min_len <= 0.0 {
            return Ok(0);
        }
        self.seek_key(0, min_len, SetId(0), use_skip, stats)
    }

    fn seek_key(
        &mut self,
        from: usize,
        len: f64,
        id: SetId,
        use_skip: bool,
        stats: &mut SearchStats,
    ) -> Result<usize, SnapshotError> {
        let target = (len.to_bits(), id.0);
        let mut off = from.min(self.len);
        if !use_skip {
            while off < self.len && posting_key(&self.posting(off)?) < target {
                off += 1;
                stats.elements_read += 1;
            }
            return Ok(off);
        }
        if self.fenced && len > 0.0 {
            // The fences carry no ids: jump to the last block whose first
            // length is below the target's, as the heap's bitmap lists do.
            if let Some(start) = self.fence_forward(len.to_bits()) {
                if start > off {
                    stats.elements_skipped += (start - off) as u64;
                    off = start;
                }
            }
        }
        // Gallop block by block, charging as `PostingList::seek_key` does:
        // inspected postings are reads, leapt ones skipped.
        while off < self.len {
            let rel = self.at(off)?;
            let (idx, probes) =
                setsim_collections::gallop_seek_by(&self.buf[..], rel, |p| posting_key(p) < target);
            let span = idx - rel;
            let reads = span.min(usize::try_from(probes).unwrap_or(usize::MAX));
            stats.elements_read += reads as u64;
            stats.elements_skipped += (span - reads) as u64;
            off = self.cur_start + idx;
            if idx < self.hot {
                break;
            }
        }
        Ok(off)
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
    /// lists hold the windows of the last query served eagerly (any kind
    /// but SF and Scan).
    index: InvertedIndex<'static>,
    pages: Pages,
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
            pages: Pages {
                directory,
                snap,
                windows: Vec::new(),
                block: Vec::new(),
                touched: Vec::new(),
                #[cfg(feature = "audit")]
                path: path.to_path_buf(),
            },
            scratch: Scratch::default(),
            metrics: EngineMetrics::default(),
        })
    }

    /// The underlying index state (collection, weights, options). Its
    /// posting lists hold only the windows of the last query served
    /// through the eager path (any kind but SF and Scan).
    #[must_use]
    pub fn index(&self) -> &InvertedIndex<'static> {
        &self.index
    }

    /// Number of posting pages in the snapshot file.
    #[must_use]
    pub fn num_pages(&self) -> u64 {
        self.pages.snap.num_pages()
    }

    /// Pool capacity in pages.
    #[must_use]
    pub fn pool_pages(&self) -> usize {
        self.pages.snap.pool_pages()
    }

    /// Currently resident pool pages (always ≤ [`pool_pages`]).
    ///
    /// [`pool_pages`]: Self::pool_pages
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.snap.resident()
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
            .filter(|t| find_list(&self.pages.directory, *t).is_some())
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
    /// against the directory; SF then reads the windows in place,
    /// faulting and decoding a block when it first reads a posting in it,
    /// Scan reads only the base table and the windows' counts, and every
    /// other kind decodes its windows whole and runs unmodified over them.
    /// Results are bit-identical to the heap engine; [`SearchStats`]
    /// additionally carries `pages_touched` / `page_cache_hits` /
    /// `page_cache_misses`.
    ///
    /// # Panics
    /// With the `audit` feature, if SF's answer (result bits and status)
    /// differs from the eager path's over the same windows.
    pub fn search(&mut self, req: SearchRequest<'_>) -> Result<SearchOutcome, SearchError> {
        self.metrics.observe(
            || {
                // Validate before faulting a single page (execute_into
                // re-validates; both use the same predicates).
                let tau = req.validate()?;
                let pages = &mut self.pages;
                let hits0 = pages.snap.hits();
                let misses0 = pages.snap.misses();
                pages.touched.clear();
                pages.resolve(req.query, tau.get())?;
                match req.algorithm {
                    AlgorithmKind::Sf => {
                        let mut runs = pages.lists(&self.index);
                        execute_sf_into(&self.index, &mut self.scratch, &req, tau, &mut runs)?;
                    }
                    AlgorithmKind::Scan => {
                        let total = window_total(&pages.windows);
                        execute_scan_into(&self.index, &mut self.scratch, &req, tau, total)?;
                    }
                    _ => {
                        let lists = pages.read_windows(self.index.lengths())?;
                        self.index.replace_lists(lists, req.algorithm);
                        execute_into(&self.index, &mut self.scratch, &req)?;
                    }
                }
                self.scratch.stats.pages_touched = pages.pages_touched();
                self.scratch.stats.page_cache_hits = pages.snap.hits() - hits0;
                self.scratch.stats.page_cache_misses = pages.snap.misses() - misses0;
                let out = self.scratch.take_outcome();
                #[cfg(feature = "audit")]
                audit_sf(&mut self.index, &mut self.scratch, pages, &req, &out);
                Ok(out)
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
        self.pages.snap.hits()
    }

    /// Lifetime pool misses across all queries.
    #[must_use]
    pub fn pool_misses(&self) -> u64 {
        self.pages.snap.misses()
    }

    /// Lifetime page reads from the snapshot file — one per pool miss —
    /// classified sequential (the page after the previous read) or random
    /// on the reader's one read path. The I/O replay experiment prices
    /// these with a [`CostModel`](setsim_storage::CostModel).
    #[must_use]
    pub fn disk_stats(&self) -> setsim_storage::DiskStats {
        self.pages.snap.disk_stats()
    }
}

/// The lazy SF path checked against the eager one: an SF answer is
/// re-derived by decoding the same windows whole and running SF over the
/// assembled lists, and must match in result bits and status. The pages
/// come straight from the file, not through the pool, so the check leaves
/// the pool, its counters and the next query's faults as they were. The
/// eager path reads every page of every window, so a damaged page SF never
/// needed fails it; only a clean eager run is compared.
#[cfg(feature = "audit")]
fn audit_sf(
    index: &mut InvertedIndex<'static>,
    scratch: &mut Scratch,
    pages: &Pages,
    req: &SearchRequest<'_>,
    lazy: &SearchOutcome,
) {
    if req.algorithm != AlgorithmKind::Sf {
        return;
    }
    let Ok(mut reader) = setsim_storage::SnapshotReader::open(&pages.path) else {
        return;
    };
    let mut file = crate::snapshot::PageCache::new(&mut reader);
    let Ok(lists) = read_windows(&pages.directory, &pages.windows, &mut file, index.lengths())
    else {
        return;
    };
    index.replace_lists(lists, AlgorithmKind::Sf);
    let eager = super::execute(index, scratch, req).map(|out| (out.bits_sorted(), out.status));
    assert_eq!(
        eager.ok(),
        Some((lazy.bits_sorted(), lazy.status)),
        "paged SF over window runs disagrees with the eager window path"
    );
}

/// Binary-search the token-ascending directory for `token`'s list.
fn find_list(directory: &[ListRef], token: Token) -> Option<usize> {
    directory.binary_search_by_key(&token.0, |l| l.token.0).ok()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ListEncoding;
    use crate::{CollectionBuilder, IndexOptions, QueryEngine};
    use setsim_collections::codec::read_varint;
    use setsim_storage::snapshot::{seal_page, PAGE_CRC_LEN};
    use setsim_storage::{SnapshotLayout, SnapshotReader, SnapshotRegion};
    use setsim_tokenize::QGramTokenizer;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// The fixture index saved with 128-byte pages, so that lists span
    /// many blocks and pages.
    fn saved(tag: &str) -> (SetCollection, TempFile, SnapshotLayout, Vec<ListRef>) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "setsim-core-paged-{}-{tag}-{n}.snap",
            std::process::id()
        ));
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        for i in 0..60 {
            b.add(&format!("record number {i}"));
            b.add(&format!("main street {}", i % 11));
        }
        let c = b.build();
        let index = InvertedIndex::build(&c, IndexOptions::default());
        index.save_with_page_size(&path, 128).unwrap();
        let reader = SnapshotReader::open(&path).unwrap();
        let directory = decode_footer(reader.footer()).unwrap().5;
        (c, TempFile(path), reader.layout(), directory)
    }

    fn sf(engine: &mut PagedEngine, text: &str) -> Result<SearchOutcome, SearchError> {
        let q = engine.prepare_query_str(text);
        engine.search(SearchRequest::new(&q).tau(0.8))
    }

    fn heap_bits(heap: &mut QueryEngine<'_>, text: &str) -> Vec<(SetId, u64)> {
        let q = heap.prepare_query_str(text);
        heap.search(SearchRequest::new(&q).tau(0.8))
            .unwrap()
            .bits_sorted()
    }

    fn is_corrupt(err: &SearchError) -> bool {
        matches!(err, SearchError::Snapshot(SnapshotError::Corrupt { detail })
            if detail.contains("disagrees with the collection"))
    }

    /// A posting whose stored length is rewritten (page CRC resealed, so
    /// only the cross-check against the collection's lengths can see it)
    /// is refused by the load path and by every paged query that reads
    /// its block, while a query that never reads the block answers exactly
    /// like the heap engine — including one whose SF window holds the
    /// block but whose reads skip it.
    #[test]
    fn a_resealed_stored_length_is_refused_wherever_its_block_is_read() {
        let (c, t, layout, directory) = saved("length");
        // A posting after the first of a run block whose key delta is at
        // least 2: lowering the delta's low varint byte by one lowers the
        // length bits of it and of every later posting of the block by
        // one, which keeps the block strictly sorted and below the next
        // block's fence, so only the length cross-check can see it. Middle
        // blocks of long lists first: SF jumps most of those.
        let mut reader = SnapshotReader::open(&t.0).unwrap();
        let mut lists: Vec<&ListRef> = directory.iter().collect();
        lists.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
        let mut victim = None;
        'lists: for list in lists {
            if list.encoding != ListEncoding::RunBlocks {
                continue;
            }
            let middle = list.blocks.len() / 2;
            for b in &list.blocks[middle..] {
                let payload = reader.page(b.page).unwrap();
                let mut pos = b.offset as usize;
                for j in 0..b.count {
                    let at = pos;
                    let delta = read_varint(&payload, &mut pos).unwrap();
                    let id = read_varint(&payload, &mut pos).unwrap();
                    if j > 0 && delta >= 2 && payload[at] & 0x7f != 0 {
                        victim = Some((list.token, b.page, at, SetId(id as u32)));
                        break 'lists;
                    }
                }
            }
        }
        let (token, page, at, damaged) = victim.expect("fixture has a block to damage");
        let mut bytes = std::fs::read(&t.0).unwrap();
        let start = layout.pages_offset as usize + page as usize * layout.page_size;
        bytes[start + at] -= 1;
        let payload = &bytes[start..start + layout.page_size - PAGE_CRC_LEN];
        let sealed = seal_page(payload, layout.page_size);
        bytes[start..start + layout.page_size].copy_from_slice(&sealed);
        std::fs::write(&t.0, &bytes).unwrap();

        match InvertedIndex::load(&t.0) {
            Err(SnapshotError::Corrupt { detail }) => {
                assert!(detail.contains("disagrees with the collection"), "{detail}");
            }
            Err(other) => panic!("expected the length cross-check, got {other:?}"),
            Ok(_) => panic!("a rewritten stored length must not load"),
        }

        // The damaged set's own text: SF must read its posting in every
        // one of its lists to score it 1.
        let mut paged = PagedEngine::open(&t.0, 4).unwrap();
        let probe = c.text(damaged).unwrap();
        let err = sf(&mut paged, probe).expect_err("the probe reads the damaged block");
        assert!(is_corrupt(&err), "{err}");

        let mut heap = QueryEngine::new(InvertedIndex::build(&c, IndexOptions::default()));
        let (mut clean, mut skipped_in_window) = (0, 0);
        for (id, set) in c.iter_sets() {
            let text = c.text(id).unwrap();
            match sf(&mut paged, text) {
                Ok(out) => {
                    assert_eq!(out.bits_sorted(), heap_bits(&mut heap, text), "{text:?}");
                    clean += 1;
                    // The eager path decodes the whole window: where it
                    // fails, the block was in SF's window and SF skipped it.
                    let q = paged.prepare_query_str(text);
                    let req = SearchRequest::new(&q)
                        .tau(0.8)
                        .algorithm(AlgorithmKind::INra);
                    if set.contains(token) && paged.search(req).is_err_and(|e| is_corrupt(&e)) {
                        skipped_in_window += 1;
                    }
                }
                Err(e) => assert!(is_corrupt(&e), "{text:?}: {e}"),
            }
        }
        assert!(clean > 0, "no query avoided the damaged block");
        assert!(
            skipped_in_window > 0,
            "no SF query skipped the damaged block inside its window"
        );
    }

    /// A Scan reads the base table and the windows' directory counts, never
    /// a posting: over a window that holds a damaged page it answers like
    /// the heap engine and faults nothing, and every counter but the page
    /// ones equals the eager window path's on the clean file.
    #[test]
    fn a_scan_faults_no_page_even_over_a_damaged_window() {
        let (c, t, layout, directory) = saved("scan");
        let (text, tau) = ("main street 3", 0.6);
        let scan = |q| {
            SearchRequest::new(q)
                .tau(tau)
                .algorithm(AlgorithmKind::Scan)
        };

        // Today's eager path on the clean file: decode the windows whole
        // and scan over the assembled lists.
        let mut clean = PagedEngine::open(&t.0, 4).unwrap();
        let q = clean.prepare_query_str(text);
        clean.pages.resolve(&q, tau).unwrap();
        let lists = clean.pages.read_windows(clean.index.lengths()).unwrap();
        assert!(!clean.pages.touched.is_empty(), "the windows hold pages");
        clean.index.replace_lists(lists, AlgorithmKind::Scan);
        let eager = super::super::execute(&clean.index, &mut clean.scratch, &scan(&q)).unwrap();

        // Damage the first page of the rarest list's window.
        let list = &directory[find_list(&directory, q.tokens[0].token).unwrap()];
        let window = window_blocks(list, q.len, tau);
        let page = list.blocks[window.start].page;
        let mut bytes = std::fs::read(&t.0).unwrap();
        bytes[layout.pages_offset as usize + page as usize * layout.page_size + 1] ^= 0x5a;
        std::fs::write(&t.0, &bytes).unwrap();

        let mut paged = PagedEngine::open(&t.0, 4).unwrap();
        let q = paged.prepare_query_str(text);
        let nra = SearchRequest::new(&q)
            .tau(tau)
            .algorithm(AlgorithmKind::Nra);
        assert!(
            paged.search(nra).is_err(),
            "the damaged page lies in a window the eager path decodes"
        );
        let out = paged.search(scan(&q)).unwrap();
        let mut heap = QueryEngine::new(InvertedIndex::build(&c, IndexOptions::default()));
        let hq = heap.prepare_query_str(text);
        let want = heap.search(scan(&hq)).unwrap();
        assert!(!want.results.is_empty());
        assert_eq!(out.bits_sorted(), want.bits_sorted());
        assert_eq!(out.stats.pages_touched, 0);
        assert_eq!(out.stats.page_cache_hits, 0);
        assert_eq!(out.stats.page_cache_misses, 0);
        // `execute` leaves the page counters at 0: the rest must agree.
        assert_eq!(out.stats, eager.stats);
        assert_eq!(out.status, eager.status);
    }

    /// Pages the last query fetched (sorted, distinct).
    fn touched(engine: &PagedEngine) -> Vec<u32> {
        engine.pages.touched.clone()
    }

    /// A damaged page that SF first reaches in a later round — it holds
    /// no block of the first (rarest) list — fails the query with the
    /// typed checksum error naming it, and no outcome. The same engine
    /// then serves a query that avoids the page bit-identically to the
    /// heap engine, counting only the pages it fetched.
    #[test]
    fn a_fault_in_a_later_sf_round_is_the_querys_error() {
        let (c, t, layout, directory) = saved("round");
        let mut clean = PagedEngine::open(&t.0, 4).unwrap();
        let mut heap = QueryEngine::new(InvertedIndex::build(&c, IndexOptions::default()));
        let texts: Vec<&str> = c.iter_sets().map(|(id, _)| c.text(id).unwrap()).collect();

        // A probe, and a page it fetches that holds no block of its first
        // list.
        let mut target = None;
        for &text in &texts {
            let q = clean.prepare_query_str(text);
            clean.search(SearchRequest::new(&q).tau(0.8)).unwrap();
            let first = &directory[find_list(&directory, q.tokens[0].token).unwrap()];
            let later = touched(&clean)
                .into_iter()
                .find(|p| first.blocks.iter().all(|b| b.page != *p));
            if let Some(page) = later {
                target = Some((text, page));
                break;
            }
        }
        let (probe, page) = target.expect("some query reads a page past its first round");
        // A query that never fetches that page, with answers.
        let avoid = texts
            .iter()
            .copied()
            .find(|text| {
                let out = sf(&mut clean, text).unwrap();
                !out.results.is_empty() && !touched(&clean).contains(&page)
            })
            .expect("some query avoids the page");
        sf(&mut clean, avoid).unwrap();
        let avoid_pages = touched(&clean);

        let mut bytes = std::fs::read(&t.0).unwrap();
        bytes[layout.pages_offset as usize + page as usize * layout.page_size + 1] ^= 0x5a;
        std::fs::write(&t.0, &bytes).unwrap();
        let mut paged = PagedEngine::open(&t.0, 4).unwrap();
        match sf(&mut paged, probe) {
            Err(SearchError::Snapshot(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Page(p),
            })) => assert_eq!(p, page),
            other => panic!("expected the checksum error of page {page}, got {other:?}"),
        }
        let out = sf(&mut paged, avoid).unwrap();
        assert_eq!(out.bits_sorted(), heap_bits(&mut heap, avoid));
        assert_eq!(out.stats.pages_touched, avoid_pages.len() as u64);
        assert_eq!(touched(&paged), avoid_pages);
        assert!(out.stats.pages_touched <= out.stats.page_cache_hits + out.stats.page_cache_misses);
    }
}
