use crate::{PreparedQuery, QueryToken, SearchStats, SetCollection, SetId, TokenWeights};
use setsim_collections::{BlockMaxIndex, DenseBitmap, ExtendibleHashMap};
use setsim_tokenize::{Token, TokenSet};
use std::collections::HashMap;

/// One inverted-list entry: the pair `⟨s, len(s)⟩` of Section III-B.
///
/// Carrying the set length in the posting is what enables Magnitude
/// Boundedness: after a single sorted access the set's *exact* best-case
/// score is computable, because every other list's contribution
/// `idf(qⱼ)²/(len(s)·len(q))` depends only on `len(s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// The set containing this list's token.
    pub id: SetId,
    /// `len(s)`, the set's normalized length.
    pub len: f64,
}

/// The physical representation of one token's posting list, selected per
/// list at build/compaction time from list statistics (or forced globally
/// by [`ReprPolicy::Force`]).
///
/// All three answer the same logical accesses — `(len, id)`-ordered
/// scans, length seeks, id membership, id-order enumeration — with
/// bit-identical results; they differ only in the auxiliary structures
/// and therefore in cost. `tests/representation_equivalence.rs` holds all
/// eight algorithms to that contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// A fixed-capacity array of at most [`INLINE_CAP`] postings, no
    /// auxiliary structures at all: the long tail of rare q-grams, where
    /// fence keys and a hash directory cost more than the list itself.
    Inline,
    /// The classic sorted run with sparse fence keys (the skip layer)
    /// and an extendible-hash id index — the paper's default layout.
    Run,
    /// A dense bitmap over set ids with per-block popcounts plus fence
    /// keys over the `(len, id)` run — high-frequency (low-idf) tokens
    /// whose lists cover a large fraction of the record
    /// universe. Membership is a bit test; the id-sorted copy and the
    /// hash index disappear entirely.
    Bitmap,
}

/// How [`InvertedIndex::build`] picks a [`ReprKind`] per list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReprPolicy {
    /// Per-list selection from list statistics (the production default):
    /// lists of at most [`INLINE_CAP`] postings inline; lists with at
    /// least [`BITMAP_MIN_POSTINGS`] postings covering at least
    /// 1/[`BITMAP_DENSITY_DEN`] of the records go dense; everything else
    /// stays a sorted run.
    #[default]
    Adaptive,
    /// Force every list into one representation (differential tests and
    /// ablation experiments).
    Force(ReprKind),
}

/// Maximum postings held inline ([`ReprKind::Inline`]).
pub const INLINE_CAP: usize = 8;

/// Minimum list length for [`ReprKind::Bitmap`] under
/// [`ReprPolicy::Adaptive`].
pub const BITMAP_MIN_POSTINGS: usize = 64;

/// Density denominator for [`ReprKind::Bitmap`] under
/// [`ReprPolicy::Adaptive`]: a list qualifies when it covers at least
/// `1/BITMAP_DENSITY_DEN` of the record universe (so the bitmap's
/// bit-per-record footprint undercuts the 16-byte postings it replaces).
pub const BITMAP_DENSITY_DEN: usize = 16;

/// The representation `policy` assigns to a list of `n` postings over a
/// universe of `num_records` sets.
fn select_repr(n: usize, num_records: usize, policy: ReprPolicy) -> ReprKind {
    match policy {
        ReprPolicy::Force(kind) => kind,
        ReprPolicy::Adaptive => {
            if n <= INLINE_CAP {
                ReprKind::Inline
            } else if n >= BITMAP_MIN_POSTINGS && n * BITMAP_DENSITY_DEN >= num_records {
                ReprKind::Bitmap
            } else {
                ReprKind::Run
            }
        }
    }
}

/// Build options for [`InvertedIndex`].
///
/// Marked non-exhaustive so new knobs can be added without breaking
/// downstream builds: construct via [`IndexOptions::default`] and the
/// `with_*` setters (or functional update syntax off `default()`).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct IndexOptions {
    /// Build the skip layer of every run and bitmap list: sorted fence
    /// keys, the `(len, id)` of every `skip_stride`-th posting, which
    /// make length and candidate seeks one binary search (Figure 9
    /// ablates this).
    pub build_skip_lists: bool,
    /// One fence key every `skip_stride` postings (the paper caps skip
    /// lists at a small fraction of list size; sparsity is the same knob).
    pub skip_stride: usize,
    /// Build an extendible-hash id index per list (required by TA/iTA's
    /// random accesses; a large space cost in Figure 5). Only
    /// [`ReprKind::Run`] lists carry a hash — inline lists probe their
    /// few postings directly and bitmap lists answer with a bit test.
    pub build_hash_indexes: bool,
    /// Entries per extendible-hash bucket page.
    pub hash_bucket_capacity: usize,
    /// Build the id-sorted copy of every list (required by the sort-by-id
    /// merge baseline). [`ReprKind::Bitmap`] lists never materialize the
    /// copy: the bitmap itself enumerates ids in order.
    pub build_id_sorted_lists: bool,
    /// Per-list representation selection (see [`ReprPolicy`]).
    pub repr_policy: ReprPolicy,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self {
            build_skip_lists: true,
            skip_stride: 16,
            build_hash_indexes: true,
            hash_bucket_capacity: 64,
            build_id_sorted_lists: true,
            repr_policy: ReprPolicy::Adaptive,
        }
    }
}

impl IndexOptions {
    /// Toggle skip-layer (fence key) construction.
    #[must_use]
    pub fn with_skip_lists(mut self, on: bool) -> Self {
        self.build_skip_lists = on;
        self
    }

    /// Set the skip stride (postings per fence key).
    #[must_use]
    pub fn with_skip_stride(mut self, stride: usize) -> Self {
        self.skip_stride = stride;
        self
    }

    /// Toggle extendible-hash id indexes (needed by TA/iTA probes).
    #[must_use]
    pub fn with_hash_indexes(mut self, on: bool) -> Self {
        self.build_hash_indexes = on;
        self
    }

    /// Set the extendible-hash bucket page capacity.
    #[must_use]
    pub fn with_hash_bucket_capacity(mut self, capacity: usize) -> Self {
        self.hash_bucket_capacity = capacity;
        self
    }

    /// Toggle the id-sorted list copies (needed by sort-by-id merge).
    #[must_use]
    pub fn with_id_sorted_lists(mut self, on: bool) -> Self {
        self.build_id_sorted_lists = on;
        self
    }

    /// Set the per-list representation policy.
    #[must_use]
    pub fn with_repr_policy(mut self, policy: ReprPolicy) -> Self {
        self.repr_policy = policy;
        self
    }
}

/// A decoded list body handed to [`InvertedIndex::assemble_owned`]:
/// either full `(len, id)`-sorted postings (run/inline page encodings)
/// or bare ascending ids (bitmap pages, whose lengths are recomputed
/// from the collection — the ids must already be validated against the
/// record count).
pub(crate) enum ListPayload {
    /// `(len, id)`-sorted postings.
    Postings(Vec<Posting>),
    /// Strictly ascending set ids; lengths come from the length table.
    Ids(Vec<u32>),
}

/// Posting storage: a fixed inline array for lists that fit
/// [`INLINE_CAP`], a heap vector otherwise. The inline arm is what makes
/// [`ReprKind::Inline`] real — a rare-gram list occupies its slot in the
/// table with no extra allocation.
#[derive(Debug, Clone)]
enum Store {
    Inline { buf: [Posting; INLINE_CAP], len: u8 },
    Heap(Vec<Posting>),
}

const ZERO_POSTING: Posting = Posting {
    id: SetId(0),
    len: 0.0,
};

impl Store {
    /// Empty heap store (the unbuilt / not-applicable placeholder).
    fn empty() -> Self {
        Store::Heap(Vec::new())
    }

    /// Inline when the postings fit, heap otherwise (a *forced* inline
    /// representation on an oversized list spills to the heap but keeps
    /// the inline access paths).
    fn inline_or_heap(v: Vec<Posting>) -> Self {
        if v.len() <= INLINE_CAP {
            let mut buf = [ZERO_POSTING; INLINE_CAP];
            buf[..v.len()].copy_from_slice(&v);
            Store::Inline {
                buf,
                len: v.len() as u8,
            }
        } else {
            Store::Heap(v)
        }
    }

    fn as_slice(&self) -> &[Posting] {
        match self {
            Store::Inline { buf, len } => &buf[..*len as usize],
            Store::Heap(v) => v,
        }
    }
}

/// A token's inverted list behind one of the three [`ReprKind`]
/// representations. The `(len, id)`-ordered postings are always
/// materialized (every algorithm's sorted access reads that order); the
/// representations differ in the auxiliary structures answering seeks,
/// membership probes, and id-order enumeration.
pub struct PostingList {
    repr: ReprKind,
    /// Sorted by `(len, id)` ascending — equivalently by descending
    /// per-token contribution `w`, the order TA/NRA-style algorithms need.
    by_len: Store,
    /// Sorted by id ascending, for the multiway merge baseline. Empty if
    /// not built or if the bitmap enumerates ids instead.
    by_id: Store,
    /// id membership for random access ([`ReprKind::Run`]).
    hash: Option<ExtendibleHashMap<u32, ()>>,
    /// Dense id membership + id-order enumeration ([`ReprKind::Bitmap`]).
    bitmap: Option<DenseBitmap>,
    /// The skip layer ([`ReprKind::Run`] and [`ReprKind::Bitmap`]): the
    /// `(len_bits, id)` key of every `skip_stride`-th posting of
    /// `by_len`, fence `j` sitting at offset `j · stride`. The run ascends
    /// by `len`, so each fence bounds its block's best contribution
    /// weight (`w = idf²/(len·len_q)` falls as `len` grows).
    fences: Option<BlockMaxIndex<(u64, u32)>>,
}

/// Id-ordered view of a list for the sort-by-id merge: a materialized
/// id-sorted slice, or the bitmap's ascending set bits (lengths come from
/// the index's length table — identical bits, because every posting is
/// constructed from that same table).
pub enum IdPostings<'a> {
    /// Materialized id-sorted postings.
    Slice(&'a [Posting]),
    /// Dense bitmap; enumerate with [`DenseBitmap::iter`].
    Bitmap(&'a DenseBitmap),
}

impl PostingList {
    /// The representation this list was built into.
    pub fn repr(&self) -> ReprKind {
        self.repr
    }

    /// Postings in ascending `(len, id)` order.
    pub fn postings(&self) -> &[Posting] {
        self.by_len.as_slice()
    }

    /// Postings in ascending id order (empty unless built; always empty
    /// for [`ReprKind::Bitmap`], which enumerates via
    /// [`id_postings`](Self::id_postings) instead).
    pub fn postings_by_id(&self) -> &[Posting] {
        self.by_id.as_slice()
    }

    /// Id-ordered view for the merge baseline, or `None` if the index
    /// was built without id-sorted lists (and this list is not a bitmap,
    /// which needs no copy).
    pub fn id_postings(&self) -> Option<IdPostings<'_>> {
        if let Some(bm) = &self.bitmap {
            return Some(IdPostings::Bitmap(bm));
        }
        if self.by_id.as_slice().len() == self.len() {
            return Some(IdPostings::Slice(self.by_id.as_slice()));
        }
        None
    }

    /// The dense bitmap, when this list is [`ReprKind::Bitmap`].
    pub fn bitmap(&self) -> Option<&DenseBitmap> {
        self.bitmap.as_ref()
    }

    /// List length.
    pub fn len(&self) -> usize {
        self.by_len.as_slice().len()
    }

    /// True if the list is empty (never for an indexed token).
    pub fn is_empty(&self) -> bool {
        self.by_len.as_slice().is_empty()
    }

    /// Random-access membership probe (one simulated page I/O). Inline
    /// lists scan their few postings, bitmap lists test one bit, run
    /// lists consult the extendible hash.
    ///
    /// # Panics
    /// Panics if this is a [`ReprKind::Run`] list and the index was built
    /// without hash indexes; `execute_into` rejects a TA/iTA request over
    /// such a list as `SearchError::Unsupported` first.
    #[allow(clippy::panic)] // why: the contract is the `# Panics` section above
    pub fn contains_id(&self, id: SetId, stats: &mut SearchStats) -> bool {
        stats.random_probes += 1;
        match self.repr {
            ReprKind::Inline => self.by_len.as_slice().iter().any(|p| p.id == id),
            ReprKind::Bitmap => match &self.bitmap {
                Some(bm) => bm.contains(id.0),
                None => unreachable!("bitmap representation always carries its bitmap"),
            },
            ReprKind::Run => {
                let Some(hash) = self.hash.as_ref() else {
                    panic!("random access requires build_hash_indexes")
                };
                hash.contains_key(&id.0)
            }
        }
    }

    /// True if this list supports random access ([`contains_id`]
    /// will not panic). Inline and bitmap lists always do.
    ///
    /// [`contains_id`]: Self::contains_id
    pub fn supports_random_access(&self) -> bool {
        !matches!(self.repr, ReprKind::Run) || self.hash.is_some()
    }

    /// True if this list carries an extendible-hash id index.
    pub fn has_hash_index(&self) -> bool {
        self.hash.is_some()
    }

    /// Offset of the first posting with `len ≥ min_len`.
    ///
    /// With `use_skip` the seek jumps via the list's fence keys to the
    /// last fence below `min_len`: bypassed postings are counted as
    /// `elements_skipped` and only the ≤ stride postings walked after the
    /// jump count as reads. Without it (or on inline lists, which carry
    /// no fences), the prefix is scanned and discarded, every entry
    /// counting as a read — exactly the contrast Figure 9 measures.
    pub fn seek_len(&self, min_len: f64, use_skip: bool, stats: &mut SearchStats) -> usize {
        let postings = self.by_len.as_slice();
        let mut off = 0usize;
        // Lengths are positive, so nothing lies below a target ≤ 0; the
        // guard also keeps a negative target, whose bits sort above every
        // length, from jumping.
        if use_skip && min_len > 0.0 {
            if let Some(fences) = &self.fences {
                off = fences.seek_start((min_len.to_bits(), 0));
                stats.elements_skipped += off as u64;
            }
        }
        while off < postings.len() && postings[off].len < min_len {
            off += 1;
            stats.elements_read += 1;
        }
        off
    }

    /// Offset of the first posting at `from` or later whose `(len, id)`
    /// key is `≥ (len, id)` — the candidate-jump seek behind the block
    /// skipping of SF and iNRA (`AlgoConfig::block_skip`).
    ///
    /// With `use_skip`, the skip layer jumps over whole blocks (charged
    /// to `elements_skipped`) and the remainder is galloped: inspected
    /// postings are charged to `elements_read`, leapt ones to
    /// `elements_skipped`, and the two never double-count — each bypassed
    /// posting is charged exactly once, so
    /// `elements_read + elements_skipped ≤ total_list_elements` holds
    /// across any single pass. Without `use_skip` the gap is walked
    /// element by element, every posting counting as a read.
    pub fn seek_key(
        &self,
        from: usize,
        len: f64,
        id: SetId,
        use_skip: bool,
        stats: &mut SearchStats,
    ) -> usize {
        let postings = self.by_len.as_slice();
        let target = (len.to_bits(), id.0);
        let mut off = from.min(postings.len());
        if !use_skip {
            while off < postings.len() && (postings[off].len.to_bits(), postings[off].id.0) < target
            {
                off += 1;
                stats.elements_read += 1;
            }
            return off;
        }
        if len > 0.0 {
            if let Some(fences) = &self.fences {
                // Bitmap lists keep their len-only seek granularity (id
                // 0): seeking them by the full key would move counters.
                let fence_id = if self.repr == ReprKind::Bitmap {
                    0
                } else {
                    id.0
                };
                let start = fences.seek_start((len.to_bits(), fence_id));
                if start > off {
                    stats.elements_skipped += (start - off) as u64;
                    off = start;
                }
            }
        }
        let (idx, probes) = setsim_collections::gallop_seek_by(postings, off, |p| {
            (p.len.to_bits(), p.id.0) < target
        });
        // Exact-element accounting: of the `idx - off` postings advanced
        // past, charge the inspected ones as reads (capped by the span so
        // revisited binary-search probes cannot over-count) and the rest
        // as skipped.
        let span = idx - off;
        let reads = span.min(usize::try_from(probes).unwrap_or(usize::MAX));
        stats.elements_read += reads as u64;
        stats.elements_skipped += (span - reads) as u64;
        idx
    }

    /// Footprint of the weight-sorted list under the delta+varint codec
    /// (`setsim_collections::codec`): what this list would occupy on disk
    /// compressed, with seekability preserved by per-block skip keys.
    pub fn compressed_size_bytes(&self) -> usize {
        let entries: Vec<setsim_collections::CodecEntry> = self
            .by_len
            .as_slice()
            .iter()
            .map(|p| setsim_collections::CodecEntry {
                key: p.len.to_bits(),
                id: p.id.0,
            })
            .collect();
        setsim_collections::CompressedList::build(&entries, 128).size_bytes()
    }

    /// Sizes of the list's components in bytes:
    /// `(postings incl. bitmap, skip layer, hash)`. Postings count both
    /// sort orders if built; the bitmap's words and popcount directory
    /// count as postings, the fence keys as skip layer.
    pub fn size_bytes(&self) -> (usize, usize, usize) {
        let posting = std::mem::size_of::<Posting>();
        let lists = (self.by_len.as_slice().len() + self.by_id.as_slice().len()) * posting
            + self.bitmap.as_ref().map_or(0, DenseBitmap::size_bytes);
        let skip = self.fences.as_ref().map_or(0, BlockMaxIndex::size_bytes);
        let hash = self
            .hash
            .as_ref()
            .map_or(0, setsim_collections::ExtendibleHashMap::size_bytes);
        (lists, skip, hash)
    }
}

/// How an [`InvertedIndex`] holds its collection: borrowed from the
/// caller (the in-memory build path) or owned outright (the snapshot
/// load path, which has no caller to borrow from).
enum CollectionHandle<'c> {
    Borrowed(&'c SetCollection),
    Owned(Box<SetCollection>),
}

impl CollectionHandle<'_> {
    #[inline]
    fn get(&self) -> &SetCollection {
        match self {
            CollectionHandle::Borrowed(c) => c,
            CollectionHandle::Owned(c) => c,
        }
    }
}

/// Derive the representation and auxiliary structures of one list from
/// its `(len, id)`-sorted postings. Shared by [`InvertedIndex::build`]
/// and the snapshot load path so both produce bit-identical lists: the
/// selected [`ReprKind`] is a pure function of `(list length,
/// num_records, policy)`, and the id-sorted copy, the fence keys (one per
/// stride), the extendible-hash id index and the dense bitmap are all
/// deterministic functions of the sorted postings alone.
///
/// # Panics
///
/// Panics if the collection holds more than `u32::MAX` records — the
/// bitmap universe (like [`SetId`] itself) is a `u32`.
fn assemble_list(by_len: Vec<Posting>, options: &IndexOptions, num_records: usize) -> PostingList {
    let repr = select_repr(by_len.len(), num_records, options.repr_policy);
    let stride = options.skip_stride.max(1);
    let mut list = PostingList {
        repr,
        by_len: Store::empty(),
        by_id: Store::empty(),
        hash: None,
        bitmap: None,
        fences: None,
    };
    if options.build_skip_lists && repr != ReprKind::Inline {
        list.fences = Some(BlockMaxIndex::build(
            by_len.iter().map(|p| (p.len.to_bits(), p.id.0)),
            stride,
        ));
    }
    match repr {
        ReprKind::Inline => {
            // No auxiliary structures: seeks and probes walk the few
            // postings directly.
            if options.build_id_sorted_lists {
                let mut v = by_len.clone();
                v.sort_by_key(|p| p.id);
                list.by_id = Store::inline_or_heap(v);
            }
            list.by_len = Store::inline_or_heap(by_len);
        }
        ReprKind::Run => {
            if options.build_id_sorted_lists {
                let mut v = by_len.clone();
                v.sort_by_key(|p| p.id);
                list.by_id = Store::Heap(v);
            }
            if options.build_hash_indexes {
                let mut h = ExtendibleHashMap::new(options.hash_bucket_capacity);
                for p in &by_len {
                    h.insert(p.id.0, ());
                }
                list.hash = Some(h);
            }
            list.by_len = Store::Heap(by_len);
        }
        ReprKind::Bitmap => {
            // The bitmap subsumes both the hash index (bit-test
            // membership) and the id-sorted copy (ascending set-bit
            // enumeration).
            let mut ids: Vec<u32> = by_len.iter().map(|p| p.id.0).collect();
            ids.sort_unstable();
            // why: SetId is a u32, so a collection cannot exceed u32::MAX
            // records; documented in `# Panics`.
            #[allow(clippy::expect_used)]
            let universe = u32::try_from(num_records).expect("more than u32::MAX records");
            list.bitmap = Some(DenseBitmap::from_sorted_ids(&ids, universe));
            list.by_len = Store::Heap(by_len);
        }
    }
    list
}

/// `(len, id)` ascending: the order every list is stored in.
fn sort_by_len_id(postings: &mut [Posting]) {
    postings.sort_by(|a, b| a.len.total_cmp(&b.len).then(a.id.cmp(&b.id)));
}

/// Invert `collection`: every token's postings, in set-id order (callers
/// sort each list with [`sort_by_len_id`] as they consume it).
fn raw_lists(collection: &SetCollection, lengths: &[f64]) -> HashMap<Token, Vec<Posting>> {
    let mut raw: HashMap<Token, Vec<Posting>> = HashMap::new();
    for (id, set) in collection.iter_sets() {
        let len = lengths[id.index()];
        for t in set.iter() {
            raw.entry(t).or_default().push(Posting { id, len });
        }
    }
    raw
}

/// Assemble each decoded payload into `lists`, returning the postings
/// added. Id-only payloads (bitmap pages carry no lengths) get their
/// lengths from `lengths` — the table every built posting is constructed
/// from — and are sorted into `(len, id)` order first.
fn insert_lists(
    lists: &mut HashMap<Token, PostingList>,
    sorted_lists: Vec<(Token, ListPayload)>,
    options: &IndexOptions,
    lengths: &[f64],
) -> u64 {
    let mut total_postings = 0u64;
    for (token, payload) in sorted_lists {
        let postings = match payload {
            ListPayload::Postings(p) => p,
            ListPayload::Ids(ids) => {
                let mut p: Vec<Posting> = ids
                    .into_iter()
                    .map(|id| Posting {
                        id: SetId(id),
                        len: lengths[id as usize],
                    })
                    .collect();
                sort_by_len_id(&mut p);
                p
            }
        };
        total_postings += postings.len() as u64;
        lists.insert(token, assemble_list(postings, options, lengths.len()));
    }
    total_postings
}

/// The inverted-list index of Section III-B.
///
/// One [`PostingList`] per token, each sorted by increasing set length —
/// which, because `len(q)` and `idf(qⁱ)` are constant per list, is exactly
/// decreasing contribution order `w`, making the lists directly usable by
/// TA/NRA-style algorithms.
pub struct InvertedIndex<'c> {
    collection: CollectionHandle<'c>,
    options: IndexOptions,
    weights: TokenWeights,
    lengths: Vec<f64>,
    lists: HashMap<Token, PostingList>,
    total_postings: u64,
}

impl<'c> InvertedIndex<'c> {
    /// Build the index over `collection`.
    pub fn build(collection: &'c SetCollection, options: IndexOptions) -> Self {
        let weights = TokenWeights::compute(collection);
        let lengths: Vec<f64> = collection
            .iter_sets()
            .map(|(_, s)| weights.set_length(s))
            .collect();

        let raw = raw_lists(collection, &lengths);

        let mut total_postings = 0u64;
        let mut lists = HashMap::with_capacity(raw.len());
        for (token, mut postings) in raw {
            total_postings += postings.len() as u64;
            sort_by_len_id(&mut postings);
            lists.insert(token, assemble_list(postings, &options, lengths.len()));
        }

        Self {
            collection: CollectionHandle::Borrowed(collection),
            options,
            weights,
            lengths,
            lists,
            total_postings,
        }
    }

    /// Build the index around an **owned** collection. The result borrows
    /// nothing (`'static`), so it can live inside long-lived serving
    /// structures — this is how the segment layer
    /// ([`MutableIndex`](crate::segment::MutableIndex)) materializes its
    /// immutable base segment. Construction is bit-identical to
    /// [`build`](Self::build): same weight computation, same
    /// `(len, id)`-sorted lists, same auxiliary structures.
    pub fn build_owned(
        collection: Box<SetCollection>,
        options: IndexOptions,
    ) -> InvertedIndex<'static> {
        let weights = TokenWeights::compute(&collection);
        Self::build_owned_with_weights(collection, options, weights)
    }

    /// [`build_owned`](Self::build_owned) with an explicit weight table
    /// instead of one computed from `collection`. This is the sharded
    /// build path: each shard indexes only its own sub-collection but
    /// must score with the *global* idf table, or per-shard scores (and
    /// therefore the merged result set) would drift from the unsharded
    /// index. `weights` must cover `collection`'s dictionary.
    pub(crate) fn build_owned_with_weights(
        collection: Box<SetCollection>,
        options: IndexOptions,
        weights: TokenWeights,
    ) -> InvertedIndex<'static> {
        let lengths: Vec<f64> = collection
            .iter_sets()
            .map(|(_, s)| weights.set_length(s))
            .collect();
        let raw = raw_lists(&collection, &lengths);
        let mut sorted_lists: Vec<(Token, ListPayload)> = raw
            .into_iter()
            .map(|(t, mut postings)| {
                sort_by_len_id(&mut postings);
                (t, ListPayload::Postings(postings))
            })
            .collect();
        sorted_lists.sort_by_key(|(t, _)| *t);
        Self::assemble_owned_with_weights(collection, options, sorted_lists, weights)
    }

    /// Reassemble an index around an owned collection from decoded
    /// list payloads (the snapshot load path). Weights, set lengths, and
    /// every per-list auxiliary structure are recomputed with the same
    /// deterministic code the build path uses, so a loaded index is
    /// bit-identical to the one that was saved. Id-only payloads (bitmap
    /// pages carry no lengths) get their lengths from the recomputed
    /// length table — the same table every built posting is constructed
    /// from.
    pub(crate) fn assemble_owned(
        collection: Box<SetCollection>,
        options: IndexOptions,
        sorted_lists: Vec<(Token, ListPayload)>,
    ) -> InvertedIndex<'static> {
        let weights = TokenWeights::compute(&collection);
        Self::assemble_owned_with_weights(collection, options, sorted_lists, weights)
    }

    /// [`assemble_owned`](Self::assemble_owned) with an explicit weight
    /// table (the sharded snapshot-load path: a reopened shard must score
    /// with the global df table stored in the shard manifest, not one
    /// recomputed from its own sub-collection).
    pub(crate) fn assemble_owned_with_weights(
        collection: Box<SetCollection>,
        options: IndexOptions,
        sorted_lists: Vec<(Token, ListPayload)>,
        weights: TokenWeights,
    ) -> InvertedIndex<'static> {
        let lengths: Vec<f64> = collection
            .iter_sets()
            .map(|(_, s)| weights.set_length(s))
            .collect();
        let mut lists = HashMap::with_capacity(sorted_lists.len());
        let total_postings = insert_lists(&mut lists, sorted_lists, &options, &lengths);
        InvertedIndex {
            collection: CollectionHandle::Owned(collection),
            options,
            weights,
            lengths,
            lists,
            total_postings,
        }
    }

    /// Swap in a fresh set of decoded list payloads, dropping whatever
    /// lists were present. The paged engine's per-query path: collection,
    /// weights, lengths, and options stay fixed (they came from the
    /// snapshot footer once, at open), while the lists hold only the
    /// current query's Theorem 1 windows. Assembly is the same
    /// deterministic [`assemble_list`] the build and load paths use.
    pub(crate) fn replace_lists(&mut self, sorted_lists: Vec<(Token, ListPayload)>) {
        self.lists.clear();
        self.total_postings =
            insert_lists(&mut self.lists, sorted_lists, &self.options, &self.lengths);
    }

    /// Persist this index as a page-structured, checksummed snapshot file
    /// (see `setsim-storage::snapshot` for the container layout and
    /// DESIGN.md §10 for the full format). Load it back with
    /// [`InvertedIndex::load`] or serve it directly via
    /// [`QueryEngine::open`](crate::QueryEngine::open).
    ///
    /// Fails with [`SnapshotError::Unsupported`] if the collection's
    /// tokenizer has no serializable [`TokenizerSpec`]
    /// (see [`setsim_tokenize::Tokenizer::spec`]).
    ///
    /// [`SnapshotError::Unsupported`]: crate::SnapshotError::Unsupported
    /// [`TokenizerSpec`]: setsim_tokenize::TokenizerSpec
    pub fn save(&self, path: &std::path::Path) -> Result<(), crate::SnapshotError> {
        crate::snapshot::save_index(self, path, crate::snapshot::DEFAULT_PAGE_SIZE)
    }

    /// Like [`save`](Self::save) with an explicit page size (tests and
    /// experiments; the default is
    /// [`DEFAULT_PAGE_SIZE`](crate::snapshot::DEFAULT_PAGE_SIZE)).
    pub fn save_with_page_size(
        &self,
        path: &std::path::Path,
        page_size: usize,
    ) -> Result<(), crate::SnapshotError> {
        crate::snapshot::save_index(self, path, page_size)
    }

    /// Load an index previously written by [`save`](Self::save). The
    /// returned index owns its collection (`'static`), so it can outlive
    /// the call site — the cold-start path behind
    /// [`QueryEngine::open`](crate::QueryEngine::open).
    ///
    /// Every failure mode is a typed [`SnapshotError`]
    /// (bad magic, version mismatch, checksum failure, truncation,
    /// malformed contents); hostile bytes never panic.
    ///
    /// [`SnapshotError`]: crate::SnapshotError
    pub fn load(path: &std::path::Path) -> Result<InvertedIndex<'static>, crate::SnapshotError> {
        crate::snapshot::load_index(path)
    }

    /// The collection this index covers.
    pub fn collection(&self) -> &SetCollection {
        self.collection.get()
    }

    /// Build options used.
    pub fn options(&self) -> &IndexOptions {
        &self.options
    }

    /// Token weights (idf table).
    pub fn weights(&self) -> &TokenWeights {
        &self.weights
    }

    /// `len(s)` for set `id`.
    #[inline]
    pub fn set_len(&self, id: SetId) -> f64 {
        self.lengths[id.index()]
    }

    /// The inverted list of `token`, if the token occurs in the database.
    pub fn list(&self, token: Token) -> Option<&PostingList> {
        self.lists.get(&token)
    }

    /// The inverted list of a prepared-query token. Prepared queries only
    /// retain tokens with lists ([`prepare_query`](Self::prepare_query)
    /// filters the rest), so algorithms use this instead of unwrapping
    /// [`list`](Self::list) at every site.
    ///
    /// # Panics
    /// Panics if `token` has no list — i.e. the query was prepared
    /// against a different index. `engine::execute_into` refuses such a
    /// query as `SearchError::ForeignQuery` before any algorithm runs.
    #[allow(clippy::panic)] // why: the contract is the `# Panics` section above
    pub(crate) fn query_list(&self, token: Token) -> &PostingList {
        let Some(list) = self.lists.get(&token) else {
            panic!("prepared-query token {token:?} has no inverted list; was the query prepared against this index?")
        };
        list
    }

    /// Iterate `(token, list)` pairs in unspecified order (snapshot save
    /// sorts by token id for a deterministic file).
    pub(crate) fn iter_lists(&self) -> impl Iterator<Item = (Token, &PostingList)> {
        self.lists.iter().map(|(t, l)| (*t, l))
    }

    /// Number of distinct indexed tokens.
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Total postings across all lists.
    pub fn total_postings(&self) -> u64 {
        self.total_postings
    }

    /// Prepare a query from an already-tokenized set plus a count of
    /// tokens that are not in the database dictionary.
    pub fn prepare_query(&self, known: &TokenSet, unknown_tokens: usize) -> PreparedQuery {
        let toks: Vec<QueryToken> = known
            .iter()
            .filter(|t| self.lists.contains_key(t))
            .map(|t| {
                let idf = self.weights.idf(t);
                QueryToken {
                    token: t,
                    idf,
                    idf_sq: idf * idf,
                }
            })
            .collect();
        let unseen = self.weights.unseen_idf();
        // Tokens in the dictionary but absent from every set (possible if
        // the dictionary was shared) behave like unknown tokens.
        let dictionary_only = known.len() - toks.len();
        let unknown_mass = (unknown_tokens + dictionary_only) as f64 * unseen * unseen;
        PreparedQuery::assemble(toks, unknown_mass)
    }

    /// Tokenize `text` with the collection's tokenizer and prepare it.
    pub fn prepare_query_str(&self, text: &str) -> PreparedQuery {
        let (known, unknown) = self.collection.get().tokenize_query(text);
        self.prepare_query(&known, unknown)
    }

    /// Total postings across the lists of `query` (the pruning-power
    /// denominator of Figure 7).
    pub fn query_list_elements(&self, query: &PreparedQuery) -> u64 {
        query
            .tokens
            .iter()
            .filter_map(|t| self.lists.get(&t.token))
            .map(|l| l.len() as u64)
            .sum()
    }

    /// What all weight-sorted lists would occupy compressed on disk
    /// (delta + varint blocks; see [`PostingList::compressed_size_bytes`]).
    pub fn compressed_lists_bytes(&self) -> usize {
        self.lists
            .values()
            .map(PostingList::compressed_size_bytes)
            .sum()
    }

    /// Index size breakdown in bytes:
    /// `(inverted lists, skip lists, hash indexes)`.
    pub fn size_bytes(&self) -> (usize, usize, usize) {
        let mut lists = 0;
        let mut skip = 0;
        let mut hash = 0;
        for l in self.lists.values() {
            let (a, b, c) = l.size_bytes();
            lists += a;
            skip += b;
            hash += c;
        }
        (lists, skip, hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectionBuilder;
    use setsim_tokenize::QGramTokenizer;

    fn index_of(texts: &[&str], options: IndexOptions) -> (SetCollection, IndexOptions) {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        (b.build(), options)
    }

    #[test]
    fn lists_cover_every_posting() {
        let (c, o) = index_of(&["abcd", "bcde", "abce"], IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        let total: u64 = idx.lists.values().map(|l| l.len() as u64).sum();
        let expect: u64 = c.iter_sets().map(|(_, s)| s.len() as u64).sum();
        assert_eq!(total, expect);
        assert_eq!(idx.total_postings(), expect);
    }

    #[test]
    fn lists_sorted_by_len_then_id() {
        let (c, o) = index_of(
            &["abcd", "abcdefgh", "abc", "abcdef"],
            IndexOptions::default(),
        );
        let idx = InvertedIndex::build(&c, o);
        for l in idx.lists.values() {
            let p = l.postings();
            for w in p.windows(2) {
                assert!(
                    w[0].len < w[1].len || (w[0].len == w[1].len && w[0].id < w[1].id),
                    "list out of order"
                );
            }
        }
    }

    #[test]
    fn by_id_lists_sorted() {
        let (c, o) = index_of(&["abcd", "bcda", "cdab"], IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        for l in idx.lists.values() {
            let p = l.postings_by_id();
            assert_eq!(p.len(), l.len());
            for w in p.windows(2) {
                assert!(w[0].id < w[1].id);
            }
        }
    }

    #[test]
    fn posting_lengths_match_weights() {
        let (c, o) = index_of(&["abcd", "wxyz"], IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        for l in idx.lists.values() {
            for p in l.postings() {
                assert_eq!(p.len, idx.set_len(p.id));
                let expect = idx.weights().set_length(c.set(p.id));
                assert_eq!(p.len, expect);
            }
        }
    }

    #[test]
    fn seek_len_with_and_without_skip() {
        // Prefixes of a non-repeating sequence: every string has a distinct
        // gram set and therefore a distinct length.
        let seq = "abcdefghijklmnopqrstuvwxyz".repeat(4);
        let texts: Vec<String> = (3..90).map(|i| seq[..i].to_string()).collect();
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let (c, o) = index_of(&refs, IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        // Token "abc" occurs in every string; pick its list.
        let t = c.dict().get("abc").unwrap();
        let l = idx.list(t).unwrap();
        let target = l.postings()[l.len() / 2].len;

        let mut with = SearchStats::default();
        let off_skip = l.seek_len(target, true, &mut with);
        let mut without = SearchStats::default();
        let off_lin = l.seek_len(target, false, &mut without);
        assert_eq!(off_skip, off_lin, "seek must land on the same posting");
        assert!(l.postings()[off_skip].len >= target);
        if off_skip > 0 {
            assert!(l.postings()[off_skip - 1].len < target);
        }
        assert!(with.elements_read < without.elements_read);
        assert!(with.elements_skipped > 0);
        assert_eq!(without.elements_read as usize, off_lin);
    }

    #[test]
    fn seek_len_past_end() {
        let (c, o) = index_of(&["abcd", "bcde"], IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        let t = c.dict().get("abc").unwrap();
        let l = idx.list(t).unwrap();
        let mut stats = SearchStats::default();
        assert_eq!(l.seek_len(f64::MAX, true, &mut stats), l.len());
    }

    #[test]
    fn hash_membership() {
        let (c, o) = index_of(&["abcd", "bcde", "cdef"], IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        let t = c.dict().get("bcd").unwrap();
        let l = idx.list(t).unwrap();
        let mut stats = SearchStats::default();
        assert!(l.contains_id(SetId(0), &mut stats)); // "abcd" has bcd
        assert!(l.contains_id(SetId(1), &mut stats)); // "bcde" has bcd
        assert!(!l.contains_id(SetId(2), &mut stats)); // "cdef" lacks bcd
        assert_eq!(stats.random_probes, 3);
    }

    #[test]
    fn prepare_query_drops_unknown_but_keeps_mass() {
        let (c, o) = index_of(&["abcdef"], IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        let clean = idx.prepare_query_str("abcdef");
        let dirty = idx.prepare_query_str("abcxyz");
        assert!(dirty.num_lists() < clean.num_lists());
        assert!(!dirty.is_empty());
        // Unknown grams still weigh the query down.
        assert!(dirty.len > dirty.idf_sq_total.sqrt());
    }

    #[test]
    fn prepare_query_orders_by_idf_desc() {
        let (c, o) = index_of(&["abcd", "abce", "abcf", "zzzz"], IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        let q = idx.prepare_query_str("abcdzzzz");
        for w in q.tokens.windows(2) {
            assert!(w[0].idf >= w[1].idf);
        }
    }

    #[test]
    fn empty_query_prepares_empty() {
        let (c, o) = index_of(&["abcd"], IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        let q = idx.prepare_query_str("");
        assert!(q.is_empty() || q.num_lists() == 0);
    }

    #[test]
    fn options_disable_structures() {
        let (c, _) = index_of(&["abcd", "bcde"], IndexOptions::default());
        let lean = IndexOptions {
            build_skip_lists: false,
            build_hash_indexes: false,
            build_id_sorted_lists: false,
            ..IndexOptions::default()
        };
        let idx = InvertedIndex::build(&c, lean);
        for l in idx.lists.values() {
            assert!(l.postings_by_id().is_empty());
            assert!(!l.has_hash_index());
            let (_, skip, hash) = l.size_bytes();
            assert_eq!(skip, 0);
            assert_eq!(hash, 0);
        }
    }

    #[test]
    fn compressed_lists_round_trip_and_shrink() {
        let texts: Vec<String> = (0..300).map(|i| format!("record number {i:05}")).collect();
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let (c, o) = index_of(&refs, IndexOptions::default());
        let idx = InvertedIndex::build(&c, o);
        // Round trip one list through the codec and compare.
        let t = c.dict().get("rec").unwrap();
        let list = idx.list(t).unwrap();
        let entries: Vec<setsim_collections::CodecEntry> = list
            .postings()
            .iter()
            .map(|p| setsim_collections::CodecEntry {
                key: p.len.to_bits(),
                id: p.id.0,
            })
            .collect();
        let compressed = setsim_collections::CompressedList::build(&entries, 64);
        assert_eq!(compressed.decode_all(), entries);
        // Aggregate: compression must beat the raw 16-byte postings. The
        // f64 length bit patterns make deltas large, so the win is modest
        // but must exist.
        let (raw_both_orders, _, _) = idx.size_bytes();
        assert!(idx.compressed_lists_bytes() < raw_both_orders / 2);
    }

    #[test]
    fn size_breakdown_nonzero() {
        // Force the run representation: adaptively these tiny lists all go
        // inline, which carries no skip or hash structure at all.
        let (c, o) = index_of(
            &["abcd", "bcde", "cdef", "defg"],
            IndexOptions::default().with_repr_policy(ReprPolicy::Force(ReprKind::Run)),
        );
        let idx = InvertedIndex::build(&c, o);
        let (lists, skip, hash) = idx.size_bytes();
        assert!(lists > 0);
        assert!(skip > 0);
        assert!(hash > 0);
    }
}
