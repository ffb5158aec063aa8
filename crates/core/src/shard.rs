//! Length-banded sharding: the N-way scale-out generalization of the
//! segment layer's base+delta layout.
//!
//! Theorem 1 (Length Boundedness) says a record can only match a query
//! `q` at threshold `τ` if its normalized length lies in
//! `[τ·len(q), len(q)/τ]`. The single-index algorithms exploit this *per
//! posting list* (skip-list seeks to the window start); a
//! [`ShardedIndex`] exploits it *per partition*: records are split into
//! N contiguous **length bands** (boundaries chosen from the length
//! histogram so shards hold roughly equal record counts), each band an
//! independent [`InvertedIndex`] over its own sub-collection. At query
//! time the band table is consulted first, so every shard whose whole
//! band falls outside the window is skipped without touching a single
//! posting — charged to [`SearchStats::shards_pruned`] and
//! [`SearchStats::shard_pruned_elements`].
//!
//! # Bit-identical results
//!
//! Three invariants make the scatter-gather result set bit-identical to
//! the unsharded index (enforced by `tests/shard_equivalence.rs`):
//!
//! 1. **Global weights.** Every shard is built with the corpus-global
//!    document-frequency table ([`TokenWeights::from_doc_freqs`]), so
//!    idf values, set lengths, and therefore scores are the exact bits
//!    the unsharded index computes.
//! 2. **Order-preserving query filtering.** A shard sees the global
//!    prepared query restricted to tokens that have lists in it. Every
//!    token shared between the query and any record of the shard
//!    survives the filter, and relative token order is preserved, so the
//!    per-candidate score sum visits the same terms in the same order.
//! 3. **A sound band bound.** For any record `s`,
//!    `I(q, s) ≤ min(len(q)/len(s), len(s)/len(q))`; maximizing over a
//!    band `[lo, hi]` gives the pruning bound used here, and a shard is
//!    only skipped when that bound is *safely below* (`safely_below`)
//!    `τ` — the prune slack every algorithm's bounds use, strictly below
//!    the pass line (DESIGN.md §1), so no passing match is lost to
//!    banding.

use crate::engine::{execute, Scratch};
use crate::{
    IndexOptions, InvertedIndex, Match, PreparedQuery, QueryToken, SearchError, SearchOutcome,
    SearchRequest, SearchStats, SearchStatus, SetCollection, SetId, SnapshotError, TokenWeights,
};
use setsim_storage::manifest::{
    sniff_manifest_magic, ManifestEntry, ShardEntry, ShardManifest, SHARD_MANIFEST_MAGIC,
};
use setsim_tokenize::{Dictionary, TokenMultiSet, TokenSet, TokenizerSpec};
use std::path::Path;

/// The closed interval of normalized set lengths one shard covers
/// (the actual min/max of its records, tighter than the planned cut
/// points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthBand {
    /// Smallest `len(s)` in the shard.
    pub min_len: f64,
    /// Largest `len(s)` in the shard.
    pub max_len: f64,
}

impl LengthBand {
    /// Upper bound on `I(q, s)` for any record `s` in this band, given
    /// `len(q)`. Derived from
    /// `Σ_{t ∈ q∩s} idf² ≤ min(len(q)², len(s)²)`, so
    /// `I ≤ min(len(q)/len(s), len(s)/len(q))`, maximized over the band:
    /// bands entirely below `len(q)` are capped by their upper edge,
    /// bands entirely above by their lower edge, straddling bands by 1.
    #[must_use]
    pub fn score_upper_bound(&self, len_q: f64) -> f64 {
        if len_q <= 0.0 {
            // Degenerate query (no known mass): nothing scores anyway;
            // never prune on its account.
            return 1.0;
        }
        if self.max_len < len_q {
            self.max_len / len_q
        } else if self.min_len > len_q {
            len_q / self.min_len
        } else {
            1.0
        }
    }

    /// False only when every set in this band scores *safely* below `tau`
    /// against a length-`len_q` query (Theorem 1, with the prune slack of
    /// DESIGN.md §1). The one length-window predicate: applied to a shard's
    /// band and to a snapshot block's fence-key band.
    pub(crate) fn may_reach(&self, len_q: f64, tau: f64) -> bool {
        !crate::safely_below(self.score_upper_bound(len_q), tau)
    }
}

/// One length band's independent index plus its local→global id map.
pub(crate) struct Shard {
    pub(crate) index: InvertedIndex<'static>,
    /// Global [`SetId`] of local record `i`, ascending.
    pub(crate) ids: Vec<SetId>,
    pub(crate) band: LengthBand,
}

/// Which shards a query must visit at a given threshold, plus the
/// band-pruning counters for everything it may skip.
pub(crate) struct ShardPlan {
    /// `(shard index, query filtered to that shard's lists)` for every
    /// surviving shard, ascending by shard index.
    pub(crate) surviving: Vec<(usize, PreparedQuery)>,
    /// Shards skipped outright by the band table.
    pub(crate) shards_pruned: u64,
    /// Query-list postings inside those skipped shards (counted from
    /// list metadata — no posting is read to compute this).
    pub(crate) shard_pruned_elements: u64,
}

/// Pick band boundaries from the sorted length histogram so shards hold
/// roughly equal record counts. Returns ascending cut points; record of
/// length `l` belongs to band `boundaries.partition_point(|b| b <= l)`.
/// Cut points are deduplicated and never equal the global minimum, so
/// ties stay in one band and no planned band is structurally empty
/// (requesting more shards than distinct lengths yields fewer bands).
pub(crate) fn plan_band_boundaries(lengths: &[f64], num_shards: usize) -> Vec<f64> {
    let shards = num_shards.max(1);
    if lengths.is_empty() || shards == 1 {
        return Vec::new();
    }
    let mut sorted = lengths.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut boundaries = Vec::with_capacity(shards - 1);
    for k in 1..shards {
        let cut = sorted[k * sorted.len() / shards];
        if cut > sorted[0] && boundaries.last().map_or(true, |&b| cut > b) {
            boundaries.push(cut);
        }
    }
    boundaries
}

/// A corpus partitioned into length-banded shards, searched by
/// band-resolve → scatter → gather. See the module docs for the design
/// and [`crate::engine::ShardedEngine`] for the parallel serving path.
pub struct ShardedIndex {
    /// Empty collection carrying the global dictionary + tokenizer (the
    /// query-tokenization side; no records live here).
    query_side: SetCollection,
    weights: TokenWeights,
    options: IndexOptions,
    num_records: usize,
    shards: Vec<Shard>,
}

impl ShardedIndex {
    /// Shard `collection` into (at most) `num_shards` length bands.
    /// Records are copied; prefer [`build_owned`](Self::build_owned) or
    /// [`build_streaming`](Self::build_streaming) when the collection
    /// can be consumed.
    ///
    /// Fails with [`SnapshotError::Unsupported`] if the collection's
    /// tokenizer has no serializable spec (each shard needs its own
    /// tokenizer instance, and [`save`](Self::save) needs the spec
    /// regardless).
    pub fn build(
        collection: &SetCollection,
        num_shards: usize,
        options: IndexOptions,
    ) -> Result<Self, SnapshotError> {
        let spec = spec_of(collection)?;
        Ok(Self::from_tokenized(
            &spec,
            collection.dict().clone(),
            collection.texts().to_vec(),
            collection.multisets().to_vec(),
            num_shards,
            options,
        ))
    }

    /// Like [`build`](Self::build), but consume the collection and
    /// *move* its records into the shard sub-collections — the corpus is
    /// held once, never duplicated.
    pub fn build_owned(
        collection: SetCollection,
        num_shards: usize,
        options: IndexOptions,
    ) -> Result<Self, SnapshotError> {
        let spec = spec_of(&collection)?;
        let (_tokenizer, dict, texts, multisets) = collection.into_parts();
        Ok(Self::from_tokenized(
            &spec, dict, texts, multisets, num_shards, options,
        ))
    }

    /// Build from a stream of record texts: one tokenize pass
    /// accumulates each record exactly once (text + token multiset) and
    /// the records are then *moved* into per-shard sub-collections. No
    /// global index is ever materialized and the corpus is never held
    /// twice — the ≥10M-record path of the `large` datagen cell.
    ///
    /// # Panics
    /// Panics if the stream outgrows the `u32` id space (the same
    /// contract as [`crate::CollectionBuilder::add`]).
    pub fn build_streaming<I>(
        spec: &TokenizerSpec,
        texts: I,
        num_shards: usize,
        options: IndexOptions,
    ) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let tokenizer = spec.build();
        let mut dict = Dictionary::new();
        let mut stored = Vec::new();
        let mut multisets = Vec::new();
        for text in texts {
            assert!(
                u32::try_from(stored.len()).is_ok(),
                "collection overflowed the u32 id space"
            );
            let ms = TokenMultiSet::tokenize(text.as_ref(), tokenizer.as_ref(), &mut dict);
            stored.push(text.as_ref().to_string());
            multisets.push(ms);
        }
        Self::from_tokenized(spec, dict, stored, multisets, num_shards, options)
    }

    /// The shared build core: compute global df/weights/lengths, plan
    /// band boundaries from the length histogram, then move each record
    /// into its band's sub-collection and build the per-shard indexes
    /// with the **global** weight table.
    fn from_tokenized(
        spec: &TokenizerSpec,
        dict: Dictionary,
        mut texts: Vec<String>,
        mut multisets: Vec<TokenMultiSet>,
        num_shards: usize,
        options: IndexOptions,
    ) -> Self {
        let num_records = texts.len();
        let mut df = vec![0u32; dict.len()];
        let mut lengths = Vec::with_capacity(num_records);
        let mut sets = Vec::with_capacity(num_records);
        for ms in &multisets {
            let set = ms.to_set();
            for t in set.iter() {
                df[t.index()] += 1;
            }
            sets.push(set);
        }
        let weights = TokenWeights::from_doc_freqs(num_records, df);
        for set in &sets {
            lengths.push(weights.set_length(set));
        }
        drop(sets);

        let boundaries = plan_band_boundaries(&lengths, num_shards);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); boundaries.len() + 1];
        for (i, &len) in lengths.iter().enumerate() {
            let band = boundaries.partition_point(|&b| b <= len);
            buckets[band].push(i as u32);
        }

        let mut shards = Vec::new();
        for bucket in &buckets {
            if bucket.is_empty() {
                continue;
            }
            shards.push(Self::build_shard(
                spec,
                &dict,
                &options,
                &weights,
                bucket,
                &lengths,
                &mut texts,
                &mut multisets,
            ));
        }
        if shards.is_empty() {
            // Empty corpus: keep one empty shard so the directory layout
            // (and the dictionary/options round trip) stays uniform.
            shards.push(Self::build_shard(
                spec,
                &dict,
                &options,
                &weights,
                &[],
                &lengths,
                &mut texts,
                &mut multisets,
            ));
        }

        let query_side = SetCollection::from_parts(spec.build(), dict, Vec::new(), Vec::new());
        Self {
            query_side,
            weights,
            options,
            num_records,
            shards,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_shard(
        spec: &TokenizerSpec,
        dict: &Dictionary,
        options: &IndexOptions,
        weights: &TokenWeights,
        bucket: &[u32],
        lengths: &[f64],
        texts: &mut [String],
        multisets: &mut [TokenMultiSet],
    ) -> Shard {
        let mut s_texts = Vec::with_capacity(bucket.len());
        let mut s_multisets = Vec::with_capacity(bucket.len());
        let mut min_len = f64::INFINITY;
        let mut max_len = 0.0f64;
        for &gid in bucket {
            let gi = gid as usize;
            s_texts.push(std::mem::take(&mut texts[gi]));
            s_multisets.push(std::mem::take(&mut multisets[gi]));
            min_len = min_len.min(lengths[gi]);
            max_len = max_len.max(lengths[gi]);
        }
        if bucket.is_empty() {
            min_len = 0.0;
        }
        let sub = SetCollection::from_parts(spec.build(), dict.clone(), s_texts, s_multisets);
        let index = InvertedIndex::build_owned_with_weights(
            Box::new(sub),
            options.clone(),
            weights.clone(),
        );
        Shard {
            index,
            ids: bucket.iter().map(|&g| SetId(g)).collect(),
            band: LengthBand { min_len, max_len },
        }
    }

    /// Number of shards (≤ the requested count: quantile ties collapse).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total records across all shards.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// The length band of every shard, ascending.
    #[must_use]
    pub fn bands(&self) -> Vec<LengthBand> {
        self.shards.iter().map(|s| s.band).collect()
    }

    /// The corpus-global weight table every shard scores with.
    #[must_use]
    pub fn weights(&self) -> &TokenWeights {
        &self.weights
    }

    /// Build options shared by every shard.
    #[must_use]
    pub fn options(&self) -> &IndexOptions {
        &self.options
    }

    /// Map a shard-local match back to its global [`SetId`].
    pub(crate) fn to_global(&self, shard: usize, m: Match) -> Match {
        Match {
            id: self.shards[shard].ids[m.id.index()],
            score: m.score,
        }
    }

    /// Original text of a record by global id (spans all shards).
    #[must_use]
    pub fn text(&self, id: SetId) -> Option<&str> {
        for shard in &self.shards {
            // ids are ascending per shard; binary search locates the
            // record's local id if this shard holds it.
            if let Ok(local) = shard.ids.binary_search(&id) {
                return shard.index.collection().text(SetId(local as u32));
            }
        }
        None
    }

    /// Prepare a query against the global dictionary and weight table —
    /// bit-identical to preparing it on the unsharded index (a token has
    /// a global inverted list iff its document frequency is nonzero).
    #[must_use]
    pub fn prepare_query(&self, known: &TokenSet, unknown_tokens: usize) -> PreparedQuery {
        let toks: Vec<QueryToken> = known
            .iter()
            .filter(|t| self.weights.df(*t) > 0)
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
        let dictionary_only = known.len() - toks.len();
        let unknown_mass = (unknown_tokens + dictionary_only) as f64 * unseen * unseen;
        PreparedQuery::assemble(toks, unknown_mass)
    }

    /// Tokenize `text` with the global tokenizer and prepare it.
    #[must_use]
    pub fn prepare_query_str(&self, text: &str) -> PreparedQuery {
        let (known, unknown) = self.query_side.tokenize_query(text);
        self.prepare_query(&known, unknown)
    }

    /// Resolve the band table: decide per shard whether its whole band is
    /// safely below `tau` (prune — counters only, no posting access) or
    /// must be searched (compute its filtered query).
    pub(crate) fn plan(&self, query: &PreparedQuery, tau: f64) -> ShardPlan {
        let mut surviving = Vec::new();
        let mut shards_pruned = 0u64;
        let mut shard_pruned_elements = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.band.may_reach(query.len, tau) {
                surviving.push((i, filter_query(&shard.index, query)));
            } else {
                shards_pruned += 1;
                // List lengths come from the shard's list directory —
                // metadata, not postings.
                shard_pruned_elements += shard.index.query_list_elements(query);
            }
        }
        ShardPlan {
            surviving,
            shards_pruned,
            shard_pruned_elements,
        }
    }

    /// Fold per-shard outcomes (in surviving-shard order) plus the
    /// plan's pruning counters into one global outcome: local ids are
    /// mapped through the shard id tables, stats are summed, the pruned
    /// shards' elements are added to both the denominator and the
    /// shard-pruned leg of the access partition, and the merged status
    /// is `BudgetExceeded` if any shard exceeded its (per-shard) budget.
    pub(crate) fn gather(
        &self,
        plan: &ShardPlan,
        outcomes: Vec<(usize, SearchOutcome)>,
    ) -> SearchOutcome {
        let mut results = Vec::new();
        let mut stats = SearchStats::default();
        let mut status = SearchStatus::Complete;
        for (shard, out) in outcomes {
            results.extend(out.results.into_iter().map(|m| self.to_global(shard, m)));
            stats.merge(&out.stats);
            if !out.status.is_complete() {
                status = out.status;
            }
        }
        stats.shards_pruned += plan.shards_pruned;
        stats.shard_pruned_elements += plan.shard_pruned_elements;
        stats.total_list_elements += plan.shard_pruned_elements;
        SearchOutcome {
            results,
            stats,
            status,
        }
    }

    /// Run one request sequentially across the surviving shards
    /// ([`ShardedEngine::search`](crate::engine::ShardedEngine::search)
    /// runs this same path; its `search_with_threads` can scatter it).
    /// Results are the unsharded index's matches exactly, in per-shard
    /// emission order with shards ascending by band.
    pub fn search(&self, req: &SearchRequest<'_>) -> Result<SearchOutcome, SearchError> {
        let mut scratch = Scratch::default();
        self.search_with_scratch(&mut scratch, req)
    }

    /// [`search`](Self::search) against a caller-provided warm scratch.
    pub fn search_with_scratch(
        &self,
        scratch: &mut Scratch,
        req: &SearchRequest<'_>,
    ) -> Result<SearchOutcome, SearchError> {
        req.validate()?;
        let plan = self.plan(req.query, req.tau);
        self.search_planned(scratch, &plan, req)
    }

    /// Search every surviving shard of `plan` in order on one scratch and
    /// gather the outcomes: the sequential half of
    /// [`search_with_scratch`](Self::search_with_scratch), which the
    /// engine runs whenever it does not scatter.
    pub(crate) fn search_planned(
        &self,
        scratch: &mut Scratch,
        plan: &ShardPlan,
        req: &SearchRequest<'_>,
    ) -> Result<SearchOutcome, SearchError> {
        let mut outcomes = Vec::with_capacity(plan.surviving.len());
        for (shard, fq) in &plan.surviving {
            outcomes.push((*shard, self.search_shard(scratch, *shard, fq, req)?));
        }
        Ok(self.gather(plan, outcomes))
    }

    /// Run `req` against one shard with its filtered query `fq`.
    pub(crate) fn search_shard(
        &self,
        scratch: &mut Scratch,
        shard: usize,
        fq: &PreparedQuery,
        req: &SearchRequest<'_>,
    ) -> Result<SearchOutcome, SearchError> {
        execute(&self.shards[shard].index, scratch, &req.with_query(fq))
    }

    /// True if `dir` holds a sharded-index directory (its `MANIFEST`
    /// carries the shard magic; segment directories have their own).
    #[must_use]
    pub fn exists(dir: &Path) -> bool {
        matches!(sniff_manifest_magic(dir), Ok(m) if m == SHARD_MANIFEST_MAGIC)
    }

    /// Persist the sharded index as a directory: one ordinary snapshot
    /// file per shard (`shard-NNN.snap`) plus a checksummed `MANIFEST`
    /// recording each file's length + CRC32, its length band, its
    /// local→global id table, and the global document-frequency table.
    /// The manifest is written **last**, so a torn save never yields a
    /// readable directory.
    pub fn save(&self, dir: &Path) -> Result<(), SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let mut entries = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let name = format!("shard-{i:03}.snap");
            let path = dir.join(&name);
            shard.index.save(&path)?;
            entries.push(ShardEntry {
                file: ManifestEntry::describe(&path, &name)?,
                min_len_bits: shard.band.min_len.to_bits(),
                max_len_bits: shard.band.max_len.to_bits(),
                global_ids: shard.ids.iter().map(|id| id.0).collect(),
            });
        }
        ShardManifest {
            num_records: self.num_records as u64,
            doc_freqs: self.weights.doc_freqs().to_vec(),
            shards: entries,
        }
        .write(dir)
    }

    /// Open a directory written by [`save`](Self::save). Every shard
    /// file's length and CRC32 are verified against the manifest before
    /// its bytes are decoded; the global weight table is reconstructed
    /// from the manifest's df table and every shard is assembled with
    /// it. Inconsistencies (id tables that do not partition the record
    /// space, bands out of order, collection/manifest disagreements)
    /// are typed [`SnapshotError`]s, never panics.
    pub fn open(dir: &Path) -> Result<Self, SnapshotError> {
        let manifest = ShardManifest::read(dir)?;
        let num_records = usize::try_from(manifest.num_records)
            .map_err(|_| corrupt("record count overflows usize"))?;
        let weights = TokenWeights::from_doc_freqs(num_records, manifest.doc_freqs);
        if manifest.shards.is_empty() {
            return Err(corrupt("shard manifest lists no shards"));
        }
        let mut seen = vec![false; num_records];
        let mut shards = Vec::with_capacity(manifest.shards.len());
        for entry in &manifest.shards {
            // Length + CRC gate before any decoding, as the segment
            // layer does for its two files.
            entry.file.read_verified(dir)?;
            let index = crate::snapshot::load_index_with_weights(
                &dir.join(&entry.file.name),
                weights.clone(),
            )?;
            if index.collection().len() != entry.global_ids.len() {
                return Err(corrupt(format!(
                    "shard {} holds {} records, manifest says {}",
                    entry.file.name,
                    index.collection().len(),
                    entry.global_ids.len()
                )));
            }
            let mut prev: Option<u32> = None;
            for &gid in &entry.global_ids {
                let slot = seen.get_mut(gid as usize).ok_or_else(|| {
                    corrupt(format!(
                        "shard id {gid} outside the {num_records}-record corpus"
                    ))
                })?;
                if *slot {
                    return Err(corrupt(format!("record {gid} appears in two shards")));
                }
                *slot = true;
                if prev.is_some_and(|p| p >= gid) {
                    return Err(corrupt("shard id table is not strictly ascending"));
                }
                prev = Some(gid);
            }
            let band = LengthBand {
                min_len: f64::from_bits(entry.min_len_bits),
                max_len: f64::from_bits(entry.max_len_bits),
            };
            // Finiteness first: with both edges finite, `>` is NaN-safe.
            if !band.min_len.is_finite()
                || !band.max_len.is_finite()
                || band.min_len > band.max_len
                || band.min_len < 0.0
            {
                return Err(corrupt("shard band is not a valid length interval"));
            }
            shards.push(Shard {
                index,
                ids: entry.global_ids.iter().map(|&g| SetId(g)).collect(),
                band,
            });
        }
        if seen.iter().any(|s| !*s) {
            return Err(corrupt("shard id tables do not cover every record"));
        }
        let first = &shards[0].index;
        let spec = first
            .collection()
            .tokenizer()
            .spec()
            .ok_or_else(|| corrupt("loaded shard has no tokenizer spec"))?;
        let dict = first.collection().dict().clone();
        if dict.len() != weights.doc_freqs().len() {
            return Err(corrupt(format!(
                "dictionary has {} tokens, df table has {}",
                dict.len(),
                weights.doc_freqs().len()
            )));
        }
        let options = first.options().clone();
        let query_side = SetCollection::from_parts(spec.build(), dict, Vec::new(), Vec::new());
        Ok(Self {
            query_side,
            weights,
            options,
            num_records,
            shards,
        })
    }

    /// Per-shard posting totals, ascending by band (diagnostics and the
    /// bench report's scale-out figures).
    #[must_use]
    pub fn shard_postings(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.index.total_postings())
            .collect()
    }
}

/// Restrict the global prepared query to the tokens that have lists in
/// `index`, preserving order (and therefore per-candidate summation
/// order). `len(q)` stays global — it is part of every score's
/// denominator; `idf_sq_total` is recomputed over the kept tokens, a
/// tighter (still sound) bound for the shard's candidates, every one of
/// which can only match kept tokens.
fn filter_query(index: &InvertedIndex<'_>, query: &PreparedQuery) -> PreparedQuery {
    let tokens: Vec<QueryToken> = query
        .tokens
        .iter()
        .filter(|t| index.list(t.token).is_some())
        .copied()
        .collect();
    let idf_sq_total = tokens.iter().map(|t| t.idf_sq).sum();
    PreparedQuery {
        tokens,
        len: query.len,
        idf_sq_total,
    }
}

fn spec_of(collection: &SetCollection) -> Result<TokenizerSpec, SnapshotError> {
    collection
        .tokenizer()
        .spec()
        .ok_or_else(|| SnapshotError::Unsupported {
            detail: "sharding requires a tokenizer with a serializable spec".to_string(),
        })
}

fn corrupt(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgorithmKind, CollectionBuilder};
    use setsim_tokenize::WordTokenizer;

    fn collection(texts: &[&str]) -> SetCollection {
        let mut b = CollectionBuilder::new(WordTokenizer::new().with_lowercase());
        b.extend(texts.iter().copied());
        b.build()
    }

    fn corpus() -> Vec<String> {
        (0..40)
            .map(|i| {
                let mut words = vec![format!("tok{}", i % 7)];
                for j in 0..(i % 5) {
                    words.push(format!("w{i}x{j}"));
                }
                words.join(" ")
            })
            .collect()
    }

    #[test]
    fn boundaries_balance_and_dedup() {
        let lengths = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0];
        let b = plan_band_boundaries(&lengths, 4);
        assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(b.iter().all(|&x| x > 1.0), "never cuts at the minimum");
        // One shard or empty input needs no boundaries.
        assert!(plan_band_boundaries(&lengths, 1).is_empty());
        assert!(plan_band_boundaries(&[], 8).is_empty());
        // All-equal lengths collapse to a single band.
        assert!(plan_band_boundaries(&[2.0; 10], 8).is_empty());
    }

    #[test]
    fn sharded_build_partitions_records() {
        let texts = corpus();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let c = collection(&refs);
        let sharded = ShardedIndex::build(&c, 4, IndexOptions::default()).unwrap();
        assert_eq!(sharded.num_records(), texts.len());
        let total: usize = sharded.shards.iter().map(|s| s.ids.len()).sum();
        assert_eq!(total, texts.len());
        // Bands are disjoint and ascending.
        let bands = sharded.bands();
        for w in bands.windows(2) {
            assert!(w[0].max_len < w[1].min_len, "bands must be disjoint");
        }
        // Every record's text is reachable through the global id.
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(sharded.text(SetId(i as u32)), Some(t.as_str()));
        }
    }

    #[test]
    fn sharded_matches_unsharded_and_counts_pruning() {
        let texts = corpus();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let c = collection(&refs);
        let baseline = InvertedIndex::build(&c, IndexOptions::default());
        let sharded = ShardedIndex::build(&c, 8, IndexOptions::default()).unwrap();
        assert!(sharded.num_shards() > 1);
        let mut pruned_somewhere = false;
        for q in ["tok3", "tok1 w8x0", "tok5 w12x1 w12x2"] {
            for tau in [0.5, 0.8, 0.95] {
                let bq = baseline.prepare_query_str(q);
                let sq = sharded.prepare_query_str(q);
                assert_eq!(bq.len.to_bits(), sq.len.to_bits(), "query prep drifted");
                let mut scratch = Scratch::default();
                crate::engine::execute_into(
                    &baseline,
                    &mut scratch,
                    &SearchRequest::new(&bq)
                        .tau(tau)
                        .algorithm(AlgorithmKind::Sf),
                )
                .unwrap();
                let mut expect: Vec<(u32, u64)> = scratch
                    .results()
                    .iter()
                    .map(|m| (m.id.0, m.score.to_bits()))
                    .collect();
                expect.sort_unstable();
                let out = sharded
                    .search(
                        &SearchRequest::new(&sq)
                            .tau(tau)
                            .algorithm(AlgorithmKind::Sf),
                    )
                    .unwrap();
                let mut got: Vec<(u32, u64)> = out
                    .results
                    .iter()
                    .map(|m| (m.id.0, m.score.to_bits()))
                    .collect();
                got.sort_unstable();
                assert_eq!(got, expect, "query {q:?} tau {tau}");
                if out.stats.shards_pruned > 0 {
                    pruned_somewhere = true;
                    assert!(out.stats.shard_pruned_elements > 0 || out.stats.shards_pruned > 0);
                }
                // The partition invariant holds on the merged stats
                // (pruning_pct debug-asserts it).
                let _ = out.stats.pruning_pct();
            }
        }
        assert!(pruned_somewhere, "no query pruned any shard");
    }

    #[test]
    fn save_open_round_trip_preserves_results() {
        let texts = corpus();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let c = collection(&refs);
        let sharded = ShardedIndex::build(&c, 5, IndexOptions::default()).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "setsim-shard-roundtrip-{}-{:p}",
            std::process::id(),
            &texts
        ));
        sharded.save(&dir).unwrap();
        assert!(ShardedIndex::exists(&dir));
        let back = ShardedIndex::open(&dir).unwrap();
        assert_eq!(back.num_shards(), sharded.num_shards());
        assert_eq!(back.num_records(), sharded.num_records());
        let q = sharded.prepare_query_str("tok2 w9x0");
        let q2 = back.prepare_query_str("tok2 w9x0");
        assert_eq!(q.len.to_bits(), q2.len.to_bits());
        let a = sharded.search(&SearchRequest::new(&q).tau(0.5)).unwrap();
        let b = back.search(&SearchRequest::new(&q2).tau(0.5)).unwrap();
        let key = |ms: &[Match]| {
            let mut v: Vec<(u32, u64)> = ms.iter().map(|m| (m.id.0, m.score.to_bits())).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&a.results), key(&b.results));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_corpus_builds_one_empty_shard() {
        let c = collection(&[]);
        let sharded = ShardedIndex::build(&c, 4, IndexOptions::default()).unwrap();
        assert_eq!(sharded.num_shards(), 1);
        let q = sharded.prepare_query_str("anything");
        let out = sharded.search(&SearchRequest::new(&q).tau(0.5)).unwrap();
        assert!(out.results.is_empty());
        assert!(out.status.is_complete());
    }

    #[test]
    fn band_upper_bound_is_sound() {
        let band = LengthBand {
            min_len: 2.0,
            max_len: 4.0,
        };
        assert_eq!(band.score_upper_bound(3.0), 1.0); // straddles
        assert!((band.score_upper_bound(8.0) - 0.5).abs() < 1e-12); // below
        assert!((band.score_upper_bound(1.0) - 0.5).abs() < 1e-12); // above
        assert_eq!(band.score_upper_bound(0.0), 1.0); // degenerate query
    }

    #[test]
    fn open_rejects_damaged_directories() {
        let texts = corpus();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let c = collection(&refs);
        let sharded = ShardedIndex::build(&c, 3, IndexOptions::default()).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "setsim-shard-damage-{}-{:p}",
            std::process::id(),
            &texts
        ));
        sharded.save(&dir).unwrap();
        // Flip a byte in the middle of a shard file: the manifest's CRC
        // gate must reject it before decoding.
        let victim = dir.join("shard-001.snap");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&victim, &bytes).unwrap();
        assert!(matches!(
            ShardedIndex::open(&dir),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
