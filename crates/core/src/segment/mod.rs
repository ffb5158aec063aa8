//! Dynamic index updates: LSM-style delta segments over immutable bases.
//!
//! The paper's index is built once over a static collection; this module
//! makes it **mutable** without giving up its two load-bearing invariants
//! (length-sorted lists, Theorem 1's length window under idf weights):
//!
//! * [`MutableIndex`] layers a small in-memory **delta segment** — an
//!   append-only record arena with per-token stale-length-sorted runs
//!   (`BTreeSet`s) and a tombstone bitmap over the base — on top of an
//!   immutable **base segment** (an ordinary [`InvertedIndex`], freshly built or
//!   loaded from a snapshot).
//! * Inserts, deletes, and upserts go to the delta; every record keeps a
//!   stable [`RecordId`] across compactions.
//! * Searches run in one **stale coordinate system**: the base segment's
//!   frozen idf weights. The requested algorithm runs over the base lists
//!   and the delta runs are seek-scanned under a single Theorem 1 window,
//!   both at a threshold widened by the current idf-drift factor (see
//!   [`segment::drift`](self)), so stale weights can never silently drop
//!   a true result. Survivors are re-scored **exactly** under the live
//!   weights, so returned scores are always current.
//! * A configurable [`DriftBudget`] caps both delta growth and idf drift;
//!   past it, [`MutableIndex::compact`] (or [`MutableEngine`]'s automatic
//!   trigger) merges delta + base into a fresh len-sorted base segment
//!   with exact recomputed idfs.
//! * [`MutableEngine`] adds the concurrent serving shell: reader/writer
//!   locking, metrics that survive segment swaps, and **online
//!   compaction** — the heavy rebuild runs without the index lock, searches
//!   keep flowing, and the finished segment is swapped in atomically with
//!   any racing mutations replayed from the op log.
//! * [`MutableIndex::save`]/[`MutableIndex::open`] persist the whole
//!   layered state as a checksummed multi-file segment directory (base
//!   snapshot + delta op log + manifest; `setsim-storage::manifest`).
//!
//! DESIGN.md §12 derives the drift bound and documents the formats.

#[cfg(feature = "audit")]
pub mod audit;
mod delta;
mod drift;
mod engine;
mod persist;

pub use drift::DriftBudget;
pub use engine::MutableEngine;

use crate::algorithms::canonical_score;
use crate::engine::{execute as engine_execute, Scratch, SearchError, SearchRequest};
use crate::properties::length_bounds;
use crate::query::QueryToken;
use crate::weights::count_to_f64;
use crate::{
    passes, IndexOptions, InvertedIndex, PreparedQuery, SearchStats, SearchStatus, SetCollection,
    SetId, SnapshotError, Tau, TokenWeights,
};
use delta::{DeltaRecord, DeltaSegment};
use drift::{DriftBounds, LiveDf};
use setsim_tokenize::{Dictionary, Token, TokenMultiSet, TokenSet, Tokenizer, TokenizerSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-global source of segment-state generations. Every
/// [`MutableIndex::assemble`] stamps the fresh state from this counter,
/// so a query prepared against any earlier state — including a state
/// replaced by compaction, or a different index entirely — is detectably
/// stale and can be re-prepared instead of served with wrong-coordinate
/// weights.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

/// Stable identifier of a record in a [`MutableIndex`].
///
/// Unlike [`SetId`] — a dense per-segment index that compaction reassigns —
/// a `RecordId` names the record for its whole life: across delta
/// residence, compaction into a base segment, and save/open round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u64);

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Where a live record currently resides.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// In the base segment, at this dense set id.
    Base(SetId),
    /// In the delta segment, at this arena slot.
    Delta(usize),
}

/// One logged mutation since the current base segment was built. Replayed
/// verbatim to reconcile racing writes at compaction install and to
/// restore the delta on [`MutableIndex::open`].
#[derive(Debug, Clone)]
pub(crate) enum DeltaOp {
    /// Record inserted (or re-inserted by an upsert) with this id.
    Insert {
        /// Stable record id.
        id: RecordId,
        /// Record text.
        text: String,
    },
    /// Record deleted.
    Delete {
        /// Stable record id.
        id: RecordId,
    },
}

/// One qualifying record of a mutable-index search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutableMatch {
    /// The record's stable id.
    pub record: RecordId,
    /// Its exact similarity under the **live** idf weights.
    pub score: f64,
}

/// Outcome of one mutable-index search: matches plus access statistics.
#[derive(Debug, Clone, Default)]
pub struct MutableOutcome {
    /// All live records with live score ≥ τ.
    pub results: Vec<MutableMatch>,
    /// Access counters, base-segment work and delta work combined.
    pub stats: SearchStats,
    /// Completion status: [`SearchStatus::BudgetExceeded`] marks an
    /// exact-but-partial result set (see [`SearchRequest`]).
    pub status: SearchStatus,
}

impl MutableOutcome {
    /// Results sorted by descending score (ties by ascending record id).
    pub fn sorted_by_score(mut self) -> Vec<MutableMatch> {
        self.results
            .sort_by(|a, b| b.score.total_cmp(&a.score).then(a.record.cmp(&b.record)));
        self.results
    }

    /// Result ids sorted ascending (for set comparison in tests).
    pub fn ids_sorted(&self) -> Vec<RecordId> {
        let mut ids: Vec<RecordId> = self.results.iter().map(|m| m.record).collect();
        ids.sort_unstable();
        ids
    }
}

/// A query prepared against a [`MutableIndex`]: the same token string is
/// carried in both coordinate systems the layered search needs.
#[derive(Debug, Clone)]
pub struct MutableQuery {
    /// Base ("stale") coordinates: prepared against the base segment's
    /// frozen weights, exactly as a static index would prepare it. Drives
    /// the base-segment algorithm run and the delta window seeks.
    stale: PreparedQuery,
    /// Live coordinates: every token known to the unified dictionary with
    /// its current idf. Drives the exact re-scoring pass.
    live: PreparedQuery,
    /// Generation of the segment state this preparation was made against.
    /// Both coordinate systems are meaningless against any other state:
    /// compaction re-sorts set ids and re-freezes weights, so serving a
    /// stale preparation would score against the wrong vocabulary (or
    /// index out of bounds). [`MutableIndex::search`] re-prepares from
    /// [`text`](Self::text) when generations disagree.
    generation: u64,
    /// The original query text, kept so a stale preparation can be
    /// transparently re-prepared against the current state.
    text: String,
}

impl MutableQuery {
    /// The live-coordinate preparation (current idf weights).
    pub fn live(&self) -> &PreparedQuery {
        &self.live
    }
}

/// A [`SearchRequest`] over a [`MutableQuery`]. The alias is kept
/// because external code names the type; everything it has — fields,
/// builder, budget semantics — is [`SearchRequest`]'s.
pub type MutableSearchRequest<'q> = SearchRequest<'q, MutableQuery>;

/// A dynamically updatable set-similarity index: an immutable base
/// segment plus an in-memory delta segment, searched together under one
/// threshold. See the [module docs](self) for the architecture.
pub struct MutableIndex {
    /// The immutable base segment.
    base: InvertedIndex<'static>,
    /// Dictionary size of the base segment; tokens at or past this index
    /// are delta-only and unknown to the base.
    base_dict_len: usize,
    /// Unified dictionary: the base's, extended by delta inserts.
    dict: Dictionary,
    /// Tokenizer shared by base and delta (rebuilt from `spec`).
    tokenizer: Box<dyn Tokenizer + Send + Sync>,
    /// Serializable tokenizer description (compaction + persistence).
    spec: TokenizerSpec,
    /// Index build options, reused for every compacted segment.
    options: IndexOptions,
    /// Stable record id of each base set, in `SetId` order.
    base_ids: Vec<RecordId>,
    /// Tombstones over the base segment.
    base_dead: Vec<bool>,
    /// Number of set tombstones.
    n_base_dead: usize,
    /// Live-record directory: id → current residence.
    loc: HashMap<u64, Loc>,
    /// The delta segment.
    delta: DeltaSegment,
    /// Live document frequency per unified-dictionary token, grouped into
    /// the `(live df, stale idf)` classes the drift bound folds over.
    df: LiveDf,
    /// Live number of records (`N` in the idf formula).
    n_live: usize,
    /// Next record id to assign.
    next_id: u64,
    /// Mutations since the current base segment was built.
    oplog: Vec<DeltaOp>,
    /// Compaction policy.
    budget: DriftBudget,
    /// Lazily computed drift bounds: filled by the first reader, reset by
    /// every mutation (each one moves `N`, hence every idf). Mutations
    /// hold `&mut self`, so the reset needs no lock.
    drift_cache: OnceLock<DriftBounds>,
    /// Generation stamp from [`NEXT_GENERATION`]: unique per assembled
    /// state, compared against [`MutableQuery::generation`] at search
    /// time to detect preparations that predate a compaction swap.
    generation: u64,
}

impl MutableIndex {
    /// Build a mutable index whose initial base segment covers
    /// `collection`.
    ///
    /// Fails with [`SnapshotError::Unsupported`] if the collection's
    /// tokenizer has no serializable [`TokenizerSpec`] — compaction must
    /// re-tokenize and persistence must record the tokenizer, the same
    /// requirement snapshots make.
    #[allow(clippy::disallowed_methods)] // why: the segment layer is the sanctioned constructor
    pub fn from_collection(
        collection: Box<SetCollection>,
        options: IndexOptions,
    ) -> Result<Self, SnapshotError> {
        let base = InvertedIndex::build_owned(collection, options);
        Self::from_index(base)
    }

    /// Wrap an already-built index (e.g. one loaded from a snapshot) as
    /// the base segment of a mutable index. Records get ids `0..n` in
    /// set-id order. Same tokenizer requirement as
    /// [`from_collection`](Self::from_collection).
    pub fn from_index(base: InvertedIndex<'static>) -> Result<Self, SnapshotError> {
        let Some(spec) = base.collection().tokenizer().spec() else {
            return Err(SnapshotError::Unsupported {
                detail: "mutable index requires a tokenizer with a serializable spec \
                         (compaction re-tokenizes and persistence records it)"
                    .to_string(),
            });
        };
        let n = base.collection().len() as u64;
        let ids = (0..n).map(RecordId).collect();
        Ok(Self::assemble(base, spec, ids, n, DriftBudget::default()))
    }

    /// Replace the compaction policy.
    #[must_use]
    pub fn with_budget(mut self, budget: DriftBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Wire a fresh layered state around `base`. `base_ids[i]` names the
    /// record at `SetId(i)`; `next_id` must exceed every live id.
    fn assemble(
        base: InvertedIndex<'static>,
        spec: TokenizerSpec,
        base_ids: Vec<RecordId>,
        next_id: u64,
        budget: DriftBudget,
    ) -> Self {
        let dict = base.collection().dict().clone();
        let df = LiveDf::from_base(base.weights(), dict.len());
        let n_live = base.collection().len();
        let mut loc = HashMap::with_capacity(base_ids.len());
        for (i, id) in base_ids.iter().enumerate() {
            loc.insert(id.0, Loc::Base(SetId(i as u32)));
        }
        let tokenizer = spec.build();
        Self {
            base_dict_len: dict.len(),
            base_dead: vec![false; base_ids.len()],
            n_base_dead: 0,
            base,
            dict,
            tokenizer,
            spec,
            options: IndexOptions::default(),
            base_ids,
            loc,
            delta: DeltaSegment::default(),
            df,
            n_live,
            next_id,
            oplog: Vec::new(),
            budget,
            drift_cache: OnceLock::from(DriftBounds::identity()),
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The immutable base segment.
    pub fn base(&self) -> &InvertedIndex<'static> {
        &self.base
    }

    /// Number of live records.
    pub fn live_len(&self) -> usize {
        self.n_live
    }

    /// Number of records in the delta segment (dead ones included) plus
    /// base tombstones — the footprint the next compaction retires.
    pub fn delta_footprint(&self) -> usize {
        self.delta.footprint() + self.n_base_dead
    }

    /// Number of live records currently resident in the delta segment.
    pub fn delta_live_len(&self) -> usize {
        self.delta.alive_len()
    }

    /// True if no mutation has touched the current base segment: the
    /// index is exactly its base, and searches take the undrifted fast
    /// path (bit-identical to a static index).
    pub fn pristine(&self) -> bool {
        self.oplog.is_empty()
    }

    /// Current relative idf drift
    /// (`max_t |idf_live(t)/idf_stale(t) − 1|`).
    pub fn drift_rel_err(&self) -> f64 {
        self.drift_bounds().rel_err()
    }

    /// The compaction policy in force.
    pub fn budget(&self) -> DriftBudget {
        self.budget
    }

    /// True once the drift budget is exhausted — by idf drift or by delta
    /// growth — and the index should compact.
    pub fn needs_compaction(&self) -> bool {
        if self.pristine() {
            return false;
        }
        self.delta_footprint() > self.budget.max_delta_records
            || self.drift_rel_err() > self.budget.max_rel_err
    }

    /// Original text of a live record.
    pub fn text(&self, id: RecordId) -> Option<&str> {
        match self.loc.get(&id.0)? {
            Loc::Base(sid) => self.base.collection().text(*sid),
            Loc::Delta(slot) => Some(self.delta.records[*slot].text.as_str()),
        }
    }

    /// True if `id` names a live record.
    pub fn contains(&self, id: RecordId) -> bool {
        self.loc.contains_key(&id.0)
    }

    /// Ids and texts of every live record, base order first (by set id),
    /// then delta insertion order — the order compaction preserves.
    pub fn live_records(&self) -> Vec<(RecordId, String)> {
        let mut out = Vec::with_capacity(self.n_live);
        for (i, &id) in self.base_ids.iter().enumerate() {
            if !self.base_dead[i] {
                let text = self.base.collection().text(SetId(i as u32)).unwrap_or("");
                out.push((id, text.to_string()));
            }
        }
        for r in &self.delta.records {
            if r.alive {
                out.push((RecordId(r.id), r.text.clone()));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Insert a record, returning its stable id.
    pub fn insert(&mut self, text: &str) -> RecordId {
        let id = RecordId(self.next_id);
        self.next_id += 1;
        self.apply_insert(id, text);
        self.oplog.push(DeltaOp::Insert {
            id,
            text: text.to_string(),
        });
        id
    }

    /// Delete a record. Returns false (and changes nothing) if `id` does
    /// not name a live record.
    pub fn delete(&mut self, id: RecordId) -> bool {
        if !self.apply_delete(id) {
            return false;
        }
        self.oplog.push(DeltaOp::Delete { id });
        true
    }

    /// Replace a live record's text, keeping its id. Returns false (and
    /// changes nothing) if `id` does not name a live record.
    pub fn upsert(&mut self, id: RecordId, text: &str) -> bool {
        if !self.delete(id) {
            return false;
        }
        self.apply_insert(id, text);
        self.oplog.push(DeltaOp::Insert {
            id,
            text: text.to_string(),
        });
        true
    }

    fn apply_insert(&mut self, id: RecordId, text: &str) {
        let set = TokenSet::tokenize(text, self.tokenizer.as_ref(), &mut self.dict);
        while self.df.len() < self.dict.len() {
            self.df.push_token();
        }
        for t in set.iter() {
            self.df.add(t);
        }
        self.n_live += 1;
        let stale_len = self.stale_set_length(&set);
        let slot = self.delta.push(DeltaRecord {
            id: id.0,
            text: text.to_string(),
            set,
            stale_len,
            alive: true,
        });
        self.loc.insert(id.0, Loc::Delta(slot));
        self.invalidate_drift();
    }

    fn apply_delete(&mut self, id: RecordId) -> bool {
        match self.loc.remove(&id.0) {
            None => false,
            Some(Loc::Base(sid)) => {
                self.base_dead[sid.index()] = true;
                self.n_base_dead += 1;
                for t in self.base.collection().set(sid).iter() {
                    self.df.remove(t);
                }
                self.n_live -= 1;
                self.invalidate_drift();
                true
            }
            Some(Loc::Delta(slot)) => {
                for t in self.delta.records[slot].set.iter() {
                    self.df.remove(t);
                }
                self.delta.kill(slot);
                self.n_live -= 1;
                self.invalidate_drift();
                true
            }
        }
    }

    /// Re-apply a logged mutation (compaction-install reconciliation and
    /// [`open`](Self::open) replay). Unlike the public mutators this also
    /// keeps the op in the log, so a later save still carries it.
    pub(crate) fn replay(&mut self, op: DeltaOp) -> Result<(), SnapshotError> {
        match &op {
            DeltaOp::Insert { id, text } => {
                if self.loc.contains_key(&id.0) {
                    return Err(SnapshotError::Corrupt {
                        detail: format!("delta log inserts already-live record {id}"),
                    });
                }
                if id.0 >= self.next_id {
                    self.next_id = id.0 + 1;
                }
                self.apply_insert(*id, text);
            }
            DeltaOp::Delete { id } => {
                if !self.apply_delete(*id) {
                    return Err(SnapshotError::Corrupt {
                        detail: format!("delta log deletes unknown record {id}"),
                    });
                }
            }
        }
        self.oplog.push(op);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Weights in both coordinate systems
    // ------------------------------------------------------------------

    /// Live idf of a unified-dictionary token under the current `N`,
    /// `N(t)`.
    fn live_idf(&self, t: Token) -> f64 {
        TokenWeights::idf_formula(self.n_live, self.df.df(t))
    }

    /// Normalized length of a set under the stale weights (delta run key).
    fn stale_set_length(&self, set: &TokenSet) -> f64 {
        set.iter()
            .map(|t| {
                let w = self.df.stale_idf(t);
                w * w
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Normalized length of a set under the live weights.
    fn live_set_length(&self, set: &TokenSet) -> f64 {
        set.iter()
            .map(|t| {
                let w = self.live_idf(t);
                w * w
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Exact live score of a candidate set: the canonical score against
    /// the live-prepared query and the set's live length.
    fn live_score(&self, live: &PreparedQuery, set: &TokenSet) -> f64 {
        canonical_score(live, self.live_set_length(set), |i| {
            set.contains(live.tokens[i].token)
        })
    }

    fn invalidate_drift(&mut self) {
        self.drift_cache = OnceLock::new();
    }

    /// Current drift bounds, refolding the `(live df, stale idf)` classes
    /// only when a mutation has invalidated the cache.
    fn drift_bounds(&self) -> DriftBounds {
        *self.drift_cache.get_or_init(|| self.compute_drift_bounds())
    }

    /// Degenerate corpora: with no base the stale weights are all zero
    /// (search bypasses them entirely), and with no live records no search
    /// can return anything. Identity keeps the math finite.
    fn drift_is_identity(&self) -> bool {
        self.pristine() || self.base.collection().is_empty() || self.n_live == 0
    }

    fn compute_drift_bounds(&self) -> DriftBounds {
        if self.drift_is_identity() {
            return DriftBounds::identity();
        }
        self.df.bounds(self.n_live)
    }

    /// The drift bounds by one ratio per dictionary token: the oracle the
    /// class fold of [`compute_drift_bounds`](Self::compute_drift_bounds)
    /// must match bit for bit.
    #[cfg(any(test, feature = "audit"))]
    fn scan_drift_bounds(&self) -> DriftBounds {
        if self.drift_is_identity() {
            return DriftBounds::identity();
        }
        let mut fold = drift::RhoFold::new();
        for i in 0..self.dict.len() {
            let t = Token(i as u32);
            fold.fold(self.df.stale_idf(t), self.live_idf(t));
        }
        fold.fold(
            self.base.weights().unseen_idf(),
            TokenWeights::idf_formula(self.n_live, 0),
        );
        fold.bounds()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Tokenize and prepare a query in both coordinate systems. Never
    /// grows the dictionary.
    #[must_use]
    pub fn prepare_query_str(&self, text: &str) -> MutableQuery {
        let mut buf = Vec::new();
        self.tokenizer.tokenize_into(text, &mut buf);
        buf.sort_unstable();
        buf.dedup();
        let mut known = Vec::new();
        let mut unknown = 0usize;
        for s in &buf {
            match self.dict.get(s) {
                Some(t) => known.push(t),
                None => unknown += 1,
            }
        }
        // Stale coordinates: exactly what the base segment would prepare —
        // delta-only tokens are unknown to it and fold into its unseen
        // mass alongside the truly unknown ones.
        let mut base_known = Vec::new();
        let mut base_unknown = unknown;
        for &t in &known {
            if t.index() < self.base_dict_len {
                base_known.push(t);
            } else {
                base_unknown += 1;
            }
        }
        let stale = self
            .base
            .prepare_query(&TokenSet::from_tokens(base_known), base_unknown);
        // Live coordinates: every dictionary token with its current idf.
        let toks: Vec<QueryToken> = known
            .iter()
            .map(|&t| {
                let idf = self.live_idf(t);
                QueryToken {
                    token: t,
                    idf,
                    idf_sq: idf * idf,
                }
            })
            .collect();
        let unseen = TokenWeights::idf_formula(self.n_live, 0);
        let live = PreparedQuery::assemble(toks, count_to_f64(unknown) * unseen * unseen);
        MutableQuery {
            stale,
            live,
            generation: self.generation,
            text: text.to_string(),
        }
    }

    /// Run one layered search. See the [module docs](self) for the
    /// two-phase structure and DESIGN.md §12 for why the widened stale
    /// pass cannot miss a live result.
    pub fn search(
        &self,
        scratch: &mut Scratch,
        req: &SearchRequest<'_, MutableQuery>,
    ) -> Result<MutableOutcome, SearchError> {
        let tau = Tau::try_from(req.tau)?.get();
        // A preparation from an earlier segment state carries coordinates
        // this state cannot interpret: compaction re-sorts set ids and
        // re-freezes the base weights, so scoring with it would be wrong
        // (or index out of bounds). Re-prepare from the carried text.
        let reprepared;
        let query = if req.query.generation == self.generation {
            req.query
        } else {
            reprepared = self.prepare_query_str(&req.query.text);
            &reprepared
        };
        // Fast path: an unmutated index is exactly its base segment, and
        // the stale preparation is bit-identical to a static one — run
        // the requested algorithm untouched (same counters, same scores).
        if self.pristine() {
            let out = engine_execute(&self.base, scratch, &req.with_query(&query.stale))?;
            return Ok(MutableOutcome {
                results: out
                    .results
                    .iter()
                    .map(|m| MutableMatch {
                        record: self.base_ids[m.id.index()],
                        score: m.score,
                    })
                    .collect(),
                stats: out.stats,
                status: out.status,
            });
        }
        let mut outcome = MutableOutcome::default();
        if self.n_live == 0 || query.live.len <= 0.0 {
            return Ok(outcome);
        }
        // Arm the budget once so its deadline covers all three phases.
        // Truncation is sound: every emitted result carries an exact live
        // score, so a tripped budget yields an exact subset (see the
        // [`SearchRequest`] docs).
        let armed = req.budget.arm();
        let tau_wide = tau / self.drift_bounds().widening_factor();
        // Phase 1: candidate generation over the base segment — the
        // requested algorithm at the widened threshold; its result list
        // is a superset of every live-qualifying base record.
        let mut base_cands: Vec<SetId> = Vec::new();
        if !self.base.collection().is_empty() && !query.stale.is_empty() {
            let sreq = req.with_query(&query.stale).tau(tau_wide);
            let out = engine_execute(&self.base, scratch, &sreq)?;
            outcome.stats.merge(&out.stats);
            if out.status == SearchStatus::BudgetExceeded {
                outcome.status = SearchStatus::BudgetExceeded;
            }
            for m in &out.results {
                if !self.base_dead[m.id.index()] {
                    base_cands.push(m.id);
                }
            }
        }
        // Phase 2: candidate generation over the delta segment — seek
        // each query token's run to the same widened Theorem 1 window.
        let mut delta_cands: Vec<u32> = Vec::new();
        if self.base.collection().is_empty() {
            // No base weights to key runs by: visit all alive records.
            self.delta.all_alive(&mut delta_cands, &mut outcome.stats);
        } else {
            let (lo, hi) = length_bounds(tau_wide, query.stale.len);
            self.delta.window_candidates(
                query.live.tokens.iter().map(|qt| qt.token),
                lo,
                hi,
                &mut delta_cands,
                &mut outcome.stats,
            );
            delta_cands.sort_unstable();
            delta_cands.dedup();
        }
        outcome.stats.candidates_inserted += (base_cands.len() + delta_cands.len()) as u64;
        // Phase 3: exact re-scoring under the live weights. The budget is
        // re-checked per candidate: stopping early drops *unscored*
        // candidates, never emits an inexact score.
        for sid in base_cands {
            if armed.exceeded(&outcome.stats) {
                outcome.status = SearchStatus::BudgetExceeded;
                return Ok(outcome);
            }
            outcome.stats.records_scanned += 1;
            let score = self.live_score(&query.live, self.base.collection().set(sid));
            if passes(score, tau) {
                outcome.results.push(MutableMatch {
                    record: self.base_ids[sid.index()],
                    score,
                });
            }
        }
        for slot in delta_cands {
            if armed.exceeded(&outcome.stats) {
                outcome.status = SearchStatus::BudgetExceeded;
                return Ok(outcome);
            }
            outcome.stats.records_scanned += 1;
            let r = &self.delta.records[slot as usize];
            let score = self.live_score(&query.live, &r.set);
            if passes(score, tau) {
                outcome.results.push(MutableMatch {
                    record: RecordId(r.id),
                    score,
                });
            }
        }
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// Merge delta + base into a fresh length-sorted base segment with
    /// exact recomputed idfs, emptying the delta and the op log. Record
    /// ids are preserved.
    pub fn compact(&mut self) {
        let live = self.live_records();
        let (base, ids) = build_base(&self.spec, self.options.clone(), &live);
        *self = Self::assemble(base, self.spec.clone(), ids, self.next_id, self.budget);
    }

    /// Compact (if needed) and surrender the base segment: a static
    /// [`InvertedIndex`] over exactly the live records. This is the
    /// sanctioned way for serving code to obtain a static index — build
    /// through the segment layer, then freeze.
    pub fn into_base(mut self) -> InvertedIndex<'static> {
        if !self.pristine() {
            self.compact();
        }
        self.base
    }
}

/// Build a base segment over `records` (id, text), preserving order:
/// `SetId(i)` holds `records[i]`. Construction mirrors
/// [`CollectionBuilder`](crate::CollectionBuilder) exactly, so a
/// compacted segment is bit-identical to a from-scratch rebuild over the
/// same texts.
#[allow(clippy::disallowed_methods)] // why: the segment layer is the sanctioned constructor
pub(crate) fn build_base(
    spec: &TokenizerSpec,
    options: IndexOptions,
    records: &[(RecordId, String)],
) -> (InvertedIndex<'static>, Vec<RecordId>) {
    let tokenizer = spec.build();
    let mut dict = Dictionary::new();
    let mut texts = Vec::with_capacity(records.len());
    let mut multisets = Vec::with_capacity(records.len());
    for (_, text) in records {
        multisets.push(TokenMultiSet::tokenize(text, tokenizer.as_ref(), &mut dict));
        texts.push(text.clone());
    }
    let collection = SetCollection::from_parts(tokenizer, dict, texts, multisets);
    let base = InvertedIndex::build_owned(Box::new(collection), options);
    let ids = records.iter().map(|(id, _)| *id).collect();
    (base, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgorithmKind, CollectionBuilder};
    use setsim_tokenize::QGramTokenizer;

    const CORPUS: &[&str] = &[
        "main street",
        "main st",
        "maine street",
        "park avenue",
        "park ave",
        "wall street",
        "ocean drive",
        "mainstreet plaza",
    ];

    fn collection(texts: &[&str]) -> Box<SetCollection> {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        for t in texts {
            b.add(t);
        }
        Box::new(b.build())
    }

    fn mutable(texts: &[&str]) -> MutableIndex {
        MutableIndex::from_collection(collection(texts), IndexOptions::default()).unwrap()
    }

    /// Ground truth: ids and live scores from a static index rebuilt over
    /// the mutable index's live records, searched by full scan.
    fn oracle(mi: &MutableIndex, query: &str, tau: f64) -> Vec<(RecordId, f64)> {
        let live = mi.live_records();
        let texts: Vec<&str> = live.iter().map(|(_, t)| t.as_str()).collect();
        let fresh = InvertedIndex::build_owned(collection(&texts), IndexOptions::default());
        let q = fresh.prepare_query_str(query);
        let req = SearchRequest::new(&q)
            .tau(tau)
            .algorithm(AlgorithmKind::Scan);
        let out = engine_execute(&fresh, &mut Scratch::default(), &req).unwrap();
        let mut rows: Vec<(RecordId, f64)> = out
            .results
            .iter()
            .map(|m| (live[m.id.index()].0, m.score))
            .collect();
        rows.sort_by_key(|(id, _)| *id);
        rows
    }

    fn search_ids_scores(
        mi: &MutableIndex,
        query: &str,
        tau: f64,
        kind: AlgorithmKind,
    ) -> Vec<(RecordId, f64)> {
        let q = mi.prepare_query_str(query);
        let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
        let out = mi.search(&mut Scratch::default(), &req).unwrap();
        let mut rows: Vec<(RecordId, f64)> =
            out.results.iter().map(|m| (m.record, m.score)).collect();
        rows.sort_by_key(|(id, _)| *id);
        rows
    }

    fn assert_matches_oracle(mi: &MutableIndex, query: &str, tau: f64) {
        let want = oracle(mi, query, tau);
        for kind in AlgorithmKind::ALL {
            let got = search_ids_scores(mi, query, tau, kind);
            let got_ids: Vec<RecordId> = got.iter().map(|(id, _)| *id).collect();
            let want_ids: Vec<RecordId> = want.iter().map(|(id, _)| *id).collect();
            assert_eq!(got_ids, want_ids, "{kind:?} q={query:?} tau={tau}");
            for ((_, gs), (_, ws)) in got.iter().zip(&want) {
                assert!(
                    (gs - ws).abs() <= 1e-12,
                    "{kind:?} q={query:?} tau={tau}: score {gs} vs oracle {ws}"
                );
            }
        }
    }

    #[test]
    fn pristine_search_is_bit_identical_to_static_index() {
        let mi = mutable(CORPUS);
        assert!(mi.pristine());
        let static_index = InvertedIndex::build_owned(collection(CORPUS), IndexOptions::default());
        for kind in AlgorithmKind::ALL {
            let mq = mi.prepare_query_str("main street");
            let sq = static_index.prepare_query_str("main street");
            let req = SearchRequest::new(&mq).tau(0.5).algorithm(kind);
            let out = mi.search(&mut Scratch::default(), &req).unwrap();
            let sreq = SearchRequest::new(&sq).tau(0.5).algorithm(kind);
            let sout = engine_execute(&static_index, &mut Scratch::default(), &sreq).unwrap();
            assert_eq!(out.stats, sout.stats, "{kind:?} counters must not drift");
            assert_eq!(out.results.len(), sout.results.len());
            for (m, s) in out.results.iter().zip(&sout.results) {
                assert_eq!(m.record.0, u64::from(s.id.0));
                assert!(
                    (m.score - s.score).abs() == 0.0,
                    "{kind:?} scores must match exactly"
                );
            }
        }
    }

    #[test]
    fn inserted_records_become_searchable() {
        let mut mi = mutable(CORPUS);
        let id = mi.insert("main streets");
        assert!(!mi.pristine());
        assert_eq!(mi.live_len(), CORPUS.len() + 1);
        assert_eq!(mi.text(id), Some("main streets"));
        let rows = search_ids_scores(&mi, "main streets", 0.9, AlgorithmKind::Sf);
        assert!(rows.iter().any(|(rid, _)| *rid == id), "{rows:?}");
        assert_matches_oracle(&mi, "main street", 0.4);
        assert_matches_oracle(&mi, "main streets", 0.6);
    }

    #[test]
    fn deleted_records_disappear() {
        let mut mi = mutable(CORPUS);
        assert!(mi.delete(RecordId(0)));
        assert!(!mi.delete(RecordId(0)), "double delete must fail");
        assert!(!mi.contains(RecordId(0)));
        assert_eq!(mi.live_len(), CORPUS.len() - 1);
        let rows = search_ids_scores(&mi, "main street", 0.99, AlgorithmKind::Scan);
        assert!(rows.iter().all(|(id, _)| *id != RecordId(0)), "{rows:?}");
        // Delete a freshly inserted (delta) record too.
        let id = mi.insert("ocean park");
        assert!(mi.delete(id));
        assert!(!mi.contains(id));
        assert_matches_oracle(&mi, "ocean drive", 0.3);
    }

    #[test]
    fn upsert_keeps_id_and_replaces_text() {
        let mut mi = mutable(CORPUS);
        assert!(mi.upsert(RecordId(3), "park boulevard"));
        assert_eq!(mi.text(RecordId(3)), Some("park boulevard"));
        assert_eq!(mi.live_len(), CORPUS.len());
        assert!(!mi.upsert(RecordId(99), "nope"));
        assert_matches_oracle(&mi, "park avenue", 0.3);
        assert_matches_oracle(&mi, "park boulevard", 0.5);
    }

    #[test]
    fn drifted_index_matches_oracle_for_all_algorithms() {
        let mut mi = mutable(CORPUS);
        // Heavy drift: double the corpus with new vocabulary, delete some
        // of the original, update another.
        for i in 0..8 {
            mi.insert(&format!("zebra quilt xylophone {i}"));
        }
        mi.delete(RecordId(1));
        mi.delete(RecordId(6));
        mi.upsert(RecordId(2), "maine streets");
        assert!(mi.drift_rel_err() > 0.0);
        for tau in [0.2, 0.5, 0.8, 0.95] {
            assert_matches_oracle(&mi, "main street", tau);
            assert_matches_oracle(&mi, "zebra quilt xylophone 3", tau);
            assert_matches_oracle(&mi, "park avenue", tau);
        }
    }

    #[test]
    fn query_with_delta_only_tokens_finds_delta_records() {
        let mut mi = mutable(CORPUS);
        let id = mi.insert("qqqq wwww");
        // Every query token is unknown to the base segment's dictionary.
        let rows = search_ids_scores(&mi, "qqqq wwww", 0.9, AlgorithmKind::Sf);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, id);
        assert!((rows[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_base_index_works() {
        let mi0 = mutable(&[]);
        assert_eq!(mi0.live_len(), 0);
        let mut mi = mutable(&[]);
        let a = mi.insert("hello world");
        let _b = mi.insert("goodbye world");
        let rows = search_ids_scores(&mi, "hello world", 0.8, AlgorithmKind::Sf);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, a);
        assert_matches_oracle(&mi, "hello world", 0.2);
    }

    /// The layered state's score residual against a rebuild over the same
    /// live records is length summation order under the layered index's
    /// own dictionary, never score arithmetic: with the rebuild's `len(s)`
    /// and `len(q)` substituted, the live re-score reproduces the rebuild
    /// scan's bits for every live record.
    #[test]
    fn layered_score_residual_is_only_length_summation_order() {
        let mut mi = mutable(CORPUS);
        for t in ["main street west", "mainstream", "park avenue south"] {
            mi.insert(t);
        }
        mi.delete(RecordId(3));
        mi.upsert(RecordId(0), "main streets");
        let live = mi.live_records();
        let texts: Vec<&str> = live.iter().map(|(_, t)| t.as_str()).collect();
        let fresh = InvertedIndex::build_owned(collection(&texts), IndexOptions::default());
        for query in ["main street", "park avenue", "mainstream plaza"] {
            let mut q = mi.prepare_query_str(query).live;
            let fq = fresh.prepare_query_str(query);
            q.len = fq.len;
            for (sid, (rid, _)) in live.iter().enumerate() {
                let set = match mi.loc[&rid.0] {
                    Loc::Base(b) => mi.base.collection().set(b),
                    Loc::Delta(slot) => &mi.delta.records[slot].set,
                };
                let sid = SetId(sid as u32);
                let got =
                    canonical_score(&q, fresh.set_len(sid), |i| set.contains(q.tokens[i].token));
                let want = crate::algorithms::table_score(&fresh, &fq, sid);
                assert_eq!(got.to_bits(), want.to_bits(), "{query:?} {rid}");
            }
        }
    }

    #[test]
    fn compaction_preserves_results_bit_identically() {
        let mut mi = mutable(CORPUS);
        for i in 0..4 {
            mi.insert(&format!("harbor view {i}"));
        }
        mi.delete(RecordId(4));
        mi.upsert(RecordId(0), "main street north");
        mi.compact();
        assert!(mi.pristine());
        assert_eq!(mi.delta_footprint(), 0);
        assert_eq!(mi.live_len(), CORPUS.len() + 4 - 1);
        assert_eq!(mi.text(RecordId(0)), Some("main street north"));
        // Post-compaction, the layered index *is* a fresh static index:
        // scores and counters agree exactly with a from-scratch rebuild.
        let live = mi.live_records();
        let texts: Vec<&str> = live.iter().map(|(_, t)| t.as_str()).collect();
        let fresh = InvertedIndex::build_owned(collection(&texts), IndexOptions::default());
        for kind in AlgorithmKind::ALL {
            let mq = mi.prepare_query_str("main street");
            let fq = fresh.prepare_query_str("main street");
            let req = SearchRequest::new(&mq).tau(0.4).algorithm(kind);
            let out = mi.search(&mut Scratch::default(), &req).unwrap();
            let sreq = SearchRequest::new(&fq).tau(0.4).algorithm(kind);
            let sout = engine_execute(&fresh, &mut Scratch::default(), &sreq).unwrap();
            assert_eq!(out.stats, sout.stats, "{kind:?}");
            let got: Vec<(u64, f64)> = out.results.iter().map(|m| (m.record.0, m.score)).collect();
            let want: Vec<(u64, f64)> = sout
                .results
                .iter()
                .map(|m| (live[m.id.index()].0 .0, m.score))
                .collect();
            assert_eq!(got, want, "{kind:?} must be bit-identical after compaction");
        }
        // Mutations keep working on the compacted generation.
        let id = mi.insert("harbor view 9");
        assert!(mi.contains(id));
        assert_matches_oracle(&mi, "harbor view 2", 0.5);
    }

    #[test]
    fn needs_compaction_trips_on_record_budget_and_drift() {
        let mut mi = mutable(CORPUS).with_budget(DriftBudget {
            max_rel_err: 10.0,
            max_delta_records: 3,
        });
        assert!(!mi.needs_compaction());
        mi.insert("a1 b1");
        mi.insert("a2 b2");
        mi.insert("a3 b3");
        assert!(!mi.needs_compaction(), "footprint 3 is within budget");
        mi.insert("a4 b4");
        assert!(mi.needs_compaction(), "footprint 4 exceeds budget");
        mi.compact();
        assert!(!mi.needs_compaction());
        // Drift budget: tiny tolerated error trips after one insert.
        let mut mi = mutable(CORPUS).with_budget(DriftBudget {
            max_rel_err: 1e-6,
            max_delta_records: 1 << 20,
        });
        mi.insert("drifty mcdriftface");
        assert!(mi.drift_rel_err() > 1e-6);
        assert!(mi.needs_compaction());
    }

    #[test]
    fn invalid_tau_is_rejected() {
        let mi = mutable(CORPUS);
        let q = mi.prepare_query_str("main");
        for tau in [0.0, -0.5, 1.5, f64::NAN] {
            let req = SearchRequest::new(&q).tau(tau);
            assert!(matches!(
                mi.search(&mut Scratch::default(), &req),
                Err(SearchError::InvalidTau(_))
            ));
        }
    }

    #[test]
    fn record_ids_are_stable_across_compactions() {
        let mut mi = mutable(CORPUS);
        let a = mi.insert("alpha beta");
        mi.compact();
        let b = mi.insert("gamma delta");
        assert_ne!(a, b);
        mi.compact();
        assert_eq!(mi.text(a), Some("alpha beta"));
        assert_eq!(mi.text(b), Some("gamma delta"));
        assert!(b.0 > a.0, "ids must never be reused");
    }
}
