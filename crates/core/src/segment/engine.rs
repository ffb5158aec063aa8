//! The concurrent serving shell around [`MutableIndex`]: reader/writer
//! locking, swap-surviving metrics, and online compaction.
//!
//! Metrics and the scratch pool live *outside* the `RwLock`, so an atomic
//! segment swap can neither reset nor double-count them — the counters
//! belong to the engine, not to any one segment generation.

// Runs while a guard is held, where a panic poisons the lock (or strands
// a pool frame) for every other thread (DESIGN.md §13).
#![deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)]

use super::{MutableIndex, MutableOutcome, MutableQuery, MutableSearchRequest, RecordId};
use crate::engine::{EngineMetrics, MetricsSnapshot, ScratchPool, SearchError};
use crate::SnapshotError;
use std::path::Path;
use std::sync::{
    Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};

/// A thread-safe, updatable serving engine: shared searches, exclusive
/// mutations, and compaction that runs concurrently with both.
///
/// Two locks, always taken in this order:
///
/// 1. `compaction` — serializes compactions; held for the whole rebuild.
/// 2. `state` — the index `RwLock`; searches take it shared, mutations
///    and the final compaction install take it exclusive.
///
/// The types carry the order. The only code that holds both is the
/// compaction body, which takes the `compaction` guard as an argument,
/// so it cannot run without it. Every `state` guard is a statement
/// temporary or a block-scoped local that never spans a `compaction`
/// acquisition. The heavy rebuild holds `compaction` only, so searches
/// and mutations keep flowing throughout; a unit test fails if a search
/// cannot finish while the rebuild is in flight.
pub struct MutableEngine {
    /// The current layered index; swapped wholesale by compaction.
    state: RwLock<MutableIndex>,
    /// Serializes compactions (the rebuild runs outside `state`).
    compaction: Mutex<()>,
    /// Serving counters — engine-owned, segment-swap-proof.
    metrics: EngineMetrics,
    /// Warm scratches shared by all searching threads.
    scratch_pool: ScratchPool,
}

impl MutableEngine {
    /// Wrap an index for concurrent serving.
    #[must_use]
    pub fn new(index: MutableIndex) -> Self {
        Self {
            state: RwLock::new(index),
            compaction: Mutex::new(()),
            metrics: EngineMetrics::default(),
            scratch_pool: ScratchPool::default(),
        }
    }

    /// Cold-start from a segment directory (see [`MutableIndex::open`]).
    pub fn open(dir: &Path) -> Result<Self, SnapshotError> {
        Ok(Self::new(MutableIndex::open(dir)?))
    }

    /// Persist the current state into a segment directory (see
    /// [`MutableIndex::save`]). Takes the shared lock: saves can run
    /// alongside searches.
    pub fn save(&self, dir: &Path) -> Result<(), SnapshotError> {
        // The snapshot must be a consistent view, so the read guard is
        // held across the IO by design; searches (shared) keep flowing,
        // only mutations queue behind the save.
        self.read().save(dir)
    }

    /// Prepare a query against the current segment state.
    #[must_use]
    pub fn prepare_query_str(&self, text: &str) -> MutableQuery {
        self.read().prepare_query_str(text)
    }

    /// Run one search, recording serving metrics.
    pub fn search(&self, req: &MutableSearchRequest<'_>) -> Result<MutableOutcome, SearchError> {
        self.metrics.observe(
            || {
                let mut scratch = self.scratch_pool.pop();
                let res = self.read().search(&mut scratch, req);
                self.scratch_pool.push(scratch);
                res
            },
            |out| (&out.stats, out.status, out.results.len()),
        )
    }

    /// Insert a record, compacting afterwards if the budget trips.
    pub fn insert(&self, text: &str) -> RecordId {
        let id = self.write().insert(text);
        self.compact_if_needed();
        id
    }

    /// Delete a record (see [`MutableIndex::delete`]), compacting
    /// afterwards if the budget trips.
    pub fn delete(&self, id: RecordId) -> bool {
        let hit = self.write().delete(id);
        if hit {
            self.compact_if_needed();
        }
        hit
    }

    /// Replace a record's text keeping its id (see
    /// [`MutableIndex::upsert`]), compacting afterwards if the budget
    /// trips.
    pub fn upsert(&self, id: RecordId, text: &str) -> bool {
        let hit = self.write().upsert(id, text);
        if hit {
            self.compact_if_needed();
        }
        hit
    }

    /// Run one compaction if the drift budget is exhausted. If another
    /// compaction is already in flight, this is a no-op rather than a
    /// wait: the in-flight one is about to retire the same delta, and a
    /// still-exhausted budget re-trips on the next mutation. (This also
    /// keeps mutation → auto-compaction non-blocking, and makes mutating
    /// from inside a compaction hook safe.)
    pub fn compact_if_needed(&self) {
        if !self.read().needs_compaction() {
            return;
        }
        let serialize = match self.compaction.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        self.compact_impl(&serialize, || {});
    }

    /// Compact now: merge delta + base into a fresh base segment with
    /// exact recomputed idfs. The heavy rebuild does not hold the index
    /// lock — searches and mutations proceed concurrently; mutations that race the
    /// rebuild are replayed from the op log before the atomic install.
    pub fn compact(&self) {
        self.compact_with_hook(|| {});
    }

    /// [`compact`](Self::compact) with a test hook invoked at the point
    /// of maximum concurrency: the start of the rebuild, after the
    /// pre-rebuild snapshot is taken and the `state` lock released. The
    /// hook and the rebuild run under the same locks. Tests use it to
    /// interleave searches and mutations with an in-flight compaction
    /// deterministically.
    #[doc(hidden)]
    pub fn compact_with_hook(&self, hook: impl FnOnce()) {
        let serialize = self
            .compaction
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.compact_impl(&serialize, hook);
    }

    /// The compaction body. Taking the `compaction` guard makes the
    /// engine's one nested acquisition (`compaction`, then `state` at
    /// install) impossible to reach without the outer lock.
    fn compact_impl(&self, _compaction: &MutexGuard<'_, ()>, hook: impl FnOnce()) {
        // Snapshot the live corpus under the shared lock; searches keep
        // running, mutations briefly queue.
        let (live, spec, options, budget, logged) = {
            let st = self.read();
            if st.pristine() {
                return;
            }
            (
                st.live_records(),
                st.spec.clone(),
                st.options.clone(),
                st.budget,
                st.oplog.len(),
            )
        };
        // The heavy part — re-tokenize, recompute exact idfs, rebuild the
        // length-sorted lists — without the `state` lock.
        let (base, ids) = {
            hook();
            super::build_base(&spec, options, &live)
        };
        // Install: briefly exclusive. Mutations that landed since the
        // snapshot are exactly oplog[logged..]; replay them onto the
        // fresh segment so nothing is lost.
        let mut st = self.write();
        // `logged <= st.oplog.len()` always: only compaction truncates the
        // op log, and the `compaction` mutex (whose guard we were handed)
        // serializes compactions — mutations can only have appended since
        // the snapshot. `get` keeps the impossible case from panicking
        // under the write guard (a panic here would poison serving for
        // every thread).
        let tail: Vec<super::DeltaOp> = st.oplog.get(logged..).unwrap_or_default().to_vec();
        let mut fresh = MutableIndex::assemble(base, spec, ids, st.next_id, budget);
        for op in tail {
            // Tail ops were validated when first applied; replaying them
            // onto a segment holding the same live records cannot fail.
            // why: failure here means the op log itself is corrupt;
            // propagating would install a state missing acknowledged writes.
            #[allow(clippy::expect_used)]
            fresh
                .replay(op)
                .expect("compaction replay of validated op log tail");
        }
        *st = fresh;
    }

    /// Read-only access to the current index state (shared lock held for
    /// the duration of `f`, so `f` must not mutate or compact this
    /// engine).
    pub fn with_index<R>(&self, f: impl FnOnce(&MutableIndex) -> R) -> R {
        f(&self.read())
    }

    /// Serving metrics accumulated since construction (or the last
    /// [`reset_metrics`](Self::reset_metrics)) — compactions never reset
    /// or double-count them.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zero the serving metrics.
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    fn read(&self) -> RwLockReadGuard<'_, MutableIndex> {
        // A panicking holder cannot leave the index structurally torn in
        // a way readers could observe unsoundly (all updates are applied
        // under the exclusive lock, and compaction installs by whole-value
        // swap), so recover rather than propagate.
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, MutableIndex> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DriftBudget, MutableIndex, MutableSearchRequest, RecordId};
    use super::MutableEngine;
    use crate::{CollectionBuilder, IndexOptions};
    use setsim_tokenize::QGramTokenizer;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    fn mutable(texts: &[&str]) -> MutableIndex {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        for t in texts {
            b.add(t);
        }
        MutableIndex::from_collection(Box::new(b.build()), IndexOptions::default()).unwrap()
    }

    fn engine(texts: &[&str]) -> MutableEngine {
        MutableEngine::new(mutable(texts))
    }

    /// Engine whose budget never trips: compactions happen only when a
    /// test asks for one, so hooks always run.
    fn engine_manual(texts: &[&str]) -> MutableEngine {
        MutableEngine::new(mutable(texts).with_budget(DriftBudget {
            max_rel_err: f64::INFINITY,
            max_delta_records: usize::MAX,
        }))
    }

    fn search_ids(eng: &MutableEngine, query: &str, tau: f64) -> Vec<RecordId> {
        let q = eng.prepare_query_str(query);
        let req = MutableSearchRequest::new(&q).tau(tau);
        eng.search(&req).unwrap().ids_sorted()
    }

    const CORPUS: &[&str] = &["main street", "park avenue", "wall street", "ocean drive"];

    /// Satellite fix: a query prepared before a compaction swap carries
    /// base coordinates (set-id order, frozen idf weights) of the retired
    /// segment. The engine must serve it correctly anyway — `search`
    /// detects the generation mismatch and transparently re-prepares from
    /// the carried text, so stale handles return exactly what a fresh
    /// preparation returns instead of wrong scores or an out-of-bounds
    /// panic in the base pass.
    #[test]
    fn query_prepared_before_compaction_stays_valid() {
        let eng = engine_manual(CORPUS);
        let stale_q = eng.prepare_query_str("main street");
        // Mutations that reshape the next base segment: new records with
        // new tokens, plus a delete that re-sorts surviving set ids.
        eng.insert("main street market");
        eng.insert("granite quay");
        let dead = eng.insert("quarry road");
        eng.delete(dead);
        eng.compact();
        assert!(eng.with_index(MutableIndex::pristine));
        let fresh_q = eng.prepare_query_str("main street");
        let fresh = {
            let req = MutableSearchRequest::new(&fresh_q).tau(0.5);
            eng.search(&req).unwrap()
        };
        let stale = {
            let req = MutableSearchRequest::new(&stale_q).tau(0.5);
            eng.search(&req).unwrap()
        };
        assert!(!fresh.results.is_empty(), "corpus has matches at tau 0.5");
        assert_eq!(
            stale.ids_sorted(),
            fresh.ids_sorted(),
            "stale preparation must serve the same records as a fresh one"
        );
        let score_of = |out: &super::MutableOutcome, id| {
            out.results.iter().find(|m| m.record == id).map(|m| m.score)
        };
        for m in &fresh.results {
            assert_eq!(
                score_of(&stale, m.record),
                Some(m.score),
                "stale preparation must serve current-weight scores"
            );
        }
    }

    /// The stale-query path also holds across *two* swaps and for a query
    /// whose tokens only exist post-compaction (delta-only vocabulary the
    /// retired base had never seen).
    #[test]
    fn stale_query_with_post_compaction_vocabulary() {
        let eng = engine_manual(CORPUS);
        // "granite quay" tokens are unknown to the initial base: prepared
        // now, the stale coordinates carry pure unseen mass.
        let q = eng.prepare_query_str("granite quay");
        let id = eng.insert("granite quay");
        eng.compact();
        eng.insert("harbor view");
        eng.compact();
        let req = MutableSearchRequest::new(&q).tau(0.8);
        let out = eng.search(&req).unwrap();
        assert_eq!(
            out.ids_sorted(),
            vec![id],
            "re-preparation must pick up vocabulary the old base lacked"
        );
    }

    #[test]
    fn engine_serves_mutations_and_searches() {
        let eng = engine(CORPUS);
        let id = eng.insert("main street south");
        assert!(search_ids(&eng, "main street south", 0.8).contains(&id));
        assert!(eng.upsert(id, "main street west"));
        assert!(eng.with_index(|mi| mi.text(id) == Some("main street west")));
        assert!(eng.delete(id));
        assert!(!search_ids(&eng, "main street west", 0.8).contains(&id));
    }

    /// Satellite: `EngineMetrics` counters survive the atomic segment
    /// swap — neither reset nor double-counted by compaction.
    #[test]
    fn metrics_survive_compaction_swap() {
        let eng = engine_manual(CORPUS);
        for _ in 0..3 {
            search_ids(&eng, "main street", 0.5);
        }
        eng.insert("harbor view");
        assert_eq!(eng.metrics().queries, 3);
        eng.compact();
        assert!(eng.with_index(MutableIndex::pristine));
        assert_eq!(
            eng.metrics().queries,
            3,
            "compaction must not reset metrics"
        );
        for _ in 0..2 {
            search_ids(&eng, "harbor view", 0.5);
        }
        let snap = eng.metrics();
        assert_eq!(snap.queries, 5, "post-swap queries must keep accumulating");
        assert!(
            snap.matches >= 5,
            "pre-swap match counts retained: {}",
            snap.matches
        );
        eng.reset_metrics();
        assert_eq!(eng.metrics().queries, 0);
    }

    /// Acceptance: searches issued *during* an in-flight compaction (after
    /// the snapshot, before the install) complete and see the full corpus.
    #[test]
    fn searches_run_during_inflight_compaction() {
        let eng = Arc::new(engine_manual(CORPUS));
        let new_id = eng.insert("granite quay");
        let eng2 = Arc::clone(&eng);
        // Hook runs at max concurrency: rebuild pending, `state` not held.
        let saw = AtomicBool::new(false);
        eng.compact_with_hook(|| {
            let ids = search_ids(&eng2, "granite quay", 0.8);
            saw.store(ids.contains(&new_id), Ordering::SeqCst);
        });
        assert!(
            saw.load(Ordering::SeqCst),
            "mid-compaction search must see the record"
        );
        assert!(eng.with_index(MutableIndex::pristine));
        assert!(search_ids(&eng, "granite quay", 0.8).contains(&new_id));
    }

    /// The rebuild holds no `state` lock: a search started on another
    /// thread while the rebuild is in flight finishes before the rebuild
    /// does. The hook runs in the same block as `build_base`, so if that
    /// block took the write lock the search would block until install
    /// and `recv_timeout` would expire.
    #[test]
    fn threaded_searches_overlap_compaction() {
        let eng = Arc::new(engine_manual(CORPUS));
        let id = eng.insert("granite quay");
        let eng2 = Arc::clone(&eng);
        let mut searcher = None;
        let mut mid_rebuild = None;
        eng.compact_with_hook(|| {
            let (tx, rx) = mpsc::channel();
            searcher = Some(std::thread::spawn(move || {
                let _ = tx.send(search_ids(&eng2, "granite quay", 0.8));
            }));
            mid_rebuild = Some(rx.recv_timeout(Duration::from_secs(10)));
        });
        searcher.unwrap().join().unwrap();
        let ids = mid_rebuild
            .unwrap()
            .expect("a search must finish while the rebuild is in flight");
        assert!(ids.contains(&id), "mid-rebuild search must see the record");
        assert!(eng.with_index(MutableIndex::pristine));
        assert!(search_ids(&eng, "granite quay", 0.8).contains(&id));
    }

    /// Mutations racing an in-flight compaction are replayed onto the
    /// fresh segment at install — nothing is lost or resurrected.
    #[test]
    fn racing_mutations_are_replayed_at_install() {
        let eng = Arc::new(engine_manual(CORPUS));
        let early = eng.insert("granite quay");
        let eng2 = Arc::clone(&eng);
        let mut late = RecordId(u64::MAX);
        let late_ref = &mut late;
        eng.compact_with_hook(|| {
            // These land after the snapshot was taken: the rebuild cannot
            // see them, so the install must replay them.
            *late_ref = eng2.insert("velvet harbor");
            assert!(eng2.delete(early));
            assert!(eng2.upsert(RecordId(0), "main street east"));
        });
        assert!(
            !eng.with_index(MutableIndex::pristine),
            "replayed tail keeps index dirty"
        );
        assert!(!eng.with_index(|mi| mi.contains(early)));
        assert!(search_ids(&eng, "velvet harbor", 0.8).contains(&late));
        assert!(eng.with_index(|mi| mi.text(RecordId(0)) == Some("main street east")));
        // A follow-up compaction folds the tail in for good.
        eng.compact();
        assert!(eng.with_index(MutableIndex::pristine));
        assert!(search_ids(&eng, "velvet harbor", 0.8).contains(&late));
        assert!(!eng.with_index(|mi| mi.contains(early)));
    }

    #[test]
    fn budget_trip_autocompacts() {
        let eng = MutableEngine::new(mutable(CORPUS).with_budget(DriftBudget {
            max_rel_err: 10.0,
            max_delta_records: 2,
        }));
        eng.insert("a1 b1");
        eng.insert("a2 b2");
        assert!(
            eng.with_index(|mi| !mi.pristine()),
            "within budget: no compaction yet"
        );
        eng.insert("a3 b3");
        assert!(
            eng.with_index(MutableIndex::pristine),
            "third insert trips the budget"
        );
        assert_eq!(eng.with_index(MutableIndex::live_len), CORPUS.len() + 3);
    }

    #[test]
    fn engine_save_open_round_trip() {
        use std::sync::atomic::AtomicU64;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "setsim-mutable-engine-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let eng = engine(CORPUS);
        let id = eng.insert("granite quay");
        eng.save(&dir).unwrap();
        let back = MutableEngine::open(&dir).unwrap();
        assert!(search_ids(&back, "granite quay", 0.8).contains(&id));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
