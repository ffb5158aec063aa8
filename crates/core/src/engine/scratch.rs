//! Reusable per-worker search state.
//!
//! Every selection algorithm needs transient structures — a candidate
//! table, cursors, bitsets, a result buffer. Allocating them per query is
//! pure serving-loop overhead: the structures' *shapes* are identical from
//! query to query, only their contents change. [`Scratch`] owns one
//! instance of every such structure; [`Scratch::begin`] clears contents
//! while keeping capacity, so a warm scratch serves iNRA/SF/Hybrid queries
//! with zero per-query heap allocation.
//!
//! One `Scratch` serves one query at a time; the engine keeps one per
//! worker thread. The buffers are deliberately shared across algorithms
//! (SF's double-buffered candidate list, Hybrid's pool, the round-robin
//! cursor vectors) — a worker switching algorithms between queries reuses
//! whatever overlaps.

use crate::{Match, SearchOutcome, SearchStats, SearchStatus, SetId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Deterministic multiplicative hasher (the Firefox/`FxHash` scheme) for
/// the scratch hash tables.
///
/// `std`'s default `RandomState` seeds every map differently, making
/// iteration order vary run to run. That order is *observable* in the
/// access counters: NRA's early-exit candidate scans stop at the first
/// viable candidate, so which candidates get pruned — and later
/// re-inserted — depends on it. The bench harness gates regressions on
/// counters being pure functions of (seed, workload, algorithm), which
/// makes a fixed, repo-owned hash function part of the engine's
/// determinism contract (a toolchain-owned hasher could silently change
/// between releases and invalidate stored baselines).
#[derive(Default)]
pub(crate) struct DetHasher {
    hash: u64,
}

impl DetHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Hash map with run-independent iteration order (see [`DetHasher`]).
pub(crate) type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;
/// Hash set with run-independent iteration order (see [`DetHasher`]).
pub(crate) type DetHashSet<T> = HashSet<T, BuildHasherDefault<DetHasher>>;

/// A partially-assembled candidate in the NRA/iNRA hash table.
///
/// `lower` is the accumulated (true lower-bound) score, `seen` a bitset of
/// the query lists the set has surfaced in. `len` is the set's normalized
/// length — used by iNRA for Magnitude Boundedness, ignored (zero) by
/// classic NRA, which is deliberately blind to lengths.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CandCell {
    pub(crate) lower: f64,
    pub(crate) len: f64,
    pub(crate) seen: u128,
}

/// A candidate in SF's sorted candidate list (sorted by `(len, id)`, the
/// same order as every inverted list). `dot` is the undivided `Σ idf²`
/// over the lists it was found in so far, summed in list order — which is
/// query-token order, so at the end it is `canonical_score`'s numerator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SfCand {
    pub(crate) id: SetId,
    pub(crate) len: f64,
    pub(crate) dot: f64,
}

/// A candidate in Hybrid's pool.
pub(crate) struct PoolCand {
    pub(crate) id: u32,
    pub(crate) len: f64,
    pub(crate) lower: f64,
    pub(crate) seen: u128,
    pub(crate) dead: bool,
}

/// Hybrid's candidate organization (Section VII): one length-sorted
/// append-only list per inverted list, plus a hash table for id access, so
/// `max_len(C)` reads off the list tails and pruning pops dead entries
/// from the backs.
#[derive(Default)]
pub(crate) struct Pool {
    pub(crate) per_list: Vec<Vec<PoolCand>>,
    index: DetHashMap<u32, (u32, u32)>,
    alive: usize,
}

impl Pool {
    /// Ready the pool for a query over `n` lists: clear every per-list
    /// vector (keeping capacity) and grow the outer vector if needed. The
    /// outer vector never shrinks, so inner capacity survives across
    /// queries of varying width.
    pub(crate) fn prepare(&mut self, n: usize) {
        for v in &mut self.per_list {
            v.clear();
        }
        while self.per_list.len() < n {
            self.per_list.push(Vec::new());
        }
        self.index.clear();
        self.alive = 0;
    }

    pub(crate) fn get_mut(&mut self, id: u32) -> Option<&mut PoolCand> {
        let &(l, p) = self.index.get(&id)?;
        let c = &mut self.per_list[l as usize][p as usize];
        debug_assert!(!c.dead);
        Some(c)
    }

    pub(crate) fn insert(&mut self, list: usize, cand: PoolCand) {
        let v = &mut self.per_list[list];
        debug_assert!(v
            .last()
            .map_or(true, |last| last.dead || last.len <= cand.len));
        self.index.insert(cand.id, (list as u32, v.len() as u32));
        v.push(cand);
        self.alive += 1;
    }

    /// Largest length among live candidates, reading only list tails
    /// (dead tail entries are popped on the way — the paper's
    /// back-pruning).
    pub(crate) fn max_len(&mut self) -> f64 {
        let mut max = f64::NEG_INFINITY;
        for v in &mut self.per_list {
            while v.last().is_some_and(|c| c.dead) {
                v.pop();
            }
            if let Some(c) = v.last() {
                max = max.max(c.len);
            }
        }
        max
    }

    pub(crate) fn kill_at(&mut self, list: usize, pos: usize) {
        let c = &mut self.per_list[list][pos];
        if !c.dead {
            c.dead = true;
            self.index.remove(&c.id);
            self.alive -= 1;
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.alive == 0
    }
}

/// Reusable search state: every transient structure any of the eight
/// selection algorithms needs, owned once and recycled across queries.
///
/// Create with [`Scratch::default`]; the engine (or
/// [`crate::engine::execute`]) calls `begin` before each
/// query. After a search the results, statistics, and completion status
/// remain readable through the accessors until the next `begin`.
#[derive(Default)]
pub struct Scratch {
    /// Matches emitted by the current/last query.
    pub(crate) results: Vec<Match>,
    /// Access counters for the current/last query.
    pub(crate) stats: SearchStats,
    /// Completion status of the current/last query.
    pub(crate) status: SearchStatus,
    /// Per-list read cursors (round-robin and merge algorithms).
    pub(crate) pos: Vec<usize>,
    /// Per-list closed flags (length bounding / exhaustion).
    pub(crate) closed: Vec<bool>,
    /// Per-list resting flags (Hybrid's SF-style stop).
    pub(crate) resting: Vec<bool>,
    /// Per-list frontier values (lengths or weights, algorithm-dependent).
    pub(crate) frontier: Vec<f64>,
    /// NRA/iNRA candidate table. Deterministic iteration order
    /// ([`DetHashMap`]) — NRA's counters depend on it.
    pub(crate) candidates: DetHashMap<u32, CandCell>,
    /// Ids scheduled for removal during a candidate scan.
    pub(crate) to_remove: Vec<u32>,
    /// Sets already scored (TA/iTA duplicate suppression).
    pub(crate) seen: DetHashSet<u32>,
    /// SF candidate list (current generation).
    pub(crate) sf_cands: Vec<SfCand>,
    /// SF candidate list (next generation; swapped after each list merge).
    pub(crate) sf_merged: Vec<SfCand>,
    /// λᵢ cutoffs of SF/Hybrid.
    pub(crate) lambdas: Vec<f64>,
    /// Suffix sums of `idf²` in list order.
    pub(crate) suffix: Vec<f64>,
    /// Hybrid's candidate pool.
    pub(crate) pool: Pool,
    /// Sort-by-id merge heap: `(id, list)`, both popped ascending.
    pub(crate) heap: BinaryHeap<(Reverse<u32>, Reverse<usize>)>,
}

impl Scratch {
    /// Reset for a new query: clear every buffer's contents while keeping
    /// its capacity.
    pub(crate) fn begin(&mut self) {
        self.results.clear();
        self.stats = SearchStats::default();
        self.status = SearchStatus::Complete;
        self.pos.clear();
        self.closed.clear();
        self.resting.clear();
        self.frontier.clear();
        self.candidates.clear();
        self.to_remove.clear();
        self.seen.clear();
        self.sf_cands.clear();
        self.sf_merged.clear();
        self.lambdas.clear();
        self.suffix.clear();
        self.heap.clear();
        // The pool is prepared per query (it needs the list count).
    }

    /// Matches emitted by the last query run on this scratch.
    #[must_use]
    pub fn results(&self) -> &[Match] {
        &self.results
    }

    /// Access counters of the last query run on this scratch.
    #[must_use]
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Completion status of the last query run on this scratch.
    #[must_use]
    pub fn status(&self) -> SearchStatus {
        self.status
    }

    /// Move the last query's results out into an owned [`SearchOutcome`]
    /// (the allocating convenience path; the result buffer's capacity goes
    /// with it and regrows on the next query).
    pub(crate) fn take_outcome(&mut self) -> SearchOutcome {
        SearchOutcome {
            results: std::mem::take(&mut self.results),
            stats: self.stats,
            status: self.status,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_clears_state_but_keeps_capacity() {
        let mut s = Scratch::default();
        s.results.push(Match {
            id: SetId(1),
            score: 0.5,
        });
        s.pos.extend([1, 2, 3]);
        s.candidates.insert(7, CandCell::default());
        s.seen.insert(9);
        s.status = SearchStatus::BudgetExceeded;
        let cap = s.pos.capacity();
        s.begin();
        assert!(s.results.is_empty());
        assert!(s.pos.is_empty());
        assert!(s.candidates.is_empty());
        assert!(s.seen.is_empty());
        assert_eq!(s.status, SearchStatus::Complete);
        assert_eq!(s.pos.capacity(), cap, "begin must not free capacity");
    }

    #[test]
    fn det_hash_maps_iterate_identically() {
        // Two maps fed the same insert/remove sequence must iterate in
        // the same order — the property RandomState deliberately breaks
        // and the counter-determinism contract needs.
        let build = || {
            let mut m = DetHashMap::<u32, u32>::default();
            for i in 0..1000u32 {
                m.insert(i.wrapping_mul(2_654_435_761), i);
            }
            for i in (0..1000u32).step_by(3) {
                m.remove(&i.wrapping_mul(2_654_435_761));
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn det_hasher_is_stable() {
        // Pin the hash function itself: a silent change to DetHasher would
        // invalidate every stored BENCH_*.json baseline at once. The
        // expected value is the definition unrolled by hand:
        // (rotl(0, 5) ^ 0xdead_beef) * SEED.
        let mut h = DetHasher::default();
        h.write_u32(0xdead_beef);
        assert_eq!(h.finish(), 0xdead_beef_u64.wrapping_mul(DetHasher::SEED));

        let mut a = DetHasher::default();
        let mut b = DetHasher::default();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        let mut c = DetHasher::default();
        c.write_u64(43);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn pool_prepare_never_shrinks_outer() {
        let mut p = Pool::default();
        p.prepare(4);
        assert_eq!(p.per_list.len(), 4);
        p.prepare(2);
        assert_eq!(p.per_list.len(), 4, "outer vector keeps inner capacity");
        assert!(p.is_empty());
    }

    #[test]
    fn pool_insert_kill_max_len() {
        let mut p = Pool::default();
        p.prepare(2);
        p.insert(
            0,
            PoolCand {
                id: 1,
                len: 2.0,
                lower: 0.1,
                seen: 1,
                dead: false,
            },
        );
        p.insert(
            1,
            PoolCand {
                id: 2,
                len: 5.0,
                lower: 0.2,
                seen: 2,
                dead: false,
            },
        );
        assert!((p.max_len() - 5.0).abs() < 1e-12);
        p.kill_at(1, 0);
        assert!((p.max_len() - 2.0).abs() < 1e-12);
        assert!(p.get_mut(2).is_none());
        assert!(p.get_mut(1).is_some());
    }

    #[test]
    fn take_outcome_carries_status() {
        let mut s = Scratch::default();
        s.begin();
        s.results.push(Match {
            id: SetId(3),
            score: 0.9,
        });
        s.status = SearchStatus::BudgetExceeded;
        let out = s.take_outcome();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.status, SearchStatus::BudgetExceeded);
        assert!(s.results.is_empty());
    }
}
