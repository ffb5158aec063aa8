//! The in-memory delta segment: recent records, their per-token sorted
//! runs, and the tombstone bitmap over the base segment.
//!
//! Delta records are keyed throughout in **stale coordinates** — the
//! normalized length each record *would have had* under the base
//! segment's frozen idf weights. That choice gives the whole index one
//! coherent coordinate system: the Theorem 1 length window derived from
//! the (stale-prepared) query applies unchanged to base lists and delta
//! runs alike, and the keys never move as later mutations drift the live
//! weights (only compaction, which rebuilds everything, retires them).

use crate::SearchStats;
use setsim_tokenize::{Token, TokenSet};
use std::collections::{BTreeSet, HashMap};

/// Key of a delta run entry: the record's stale normalized length (as
/// monotone `f64` bits — lengths are non-negative) plus its delta slot to
/// keep keys unique among equal-length records.
pub(crate) type RunKey = (u64, u32);

/// One record living in the delta segment.
#[derive(Debug, Clone)]
pub(crate) struct DeltaRecord {
    /// Stable record id (survives compaction).
    pub id: u64,
    /// Original text, kept for re-tokenization at compaction.
    pub text: String,
    /// Distinct tokens under the unified dictionary.
    pub set: TokenSet,
    /// Normalized length under the base segment's stale weights.
    pub stale_len: f64,
    /// False once deleted (dead records wait for compaction).
    pub alive: bool,
}

/// The delta segment: an append-only arena of recent records with one
/// stale-length-sorted run per token, mirroring the base segment's
/// length-sorted inverted lists at miniature scale.
#[derive(Default)]
pub(crate) struct DeltaSegment {
    /// All records since the last compaction, dead ones included.
    pub records: Vec<DeltaRecord>,
    /// Per-token sorted runs over the *alive* records.
    runs: HashMap<Token, BTreeSet<RunKey>>,
    alive: usize,
}

impl DeltaSegment {
    /// Append a record, indexing it in every token's run. Returns its slot.
    pub(crate) fn push(&mut self, record: DeltaRecord) -> usize {
        let slot = self.records.len();
        let key = (record.stale_len.to_bits(), slot as u32);
        for t in record.set.iter() {
            self.runs.entry(t).or_default().insert(key);
        }
        self.records.push(record);
        self.alive += 1;
        slot
    }

    /// Mark `slot` dead and unlink it from every run.
    pub(crate) fn kill(&mut self, slot: usize) {
        let key = (self.records[slot].stale_len.to_bits(), slot as u32);
        // Unlink without holding a borrow of the record across the run map.
        let tokens: Vec<Token> = self.records[slot].set.iter().collect();
        for t in tokens {
            if let Some(run) = self.runs.get_mut(&t) {
                run.remove(&key);
            }
        }
        self.records[slot].alive = false;
        self.alive -= 1;
    }

    /// Number of records, dead ones included (the compaction footprint).
    pub(crate) fn footprint(&self) -> usize {
        self.records.len()
    }

    /// Number of alive records.
    pub(crate) fn alive_len(&self) -> usize {
        self.alive
    }

    /// Collect the slots of alive records whose stale length lies in
    /// `[lo, hi]`, seeking each query token's run. Slots are pushed in
    /// token-by-token visit order and may repeat; the caller dedups.
    /// Every run element visited is charged to `candidate_scan_steps`.
    pub(crate) fn window_candidates(
        &self,
        tokens: impl Iterator<Item = Token>,
        lo: f64,
        hi: f64,
        out: &mut Vec<u32>,
        stats: &mut SearchStats,
    ) {
        let lo_key = (lo.to_bits(), 0u32);
        let hi_bits = hi.to_bits();
        for t in tokens {
            let Some(run) = self.runs.get(&t) else {
                continue;
            };
            for &(bits, slot) in run.range(lo_key..) {
                if bits > hi_bits {
                    break;
                }
                stats.candidate_scan_steps += 1;
                out.push(slot);
            }
        }
    }

    /// Collect every alive slot (the no-base fallback, where stale lengths
    /// are degenerate and carry no pruning power).
    pub(crate) fn all_alive(&self, out: &mut Vec<u32>, stats: &mut SearchStats) {
        for (slot, r) in self.records.iter().enumerate() {
            stats.candidate_scan_steps += 1;
            if r.alive {
                out.push(slot as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, tokens: &[u32], stale_len: f64) -> DeltaRecord {
        DeltaRecord {
            id,
            text: format!("r{id}"),
            set: tokens.iter().map(|&t| Token(t)).collect(),
            stale_len,
            alive: true,
        }
    }

    fn window(d: &DeltaSegment, tokens: &[u32], lo: f64, hi: f64) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        d.window_candidates(
            tokens.iter().map(|&t| Token(t)),
            lo,
            hi,
            &mut out,
            &mut stats,
        );
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn window_seeks_per_token_runs() {
        let mut d = DeltaSegment::default();
        d.push(record(10, &[1, 2], 1.0));
        d.push(record(11, &[2, 3], 2.0));
        d.push(record(12, &[2], 3.0));
        assert_eq!(window(&d, &[2], 1.5, 2.5), vec![1]);
        assert_eq!(window(&d, &[2], 0.5, 3.5), vec![0, 1, 2]);
        assert_eq!(window(&d, &[1, 3], 0.0, 9.0), vec![0, 1]);
        assert_eq!(window(&d, &[9], 0.0, 9.0), Vec::<u32>::new());
    }

    #[test]
    fn kill_unlinks_from_runs() {
        let mut d = DeltaSegment::default();
        d.push(record(10, &[1, 2], 1.0));
        d.push(record(11, &[1], 1.0)); // same stale length, distinct slot
        d.kill(0);
        assert_eq!(window(&d, &[1, 2], 0.0, 9.0), vec![1]);
        assert_eq!(d.alive_len(), 1);
        assert_eq!(d.footprint(), 2);
        let mut all = Vec::new();
        d.all_alive(&mut all, &mut SearchStats::default());
        assert_eq!(all, vec![1]);
    }
}
