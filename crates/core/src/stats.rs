/// Access counters filled in by every selection algorithm.
///
/// The paper evaluates algorithms on wall-clock time *and* pruning power —
/// "the percentage of words examined over the total number of words"
/// (Figure 7). These counters expose both: `elements_read` is sorted
/// (sequential) access, `random_probes` counts extendible-hash lookups
/// (the TA family's per-element random I/O), and `total_list_elements` is
/// the denominator for [`pruning_pct`](Self::pruning_pct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Postings read by sorted access across all of the query's lists.
    pub elements_read: u64,
    /// Random-access probes (extendible hashing lookups) issued.
    pub random_probes: u64,
    /// Postings stepped over by skip-layer seeks (never materialized).
    pub elements_skipped: u64,
    /// Candidates ever inserted into the candidate set.
    pub candidates_inserted: u64,
    /// Candidate-set entries visited during bookkeeping scans.
    pub candidate_scan_steps: u64,
    /// Round-robin rounds (breadth-first algorithms) or lists processed
    /// (depth-first algorithms).
    pub rounds: u64,
    /// Base-table records scored directly (full scans and relational
    /// baselines). Kept separate from `elements_read`, which counts only
    /// inverted-list accesses: mixing the two silently broke the pruning
    /// invariant `elements_read ≤ total_list_elements`.
    pub records_scanned: u64,
    /// Total postings across the query's inverted lists — the pruning
    /// denominator.
    pub total_list_elements: u64,
    /// Whole shards skipped by the band table before any of their lists
    /// was touched (sharded indexes only; always 0 on a single index).
    pub shards_pruned: u64,
    /// Postings that were never visited because the entire shard holding
    /// them fell outside the Theorem 1 length window. These elements are
    /// part of `total_list_elements` but are neither read nor skipped —
    /// the third leg of the access partition.
    pub shard_pruned_elements: u64,
    /// Distinct snapshot pages this query faulted through the paged
    /// engine's buffer pool (always 0 on the heap engine). Counts each
    /// page once per query regardless of how many blocks it serves.
    pub pages_touched: u64,
    /// Page faults served from a resident, re-verified pool frame
    /// (paged engine only).
    pub page_cache_hits: u64,
    /// Page faults that read the snapshot file (paged engine only).
    /// Bounded above by the pages inside the query's Theorem 1 window.
    pub page_cache_misses: u64,
}

impl SearchStats {
    /// Percentage of list elements *not* read by sorted access, the
    /// paper's pruning-power metric. 100 means nothing was read.
    ///
    /// Sorted reads can never exceed the denominator; an algorithm that
    /// over-counts (e.g. by charging base-table records to
    /// `elements_read`) is a bug, not something to clamp away. The same
    /// holds for reads and skips together: every list element is either
    /// read, skipped, shard-pruned, or untouched — a seek that charged an
    /// element to both sides (or a jump that re-counted an already-passed
    /// prefix) would break the sum, not just one term. Shard pruning adds
    /// the third leg: postings in a band-skipped shard count toward the
    /// denominator but can never also be read or skipped.
    pub fn pruning_pct(&self) -> f64 {
        debug_assert!(
            self.elements_read <= self.total_list_elements,
            "elements_read ({}) exceeds total_list_elements ({}): \
             an algorithm is over-counting sorted accesses",
            self.elements_read,
            self.total_list_elements
        );
        debug_assert!(
            self.elements_read + self.elements_skipped <= self.total_list_elements,
            "elements_read ({}) + elements_skipped ({}) exceeds \
             total_list_elements ({}): a seek double-charged postings",
            self.elements_read,
            self.elements_skipped,
            self.total_list_elements
        );
        debug_assert!(
            self.elements_read + self.elements_skipped + self.shard_pruned_elements
                <= self.total_list_elements,
            "elements_read ({}) + elements_skipped ({}) + shard_pruned_elements ({}) \
             exceeds total_list_elements ({}): a pruned shard's postings were \
             also charged as visited",
            self.elements_read,
            self.elements_skipped,
            self.shard_pruned_elements,
            self.total_list_elements
        );
        if self.total_list_elements == 0 {
            return 100.0;
        }
        100.0 * (1.0 - self.elements_read as f64 / self.total_list_elements as f64)
    }

    /// Every counter's name, in declaration order: the one list the
    /// engine metrics, the wire `Stats` verb, the bench report and
    /// `bench-diff` iterate. [`as_array`](Self::as_array) and
    /// [`from_array`](Self::from_array) use the same order.
    pub const FIELDS: [&'static str; 13] = [
        "elements_read",
        "random_probes",
        "elements_skipped",
        "candidates_inserted",
        "candidate_scan_steps",
        "rounds",
        "records_scanned",
        "total_list_elements",
        "shards_pruned",
        "shard_pruned_elements",
        "pages_touched",
        "page_cache_hits",
        "page_cache_misses",
    ];

    /// Every counter by reference, in [`FIELDS`](Self::FIELDS) order: the
    /// one field list behind both array views.
    fn counters_mut(&mut self) -> [&mut u64; Self::FIELDS.len()] {
        [
            &mut self.elements_read,
            &mut self.random_probes,
            &mut self.elements_skipped,
            &mut self.candidates_inserted,
            &mut self.candidate_scan_steps,
            &mut self.rounds,
            &mut self.records_scanned,
            &mut self.total_list_elements,
            &mut self.shards_pruned,
            &mut self.shard_pruned_elements,
            &mut self.pages_touched,
            &mut self.page_cache_hits,
            &mut self.page_cache_misses,
        ]
    }

    /// The counters as an array, in [`FIELDS`](Self::FIELDS) order.
    #[must_use]
    pub fn as_array(&self) -> [u64; Self::FIELDS.len()] {
        let mut copy = *self;
        copy.counters_mut().map(|c| *c)
    }

    /// Inverse of [`as_array`](Self::as_array).
    #[must_use]
    pub fn from_array(counters: [u64; Self::FIELDS.len()]) -> Self {
        let mut stats = Self::default();
        for (c, v) in stats.counters_mut().into_iter().zip(counters) {
            *c = v;
        }
        stats
    }

    /// Compact JSON object of every counter, in declaration order. All
    /// values are exact integers, so the output is byte-stable for a
    /// given counter state — machine-readable companion to the text
    /// rendering paths (used by the bench report pipeline and
    /// `setsim-cli bench --json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_members())
    }

    /// `"name":value` for every counter, comma-separated, no braces: the
    /// body of [`to_json`](Self::to_json), also spliced into the flat
    /// [`MetricsSnapshot`](crate::MetricsSnapshot) object.
    pub(crate) fn json_members(&self) -> String {
        let pairs: Vec<String> = Self::FIELDS
            .iter()
            .zip(self.as_array())
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        pairs.join(",")
    }

    /// Merge counters from another search (for workload aggregation).
    pub fn merge(&mut self, other: &SearchStats) {
        for (c, o) in self.counters_mut().into_iter().zip(other.as_array()) {
            *c += o;
        }
    }
}

// Every field is a `u64` counter and every counter has a name: growing the
// struct without growing `FIELDS` (or the reverse) fails the build, and so
// does a `counters_mut` of another length or one naming a field twice.
const _: () = assert!(
    std::mem::size_of::<SearchStats>() == SearchStats::FIELDS.len() * std::mem::size_of::<u64>()
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_pct_full_read_is_zero() {
        let s = SearchStats {
            elements_read: 100,
            total_list_elements: 100,
            ..Default::default()
        };
        assert_eq!(s.pruning_pct(), 0.0);
    }

    #[test]
    fn pruning_pct_no_read_is_hundred() {
        let s = SearchStats {
            elements_read: 0,
            total_list_elements: 50,
            ..Default::default()
        };
        assert_eq!(s.pruning_pct(), 100.0);
    }

    #[test]
    fn pruning_pct_empty_lists() {
        let s = SearchStats::default();
        assert_eq!(s.pruning_pct(), 100.0);
    }

    #[test]
    fn pruning_pct_partial() {
        let s = SearchStats {
            elements_read: 25,
            total_list_elements: 100,
            ..Default::default()
        };
        assert!((s.pruning_pct() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn to_json_is_stable_and_complete() {
        let s = SearchStats {
            elements_read: 1,
            random_probes: 2,
            elements_skipped: 3,
            candidates_inserted: 4,
            candidate_scan_steps: 5,
            rounds: 6,
            records_scanned: 7,
            total_list_elements: 8,
            shards_pruned: 9,
            shard_pruned_elements: 10,
            pages_touched: 11,
            page_cache_hits: 12,
            page_cache_misses: 13,
        };
        assert_eq!(
            s.to_json(),
            "{\"elements_read\":1,\"random_probes\":2,\"elements_skipped\":3,\
             \"candidates_inserted\":4,\"candidate_scan_steps\":5,\"rounds\":6,\
             \"records_scanned\":7,\"total_list_elements\":8,\
             \"shards_pruned\":9,\"shard_pruned_elements\":10,\
             \"pages_touched\":11,\"page_cache_hits\":12,\"page_cache_misses\":13}"
        );
        assert_eq!(s.to_json(), s.to_json(), "byte-stable");
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = SearchStats {
            elements_read: 1,
            random_probes: 2,
            elements_skipped: 3,
            candidates_inserted: 4,
            candidate_scan_steps: 5,
            rounds: 6,
            records_scanned: 8,
            total_list_elements: 7,
            shards_pruned: 9,
            shard_pruned_elements: 0,
            pages_touched: 2,
            page_cache_hits: 3,
            page_cache_misses: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.elements_read, 2);
        assert_eq!(a.random_probes, 4);
        assert_eq!(a.records_scanned, 16);
        assert_eq!(a.total_list_elements, 14);
        assert_eq!(a.shards_pruned, 18);
        assert_eq!(a.shard_pruned_elements, 0);
        assert_eq!(a.pages_touched, 4);
        assert_eq!(a.page_cache_hits, 6);
        assert_eq!(a.page_cache_misses, 8);
    }

    #[test]
    #[should_panic(expected = "over-counting")]
    #[cfg(debug_assertions)]
    fn pruning_pct_rejects_overcounted_reads_in_debug() {
        let s = SearchStats {
            elements_read: 101,
            total_list_elements: 100,
            ..Default::default()
        };
        let _ = s.pruning_pct();
    }

    #[test]
    #[should_panic(expected = "double-charged")]
    #[cfg(debug_assertions)]
    fn pruning_pct_rejects_double_charged_seeks_in_debug() {
        // Reads and skips individually within bounds, but their sum says
        // some posting was charged on both sides of a seek.
        let s = SearchStats {
            elements_read: 60,
            elements_skipped: 60,
            total_list_elements: 100,
            ..Default::default()
        };
        let _ = s.pruning_pct();
    }

    #[test]
    fn pruning_pct_accepts_exact_partition() {
        // Every element accounted for exactly once: read + skipped may
        // reach the denominator but never pass it.
        let s = SearchStats {
            elements_read: 40,
            elements_skipped: 60,
            total_list_elements: 100,
            ..Default::default()
        };
        assert!((s.pruning_pct() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_pct_accepts_shard_pruned_partition() {
        // A pruned shard's postings complete the partition: read +
        // skipped + shard-pruned may reach the denominator exactly.
        let s = SearchStats {
            elements_read: 30,
            elements_skipped: 20,
            shard_pruned_elements: 50,
            shards_pruned: 2,
            total_list_elements: 100,
            ..Default::default()
        };
        assert!((s.pruning_pct() - 70.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "also charged as visited")]
    #[cfg(debug_assertions)]
    fn pruning_pct_rejects_visited_postings_in_pruned_shards_in_debug() {
        // Reads + skips alone fit the denominator, but adding the
        // shard-pruned leg overflows it: some posting was charged both
        // as shard-pruned and as visited.
        let s = SearchStats {
            elements_read: 40,
            elements_skipped: 30,
            shard_pruned_elements: 40,
            shards_pruned: 1,
            total_list_elements: 100,
            ..Default::default()
        };
        let _ = s.pruning_pct();
    }
}
