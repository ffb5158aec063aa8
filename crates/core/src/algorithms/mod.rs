//! The eight selection algorithms plus the top-k and self-join extensions.
//!
//! Each algorithm is one crate-private `search` function over the engine's
//! per-query context; callers select one with an
//! [`AlgorithmKind`](crate::AlgorithmKind) (plus an [`AlgoConfig`]) on a
//! [`SearchRequest`](crate::SearchRequest) and run it through
//! [`engine::execute`](crate::engine::execute). Every one of them returns
//! exactly the sets that pass τ, each with the bits of its canonical
//! score (DESIGN.md §1; the integration suites compare each against
//! `AlgorithmKind::Scan` bit for bit).
//!
//! | `AlgorithmKind` | Section | Access pattern | Properties used |
//! |---|---|---|---|
//! | `Scan` | — | whole database | none (oracle) |
//! | `Merge` | III-B | all list elements, heap merge | none |
//! | `Ta` | III-B | sorted + random | monotonicity |
//! | `Nra` | III-B (Alg. 1) | sorted, round-robin | monotonicity |
//! | `ITa` | V | sorted + random | all three |
//! | `INra` | V (Alg. 2) | sorted, round-robin | all three |
//! | `Sf` | VI (Alg. 3) | sorted, depth-first by idf | all three + λᵢ |
//! | `Hybrid` | VII (Alg. 4) | sorted, round-robin | all three + λᵢ + max_len(C) |

pub(crate) mod hybrid;
pub(crate) mod inra;
pub(crate) mod ita;
pub(crate) mod merge;
pub(crate) mod nra;
/// The prefix-filter baseline (Chaudhuri et al., discussed in Section IX).
pub mod prefix;
pub(crate) mod scan;
/// Set similarity self-join composed from selection queries (the join
/// setting of the Section IX related work).
pub mod selfjoin;
pub(crate) mod sf;
/// The relational (SQL) baseline of Section III-A.
pub mod sql;
pub(crate) mod ta;
/// Top-k set similarity search (the paper's stated future work,
/// Section IX).
pub mod topk;

use crate::{InvertedIndex, PreparedQuery, SetId};

/// Toggles for the property-based optimizations, matching the ablations of
/// Figures 8 (Length Bounding) and 9 (skip lists). `#[non_exhaustive]` so
/// future toggles are non-breaking; construct via the named presets or
/// [`Default`] plus the builder setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct AlgoConfig {
    /// Apply Theorem 1: seek lists to `τ·len(q)` and stop them past
    /// `len(q)/τ`. Disabling reproduces the "NLB" variants of Figure 8.
    pub length_bounding: bool,
    /// Use the per-list skip layer (fence keys) for the initial seek.
    /// Disabling forces a scan-and-discard of the prefix — the "NSL"
    /// variants of Figure 9.
    /// Irrelevant unless `length_bounding` is on.
    pub use_skip_lists: bool,
    /// Let SF and iNRA jump forward *inside* the Theorem 1 window — over
    /// postings that provably cannot create or resolve a candidate — via
    /// each list's fence keys. Skipped elements are counted in
    /// `elements_skipped`, never read. Disabling
    /// reproduces the pre-kernel element-at-a-time behaviour exactly.
    pub block_skip: bool,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        Self {
            length_bounding: true,
            use_skip_lists: true,
            block_skip: true,
        }
    }
}

impl AlgoConfig {
    /// Everything on (the paper's default setting).
    pub fn full() -> Self {
        Self::default()
    }

    /// Length Bounding disabled (Figure 8's NLB).
    pub fn no_length_bounding() -> Self {
        Self {
            length_bounding: false,
            use_skip_lists: false,
            block_skip: false,
        }
    }

    /// Skip lists disabled but Length Bounding on (Figure 9's NSL).
    /// Forward jumps need the skip layer too, so they are off as well.
    pub fn no_skip_lists() -> Self {
        Self {
            length_bounding: true,
            use_skip_lists: false,
            block_skip: false,
        }
    }

    /// In-window forward jumps disabled; everything else on. Isolates the
    /// effect of the candidate-targeted skips from the initial seeks.
    pub fn no_block_skip() -> Self {
        Self {
            block_skip: false,
            ..Self::default()
        }
    }

    /// Toggle Length Bounding (Theorem 1, the Figure 8 ablation).
    #[must_use]
    pub fn with_length_bounding(mut self, on: bool) -> Self {
        self.length_bounding = on;
        self
    }

    /// Toggle skip-list seeks (the Figure 9 ablation).
    #[must_use]
    pub fn with_skip_lists(mut self, on: bool) -> Self {
        self.use_skip_lists = on;
        self
    }

    /// Toggle in-window forward jumps (SF and iNRA candidate-targeted
    /// seeks through the skip layer).
    #[must_use]
    pub fn with_block_skip(mut self, on: bool) -> Self {
        self.block_skip = on;
        self
    }
}

/// Bitset width over query lists, the cap enforced by the algorithms that
/// track per-list membership in a `u128` (NRA, iNRA, Hybrid; Section V's
/// candidate bookkeeping). Queries are words decomposed into q-grams, so
/// 128 lists is far beyond anything the paper's workloads produce.
pub const MAX_QUERY_LISTS: usize = 128;

/// The IDF score `I(q, s)`, computed the one way every emission reports
/// it (DESIGN.md §1): `idf²` summed over the query tokens `s` contains
/// (`contains(i)` for query token `i`) **in query-token order**, divided
/// once by `len(s)·len(q)`; 0 if nothing matches. Floating-point addition
/// is not associative, so a partial sum accumulated in an algorithm's own
/// traversal order would leak that order into the last bits; reporting
/// this value instead makes score and membership pure functions of
/// (query, set), identical across algorithm, representation, shard count
/// and paging. SF, sort-by-id and SQL accumulate the same sum in the same
/// order and divide once; `engine::execute_into` debug-asserts the bits
/// of every emission against [`table_score`].
#[inline]
pub(crate) fn canonical_score(
    query: &PreparedQuery,
    len_s: f64,
    mut contains: impl FnMut(usize) -> bool,
) -> f64 {
    let mut dot = 0.0;
    for (i, qt) in query.tokens.iter().enumerate() {
        if contains(i) {
            dot += qt.idf_sq;
        }
    }
    if dot == 0.0 {
        return 0.0;
    }
    dot / (len_s * query.len)
}

/// [`canonical_score`] of database set `id`, read from the base table:
/// the scan oracle's score, and what every other emission must equal.
pub(crate) fn table_score(index: &InvertedIndex<'_>, query: &PreparedQuery, id: SetId) -> f64 {
    let set = index.collection().set(id);
    canonical_score(query, index.set_len(id), |i| {
        set.contains(query.tokens[i].token)
    })
}

pub(crate) fn assert_query_width(query: &PreparedQuery) {
    assert!(
        query.num_lists() <= MAX_QUERY_LISTS,
        "query has {} lists; maximum supported is {MAX_QUERY_LISTS}",
        query.num_lists()
    );
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::engine::{execute, Scratch};
    use crate::{
        AlgoConfig, AlgorithmKind, InvertedIndex, PreparedQuery, SearchOutcome, SearchRequest,
    };

    /// Run one selection on a fresh scratch.
    pub(crate) fn run(
        index: &InvertedIndex<'_>,
        kind: AlgorithmKind,
        config: AlgoConfig,
        query: &PreparedQuery,
        tau: f64,
    ) -> SearchOutcome {
        let req = SearchRequest::new(query)
            .tau(tau)
            .algorithm(kind)
            .config(config);
        execute(index, &mut Scratch::default(), &req).expect("valid request")
    }

    /// Deterministic pseudo-random lowercase sequence (LCG). Prefixes of it
    /// have pairwise-distinct gram sets and strictly growing normalized
    /// lengths — unlike a cycled alphabet, whose prefixes alias each other's
    /// gram sets every period.
    pub(crate) fn pseudoseq(len: usize) -> String {
        let mut x: u32 = 0xbeef;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                char::from(b'a' + ((x >> 16) % 26) as u8)
            })
            .collect()
    }
}
