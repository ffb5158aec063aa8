//! Set similarity selection queries over inverted lists.
//!
//! This crate implements the primary contribution of *"Fast Indexes and
//! Algorithms for Set Similarity Selection Queries"* (ICDE 2008):
//!
//! * the **IDF similarity measure** (length-normalized TF/IDF with the term
//!   frequency component dropped) and its companions TF/IDF, BM25, BM25′
//!   (see [`measures`]);
//! * the **semantic properties** of IDF — Order Preservation, Magnitude
//!   Boundedness, and Length Boundedness (Theorem 1) — in [`properties`];
//! * an **inverted index** whose lists are sorted by normalized set length
//!   (equivalently, descending per-token contribution), with optional skip
//!   lists for length seeks and extendible-hash id indexes for random
//!   access ([`InvertedIndex`]);
//! * **eight selection algorithms** selected by one enum
//!   ([`AlgorithmKind`], with the [`AlgoConfig`] ablation toggles): full
//!   scan, sort-by-id multiway merge, the classic TA and NRA, the improved
//!   iTA and iNRA, the Shortest-First (SF) algorithm, and the Hybrid
//!   algorithm; plus a relational (SQL) baseline in [`algorithms::sql`];
//! * extensions the paper lists as future work: **top-k** variants
//!   ([`algorithms::topk`]) and a **self-join** composed from selections
//!   ([`algorithms::selfjoin`]);
//! * a **serving layer** ([`engine`]): a [`SearchRequest`] run through
//!   [`engine::execute`] is the one way to run a selection; the persistent
//!   [`QueryEngine`] around it reuses per-worker scratch memory across
//!   queries, executes batches (the paper's other stated future work,
//!   parallel execution) with a work-stealing thread pool, enforces
//!   per-query budgets (deadline / max element accesses), and aggregates
//!   latency and pruning metrics;
//! * **persistent snapshots** ([`snapshot`]): `InvertedIndex::save` /
//!   `InvertedIndex::load` serialize the index into a page-structured,
//!   CRC-checksummed file, and [`QueryEngine::open`] cold-starts a
//!   serving engine from one with typed [`SnapshotError`]s — never a
//!   panic — on damaged files.
//!
//! # The problem
//!
//! Given a database `D` of token sets and a query set `q`, return every
//! `s ∈ D` with `I(q, s) ≥ τ`, where
//!
//! ```text
//! idf(t)  = log2(1 + N / N(t))
//! len(s)  = sqrt( Σ_{t ∈ s} idf(t)² )
//! I(q, s) = Σ_{t ∈ q ∩ s} idf(t)² / (len(s) · len(q))
//! ```
//!
//! # Quickstart
//!
//! ```
//! use setsim_core::{AlgorithmKind, CollectionBuilder, IndexOptions,
//!                   InvertedIndex, QueryEngine, SearchRequest};
//! use setsim_tokenize::QGramTokenizer;
//!
//! let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
//! for s in ["main street", "main st", "maine street", "park avenue"] {
//!     b.add(s);
//! }
//! let collection = b.build();
//! let index = InvertedIndex::build(&collection, IndexOptions::default());
//! let mut engine = QueryEngine::new(index);
//! let query = engine.prepare_query_str("main street");
//! let out = engine
//!     .search(SearchRequest::new(&query).tau(0.5).algorithm(AlgorithmKind::Sf))
//!     .expect("valid request");
//! assert!(out
//!     .results
//!     .iter()
//!     .any(|m| collection.text(m.id) == Some("main street")));
//! ```

// Library-code policy (DESIGN.md §13). Unit tests are exempt through
// `clippy.toml`'s `allow-*-in-tests`, and may build indexes and read
// clocks directly.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::missing_panics_doc
)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod algorithms;
pub mod api;
#[cfg(feature = "audit")]
pub mod audit;
mod collection;
pub mod engine;
mod index;
pub mod measures;
pub mod properties;
mod query;
mod result;
pub mod segment;
pub mod shard;
pub mod snapshot;
mod stats;
pub mod tfsearch;
mod weights;

pub use algorithms::{AlgoConfig, MAX_QUERY_LISTS};
pub use api::{
    ErrorCode, SearchCall, SearchReply, WireError, WireMatch, WireRequest, WireResponse, WireStats,
    PROTOCOL_VERSION,
};
pub use collection::{CollectionBuilder, SetCollection, SetId};
pub use engine::{
    AlgorithmKind, Budget, EngineMetrics, MetricsSnapshot, PagedEngine, QueryEngine, Scratch,
    SearchError, SearchRequest, SearchView, ShardedEngine,
};
pub use index::{
    IdPostings, IndexOptions, InvertedIndex, Posting, PostingList, ReprKind, ReprPolicy,
    BITMAP_DENSITY_DEN, BITMAP_MIN_POSTINGS, INLINE_CAP,
};
pub use properties::Tau;
pub use query::{PreparedQuery, QueryToken};
pub use result::{Match, SearchOutcome, SearchStatus};
pub use segment::{
    DriftBudget, MutableEngine, MutableIndex, MutableMatch, MutableOutcome, MutableQuery,
    MutableSearchRequest, RecordId,
};
pub use setsim_storage::{SnapshotError, SnapshotRegion};
pub use shard::{LengthBand, ShardedIndex};
pub use stats::SearchStats;
pub use weights::TokenWeights;

/// Relative slack of every pruning bound and length window, so that the
/// rounding in a bound can never prune a set that passes. All slack is
/// one-sided: it may keep a borderline candidate a little longer, never
/// discard one early.
pub(crate) const EPS_REL: f64 = 1e-9;

/// Relative slack of the pass rule: strictly inside the prune slack, and
/// wide enough that an exact duplicate (canonical score 1 up to a few
/// ulps) passes at `τ = 1`.
const PASS_REL: f64 = 1e-12;

/// True if `upper` is strictly below `tau` even after granting the
/// floating-point slack — i.e. it is safe to prune.
#[inline]
pub(crate) fn safely_below(upper: f64, tau: f64) -> bool {
    upper < tau - tau.abs() * EPS_REL - 1e-12
}

/// The pass rule, applied to the canonical score only, so membership is
/// a pure function of (query, set, τ) whichever algorithm ran (DESIGN.md
/// §1).
#[inline]
pub(crate) fn passes(score: f64, tau: f64) -> bool {
    score >= tau - tau * PASS_REL
}

#[cfg(test)]
mod tests {
    use super::{passes, safely_below, EPS_REL, PASS_REL};

    #[test]
    fn pass_slack_lies_strictly_inside_prune_slack() {
        for tau in [f64::MIN_POSITIVE, 1e-12, 0.3, 0.7, 0.999, 1.0] {
            let line = tau - tau * PASS_REL;
            let below = f64::from_bits(line.to_bits() - 1);
            assert!(passes(line, tau) && !passes(below, tau), "tau={tau}");
            // A bound that undershoots a passing score by far more than
            // any summation error still does not prune it.
            assert!(
                !safely_below(line * (1.0 - EPS_REL / 2.0), tau),
                "tau={tau}"
            );
        }
        // An exact duplicate's score is 1 up to a few ulps.
        assert!(passes(f64::from_bits(1f64.to_bits() - 64), 1.0));
    }
}
