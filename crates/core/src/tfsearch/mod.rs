//! Selection queries under the **tf-aware** TF/IDF cosine measure.
//!
//! Section IV of the paper closes with: *"TF/IDF and BM25 follow looser
//! versions of the aforementioned properties (by associating with every
//! token a maximum tf component and boosting all bounds accordingly).
//! Existing and novel algorithms for these metrics can also be optimized
//! accordingly."* This module carries that remark out for normalized
//! TF/IDF cosine:
//!
//! ```text
//! T(q, s) = Σ_{t ∈ q∩s} tf_q(t)·tf_s(t)·idf(t)² / (‖q‖·‖s‖)
//! ‖s‖     = sqrt( Σ_{t ∈ s} (tf_s(t)·idf(t))² )
//! ```
//!
//! The boosted properties (proofs in the item docs; both use `idf ≥ 1`,
//! which `idf = log2(1 + N/N(t)) ≥ 1` guarantees):
//!
//! * **Boosted Length Boundedness.** With `M_t` the maximum tf of token
//!   `t` in any database set and `m_q = max_t tf_q(t)`:
//!   `T(q,s) ≥ τ  ⟹  τ·‖q‖/m_q ≤ ‖s‖ ≤ B_q/(τ·‖q‖)` where
//!   `B_q = Σ_{t∈q} tf_q(t)·M_t·idf(t)²`.
//! * **Boosted Magnitude Boundedness.** After one sighting of `s`, its
//!   best case is `B_q/(‖s‖·‖q‖)` — exact in `‖s‖`, loose only in the
//!   `M_t` factors.
//! * **Order Preservation** survives untouched: lists sort by the global
//!   `‖s‖`, so relative order is identical in every list.
//!
//! [`TfIndex`] stores `(id, ‖s‖, tf)` postings sorted by `(‖s‖, id)` plus
//! each list's max tf; [`tf_sf`] is the Shortest-First algorithm
//! with all bounds boosted. [`tf_scan`] is the exhaustive oracle.

mod index;
mod select;

pub use index::{TfIndex, TfPosting, TfQuery, TfQueryToken};
pub use select::{tf_scan, tf_sf};
