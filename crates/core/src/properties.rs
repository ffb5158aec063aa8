//! The semantic properties of the IDF measure (Section IV).
//!
//! These three properties are what separate the paper's algorithms from
//! plain TA/NRA:
//!
//! * **Property 1 — Order Preservation.** Lists are sorted by `len(s)`,
//!   which is constant across lists, so two sets keep their relative order
//!   in every list. If `len(s) < len(fᵢ)` (the frontier of list `i`) and
//!   `s` has not been seen in list `i`, then `s` is *not* in list `i`.
//! * **Property 2 — Magnitude Boundedness.** After one sighting, `len(s)`
//!   is known and the exact best-case score `Σᵢ idf(qᵢ)²/(len(s)·len(q))`
//!   is computable — a tight upper bound, unlike NRA's frontier sums.
//! * **Theorem 1 — Length Boundedness.** `I(q,s) ≥ τ` implies
//!   `τ·len(q) ≤ len(s) ≤ len(q)/τ`, so whole list prefixes and suffixes
//!   can be skipped outright.
//!
//! This module provides the arithmetic; the algorithms apply it.

// Scoring arithmetic: every numeric conversion is exact or typed.
#![deny(clippy::as_conversions)]

use crate::{PreparedQuery, SearchError};

/// A similarity threshold validated to lie in `(0, 1]`.
///
/// The IDF measure is normalized to `[0, 1]`, so a threshold outside
/// `(0, 1]` can never be meaningful: `τ ≤ 0` admits every set (and
/// divides by zero in [`length_bounds`]), `τ > 1` admits none. Code that
/// accepts thresholds from untrusted input (CLI flags, query parsers)
/// should go through [`Tau::new`] once at the boundary and pass the
/// validated value inward, instead of relying on the `debug_assert!`
/// contract of the raw-`f64` helpers below.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Tau(f64);

impl Tau {
    /// Validate `tau`, returning `None` unless `0 < tau ≤ 1` and finite.
    pub fn new(tau: f64) -> Option<Self> {
        (tau > 0.0 && tau <= 1.0 && tau.is_finite()).then_some(Self(tau))
    }

    /// The validated threshold value.
    #[inline]
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }
}

/// The typed check every public entry point that takes a raw τ makes.
impl TryFrom<f64> for Tau {
    type Error = SearchError;

    fn try_from(tau: f64) -> Result<Self, SearchError> {
        Self::new(tau).ok_or(SearchError::InvalidTau(tau))
    }
}

/// Theorem 1: the inclusive `len(s)` window `[τ·len(q), len(q)/τ]` any
/// qualifying set must fall in. The bounds are tight (cases `q∩s = q` and
/// `q∩s = s` attain them).
///
/// # Contract
/// `tau` must lie in `(0, 1]` ([`Tau::new`] checks this); outside that
/// range the window is meaningless — `tau = 0` divides by zero — and
/// debug builds panic.
#[inline]
pub fn length_bounds(tau: f64, len_q: f64) -> (f64, f64) {
    debug_assert!(
        tau > 0.0 && tau <= 1.0 && tau.is_finite(),
        "length_bounds requires tau in (0, 1], got {tau}"
    );
    (tau * len_q, len_q / tau)
}

/// Magnitude Boundedness: the best-case score of a set with length
/// `len_s`, assuming it appears in every list whose combined `idf²` mass
/// is `idf_sq_sum`.
#[inline]
pub fn max_score(idf_sq_sum: f64, len_s: f64, len_q: f64) -> f64 {
    idf_sq_sum / (len_s * len_q)
}

/// The λᵢ cutoffs of the SF algorithm (Equation 2): with lists in
/// descending idf order, `λᵢ = Σ_{j ≥ i} idf(qʲ)² / (τ·len(q))` is the
/// largest length a *new* candidate first discovered in list `i` can have.
/// Monotonically non-increasing; `λ₁ = len(q)/τ`.
///
/// # Contract
/// `tau` must lie in `(0, 1]` ([`Tau::new`] checks this); `tau = 0`
/// would divide by zero and `tau` outside `(0, 1]` yields cutoffs with
/// no pruning meaning. Debug builds panic on violation.
pub fn lambda_cutoffs(query: &PreparedQuery, tau: f64) -> Vec<f64> {
    let suffix = query.idf_sq_suffix_sums();
    let mut out = Vec::with_capacity(query.num_lists());
    lambda_cutoffs_into(query, tau, &suffix, &mut out);
    out
}

/// Allocation-free λᵢ computation from precomputed suffix sums (see
/// [`crate::PreparedQuery::idf_sq_suffix_sums_into`]): fills `out`
/// (cleared first) reusing its capacity. Used by the engine's
/// reusable-scratch search path.
///
/// # Contract
/// Same as [`lambda_cutoffs`]; additionally `suffix` must have at least
/// `query.num_lists()` entries.
pub fn lambda_cutoffs_into(query: &PreparedQuery, tau: f64, suffix: &[f64], out: &mut Vec<f64>) {
    debug_assert!(
        tau > 0.0 && tau <= 1.0 && tau.is_finite(),
        "lambda_cutoffs requires tau in (0, 1], got {tau}"
    );
    out.clear();
    out.extend(
        suffix[..query.num_lists()]
            .iter()
            .map(|&s| s / (tau * query.len)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PreparedQuery, QueryToken};
    use setsim_tokenize::Token;

    fn q(idfs: &[f64]) -> PreparedQuery {
        let toks = idfs
            .iter()
            .enumerate()
            .map(|(i, &idf)| QueryToken {
                token: Token(u32::try_from(i).unwrap()),
                idf,
                idf_sq: idf * idf,
            })
            .collect();
        PreparedQuery::assemble(toks, 0.0)
    }

    #[test]
    fn bounds_are_symmetric_around_len_q() {
        let (lo, hi) = length_bounds(0.5, 10.0);
        assert_eq!((lo, hi), (5.0, 20.0));
        let (lo, hi) = length_bounds(1.0, 10.0);
        assert_eq!((lo, hi), (10.0, 10.0));
    }

    #[test]
    fn paper_example_lambdas() {
        // Section VI works the Figure 3 example with idf(q1)=15:
        // idf² = 225, 180, 45; len(q) = 21.21; τ = 1 →
        // λ1 = 21.21, λ2 = 10.6, λ3 = 2.12.
        let pq = q(&[15.0, 180f64.sqrt(), 45f64.sqrt()]);
        assert!((pq.len - 21.213).abs() < 1e-2);
        let l = lambda_cutoffs(&pq, 1.0);
        assert!((l[0] - 21.21).abs() < 1e-2, "λ1 = {}", l[0]);
        assert!((l[1] - 10.61).abs() < 1e-2, "λ2 = {}", l[1]);
        assert!((l[2] - 2.12).abs() < 1e-2, "λ3 = {}", l[2]);
    }

    #[test]
    fn lambdas_monotone_and_first_equals_upper_bound() {
        let pq = q(&[4.0, 3.0, 2.0, 1.0]);
        for tau in [0.3, 0.6, 0.9, 1.0] {
            let l = lambda_cutoffs(&pq, tau);
            for w in l.windows(2) {
                assert!(w[0] >= w[1], "λ must be non-increasing");
            }
            let (_, hi) = length_bounds(tau, pq.len);
            assert!((l[0] - hi).abs() < 1e-9, "λ1 = len(q)/τ");
        }
    }

    #[test]
    fn max_score_matches_definition() {
        assert!((max_score(50.0, 5.0, 2.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn max_score_decreases_with_length() {
        assert!(max_score(10.0, 2.0, 1.0) > max_score(10.0, 4.0, 1.0));
    }

    #[test]
    fn tau_constructor_accepts_only_unit_interval() {
        assert!(Tau::new(0.5).is_some());
        assert!(Tau::new(1.0).is_some());
        assert!(Tau::new(f64::MIN_POSITIVE).is_some());
        assert_eq!(Tau::new(0.75).map(Tau::get), Some(0.75));
        for bad in [0.0, -0.1, 1.0 + 1e-9, f64::NAN, f64::INFINITY, -1.0] {
            assert!(Tau::new(bad).is_none(), "Tau::new({bad}) should reject");
        }
    }

    #[test]
    #[should_panic(expected = "requires tau in (0, 1]")]
    #[cfg(debug_assertions)]
    fn length_bounds_rejects_zero_tau_in_debug() {
        let _ = length_bounds(0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "requires tau in (0, 1]")]
    #[cfg(debug_assertions)]
    fn lambda_cutoffs_rejects_oversized_tau_in_debug() {
        let pq = q(&[2.0, 1.0]);
        let _ = lambda_cutoffs(&pq, 1.5);
    }
}
