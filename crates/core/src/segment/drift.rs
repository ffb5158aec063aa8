//! IDF drift accounting for the delta/base segment split.
//!
//! The base segment's inverted lists and per-token idf weights are frozen
//! at build time, but every insert or delete moves the live corpus away
//! from them: `N` (the number of sets) and `N(t)` (per-token document
//! frequencies) drift, and with them every `idf(t) = log2(1 + N/N(t))`.
//! Searching the base segment with stale weights is still *sound* as long
//! as the threshold it is searched at is widened by a factor that bounds
//! how far any live score can sit above its stale counterpart — that
//! factor is what [`DriftBounds`] computes, and [`DriftBudget`] is the
//! configurable limit past which the index compacts instead of widening
//! further (see DESIGN.md §12 for the derivation).
//!
//! `idf_live(t)` depends on `t` only through its live document frequency,
//! and `idf_stale(t)` is frozen, so the ratio bound is a fold over the
//! distinct `(live df, stale idf)` pairs — a few thousand — rather than
//! over every dictionary token. [`LiveDf`] keeps those classes current as
//! mutations move tokens between them.

use crate::TokenWeights;
use setsim_tokenize::Token;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Compaction policy: how much idf drift and delta growth the index
/// tolerates before [`needs_compaction`] trips.
///
/// [`needs_compaction`]: crate::segment::MutableIndex::needs_compaction
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftBudget {
    /// Maximum tolerated relative idf error
    /// `max_t |idf_live(t)/idf_stale(t) − 1|` before compaction. Larger
    /// values widen the base-segment search window (slower queries);
    /// smaller values compact more often.
    pub max_rel_err: f64,
    /// Maximum delta footprint (delta records, dead or alive, plus base
    /// tombstones) before compaction regardless of drift.
    pub max_delta_records: usize,
}

impl Default for DriftBudget {
    fn default() -> Self {
        Self {
            max_rel_err: 0.10,
            max_delta_records: 4096,
        }
    }
}

/// Two-sided bounds on the live/stale idf ratio over every token class
/// the index can encounter (all dictionary tokens plus the unseen-token
/// class queries may introduce).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DriftBounds {
    /// `min_t idf_live(t) / idf_stale(t)`.
    pub rho_min: f64,
    /// `max_t idf_live(t) / idf_stale(t)`.
    pub rho_max: f64,
}

/// Multiplicative safety margin on the widening factor, covering the
/// floating-point error of computing the ratio bounds themselves. Far
/// coarser than f64 rounding, far finer than any real drift step.
const DRIFT_SLACK: f64 = 1e-6;

impl DriftBounds {
    /// The no-drift identity bounds.
    pub(crate) fn identity() -> Self {
        Self {
            rho_min: 1.0,
            rho_max: 1.0,
        }
    }

    /// Relative idf error `max_t |idf_live(t)/idf_stale(t) − 1|` — the
    /// quantity [`DriftBudget::max_rel_err`] caps.
    pub(crate) fn rel_err(self) -> f64 {
        (self.rho_max - 1.0).max(1.0 - self.rho_min).max(0.0)
    }

    /// The threshold-widening factor `D`: for every query `q` and set `s`,
    /// `I_live(q, s) ≤ D · I_stale(q, s)`.
    ///
    /// Derivation: with `ρ_t = idf_live(t)/idf_stale(t) ∈ [ρ_min, ρ_max]`,
    /// the score numerator `Σ idf_live²` is at most `ρ_max²` times its
    /// stale counterpart, and each length in the denominator is at least
    /// `ρ_min` times its stale counterpart, so
    /// `D = (ρ_max / ρ_min)²`. Searching the base segment at
    /// `τ′ = τ / D_eff` therefore finds every set whose *live* score can
    /// reach `τ` (`D_eff` adds [`DRIFT_SLACK`] so floating-point error in
    /// the bounds can never cost a result).
    pub(crate) fn widening_factor(self) -> f64 {
        let d = (self.rho_max / self.rho_min).powi(2);
        d.max(1.0) * (1.0 + DRIFT_SLACK)
    }
}

/// Folds `ρ = live / stale` into running two-sided bounds. `f64::min` and
/// `f64::max` are order-independent on the positive ratios folded here,
/// so any visiting order yields the same bits.
pub(crate) struct RhoFold {
    rho_min: f64,
    rho_max: f64,
}

impl RhoFold {
    pub(crate) fn new() -> Self {
        Self {
            rho_min: f64::INFINITY,
            rho_max: 0.0,
        }
    }

    pub(crate) fn fold(&mut self, stale: f64, live: f64) {
        let rho = live / stale;
        self.rho_min = self.rho_min.min(rho);
        self.rho_max = self.rho_max.max(rho);
    }

    pub(crate) fn bounds(self) -> DriftBounds {
        DriftBounds {
            rho_min: self.rho_min,
            rho_max: self.rho_max,
        }
    }
}

/// A drift class: a live document frequency and a stale idf's bits.
pub(crate) type Class = (u32, u64);

/// Live document frequency per unified-dictionary token, and the number of
/// tokens in each `(live df, stale idf)` class. Every df change goes
/// through [`add`](Self::add) or [`remove`](Self::remove), which move the
/// token between classes, so the classes are always current and the drift
/// bound costs one pass over them.
pub(crate) struct LiveDf {
    /// Live document frequency per token.
    df: Vec<u32>,
    /// Stale idf per base-dictionary token (the base's frozen weight).
    stale: Vec<f64>,
    /// The stale idf of every token past `stale`: the base's unseen weight.
    unseen: f64,
    /// Tokens per class. No entry holds 0 tokens.
    classes: BTreeMap<Class, u32>,
}

impl LiveDf {
    /// The state of a freshly assembled index: every base token at its
    /// base df and base idf.
    pub(crate) fn from_base(weights: &TokenWeights, base_tokens: usize) -> Self {
        let mut live = Self {
            df: Vec::with_capacity(base_tokens),
            stale: Vec::with_capacity(base_tokens),
            unseen: weights.unseen_idf(),
            classes: BTreeMap::new(),
        };
        for i in 0..base_tokens {
            let t = Token(i as u32);
            live.df.push(weights.df(t));
            live.stale.push(weights.idf(t));
            live.enter(live.class(t));
        }
        live
    }

    /// Number of tokens tracked (the unified dictionary's size).
    pub(crate) fn len(&self) -> usize {
        self.df.len()
    }

    /// Live document frequency of `t`.
    pub(crate) fn df(&self, t: Token) -> u32 {
        self.df[t.index()]
    }

    /// Track one more dictionary token: a delta-only token, at df 0 and
    /// the stale unseen idf.
    pub(crate) fn push_token(&mut self) {
        self.df.push(0);
        self.enter((0, self.unseen.to_bits()));
    }

    /// One more live record holds `t`.
    pub(crate) fn add(&mut self, t: Token) {
        self.leave(self.class(t));
        self.df[t.index()] += 1;
        self.enter(self.class(t));
    }

    /// One fewer live record holds `t`.
    pub(crate) fn remove(&mut self, t: Token) {
        self.leave(self.class(t));
        self.df[t.index()] -= 1;
        self.enter(self.class(t));
    }

    /// Bounds on `idf_live(t) / idf_stale(t)` over every tracked token
    /// under `n_live` live records, plus the unseen class. The classes are
    /// visited in `(df, stale)` order, so the live idf is computed once per
    /// distinct df; each ratio is the per-token one, same operands, same
    /// bits.
    pub(crate) fn bounds(&self, n_live: usize) -> DriftBounds {
        let mut fold = RhoFold::new();
        let mut run: Option<(u32, f64)> = None;
        for &(df, stale) in self.classes.keys() {
            let live = match run {
                Some((d, live)) if d == df => live,
                _ => {
                    let live = TokenWeights::idf_formula(n_live, df);
                    run = Some((df, live));
                    live
                }
            };
            fold.fold(f64::from_bits(stale), live);
        }
        // The unseen class: tokens no record has ever contained can still
        // appear in queries, where they carry the unseen weight in both
        // coordinate systems.
        fold.fold(self.unseen, TokenWeights::idf_formula(n_live, 0));
        fold.bounds()
    }

    /// The classes, for the auditor to compare against a recount.
    #[cfg(feature = "audit")]
    pub(crate) fn classes(&self) -> &BTreeMap<Class, u32> {
        &self.classes
    }

    /// Stale idf: the base segment's frozen weight for `t`, or its frozen
    /// unseen weight if `t` is delta-only.
    pub(crate) fn stale_idf(&self, t: Token) -> f64 {
        self.stale.get(t.index()).copied().unwrap_or(self.unseen)
    }

    fn class(&self, t: Token) -> Class {
        (self.df[t.index()], self.stale_idf(t).to_bits())
    }

    fn enter(&mut self, class: Class) {
        *self.classes.entry(class).or_insert(0) += 1;
    }

    /// Every tracked token is counted in its class, so the entry exists;
    /// the auditor's recount would show one that did not.
    fn leave(&mut self, class: Class) {
        if let Entry::Occupied(mut tokens) = self.classes.entry(class) {
            if *tokens.get() == 1 {
                tokens.remove();
            } else {
                *tokens.get_mut() -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_bounds_are_neutral() {
        let b = DriftBounds::identity();
        assert_eq!(b.rel_err(), 0.0);
        let d = b.widening_factor();
        assert!((1.0..1.0 + 1e-5).contains(&d), "{d}");
    }

    #[test]
    fn rel_err_is_two_sided() {
        let b = DriftBounds {
            rho_min: 0.8,
            rho_max: 1.05,
        };
        assert!((b.rel_err() - 0.2).abs() < 1e-12);
        let b = DriftBounds {
            rho_min: 0.99,
            rho_max: 1.3,
        };
        assert!((b.rel_err() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn widening_factor_is_monotone_in_spread() {
        let tight = DriftBounds {
            rho_min: 0.95,
            rho_max: 1.05,
        };
        let loose = DriftBounds {
            rho_min: 0.5,
            rho_max: 1.5,
        };
        assert!(loose.widening_factor() > tight.widening_factor());
        assert!(tight.widening_factor() > 1.0);
    }
}
