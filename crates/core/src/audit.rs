//! Runtime verification of the paper's pruning invariants (`audit` feature).
//!
//! Every fast algorithm in this crate earns its speed by *not looking* at
//! most of the database, justified by three claims from Section IV: Order
//! Preservation, Magnitude Boundedness, and Theorem 1 (Length
//! Boundedness). A bug in any of them silently drops qualifying results —
//! the worst possible failure mode for a search system, invisible unless
//! something re-derives the answer independently.
//!
//! This module is that something. [`AuditedIndex`] wraps an
//! [`InvertedIndex`] and runs any [`SearchRequest`] under audit:
//!
//! 1. **Order Preservation** — each query list is verified monotone in
//!    `(len, id)` with every posting's length equal to the set's global
//!    length. This is exactly the structure frontier-skipping relies on:
//!    if it holds, a set with `len(s)` below a list's frontier was already
//!    emitted by that list and can never "appear later"; if it is
//!    violated, a skip can jump over an unseen set.
//! 2. **Magnitude Boundedness** — for every set occurring in any query
//!    list, the single-sighting best-case score
//!    [`max_score`](properties::max_score) must bound the true score, and
//!    must equal it *exactly* when the set contains every query token
//!    (the bound is attained, not merely sound — the property that makes
//!    it tight where NRA's frontier sums are loose).
//! 3. **Theorem 1** — no emitted result's length may fall outside
//!    [`length_bounds`](properties::length_bounds)`(τ, len(q))`.
//! 4. **Differential oracle check** — the outcome is compared against the
//!    exhaustive scan-oracle answer with no tolerance: exactly the sets
//!    whose canonical score passes τ, each with that score's bits
//!    (DESIGN.md §1), none emitted twice.
//!
//! The checks re-derive everything from the base collection, so the audit
//! is `O(N·|q|)` per query — this is a verification harness for tests and
//! CI (`cargo test --workspace --features audit`), not a production path.

use crate::algorithms::table_score;
use crate::engine::{execute, Scratch, SearchError, SearchRequest};
use crate::{properties, InvertedIndex, PreparedQuery, SearchOutcome, SetId, Tau};
use std::collections::{HashMap, HashSet};
use std::fmt;

pub use crate::segment::audit::{AuditedMutableIndex, MutableReport, MutableViolation};

/// Relative slack of the property-bound checks (Magnitude Boundedness,
/// Theorem 1), matching the one-sided slack of the algorithms' own bounds
/// (`EPS_REL` in the crate root). The oracle check compares bits.
const AUDIT_EPS: f64 = 1e-9;

/// One invariant violation found during an audited search.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A query list is not sorted by `(len, id)`, or a posting's stored
    /// length disagrees with the set's global length — either breaks the
    /// ordering argument that justifies frontier skipping (Property 1).
    OrderPreservation {
        /// Index of the offending list within the query's token order.
        list: usize,
        /// Human-readable description of the structural defect.
        detail: String,
    },
    /// A seen set's true score exceeds its best-case bound, or the bound
    /// is not attained by a set containing every query token (Property 2).
    MagnitudeBound {
        /// The offending set.
        id: SetId,
        /// The bound `max_score(Σidf², len(s), len(q))`.
        bound: f64,
        /// The set's true score.
        actual: f64,
        /// What went wrong.
        detail: String,
    },
    /// An emitted result's length lies outside `[τ·len(q), len(q)/τ]`
    /// (Theorem 1).
    LengthBound {
        /// The offending result.
        id: SetId,
        /// Its normalized length.
        len_s: f64,
        /// The admissible window.
        window: (f64, f64),
    },
    /// The algorithm emitted a set whose canonical score does not pass τ.
    FalsePositive {
        /// The spurious result.
        id: SetId,
        /// Its true score.
        score: f64,
    },
    /// The algorithm missed a set whose canonical score passes τ.
    FalseNegative {
        /// The missing set.
        id: SetId,
        /// Its true score.
        score: f64,
    },
    /// A result's reported score is not the canonical score, bit for bit.
    WrongScore {
        /// The result with the wrong score.
        id: SetId,
        /// The score the algorithm reported.
        reported: f64,
        /// The exact score.
        exact: f64,
    },
    /// The same set id was emitted more than once.
    DuplicateResult {
        /// The duplicated id.
        id: SetId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OrderPreservation { list, detail } => {
                write!(
                    f,
                    "order preservation broken in query list {list}: {detail}"
                )
            }
            Self::MagnitudeBound {
                id,
                bound,
                actual,
                detail,
            } => write!(
                f,
                "magnitude bound violated for {id:?}: bound {bound}, actual {actual} ({detail})"
            ),
            Self::LengthBound { id, len_s, window } => write!(
                f,
                "Theorem 1 violated: result {id:?} has len {len_s} outside [{}, {}]",
                window.0, window.1
            ),
            Self::FalsePositive { id, score } => {
                write!(f, "false positive {id:?} with score {score} below tau")
            }
            Self::FalseNegative { id, score } => {
                write!(
                    f,
                    "false negative {id:?} with score {score} at or above tau"
                )
            }
            Self::WrongScore {
                id,
                reported,
                exact,
            } => write!(
                f,
                "wrong score for {id:?}: reported {reported}, exact {exact}"
            ),
            Self::DuplicateResult { id } => write!(f, "duplicate result {id:?}"),
        }
    }
}

/// The outcome of auditing one search: which checks ran and every
/// violation found. A clean report proves (for this query) that the
/// algorithm's pruning discarded only sets it was entitled to discard.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Name of the audited algorithm.
    pub algorithm: String,
    /// The threshold audited at.
    pub tau: f64,
    /// Query lists whose structure was verified.
    pub lists_checked: usize,
    /// Distinct sets whose magnitude bound was verified.
    pub sets_checked: usize,
    /// Database sets compared against the oracle.
    pub oracle_comparisons: usize,
    /// Every invariant violation found (empty for a correct algorithm).
    pub violations: Vec<Violation>,
}

impl Report {
    /// True if no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a full listing if any violation was found. The
    /// convenience assertion audit tests use.
    ///
    /// # Panics
    /// Panics if [`is_clean`](Self::is_clean) is false.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "audit of {} at tau={} found {} violation(s):\n{}",
            self.algorithm,
            self.tau,
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit[{}] tau={} lists={} sets={} oracle={} -> {}",
            self.algorithm,
            self.tau,
            self.lists_checked,
            self.sets_checked,
            self.oracle_comparisons,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        )?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

/// An [`InvertedIndex`] wrapper that runs selection algorithms under full
/// invariant auditing. See the [module docs](self) for what is checked.
pub struct AuditedIndex<'i, 'c> {
    index: &'i InvertedIndex<'c>,
}

impl<'i, 'c> AuditedIndex<'i, 'c> {
    /// Wrap `index` for audited searching.
    pub fn new(index: &'i InvertedIndex<'c>) -> Self {
        Self { index }
    }

    /// The wrapped index.
    #[must_use]
    pub fn inner(&self) -> &'i InvertedIndex<'c> {
        self.index
    }

    /// Run `req` on the wrapped index, then audit everything: list
    /// structure, magnitude bounds, Theorem 1 on the emitted results, and
    /// a full differential check against the scan oracle.
    ///
    /// Returns the algorithm's outcome untouched plus the audit report;
    /// an invalid request is rejected exactly as [`execute`] rejects it.
    pub fn search_audited(
        &self,
        req: &SearchRequest<'_>,
    ) -> Result<(SearchOutcome, Report), SearchError> {
        let outcome = execute(self.index, &mut Scratch::default(), req)?;
        let report = self.audit_outcome(req.algorithm.name(), req.query, req.tau, &outcome);
        Ok((outcome, report))
    }

    /// Audit a precomputed `outcome` as if `algorithm` had produced it.
    /// Split out from [`search_audited`](Self::search_audited) so tests
    /// can feed deliberately corrupted outcomes and prove the auditor
    /// catches them.
    pub fn audit_outcome(
        &self,
        algorithm: &str,
        query: &PreparedQuery,
        tau: f64,
        outcome: &SearchOutcome,
    ) -> Report {
        let mut report = Report {
            algorithm: algorithm.to_string(),
            tau,
            ..Report::default()
        };
        self.check_order_preservation(query, &mut report);
        self.check_magnitude_bounds(query, &mut report);
        self.check_length_bounds(query, tau, outcome, &mut report);
        self.check_against_oracle(query, tau, outcome, &mut report);
        report
    }

    /// Property 1: every query list sorted strictly by `(len, id)`, with
    /// posting lengths equal (bitwise) to the global set lengths. Together
    /// these guarantee a set below a list's frontier cannot appear later
    /// in that list — the soundness condition for frontier skipping.
    fn check_order_preservation(&self, query: &PreparedQuery, report: &mut Report) {
        for (li, qt) in query.tokens.iter().enumerate() {
            let Some(list) = self.index.list(qt.token) else {
                continue;
            };
            report.lists_checked += 1;
            let postings = list.postings();
            for (pos, w) in postings.windows(2).enumerate() {
                if (w[0].len, w[0].id) >= (w[1].len, w[1].id) {
                    report.violations.push(Violation::OrderPreservation {
                        list: li,
                        detail: format!(
                            "postings {pos}..={} not strictly increasing: ({}, {:?}) then ({}, {:?})",
                            pos + 1,
                            w[0].len,
                            w[0].id,
                            w[1].len,
                            w[1].id
                        ),
                    });
                }
            }
            for p in postings {
                if p.len.to_bits() != self.index.set_len(p.id).to_bits() {
                    report.violations.push(Violation::OrderPreservation {
                        list: li,
                        detail: format!(
                            "posting for {:?} stores len {} but the set's global len is {}",
                            p.id,
                            p.len,
                            self.index.set_len(p.id)
                        ),
                    });
                }
            }
        }
    }

    /// Property 2: for every set seen in any query list, the one-sighting
    /// bound `max_score(Σᵢ idf(qᵢ)², len(s), len(q))` is an upper bound on
    /// its true score — attained exactly when the set holds every query
    /// token.
    fn check_magnitude_bounds(&self, query: &PreparedQuery, report: &mut Report) {
        if query.len == 0.0 {
            return;
        }
        let list_mass: f64 = query.tokens.iter().map(|t| t.idf_sq).sum();
        let mut seen: HashSet<SetId> = HashSet::new();
        for qt in &query.tokens {
            let Some(list) = self.index.list(qt.token) else {
                continue;
            };
            for p in list.postings() {
                seen.insert(p.id);
            }
        }
        report.sets_checked = seen.len();
        for &id in &seen {
            let set = self.index.collection().set(id);
            let len_s = self.index.set_len(id);
            if len_s == 0.0 {
                continue;
            }
            let contains_all = query.tokens.iter().all(|qt| set.contains(qt.token));
            let actual = table_score(self.index, query, id);
            let bound = properties::max_score(list_mass, len_s, query.len);
            if actual > bound * (1.0 + AUDIT_EPS) {
                report.violations.push(Violation::MagnitudeBound {
                    id,
                    bound,
                    actual,
                    detail: "true score exceeds the single-sighting bound".to_string(),
                });
            } else if contains_all && (actual - bound).abs() > bound.abs() * AUDIT_EPS {
                report.violations.push(Violation::MagnitudeBound {
                    id,
                    bound,
                    actual,
                    detail: "set holds every query token but does not attain the bound".to_string(),
                });
            }
        }
    }

    /// Theorem 1: each emitted result's length inside the `τ` window.
    fn check_length_bounds(
        &self,
        query: &PreparedQuery,
        tau: f64,
        outcome: &SearchOutcome,
        report: &mut Report,
    ) {
        if query.len == 0.0 {
            return;
        }
        let (lo, hi) = properties::length_bounds(tau, query.len);
        for m in &outcome.results {
            let len_s = self.index.set_len(m.id);
            if len_s < lo * (1.0 - AUDIT_EPS) || len_s > hi * (1.0 + AUDIT_EPS) {
                report.violations.push(Violation::LengthBound {
                    id: m.id,
                    len_s,
                    window: (lo, hi),
                });
            }
        }
    }

    /// Differential check: re-derive every canonical score from the base
    /// collection and demand exactly the passing ids, each with the
    /// canonical score's bits, and no duplicate ids.
    fn check_against_oracle(
        &self,
        query: &PreparedQuery,
        tau: f64,
        outcome: &SearchOutcome,
        report: &mut Report,
    ) {
        let collection = self.index.collection();
        report.oracle_comparisons = collection.len();
        let mut emitted: HashMap<SetId, f64> = HashMap::with_capacity(outcome.results.len());
        for m in &outcome.results {
            if emitted.insert(m.id, m.score).is_some() {
                report
                    .violations
                    .push(Violation::DuplicateResult { id: m.id });
            }
        }
        for (id, _) in collection.iter_sets() {
            let exact = table_score(self.index, query, id);
            match emitted.get(&id) {
                Some(&reported) => {
                    if reported.to_bits() != exact.to_bits() {
                        report.violations.push(Violation::WrongScore {
                            id,
                            reported,
                            exact,
                        });
                    }
                    if !crate::passes(exact, tau) {
                        report
                            .violations
                            .push(Violation::FalsePositive { id, score: exact });
                    }
                }
                None => {
                    if crate::passes(exact, tau) {
                        report
                            .violations
                            .push(Violation::FalseNegative { id, score: exact });
                    }
                }
            }
        }
    }
}

/// Cold-start integrity audit: load the snapshot at `path` and verify it
/// *serves correctly*, not merely that its checksums pass. Each query
/// runs through the Shortest-First algorithm (the serving default) under
/// the full invariant audit — including the naive-scan differential
/// oracle, re-derived from the loaded collection itself — so an index
/// that loads but would return wrong answers is caught here.
///
/// Returns one [`Report`] per query; load failures surface as the usual
/// typed [`SnapshotError`](crate::SnapshotError). The threshold arrives
/// validated, so no request can be refused.
pub fn audit_snapshot(
    path: &std::path::Path,
    queries: &[&str],
    tau: Tau,
) -> Result<Vec<Report>, crate::SnapshotError> {
    let index = InvertedIndex::load(path)?;
    let audited = AuditedIndex::new(&index);
    let mut reports = Vec::with_capacity(queries.len());
    for q in queries {
        let prepared = index.prepare_query_str(q);
        let req = SearchRequest::new(&prepared).tau(tau.get());
        let Ok((_, report)) = audited.search_audited(&req) else {
            unreachable!("tau is validated, SF has no width limit, and the query was prepared here")
        };
        reports.push(report);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::run;
    use crate::{AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, Match};
    use setsim_tokenize::QGramTokenizer;

    fn setup(texts: &[&str]) -> crate::SetCollection {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        b.build()
    }

    fn corpus() -> Vec<&'static str> {
        vec![
            "main street",
            "main st",
            "maine street",
            "main street east",
            "park avenue",
            "park avenu",
            "park ave",
            "completely different",
            "another record",
            "main",
        ]
    }

    #[test]
    fn clean_algorithms_audit_clean() {
        let c = setup(&corpus());
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let audited = AuditedIndex::new(&idx);
        for query in ["main street", "park avenue", "mian stret", "zzzz"] {
            let q = idx.prepare_query_str(query);
            for tau in [0.3, 0.6, 0.9, 1.0] {
                for kind in [
                    AlgorithmKind::Sf,
                    AlgorithmKind::Hybrid,
                    AlgorithmKind::INra,
                    AlgorithmKind::ITa,
                ] {
                    let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
                    let (_, r) = audited.search_audited(&req).unwrap();
                    r.assert_clean();
                }
            }
        }
    }

    #[test]
    fn report_counts_work_done() {
        let c = setup(&corpus());
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("main street");
        let (_, r) = AuditedIndex::new(&idx)
            .search_audited(&SearchRequest::new(&q).tau(0.5))
            .unwrap();
        assert!(r.lists_checked > 0);
        assert!(r.sets_checked > 0);
        assert_eq!(r.oracle_comparisons, c.len());
        assert_eq!(r.algorithm, "SF");
        assert!(r.to_string().contains("clean"));
    }

    #[test]
    fn dropped_result_is_a_false_negative() {
        let c = setup(&corpus());
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("main street");
        let mut out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.5);
        assert!(!out.results.is_empty());
        let dropped = out.results.pop().unwrap();
        let r = AuditedIndex::new(&idx).audit_outcome("corrupted", &q, 0.5, &out);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::FalseNegative { id, .. } if *id == dropped.id)),
            "auditor missed the dropped result: {r}"
        );
    }

    #[test]
    fn injected_result_is_a_false_positive() {
        let c = setup(&corpus());
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("main street");
        let mut out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.9);
        // "completely different" shares no grams with the query.
        let bogus = SetId(7);
        assert!(out.results.iter().all(|m| m.id != bogus));
        out.results.push(Match {
            id: bogus,
            score: 0.95,
        });
        let r = AuditedIndex::new(&idx).audit_outcome("corrupted", &q, 0.9, &out);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::FalsePositive { id, .. } if *id == bogus)),
            "auditor missed the injected result: {r}"
        );
        // The bogus result is also outside the Theorem 1 window or has a
        // wrong score; at minimum the wrong score must be flagged.
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::WrongScore { id, .. } if *id == bogus)),
            "auditor accepted a fabricated score: {r}"
        );
    }

    #[test]
    fn miscored_result_is_flagged() {
        let c = setup(&corpus());
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("main street");
        let mut out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.5);
        assert!(!out.results.is_empty());
        let victim = out.results[0].id;
        out.results[0].score *= 0.5;
        let r = AuditedIndex::new(&idx).audit_outcome("corrupted", &q, 0.5, &out);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::WrongScore { id, .. } if *id == victim)),
            "auditor missed the corrupted score: {r}"
        );
    }

    #[test]
    fn duplicate_result_is_flagged() {
        let c = setup(&corpus());
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("main street");
        let mut out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.5);
        assert!(!out.results.is_empty());
        let dup = out.results[0];
        out.results.push(dup);
        let r = AuditedIndex::new(&idx).audit_outcome("corrupted", &q, 0.5, &out);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::DuplicateResult { id } if *id == dup.id)),
            "auditor missed the duplicate: {r}"
        );
    }

    #[test]
    fn result_outside_length_window_is_flagged() {
        let c = setup(&corpus());
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("main street");
        // At tau = 0.95 the window around len(q) is tight; "main" is far
        // shorter and cannot qualify.
        let short = SetId(9);
        let (lo, _) = properties::length_bounds(0.95, q.len);
        assert!(idx.set_len(short) < lo, "test premise: 'main' below window");
        let mut out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.95);
        out.results.push(Match {
            id: short,
            score: 0.96,
        });
        let r = AuditedIndex::new(&idx).audit_outcome("corrupted", &q, 0.95, &out);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::LengthBound { id, .. } if *id == short)),
            "auditor missed the Theorem 1 violation: {r}"
        );
    }

    #[test]
    fn empty_query_audits_clean() {
        let c = setup(&corpus());
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("");
        let (out, r) = AuditedIndex::new(&idx)
            .search_audited(&SearchRequest::new(&q).tau(0.5))
            .unwrap();
        assert!(out.results.is_empty());
        r.assert_clean();
    }

    #[test]
    #[should_panic(expected = "violation")]
    fn assert_clean_panics_with_listing() {
        let c = setup(&corpus());
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("main street");
        let mut out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.5);
        out.results.clear();
        AuditedIndex::new(&idx)
            .audit_outcome("corrupted", &q, 0.5, &out)
            .assert_clean();
    }
}
