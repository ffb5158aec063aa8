//! Runtime verification of the layered index's correctness claims
//! (`audit` feature) — the [`crate::audit`] counterpart for
//! [`MutableIndex`].
//!
//! The mutable index earns its speed from two claims the static auditor
//! cannot check:
//!
//! 1. **Oracle agreement under mutation** — after any interleaving of
//!    inserts, deletes, and upserts, a search must agree exactly with a
//!    naive exhaustive scan of the *live* records under the *live* idf
//!    weights: the passing records, each with its canonical live score's
//!    bits (DESIGN.md §1).
//! 2. **Widened-window soundness** — the base pass and the delta run
//!    seeks both prune by the Theorem 1 window at the drift-widened
//!    threshold `τ′ = τ / D`, computed in *stale* coordinates. The claim
//!    (DESIGN.md §12) is that this window can never exclude a record
//!    whose live score reaches `τ`. The auditor re-derives every true
//!    result's stale length from scratch and checks it lies inside the
//!    window actually used.
//!
//! [`AuditedMutableIndex`] also provides [`audit_state`]
//! (bookkeeping coherence: `N`, `N(t)`, the record directory, tombstone
//! counts — everything the incremental updates maintain, recomputed from
//! first principles), meant to run after every mutation batch in tests.
//!
//! [`audit_state`]: AuditedMutableIndex::audit_state

use super::{Loc, MutableIndex, MutableOutcome, MutableQuery, RecordId, SearchRequest};
use crate::engine::Scratch;
use crate::properties::length_bounds;
use crate::{passes, SetId};
use std::collections::HashMap;
use std::fmt;

/// One violation found while auditing a mutable index.
#[derive(Debug, Clone, PartialEq)]
pub enum MutableViolation {
    /// The search missed a live record whose live score passes τ.
    FalseNegative {
        /// The missing record.
        record: RecordId,
        /// Its true live score.
        score: f64,
    },
    /// The search emitted a record whose live score does not pass τ.
    FalsePositive {
        /// The spurious record.
        record: RecordId,
        /// Its true live score.
        score: f64,
    },
    /// A result's reported score is not the exact live score, bit for bit.
    WrongScore {
        /// The offending record.
        record: RecordId,
        /// The score the search reported.
        reported: f64,
        /// The exact live score.
        exact: f64,
    },
    /// The same record was emitted more than once.
    DuplicateResult {
        /// The duplicated record.
        record: RecordId,
    },
    /// A true result's stale length falls outside the widened Theorem 1
    /// window the search pruned by — the drift bound failed to cover it.
    WindowExclusion {
        /// The record the window would have discarded.
        record: RecordId,
        /// Its stale-coordinate normalized length.
        stale_len: f64,
        /// The widened window actually used.
        window: (f64, f64),
    },
    /// Incrementally maintained bookkeeping disagrees with a from-scratch
    /// recomputation.
    StateDrift {
        /// What diverged.
        detail: String,
    },
}

impl fmt::Display for MutableViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FalseNegative { record, score } => {
                write!(f, "false negative {record} with live score {score}")
            }
            Self::FalsePositive { record, score } => {
                write!(f, "false positive {record} with live score {score}")
            }
            Self::WrongScore {
                record,
                reported,
                exact,
            } => write!(
                f,
                "wrong score for {record}: reported {reported}, exact {exact}"
            ),
            Self::DuplicateResult { record } => write!(f, "duplicate result {record}"),
            Self::WindowExclusion {
                record,
                stale_len,
                window,
            } => write!(
                f,
                "widened window [{}, {}] excludes true result {record} (stale len {stale_len})",
                window.0, window.1
            ),
            Self::StateDrift { detail } => write!(f, "state drift: {detail}"),
        }
    }
}

/// The outcome of one mutable-index audit.
#[derive(Debug, Clone, Default)]
pub struct MutableReport {
    /// What was audited (for assertion messages).
    pub subject: String,
    /// Live records compared against the oracle.
    pub oracle_comparisons: usize,
    /// True results whose widened-window membership was verified.
    pub window_checks: usize,
    /// Every violation found (empty when the index is correct).
    pub violations: Vec<MutableViolation>,
}

impl MutableReport {
    /// True if no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a full listing if any violation was found.
    ///
    /// # Panics
    /// Panics if [`is_clean`](Self::is_clean) is false.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "mutable audit of {} found {} violation(s):\n{}",
            self.subject,
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// A [`MutableIndex`] wrapper that runs searches under full differential
/// auditing. See the [module docs](self) for what is checked.
pub struct AuditedMutableIndex<'a> {
    index: &'a MutableIndex,
}

impl<'a> AuditedMutableIndex<'a> {
    /// Wrap `index` for audited searching.
    pub fn new(index: &'a MutableIndex) -> Self {
        Self { index }
    }

    /// The wrapped index.
    #[must_use]
    pub fn inner(&self) -> &'a MutableIndex {
        self.index
    }

    /// Exact live scores of every live record, by exhaustive scan — the
    /// oracle all checks compare against.
    fn oracle_scores(&self, req: &SearchRequest<'_, MutableQuery>) -> Vec<(RecordId, f64)> {
        let mi = self.index;
        let live = req.query.live();
        let mut rows = Vec::with_capacity(mi.n_live);
        for (i, &id) in mi.base_ids.iter().enumerate() {
            if !mi.base_dead[i] {
                let set = mi.base.collection().set(SetId(i as u32));
                rows.push((id, mi.live_score(live, set)));
            }
        }
        for r in &mi.delta.records {
            if r.alive {
                rows.push((RecordId(r.id), mi.live_score(live, &r.set)));
            }
        }
        rows
    }

    /// Stale-coordinate normalized length of a live record, re-derived
    /// from its token set (not read from the cached delta key).
    fn stale_len_of(&self, id: RecordId) -> Option<f64> {
        let mi = self.index;
        match mi.loc.get(&id.0)? {
            Loc::Base(sid) => Some(mi.base.set_len(*sid)),
            Loc::Delta(slot) => Some(mi.stale_set_length(&mi.delta.records[*slot].set)),
        }
    }

    /// Run `req` on the wrapped index and audit the outcome: differential
    /// oracle check plus widened-window soundness. Returns the search's
    /// outcome untouched plus the report.
    ///
    /// # Panics
    /// Panics if the request itself is invalid (bad τ) — the audit is
    /// about result correctness, not argument validation.
    pub fn search_audited(
        &self,
        scratch: &mut Scratch,
        req: &SearchRequest<'_, MutableQuery>,
    ) -> (MutableOutcome, MutableReport) {
        // why: the audit harness (dev/CI only) wants invalid requests to
        // fail loudly, not flow into a vacuous report.
        #[allow(clippy::expect_used)]
        let outcome = self
            .index
            .search(scratch, req)
            .expect("audited request must be valid");
        let report = self.audit_outcome(req, &outcome);
        (outcome, report)
    }

    /// Audit a precomputed `outcome` as if `req` had produced it — split
    /// out so tests can feed deliberately corrupted outcomes and prove
    /// the auditor catches them.
    pub fn audit_outcome(
        &self,
        req: &SearchRequest<'_, MutableQuery>,
        outcome: &MutableOutcome,
    ) -> MutableReport {
        let mi = self.index;
        let tau = req.tau;
        let mut report = MutableReport {
            subject: format!("{:?} at tau={tau}", req.algorithm),
            ..MutableReport::default()
        };
        let oracle = self.oracle_scores(req);
        report.oracle_comparisons = oracle.len();
        let mut emitted: HashMap<u64, f64> = HashMap::with_capacity(outcome.results.len());
        for m in &outcome.results {
            if emitted.insert(m.record.0, m.score).is_some() {
                report
                    .violations
                    .push(MutableViolation::DuplicateResult { record: m.record });
            }
        }
        for &(record, exact) in &oracle {
            match emitted.get(&record.0) {
                Some(&reported) => {
                    if reported.to_bits() != exact.to_bits() {
                        report.violations.push(MutableViolation::WrongScore {
                            record,
                            reported,
                            exact,
                        });
                    }
                    if !passes(exact, tau) {
                        report.violations.push(MutableViolation::FalsePositive {
                            record,
                            score: exact,
                        });
                    }
                }
                None => {
                    if passes(exact, tau) {
                        report.violations.push(MutableViolation::FalseNegative {
                            record,
                            score: exact,
                        });
                    }
                }
            }
        }
        // Widened-window soundness: every true result's stale length must
        // lie inside the window the layered search pruned by. (A pristine
        // index searches at the exact τ window — the static auditor's
        // Theorem 1 check covers that case; the interesting claim here is
        // the drifted one.)
        if !mi.pristine() && !mi.base.collection().is_empty() {
            let tau_wide = tau / mi.drift_bounds().widening_factor();
            let window = length_bounds(tau_wide, req.query.stale.len);
            for &(record, exact) in &oracle {
                if !passes(exact, tau) {
                    continue;
                }
                report.window_checks += 1;
                let Some(stale_len) = self.stale_len_of(record) else {
                    report.violations.push(MutableViolation::StateDrift {
                        detail: format!("live record {record} missing from the directory"),
                    });
                    continue;
                };
                if stale_len < window.0 || stale_len > window.1 {
                    report.violations.push(MutableViolation::WindowExclusion {
                        record,
                        stale_len,
                        window,
                    });
                }
            }
        }
        report
    }

    /// Verify every piece of incrementally maintained bookkeeping against
    /// a from-scratch recomputation: `N`, per-token `N(t)`, the record
    /// directory, and tombstone counts. Meant to run after every mutation
    /// batch in tests.
    pub fn audit_state(&self) -> MutableReport {
        let mi = self.index;
        let mut report = MutableReport {
            subject: "state".to_string(),
            ..MutableReport::default()
        };
        let mut drift = |detail: String| {
            report
                .violations
                .push(MutableViolation::StateDrift { detail });
        };
        // Recompute N and N(t) from the live records.
        let mut n = 0usize;
        let mut df: HashMap<u32, u32> = HashMap::new();
        let mut count_set = |set: &setsim_tokenize::TokenSet| {
            n += 1;
            for t in set.iter() {
                *df.entry(t.0).or_insert(0) += 1;
            }
        };
        let mut dead = 0usize;
        for (i, _) in mi.base_ids.iter().enumerate() {
            if mi.base_dead[i] {
                dead += 1;
            } else {
                count_set(mi.base.collection().set(SetId(i as u32)));
            }
        }
        let mut delta_alive = 0usize;
        for r in &mi.delta.records {
            if r.alive {
                delta_alive += 1;
                count_set(&r.set);
            }
        }
        if n != mi.n_live {
            drift(format!(
                "n_live is {} but {} records are live",
                mi.n_live, n
            ));
        }
        if dead != mi.n_base_dead {
            drift(format!(
                "n_base_dead is {} but {} tombstones are set",
                mi.n_base_dead, dead
            ));
        }
        if delta_alive != mi.delta.alive_len() {
            drift(format!(
                "delta alive count is {} but {} delta records are alive",
                mi.delta.alive_len(),
                delta_alive
            ));
        }
        for (i, &have) in mi.df_live.iter().enumerate() {
            let want = df.get(&(i as u32)).copied().unwrap_or(0);
            if have != want {
                drift(format!(
                    "df_live[{i}] is {have} but {want} live records hold the token"
                ));
            }
        }
        // Directory coherence: exactly the live records, pointing at
        // alive storage.
        if mi.loc.len() != n {
            drift(format!(
                "directory holds {} entries for {} live records",
                mi.loc.len(),
                n
            ));
        }
        for (&id, loc) in &mi.loc {
            let ok = match loc {
                Loc::Base(sid) => !mi.base_dead[sid.index()] && mi.base_ids[sid.index()].0 == id,
                Loc::Delta(slot) => mi
                    .delta
                    .records
                    .get(*slot)
                    .is_some_and(|r| r.alive && r.id == id),
            };
            if !ok {
                drift(format!("directory entry for r{id} points at dead storage"));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::super::{MutableIndex, MutableMatch, RecordId, SearchRequest};
    use super::{AuditedMutableIndex, MutableViolation};
    use crate::engine::Scratch;
    use crate::{AlgorithmKind, CollectionBuilder, IndexOptions};
    use setsim_tokenize::QGramTokenizer;

    fn mutated_index() -> MutableIndex {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        for t in [
            "main street",
            "main st",
            "maine street",
            "park avenue",
            "wall street",
            "ocean drive",
        ] {
            b.add(t);
        }
        let mut mi =
            MutableIndex::from_collection(Box::new(b.build()), IndexOptions::default()).unwrap();
        for i in 0..5 {
            mi.insert(&format!("quartz harbor {i}"));
        }
        mi.delete(RecordId(1));
        mi.upsert(RecordId(2), "maine streets");
        mi
    }

    #[test]
    fn audit_is_clean_for_all_algorithms_after_mutations() {
        let mi = mutated_index();
        let audited = AuditedMutableIndex::new(&mi);
        audited.audit_state().assert_clean();
        let mut scratch = Scratch::default();
        for query in ["main street", "quartz harbor 3", "park avenue"] {
            let q = mi.prepare_query_str(query);
            for kind in AlgorithmKind::ALL {
                for tau in [0.3, 0.6, 0.9] {
                    let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
                    let (out, report) = audited.search_audited(&mut scratch, &req);
                    report.assert_clean();
                    assert!(report.oracle_comparisons > 0);
                    drop(out);
                }
            }
        }
    }

    #[test]
    fn audit_stays_clean_across_a_mutation_batch_with_compaction() {
        let mut mi = mutated_index();
        let mut scratch = Scratch::default();
        for step in 0..6 {
            match step % 3 {
                0 => {
                    mi.insert(&format!("velvet lagoon {step}"));
                }
                1 => {
                    let victim = mi.live_records()[step].0;
                    mi.delete(victim);
                }
                _ => {
                    let victim = mi.live_records()[0].0;
                    mi.upsert(victim, &format!("granite cove {step}"));
                }
            }
            if step == 3 {
                mi.compact();
            }
            let audited = AuditedMutableIndex::new(&mi);
            audited.audit_state().assert_clean();
            let q = mi.prepare_query_str("velvet lagoon 0");
            let req = SearchRequest::new(&q).tau(0.5);
            let (_, report) = audited.search_audited(&mut scratch, &req);
            report.assert_clean();
        }
    }

    #[test]
    fn auditor_catches_dropped_and_spurious_results() {
        let mi = mutated_index();
        let audited = AuditedMutableIndex::new(&mi);
        let q = mi.prepare_query_str("quartz harbor 3");
        let req = SearchRequest::new(&q).tau(0.5);
        let mut out = mi.search(&mut Scratch::default(), &req).unwrap();
        assert!(!out.results.is_empty());
        // Drop a true result: must surface as a false negative.
        let dropped = out.results.pop().unwrap();
        let report = audited.audit_outcome(&req, &out);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                MutableViolation::FalseNegative { record, .. } if *record == dropped.record
            )),
            "{report:?}"
        );
        // Resurrect it with a corrupted score: wrong-score violation.
        out.results.push(MutableMatch {
            record: dropped.record,
            score: dropped.score / 2.0,
        });
        let report = audited.audit_outcome(&req, &out);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, MutableViolation::WrongScore { .. })),
            "{report:?}"
        );
        // Add a record that scores nowhere near tau: false positive.
        out.results.last_mut().unwrap().score = dropped.score;
        let stranger = mi
            .live_records()
            .iter()
            .map(|(id, _)| *id)
            .find(|id| !out.results.iter().any(|m| m.record == *id))
            .unwrap();
        out.results.push(MutableMatch {
            record: stranger,
            score: 0.9,
        });
        let report = audited.audit_outcome(&req, &out);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                MutableViolation::FalsePositive { record, .. } | MutableViolation::WrongScore { record, .. }
                    if *record == stranger
            )),
            "{report:?}"
        );
        // Emit a duplicate: duplicate violation.
        let dup = out.results[0];
        out.results.push(dup);
        let report = audited.audit_outcome(&req, &out);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, MutableViolation::DuplicateResult { .. })),
            "{report:?}"
        );
    }

    #[test]
    fn window_checks_run_on_drifted_indexes() {
        let mi = mutated_index();
        assert!(!mi.pristine());
        let audited = AuditedMutableIndex::new(&mi);
        let q = mi.prepare_query_str("main street");
        let req = SearchRequest::new(&q).tau(0.3);
        let (_, report) = audited.search_audited(&mut Scratch::default(), &req);
        report.assert_clean();
        assert!(
            report.window_checks > 0,
            "drifted search with true results must exercise the window check"
        );
    }
}
