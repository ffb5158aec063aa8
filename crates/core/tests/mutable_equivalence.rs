//! Property-based equivalence suite for the mutable (delta/base) index.
//!
//! The invariant under test is the contract stated in DESIGN.md §12: for
//! **any** interleaving of inserts, deletes, and upserts, a
//! [`MutableIndex`] must answer every selection query exactly like a
//! static [`InvertedIndex`] rebuilt from scratch over the same live
//! records — same result-id sets for all eight algorithms across a τ
//! grid; scores are bit-identical once [`MutableIndex::compact`] has
//! folded the delta into a fresh base (DESIGN.md §1), and agree to
//! [`SCORE_EPS`] in the layered state. Both states are checked per
//! generated op sequence.

// Tests may build indexes directly (`clippy.toml` forbids it in the library).
#![allow(clippy::disallowed_methods)]

use setsim_core::engine::{execute, AlgorithmKind, Scratch, SearchRequest};
use setsim_core::{
    CollectionBuilder, DriftBudget, IndexOptions, InvertedIndex, MutableIndex,
    MutableSearchRequest, RecordId, SetCollection,
};
use setsim_tokenize::QGramTokenizer;

use proptest::prelude::*;

/// Pool of record texts the generators draw from. Deliberately full of
/// shared q-grams so queries land near thresholds and token document
/// frequencies actually shift (IDF drift) as records churn.
const POOL: [&str; 12] = [
    "main street",
    "main street north",
    "main st",
    "park avenue",
    "park ave",
    "wall street",
    "wall street west",
    "ocean drive",
    "ocean drive south",
    "harbor view road",
    "harbor view",
    "river walk lane",
];

/// Queries probed after each op sequence: pool members, near-misses,
/// and one string whose q-grams are entirely absent from the pool.
const QUERIES: [&str; 5] = [
    "main street",
    "park avenue",
    "ocean drive",
    "harbour view rd",
    "zzqqxxjj",
];

const TAUS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

/// Score tolerance for the layered state only: its own dictionary numbers
/// tokens differently and keeps deleted records' tokens, so it sums
/// `len(s)` and `len(q)` in another order than the rebuild; the canonical
/// dot product is the same (`layered_score_residual_is_only_length_
/// summation_order` in `segment/mod.rs`).
const SCORE_EPS: f64 = 1e-12;

fn collection(texts: &[&str]) -> SetCollection {
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for t in texts {
        b.add(t);
    }
    b.build()
}

/// Mirror model: the live records the index should be equivalent to,
/// in `MutableIndex::live_records()` order semantics (we just compare
/// as id-sorted sets, so plain Vec upkeep suffices).
struct Mirror {
    live: Vec<(RecordId, String)>,
}

impl Mirror {
    fn insert(&mut self, id: RecordId, text: &str) {
        self.live.push((id, text.to_string()));
    }

    fn delete(&mut self, id: RecordId) -> bool {
        let before = self.live.len();
        self.live.retain(|(rid, _)| *rid != id);
        before != self.live.len()
    }
}

/// Ground truth for one query/τ: rebuild a static index over the mirror
/// and run the full-scan oracle, mapping set ids back to record ids.
fn oracle(mirror: &Mirror, query: &str, tau: f64) -> Vec<(RecordId, f64)> {
    let texts: Vec<&str> = mirror.live.iter().map(|(_, t)| t.as_str()).collect();
    let fresh = InvertedIndex::build_owned(Box::new(collection(&texts)), IndexOptions::default());
    let q = fresh.prepare_query_str(query);
    let req = SearchRequest::new(&q)
        .tau(tau)
        .algorithm(AlgorithmKind::Scan);
    let out = execute(&fresh, &mut Scratch::default(), &req).expect("oracle scan");
    let mut rows: Vec<(RecordId, f64)> = out
        .results
        .iter()
        .map(|m| (mirror.live[m.id.index()].0, m.score))
        .collect();
    rows.sort_by_key(|(id, _)| *id);
    rows
}

fn mutable_rows(
    mi: &MutableIndex,
    query: &str,
    tau: f64,
    kind: AlgorithmKind,
) -> Vec<(RecordId, f64)> {
    let q = mi.prepare_query_str(query);
    let req = MutableSearchRequest::new(&q).tau(tau).algorithm(kind);
    let out = mi
        .search(&mut Scratch::default(), &req)
        .expect("mutable search");
    let mut rows: Vec<(RecordId, f64)> = out.results.iter().map(|m| (m.record, m.score)).collect();
    rows.sort_by_key(|(id, _)| *id);
    rows
}

/// Assert the mutable index agrees with the from-scratch oracle on every
/// algorithm × τ × query cell. Returns an error string for prop_assert.
fn check_equivalence(mi: &MutableIndex, mirror: &Mirror, label: &str) -> Result<(), String> {
    let eps = if mi.pristine() { 0.0 } else { SCORE_EPS };
    for &tau in &TAUS {
        for query in QUERIES {
            let want = oracle(mirror, query, tau);
            let want_ids: Vec<RecordId> = want.iter().map(|(id, _)| *id).collect();
            for kind in AlgorithmKind::ALL {
                let got = mutable_rows(mi, query, tau, kind);
                let got_ids: Vec<RecordId> = got.iter().map(|(id, _)| *id).collect();
                if got_ids != want_ids {
                    return Err(format!(
                        "{label}: {kind:?} τ={tau} q={query:?}: ids {got_ids:?} != oracle {want_ids:?}"
                    ));
                }
                for ((id, got_s), (_, want_s)) in got.iter().zip(&want) {
                    if (got_s - want_s).abs() > eps {
                        return Err(format!(
                            "{label}: {kind:?} τ={tau} q={query:?} {id}: score {got_s} != {want_s}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Apply one generated op to both the index and the mirror. `sel` picks
/// a victim for delete/upsert out of every id ever issued (so roughly
/// half the deletes hit already-dead records — the no-op path must stay
/// equivalent too).
fn apply_op(
    mi: &mut MutableIndex,
    mirror: &mut Mirror,
    issued: &mut Vec<RecordId>,
    op: u8,
    text_idx: usize,
    sel: usize,
) -> Result<(), String> {
    let text = POOL[text_idx % POOL.len()];
    match op {
        0 => {
            let id = mi.insert(text);
            mirror.insert(id, text);
            issued.push(id);
        }
        1 => {
            if issued.is_empty() {
                return Ok(());
            }
            let id = issued[sel % issued.len()];
            let got = mi.delete(id);
            let want = mirror.delete(id);
            if got != want {
                return Err(format!("delete({id}) returned {got}, mirror says {want}"));
            }
        }
        _ => {
            if issued.is_empty() {
                return Ok(());
            }
            let id = issued[sel % issued.len()];
            let got = mi.upsert(id, text);
            let was_live = mirror.delete(id);
            if was_live {
                mirror.insert(id, text);
            }
            if got != was_live {
                return Err(format!(
                    "upsert({id}) returned {got}, mirror says {was_live}"
                ));
            }
        }
    }
    Ok(())
}

fn seed_index(seed_count: usize) -> (MutableIndex, Mirror, Vec<RecordId>) {
    let texts: Vec<&str> = POOL[..seed_count].to_vec();
    let mi = MutableIndex::from_collection(Box::new(collection(&texts)), IndexOptions::default())
        .expect("qgram tokenizer has a spec")
        // Disable auto-compaction triggers: these tests exercise the
        // layered state explicitly and call compact() themselves.
        .with_budget(DriftBudget {
            max_rel_err: f64::INFINITY,
            max_delta_records: usize::MAX,
        });
    let mirror = Mirror {
        live: mi.live_records(),
    };
    let issued: Vec<RecordId> = mirror.live.iter().map(|(id, _)| *id).collect();
    (mi, mirror, issued)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings over a seeded base: layered state and
    /// post-compaction state both match a from-scratch rebuild on all
    /// eight algorithms across the τ grid.
    #[test]
    fn random_mutations_match_from_scratch_rebuild(
        seed_count in 1usize..=6,
        ops in prop::collection::vec((0u8..3, 0usize..12, 0usize..32), 1..24),
    ) {
        let (mut mi, mut mirror, mut issued) = seed_index(seed_count);
        for (op, text_idx, sel) in ops {
            let r = apply_op(&mut mi, &mut mirror, &mut issued, op, text_idx, sel);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        let r = check_equivalence(&mi, &mirror, "layered");
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());

        mi.compact();
        prop_assert!(mi.pristine(), "compaction must leave a pristine index");
        let r = check_equivalence(&mi, &mirror, "compacted");
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Same contract starting from an empty base: every record lives in
    /// the delta segment, so base-phase short-circuits are exercised.
    #[test]
    fn mutations_over_empty_base_match_rebuild(
        ops in prop::collection::vec((0u8..3, 0usize..12, 0usize..32), 1..16),
    ) {
        let (mut mi, mut mirror, mut issued) = seed_index(0);
        prop_assert_eq!(mi.live_len(), 0);
        for (op, text_idx, sel) in ops {
            let r = apply_op(&mut mi, &mut mirror, &mut issued, op, text_idx, sel);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        let r = check_equivalence(&mi, &mirror, "empty-base layered");
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());

        mi.compact();
        let r = check_equivalence(&mi, &mirror, "empty-base compacted");
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Mid-sequence compactions interleaved with further mutations:
    /// record ids stay stable across segment swaps and equivalence holds
    /// at every compaction boundary.
    #[test]
    fn interleaved_compactions_preserve_equivalence(
        rounds in prop::collection::vec(
            prop::collection::vec((0u8..3, 0usize..12, 0usize..32), 1..8),
            1..4,
        ),
    ) {
        let (mut mi, mut mirror, mut issued) = seed_index(3);
        for batch in rounds {
            for (op, text_idx, sel) in batch {
                let r = apply_op(&mut mi, &mut mirror, &mut issued, op, text_idx, sel);
                prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            }
            mi.compact();
            let r = check_equivalence(&mi, &mirror, "round compacted");
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        // Ids issued across swaps never collide.
        let mut ids: Vec<RecordId> = issued.clone();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), issued.len());
    }
}

/// The audit layer's state cross-check stays clean across a generated
/// mutation batch (deterministic sequence; the proptest cases above
/// already cover the randomized space without the audit feature).
#[cfg(feature = "audit")]
#[test]
fn audit_state_stays_clean_across_mutations_and_compaction() {
    use setsim_core::audit::AuditedMutableIndex;

    let (mut mi, mut mirror, mut issued) = seed_index(4);
    let script: [(u8, usize, usize); 10] = [
        (0, 6, 0),
        (0, 7, 0),
        (1, 0, 1),
        (2, 8, 2),
        (0, 9, 0),
        (1, 0, 7),
        (2, 10, 3),
        (0, 11, 0),
        (1, 0, 4),
        (2, 1, 5),
    ];
    for (op, text_idx, sel) in script {
        apply_op(&mut mi, &mut mirror, &mut issued, op, text_idx, sel).expect("mirror agreement");
        AuditedMutableIndex::new(&mi).audit_state().assert_clean();
    }
    check_equivalence(&mi, &mirror, "audited layered").expect("equivalence");
    mi.compact();
    AuditedMutableIndex::new(&mi).audit_state().assert_clean();
    check_equivalence(&mi, &mirror, "audited compacted").expect("equivalence");
}
