//! Representation-differential suite: the adaptive posting
//! representations (inline array, sorted run, dense bitmap) must be
//! query-indistinguishable.
//!
//! For random corpora across density regimes, each representation is
//! forced globally via the build-time [`ReprPolicy`] override and every
//! one of the eight selection algorithms is run over a τ grid. Result
//! sets and scores must be **bit-identical** to the sorted-run baseline —
//! the pre-kernel representation — because all three representations
//! assemble the same `(len, id)`-sorted posting runs and only change the
//! auxiliary access structures around them. Every algorithm under every
//! policy must equal the naive scan over the run baseline bit for bit
//! (the exactness contract, DESIGN.md §1), and the read/skip counters must
//! partition each list (`read + skipped ≤ total`) under every policy.
//!
//! The same differential runs through [`MutableIndex`] with interleaved
//! inserts, deletes, and upserts, before and after compaction.

mod common;

use common::run;
use proptest::prelude::*;
use setsim::core::{
    AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, MutableIndex,
    ReprKind, ReprPolicy, Scratch, SearchRequest, SetCollection,
};
use setsim::tokenize::QGramTokenizer;

/// Policies under differential test; the first is the baseline every
/// other one must match bit-for-bit.
const POLICIES: [(&str, ReprPolicy); 4] = [
    ("run", ReprPolicy::Force(ReprKind::Run)),
    ("inline", ReprPolicy::Force(ReprKind::Inline)),
    ("bitmap", ReprPolicy::Force(ReprKind::Bitmap)),
    ("adaptive", ReprPolicy::Adaptive),
];

fn build(texts: &[String]) -> SetCollection {
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for t in texts {
        b.add(t);
    }
    b.build()
}

fn options(policy: ReprPolicy) -> IndexOptions {
    IndexOptions::default().with_repr_policy(policy)
}

/// Random short words over a small alphabet: high gram collision rate
/// drives dense lists (the bitmap's regime) while singleton grams keep
/// inline lists in play — all three representations are exercised in one
/// corpus under the adaptive policy, and forced globally by the others.
fn word_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('a'), Just('b'), Just('c'), Just('d')],
        1..10,
    )
    .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_representation_matches_the_run_baseline_bit_for_bit(
        texts in proptest::collection::vec(word_strategy(), 1..60),
        query in word_strategy(),
        tau_pct in 5u32..=100,
        block_skip in any::<bool>(),
    ) {
        let tau = f64::from(tau_pct) / 100.0;
        let cfg = if block_skip {
            AlgoConfig::full()
        } else {
            AlgoConfig::no_block_skip()
        };
        let collection = build(&texts);
        let baseline = InvertedIndex::build(&collection, options(POLICIES[0].1));
        let q = baseline.prepare_query_str(&query);
        let oracle = run(&baseline, AlgorithmKind::Scan, cfg, &q, tau).bits_sorted();
        for (name, policy) in &POLICIES {
            let index = InvertedIndex::build(&collection, options(*policy));
            let q = index.prepare_query_str(&query);
            for kind in AlgorithmKind::ALL {
                // Kinds without property toggles ignore `cfg`.
                let out = run(&index, kind, cfg, &q, tau);
                let stats = out.stats;
                prop_assert!(
                    stats.elements_read + stats.elements_skipped <= stats.total_list_elements,
                    "{}: counters do not partition the lists: {:?}",
                    kind.name(),
                    stats
                );
                prop_assert_eq!(
                    out.bits_sorted(),
                    oracle.clone(),
                    "{} diverges from the run baseline's scan under the {} policy \
                     (tau={}, block_skip={})",
                    kind.name(),
                    name,
                    tau,
                    block_skip
                );
            }
        }
    }

    #[test]
    fn mutable_index_is_representation_independent(
        seed_texts in proptest::collection::vec(word_strategy(), 1..30),
        extra_texts in proptest::collection::vec(word_strategy(), 1..12),
        query in word_strategy(),
        tau_pct in 10u32..=100,
        delete_stride in 2usize..5,
    ) {
        let tau = f64::from(tau_pct) / 100.0;
        // Apply the identical mutation script under every policy and
        // compare the layered answers to the run baseline's, then
        // compact and compare again.
        let mut per_policy: Vec<Vec<Vec<(u64, u64)>>> = Vec::new();
        for (_, policy) in POLICIES {
            let mut mi = MutableIndex::from_collection(
                Box::new(build(&seed_texts)),
                options(policy),
            ).expect("qgram spec");
            let mut inserted = Vec::new();
            for t in &extra_texts {
                inserted.push(mi.insert(t));
            }
            for (k, id) in inserted.iter().enumerate() {
                if k % delete_stride == 0 {
                    mi.delete(*id);
                }
            }
            if let Some(last) = inserted.last() {
                mi.upsert(*last, "mutated record text");
            }

            let mut phases = Vec::new();
            for compacted in [false, true] {
                if compacted {
                    mi.compact();
                }
                let mq = mi.prepare_query_str(&query);
                let out = mi
                    .search(
                        &mut Scratch::default(),
                        &SearchRequest::new(&mq).tau(tau).algorithm(AlgorithmKind::Sf),
                    )
                    .expect("mutable search");
                let mut rows: Vec<(u64, u64)> = out
                    .results
                    .iter()
                    .map(|m| (m.record.0, m.score.to_bits()))
                    .collect();
                rows.sort_unstable();
                phases.push(rows);
            }
            per_policy.push(phases);
        }
        for (i, phases) in per_policy.iter().enumerate().skip(1) {
            prop_assert_eq!(
                &per_policy[0],
                phases,
                "mutable answers diverge between run and {} policies",
                POLICIES[i].0
            );
        }
    }
}

/// Dense-token regime, deterministically: hundreds of records sharing a
/// long common substring make its gram lists long *and* dense, so the
/// adaptive policy must pick the bitmap representation — and SF's block
/// skipping must actually bypass elements through the block-max layer
/// while preserving the exact-partition counter invariant.
#[test]
fn adaptive_policy_selects_bitmaps_on_dense_tokens_and_skips_blocks() {
    let texts: Vec<String> = (0..300)
        .map(|i| format!("sharedcore{}", "x".repeat(i % 7 + 1)))
        .collect();
    let collection = build(&texts);
    let index = InvertedIndex::build(&collection, options(ReprPolicy::Adaptive));

    let token = collection.dict().get("har").expect("gram interned");
    let list = index.list(token).expect("list exists");
    assert_eq!(
        list.repr(),
        ReprKind::Bitmap,
        "a {}-posting list over {} records must adapt to a bitmap",
        list.len(),
        collection.len()
    );

    let q = index.prepare_query_str("sharedcorex");
    let out = run(&index, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.9);
    let no_skip = run(
        &index,
        AlgorithmKind::Sf,
        AlgoConfig::no_block_skip(),
        &q,
        0.9,
    );
    assert_eq!(out.bits_sorted(), no_skip.bits_sorted());
    assert!(
        out.stats.elements_skipped > 0,
        "dense window should engage the skip layer: {:?}",
        out.stats
    );
    assert!(
        out.stats.elements_read + out.stats.elements_skipped <= out.stats.total_list_elements,
        "counters must partition the lists: {:?}",
        out.stats
    );
}

/// The inline representation really stores small lists inline, and the
/// three representations report different footprints for the same
/// logical postings without changing a single answer.
#[test]
fn representation_report_covers_all_three_kinds() {
    let texts: Vec<String> = (0..200)
        .map(|i| {
            if i % 2 == 0 {
                format!("commonword {i:03}")
            } else {
                format!("unique{i:04}gram")
            }
        })
        .collect();
    let collection = build(&texts);
    let index = InvertedIndex::build(&collection, options(ReprPolicy::Adaptive));
    let mut kinds = std::collections::HashSet::new();
    for t in 0..collection.dict().len() as u32 {
        if let Some(list) = index.list(setsim::tokenize::Token(t)) {
            kinds.insert(format!("{:?}", list.repr()));
        }
    }
    assert!(
        kinds.contains("Inline") && kinds.contains("Run") && kinds.contains("Bitmap"),
        "adaptive corpus should exercise all three representations, got {kinds:?}"
    );
}
