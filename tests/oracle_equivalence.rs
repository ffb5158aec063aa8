//! The central correctness property: every algorithm — sort-by-id merge,
//! TA, NRA, iTA, iNRA, SF, Hybrid, and the SQL baseline — returns exactly
//! the sets the exhaustive scan returns, for arbitrary collections,
//! queries, thresholds, and property-toggle configurations.
//!
//! Scores within floating-point slack of τ are treated as "don't care":
//! different summation orders may legitimately disagree at the knife edge
//! (see `EPS_REL` in setsim-core); everything clearly above or below must
//! match exactly.

mod common;

use common::run;
use proptest::prelude::*;
use setsim::core::algorithms::sql::SqlBaseline;
use setsim::core::{
    AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, PreparedQuery,
    SearchOutcome, SetCollection, SetId,
};
use setsim::tokenize::QGramTokenizer;

/// Every list-based kind (everything but the scan oracle itself).
const LIST_KINDS: [AlgorithmKind; 7] = [
    AlgorithmKind::Merge,
    AlgorithmKind::Ta,
    AlgorithmKind::Nra,
    AlgorithmKind::ITa,
    AlgorithmKind::INra,
    AlgorithmKind::Sf,
    AlgorithmKind::Hybrid,
];

fn build(texts: &[String]) -> SetCollection {
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for t in texts {
        b.add(t);
    }
    b.build()
}

/// Partition the database by the oracle into clearly-in / clearly-out /
/// boundary ids, then check an algorithm's result set against it.
fn check_outcome(
    index: &InvertedIndex<'_>,
    query: &PreparedQuery,
    tau: f64,
    outcome: &SearchOutcome,
    name: &str,
) -> Result<(), TestCaseError> {
    let mut oracle_scores = vec![0.0f64; index.collection().len()];
    // Recompute all scores via a tau low enough to return everything > 0.
    let all = run(index, AlgorithmKind::Scan, AlgoConfig::full(), query, 1e-9);
    for m in &all.results {
        oracle_scores[m.id.index()] = m.score;
    }
    let band = 1e-9 * tau.max(1.0);
    let got: std::collections::HashSet<u32> = outcome.results.iter().map(|m| m.id.0).collect();
    for (i, &s) in oracle_scores.iter().enumerate() {
        if (s - tau).abs() <= band {
            continue; // knife-edge: either answer acceptable
        }
        if s >= tau {
            prop_assert!(
                got.contains(&(i as u32)),
                "{name}: missing id {i} with score {s} >= tau {tau}"
            );
        } else {
            prop_assert!(
                !got.contains(&(i as u32)),
                "{name}: spurious id {i} with score {s} < tau {tau}"
            );
        }
    }
    // Reported scores must be exact.
    for m in &outcome.results {
        prop_assert!(
            (m.score - oracle_scores[m.id.index()]).abs() < 1e-9,
            "{name}: wrong score for {:?}",
            m.id
        );
    }
    Ok(())
}

/// Random short words over a small alphabet: high gram collision rate,
/// which is the adversarial case for pruning logic.
fn word_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('a'), Just('b'), Just('c'), Just('d')],
        1..10,
    )
    .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_match_oracle(
        texts in proptest::collection::vec(word_strategy(), 1..60),
        query in word_strategy(),
        tau_pct in 5u32..=100,
        cfg_idx in 0usize..3,
    ) {
        let tau = f64::from(tau_pct) / 100.0;
        let collection = build(&texts);
        let index = InvertedIndex::build(&collection, IndexOptions::default());
        let q = index.prepare_query_str(&query);
        let cfg = [
            AlgoConfig::full(),
            AlgoConfig::no_skip_lists(),
            AlgoConfig::no_length_bounding(),
        ][cfg_idx];

        // Kinds without property toggles ignore `cfg`.
        for kind in LIST_KINDS {
            check_outcome(&index, &q, tau, &run(&index, kind, cfg, &q, tau), kind.name())?;
        }

        let sql = SqlBaseline::build(&collection, index.weights());
        check_outcome(&index, &q, tau, &sql.search(&q, tau), "SQL")?;
    }

    #[test]
    fn queries_from_database_always_find_themselves(
        texts in proptest::collection::vec(word_strategy(), 1..40),
        pick in any::<prop::sample::Index>(),
    ) {
        let collection = build(&texts);
        let index = InvertedIndex::build(&collection, IndexOptions::default());
        let target = pick.get(&texts);
        let q = index.prepare_query_str(target);
        // tau = 1: the record itself (and exact gram-set twins) must match.
        for kind in [
            AlgorithmKind::Sf,
            AlgorithmKind::Hybrid,
            AlgorithmKind::INra,
            AlgorithmKind::ITa,
        ] {
            let out = run(&index, kind, AlgoConfig::full(), &q, 1.0);
            let found = out.results.iter().any(|m| {
                index.collection().set(m.id) == index.collection().set(exact_id(&texts, target))
            });
            prop_assert!(found, "{} lost the exact match for {target:?}", kind.name());
        }
    }
}

fn exact_id(texts: &[String], target: &str) -> SetId {
    SetId(texts.iter().position(|t| t == target).unwrap() as u32)
}

#[test]
fn realistic_corpus_agreement() {
    use setsim::datagen::{Corpus, CorpusConfig};
    let corpus = Corpus::generate(&CorpusConfig {
        num_records: 1_500,
        vocab_size: 700,
        seed: 99,
        ..CorpusConfig::default()
    });
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for w in corpus.words() {
        b.add(w);
    }
    let collection = b.build();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let sql = SqlBaseline::build(&collection, index.weights());

    let queries: Vec<&str> = corpus.words().take(25).collect();
    for qtext in queries {
        let q = index.prepare_query_str(qtext);
        for tau in [0.5, 0.75, 0.95] {
            let oracle = run(&index, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau).ids_sorted();
            for kind in LIST_KINDS {
                let got = run(&index, kind, AlgoConfig::full(), &q, tau).ids_sorted();
                assert_eq!(got, oracle, "{} at tau {tau}", kind.name());
            }
            assert_eq!(sql.search(&q, tau).ids_sorted(), oracle);
        }
    }
}
