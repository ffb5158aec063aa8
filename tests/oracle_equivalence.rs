//! The central correctness property, the exactness contract of DESIGN.md
//! §1: every algorithm — sort-by-id merge, TA, NRA, iTA, iNRA, SF, Hybrid,
//! and the SQL baseline — returns exactly the `(id, score bits)` set the
//! exhaustive scan returns, for arbitrary collections, queries,
//! thresholds, and property-toggle configurations. There is no tolerance
//! band: every algorithm reports the one canonical score and decides
//! membership on it.

mod common;

use common::run;
use proptest::prelude::*;
use setsim::core::algorithms::sql::SqlBaseline;
use setsim::core::{
    AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, SetCollection, SetId,
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

        let oracle = run(&index, AlgorithmKind::Scan, cfg, &q, tau).bits_sorted();
        // Kinds without property toggles ignore `cfg`.
        for kind in LIST_KINDS {
            let got = run(&index, kind, cfg, &q, tau).bits_sorted();
            prop_assert_eq!(got, oracle.clone(), "{} at tau {}", kind.name(), tau);
        }

        let sql = SqlBaseline::build(&collection, index.weights());
        let got = sql.search(&q, tau).expect("valid tau").bits_sorted();
        prop_assert_eq!(got, oracle, "SQL at tau {}", tau);
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
            let oracle =
                run(&index, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau).bits_sorted();
            for kind in LIST_KINDS {
                let got = run(&index, kind, AlgoConfig::full(), &q, tau).bits_sorted();
                assert_eq!(got, oracle, "{} at tau {tau}", kind.name());
            }
            assert_eq!(
                sql.search(&q, tau).expect("valid tau").bits_sorted(),
                oracle
            );
        }
    }
}
