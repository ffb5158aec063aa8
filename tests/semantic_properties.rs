//! End-to-end property tests of Section IV's semantic properties, checked
//! on real indexes rather than in isolation.

mod common;

use common::run;
use proptest::prelude::*;
use setsim::core::{
    properties, AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex,
    SetCollection,
};
use setsim::tokenize::QGramTokenizer;

fn build(texts: &[String]) -> SetCollection {
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for t in texts {
        b.add(t);
    }
    b.build()
}

fn word_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('a'), Just('b'), Just('c'), Just('e')],
        1..12,
    )
    .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 (Length Boundedness): every qualifying set's length lies
    /// in [τ·len(q), len(q)/τ], up to float slack.
    #[test]
    fn theorem1_holds_on_real_data(
        texts in proptest::collection::vec(word_strategy(), 1..50),
        query in word_strategy(),
        tau_pct in 10u32..=100,
    ) {
        let tau = f64::from(tau_pct) / 100.0;
        let collection = build(&texts);
        let index = InvertedIndex::build(&collection, IndexOptions::default());
        let q = index.prepare_query_str(&query);
        if q.is_empty() {
            return Ok(());
        }
        let (lo, hi) = properties::length_bounds(tau, q.len);
        let out = run(&index, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau);
        for m in &out.results {
            let len_s = index.set_len(m.id);
            prop_assert!(
                len_s >= lo * (1.0 - 1e-9) && len_s <= hi * (1.0 + 1e-9),
                "len {len_s} outside [{lo}, {hi}] for score {} >= tau {tau}",
                m.score
            );
        }
    }

    /// Order Preservation: the (len, id) sort order is identical in every
    /// inverted list — shared ids appear in the same relative order.
    #[test]
    fn order_preservation_on_real_index(
        texts in proptest::collection::vec(word_strategy(), 1..40),
    ) {
        let collection = build(&texts);
        let index = InvertedIndex::build(&collection, IndexOptions::default());
        for (t, _) in collection.dict().iter() {
            let Some(list) = index.list(t) else { continue };
            let p = list.postings();
            for w in p.windows(2) {
                prop_assert!(
                    (w[0].len, w[0].id) < (w[1].len, w[1].id),
                    "list for {t} out of order"
                );
            }
            // Posting lengths equal the global set lengths, so the order
            // is the *same* across lists by construction.
            for posting in p {
                prop_assert_eq!(posting.len, index.set_len(posting.id));
            }
        }
    }

    /// Magnitude Boundedness: the best-case score computed from a set's
    /// length alone is a true upper bound on its actual score.
    #[test]
    fn magnitude_bound_is_sound(
        texts in proptest::collection::vec(word_strategy(), 1..40),
        query in word_strategy(),
    ) {
        let collection = build(&texts);
        let index = InvertedIndex::build(&collection, IndexOptions::default());
        let q = index.prepare_query_str(&query);
        if q.is_empty() {
            return Ok(());
        }
        let all = run(&index, AlgorithmKind::Scan, AlgoConfig::full(), &q, 1e-9);
        for m in &all.results {
            let bound = properties::max_score(q.idf_sq_total, index.set_len(m.id), q.len);
            prop_assert!(
                m.score <= bound * (1.0 + 1e-9),
                "score {} exceeds magnitude bound {bound}",
                m.score
            );
        }
    }

    /// λ cutoffs: a qualifying set whose earliest (highest-idf) query
    /// token is list i must have len(s) ≤ λᵢ.
    #[test]
    fn lambda_cutoffs_are_sound(
        texts in proptest::collection::vec(word_strategy(), 1..40),
        query in word_strategy(),
        tau_pct in 10u32..=100,
    ) {
        let tau = f64::from(tau_pct) / 100.0;
        let collection = build(&texts);
        let index = InvertedIndex::build(&collection, IndexOptions::default());
        let q = index.prepare_query_str(&query);
        if q.is_empty() {
            return Ok(());
        }
        let lambdas = properties::lambda_cutoffs(&q, tau);
        let out = run(&index, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau);
        for m in &out.results {
            let set = collection.set(m.id);
            let first = q
                .tokens
                .iter()
                .position(|qt| set.contains(qt.token))
                .expect("a result shares at least one token");
            prop_assert!(
                index.set_len(m.id) <= lambdas[first] * (1.0 + 1e-9),
                "result of len {} above lambda_{first} = {}",
                index.set_len(m.id),
                lambdas[first]
            );
        }
    }

    /// Score normalization: 0 ≤ I(q, s) ≤ 1, and querying a database
    /// string finds itself with score ≈ 1.
    #[test]
    fn scores_are_normalized(
        texts in proptest::collection::vec(word_strategy(), 1..40),
        pick in any::<prop::sample::Index>(),
    ) {
        let collection = build(&texts);
        let index = InvertedIndex::build(&collection, IndexOptions::default());
        let target = pick.get(&texts);
        let q = index.prepare_query_str(target);
        let all = run(&index, AlgorithmKind::Scan, AlgoConfig::full(), &q, 1e-9);
        for m in &all.results {
            prop_assert!(m.score >= 0.0 && m.score <= 1.0 + 1e-9);
        }
        let self_id = texts.iter().position(|t| t == target).unwrap();
        let self_score = all
            .results
            .iter()
            .find(|m| m.id.index() == self_id)
            .map_or(0.0, |m| m.score);
        prop_assert!((self_score - 1.0).abs() < 1e-9, "self score {self_score}");
    }
}
