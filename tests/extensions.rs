//! Integration tests of the top-k and parallel-batch extensions against
//! the exhaustive oracle, on randomized and realistic inputs.

mod common;

use common::run;
use proptest::prelude::*;
use setsim::core::algorithms::topk::{topk_nra, topk_scan, topk_sf};
use setsim::core::{
    AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, Match, QueryEngine,
    SearchRequest, SetCollection,
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
        prop_oneof![Just('a'), Just('b'), Just('c'), Just('d')],
        1..10,
    )
    .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn topk_matches_oracle(
        texts in proptest::collection::vec(word_strategy(), 1..50),
        query in word_strategy(),
        k in 1usize..12,
    ) {
        let collection = build(&texts);
        let index = InvertedIndex::build(&collection, IndexOptions::default());
        let q = index.prepare_query_str(&query);
        let oracle = topk_scan(&index, &q, k);
        let nra = topk_nra(&index, &q, k).expect("word queries are narrow");
        let sf = topk_sf(&index, &q, k, 0.8).expect("valid tau guess");
        prop_assert_eq!(nra.results.len(), oracle.len(), "nra count");
        prop_assert_eq!(sf.results.len(), oracle.len(), "sf count");
        // Scores per rank, bit for bit; ids may differ only on ties.
        let bits = |ms: &[Match]| ms.iter().map(|m| m.score.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&nra.results), bits(&oracle), "nra");
        prop_assert_eq!(bits(&sf.results), bits(&oracle), "sf");
    }

    #[test]
    fn parallel_batch_matches_serial(
        texts in proptest::collection::vec(word_strategy(), 1..40),
        queries in proptest::collection::vec(word_strategy(), 0..12),
        threads in 1usize..6,
    ) {
        let collection = build(&texts);
        let engine = QueryEngine::new(InvertedIndex::build(&collection, IndexOptions::default()));
        let prepared: Vec<_> = queries.iter().map(|s| engine.prepare_query_str(s)).collect();
        let reqs: Vec<_> = prepared.iter().map(|q| SearchRequest::new(q).tau(0.6)).collect();
        let serial = engine.search_batch(&reqs, 1);
        let parallel = engine.search_batch(&reqs, threads);
        prop_assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().expect("valid request"), p.as_ref().expect("valid request"));
            prop_assert_eq!(s.ids_sorted(), p.ids_sorted());
        }
    }
}

#[test]
fn topk_on_realistic_corpus() {
    use setsim::datagen::{Corpus, CorpusConfig};
    let corpus = Corpus::generate(&CorpusConfig {
        num_records: 2_000,
        vocab_size: 900,
        seed: 5,
        ..CorpusConfig::default()
    });
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for w in corpus.words() {
        b.add(w);
    }
    let collection = b.build();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    for qtext in corpus.words().take(10) {
        let q = index.prepare_query_str(qtext);
        for k in [1, 5, 20] {
            let oracle = topk_scan(&index, &q, k);
            let nra = topk_nra(&index, &q, k).expect("word queries are narrow");
            assert_eq!(nra.results.len(), oracle.len());
            for (a, b) in nra.results.iter().zip(&oracle) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }
}

#[test]
fn topk_consistent_with_threshold_search() {
    // The k-th best score, used as a threshold, must return at least k
    // results (ties can add more).
    let texts: Vec<String> = (0..200).map(|i| format!("record {i:03}")).collect();
    let collection = build(&texts);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let q = index.prepare_query_str("record 042");
    let k = 7;
    let top = topk_nra(&index, &q, k).expect("word queries are narrow");
    assert_eq!(top.results.len(), k);
    let kth = top.results[k - 1].score;
    let thresholded = run(
        &index,
        AlgorithmKind::Scan,
        AlgoConfig::full(),
        &q,
        kth.min(1.0),
    );
    assert!(thresholded.results.len() >= k);
}
