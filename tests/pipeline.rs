//! Full-pipeline integration: datagen → tokenize → index (collections
//! substrates) → algorithms → stats, plus the relational path, exercised
//! together the way the experiment harness uses them.

mod common;

use common::run;
use setsim::core::algorithms::sql::SqlBaseline;
use setsim::core::{AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex};
use setsim::datagen::{Corpus, CorpusConfig, LengthBucket, QueryWorkload};
use setsim::tokenize::QGramTokenizer;

fn corpus_and_collection() -> (Corpus, setsim::core::SetCollection) {
    let corpus = Corpus::generate(&CorpusConfig {
        num_records: 3_000,
        vocab_size: 1_200,
        seed: 77,
        ..CorpusConfig::default()
    });
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for w in corpus.words() {
        b.add(w);
    }
    (corpus, b.build())
}

#[test]
fn workload_queries_with_zero_modifications_all_match() {
    let (corpus, collection) = corpus_and_collection();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let wl = QueryWorkload::generate(corpus.words(), LengthBucket::PAPER[2], 3, 0, 30, 9);
    assert!(!wl.is_empty());
    for qtext in wl.queries() {
        let q = index.prepare_query_str(qtext);
        let out = run(&index, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.999);
        assert!(
            !out.results.is_empty(),
            "unmodified database word {qtext:?} must match itself"
        );
    }
}

#[test]
fn modifications_reduce_result_counts() {
    let (corpus, collection) = corpus_and_collection();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut avg = Vec::new();
    for mods in [0usize, 2] {
        let wl = QueryWorkload::generate(corpus.words(), LengthBucket::PAPER[2], 3, mods, 40, 10);
        let total: usize = wl
            .queries()
            .iter()
            .map(|qtext| {
                let q = index.prepare_query_str(qtext);
                run(&index, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.6)
                    .results
                    .len()
            })
            .sum();
        avg.push(total as f64 / wl.len() as f64);
    }
    assert!(
        avg[0] > avg[1],
        "0-mod workload ({}) should out-match 2-mod workload ({})",
        avg[0],
        avg[1]
    );
}

#[test]
fn stats_sanity_across_algorithms() {
    let (corpus, collection) = corpus_and_collection();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let qtext = corpus.words().find(|w| w.len() >= 8).unwrap();
    let q = index.prepare_query_str(qtext);
    let tau = 0.8;

    let merge = run(&index, AlgorithmKind::Merge, AlgoConfig::full(), &q, tau);
    assert_eq!(
        merge.stats.elements_read, merge.stats.total_list_elements,
        "sort-by-id must read everything"
    );
    assert_eq!(merge.stats.random_probes, 0);

    let sf = run(&index, AlgorithmKind::Sf, AlgoConfig::full(), &q, tau);
    assert!(sf.stats.elements_read < merge.stats.elements_read);
    assert_eq!(sf.stats.random_probes, 0, "SF never random-probes");

    let ita = run(&index, AlgorithmKind::ITa, AlgoConfig::full(), &q, tau);
    assert!(ita.stats.random_probes > 0, "iTA must random-probe");

    let inra = run(&index, AlgorithmKind::INra, AlgoConfig::full(), &q, tau);
    assert_eq!(inra.stats.random_probes, 0, "iNRA never random-probes");
    assert!(inra.stats.candidates_inserted > 0);

    // Same answers everywhere.
    let oracle = run(&index, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau).ids_sorted();
    for (name, out) in [("merge", merge), ("sf", sf), ("ita", ita), ("inra", inra)] {
        assert_eq!(out.ids_sorted(), oracle, "{name}");
    }
}

#[test]
fn lean_index_supports_sequential_algorithms() {
    // SF/iNRA must run on an index without hash or id-sorted structures
    // (the SF/Hybrid storage story of Figure 5).
    let (corpus, collection) = corpus_and_collection();
    let lean = IndexOptions::default()
        .with_hash_indexes(false)
        .with_id_sorted_lists(false);
    let index = InvertedIndex::build(&collection, lean);
    let qtext = corpus.words().next().unwrap();
    let q = index.prepare_query_str(qtext);
    let a = run(&index, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.7);
    let b = run(&index, AlgorithmKind::INra, AlgoConfig::full(), &q, 0.7);
    let c = run(&index, AlgorithmKind::Scan, AlgoConfig::full(), &q, 0.7);
    assert_eq!(a.ids_sorted(), c.ids_sorted());
    assert_eq!(b.ids_sorted(), c.ids_sorted());
}

#[test]
fn sql_pipeline_end_to_end() {
    let (corpus, collection) = corpus_and_collection();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let sql = SqlBaseline::build(&collection, index.weights());
    assert_eq!(sql.num_rows() as u64, index.total_postings());
    for qtext in corpus.words().take(10) {
        let q = index.prepare_query_str(qtext);
        let oracle = run(&index, AlgorithmKind::Scan, AlgoConfig::full(), &q, 0.7).ids_sorted();
        assert_eq!(sql.search(&q, 0.7).expect("valid tau").ids_sorted(), oracle);
    }
}

#[test]
fn index_size_reporting_is_consistent() {
    let (_, collection) = corpus_and_collection();
    let full = InvertedIndex::build(&collection, IndexOptions::default());
    let lean = InvertedIndex::build(
        &collection,
        IndexOptions::default()
            .with_skip_lists(false)
            .with_hash_indexes(false)
            .with_id_sorted_lists(false),
    );
    let (fl, fs, fh) = full.size_bytes();
    let (ll, ls, lh) = lean.size_bytes();
    assert!(fl > ll, "id-sorted copies add list bytes");
    assert_eq!(ls, 0);
    assert_eq!(lh, 0);
    assert!(fs > 0 && fh > 0);
    assert!(fh > fs, "extendible hashing outweighs skip lists");
}
