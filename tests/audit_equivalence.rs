//! The audit-layer acceptance test (`--features audit`): run iNRA, iTA,
//! SF, and Hybrid under [`AuditedIndex`] on a generated corpus and demand
//! zero invariant violations and zero divergence from the scan oracle —
//! across thresholds and the property-ablation configurations.

#![cfg(feature = "audit")]

mod common;

use common::run;
use setsim::core::audit::AuditedIndex;
use setsim::core::{
    AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, SearchRequest,
};

/// The paper's four property-driven algorithms.
const AUDITED_KINDS: [AlgorithmKind; 4] = [
    AlgorithmKind::INra,
    AlgorithmKind::ITa,
    AlgorithmKind::Sf,
    AlgorithmKind::Hybrid,
];
use setsim::datagen::{Corpus, CorpusConfig};
use setsim::tokenize::QGramTokenizer;

#[test]
fn paper_algorithms_audit_clean_on_generated_corpus() {
    let corpus = Corpus::generate(&CorpusConfig {
        num_records: 800,
        vocab_size: 400,
        seed: 20_260_807,
        ..CorpusConfig::default()
    });
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for w in corpus.words() {
        b.add(w);
    }
    let collection = b.build();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let audited = AuditedIndex::new(&index);

    let queries: Vec<String> = corpus.words().take(12).map(str::to_string).collect();
    let configs = [
        AlgoConfig::full(),
        AlgoConfig::no_skip_lists(),
        AlgoConfig::no_length_bounding(),
    ];
    let mut audits = 0usize;
    for qtext in &queries {
        let q = index.prepare_query_str(qtext);
        for tau in [0.5, 0.75, 0.95, 1.0] {
            for cfg in configs {
                for kind in AUDITED_KINDS {
                    let req = SearchRequest::new(&q).tau(tau).algorithm(kind).config(cfg);
                    let (out, report) = audited.search_audited(&req).expect("valid request");
                    report.assert_clean();
                    // Auditing runs the request exactly as `execute` does.
                    assert_eq!(
                        out.ids_sorted(),
                        run(&index, kind, cfg, &q, tau).ids_sorted()
                    );
                    assert!(
                        report.oracle_comparisons == collection.len(),
                        "audit must compare the whole collection"
                    );
                    // The self-match must be among the results at every tau.
                    assert!(
                        out.results
                            .iter()
                            .any(|m| collection.text(m.id) == Some(qtext.as_str())),
                        "{} lost the self-match for {qtext:?} at tau {tau}",
                        kind.name()
                    );
                    audits += 1;
                }
            }
        }
    }
    assert_eq!(audits, queries.len() * 4 * configs.len() * 4);
}

#[test]
fn audit_clean_on_dirty_queries() {
    // Queries that are *not* database records (typo'd variants): the
    // pruning has no self-match anchor and unknown-token mass is nonzero.
    let corpus = Corpus::generate(&CorpusConfig {
        num_records: 500,
        vocab_size: 250,
        seed: 7,
        ..CorpusConfig::default()
    });
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for w in corpus.words() {
        b.add(w);
    }
    let collection = b.build();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let audited = AuditedIndex::new(&index);

    let dirty: Vec<String> = corpus
        .words()
        .take(8)
        .map(|w| {
            // Deterministic corruption: swap the first two characters and
            // append a gram that is unlikely to be in the vocabulary.
            let mut chars: Vec<char> = w.chars().collect();
            if chars.len() >= 2 {
                chars.swap(0, 1);
            }
            chars.into_iter().collect::<String>() + "zq"
        })
        .collect();
    for qtext in &dirty {
        let q = index.prepare_query_str(qtext);
        for tau in [0.4, 0.7, 0.9] {
            for kind in AUDITED_KINDS {
                let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
                let (_, report) = audited.search_audited(&req).expect("valid request");
                report.assert_clean();
            }
        }
    }
}
