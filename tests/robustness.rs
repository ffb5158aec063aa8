//! Robustness suite: algorithms must return identical answers under every
//! index-construction configuration (skip stride, hash page size, disabled
//! structures) or refuse with a typed error, the tf-aware path must match
//! its oracle on random inputs, and degenerate inputs must not break
//! anything.

mod common;

use common::run;
use proptest::prelude::*;
use setsim::core::algorithms::topk::{topk_nra, topk_sf};
use setsim::core::tfsearch::{tf_scan, tf_sf, TfIndex};
use setsim::core::{
    AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, PagedEngine,
    QueryEngine, SearchError, SearchRequest, SetCollection, SetId,
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
        1..12,
    )
    .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Results are invariant under index build options.
    #[test]
    fn index_options_do_not_change_answers(
        texts in proptest::collection::vec(word_strategy(), 1..40),
        query in word_strategy(),
        tau_pct in 10u32..=100,
        stride in 1usize..40,
        bucket_cap in 1usize..16,
    ) {
        let tau = f64::from(tau_pct) / 100.0;
        let collection = build(&texts);
        let reference = {
            let idx = InvertedIndex::build(&collection, IndexOptions::default());
            let q = idx.prepare_query_str(&query);
            run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau).bits_sorted()
        };
        let variants = [
            IndexOptions::default()
                .with_skip_stride(stride)
                .with_hash_bucket_capacity(bucket_cap),
            IndexOptions::default()
                .with_skip_lists(false)
                .with_hash_indexes(false)
                .with_id_sorted_lists(false),
        ];
        for opts in variants {
            let idx = InvertedIndex::build(&collection, opts.clone());
            let q = idx.prepare_query_str(&query);
            for out in [
                run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, tau),
                run(&idx, AlgorithmKind::INra, AlgoConfig::full(), &q, tau),
                run(&idx, AlgorithmKind::Hybrid, AlgoConfig::full(), &q, tau),
            ] {
                prop_assert_eq!(out.bits_sorted(), reference.clone(), "opts {:?}", opts);
            }
        }
    }

    /// The boosted tf-aware SF matches the exhaustive tf oracle on
    /// randomized inputs (duplicated grams give genuine tf > 1).
    #[test]
    fn tf_sf_matches_tf_scan(
        texts in proptest::collection::vec(word_strategy(), 1..40),
        query in word_strategy(),
        tau_pct in 10u32..=100,
    ) {
        let tau = f64::from(tau_pct) / 100.0;
        let mut b = CollectionBuilder::new(QGramTokenizer::new(2));
        for t in &texts {
            b.add(t);
        }
        let collection = b.build();
        let idx = TfIndex::build(&collection);
        let q = idx.prepare_query_str(&query);
        let oracle = tf_scan(&idx, &q, tau).expect("valid tau").bits_sorted();
        let got = tf_sf(&idx, &q, tau).expect("valid tau").bits_sorted();
        prop_assert_eq!(got, oracle, "tau {}", tau);
    }
}

#[test]
fn degenerate_inputs_do_not_panic() {
    // Single-record database.
    let c = build(&["x".to_string()]);
    let idx = InvertedIndex::build(&c, IndexOptions::default());
    let q = idx.prepare_query_str("x");
    assert_eq!(
        run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 1.0)
            .results
            .len(),
        1
    );

    // Query matching nothing.
    let q = idx.prepare_query_str("zzzzzz");
    assert!(run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.1)
        .results
        .is_empty());

    // All-identical records.
    let c = build(&vec!["same".to_string(); 20]);
    let idx = InvertedIndex::build(&c, IndexOptions::default());
    let q = idx.prepare_query_str("same");
    let out = run(&idx, AlgorithmKind::Hybrid, AlgoConfig::full(), &q, 1.0);
    assert_eq!(out.results.len(), 20);

    // Whitespace-only record: padded grams only.
    let c = build(&[" ".to_string(), "real".to_string()]);
    let idx = InvertedIndex::build(&c, IndexOptions::default());
    let q = idx.prepare_query_str("real");
    assert!(!run(&idx, AlgorithmKind::INra, AlgoConfig::full(), &q, 0.9)
        .results
        .is_empty());
}

#[test]
fn unicode_records_work_end_to_end() {
    let texts: Vec<String> = [
        "straße münchen",
        "strasse muenchen",
        "日本語テキスト",
        "日本語テスト",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let c = build(&texts);
    let idx = InvertedIndex::build(&c, IndexOptions::default());
    let q = idx.prepare_query_str("日本語テキスト");
    let out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.5).sorted_by_score();
    assert_eq!(c.text(out[0].id), Some("日本語テキスト"));
    let exact = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 1.0);
    assert_eq!(exact.ids_sorted(), vec![out[0].id]);
    // The near-duplicate Japanese string should score above the German ones.
    assert_eq!(c.text(out[1].id), Some("日本語テスト"));
}

#[test]
fn very_long_record_does_not_blow_bounds() {
    let mut texts: Vec<String> = vec!["short".into()];
    texts.push("short".repeat(500)); // shares every gram, enormous length
    let c = build(&texts);
    let idx = InvertedIndex::build(&c, IndexOptions::default());
    let q = idx.prepare_query_str("short");
    for tau in [0.5, 0.9, 1.0] {
        let oracle = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau).ids_sorted();
        assert_eq!(
            run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, tau).ids_sorted(),
            oracle
        );
        assert_eq!(
            run(&idx, AlgorithmKind::Hybrid, AlgoConfig::full(), &q, tau).ids_sorted(),
            oracle
        );
    }
}

/// Switching a structure off, at build or carried in a snapshot, never
/// turns a public request into a panic: every kind answers bit for bit as
/// over the default index, or is refused as `SearchError::Unsupported` —
/// sort-by-id without id-sorted lists, TA/iTA without hash indexes.
#[test]
fn disabled_structures_are_refused_never_panicked_on() {
    use AlgorithmKind::{ITa, Merge, Ta};
    type Served = Result<Vec<(SetId, u64)>, SearchError>;
    let texts: Vec<String> = (0..60).map(|i| format!("main street {i}")).collect();
    let collection = build(&texts);
    fn answer(engine: &mut QueryEngine<'_>, kind: AlgorithmKind, text: &str, tau: f64) -> Served {
        let q = engine.prepare_query_str(text);
        let out = engine.search(SearchRequest::new(&q).tau(tau).algorithm(kind))?;
        Ok(out.bits_sorted())
    }
    fn answer_paged(engine: &mut PagedEngine, kind: AlgorithmKind, text: &str, tau: f64) -> Served {
        let q = engine.prepare_query_str(text);
        match engine.search(SearchRequest::new(&q).tau(tau).algorithm(kind)) {
            Ok(out) => Ok(out.bits_sorted()),
            Err(SearchError::Snapshot(e)) => panic!("paged snapshot error: {e}"),
            Err(e) => Err(e),
        }
    }
    let default = IndexOptions::default();
    let mut reference = QueryEngine::new(InvertedIndex::build(&collection, default.clone()));
    // Every kind on every probe query: each answer equals the default
    // index's, or is a typed refusal naming the kind; returns the refused
    // kinds in order.
    let mut refusals = |serve: &mut dyn FnMut(AlgorithmKind, &str, f64) -> Served| {
        let mut refused = Vec::new();
        for kind in AlgorithmKind::ALL {
            for (text, tau) in [("main street", 0.5), ("main street 7", 0.8), ("xyzzy", 0.5)] {
                let want = answer(&mut reference, kind, text, tau).expect("default serves");
                match serve(kind, text, tau) {
                    Err(SearchError::Unsupported { algorithm, .. }) if algorithm == kind => {
                        refused.push(kind);
                    }
                    Ok(got) => assert_eq!(got, want, "{kind:?} {text:?}"),
                    Err(e) => panic!("{kind:?} {text:?}: unexpected error {e}"),
                }
            }
        }
        refused.dedup();
        refused
    };
    for (i, (opts, refusable)) in [
        (default.clone(), &[][..]),
        (default.clone().with_hash_indexes(false), &[Ta, ITa][..]),
        (default.clone().with_id_sorted_lists(false), &[Merge][..]),
        (default.clone().with_skip_lists(false), &[][..]),
    ]
    .into_iter()
    .enumerate()
    {
        let built = InvertedIndex::build(&collection, opts.clone());
        let path =
            std::env::temp_dir().join(format!("setsim-robust-{}-{i}.snap", std::process::id()));
        built.save(&path).expect("save");
        let loaded = QueryEngine::open(&path).expect("open");
        // The paged engine builds only the structures each request's
        // algorithm reads: that scoping must neither grant a structure
        // the snapshot lacks nor refuse one it has.
        let mut paged = QueryEngine::open_paged(&path, 4).expect("open paged");
        let _ = std::fs::remove_file(&path);
        for mut engine in [QueryEngine::new(built), loaded] {
            let refused = refusals(&mut |kind, text, tau| answer(&mut engine, kind, text, tau));
            assert_eq!(refused, refusable, "{opts:?}: refused kinds");
        }
        let refused = refusals(&mut |kind, text, tau| answer_paged(&mut paged, kind, text, tau));
        assert_eq!(refused, refusable, "{opts:?}: refused kinds, paged");
    }
}

/// A query prepared against one index and searched on another is refused
/// as `SearchError::ForeignQuery` by the heap and paged engines and by
/// both top-k searches.
#[test]
fn query_prepared_on_another_index_is_a_typed_error() {
    let a = build(&["main street".to_string(), "xylophone quartet".to_string()]);
    let b = build(&["main street".to_string()]);
    let q = InvertedIndex::build(&a, IndexOptions::default()).prepare_query_str("xylophone");
    let index_b = InvertedIndex::build(&b, IndexOptions::default());
    let path = std::env::temp_dir().join(format!("setsim-foreign-{}.snap", std::process::id()));
    index_b.save(&path).expect("save");
    let mut paged = QueryEngine::open_paged(&path, 2).expect("open paged");
    let _ = std::fs::remove_file(&path);
    let foreign = |e: &SearchError| matches!(e, SearchError::ForeignQuery { .. });
    assert!(topk_nra(&index_b, &q, 3).is_err_and(|e| foreign(&e)));
    assert!(topk_sf(&index_b, &q, 3, 0.5).is_err_and(|e| foreign(&e)));
    let mut heap = QueryEngine::new(index_b);
    for kind in AlgorithmKind::ALL {
        let req = SearchRequest::new(&q).tau(0.5).algorithm(kind);
        assert!(
            heap.search(req).is_err_and(|e| foreign(&e)),
            "heap {kind:?}"
        );
        assert!(
            paged.search(req).is_err_and(|e| foreign(&e)),
            "paged {kind:?}"
        );
    }
}

/// A pool of `usize::MAX` frames opens and serves like the heap engine:
/// the frame map is sized by the pages the file holds, not by the pool
/// that was asked for, and the requested capacity is still reported.
#[test]
fn oversized_pool_opens_and_answers_like_the_heap_engine() {
    let texts: Vec<String> = (0..60).map(|i| format!("main street {i}")).collect();
    let collection = build(&texts);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let path = std::env::temp_dir().join(format!("setsim-bigpool-{}.snap", std::process::id()));
    index.save(&path).expect("save");
    let paged = QueryEngine::open_paged(&path, usize::MAX);
    let _ = std::fs::remove_file(&path);
    let mut paged = paged.expect("open paged");
    assert_eq!(paged.pool_pages(), usize::MAX);
    let mut heap = QueryEngine::new(index);
    for kind in AlgorithmKind::ALL {
        let q = heap.prepare_query_str("main street 7");
        let want = heap
            .search(SearchRequest::new(&q).tau(0.5).algorithm(kind))
            .expect("heap serves")
            .bits_sorted();
        let q = paged.prepare_query_str("main street 7");
        let got = paged
            .search(SearchRequest::new(&q).tau(0.5).algorithm(kind))
            .expect("paged serves")
            .bits_sorted();
        assert_eq!(got, want, "{kind:?}");
    }
}
