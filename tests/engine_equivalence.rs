//! The serving layer returns exactly what the paper's contract demands.
//!
//! Every `AlgorithmKind` × `AlgoConfig` ablation, routed through
//! `QueryEngine::search`, must match the scan oracle; scratch reuse must
//! leak nothing between queries; work-stealing batches must
//! come back in request order under adversarially skewed query costs; and
//! budgets must produce typed, sound partial outcomes — never panics.

mod common;

use common::run;
use setsim::core::{
    AlgoConfig, AlgorithmKind, Budget, CollectionBuilder, IndexOptions, InvertedIndex,
    MetricsSnapshot, MutableEngine, MutableIndex, MutableSearchRequest, PreparedQuery, QueryEngine,
    SearchError, SearchRequest, SearchStats, SearchStatus, SetCollection, ShardedEngine,
    ShardedIndex,
};
use setsim::tokenize::QGramTokenizer;

fn build(texts: &[&str]) -> SetCollection {
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    b.extend(texts.iter().copied());
    b.build()
}

fn street_corpus() -> Vec<String> {
    let mut texts: Vec<String> = Vec::new();
    for i in 0..80 {
        texts.push(format!("main street number {i}"));
        texts.push(format!("park avenue {i}"));
        texts.push(format!("maine st {}", i % 7));
    }
    texts.push("main street".into());
    texts.push("completely unrelated".into());
    texts
}

#[test]
fn engine_matches_oracle_for_every_kind_and_ablation() {
    let texts = street_corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let collection = build(&refs);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    let configs = [
        AlgoConfig::full(),
        AlgoConfig::no_length_bounding(),
        AlgoConfig::no_skip_lists(),
    ];
    for qtext in ["main street", "park avenue 3", "mane stret", "xyzzy"] {
        let q = engine.prepare_query_str(qtext);
        for tau in [0.35, 0.7, 1.0] {
            let oracle = run(
                engine.index(),
                AlgorithmKind::Scan,
                AlgoConfig::full(),
                &q,
                tau,
            )
            .ids_sorted();
            for kind in AlgorithmKind::ALL {
                for cfg in configs {
                    let via_engine = engine
                        .search(SearchRequest::new(&q).tau(tau).algorithm(kind).config(cfg))
                        .expect("valid request");
                    assert_eq!(via_engine.status, SearchStatus::Complete);
                    assert_eq!(
                        via_engine.ids_sorted(),
                        oracle,
                        "engine vs oracle: {} cfg={cfg:?} q={qtext:?} tau={tau}",
                        kind.name()
                    );
                }
            }
        }
    }
}

#[test]
fn scratch_reuse_leaks_nothing_between_disjoint_queries() {
    let texts = street_corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let collection = build(&refs);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    // Two queries with disjoint result sets, run back to back on the same
    // warm scratch, for every algorithm.
    let q_main = engine.prepare_query_str("main street");
    let q_park = engine.prepare_query_str("park avenue");
    for kind in AlgorithmKind::ALL {
        let first = engine
            .search(SearchRequest::new(&q_main).tau(0.6).algorithm(kind))
            .expect("valid request");
        let second = engine
            .search(SearchRequest::new(&q_park).tau(0.6).algorithm(kind))
            .expect("valid request");
        // The second answer must equal a cold-scratch run, and must not
        // contain any carryover from the first.
        let fresh = run(engine.index(), kind, AlgoConfig::full(), &q_park, 0.6).ids_sorted();
        assert_eq!(
            second.ids_sorted(),
            fresh,
            "stale scratch for {}",
            kind.name()
        );
        for m in &second.results {
            assert!(
                !first.results.iter().any(|f| f.id == m.id
                    && collection.text(m.id).is_some_and(|t| t.starts_with("main"))),
                "{}: main-street candidate leaked into park-avenue results",
                kind.name()
            );
        }
    }
}

#[test]
fn work_stealing_batch_returns_in_request_order_under_skewed_costs() {
    // Adversarial skew: the heavy queries (broad, low-tau, long strings)
    // are all packed at the front, where static chunking would trap them
    // in one worker's chunk. Work stealing must still return every outcome
    // at the index of its request.
    let texts = street_corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let collection = build(&refs);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);

    let mut queries: Vec<(PreparedQuery, f64)> = Vec::new();
    for i in 0..40 {
        // Heavy: long query text, permissive threshold.
        queries.push((
            engine.prepare_query_str(&format!("main street number {i}")),
            0.3,
        ));
    }
    for i in 0..160 {
        // Light: short query, strict threshold.
        queries.push((engine.prepare_query_str(&format!("park {}", i % 9)), 0.9));
    }
    let reqs: Vec<SearchRequest<'_>> = queries
        .iter()
        .map(|(q, tau)| SearchRequest::new(q).tau(*tau))
        .collect();

    let batch = engine.search_batch(&reqs, 4);
    assert_eq!(batch.len(), reqs.len());
    for (i, (res, (q, tau))) in batch.iter().zip(&queries).enumerate() {
        let serial = engine
            .search(SearchRequest::new(q).tau(*tau))
            .expect("valid request");
        let got = res.as_ref().expect("valid batch request");
        assert_eq!(
            got.ids_sorted(),
            serial.ids_sorted(),
            "slot {i} does not hold its own request's answer"
        );
    }
}

#[test]
fn zero_element_budget_returns_typed_partial_outcome_for_every_kind() {
    let texts = street_corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let collection = build(&refs);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    let q = engine.prepare_query_str("main street");
    for kind in AlgorithmKind::ALL {
        let out = engine
            .search(
                SearchRequest::new(&q)
                    .tau(0.5)
                    .algorithm(kind)
                    .budget(Budget::unlimited().with_max_elements_read(0)),
            )
            .expect("a zero budget is a valid request, not an error");
        assert_eq!(
            out.status,
            SearchStatus::BudgetExceeded,
            "{} must trip a zero-element budget before any access",
            kind.name()
        );
        assert_eq!(
            out.stats.elements_read + out.stats.records_scanned,
            0,
            "{} performed accesses past a zero budget",
            kind.name()
        );
    }
}

#[test]
fn budget_truncated_results_are_a_sound_subset_of_the_oracle() {
    let texts = street_corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let collection = build(&refs);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    let q = engine.prepare_query_str("main street");
    let oracle = run(
        engine.index(),
        AlgorithmKind::Scan,
        AlgoConfig::full(),
        &q,
        0.4,
    );
    for kind in AlgorithmKind::ALL {
        for cap in [1, 8, 64, 512] {
            let out = engine
                .search(
                    SearchRequest::new(&q)
                        .tau(0.4)
                        .algorithm(kind)
                        .budget(Budget::unlimited().with_max_elements_read(cap)),
                )
                .expect("valid request");
            // Whether or not the cap tripped, every reported match must be
            // a true match with its exact score.
            for m in &out.results {
                let reference = oracle
                    .results
                    .iter()
                    .find(|o| o.id == m.id)
                    .unwrap_or_else(|| {
                        panic!(
                            "{} cap={cap}: reported {:?} which the oracle rejects",
                            kind.name(),
                            m.id
                        )
                    });
                assert!(
                    (m.score - reference.score).abs() < 1e-9,
                    "{} cap={cap}: inexact score under truncation",
                    kind.name()
                );
            }
            if out.status == SearchStatus::Complete {
                assert_eq!(out.ids_sorted(), oracle.ids_sorted());
            }
        }
    }
}

#[test]
fn expired_deadline_returns_typed_partial_outcome() {
    let texts = street_corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let collection = build(&refs);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    let q = engine.prepare_query_str("main street");
    let out = engine
        .search(
            SearchRequest::new(&q)
                .tau(0.5)
                .budget(Budget::unlimited().with_time_limit(std::time::Duration::ZERO)),
        )
        .expect("valid request");
    assert_eq!(out.status, SearchStatus::BudgetExceeded);
}

#[test]
fn invalid_tau_is_a_typed_error_not_a_panic() {
    let collection = build(&["main street", "park avenue"]);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    let q = engine.prepare_query_str("main street");
    for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        match engine.search(SearchRequest::new(&q).tau(bad)) {
            Err(SearchError::InvalidTau(t)) => {
                assert!(t.is_nan() == bad.is_nan() && (bad.is_nan() || t == bad));
            }
            other => panic!("tau={bad}: expected InvalidTau, got {other:?}"),
        }
    }
    // The error spells out the contract.
    let msg = SearchError::InvalidTau(0.0).to_string();
    assert!(msg.contains("(0, 1]"), "unexpected message: {msg}");
}

#[test]
fn batch_surfaces_per_request_errors_without_failing_the_batch() {
    let collection = build(&["main street", "park avenue"]);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let engine = QueryEngine::new(index);
    let q = engine.prepare_query_str("main street");
    let reqs = [
        SearchRequest::new(&q).tau(0.5),
        SearchRequest::new(&q).tau(0.0),
        SearchRequest::new(&q).tau(0.9),
    ];
    let outs = engine.search_batch(&reqs, 2);
    assert!(outs[0].is_ok());
    assert!(matches!(outs[1], Err(SearchError::InvalidTau(_))));
    assert!(outs[2].is_ok());
}

/// What a caller folding its own outcomes would compute.
#[derive(Debug, Default)]
struct Fold {
    totals: SearchStats,
    queries: u64,
    matches: u64,
    budget_exceeded: u64,
}

/// Drive one engine over the fixed request list — three query texts ×
/// two thresholds × SF and iNRA, plus one request a zero budget cuts
/// short — folding every outcome the way a caller would. `serve` returns
/// what it read off the engine's outcome type.
fn fold_requests(
    mut serve: impl FnMut(&str, f64, AlgorithmKind, Budget) -> (SearchStats, SearchStatus, usize),
) -> Fold {
    let mut fold = Fold::default();
    let mut take = |(stats, status, matches): (SearchStats, SearchStatus, usize)| {
        fold.totals.merge(&stats);
        fold.queries += 1;
        fold.matches += matches as u64;
        fold.budget_exceeded += u64::from(status == SearchStatus::BudgetExceeded);
    };
    for text in ["main street number 7", "maine st 3", "park avenue 41"] {
        for tau in [0.5, 0.9] {
            for kind in [AlgorithmKind::Sf, AlgorithmKind::INra] {
                take(serve(text, tau, kind, Budget::unlimited()));
            }
        }
    }
    let starved = Budget::unlimited().with_max_elements_read(0);
    take(serve("main street", 0.5, AlgorithmKind::Sf, starved));
    fold
}

fn assert_metrics_are_the_fold(engine: &str, fold: &Fold, metrics: &MetricsSnapshot) {
    for ((name, folded), recorded) in SearchStats::FIELDS
        .iter()
        .zip(fold.totals.as_array())
        .zip(metrics.totals.as_array())
    {
        assert_eq!(recorded, folded, "{engine}: totals.{name}");
    }
    assert_eq!(metrics.queries, fold.queries, "{engine}: queries");
    assert_eq!(metrics.matches, fold.matches, "{engine}: matches");
    assert_eq!(
        metrics.budget_exceeded, fold.budget_exceeded,
        "{engine}: budget_exceeded"
    );
    assert!(fold.matches > 0 && fold.budget_exceeded == 1, "{engine}");
}

/// `engine.metrics().totals` is the `SearchStats::merge` fold of the
/// outcomes the engine returned — every counter, on every engine.
#[test]
fn metrics_totals_equal_the_fold_of_outcome_stats_on_every_engine() {
    let texts = street_corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let collection = build(&refs);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let snap = std::env::temp_dir().join(format!("setsim-engeq-{}.snap", std::process::id()));
    index.save(&snap).expect("save snapshot");

    let mut heap = QueryEngine::new(index);
    let fold = fold_requests(|text, tau, kind, budget| {
        let q = heap.prepare_query_str(text);
        let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
        let out = heap.search(req.budget(budget)).expect("heap");
        (out.stats, out.status, out.results.len())
    });
    assert_metrics_are_the_fold("heap", &fold, &heap.metrics());

    let sharded =
        ShardedEngine::new(ShardedIndex::build(&collection, 8, IndexOptions::default()).unwrap());
    let fold = fold_requests(|text, tau, kind, budget| {
        let q = sharded.prepare_query_str(text);
        let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
        let out = sharded.search(&req.budget(budget)).expect("sharded");
        (out.stats, out.status, out.results.len())
    });
    assert!(fold.totals.shards_pruned > 0, "no band pruned a shard");
    assert!(fold.totals.shard_pruned_elements > 0);
    assert_metrics_are_the_fold("sharded", &fold, &sharded.metrics());

    let mut paged = QueryEngine::open_paged(&snap, 4).expect("open paged");
    let fold = fold_requests(|text, tau, kind, budget| {
        let q = paged.prepare_query_str(text);
        let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
        let out = paged.search(req.budget(budget)).expect("paged");
        (out.stats, out.status, out.results.len())
    });
    let _ = std::fs::remove_file(&snap);
    assert!(fold.totals.page_cache_misses > 0, "no page was faulted");
    assert_metrics_are_the_fold("paged", &fold, &paged.metrics());

    let mutable = MutableEngine::new(
        MutableIndex::from_collection(Box::new(build(&refs)), IndexOptions::default()).unwrap(),
    );
    mutable.insert("main street number 700");
    let fold = fold_requests(|text, tau, kind, budget| {
        let q = mutable.prepare_query_str(text);
        let req = MutableSearchRequest::new(&q).tau(tau).algorithm(kind);
        let out = mutable.search(&req.budget(budget)).expect("mutable");
        (out.stats, out.status, out.results.len())
    });
    assert!(fold.totals.records_scanned > 0, "the delta was not scanned");
    assert_metrics_are_the_fold("mutable", &fold, &mutable.metrics());
}
