//! The serving layer returns exactly what the paper's contract demands.
//!
//! Every `AlgorithmKind` × `AlgoConfig` ablation, routed through
//! `QueryEngine::search`, must match the scan oracle bit for bit (the
//! exactness contract, DESIGN.md §1); scratch reuse must
//! leak nothing between queries; work-stealing batches must
//! come back in request order under adversarially skewed query costs; and
//! budgets must produce typed, sound partial outcomes — never panics.

mod common;

use common::run;
use setsim::core::algorithms::prefix::PrefixFilterIndex;
use setsim::core::algorithms::sql::SqlBaseline;
use setsim::core::algorithms::topk::topk_sf;
use setsim::core::tfsearch::{tf_scan, tf_sf, TfIndex};
use setsim::core::{
    AlgoConfig, AlgorithmKind, Budget, CollectionBuilder, IndexOptions, InvertedIndex, Match,
    MetricsSnapshot, MutableEngine, MutableIndex, PreparedQuery, QueryEngine, ReprKind, ReprPolicy,
    Scratch, SearchError, SearchOutcome, SearchRequest, SearchStats, SearchStatus, SetCollection,
    SetId, ShardedEngine, ShardedIndex,
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
            // a true match with its exact score bits.
            let want = oracle.bits_sorted();
            for row in out.bits_sorted() {
                assert!(
                    want.contains(&row),
                    "{} cap={cap}: reported {row:?}, which the oracle does not",
                    kind.name()
                );
            }
            if out.status == SearchStatus::Complete {
                assert_eq!(out.bits_sorted(), want);
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
    let q = index.prepare_query_str("main street");
    let tf_index = TfIndex::build(&collection);
    let tf_q = tf_index.prepare_query_str("main street");
    let sql = SqlBaseline::build(&collection, index.weights());
    let filter = PrefixFilterIndex::build(&index, 0.5).expect("valid tau_min");
    let mut engine = QueryEngine::new(InvertedIndex::build(&collection, IndexOptions::default()));
    // Every public entry point that takes a raw τ.
    for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        for (what, got) in [
            (
                "engine",
                engine.search(SearchRequest::new(&q).tau(bad)).map(drop),
            ),
            ("tf_scan", tf_scan(&tf_index, &tf_q, bad).map(drop)),
            ("tf_sf", tf_sf(&tf_index, &tf_q, bad).map(drop)),
            ("SQL", sql.search(&q, bad).map(drop)),
            (
                "prefix build",
                PrefixFilterIndex::build(&index, bad).map(drop),
            ),
            ("prefix search", filter.search(&index, &q, bad).map(drop)),
            ("topk_sf", topk_sf(&index, &q, 3, bad).map(drop)),
        ] {
            let refused =
                matches!(got, Err(SearchError::InvalidTau(t)) if t.to_bits() == bad.to_bits());
            assert!(refused, "{what} at tau={bad}: {got:?}");
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
        let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
        let out = mutable.search(&req.budget(budget)).expect("mutable");
        (out.stats, out.status, out.results.len())
    });
    assert!(fold.totals.records_scanned > 0, "the delta was not scanned");
    assert_metrics_are_the_fold("mutable", &fold, &mutable.metrics());
}

/// The largest τ ≤ 1 at which the scan still returns `id` for `q`: the
/// pass rule's own edge for that set's score `s`, found by bisecting the
/// bits of `[s, s·(1 + 1e-9)]`.
fn pass_edge(index: &InvertedIndex<'_>, q: &PreparedQuery, id: SetId, s: f64) -> f64 {
    let keeps = |tau: f64| {
        let out = run(index, AlgorithmKind::Scan, AlgoConfig::full(), q, tau);
        out.results.iter().any(|m| m.id == id)
    };
    let (mut lo, mut hi) = (s.to_bits(), (s * (1.0 + 1e-9)).min(1.0).to_bits());
    if keeps(f64::from_bits(hi)) {
        return f64::from_bits(hi);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if keeps(f64::from_bits(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

/// The exactness contract (DESIGN.md §1) at its knife edge. Thresholds
/// are set to the bits of real canonical scores, to the pass rule's own
/// edge for each such score, and to the floats either side of both;
/// exact-duplicate records are queried at τ = 1. At every such
/// τ, all eight algorithms (through `QueryEngine::search`, under every
/// `AlgoConfig` ablation) and the SQL baseline, under the adaptive and
/// the forced-run representation policies, through the heap, sharded (1
/// and 8 bands), paged (pool of 2 pages) and pristine mutable engines,
/// return the scan's `(id, score bits)` set.
#[test]
fn thresholds_on_actual_scores_get_one_answer_from_every_leg() {
    let texts = street_corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let collection = build(&refs);
    let oracle = InvertedIndex::build(&collection, IndexOptions::default());
    let scan = |text: &str, tau: f64| {
        let q = oracle.prepare_query_str(text);
        run(&oracle, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau)
    };
    let next = |x: f64, step: i64| f64::from_bits(x.to_bits().wrapping_add_signed(step));
    let mut cells = vec![("xyzzy", 0.35)];
    for text in ["main street", "park avenue 41", "mane stret"] {
        let mut scored = scan(text, f64::MIN_POSITIVE).results;
        scored.sort_by(|a, b| a.score.total_cmp(&b.score));
        for frac in [0.5, 0.9, 1.0] {
            let m = scored[((scored.len() - 1) as f64 * frac) as usize];
            let edge = pass_edge(&oracle, &oracle.prepare_query_str(text), m.id, m.score);
            for t in [m.score, edge] {
                let taus = [next(t, -1), t, next(t, 1)];
                cells.extend(
                    taus.into_iter()
                        .filter(|&tau| tau <= 1.0)
                        .map(|tau| (text, tau)),
                );
            }
        }
    }
    for text in ["maine st 0", "maine st 3", "maine st 6"] {
        assert!(scan(text, 1.0).results.len() > 1, "{text:?} has duplicates");
        cells.push((text, 1.0));
    }

    let configs = [
        AlgoConfig::full(),
        AlgoConfig::no_length_bounding(),
        AlgoConfig::no_skip_lists(),
    ];
    for policy in [ReprPolicy::Adaptive, ReprPolicy::Force(ReprKind::Run)] {
        let opts = IndexOptions::default().with_repr_policy(policy);
        let heap = InvertedIndex::build(&collection, opts.clone());
        let sql = SqlBaseline::build(&collection, heap.weights());
        let sharded = [1, 8].map(|n| ShardedIndex::build(&collection, n, opts.clone()).unwrap());
        let snap = std::env::temp_dir().join(format!("setsim-edge-{}.snap", std::process::id()));
        heap.save(&snap).expect("save snapshot");
        let mut paged = QueryEngine::open_paged(&snap, 2).expect("open paged");
        let _ = std::fs::remove_file(&snap);
        let mut engine = QueryEngine::new(heap);
        let mutable = MutableIndex::from_collection(Box::new(build(&refs)), opts).unwrap();
        for &(text, tau) in &cells {
            let want = scan(text, tau).bits_sorted();
            let check = |leg: &str, got: SearchOutcome| {
                assert_eq!(got.status, SearchStatus::Complete);
                assert_eq!(
                    got.bits_sorted(),
                    want,
                    "{leg} under {policy:?}, q={text:?}, tau={tau:e}"
                );
            };
            let q = engine.prepare_query_str(text);
            check("SQL", sql.search(&q, tau).expect("valid tau"));
            let mq = mutable.prepare_query_str(text);
            for kind in AlgorithmKind::ALL {
                let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
                for cfg in configs {
                    check(kind.name(), engine.search(req.config(cfg)).expect("heap"));
                }
                for index in &sharded {
                    check("sharded", index.search(&req).expect("sharded"));
                }
                check("paged", paged.search(req).expect("paged"));
                let mreq = SearchRequest::new(&mq).tau(tau).algorithm(kind);
                let out = mutable
                    .search(&mut Scratch::default(), &mreq)
                    .expect("mutable");
                let results = out.results.iter().map(|m| Match {
                    id: SetId(m.record.0 as u32),
                    score: m.score,
                });
                check(
                    "pristine mutable",
                    SearchOutcome::complete(results.collect(), out.stats),
                );
            }
        }
    }
}
