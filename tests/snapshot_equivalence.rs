//! Differential snapshot-equivalence suite: an index loaded from a
//! snapshot must be indistinguishable from the index it was saved from.
//!
//! A generated corpus is indexed, saved, and reloaded cold; then every
//! one of the eight selection algorithms is run over a τ grid on both
//! engines, and the result sets, the reported scores (to the bit), and
//! the `SearchStatus` must match exactly (the exactness contract,
//! DESIGN.md §1). The snapshot layer recomputes
//! weights, skip lists, and hash indexes at load, so any nondeterminism
//! or decode drift shows up here as a query-visible diff.

mod common;

use common::run;
use setsim::core::{
    AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, PagedEngine,
    QueryEngine, SearchRequest, SearchStatus, SetCollection, SetId,
};
use setsim::datagen::{Corpus, CorpusConfig};
use setsim::tokenize::QGramTokenizer;
use std::path::PathBuf;

fn temp_snap(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "setsim-snapeq-{}-{tag}-{n}.snap",
        std::process::id()
    ))
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn corpus_collection() -> (Corpus, SetCollection) {
    let corpus = Corpus::generate(&CorpusConfig {
        num_records: 1_500,
        vocab_size: 700,
        words_per_record: (1, 4),
        word_len: (3, 12),
        zipf_s: 1.0,
        seed: 99,
    });
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    b.extend(corpus.records().iter().map(String::as_str));
    let collection = b.build();
    (corpus, collection)
}

/// `(id, score-bits)` fingerprint of an outcome, order-normalized.
fn fingerprint(
    engine: &QueryEngine<'_>,
    text: &str,
    tau: f64,
    kind: AlgorithmKind,
) -> (Vec<(SetId, u64)>, SearchStatus) {
    let q = engine.prepare_query_str(text);
    let out = run(engine.index(), kind, AlgoConfig::full(), &q, tau);
    (out.bits_sorted(), out.status)
}

/// Paged-engine fingerprint, additionally checking the access-partition
/// invariant (`read + skipped ≤ total`) and the page counters on every
/// single query.
fn fingerprint_paged(
    engine: &mut PagedEngine,
    text: &str,
    tau: f64,
    kind: AlgorithmKind,
) -> (Vec<(SetId, u64)>, SearchStatus) {
    let q = engine.prepare_query_str(text);
    let out = engine
        .search(SearchRequest::new(&q).tau(tau).algorithm(kind))
        .expect("valid request");
    assert!(
        out.stats.elements_read + out.stats.elements_skipped <= out.stats.total_list_elements,
        "paged access partition violated: {} tau={tau} query={text:?}",
        kind.name()
    );
    assert!(
        out.stats.pages_touched <= out.stats.page_cache_hits + out.stats.page_cache_misses,
        "distinct pages cannot exceed pool accesses"
    );
    if !q.is_empty() {
        assert!(
            out.stats.pages_touched > 0,
            "a non-empty paged query must fault at least one page"
        );
    }
    (out.bits_sorted(), out.status)
}

#[test]
fn all_eight_algorithms_agree_between_built_and_loaded_index() {
    let (corpus, collection) = corpus_collection();
    let built = InvertedIndex::build(&collection, IndexOptions::default());
    let t = TempFile(temp_snap("all8"));
    built.save(&t.0).expect("save");

    let built_engine = QueryEngine::new(built);
    let loaded_engine = QueryEngine::open(&t.0).expect("cold-start open");

    // Queries: records from the database (guaranteed hits), their
    // prefixes (partial overlap), and a miss.
    let mut queries: Vec<String> = corpus.records().iter().take(12).cloned().collect();
    queries.extend(
        corpus
            .records()
            .iter()
            .skip(40)
            .take(6)
            .map(|r| r.chars().take(r.chars().count().div_ceil(2)).collect()),
    );
    queries.push("zzz qqq xxyyzz".to_string());

    let mut nonempty = 0usize;
    for tau in [0.5, 0.75, 0.95] {
        for kind in AlgorithmKind::ALL {
            for text in &queries {
                let (b_ids, b_status) = fingerprint(&built_engine, text, tau, kind);
                let (l_ids, l_status) = fingerprint(&loaded_engine, text, tau, kind);
                assert_eq!(
                    b_ids,
                    l_ids,
                    "result set or scores diverge: {} tau={tau} query={text:?}",
                    kind.name()
                );
                assert_eq!(b_status, l_status, "{} tau={tau}", kind.name());
                nonempty += usize::from(!b_ids.is_empty());
            }
        }
    }
    assert!(
        nonempty > 0,
        "workload degenerate: every query returned empty on every algorithm"
    );
}

#[test]
fn loaded_collection_is_textually_identical() {
    let (_, collection) = corpus_collection();
    let built = InvertedIndex::build(&collection, IndexOptions::default());
    let t = TempFile(temp_snap("texts"));
    built.save(&t.0).expect("save");
    let loaded = InvertedIndex::load(&t.0).expect("load");
    assert_eq!(loaded.collection().len(), collection.len());
    for id in 0..collection.len() as u32 {
        let id = setsim::core::SetId(id);
        assert_eq!(loaded.collection().text(id), collection.text(id));
        assert_eq!(
            loaded.set_len(id).to_bits(),
            built.set_len(id).to_bits(),
            "normalized length drifted for {id:?}"
        );
    }
}

#[test]
fn empty_and_single_record_indexes_serve_after_reload() {
    for texts in [&[][..], &["main street"][..]] {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        let collection = b.build();
        let built = InvertedIndex::build(&collection, IndexOptions::default());
        let t = TempFile(temp_snap("degenerate"));
        built.save(&t.0).expect("save");
        let engine = QueryEngine::open(&t.0).expect("open");
        for kind in AlgorithmKind::ALL {
            let q = engine.prepare_query_str("main street");
            let out = run(engine.index(), kind, AlgoConfig::full(), &q, 0.5);
            assert_eq!(
                out.results.len(),
                usize::from(!texts.is_empty()),
                "{} over {} record(s)",
                kind.name(),
                texts.len()
            );
        }
    }
}

/// Per-representation round trips: under each forced (and the adaptive)
/// representation policy, a loaded index must carry the same per-list
/// representations as the one saved — inline lists go through their own
/// page encoding, bitmap lists are run blocks on disk and re-derived at
/// load — and answer every algorithm bit-identically.
#[test]
fn every_representation_policy_round_trips_bit_identically() {
    use setsim::collections::DenseBitmap;
    use setsim::core::{ReprKind, ReprPolicy};

    let (corpus, collection) = corpus_collection();
    let policies = [
        ("run", ReprPolicy::Force(ReprKind::Run)),
        ("inline", ReprPolicy::Force(ReprKind::Inline)),
        ("bitmap", ReprPolicy::Force(ReprKind::Bitmap)),
        ("adaptive", ReprPolicy::Adaptive),
    ];
    let queries: Vec<String> = corpus.records().iter().take(8).cloned().collect();

    for (name, policy) in policies {
        let options = IndexOptions::default().with_repr_policy(policy);
        let built = InvertedIndex::build(&collection, options);
        let t = TempFile(temp_snap(&format!("repr-{name}")));
        built.save(&t.0).expect("save");
        let loaded = InvertedIndex::load(&t.0).expect("load");

        // Structural agreement: same representation per token list.
        for tok in 0..collection.dict().len() as u32 {
            let tok = setsim::tokenize::Token(tok);
            match (built.list(tok), loaded.list(tok)) {
                (Some(b), Some(l)) => {
                    assert_eq!(
                        b.repr(),
                        l.repr(),
                        "policy {name}: representation drifted for token {}",
                        tok.0
                    );
                    assert_eq!(
                        b.bitmap().map(DenseBitmap::words),
                        l.bitmap().map(DenseBitmap::words),
                        "policy {name}: bitmap drifted for token {}",
                        tok.0
                    );
                }
                (None, None) => {}
                _ => panic!("policy {name}: token {} present on one side only", tok.0),
            }
        }

        let built_engine = QueryEngine::new(built);
        let loaded_engine = QueryEngine::open(&t.0).expect("open");
        for tau in [0.5, 0.8] {
            for kind in AlgorithmKind::ALL {
                for text in &queries {
                    let b = fingerprint(&built_engine, text, tau, kind);
                    let l = fingerprint(&loaded_engine, text, tau, kind);
                    assert_eq!(
                        b,
                        l,
                        "policy {name}: {} tau={tau} query={text:?}",
                        kind.name()
                    );
                }
            }
        }
    }
}

/// The tentpole guarantee of the paged engine: with a pool deliberately
/// far smaller than the snapshot (2 frames over a small-page file with
/// hundreds of pages), every one of the eight algorithms over the τ grid
/// answers bit-identically to the heap engine, while the pool keeps
/// residency bounded and every access obeys the stats partition.
#[test]
fn paged_engine_with_tiny_pool_matches_heap_engine() {
    let (corpus, collection) = corpus_collection();
    let built = InvertedIndex::build(&collection, IndexOptions::default());
    let t = TempFile(temp_snap("paged-tiny"));
    // Small pages force many of them, so a 2-frame pool is genuinely
    // smaller than both the file and any single query's window.
    built.save_with_page_size(&t.0, 256).expect("save");

    let heap = QueryEngine::open(&t.0).expect("heap open");
    let mut paged = QueryEngine::open_paged(&t.0, 2).expect("paged open");
    assert!(
        paged.num_pages() > 2,
        "workload degenerate: snapshot fits the pool"
    );

    let mut queries: Vec<String> = corpus.records().iter().take(10).cloned().collect();
    queries.extend(
        corpus
            .records()
            .iter()
            .skip(40)
            .take(4)
            .map(|r| r.chars().take(r.chars().count().div_ceil(2)).collect()),
    );
    queries.push("zzz qqq xxyyzz".to_string());

    let mut nonempty = 0usize;
    for tau in [0.5, 0.75, 0.95] {
        for kind in AlgorithmKind::ALL {
            for text in &queries {
                let h = fingerprint(&heap, text, tau, kind);
                let p = fingerprint_paged(&mut paged, text, tau, kind);
                assert_eq!(
                    h,
                    p,
                    "paged result diverges from heap: {} tau={tau} query={text:?}",
                    kind.name()
                );
                assert!(
                    paged.resident_pages() <= 2,
                    "pool residency exceeded its bound"
                );
                nonempty += usize::from(!h.0.is_empty());
            }
        }
    }
    assert!(nonempty > 0, "workload degenerate: all results empty");
}

/// The paged window prune must stay bit-identical across every
/// in-memory representation policy (inline lists stored as raw entries,
/// run and bitmap lists as run blocks) and across the legacy format.
#[test]
fn paged_engine_matches_heap_for_every_representation_policy_and_legacy() {
    use setsim::core::snapshot::{save_legacy_format, DEFAULT_PAGE_SIZE};
    use setsim::core::{ReprKind, ReprPolicy};

    let (corpus, collection) = corpus_collection();
    let queries: Vec<String> = corpus.records().iter().take(6).cloned().collect();

    let policies = [
        ("run", Some(ReprPolicy::Force(ReprKind::Run))),
        ("inline", Some(ReprPolicy::Force(ReprKind::Inline))),
        ("bitmap", Some(ReprPolicy::Force(ReprKind::Bitmap))),
        ("adaptive", Some(ReprPolicy::Adaptive)),
        ("legacy", None), // legacy on-disk format, default build options
    ];
    for (name, policy) in policies {
        let options = match policy {
            Some(p) => IndexOptions::default().with_repr_policy(p),
            None => IndexOptions::default(),
        };
        let built = InvertedIndex::build(&collection, options);
        let t = TempFile(temp_snap(&format!("paged-{name}")));
        match policy {
            Some(_) => built.save_with_page_size(&t.0, 512).expect("save"),
            None => save_legacy_format(&built, &t.0, DEFAULT_PAGE_SIZE).expect("legacy save"),
        }
        let heap = QueryEngine::open(&t.0).expect("heap open");
        let mut paged = QueryEngine::open_paged(&t.0, 2).expect("paged open");
        for tau in [0.5, 0.8] {
            for kind in AlgorithmKind::ALL {
                for text in &queries {
                    let h = fingerprint(&heap, text, tau, kind);
                    let p = fingerprint_paged(&mut paged, text, tau, kind);
                    assert_eq!(
                        h,
                        p,
                        "policy {name}: {} tau={tau} query={text:?}",
                        kind.name()
                    );
                }
            }
        }
    }
}

/// Dense lists are stored as `(len, id)` run blocks like every other
/// list, so the paged engine faults only the blocks of a query's
/// Theorem 1 window even where the heap index serves the list as a
/// bitmap: at a selective τ it decodes fewer postings and touches fewer
/// pages than the whole lists hold, and every algorithm still answers
/// exactly as the heap engine does.
#[test]
fn paged_dense_lists_fault_only_their_window() {
    use setsim::core::snapshot::verify;
    use setsim::core::{ReprKind, ReprPolicy};

    // One shared prefix, suffixes of growing length: the sets' lengths
    // spread far on both sides of the query's.
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for i in 0..120 {
        b.add(&format!("main street {}{i}", "ab".repeat(i % 12)));
    }
    let collection = b.build();
    let options = IndexOptions::default().with_repr_policy(ReprPolicy::Force(ReprKind::Bitmap));
    let built = InvertedIndex::build(&collection, options);
    let t = TempFile(temp_snap("dense-window"));
    // Pages of 64 bytes hold a few dozen postings: the shared-prefix
    // lists, which hold every set, span several blocks and pages.
    built.save_with_page_size(&t.0, 64).expect("save");
    assert!(
        verify(&t.0).expect("clean snapshot").min_pool_pages > 2,
        "workload degenerate: no list spans several pages"
    );
    let mut heap = QueryEngine::new(built);
    let mut paged = QueryEngine::open_paged(&t.0, 4).expect("paged open");

    let text = "main street 0";
    let tau = 0.9;
    for kind in AlgorithmKind::ALL {
        assert_eq!(
            fingerprint(&heap, text, tau, kind),
            fingerprint_paged(&mut paged, text, tau, kind),
            "{}",
            kind.name()
        );
    }
    let q = heap.prepare_query_str(text);
    let whole = heap
        .search(SearchRequest::new(&q).tau(tau))
        .expect("heap serves");
    assert!(!whole.results.is_empty(), "the probe query must match");
    let q = paged.prepare_query_str(text);
    // At a τ this low every block may reach the query: the windows are
    // the whole lists, and their pages the whole lists' page span.
    let all = paged
        .search(SearchRequest::new(&q).tau(1e-3))
        .expect("paged serves");
    assert_eq!(
        all.stats.total_list_elements,
        whole.stats.total_list_elements
    );
    let window = paged
        .search(SearchRequest::new(&q).tau(tau))
        .expect("paged serves");
    assert_eq!(window.bits_sorted(), whole.bits_sorted());
    assert!(
        window.stats.total_list_elements < whole.stats.total_list_elements,
        "dense windows hold {} postings, the whole lists {}",
        window.stats.total_list_elements,
        whole.stats.total_list_elements
    );
    assert!(
        window.stats.pages_touched < all.stats.pages_touched,
        "dense windows touch {} pages, the whole lists span {}",
        window.stats.pages_touched,
        all.stats.pages_touched
    );
}

/// A legacy-format snapshot — the byte layout produced before the
/// representation extension existed — must still load, decode every list
/// as a forced sorted run (pre-kernel in-memory structures, bit for
/// bit), and serve identical answers.
#[test]
fn legacy_format_snapshot_loads_as_forced_runs() {
    use setsim::core::snapshot::{save_legacy_format, DEFAULT_PAGE_SIZE};
    use setsim::core::ReprKind;

    let (corpus, collection) = corpus_collection();
    let built = InvertedIndex::build(&collection, IndexOptions::default());
    let t = TempFile(temp_snap("legacy"));
    save_legacy_format(&built, &t.0, DEFAULT_PAGE_SIZE).expect("legacy save");

    let loaded = InvertedIndex::load(&t.0).expect("legacy bytes must load");
    for tok in 0..collection.dict().len() as u32 {
        if let Some(list) = loaded.list(setsim::tokenize::Token(tok)) {
            assert_eq!(
                list.repr(),
                ReprKind::Run,
                "legacy snapshots predate the extension: every list is a run"
            );
        }
    }

    // Legacy bytes still serve the exact same answers (a run-forced
    // in-memory index is query-equivalent to any adaptive one).
    let adaptive_engine = QueryEngine::new(built);
    let legacy_engine = QueryEngine::open(&t.0).expect("open legacy");
    for text in corpus.records().iter().take(6) {
        for kind in AlgorithmKind::ALL {
            let (b_ids, _) = fingerprint(&adaptive_engine, text, 0.7, kind);
            let (l_ids, _) = fingerprint(&legacy_engine, text, 0.7, kind);
            assert_eq!(b_ids, l_ids, "{} on legacy bytes", kind.name());
        }
    }
}
