//! Zero-allocation guarantee of the warm-scratch serving path.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! pass, repeated `QueryEngine::search_view` calls for iNRA, SF, and
//! Hybrid (the paper's recommended algorithms) must perform **zero** heap
//! allocations — the whole point of the engine's reusable `Scratch`.

use setsim::core::{
    AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, QueryEngine, SearchRequest,
    SetCollection,
};
use setsim::tokenize::QGramTokenizer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation; frees are not counted (a
/// steady-state query must not free either, but allocation is the signal).
struct CountingAlloc;

thread_local! {
    /// Per-thread, so libtest's parallel sibling test (its own thread)
    /// cannot pollute a measurement. Const-initialised and `Drop`-free:
    /// reading it from inside the allocator neither allocates nor can
    /// observe a torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn corpus() -> SetCollection {
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for i in 0..400 {
        b.add(&format!("main street number {i}"));
        b.add(&format!("park avenue {}", i % 40));
        b.add(&format!("madison square garden {i}"));
    }
    b.build()
}

#[test]
fn warm_scratch_queries_allocate_nothing_for_inra_sf_hybrid() {
    let collection = corpus();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    let queries = [
        engine.prepare_query_str("main street number 17"),
        engine.prepare_query_str("park avenue 3"),
        engine.prepare_query_str("madison square gardens"),
    ];
    for kind in [
        AlgorithmKind::INra,
        AlgorithmKind::Sf,
        AlgorithmKind::Hybrid,
    ] {
        // Warm-up: let the scratch grow to each query's high-water mark.
        for q in &queries {
            for tau in [0.4, 0.7] {
                let view = engine
                    .search_view(SearchRequest::new(q).tau(tau).algorithm(kind))
                    .expect("valid request");
                assert!(view.status.is_complete());
            }
        }
        // Measured: the same workload on the warm scratch, many times.
        let before = allocations();
        let mut total_matches = 0usize;
        for _ in 0..20 {
            for q in &queries {
                for tau in [0.4, 0.7] {
                    let view = engine
                        .search_view(SearchRequest::new(q).tau(tau).algorithm(kind))
                        .expect("valid request");
                    total_matches += view.results.len();
                }
            }
        }
        let delta = allocations() - before;
        assert!(total_matches > 0, "workload must actually match something");
        assert_eq!(
            delta,
            0,
            "{}: {delta} heap allocations on a warm scratch",
            kind.name()
        );
    }
}

#[test]
fn owned_outcome_path_allocates_at_most_the_result_move() {
    // `search` (the owning path) moves results out of the scratch: that is
    // a bounded handful of allocations per query (the moved-out buffers),
    // not per-candidate or per-element growth.
    let collection = corpus();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    let q = engine.prepare_query_str("main street number 17");
    for _ in 0..3 {
        let _ = engine
            .search(SearchRequest::new(&q).tau(0.7))
            .expect("valid request");
    }
    let before = allocations();
    let runs = 50u64;
    for _ in 0..runs {
        let out = engine
            .search(SearchRequest::new(&q).tau(0.7))
            .expect("valid request");
        assert!(!out.results.is_empty());
    }
    let delta = allocations() - before;
    assert!(
        delta <= 2 * runs,
        "owning path should cost O(1) allocations per query, measured {delta} over {runs}"
    );
}

/// The paged engine's SF path on a warm engine — pool large enough to
/// hold the snapshot, window and block buffers grown by a warm-up pass —
/// allocates no more than the heap engine's owning path does on the same
/// requests: the result move. Blocks decode into one reused buffer, and no
/// list is assembled. The `audit` feature re-derives every paged SF answer
/// through the allocating eager path, so the bound holds only without it.
#[cfg(not(feature = "audit"))]
#[test]
fn warm_paged_sf_queries_allocate_at_most_the_result_move() {
    let collection = corpus();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let path = std::env::temp_dir().join(format!("setsim-alloc-{}.snap", std::process::id()));
    index.save(&path).expect("save snapshot");
    let mut paged = QueryEngine::open_paged(&path, usize::MAX).expect("open paged");
    let _ = std::fs::remove_file(&path);
    let mut heap = QueryEngine::new(index);
    let texts = [
        "main street number 17",
        "park avenue 3",
        "madison square gardens",
    ];
    let queries = texts.map(|t| paged.prepare_query_str(t));
    // Warm-up, then allocations over 20 passes of every request.
    let measure = |search: &mut dyn FnMut(SearchRequest<'_>) -> usize| {
        let mut pass = || {
            let mut matches = 0usize;
            for q in &queries {
                for tau in [0.4, 0.7] {
                    matches += search(SearchRequest::new(q).tau(tau));
                }
            }
            matches
        };
        pass();
        let before = allocations();
        let matches: usize = (0..20).map(|_| pass()).sum();
        (allocations() - before, matches)
    };
    let (paged_allocs, paged_matches) =
        measure(&mut |req| paged.search(req).expect("valid request").results.len());
    let (heap_allocs, heap_matches) =
        measure(&mut |req| heap.search(req).expect("valid request").results.len());
    assert!(paged_matches > 0, "workload must actually match something");
    assert_eq!(paged_matches, heap_matches);
    assert!(
        paged_allocs <= heap_allocs,
        "paged SF allocated {paged_allocs} times where the heap engine's owning path \
         allocated {heap_allocs}"
    );
}
