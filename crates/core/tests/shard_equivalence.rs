//! Property-based equivalence suite for the length-banded sharded index.
//!
//! The invariant under test is the exactness contract of DESIGN.md §1, as
//! §16 applies it to sharding: for **any** corpus and **any** shard
//! count, a [`ShardedIndex`] must answer every selection query with the
//! *exact bits* the unsharded
//! [`InvertedIndex`] produces — same result ids, same `f64` score bits —
//! for all eight algorithms across a τ grid. The suite also drives the
//! degenerate band shapes (all records one length, fewer records than
//! shards, a single record) and the save → open round trip, and runs the
//! multi-threaded [`ShardedEngine`] scatter path against the sequential
//! one.

// Tests may build indexes directly (`clippy.toml` forbids it in the library).
#![allow(clippy::disallowed_methods)]

use setsim_core::engine::{execute, AlgorithmKind, Budget, Scratch, SearchRequest};
use setsim_core::{
    CollectionBuilder, IndexOptions, InvertedIndex, SetCollection, ShardedEngine, ShardedIndex,
};
use setsim_tokenize::QGramTokenizer;

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pool of record texts the corpus generator draws from. Mixed lengths
/// (short/medium/long) so the length histogram has real spread and band
/// boundaries land in interesting places; heavy q-gram sharing so
/// queries score near thresholds.
const POOL: [&str; 14] = [
    "main street",
    "main street north",
    "main st",
    "m",
    "park avenue",
    "park ave",
    "wall street",
    "wall street west annex building fourteen",
    "ocean drive",
    "ocean drive south extension",
    "harbor view road",
    "harbor view",
    "river walk lane by the old harbor view road",
    "river",
];

const QUERIES: [&str; 5] = [
    "main street",
    "park avenue",
    "harbor view road",
    "river walk",
    "zzqqxxjj",
];

const TAUS: [f64; 4] = [0.3, 0.5, 0.8, 0.95];

/// Shard counts covering the degenerate and awkward cases: trivial (1),
/// binary split, more shards than distinct lengths, and a prime count
/// larger than the record count for small corpora.
const SHARD_COUNTS: [usize; 4] = [1, 2, 8, 17];

fn collection(texts: &[&str]) -> SetCollection {
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for t in texts {
        b.add(t);
    }
    b.build()
}

/// Assert every algorithm on the sharded index returns the unsharded
/// scan's `(id, score bits)` set on every τ × query cell, and that the
/// merged stats keep the three-way access partition. Returns an error
/// string for prop_assert.
fn check_equivalence(
    sharded: &ShardedIndex,
    baseline: &InvertedIndex<'_>,
    label: &str,
) -> Result<(), String> {
    for &tau in &TAUS {
        for query in QUERIES {
            let bq = baseline.prepare_query_str(query);
            let sq = sharded.prepare_query_str(query);
            if bq.len.to_bits() != sq.len.to_bits() {
                return Err(format!(
                    "{label}: query prep drifted for {query:?}: len {} != {}",
                    bq.len, sq.len
                ));
            }
            let scan = SearchRequest::new(&bq)
                .tau(tau)
                .algorithm(AlgorithmKind::Scan);
            let want = execute(baseline, &mut Scratch::default(), &scan)
                .expect("baseline scan")
                .bits_sorted();
            for kind in AlgorithmKind::ALL {
                let req = SearchRequest::new(&sq).tau(tau).algorithm(kind);
                let out = sharded
                    .search(&req)
                    .map_err(|e| format!("{label}: {kind:?} τ={tau} q={query:?}: {e:?}"))?;
                let got = out.bits_sorted();
                if got != want {
                    return Err(format!(
                        "{label}: {kind:?} τ={tau} q={query:?}: {got:?} != baseline {want:?}"
                    ));
                }
                // The merged access partition must hold (debug-asserted
                // inside pruning_pct).
                let _ = out.stats.pruning_pct();
            }
        }
    }
    Ok(())
}

/// A process-unique scratch directory (same idiom as the storage crate's
/// manifest tests).
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("setsim-shard-eq-{tag}-{}-{n}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random corpora × shard counts {1, 2, 8, 17}: bit-identical to the
    /// unsharded index on all eight algorithms across the τ grid.
    #[test]
    fn sharded_matches_unsharded_bit_for_bit(
        picks in prop::collection::vec(0usize..POOL.len(), 0..20),
    ) {
        let texts: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();
        let c = collection(&texts);
        let baseline = InvertedIndex::build(&c, IndexOptions::default());
        for &n in &SHARD_COUNTS {
            let sharded = ShardedIndex::build(&c, n, IndexOptions::default())
                .expect("qgram tokenizer has a spec");
            prop_assert_eq!(sharded.num_records(), texts.len());
            prop_assert!(sharded.num_shards() <= n.max(1));
            let r = check_equivalence(&sharded, &baseline, &format!("shards={n}"));
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }

    /// Save → open round trip preserves bit-identity (the reopened index
    /// scores with the manifest's reconstructed global weight table).
    #[test]
    fn save_open_round_trip_is_bit_identical(
        picks in prop::collection::vec(0usize..POOL.len(), 1..12),
        n_idx in 0usize..SHARD_COUNTS.len(),
    ) {
        let n = SHARD_COUNTS[n_idx];
        let texts: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();
        let c = collection(&texts);
        let baseline = InvertedIndex::build(&c, IndexOptions::default());
        let sharded = ShardedIndex::build(&c, n, IndexOptions::default())
            .expect("qgram tokenizer has a spec");
        let dir = temp_dir("roundtrip");
        sharded.save(&dir).expect("save");
        prop_assert!(ShardedIndex::exists(&dir));
        let reopened = ShardedIndex::open(&dir).expect("open");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(reopened.num_shards(), sharded.num_shards());
        prop_assert_eq!(reopened.num_records(), sharded.num_records());
        let r = check_equivalence(&reopened, &baseline, &format!("reopened shards={n}"));
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// All records tokenize to the same length: every quantile cut collapses
/// and the whole corpus lives in one band, for any requested count.
#[test]
fn all_equal_lengths_collapse_to_one_band() {
    let texts = vec!["same text here"; 9];
    let c = collection(&texts);
    let baseline = InvertedIndex::build(&c, IndexOptions::default());
    for &n in &SHARD_COUNTS {
        let sharded = ShardedIndex::build(&c, n, IndexOptions::default()).expect("spec");
        assert_eq!(sharded.num_shards(), 1, "requested {n}");
        check_equivalence(&sharded, &baseline, "all-equal").expect("equivalence");
    }
}

/// A single record sharded seventeen ways: one single-record shard.
#[test]
fn single_record_corpus() {
    let c = collection(&["main street"]);
    let baseline = InvertedIndex::build(&c, IndexOptions::default());
    let sharded = ShardedIndex::build(&c, 17, IndexOptions::default()).expect("spec");
    assert_eq!(sharded.num_shards(), 1);
    check_equivalence(&sharded, &baseline, "single-record").expect("equivalence");
}

/// Empty corpus: one empty shard, every query answers cleanly, and the
/// directory round-trips.
#[test]
fn empty_corpus_round_trips() {
    let c = collection(&[]);
    let baseline = InvertedIndex::build(&c, IndexOptions::default());
    let sharded = ShardedIndex::build(&c, 8, IndexOptions::default()).expect("spec");
    assert_eq!(sharded.num_shards(), 1);
    check_equivalence(&sharded, &baseline, "empty").expect("equivalence");
    let dir = temp_dir("empty");
    sharded.save(&dir).expect("save");
    let reopened = ShardedIndex::open(&dir).expect("open");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(reopened.num_records(), 0);
    check_equivalence(&reopened, &baseline, "empty reopened").expect("equivalence");
}

/// [`ShardedEngine::search`] (inline) and the multi-threaded scatter path
/// return what the sequential [`ShardedIndex::search`] path does: the
/// same bits in the same order, the same stats and status, budgeted
/// requests included — worker count and steal order must not leak into
/// results (gather is slot-ordered) — and record pruned shards in their
/// metrics.
#[test]
fn engine_scatter_matches_sequential_search() {
    let texts: Vec<&str> = POOL.iter().copied().cycle().take(40).collect();
    let c = collection(&texts);
    let baseline = InvertedIndex::build(&c, IndexOptions::default());
    let sharded = ShardedIndex::build(&c, 8, IndexOptions::default()).expect("spec");
    assert!(sharded.num_shards() > 1);
    check_equivalence(&sharded, &baseline, "engine corpus").expect("sequential equivalence");

    let engine = ShardedEngine::new(ShardedIndex::build(&c, 8, IndexOptions::default()).unwrap());
    let mut saw_pruning = false;
    let in_order = |out: &setsim_core::SearchOutcome| -> Vec<(u32, u64)> {
        out.results
            .iter()
            .map(|m| (m.id.0, m.score.to_bits()))
            .collect()
    };
    for query in QUERIES {
        for &tau in &TAUS {
            let sq = engine.prepare_query_str(query);
            for budget in [
                Budget::unlimited(),
                Budget::default().with_max_elements_read(3),
            ] {
                let req = SearchRequest::new(&sq).tau(tau).budget(budget);
                let seq = sharded.search(&req).expect("sequential");
                // `None` is `search`, which runs inline.
                for threads in [None, Some(1), Some(2), Some(7)] {
                    let par = match threads {
                        None => engine.search(&req),
                        Some(n) => engine.search_with_threads(&req, n),
                    }
                    .expect("engine");
                    let ctx = format!("threads={threads:?} τ={tau} q={query:?} {budget:?}");
                    assert_eq!(in_order(&par), in_order(&seq), "{ctx}");
                    assert_eq!(par.stats, seq.stats, "{ctx}");
                    assert_eq!(par.status, seq.status, "{ctx}");
                    if par.stats.shards_pruned > 0 {
                        saw_pruning = true;
                    }
                }
            }
        }
    }
    assert!(saw_pruning, "no cell pruned a shard — bands too coarse?");
    let metrics = engine.metrics();
    assert!(metrics.queries > 0);
}
