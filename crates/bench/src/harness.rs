//! The reproduction-grade benchmark harness behind `setsim-bench harness`.
//!
//! [`run`] executes a fixed grid of deterministic seeded workloads
//! (corpus and queries both derive from one master seed through
//! `setsim-datagen` / `setsim-prng`) through the [`Engines`] execution
//! path — every roster algorithm, explicit warmup passes, min-of-k wall
//! clock with median/MAD — and returns a [`BenchReport`] ready to write
//! as `BENCH_<label>.json`.
//!
//! Determinism contract: everything except the `latency` sections and
//! the `env` fingerprint is a pure function of
//! ([`HarnessConfig::scale`], [`HarnessConfig::seed`], the workload
//! grid). `BenchReport::counters_json` extracts exactly that slice;
//! `cargo xtask bench-diff` fails on *any* counter drift and only
//! prints latency drift. See EXPERIMENTS.md
//! "Methodology".

use crate::report::{
    measure_workload, AlgoReport, BenchReport, CounterSection, EnvFingerprint, LatencySection,
    Passes, WorkloadReport, SCHEMA_VERSION,
};
use crate::{
    prepare_queries, word_collection_seeded, workload, Algo, Engines, Scale, TempSnapshot,
};
use setsim_core::{
    AlgoConfig, AlgorithmKind, CollectionBuilder, DriftBudget, IndexOptions, InvertedIndex,
    MutableIndex, PreparedQuery, QueryEngine, RecordId, ReprKind, ReprPolicy, Scratch,
    SearchRequest, SearchStats, SetCollection, ShardedEngine, ShardedIndex,
};
use setsim_datagen::{Corpus, LengthBucket};
use setsim_tokenize::QGramTokenizer;
use std::path::Path;
use std::time::Instant;

/// Harness parameters. `scale` and `seed` select the deterministic
/// workload; the rest control measurement quality and labeling.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Corpus scale (drives record count and vocabulary size).
    pub scale: Scale,
    /// Master seed: corpus generation and every workload derive from it.
    pub seed: u64,
    /// Queries per workload (defaults per scale via [`HarnessConfig::new`]).
    pub queries: usize,
    /// Untimed passes per (workload, algorithm) before measurement.
    pub warmup: usize,
    /// Timed passes per (workload, algorithm); min/median/MAD reduce them.
    pub reps: usize,
    /// Report label — the file becomes `BENCH_<label>.json`.
    pub label: String,
}

impl HarnessConfig {
    /// Defaults for a scale: 1 warmup pass, 3 timed reps, and a query
    /// count sized so the harness stays in CI-friendly territory.
    #[must_use]
    pub fn new(scale: Scale, seed: u64) -> Self {
        let queries = match scale {
            Scale::Small => 50,
            Scale::Medium => 100,
            Scale::Large => 100,
        };
        Self {
            scale,
            seed,
            queries,
            warmup: 1,
            reps: 3,
            label: Scale::name(scale).to_string(),
        }
    }
}

/// The harness workload grid: three regimes that jointly exercise every
/// pruning mechanism (threshold pruning, length bounding, dirty-query
/// candidate management). Kept deliberately small and *stable*: the grid
/// is part of the schema — changing a row invalidates stored baselines,
/// so additions append new labels rather than altering existing ones.
const GRID: [GridRow; 3] = [
    // Selective regime: high τ on the paper's 11–15 gram bucket.
    GridRow {
        label: "tau=0.8 11-15g 0mods",
        bucket_idx: 2,
        tau: 0.8,
        modifications: 0,
    },
    // Permissive regime: low τ widens candidate sets.
    GridRow {
        label: "tau=0.6 11-15g 0mods",
        bucket_idx: 2,
        tau: 0.6,
        modifications: 0,
    },
    // Dirty regime: shorter queries with one edit each.
    GridRow {
        label: "tau=0.7 6-10g 1mod",
        bucket_idx: 1,
        tau: 0.7,
        modifications: 1,
    },
];

struct GridRow {
    label: &'static str,
    bucket_idx: usize,
    tau: f64,
    modifications: usize,
}

/// Run the full harness: build the seeded corpus and index once, then
/// measure every [`Algo`] on every grid workload.
#[must_use]
pub fn run(config: &HarnessConfig) -> BenchReport {
    let (corpus, collection) = word_collection_seeded(config.scale, config.seed);
    let engines = Engines::build(&collection);
    let mut workloads = Vec::with_capacity(GRID.len());
    for (i, row) in GRID.iter().enumerate() {
        let wl = workload(
            &corpus,
            LengthBucket::PAPER[row.bucket_idx],
            row.modifications,
            config.queries,
            // Distinct per-row streams derived from the master seed.
            config.seed ^ (0x9e37_79b9 + i as u64),
        );
        let queries = prepare_queries(&engines.index, &wl);
        workloads.push(measure_workload(
            &engines,
            &Algo::ALL,
            AlgoConfig::default(),
            &queries,
            row.tau,
            row.label,
            Passes {
                warmup: config.warmup,
                reps: config.reps,
            },
        ));
    }
    workloads.push(measure_mixed_workload(&corpus, config));
    workloads.push(measure_dense_workload(&corpus, config));
    workloads.push(measure_sharded_workload(&corpus, &collection, config));
    workloads.extend(measure_paged_workloads(&corpus, &collection, config));
    BenchReport {
        schema_version: SCHEMA_VERSION,
        label: config.label.clone(),
        scale: Scale::name(config.scale).to_string(),
        seed: config.seed,
        warmup: config.warmup as u64,
        reps: config.reps as u64,
        env: EnvFingerprint::capture(),
        workloads,
    }
}

/// Label of the mixed read/write cell (appended after the static grid).
pub const MIXED_LABEL: &str = "tau=0.7 6-10g mixed-rw";

/// Base records of the mixed cell (a corpus prefix — capped so each
/// timed pass can rebuild its index from scratch in CI time).
const MIXED_BASE: usize = 1024;
/// Held-out records that feed the insert/upsert stream.
const MIXED_INSERT_POOL: usize = 64;

/// Measure the seeded mixed read/write cell: every third step mutates a
/// [`MutableIndex`] (rotating insert / delete / upsert over a held-out
/// record pool), every step serves one query through the delta/base
/// search path, and the index compacts once at the schedule midpoint.
/// Each timed pass replays the identical schedule against a fresh index,
/// so the counter section stays a pure function of (scale, seed, grid)
/// like every static cell. The roster is the inverted-list subset — the
/// relational baseline has no mutable path.
fn measure_mixed_workload(corpus: &Corpus, config: &HarnessConfig) -> WorkloadReport {
    let tau = 0.7;
    let texts: Vec<&str> = corpus
        .words()
        .take(MIXED_BASE + MIXED_INSERT_POOL)
        .collect();
    let split = texts.len().saturating_sub(MIXED_INSERT_POOL);
    let (base, inserts) = texts.split_at(split);
    let wl = workload(
        corpus,
        LengthBucket::PAPER[1],
        1,
        config.queries,
        config.seed ^ 0x6d69_7865_645f_7277, // distinct stream for this cell
    );
    let queries = wl.queries();
    let (warmup, reps) = (config.warmup, config.reps.max(1));
    let mut algos = Vec::new();
    for algo in Algo::ALL {
        let Some(kind) = algo.kind() else {
            continue;
        };
        for _ in 0..warmup {
            mixed_pass(base, inserts, queries, kind, tau);
        }
        let mut samples = Vec::with_capacity(reps);
        let mut stats = SearchStats::default();
        let mut matches = 0u64;
        for _ in 0..reps {
            let (pass_stats, pass_matches, ms_per_query) =
                mixed_pass(base, inserts, queries, kind, tau);
            stats = pass_stats;
            matches = pass_matches;
            samples.push(ms_per_query);
        }
        algos.push(AlgoReport {
            name: algo.name().to_string(),
            counters: CounterSection::from_stats(&stats, queries.len() as u64, matches),
            latency: LatencySection::from_samples(&samples),
        });
    }
    WorkloadReport {
        label: MIXED_LABEL.to_string(),
        tau,
        queries: queries.len() as u64,
        algos,
    }
}

/// One pass of the mixed schedule: fresh index (untimed), then the timed
/// interleave of mutations, the midpoint compaction, and every query.
fn mixed_pass(
    base: &[&str],
    inserts: &[&str],
    queries: &[String],
    kind: AlgorithmKind,
    tau: f64,
) -> (SearchStats, u64, f64) {
    let mut builder = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for t in base {
        builder.add(t);
    }
    let mut mi = MutableIndex::from_collection(Box::new(builder.build()), IndexOptions::default())
        .expect("q-gram tokenizer has a serializable spec")
        // One explicit compaction at the midpoint; auto-triggers would
        // couple the schedule to the budget defaults.
        .with_budget(DriftBudget {
            max_rel_err: f64::INFINITY,
            max_delta_records: usize::MAX,
        });
    let mut scratch = Scratch::default();
    let mut stats = SearchStats::default();
    let mut matches = 0u64;
    let mut insert_ptr = 0usize;
    // Deletes walk base ids from the front, upserts from the back: the
    // streams never collide at this schedule length, so every mutation
    // hits a live record and the schedule is identical across passes.
    let mut delete_next = 0u64;
    let mut upsert_next = base.len() as u64 - 1;
    let start = Instant::now();
    for (j, text) in queries.iter().enumerate() {
        if j % 3 == 1 {
            match (j / 3) % 3 {
                0 => {
                    mi.insert(inserts[insert_ptr % inserts.len()]);
                    insert_ptr += 1;
                }
                1 => {
                    mi.delete(RecordId(delete_next));
                    delete_next += 1;
                }
                _ => {
                    mi.upsert(RecordId(upsert_next), inserts[insert_ptr % inserts.len()]);
                    insert_ptr += 1;
                    upsert_next -= 1;
                }
            }
        }
        if j == queries.len() / 2 {
            mi.compact();
        }
        let q = mi.prepare_query_str(text);
        let req = SearchRequest::new(&q).tau(tau).algorithm(kind);
        let out = mi.search(&mut scratch, &req).expect("mixed-cell search");
        matches += out.results.len() as u64;
        stats.merge(&out.stats);
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    (stats, matches, elapsed_ms / queries.len().max(1) as f64)
}

/// Label of the dense-token cell (appended after the mixed cell).
pub const DENSE_LABEL: &str = "tau=0.8 dense adaptive-vs-run";

/// Records in the dense cell's corpus (every one shares a long core, so
/// the core's gram lists hold every record — the bitmap regime).
const DENSE_RECORDS: usize = 1_024;
/// Roster of the dense cell: the algorithms whose in-window pruning the
/// block-max layer accelerates. Hybrid is absent deliberately — its
/// resting-list rule already stops before the postings a block-max seek
/// would bypass, so its counters are identical across the variants.
const DENSE_ROSTER: [Algo; 2] = [Algo::Sf, Algo::INra];

/// Measure the dense-token cell: the same corpus-derived workload runs
/// against two indexes over one dense collection — the adaptive
/// representation policy with block skipping (the kernel path) and the
/// pre-kernel configuration (every list a sorted run, block skipping
/// off, length seeks through the fence keys still on). Both variants of
/// each algorithm report side by side, so `bench-diff` gates the
/// representation machinery's counter win (fewer `elements_read`, more
/// `elements_skipped`) exactly like any other deterministic counter.
fn measure_dense_workload(corpus: &Corpus, config: &HarnessConfig) -> WorkloadReport {
    let tau = 0.8;
    let texts: Vec<String> = corpus
        .words()
        .take(DENSE_RECORDS)
        .map(|w| format!("sharedcore {w}"))
        .collect();
    let mut builder = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for t in &texts {
        builder.add(t);
    }
    let collection = builder.build();
    let adaptive = Engines::build(&collection);
    let run_only = Engines::build_with(
        &collection,
        IndexOptions::default().with_repr_policy(ReprPolicy::Force(ReprKind::Run)),
    );
    debug_assert!(
        adaptive
            .index
            .list(collection.dict().get("har").expect("core gram interned"))
            .is_some_and(|l| l.repr() == ReprKind::Bitmap),
        "dense cell's core grams must adapt to bitmaps"
    );

    // Queries sample the records evenly — every one hits the dense core.
    let n = config.queries.max(1);
    let stride = (texts.len() / n).max(1);
    let query_texts: Vec<&String> = texts.iter().step_by(stride).take(n).collect();

    let (warmup, reps) = (config.warmup, config.reps.max(1));
    let mut algos = Vec::new();
    let variants: [(&str, &Engines<'_>, AlgoConfig); 2] = [
        ("", &adaptive, AlgoConfig::default()),
        (" run-noskip", &run_only, AlgoConfig::no_block_skip()),
    ];
    for (suffix, engines, cfg) in variants {
        let queries: Vec<PreparedQuery> = query_texts
            .iter()
            .map(|s| engines.index.prepare_query_str(s))
            .collect();
        for algo in DENSE_ROSTER {
            for _ in 0..warmup {
                dense_pass(engines, algo, cfg, &queries, tau);
            }
            let mut samples = Vec::with_capacity(reps);
            let mut stats = SearchStats::default();
            let mut matches = 0u64;
            for _ in 0..reps {
                let start = Instant::now();
                let (pass_stats, pass_matches) = dense_pass(engines, algo, cfg, &queries, tau);
                let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
                stats = pass_stats;
                matches = pass_matches;
                samples.push(elapsed_ms / queries.len().max(1) as f64);
            }
            algos.push(AlgoReport {
                name: format!("{}{suffix}", algo.name()),
                counters: CounterSection::from_stats(&stats, queries.len() as u64, matches),
                latency: LatencySection::from_samples(&samples),
            });
        }
    }
    WorkloadReport {
        label: DENSE_LABEL.to_string(),
        tau,
        queries: query_texts.len() as u64,
        algos,
    }
}

/// Label of the sharded scatter-gather cell (appended after the dense
/// cell).
pub const SHARDED_LABEL: &str = "tau=0.8 11-15g sharded-8";

/// Shard count of the sharded cell — enough bands that Theorem 1's
/// window visibly prunes whole shards at τ = 0.8.
const SHARDED_SHARDS: usize = 8;

/// Measure the sharded scatter-gather cell: the harness corpus behind a
/// [`ShardedIndex`] with [`SHARDED_SHARDS`] length bands, every query
/// served through the [`ShardedEngine`]. The per-shard
/// gather merges stats in deterministic plan order, so the counters —
/// including the new `shards_pruned` / `shard_pruned_elements` — stay a
/// pure function of (scale, seed, grid) and `bench-diff` gates the
/// band-pruning machinery like any other cell.
fn measure_sharded_workload(
    corpus: &Corpus,
    collection: &SetCollection,
    config: &HarnessConfig,
) -> WorkloadReport {
    let tau = 0.8;
    let index = ShardedIndex::build(collection, SHARDED_SHARDS, IndexOptions::default())
        .expect("q-gram tokenizer has a serializable spec");
    let engine = ShardedEngine::new(index);
    let wl = workload(
        corpus,
        LengthBucket::PAPER[2],
        0,
        config.queries,
        config.seed ^ 0x0073_6361_7474_6572, // "scatter": distinct stream
    );
    let queries: Vec<PreparedQuery> = wl
        .queries()
        .iter()
        .map(|s| engine.prepare_query_str(s))
        .collect();
    let (warmup, reps) = (config.warmup, config.reps.max(1));
    let mut algos = Vec::new();
    for algo in Algo::LISTS_ONLY {
        let Some(kind) = algo.kind() else {
            continue;
        };
        for _ in 0..warmup {
            sharded_pass(&engine, kind, &queries, tau);
        }
        let mut samples = Vec::with_capacity(reps);
        let mut stats = SearchStats::default();
        let mut matches = 0u64;
        for _ in 0..reps {
            let start = Instant::now();
            let (pass_stats, pass_matches) = sharded_pass(&engine, kind, &queries, tau);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            stats = pass_stats;
            matches = pass_matches;
            samples.push(elapsed_ms / queries.len().max(1) as f64);
        }
        algos.push(AlgoReport {
            name: algo.name().to_string(),
            counters: CounterSection::from_stats(&stats, queries.len() as u64, matches),
            latency: LatencySection::from_samples(&samples),
        });
    }
    WorkloadReport {
        label: SHARDED_LABEL.to_string(),
        tau,
        queries: queries.len() as u64,
        algos,
    }
}

/// Label of the demand-paged serving cell (appended after the sharded
/// cell).
pub const PAGED_LABEL: &str = "tau=0.8 11-15g paged-pool";

/// Pool sizes of the paged sweep, as percentages of the snapshot's page
/// count. 10% forces eviction pressure, 100% makes every re-fault a hit.
const PAGED_POOL_PCTS: [u64; 3] = [10, 50, 100];

/// Label of the small-page paged cell (appended after the paged cell).
pub const PAGED_SMALL_LABEL: &str = "tau=0.8 11-15g paged-pool 128B-pages";

/// Page size of the small-page paged cell, as small as the paged engine's
/// own tests use. At the default 4 KiB every window of the small scale is
/// one block; at 128 bytes a window spans several, so the page counters
/// see which blocks SF reads and which it seeks past.
const SMALL_PAGE_SIZE: usize = 128;

/// Measure the demand-paged serving cells: the harness index persisted as
/// a snapshot with default pages ([`PAGED_LABEL`]) and with
/// [`SMALL_PAGE_SIZE`]-byte pages ([`PAGED_SMALL_LABEL`]), each served
/// through [`QueryEngine::open_paged`] on the same queries at three pool
/// sizes — 10%, 50%, and 100% of the snapshot's page count. Every timed
/// pass opens a fresh engine (cold pool), so the page-fault counters —
/// `pages_touched`, `page_cache_hits`, `page_cache_misses` — are a pure
/// function of (scale, seed, grid) like every other cell and `bench-diff`
/// gates the windowing/eviction machinery on counter drift.
fn measure_paged_workloads(
    corpus: &Corpus,
    collection: &SetCollection,
    config: &HarnessConfig,
) -> [WorkloadReport; 2] {
    let index = InvertedIndex::build(collection, IndexOptions::default());
    let tag = format!("harness-paged-{}", config.seed);
    let snap = TempSnapshot::save(&index, &tag).expect("paged-cell snapshot save");
    let small = TempSnapshot::save_with_page_size(&index, &tag, SMALL_PAGE_SIZE)
        .expect("small-page snapshot save");
    drop(index);
    let wl = workload(
        corpus,
        LengthBucket::PAPER[2],
        0,
        config.queries,
        config.seed ^ 0x0070_6167_6564, // "paged": distinct stream
    );
    let queries = wl.queries();
    let pages = setsim_core::snapshot::verify(snap.path())
        .expect("fresh snapshot verifies")
        .pages;
    // The same index, so `verify` above vouches for it; this cell only
    // needs its page count.
    let small_pages = setsim_storage::SnapshotReader::open(small.path())
        .expect("small-page snapshot opens")
        .num_pages();
    [
        measure_paged_cell(PAGED_LABEL, snap.path(), pages, queries, config),
        measure_paged_cell(
            PAGED_SMALL_LABEL,
            small.path(),
            small_pages,
            queries,
            config,
        ),
    ]
}

/// One paged cell: SF over the `pages`-page snapshot at `path` at every
/// pool size of [`PAGED_POOL_PCTS`].
fn measure_paged_cell(
    label: &str,
    path: &Path,
    pages: u64,
    queries: &[String],
    config: &HarnessConfig,
) -> WorkloadReport {
    let tau = 0.8;
    let (warmup, reps) = (config.warmup, config.reps.max(1));
    let mut algos = Vec::new();
    for pct in PAGED_POOL_PCTS {
        let pool = usize::try_from((pages * pct / 100).max(1)).expect("page count fits usize");
        for _ in 0..warmup {
            paged_pass(path, pool, queries, tau);
        }
        let mut samples = Vec::with_capacity(reps);
        let mut stats = SearchStats::default();
        let mut matches = 0u64;
        for _ in 0..reps {
            let start = Instant::now();
            let (pass_stats, pass_matches) = paged_pass(path, pool, queries, tau);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            stats = pass_stats;
            matches = pass_matches;
            samples.push(elapsed_ms / queries.len().max(1) as f64);
        }
        algos.push(AlgoReport {
            name: format!("SF pool={pct}%"),
            counters: CounterSection::from_stats(&stats, queries.len() as u64, matches),
            latency: LatencySection::from_samples(&samples),
        });
    }
    WorkloadReport {
        label: label.to_string(),
        tau,
        queries: queries.len() as u64,
        algos,
    }
}

/// One pass of the paged cell: a fresh cold-pool engine (open is
/// footer-only, so it belongs in the timed serve path), every query
/// through the SF algorithm.
fn paged_pass(path: &Path, pool: usize, queries: &[String], tau: f64) -> (SearchStats, u64) {
    let mut engine = QueryEngine::open_paged(path, pool).expect("paged-cell open");
    let mut stats = SearchStats::default();
    let mut matches = 0u64;
    for text in queries {
        let q = engine.prepare_query_str(text);
        let req = SearchRequest::new(&q).tau(tau).algorithm(AlgorithmKind::Sf);
        let out = engine.search(req).expect("paged-cell search");
        matches += out.results.len() as u64;
        stats.merge(&out.stats);
    }
    (stats, matches)
}

/// One pass of the sharded cell: every query through the sharded engine,
/// on one worker (the calling thread). NRA and iNRA scan their candidate
/// hash table in table order, which depends on the table's capacity — on
/// which queries that pooled scratch served before. One worker makes that history the query
/// stream; with several, thread scheduling decides which scratch meets
/// which shard and the bookkeeping counters drift between same-seed runs.
fn sharded_pass(
    engine: &ShardedEngine,
    kind: AlgorithmKind,
    queries: &[PreparedQuery],
    tau: f64,
) -> (SearchStats, u64) {
    let mut stats = SearchStats::default();
    let mut matches = 0u64;
    for q in queries {
        let req = SearchRequest::new(q).tau(tau).algorithm(kind);
        let out = engine
            .search_with_threads(&req, 1)
            .expect("sharded-cell search");
        matches += out.results.len() as u64;
        stats.merge(&out.stats);
    }
    (stats, matches)
}

/// One pass of the dense cell: every query through one engine variant.
fn dense_pass(
    engines: &Engines<'_>,
    algo: Algo,
    cfg: AlgoConfig,
    queries: &[PreparedQuery],
    tau: f64,
) -> (SearchStats, u64) {
    let mut stats = SearchStats::default();
    let mut matches = 0u64;
    for q in queries {
        let out = engines.run(algo, cfg, q, tau);
        matches += out.results.len() as u64;
        stats.merge(&out.stats);
    }
    (stats, matches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_produces_full_grid() {
        let mut config = HarnessConfig::new(Scale::Small, 42);
        config.queries = 5;
        config.warmup = 0;
        config.reps = 1;
        let report = run(&config);
        assert_eq!(report.workloads.len(), GRID.len() + 5);
        for w in &report.workloads[..GRID.len()] {
            assert_eq!(w.algos.len(), Algo::ALL.len());
            assert_eq!(w.queries, 5);
            for a in &w.algos {
                assert_eq!(a.counters.queries, 5);
                assert!(a.latency.min_ms_per_query >= 0.0);
            }
            // The exhaustive baselines do real work on every workload.
            let merge = w.algo("sort-by-id").expect("merge in roster");
            assert!(merge.counters.stats.elements_read > 0, "{}", w.label);
            let sql = w.algo("SQL").expect("sql in roster");
            assert!(sql.counters.stats.elements_read > 0, "{}", w.label);
        }
        // The mixed read/write cell runs the inverted-list roster (the
        // relational baseline has no mutable path) over the same query
        // count, and its counters show real work too.
        let mixed = &report.workloads[GRID.len()];
        assert_eq!(mixed.label, MIXED_LABEL);
        assert_eq!(mixed.algos.len(), Algo::LISTS_ONLY.len());
        assert!(mixed.algo("SQL").is_none());
        assert_eq!(mixed.queries, 5);
        for a in &mixed.algos {
            assert_eq!(a.counters.queries, 5);
            assert!(
                a.counters.stats.records_scanned > 0,
                "{}: the delta re-score path must run",
                a.name
            );
        }
        // The dense cell reports both engine variants for its roster,
        // and the kernel path (adaptive representations + block
        // skipping) beats the pre-kernel configuration on the counters
        // the block-max layer exists to improve.
        let dense = &report.workloads[GRID.len() + 1];
        assert_eq!(dense.label, DENSE_LABEL);
        assert_eq!(dense.algos.len(), 2 * DENSE_ROSTER.len());
        for algo in DENSE_ROSTER {
            let kernel = dense.algo(algo.name()).expect("adaptive variant");
            let pre = dense
                .algo(&format!("{} run-noskip", algo.name()))
                .expect("run-noskip variant");
            assert_eq!(
                kernel.counters.matches,
                pre.counters.matches,
                "{}: the variants must agree on answers",
                algo.name()
            );
            assert!(
                kernel.counters.stats.elements_read < pre.counters.stats.elements_read,
                "{}: kernel reads {} vs pre-kernel {}",
                algo.name(),
                kernel.counters.stats.elements_read,
                pre.counters.stats.elements_read
            );
            assert!(
                kernel.counters.stats.elements_skipped > pre.counters.stats.elements_skipped,
                "{}: kernel skips {} vs pre-kernel {}",
                algo.name(),
                kernel.counters.stats.elements_skipped,
                pre.counters.stats.elements_skipped
            );
        }
        // The sharded cell serves the inverted-list roster through the
        // scatter-gather engine: every algorithm agrees on answers, the
        // Theorem 1 band check prunes whole shards, and the pruned
        // postings land in the new counters.
        let sharded = &report.workloads[GRID.len() + 2];
        assert_eq!(sharded.label, SHARDED_LABEL);
        assert_eq!(sharded.algos.len(), Algo::LISTS_ONLY.len());
        let sf_matches = sharded.algo("SF").expect("SF in roster").counters.matches;
        for a in &sharded.algos {
            assert_eq!(a.counters.queries, 5);
            assert_eq!(
                a.counters.matches, sf_matches,
                "{}: sharded roster must agree on answers",
                a.name
            );
            assert!(
                a.counters.stats.shards_pruned > 0,
                "{}: tau=0.8 must prune whole shards",
                a.name
            );
            assert!(
                a.counters.stats.shard_pruned_elements > 0,
                "{}: pruned shards hold postings",
                a.name
            );
            assert!(
                a.counters.stats.elements_read
                    + a.counters.stats.elements_skipped
                    + a.counters.stats.shard_pruned_elements
                    <= a.counters.stats.total_list_elements,
                "{}: the stats partition must cover shard pruning",
                a.name
            );
        }
        // The paged cells sweep the pool over the same snapshot: every
        // pool size agrees on answers, faults real pages, and growing the
        // pool can only reduce disk reads (misses).
        let paged_cells = &report.workloads[GRID.len() + 3..];
        assert_eq!(paged_cells[0].label, PAGED_LABEL);
        assert_eq!(paged_cells[1].label, PAGED_SMALL_LABEL);
        for paged in paged_cells {
            assert_eq!(paged.algos.len(), PAGED_POOL_PCTS.len());
            let full = paged.algo("SF pool=100%").expect("full-pool entry");
            for a in &paged.algos {
                assert_eq!(a.counters.queries, 5);
                assert_eq!(
                    a.counters.matches, full.counters.matches,
                    "{}: pool size must not change answers",
                    a.name
                );
                assert!(
                    a.counters.stats.pages_touched > 0,
                    "{}: pages fault",
                    a.name
                );
                assert!(
                    a.counters.stats.page_cache_hits + a.counters.stats.page_cache_misses
                        >= a.counters.stats.pages_touched,
                    "{}: every touched page was fetched at least once",
                    a.name
                );
            }
            let tiny = paged.algo("SF pool=10%").expect("tiny-pool entry");
            assert!(
                tiny.counters.stats.page_cache_misses >= full.counters.stats.page_cache_misses,
                "a smaller pool cannot miss less: {} vs {}",
                tiny.counters.stats.page_cache_misses,
                full.counters.stats.page_cache_misses
            );
        }
        // The page size changes what is faulted, never the answers: the
        // small pages split the windows, so the same reads touch more of
        // them.
        let (big, small) = (&paged_cells[0].algos[2], &paged_cells[1].algos[2]);
        assert_eq!(big.counters.matches, small.counters.matches);
        assert!(small.counters.stats.pages_touched > big.counters.stats.pages_touched);
        // The report survives its own serialization.
        let back = BenchReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn grid_labels_are_unique() {
        for (i, a) in GRID.iter().enumerate() {
            for b in &GRID[i + 1..] {
                assert_ne!(a.label, b.label);
            }
        }
    }
}
