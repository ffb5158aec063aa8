//! Experiment harness reproducing the ICDE 2008 evaluation.
//!
//! Each table/figure of the paper has a binary in `src/bin/`:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1_precision` | Table I — average precision of TFIDF/IDF/BM25/BM25′ on cu1..cu8 |
//! | `fig5_index_size` | Figure 5 — index size per structure |
//! | `fig6_time` | Figure 6 — wall-clock time vs τ / query size / modifications |
//! | `fig7_pruning` | Figure 7 — pruning power, same sweeps |
//! | `fig8_length_bounding` | Figure 8 — Length Bounding ablation |
//! | `fig9_skip_lists` | Figure 9 — skip list ablation |
//!
//! This library holds the shared pieces: corpus/index construction, the
//! algorithm roster, workload execution with timing, and plain-text table
//! rendering. Scale is tunable with `--scale small|medium|large` (the
//! binaries default to `medium`, laptop-friendly while preserving the
//! paper's relative trends).
//!
//! Beyond the figure binaries, the crate hosts the machine-readable perf
//! trajectory: [`json`] (a dependency-free JSON writer/parser), [`report`]
//! (the versioned `BENCH_*.json` schema), [`harness`] (the deterministic
//! seeded workload runner behind `setsim-bench harness`), [`loadgen`]
//! (the concurrent serving-tier driver behind `setsim-bench loadgen`),
//! [`scaleout`] (the ≥10M-record sharded cell behind `setsim-bench
//! scaleout`), and [`diff`] (the noise-aware comparator behind `cargo
//! xtask bench-diff`).

pub mod diff;
pub mod harness;
pub mod json;
pub mod loadgen;
pub mod report;
pub mod scaleout;

use setsim_core::algorithms::sql::SqlBaseline;
use setsim_core::{
    engine, AlgoConfig, AlgorithmKind, InvertedIndex, PreparedQuery, Scratch, SearchOutcome,
    SearchRequest, SearchStats, SetCollection,
};
use setsim_datagen::{Corpus, CorpusConfig, LengthBucket, QueryWorkload};
use setsim_tokenize::QGramTokenizer;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~5k word occurrences; smoke-test sized.
    Small,
    /// ~60k word occurrences; default.
    Medium,
    /// ~250k word occurrences.
    Large,
}

impl Scale {
    /// Parse from a CLI argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// Corpus configuration for this scale (the figure binaries' fixed
    /// seed 42).
    pub fn corpus_config(self) -> CorpusConfig {
        self.corpus_config_seeded(42)
    }

    /// Corpus configuration for this scale with an explicit seed (the
    /// harness threads its master seed through here).
    pub fn corpus_config_seeded(self, seed: u64) -> CorpusConfig {
        let (records, vocab) = match self {
            Scale::Small => (2_000, 1_200),
            Scale::Medium => (25_000, 9_000),
            Scale::Large => (100_000, 25_000),
        };
        CorpusConfig {
            num_records: records,
            vocab_size: vocab,
            words_per_record: (1, 4),
            word_len: (3, 18),
            zipf_s: 1.0,
            seed,
        }
    }

    /// Lower-case name, as used in `--scale` and the BENCH JSON.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }
}

/// Read `--scale` from argv (defaulting to medium); returns remaining args.
pub fn scale_from_args() -> (Scale, Vec<String>) {
    let mut scale = Scale::Medium;
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scale" {
            let v = args.next().unwrap_or_default();
            scale = Scale::parse(&v).unwrap_or_else(|| {
                eprintln!("unknown scale {v:?}; use small|medium|large");
                std::process::exit(2);
            });
        } else {
            rest.push(a);
        }
    }
    (scale, rest)
}

/// Build the word-occurrence database of the paper's Section VIII-A: the
/// corpus is tokenized into words, and **every word occurrence** becomes
/// one record (a 3-gram set) with its own id.
pub fn word_collection(scale: Scale) -> (Corpus, SetCollection) {
    word_collection_seeded(scale, 42)
}

/// [`word_collection`] with an explicit corpus seed (harness runs).
pub fn word_collection_seeded(scale: Scale, seed: u64) -> (Corpus, SetCollection) {
    let corpus = Corpus::generate(&scale.corpus_config_seeded(seed));
    let mut builder = setsim_core::CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for w in corpus.words() {
        builder.add(w);
    }
    let collection = builder.build();
    (corpus, collection)
}

/// The paper's query workload: `n` words drawn from the database in a
/// gram-count bucket, each perturbed by `modifications` edits.
pub fn workload(
    corpus: &Corpus,
    bucket: LengthBucket,
    modifications: usize,
    n: usize,
    seed: u64,
) -> QueryWorkload {
    QueryWorkload::generate(corpus.words(), bucket, 3, modifications, n, seed)
}

/// The algorithm roster of the evaluation (Figures 6 and 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Multiway merge over id-sorted lists.
    SortById,
    /// Relational baseline (q-gram table + clustered B-tree).
    Sql,
    /// Classic Threshold Algorithm.
    Ta,
    /// Classic No-Random-Access algorithm (with the paper's bookkeeping
    /// reducers — textbook NRA does not finish at scale).
    Nra,
    /// Improved NRA (Algorithm 2).
    INra,
    /// Improved TA.
    ITa,
    /// Shortest-First (Algorithm 3).
    Sf,
    /// Hybrid (Algorithm 4).
    Hybrid,
}

impl Algo {
    /// Full roster in the paper's legend order.
    pub const ALL: [Algo; 8] = [
        Algo::SortById,
        Algo::Sql,
        Algo::Ta,
        Algo::Nra,
        Algo::INra,
        Algo::ITa,
        Algo::Sf,
        Algo::Hybrid,
    ];

    /// Inverted-list roster (Figure 7 excludes SQL).
    pub const LISTS_ONLY: [Algo; 7] = [
        Algo::SortById,
        Algo::Ta,
        Algo::Nra,
        Algo::INra,
        Algo::ITa,
        Algo::Sf,
        Algo::Hybrid,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algo::SortById => "sort-by-id",
            Algo::Sql => "SQL",
            Algo::Ta => "TA",
            Algo::Nra => "NRA",
            Algo::INra => "iNRA",
            Algo::ITa => "iTA",
            Algo::Sf => "SF",
            Algo::Hybrid => "Hybrid",
        }
    }

    /// Engine dispatch kind; `None` for the relational baseline, which
    /// does not run on inverted lists.
    pub fn kind(self) -> Option<AlgorithmKind> {
        match self {
            Algo::SortById => Some(AlgorithmKind::Merge),
            Algo::Sql => None,
            Algo::Ta => Some(AlgorithmKind::Ta),
            Algo::Nra => Some(AlgorithmKind::Nra),
            Algo::INra => Some(AlgorithmKind::INra),
            Algo::ITa => Some(AlgorithmKind::ITa),
            Algo::Sf => Some(AlgorithmKind::Sf),
            Algo::Hybrid => Some(AlgorithmKind::Hybrid),
        }
    }
}

/// A context holding everything a query run needs.
pub struct Engines<'c> {
    /// The inverted-list index.
    pub index: InvertedIndex<'c>,
    /// The SQL baseline.
    pub sql: SqlBaseline,
    /// Warm scratch shared across runs, so workload timings measure the
    /// algorithms rather than per-query allocation.
    scratch: RefCell<Scratch>,
}

impl<'c> Engines<'c> {
    /// Build index + SQL baseline with default options.
    pub fn build(collection: &'c SetCollection) -> Self {
        Self::build_with(collection, setsim_core::IndexOptions::default())
    }

    /// Build with explicit index options.
    pub fn build_with(collection: &'c SetCollection, options: setsim_core::IndexOptions) -> Self {
        let index = InvertedIndex::build(collection, options);
        let sql = SqlBaseline::build(collection, index.weights());
        Self {
            index,
            sql,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Run one algorithm on one prepared query (through the engine's
    /// warm-scratch execution path; SQL runs its own query plan).
    pub fn run(
        &self,
        algo: Algo,
        config: AlgoConfig,
        q: &PreparedQuery,
        tau: f64,
    ) -> SearchOutcome {
        let Some(kind) = algo.kind() else {
            return self.sql.search(q, tau).expect("valid bench tau");
        };
        let req = SearchRequest::new(q)
            .tau(tau)
            .algorithm(kind)
            .config(config);
        let mut scratch = self.scratch.borrow_mut();
        engine::execute(&self.index, &mut scratch, &req).expect("valid bench request")
    }
}

/// Aggregated outcome of one algorithm over one workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadResult {
    /// Mean wall-clock milliseconds per query.
    pub avg_ms: f64,
    /// Mean results returned per query.
    pub avg_results: f64,
    /// Merged access statistics over the workload.
    pub stats: SearchStats,
}

/// Run `algo` over every query of a workload at threshold `tau`.
pub fn run_workload(
    engines: &Engines<'_>,
    algo: Algo,
    config: AlgoConfig,
    queries: &[PreparedQuery],
    tau: f64,
) -> WorkloadResult {
    let mut stats = SearchStats::default();
    let mut total_results = 0usize;
    let start = Instant::now();
    for q in queries {
        let out = engines.run(algo, config, q, tau);
        total_results += out.results.len();
        stats.merge(&out.stats);
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let n = queries.len().max(1) as f64;
    WorkloadResult {
        avg_ms: elapsed / n,
        avg_results: total_results as f64 / n,
        stats,
    }
}

/// Prepare a workload's query strings against the index.
pub fn prepare_queries(index: &InvertedIndex<'_>, workload: &QueryWorkload) -> Vec<PreparedQuery> {
    workload
        .queries()
        .iter()
        .map(|s| index.prepare_query_str(s))
        .collect()
}

/// An index snapshot in the system temp directory, named uniquely per
/// call and removed on drop — so concurrent cells (libtest runs tests of
/// one process in parallel) never share a file, and no exit path, a
/// panicking `expect` included, leaves one behind.
pub struct TempSnapshot {
    path: PathBuf,
}

impl TempSnapshot {
    /// Save `index` as `setsim-<tag>-<pid>-<n>.snap`, `n` counting the
    /// snapshots this process has made.
    pub fn save(index: &InvertedIndex<'_>, tag: &str) -> Result<Self, setsim_core::SnapshotError> {
        Self::save_with_page_size(index, tag, setsim_core::snapshot::DEFAULT_PAGE_SIZE)
    }

    /// [`save`](Self::save) with `page_size`-byte pages.
    pub fn save_with_page_size(
        index: &InvertedIndex<'_>,
        tag: &str,
        page_size: usize,
    ) -> Result<Self, setsim_core::SnapshotError> {
        // A statistic-like counter: it publishes no other data.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("setsim-{tag}-{}-{n}.snap", std::process::id());
        let snap = Self {
            path: std::env::temp_dir().join(name),
        };
        index.save_with_page_size(&snap.path, page_size)?;
        Ok(snap)
    }

    /// Where the snapshot lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempSnapshot {
    fn drop(&mut self) {
        // Best effort: a leftover temp file is not worth a panic.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Render an aligned text table: row labels × column labels.
pub fn print_table(title: &str, col_labels: &[String], rows: &[(String, Vec<String>)]) {
    println!("\n## {title}");
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once(9))
        .max()
        .unwrap();
    let col_w = col_labels
        .iter()
        .map(std::string::String::len)
        .chain(
            rows.iter()
                .flat_map(|(_, v)| v.iter().map(std::string::String::len)),
        )
        .max()
        .unwrap_or(8)
        .max(8);
    print!("{:label_w$}", "");
    for c in col_labels {
        print!("  {c:>col_w$}");
    }
    println!();
    for (label, cells) in rows {
        print!("{label:label_w$}");
        for cell in cells {
            print!("  {cell:>col_w$}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_pipeline_runs() {
        let (corpus, collection) = word_collection(Scale::Small);
        let engines = Engines::build(&collection);
        let wl = workload(&corpus, LengthBucket::PAPER[2], 0, 5, 1);
        let queries = prepare_queries(&engines.index, &wl);
        assert!(!queries.is_empty());
        let mut reference: Option<Vec<setsim_core::SetId>> = None;
        for algo in Algo::ALL {
            let out = engines.run(algo, AlgoConfig::default(), &queries[0], 0.8);
            let mut ids: Vec<_> = out.results.iter().map(|m| m.id).collect();
            ids.sort_unstable();
            match &reference {
                None => reference = Some(ids),
                Some(r) => assert_eq!(&ids, r, "{} disagrees", algo.name()),
            }
        }
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn workload_result_aggregates() {
        let (corpus, collection) = word_collection(Scale::Small);
        let engines = Engines::build(&collection);
        let wl = workload(&corpus, LengthBucket::PAPER[1], 0, 10, 2);
        let queries = prepare_queries(&engines.index, &wl);
        let r = run_workload(&engines, Algo::Sf, AlgoConfig::default(), &queries, 0.8);
        // Every query has at least its exact match.
        assert!(r.avg_results >= 1.0, "avg_results = {}", r.avg_results);
        assert!(r.stats.total_list_elements > 0);
    }
}
