//! The scale-out benchmark behind `setsim-bench scaleout` — the
//! ≥10M-record `large` cell of the CI `scale-out` job.
//!
//! The corpus is the word-occurrence view at serving scale: one word per
//! record, streamed straight from [`setsim_datagen::RecordStream`] into
//! [`ShardedIndex::build_streaming`], so the generator never holds the
//! corpus as a `Vec<String>` — the only resident copies are the ones the
//! shard sub-collections own. With `--dir`, the built index is persisted
//! as a sharded snapshot directory and reopened on the next run (the CI
//! job caches that directory by seed+records, so the multi-minute build
//! is paid once per cache key).
//!
//! Two checks ride on top of the [`BenchReport`] this writes:
//!
//! * **Majority pruning** — for each τ in the grid, the fraction of
//!   (query, shard) visits the Theorem 1 band check pruned is recorded;
//!   `--expect-majority-pruned` turns "τ = 0.8 prunes most shards" into
//!   an exit code.
//! * **Equivalence** — a prefix of the same record stream (so the small
//!   corpus is literally the head of the large one) is indexed both
//!   sharded and unsharded, and every roster algorithm, on either index,
//!   must return the unsharded scan's `(id, score bits)` set across the τ
//!   grid (the exactness contract, DESIGN.md §1).

use crate::report::{
    AlgoReport, BenchReport, CounterSection, EnvFingerprint, LatencySection, WorkloadReport,
    SCHEMA_VERSION,
};
use setsim_core::{
    engine, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, Scratch, SearchRequest,
    SearchStats, ShardedEngine, ShardedIndex,
};
use setsim_datagen::{CorpusConfig, RecordStream};
use setsim_tokenize::{QGramTokenizer, TokenizerSpec};
use std::path::PathBuf;
use std::time::Instant;

/// Parameters of one scale-out run.
#[derive(Debug, Clone)]
pub struct ScaleoutConfig {
    /// Records in the large cell (default 10M — the north-star scale).
    pub records: usize,
    /// Length-banded shards (upper bound; degenerate bands collapse).
    pub shards: usize,
    /// Master seed: corpus, queries, and equivalence prefix derive from it.
    pub seed: u64,
    /// Queries per τ cell.
    pub queries: usize,
    /// Threshold grid.
    pub taus: Vec<f64>,
    /// Sharded-snapshot cache directory: reopened if it already holds a
    /// matching index, written after a fresh build.
    pub dir: Option<PathBuf>,
    /// Records in the sharded-vs-unsharded equivalence prefix; 0 skips
    /// the check (the full differential lives in `shard_equivalence.rs`).
    pub equivalence_records: usize,
    /// Report label — the file becomes `BENCH_<label>.json`.
    pub label: String,
}

impl Default for ScaleoutConfig {
    fn default() -> Self {
        Self {
            records: 10_000_000,
            shards: 32,
            seed: 42,
            queries: 64,
            taus: vec![0.5, 0.8, 0.95],
            dir: None,
            equivalence_records: 20_000,
            label: "scaleout".to_string(),
        }
    }
}

/// The scale-out corpus: single-word records (the paper's
/// word-occurrence view) whose 3–18-character spread produces the length
/// histogram the band planner cuts. Deterministic in (records, seed).
#[must_use]
pub fn corpus_config(records: usize, seed: u64) -> CorpusConfig {
    CorpusConfig {
        num_records: records,
        // Vocabulary scales with the corpus but stays bounded: it is the
        // only part of the generator held in memory.
        vocab_size: (records / 50).clamp(1_000, 200_000),
        words_per_record: (1, 1),
        word_len: (3, 18),
        zipf_s: 1.0,
        seed,
    }
}

fn qgram_spec() -> TokenizerSpec {
    TokenizerSpec::QGram {
        q: 3,
        pad: Some('#'),
        lowercase: true,
    }
}

/// What one run produced, beyond the report file.
#[derive(Debug)]
pub struct ScaleoutOutcome {
    /// The report (one workload per τ).
    pub report: BenchReport,
    /// Shards the built/opened index actually has (≤ configured).
    pub num_shards: usize,
    /// Records the index covers.
    pub num_records: usize,
    /// Per τ: fraction of (query, shard) visits pruned whole by the band
    /// check, in `taus` order.
    pub pruned_fraction: Vec<(f64, f64)>,
    /// Whether the sharded-vs-unsharded equivalence prefix was checked.
    pub equivalence_checked: bool,
    /// Whether the index was reopened from `dir` instead of built.
    pub opened_from_cache: bool,
}

/// Run the scale-out cell. `Err` is a human-readable failure: snapshot
/// corruption, a stale cache directory, or an equivalence mismatch.
pub fn run(cfg: &ScaleoutConfig) -> Result<ScaleoutOutcome, String> {
    let (index, opened_from_cache) = acquire_index(cfg)?;
    if index.num_records() != cfg.records {
        return Err(format!(
            "cache directory holds {} records but --records is {} — stale cache key",
            index.num_records(),
            cfg.records
        ));
    }
    let num_shards = index.num_shards();
    let num_records = index.num_records();

    // Queries come from a *distinct* stream over the same vocabulary
    // model: same word distribution as the corpus, different draws.
    let query_texts: Vec<String> = RecordStream::new(&corpus_config(
        cfg.queries.max(1),
        cfg.seed ^ 0x0071_7565_7279,
    ))
    .collect();

    let equivalence_checked = if cfg.equivalence_records > 0 {
        check_equivalence(cfg)?;
        true
    } else {
        false
    };

    let engine = ShardedEngine::new(index);
    let mut workloads = Vec::with_capacity(cfg.taus.len());
    let mut pruned_fraction = Vec::with_capacity(cfg.taus.len());
    for &tau in &cfg.taus {
        let mut stats = SearchStats::default();
        let mut matches = 0u64;
        let start = Instant::now();
        for text in &query_texts {
            let q = engine.prepare_query_str(text);
            let req = SearchRequest::new(&q).tau(tau).algorithm(AlgorithmKind::Sf);
            let out = engine
                .search(&req)
                .map_err(|e| format!("scaleout query failed at tau={tau}: {e}"))?;
            matches += out.results.len() as u64;
            stats.merge(&out.stats);
        }
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let visits = (query_texts.len() * num_shards) as f64;
        let fraction = if visits > 0.0 {
            stats.shards_pruned as f64 / visits
        } else {
            0.0
        };
        pruned_fraction.push((tau, fraction));
        workloads.push(WorkloadReport {
            label: format!("scaleout tau={tau} shards={num_shards}"),
            tau,
            queries: query_texts.len() as u64,
            algos: vec![AlgoReport {
                name: "SF".to_string(),
                counters: CounterSection::from_stats(&stats, query_texts.len() as u64, matches),
                latency: LatencySection::from_samples(&[
                    elapsed_ms / query_texts.len().max(1) as f64
                ]),
            }],
        });
    }

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        label: cfg.label.clone(),
        scale: "scaleout".to_string(),
        seed: cfg.seed,
        warmup: 0,
        reps: 1,
        env: EnvFingerprint::capture(),
        workloads,
    };
    Ok(ScaleoutOutcome {
        report,
        num_shards,
        num_records,
        pruned_fraction,
        equivalence_checked,
        opened_from_cache,
    })
}

/// Reopen the sharded index from the cache directory when possible,
/// otherwise stream-build it (and persist it if a directory was given).
fn acquire_index(cfg: &ScaleoutConfig) -> Result<(ShardedIndex, bool), String> {
    if let Some(dir) = &cfg.dir {
        if ShardedIndex::exists(dir) {
            let index = ShardedIndex::open(dir)
                .map_err(|e| format!("could not reopen {}: {e}", dir.display()))?;
            return Ok((index, true));
        }
    }
    let stream = RecordStream::new(&corpus_config(cfg.records, cfg.seed));
    let index =
        ShardedIndex::build_streaming(&qgram_spec(), stream, cfg.shards, IndexOptions::default());
    if let Some(dir) = &cfg.dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        index
            .save(dir)
            .map_err(|e| format!("could not persist to {}: {e}", dir.display()))?;
    }
    Ok((index, false))
}

/// Sharded vs unsharded differential over a prefix of the large stream:
/// for every τ of the grid, every roster algorithm on either index must
/// return the unsharded scan's (id, score-bits) set.
fn check_equivalence(cfg: &ScaleoutConfig) -> Result<(), String> {
    let prefix: Vec<String> = RecordStream::new(&corpus_config(cfg.records, cfg.seed))
        .take(cfg.equivalence_records)
        .collect();
    let mut builder = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for t in &prefix {
        builder.add(t);
    }
    let collection = builder.build();
    let baseline = InvertedIndex::build(&collection, IndexOptions::default());
    let sharded = ShardedIndex::build(&collection, cfg.shards, IndexOptions::default())
        .map_err(|e| format!("equivalence shard build: {e}"))?;

    let query_texts: Vec<String> = RecordStream::new(&corpus_config(
        cfg.queries.clamp(1, 16),
        cfg.seed ^ 0x0071_7565_7279,
    ))
    .collect();
    let mut scratch = Scratch::default();
    for text in &query_texts {
        let bq = baseline.prepare_query_str(text);
        let sq = sharded.prepare_query_str(text);
        for &tau in &cfg.taus {
            let scan = SearchRequest::new(&bq)
                .tau(tau)
                .algorithm(AlgorithmKind::Scan);
            let want = engine::execute(&baseline, &mut scratch, &scan)
                .map_err(|e| format!("baseline scan tau={tau}: {e}"))?
                .bits_sorted();
            for kind in AlgorithmKind::ALL {
                let breq = SearchRequest::new(&bq).tau(tau).algorithm(kind);
                let base = engine::execute(&baseline, &mut scratch, &breq)
                    .map_err(|e| format!("baseline {} tau={tau}: {e}", kind.name()))?;
                let sreq = SearchRequest::new(&sq).tau(tau).algorithm(kind);
                let shard = sharded
                    .search_with_scratch(&mut scratch, &sreq)
                    .map_err(|e| format!("sharded {} tau={tau}: {e}", kind.name()))?;
                for (leg, got) in [("baseline", base), ("sharded", shard)] {
                    let got = got.bits_sorted();
                    if got != want {
                        return Err(format!(
                            "EQUIVALENCE MISMATCH: {leg} {} tau={tau} query={text:?}: \
                             {} result(s), scan {} result(s)",
                            kind.name(),
                            got.len(),
                            want.len()
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleoutConfig {
        ScaleoutConfig {
            records: 3_000,
            shards: 8,
            seed: 42,
            queries: 8,
            equivalence_records: 1_500,
            ..ScaleoutConfig::default()
        }
    }

    #[test]
    fn tiny_cell_runs_and_prunes() {
        let out = run(&tiny()).expect("tiny scale-out cell");
        assert_eq!(out.num_records, 3_000);
        assert!(out.num_shards > 1, "bands must split the corpus");
        assert!(out.equivalence_checked);
        assert!(!out.opened_from_cache);
        assert_eq!(out.report.workloads.len(), 3);
        // Pruning strengthens with τ: the 0.95 window is narrower than
        // the 0.5 one, so it can only prune at least as many shards.
        let f = &out.pruned_fraction;
        assert!(f[2].1 >= f[0].1, "pruning must not weaken as tau rises");
        let at_08 = f.iter().find(|(t, _)| (*t - 0.8).abs() < 1e-9).unwrap();
        assert!(
            at_08.1 > 0.5,
            "tau=0.8 must prune the majority of shard visits, got {:.2}",
            at_08.1
        );
    }

    #[test]
    fn equivalence_mismatch_surfaces_as_error() {
        // Sanity: the check runs (a real mismatch would need a broken
        // engine, so only the success path is exercised here) and a
        // stale cache is rejected by the record-count guard.
        let mut cfg = tiny();
        cfg.equivalence_records = 200;
        let out = run(&cfg).expect("equivalence over a short prefix");
        assert!(out.equivalence_checked);
    }

    #[test]
    fn cache_round_trip_reopens() {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "setsim-scaleout-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let mut cfg = tiny();
        cfg.records = 800;
        cfg.equivalence_records = 0;
        cfg.dir = Some(dir.clone());
        let first = run(&cfg).expect("fresh build");
        assert!(!first.opened_from_cache);
        let second = run(&cfg).expect("cache reopen");
        assert!(second.opened_from_cache);
        assert_eq!(
            first.report.counters_json(),
            second.report.counters_json(),
            "cached reopen must reproduce the counters byte for byte"
        );
        // A different --records against the same directory is a stale key.
        cfg.records = 900;
        let err = run(&cfg).unwrap_err();
        assert!(err.contains("stale cache"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
