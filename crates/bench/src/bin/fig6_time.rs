//! Figure 6 — wall-clock time of all algorithms as a function of
//! (a) threshold, (b) query size, and (c) modifications per query word.
//!
//! Usage: `fig6_time [--scale ...] [--json] [threshold|querysize|modifications]`
//! (no sweep argument runs all three).
//!
//! Measurements go through [`setsim_bench::report::measure_workload`] —
//! the same warmup / min-of-k / counter pipeline as `setsim-bench
//! harness` — so the text tables and the `--json` report are two views
//! of one schema ([`BenchReport`]). With `--json`, stdout carries one
//! JSON document and nothing else; the tables move to stderr-free
//! silence.

use setsim_bench::report::{
    measure_workload, print_figure, BenchReport, EnvFingerprint, Metric, Passes, WorkloadReport,
    SCHEMA_VERSION,
};
use setsim_bench::{prepare_queries, scale_from_args, word_collection, workload, Algo, Engines};
use setsim_core::AlgoConfig;
use setsim_datagen::LengthBucket;

const QUERIES: usize = 100;
/// Base query-workload seed; the sweeps derive their per-column seeds
/// from it exactly as the pre-report version did (61, 62+bucket, 66+mods)
/// so the measured workloads are unchanged.
const FIG_SEED: u64 = 61;
const WARMUP: usize = 1;
const REPS: usize = 3;

/// A workload report minus one algorithm row — used to drop SQL from the
/// modeled-disk table, whose constants describe inverted-list I/O.
fn without(w: &WorkloadReport, name: &str) -> WorkloadReport {
    let mut filtered = w.clone();
    filtered.algos.retain(|a| a.name != name);
    filtered
}

fn result_counts(columns: &[WorkloadReport]) -> String {
    columns
        .iter()
        .map(|w| {
            w.algo(Algo::Sf.name()).map_or_else(
                || "-".to_string(),
                |a| format!("{:.0}", a.counters.matches as f64 / w.queries.max(1) as f64),
            )
        })
        .collect::<Vec<_>>()
        .join("  ")
}

fn sweep_threshold(engines: &Engines<'_>, corpus: &setsim_datagen::Corpus) -> Vec<WorkloadReport> {
    // 11-15 grams, 0 modifications, tau in {0.6, 0.7, 0.8, 0.9}.
    let wl = workload(corpus, LengthBucket::PAPER[2], 0, QUERIES, FIG_SEED);
    let queries = prepare_queries(&engines.index, &wl);
    [0.6, 0.7, 0.8, 0.9]
        .iter()
        .map(|&tau| {
            measure_workload(
                engines,
                &Algo::ALL,
                AlgoConfig::default(),
                &queries,
                tau,
                &format!("tau={tau} 11-15g 0mods"),
                Passes {
                    warmup: WARMUP,
                    reps: REPS,
                },
            )
        })
        .collect()
}

fn print_threshold(columns: &[WorkloadReport]) {
    let labels: Vec<String> = columns.iter().map(|w| format!("tau={}", w.tau)).collect();
    let refs: Vec<&WorkloadReport> = columns.iter().collect();
    print_figure(
        "Figure 6(a): min wall-clock ms/query vs threshold (11-15 grams, 0 mods)",
        &refs,
        &labels,
        Metric::MinMs,
    );
    println!("avg results/query: {}", result_counts(columns));
    let modeled: Vec<WorkloadReport> = columns.iter().map(|w| without(w, "SQL")).collect();
    let refs: Vec<&WorkloadReport> = modeled.iter().collect();
    print_figure(
        "Figure 6(a'): modeled disk ms/query (0.2us/seq element, 100us/random probe)",
        &refs,
        &labels,
        Metric::ModeledDiskMs,
    );
}

fn sweep_querysize(engines: &Engines<'_>, corpus: &setsim_datagen::Corpus) -> Vec<WorkloadReport> {
    // tau = 0.8, 0 modifications, the four gram buckets.
    LengthBucket::PAPER
        .iter()
        .enumerate()
        .map(|(bi, bucket)| {
            let wl = workload(corpus, *bucket, 0, QUERIES, FIG_SEED + 1 + bi as u64);
            let queries = prepare_queries(&engines.index, &wl);
            measure_workload(
                engines,
                &Algo::ALL,
                AlgoConfig::default(),
                &queries,
                0.8,
                &format!("tau=0.8 {} 0mods", bucket.label()),
                Passes {
                    warmup: WARMUP,
                    reps: REPS,
                },
            )
        })
        .collect()
}

fn print_querysize(columns: &[WorkloadReport]) {
    let labels: Vec<String> = LengthBucket::PAPER
        .iter()
        .map(setsim_datagen::LengthBucket::label)
        .collect();
    let refs: Vec<&WorkloadReport> = columns.iter().collect();
    print_figure(
        "Figure 6(b): min wall-clock ms/query vs query size (tau=0.8, 0 mods)",
        &refs,
        &labels,
        Metric::MinMs,
    );
    println!("avg results/query: {}", result_counts(columns));
}

fn sweep_modifications(
    engines: &Engines<'_>,
    corpus: &setsim_datagen::Corpus,
) -> Vec<WorkloadReport> {
    // tau = 0.6, 11-15 grams, modifications in {0, 1, 2, 3}.
    [0usize, 1, 2, 3]
        .iter()
        .map(|&m| {
            let wl = workload(
                corpus,
                LengthBucket::PAPER[2],
                m,
                QUERIES,
                FIG_SEED + 5 + m as u64,
            );
            let queries = prepare_queries(&engines.index, &wl);
            measure_workload(
                engines,
                &Algo::ALL,
                AlgoConfig::default(),
                &queries,
                0.6,
                &format!("tau=0.6 11-15g {m}mods"),
                Passes {
                    warmup: WARMUP,
                    reps: REPS,
                },
            )
        })
        .collect()
}

fn print_modifications(columns: &[WorkloadReport]) {
    let labels: Vec<String> = [0, 1, 2, 3].iter().map(|m| format!("{m} mods")).collect();
    let refs: Vec<&WorkloadReport> = columns.iter().collect();
    print_figure(
        "Figure 6(c): min wall-clock ms/query vs modifications (tau=0.6, 11-15 grams)",
        &refs,
        &labels,
        Metric::MinMs,
    );
    println!("avg results/query: {}", result_counts(columns));
}

fn main() {
    let (scale, rest) = scale_from_args();
    let json = rest.iter().any(|a| a == "--json");
    let which = rest
        .iter()
        .find(|a| *a != "--json")
        .map_or("all", String::as_str);
    let (corpus, collection) = word_collection(scale);
    let engines = Engines::build(&collection);
    if !json {
        println!(
            "# Figure 6: wall-clock time ({} sets, {} postings)",
            collection.len(),
            engines.index.total_postings()
        );
    }
    let mut all = Vec::new();
    if which == "threshold" || which == "all" {
        let columns = sweep_threshold(&engines, &corpus);
        if !json {
            print_threshold(&columns);
        }
        all.extend(columns);
    }
    if which == "querysize" || which == "all" {
        let columns = sweep_querysize(&engines, &corpus);
        if !json {
            print_querysize(&columns);
        }
        all.extend(columns);
    }
    if which == "modifications" || which == "all" {
        let columns = sweep_modifications(&engines, &corpus);
        if !json {
            print_modifications(&columns);
        }
        all.extend(columns);
    }
    if json {
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            label: "fig6".to_string(),
            scale: setsim_bench::Scale::name(scale).to_string(),
            seed: FIG_SEED,
            warmup: WARMUP as u64,
            reps: REPS as u64,
            env: EnvFingerprint::capture(),
            workloads: all,
        };
        print!("{}", report.to_json_string());
        return;
    }
    println!("\n# Expectation (paper): SF fastest overall; SQL/iNRA/Hybrid close behind;");
    println!("# sort-by-id flat and slow; TA/NRA uncompetitive; Length-Bounded algorithms");
    println!("# get FASTER as queries grow (6b); cost drops with modifications (6c).");
}
