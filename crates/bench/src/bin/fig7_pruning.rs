//! Figure 7 — pruning power: the percentage of list elements each
//! algorithm never reads, over the same three sweeps as Figure 6.
//! Inverted-list approaches only (sort-by-id defines the 0% floor).
//!
//! Usage: `fig7_pruning [--scale ...] [--json] [threshold|querysize|modifications]`
//!
//! Pruning is pure counter arithmetic
//! ([`setsim_bench::report::CounterSection::pruning_pct`]), so this
//! figure is fully deterministic; measurements still flow through
//! [`measure_workload`] so the `--json` output is a [`BenchReport`] in
//! the same schema as `setsim-bench harness` and `fig6_time`.

use setsim_bench::report::{
    measure_workload, print_figure, BenchReport, EnvFingerprint, Metric, Passes, WorkloadReport,
    SCHEMA_VERSION,
};
use setsim_bench::{prepare_queries, scale_from_args, word_collection, workload, Algo, Engines};
use setsim_core::AlgoConfig;
use setsim_datagen::LengthBucket;

const QUERIES: usize = 100;
/// Same base seed and per-column derivations as `fig6_time`, so Figures
/// 6 and 7 describe the same workloads.
const FIG_SEED: u64 = 61;

fn sweep_threshold(engines: &Engines<'_>, corpus: &setsim_datagen::Corpus) -> Vec<WorkloadReport> {
    let wl = workload(corpus, LengthBucket::PAPER[2], 0, QUERIES, FIG_SEED);
    let queries = prepare_queries(&engines.index, &wl);
    [0.6, 0.7, 0.8, 0.9]
        .iter()
        .map(|&tau| {
            measure_workload(
                engines,
                &Algo::LISTS_ONLY,
                AlgoConfig::default(),
                &queries,
                tau,
                &format!("tau={tau} 11-15g 0mods"),
                Passes { warmup: 0, reps: 1 },
            )
        })
        .collect()
}

fn sweep_querysize(engines: &Engines<'_>, corpus: &setsim_datagen::Corpus) -> Vec<WorkloadReport> {
    LengthBucket::PAPER
        .iter()
        .enumerate()
        .map(|(bi, bucket)| {
            let wl = workload(corpus, *bucket, 0, QUERIES, FIG_SEED + 1 + bi as u64);
            let queries = prepare_queries(&engines.index, &wl);
            measure_workload(
                engines,
                &Algo::LISTS_ONLY,
                AlgoConfig::default(),
                &queries,
                0.8,
                &format!("tau=0.8 {} 0mods", bucket.label()),
                Passes { warmup: 0, reps: 1 },
            )
        })
        .collect()
}

fn sweep_modifications(
    engines: &Engines<'_>,
    corpus: &setsim_datagen::Corpus,
) -> Vec<WorkloadReport> {
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
                &Algo::LISTS_ONLY,
                AlgoConfig::default(),
                &queries,
                0.6,
                &format!("tau=0.6 11-15g {m}mods"),
                Passes { warmup: 0, reps: 1 },
            )
        })
        .collect()
}

fn print_sweep(title: &str, columns: &[WorkloadReport], labels: &[String]) {
    let refs: Vec<&WorkloadReport> = columns.iter().collect();
    print_figure(title, &refs, labels, Metric::PruningPct);
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
            "# Figure 7: pruning power ({} sets, {} postings)",
            collection.len(),
            engines.index.total_postings()
        );
    }
    let mut all = Vec::new();
    if which == "threshold" || which == "all" {
        let columns = sweep_threshold(&engines, &corpus);
        if !json {
            let labels = columns
                .iter()
                .map(|w| format!("tau={}", w.tau))
                .collect::<Vec<_>>();
            print_sweep(
                "Figure 7(a): % of list elements pruned vs threshold",
                &columns,
                &labels,
            );
        }
        all.extend(columns);
    }
    if which == "querysize" || which == "all" {
        let columns = sweep_querysize(&engines, &corpus);
        if !json {
            let labels: Vec<String> = LengthBucket::PAPER
                .iter()
                .map(setsim_datagen::LengthBucket::label)
                .collect();
            print_sweep(
                "Figure 7(b): % pruned vs query size (tau=0.8)",
                &columns,
                &labels,
            );
        }
        all.extend(columns);
    }
    if which == "modifications" || which == "all" {
        let columns = sweep_modifications(&engines, &corpus);
        if !json {
            let labels: Vec<String> = [0, 1, 2, 3].iter().map(|m| format!("{m} mods")).collect();
            print_sweep(
                "Figure 7(c): % pruned vs modifications (tau=0.6, 11-15 grams)",
                &columns,
                &labels,
            );
        }
        all.extend(columns);
    }
    if json {
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            label: "fig7".to_string(),
            scale: setsim_bench::Scale::name(scale).to_string(),
            seed: FIG_SEED,
            warmup: 0,
            reps: 1,
            env: EnvFingerprint::capture(),
            workloads: all,
        };
        print!("{}", report.to_json_string());
        return;
    }
    println!("\n# Expectation (paper): sort-by-id prunes 0%; iTA prunes the most (random");
    println!("# accesses resolve scores early); SF/Hybrid/iNRA ~95% at high thresholds;");
    println!("# pruning grows with query size for Length-Bounded algorithms.");
}
