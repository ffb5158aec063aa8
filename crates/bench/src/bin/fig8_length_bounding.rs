//! Figure 8 — the effect of the Length Boundedness property.
//!
//! Every algorithm runs with the property on and off ("NLB"): SQL's
//! length predicate is removed from its index range scans, and the
//! inverted-list algorithms neither seek to `τ·len(q)` nor stop past
//! `len(q)/τ`. The paper reports up to ~4x differences in both wall-clock
//! time and pruning power.
//!
//! Usage: `fig8_length_bounding [--scale ...]`

use setsim_bench::{
    prepare_queries, print_table, run_workload, scale_from_args, word_collection, workload, Algo,
    Engines,
};
use setsim_core::algorithms::sql::SqlBaseline;
use setsim_core::{AlgoConfig, PreparedQuery, SearchStats};
use setsim_datagen::LengthBucket;
use std::time::Instant;

const QUERIES: usize = 100;
const ABLATED: [Algo; 4] = [Algo::INra, Algo::ITa, Algo::Sf, Algo::Hybrid];

fn run_sql(sql: &SqlBaseline, queries: &[PreparedQuery], tau: f64) -> (f64, SearchStats) {
    let mut stats = SearchStats::default();
    let start = Instant::now();
    for q in queries {
        stats.merge(&sql.search(q, tau).expect("valid tau").stats);
    }
    (
        start.elapsed().as_secs_f64() * 1e3 / queries.len().max(1) as f64,
        stats,
    )
}

fn main() {
    let (scale, _) = scale_from_args();
    let (corpus, collection) = word_collection(scale);
    let engines = Engines::build(&collection);
    let sql_nlb = SqlBaseline::build_with(&collection, engines.index.weights(), false);
    println!(
        "# Figure 8: effect of Length Bounding ({} sets)",
        collection.len()
    );

    // (a) time vs threshold, 11-15 grams.
    let wl = workload(&corpus, LengthBucket::PAPER[2], 0, QUERIES, 81);
    let queries = prepare_queries(&engines.index, &wl);
    let taus = [0.6, 0.7, 0.8, 0.9];
    let mut rows = Vec::new();
    {
        let mut with = Vec::new();
        let mut without = Vec::new();
        for &tau in &taus {
            let (ms, _) = run_sql(&engines.sql, &queries, tau);
            with.push(format!("{ms:.3}"));
            let (ms, _) = run_sql(&sql_nlb, &queries, tau);
            without.push(format!("{ms:.3}"));
        }
        rows.push(("SQL".to_string(), with));
        rows.push(("SQL NLB".to_string(), without));
    }
    for algo in ABLATED {
        for (suffix, cfg) in [
            ("", AlgoConfig::full()),
            (" NLB", AlgoConfig::no_length_bounding()),
        ] {
            let cells = taus
                .iter()
                .map(|&tau| {
                    format!(
                        "{:.3}",
                        run_workload(&engines, algo, cfg, &queries, tau).avg_ms
                    )
                })
                .collect();
            rows.push((format!("{}{}", algo.name(), suffix), cells));
        }
    }
    print_table(
        "Figure 8(a): avg ms/query with and without Length Bounding",
        &taus.iter().map(|t| format!("tau={t}")).collect::<Vec<_>>(),
        &rows,
    );

    // (b) time vs query size for SQL and SF (the paper's detailed panel).
    let mut rows_b: Vec<(String, Vec<String>)> = vec![
        ("SQL".into(), Vec::new()),
        ("SQL NLB".into(), Vec::new()),
        ("SF".into(), Vec::new()),
        ("SF NLB".into(), Vec::new()),
    ];
    for (bi, bucket) in LengthBucket::PAPER.iter().enumerate() {
        let wl = workload(&corpus, *bucket, 0, QUERIES, 82 + bi as u64);
        let queries = prepare_queries(&engines.index, &wl);
        let (ms, _) = run_sql(&engines.sql, &queries, 0.8);
        rows_b[0].1.push(format!("{ms:.3}"));
        let (ms, _) = run_sql(&sql_nlb, &queries, 0.8);
        rows_b[1].1.push(format!("{ms:.3}"));
        let r = run_workload(&engines, Algo::Sf, AlgoConfig::full(), &queries, 0.8);
        rows_b[2].1.push(format!("{:.3}", r.avg_ms));
        let r = run_workload(
            &engines,
            Algo::Sf,
            AlgoConfig::no_length_bounding(),
            &queries,
            0.8,
        );
        rows_b[3].1.push(format!("{:.3}", r.avg_ms));
    }
    print_table(
        "Figure 8(b): SQL and SF vs query size (tau=0.8)",
        &LengthBucket::PAPER
            .iter()
            .map(setsim_datagen::LengthBucket::label)
            .collect::<Vec<_>>(),
        &rows_b,
    );

    // (c) pruning power with and without Length Bounding.
    let mut rows_c = Vec::new();
    for algo in ABLATED {
        for (suffix, cfg) in [
            ("", AlgoConfig::full()),
            (" NLB", AlgoConfig::no_length_bounding()),
        ] {
            let cells = taus
                .iter()
                .map(|&tau| {
                    format!(
                        "{:.1}%",
                        run_workload(&engines, algo, cfg, &queries, tau)
                            .stats
                            .pruning_pct()
                    )
                })
                .collect();
            rows_c.push((format!("{}{}", algo.name(), suffix), cells));
        }
    }
    print_table(
        "Figure 8(c): % pruned with and without Length Bounding",
        &taus.iter().map(|t| format!("tau={t}")).collect::<Vec<_>>(),
        &rows_c,
    );

    println!("\n# Expectation (paper): Length Bounding is worth up to ~4x in time and");
    println!("# pruning for every algorithm; the gap widens with larger queries.");
}
