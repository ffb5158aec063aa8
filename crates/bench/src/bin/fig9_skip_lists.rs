//! Figure 9 — the effect of skip lists.
//!
//! With Length Bounding on, each algorithm either jumps to `τ·len(q)`
//! through the per-list skip list, or ("NSL") scans and discards the
//! prefix sequentially. The paper reports close to a 2x improvement from
//! skip lists, growing with query size, at tiny space cost.
//!
//! Usage: `fig9_skip_lists [--scale ...]`

use setsim_bench::{
    prepare_queries, print_table, run_workload, scale_from_args, word_collection, workload, Algo,
    Engines,
};
use setsim_core::AlgoConfig;
use setsim_datagen::LengthBucket;

const QUERIES: usize = 100;
const ABLATED: [Algo; 4] = [Algo::INra, Algo::ITa, Algo::Sf, Algo::Hybrid];

fn main() {
    let (scale, _) = scale_from_args();
    let (corpus, collection) = word_collection(scale);
    let engines = Engines::build(&collection);
    println!(
        "# Figure 9: effect of skip lists ({} sets)",
        collection.len()
    );

    let wl = workload(&corpus, LengthBucket::PAPER[2], 0, QUERIES, 91);
    let queries = prepare_queries(&engines.index, &wl);
    let taus = [0.6, 0.7, 0.8, 0.9];

    let mut rows = Vec::new();
    let mut rows_reads = Vec::new();
    for algo in ABLATED {
        for (suffix, cfg) in [
            ("", AlgoConfig::full()),
            (" NSL", AlgoConfig::no_skip_lists()),
        ] {
            let mut time_cells = Vec::new();
            let mut read_cells = Vec::new();
            for &tau in &taus {
                let r = run_workload(&engines, algo, cfg, &queries, tau);
                time_cells.push(format!("{:.3}", r.avg_ms));
                read_cells.push(format!(
                    "{}",
                    r.stats.elements_read / queries.len().max(1) as u64
                ));
            }
            rows.push((format!("{}{}", algo.name(), suffix), time_cells));
            rows_reads.push((format!("{}{}", algo.name(), suffix), read_cells));
        }
    }
    print_table(
        "Figure 9(a): avg ms/query with and without skip lists",
        &taus.iter().map(|t| format!("tau={t}")).collect::<Vec<_>>(),
        &rows,
    );
    print_table(
        "Figure 9(b): avg postings read/query (NSL pays the prefix scan)",
        &taus.iter().map(|t| format!("tau={t}")).collect::<Vec<_>>(),
        &rows_reads,
    );

    println!("\n# Expectation (paper): skip lists are worth up to ~2x, at a space cost");
    println!("# that is negligible next to the extendible hashing TA requires.");
}
