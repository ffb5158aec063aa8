//! Figure 5 — index size per structure and per approach.
//!
//! The paper's bars: the SQL approach needs the base table and the q-gram
//! table clustered on `(token, len, id)`; TA needs inverted lists + skip
//! lists + extendible hashing; NRA/iNRA/iTA need lists + skip lists;
//! SF/Hybrid the same. The clustered table is stored as its leaf level
//! alone (rows sorted by key, searched by binary search), so no bytes are
//! charged for an index's internal levels.
//!
//! Usage: `fig5_index_size [--scale small|medium|large]`

use setsim_bench::{print_table, scale_from_args, word_collection, Engines};

fn mb(bytes: usize) -> String {
    format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
}

fn main() {
    let (scale, _) = scale_from_args();
    let (_corpus, collection) = word_collection(scale);
    let engines = Engines::build(&collection);
    let base = collection.base_table_bytes();
    let qgram_table = engines.sql.size_bytes();
    let (lists, skips, hashing) = engines.index.size_bytes();

    println!("# Figure 5: index size");
    println!(
        "# {} sets, {} distinct tokens, {} postings",
        collection.len(),
        collection.dict().len(),
        engines.index.total_postings()
    );

    print_table(
        "Per-structure sizes",
        &["size".into()],
        &[
            ("base table".into(), vec![mb(base)]),
            (
                "q-gram table (clustered on token, len, id)".into(),
                vec![mb(qgram_table)],
            ),
            ("inverted lists".into(), vec![mb(lists)]),
            (
                "  (delta+varint compressed)".into(),
                vec![mb(engines.index.compressed_lists_bytes())],
            ),
            ("skip lists".into(), vec![mb(skips)]),
            ("extendible hashing".into(), vec![mb(hashing)]),
        ],
    );

    print_table(
        "Per-approach totals (the paper's bars)",
        &["total".into(), "x base".into()],
        &[
            (
                "SQL (base+q-gram table)".into(),
                vec![
                    mb(base + qgram_table),
                    format!("{:.1}", (base + qgram_table) as f64 / base as f64),
                ],
            ),
            (
                "TA/iTA (lists+skip+hash)".into(),
                vec![
                    mb(lists + skips + hashing),
                    format!("{:.1}", (lists + skips + hashing) as f64 / base as f64),
                ],
            ),
            (
                "NRA/iNRA (lists+skip)".into(),
                vec![
                    mb(lists + skips),
                    format!("{:.1}", (lists + skips) as f64 / base as f64),
                ],
            ),
            (
                "SF/Hybrid (lists+skip)".into(),
                vec![
                    mb(lists + skips),
                    format!("{:.1}", (lists + skips) as f64 / base as f64),
                ],
            ),
        ],
    );
    println!("\n# Expectation (paper): every approach is several times the base table;");
    println!("# SQL is largest; extendible hashing is a heavy extra cost paid only by TA/iTA.");
    println!("# Here SQL stores 24 B rows and no internal index levels, so it need not be");
    println!("# largest (EXPERIMENTS.md, Figure 5).");
}
