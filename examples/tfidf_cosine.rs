//! TF-aware cosine search (the `tfsearch` extension).
//!
//! The IDF measure drops term frequencies because relational strings
//! rarely repeat tokens. When they do repeat — longer documents, 2-grams
//! of repetitive strings — TF/IDF cosine distinguishes frequency
//! profiles, and `tfsearch` runs selections under it with every bound
//! boosted by per-token maximum frequencies (the paper's Section IV
//! closing remark, implemented).
//!
//! ```sh
//! cargo run --release --example tfidf_cosine
//! ```

use setsim::core::tfsearch::{tf_scan, tf_sf, TfIndex};
use setsim::core::CollectionBuilder;
use setsim::tokenize::WordTokenizer;
use std::time::Instant;

fn main() {
    // Word-level records with meaningful term frequencies.
    let records = [
        "to be or not to be",
        "to be is to do",
        "do be do be do",
        "not to be",
        "to do is to be",
        "be",
        "do or do not",
    ];
    let mut builder = CollectionBuilder::new(WordTokenizer::new().with_lowercase());
    builder.extend(records);
    let collection = builder.build();
    let index = TfIndex::build(&collection);

    let query_text = "to be or not to be";
    let query = index.prepare_query_str(query_text);
    println!("query: {query_text:?}  (norm {:.3})", query.norm);
    println!("boosted norm window at tau=0.5: {:?}", {
        let (lo, hi) = query.norm_bounds(0.5);
        (format!("{lo:.3}"), format!("{hi:.3}"))
    });

    for tau in [0.9, 0.6, 0.3] {
        let t = Instant::now();
        let out = tf_sf(&index, &query, tau).expect("tau lies in (0, 1]");
        let elapsed = t.elapsed();
        let oracle = tf_scan(&index, &query, tau).expect("tau lies in (0, 1]");
        // The exhaustive oracle agrees, score bits included.
        assert_eq!(
            oracle.bits_sorted(),
            out.bits_sorted(),
            "boosted SF must match the oracle"
        );
        let results = out.sorted_by_score();
        println!(
            "\ntau = {tau}: {} match(es) in {elapsed:.2?}",
            results.len()
        );
        for m in &results {
            println!("  {:5.3}  {:?}", m.score, collection.text(m.id).unwrap());
        }
    }

    // IDF (set semantics) cannot tell these apart; TF/IDF can.
    let a = index.prepare_query_str("do be do be do");
    let out = tf_sf(&index, &a, 0.99)
        .expect("tau lies in (0, 1]")
        .sorted_by_score();
    println!(
        "\nself-query of {:?} at tau=0.99 finds only itself: {:?}",
        "do be do be do",
        out.iter()
            .map(|m| collection.text(m.id).unwrap())
            .collect::<Vec<_>>()
    );
}
