//! Top-k similarity search (the paper's stated future-work extension).
//!
//! Instead of a threshold, retrieve the k most similar sets. Shows the
//! NRA-style top-k with a dynamic threshold and the SF-based geometric
//! descent, and verifies both against the exhaustive oracle.
//!
//! ```sh
//! cargo run --release --example topk_search
//! ```

use setsim::core::algorithms::topk::{topk_nra, topk_scan, topk_sf};
use setsim::core::{CollectionBuilder, IndexOptions, InvertedIndex, Match};
use setsim::datagen::{Corpus, CorpusConfig};
use setsim::tokenize::QGramTokenizer;
use std::time::Instant;

fn main() {
    let corpus = Corpus::generate(&CorpusConfig {
        num_records: 10_000,
        vocab_size: 5_000,
        seed: 21,
        ..CorpusConfig::default()
    });
    let mut builder = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for w in corpus.words() {
        builder.add(w);
    }
    let collection = builder.build();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    println!("indexed {} word occurrences", collection.len());

    let query_word = corpus
        .words()
        .find(|w| w.len() >= 9)
        .expect("a long word exists");
    let query = index.prepare_query_str(query_word);
    let k = 10;

    let t = Instant::now();
    let oracle = topk_scan(&index, &query, k);
    let t_oracle = t.elapsed();

    let t = Instant::now();
    let nra = topk_nra(&index, &query, k).expect("a word query is narrow");
    let t_nra = t.elapsed();

    let t = Instant::now();
    let sf = topk_sf(&index, &query, k, 0.9).expect("0.9 lies in (0, 1]");
    let t_sf = t.elapsed();

    println!("\ntop-{k} for {query_word:?}:");
    println!("  rank  scan            nra             sf");
    #[allow(clippy::needless_range_loop)] // indexes three result lists in parallel
    for i in 0..k.min(oracle.len()) {
        let w = |id: setsim::core::SetId| collection.text(id).unwrap_or("-").to_string();
        println!(
            "  {:>4}  {:<14}  {:<14}  {:<14}",
            i + 1,
            format!("{} {:.3}", w(oracle[i].id), oracle[i].score),
            nra.results
                .get(i)
                .map(|m| format!("{} {:.3}", w(m.id), m.score))
                .unwrap_or_default(),
            sf.results
                .get(i)
                .map(|m| format!("{} {:.3}", w(m.id), m.score))
                .unwrap_or_default(),
        );
    }
    // Every rank's score agrees to the bit (ids may differ only on ties).
    let bits = |ms: &[Match]| ms.iter().map(|m| m.score.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&nra.results),
        bits(&oracle),
        "nra disagrees with oracle"
    );
    assert_eq!(bits(&sf.results), bits(&oracle), "sf disagrees with oracle");
    println!("\nall three agree.");
    println!(
        "timing: scan {t_oracle:.2?}, nra-topk {t_nra:.2?} ({} elements), sf-topk {t_sf:.2?} ({} elements)",
        nra.stats.elements_read, sf.stats.elements_read
    );
}
