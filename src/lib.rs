//! # setsim — fast set similarity selection queries
//!
//! Facade crate for the `setsim` workspace, a from-scratch Rust
//! implementation of *"Fast Indexes and Algorithms for Set Similarity
//! Selection Queries"* (Hadjieleftheriou, Chandel, Koudas, Srivastava,
//! ICDE 2008).
//!
//! The individual pieces live in focused crates and are re-exported here:
//!
//! * [`tokenize`] — q-gram/word tokenizers and token interning.
//! * [`collections`] — skip list, extendible hashing, B+-tree substrates.
//! * [`relational`] — the mini relational engine behind the SQL baseline.
//! * [`storage`] — the checksummed snapshot container behind
//!   `InvertedIndex::save`/`load`, the verifying LRU buffer pool and
//!   demand-paged snapshot reader behind `QueryEngine::open_paged`, and
//!   the sequential/random page-read tallies and cost models the physical
//!   I/O experiment prices.
//! * [`datagen`] — synthetic corpora, error models, and query workloads.
//! * [`core`] — similarity measures, the inverted index, the
//!   TA/NRA-family selection algorithms (TA, NRA, iTA, iNRA, SF, Hybrid)
//!   selected by `AlgorithmKind`, and the serving layer: a persistent `QueryEngine` with reusable
//!   scratch memory, work-stealing batches, per-query budgets, and
//!   latency/pruning metrics behind the `SearchRequest` builder API —
//!   plus cold-start `QueryEngine::open` from a saved snapshot.
//!
//! ## Quickstart
//!
//! ```
//! use setsim::core::{AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex,
//!                    QueryEngine, SearchRequest};
//! use setsim::tokenize::QGramTokenizer;
//!
//! let tok = QGramTokenizer::new(3).with_padding('#');
//! let mut builder = CollectionBuilder::new(tok);
//! for s in ["main street", "main st", "maine street", "park avenue"] {
//!     builder.add(s);
//! }
//! let collection = builder.build();
//! let index = InvertedIndex::build(&collection, IndexOptions::default());
//!
//! let mut engine = QueryEngine::new(index);
//! let query = engine.prepare_query_str("main street");
//! let out = engine
//!     .search(SearchRequest::new(&query).tau(0.5).algorithm(AlgorithmKind::Sf))
//!     .expect("valid request");
//! let results = out.sorted_by_score();
//! assert_eq!(collection.text(results[0].id), Some("main street"));
//! assert!((results[0].score - 1.0).abs() < 1e-9);
//! ```

pub use setsim_collections as collections;
pub use setsim_core as core;
pub use setsim_datagen as datagen;
pub use setsim_relational as relational;
pub use setsim_storage as storage;
pub use setsim_tokenize as tokenize;

#[cfg(test)]
mod lints;
