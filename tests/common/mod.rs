//! The one way the equivalence suites run a selection: a
//! [`SearchRequest`] through [`engine::execute`] on a fresh scratch.

use setsim::core::{
    engine, AlgoConfig, AlgorithmKind, InvertedIndex, PreparedQuery, Scratch, SearchOutcome,
    SearchRequest,
};

/// Run `kind` (under `config`) for `query` at threshold `tau`.
pub(crate) fn run(
    index: &InvertedIndex<'_>,
    kind: AlgorithmKind,
    config: AlgoConfig,
    query: &PreparedQuery,
    tau: f64,
) -> SearchOutcome {
    let req = SearchRequest::new(query)
        .tau(tau)
        .algorithm(kind)
        .config(config);
    engine::execute(index, &mut Scratch::default(), &req).expect("valid request")
}
