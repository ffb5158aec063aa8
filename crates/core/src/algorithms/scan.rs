use crate::algorithms::canonical_score;
use crate::engine::SearchCtx;
use crate::{Match, SearchStatus};

/// Exhaustive scan: scores every database set directly from the base
/// table. `O(N · |q|)`, no index structures used.
///
/// This is the correctness oracle for every other algorithm, and the
/// behaviour of the relational baseline when no index is available (which
/// the paper reports as "did not terminate in a reasonable amount of
/// time" at their scale).
pub(crate) fn search(ctx: &mut SearchCtx<'_, '_>) {
    let index = ctx.index;
    let query = ctx.query;
    let tau = ctx.tau;
    let budget = ctx.budget;
    let scratch = &mut *ctx.scratch;
    scratch.stats.total_list_elements = index.query_list_elements(query);
    if query.is_empty() || query.len == 0.0 {
        return;
    }
    for (id, set) in index.collection().iter_sets() {
        if budget.exceeded(&scratch.stats) {
            scratch.status = SearchStatus::BudgetExceeded;
            return;
        }
        // Base-table access, not a sorted list read: counted in
        // records_scanned so the pruning invariant
        // elements_read ≤ total_list_elements holds.
        scratch.stats.records_scanned += 1;
        let score = canonical_score(query, index.set_len(id), |i| {
            set.contains(query.tokens[i].token)
        });
        if crate::passes(score, tau) {
            scratch.results.push(Match { id, score });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::algorithms::test_support::run;
    use crate::{AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, SetId};
    use setsim_tokenize::QGramTokenizer;

    fn setup(texts: &[&str]) -> crate::SetCollection {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        b.build()
    }

    #[test]
    fn exact_match_scores_one() {
        let c = setup(&["main street", "park avenue"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("main street");
        let out = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, 0.99);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].id, SetId(0));
        assert!(crate::passes(out.results[0].score, 1.0));
    }

    #[test]
    fn tau_one_returns_only_exact() {
        let c = setup(&["abcdef", "abcdeg", "abcdef"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, 1.0);
        assert_eq!(out.ids_sorted(), vec![SetId(0), SetId(2)]);
    }

    #[test]
    fn low_tau_returns_everything_overlapping() {
        let c = setup(&["abcdef", "defghi", "zzzzzz"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, 0.01);
        // zzzzzz shares no grams.
        assert_eq!(out.ids_sorted(), vec![SetId(0), SetId(1)]);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let c = setup(&["abcdef"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("");
        let out = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, 0.5);
        assert!(out.results.is_empty());
    }

    #[test]
    fn exact_score_agrees_with_scan() {
        let c = setup(&["abcdef", "abcxyz", "qrstuv"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, 0.0001);
        assert_eq!(out.results.len(), 2);
        for m in &out.results {
            let exact = crate::algorithms::table_score(&idx, &q, m.id);
            assert_eq!(exact.to_bits(), m.score.to_bits());
        }
    }
}
