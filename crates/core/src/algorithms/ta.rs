use crate::algorithms::canonical_score;
use crate::engine::SearchCtx;
use crate::{safely_below, Match, SearchStatus};

/// The classic Threshold Algorithm (Fagin et al.) adapted to selection
/// queries.
///
/// Round-robin sorted access over the weight-sorted lists; every newly
/// seen set's score is completed immediately by random-access probes
/// (extendible-hash membership tests) into every other list. The search
/// stops when the frontier bound `F = Σᵢ wᵢ(fᵢ)` — the best score any
/// unseen set could attain — drops below τ.
///
/// TA needs no candidate set, but pays `n − 1` random probes per new set,
/// which is what makes it uncompetitive in Figure 6 (and why extendible
/// hashing dominates the index budget in Figure 5).
pub(crate) fn search(ctx: &mut SearchCtx<'_, '_>) {
    let index = ctx.index;
    let query = ctx.query;
    let tau = ctx.tau;
    let budget = ctx.budget;
    let scratch = &mut *ctx.scratch;
    scratch.stats.total_list_elements = index.query_list_elements(query);
    if query.is_empty() {
        return;
    }

    let lists: Vec<&crate::index::PostingList> = query
        .tokens
        .iter()
        .map(|qt| index.query_list(qt.token))
        .collect();
    let n = lists.len();
    scratch.pos.resize(n, 0);
    scratch.frontier.resize(n, 0.0);

    loop {
        if budget.exceeded(&scratch.stats) {
            scratch.status = SearchStatus::BudgetExceeded;
            return;
        }
        scratch.stats.rounds += 1;
        let mut any_read = false;
        for i in 0..n {
            let postings = lists[i].postings();
            if scratch.pos[i] >= postings.len() {
                continue;
            }
            let p = postings[scratch.pos[i]];
            scratch.pos[i] += 1;
            scratch.stats.elements_read += 1;
            any_read = true;
            scratch.frontier[i] = p.len;
            if !scratch.seen.insert(p.id.0) {
                continue;
            }
            // Complete the score by probing every other list.
            let stats = &mut scratch.stats;
            let score = canonical_score(query, p.len, |j| {
                j == i || lists[j].contains_id(p.id, stats)
            });
            if crate::passes(score, tau) {
                scratch.results.push(Match { id: p.id, score });
            }
        }
        if !any_read {
            break; // every list exhausted
        }
        // Best possible score of a yet unseen set.
        let f: f64 = (0..n)
            .map(|i| {
                if scratch.pos[i] >= lists[i].len() {
                    0.0
                } else {
                    query.tokens[i].idf_sq / (scratch.frontier[i] * query.len)
                }
            })
            .sum();
        if safely_below(f, tau) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::algorithms::test_support::run;
    use crate::{AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex};
    use setsim_tokenize::QGramTokenizer;

    fn setup(texts: &[&str]) -> crate::SetCollection {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        b.build()
    }

    #[test]
    fn agrees_with_scan() {
        let c = setup(&[
            "main street",
            "main st",
            "maine street",
            "park avenue",
            "main street east",
            "maine",
        ]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        for text in ["main street", "maine", "park avenue", "main"] {
            let q = idx.prepare_query_str(text);
            for tau in [0.2, 0.5, 0.8, 1.0] {
                let a = run(&idx, AlgorithmKind::Ta, AlgoConfig::full(), &q, tau);
                let b = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau);
                assert_eq!(a.ids_sorted(), b.ids_sorted(), "q={text} tau={tau}");
            }
        }
    }

    #[test]
    fn issues_random_probes() {
        let c = setup(&["abcdef", "abcxyz", "qrstuv"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::Ta, AlgoConfig::full(), &q, 0.5);
        assert!(out.stats.random_probes > 0, "TA must probe");
    }

    #[test]
    fn early_stop_at_high_threshold() {
        // Every record contains the query's grams, but all except the
        // exact match are much longer: their postings sit deep in the
        // weight-sorted lists, so the frontier bound F collapses below a
        // high tau after a few accesses.
        let mut texts: Vec<String> = (0..200)
            .map(|i| format!("exactmatchword with plenty of extra junk {i:04}"))
            .collect();
        texts.push("exactmatchword".to_string());
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("exactmatchword");
        let out = run(&idx, AlgorithmKind::Ta, AlgoConfig::full(), &q, 0.95);
        assert_eq!(out.results.len(), 1);
        assert!(
            out.stats.elements_read < out.stats.total_list_elements,
            "TA read everything"
        );
    }

    #[test]
    fn empty_query() {
        let c = setup(&["abcd"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("");
        assert!(run(&idx, AlgorithmKind::Ta, AlgoConfig::full(), &q, 0.5)
            .results
            .is_empty());
    }
}
