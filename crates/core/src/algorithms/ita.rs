use crate::algorithms::canonical_score;
use crate::algorithms::AlgoConfig;
use crate::engine::SearchCtx;
use crate::{properties, safely_below, Match, SearchStatus};

/// The improved Threshold Algorithm (Section V's "iTA").
///
/// TA plus the semantic properties of IDF:
///
/// * **Length Boundedness** — every list is seeked to the first posting
///   with `len ≥ τ·len(q)` (via the skip list when available) and closed
///   once the frontier passes `len(q)/τ`.
/// * **Magnitude Boundedness** — when a new set surfaces, its exact
///   best-case score `Σⱼ wⱼ(s)` is computed from its length *before* any
///   random access; if it cannot reach τ, the `n − 1` hash probes are
///   skipped entirely.
///
/// iTA retains the highest pruning power in Figure 7 but pays a random
/// I/O per probe, which keeps it behind SF/iNRA on wall-clock time.
pub(crate) fn search(ctx: &mut SearchCtx<'_, '_>, config: AlgoConfig) {
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
    let (len_lo, len_hi) = properties::length_bounds(tau, query.len);
    let hi_cut = len_hi * (1.0 + crate::EPS_REL);

    scratch.pos.resize(n, 0);
    scratch.closed.resize(n, false);
    scratch.frontier.resize(n, 0.0);
    for (i, l) in lists.iter().enumerate() {
        scratch.pos[i] = if config.length_bounding {
            l.seek_len(
                len_lo * (1.0 - crate::EPS_REL),
                config.use_skip_lists,
                &mut scratch.stats,
            )
        } else {
            0
        };
        scratch.closed[i] = scratch.pos[i] >= l.len();
    }

    loop {
        if budget.exceeded(&scratch.stats) {
            scratch.status = SearchStatus::BudgetExceeded;
            return;
        }
        scratch.stats.rounds += 1;
        let mut any_read = false;
        for i in 0..n {
            if scratch.closed[i] {
                continue;
            }
            let postings = lists[i].postings();
            let p = postings[scratch.pos[i]];
            scratch.pos[i] += 1;
            scratch.stats.elements_read += 1;
            any_read = true;
            scratch.frontier[i] = p.len;
            if scratch.pos[i] >= postings.len() {
                scratch.closed[i] = true;
            }
            if config.length_bounding && p.len > hi_cut {
                scratch.closed[i] = true;
                continue;
            }
            if !scratch.seen.insert(p.id.0) {
                continue;
            }
            // Magnitude Boundedness: exact best case before probing.
            let best = properties::max_score(query.idf_sq_total, p.len, query.len);
            if safely_below(best, tau) {
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
            break;
        }
        let f: f64 = (0..n)
            .map(|i| {
                if scratch.closed[i] {
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
    fn agrees_with_scan_all_configs() {
        let c = setup(&[
            "main street",
            "main st",
            "maine street",
            "park avenue",
            "main street east",
            "maine",
            "mainstreet",
        ]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let configs = [
            AlgoConfig::full(),
            AlgoConfig::no_skip_lists(),
            AlgoConfig::no_length_bounding(),
        ];
        for text in ["main street", "maine", "park avenue", "main"] {
            let q = idx.prepare_query_str(text);
            for tau in [0.2, 0.5, 0.8, 1.0] {
                let oracle = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau);
                for cfg in configs {
                    let got = run(&idx, AlgorithmKind::ITa, cfg, &q, tau);
                    assert_eq!(
                        got.ids_sorted(),
                        oracle.ids_sorted(),
                        "q={text} tau={tau} cfg={cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn reads_fewer_elements_than_ta() {
        // Length ladder sharing grams: the query matches a mid-length
        // prefix, so Length Boundedness lets iTA skip the short prefix of
        // every list and close past the window, while TA grinds from the
        // top of each list.
        // 30 variants per length level: lists get long, the short levels
        // keep TA's frontier bound high (many cheap reads), while iTA's
        // skip-list seek jumps straight to the length window.
        let seq = super::super::test_support::pseudoseq(100);
        let mut texts: Vec<String> = Vec::new();
        for i in 3..90 {
            for j in 0..30 {
                texts.push(format!("{}q{j:02}", &seq[..i]));
            }
        }
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str(&format!("{}q05", &seq[..60]));
        let ta = run(&idx, AlgorithmKind::Ta, AlgoConfig::full(), &q, 0.98);
        let ita = run(&idx, AlgorithmKind::ITa, AlgoConfig::full(), &q, 0.98);
        assert_eq!(ta.ids_sorted(), ita.ids_sorted());
        assert!(
            3 * ita.stats.elements_read < 2 * ta.stats.elements_read,
            "iTA ({}) should read well under TA ({})",
            ita.stats.elements_read,
            ta.stats.elements_read
        );
        assert!(ita.stats.random_probes <= ta.stats.random_probes);
    }

    #[test]
    fn magnitude_bound_suppresses_probes() {
        // Query much shorter than most sets: most postings fail the
        // magnitude bound at tau=0.9 and must not trigger probes.
        let mut texts: Vec<String> = (0..100).map(|i| format!("abcdefghijklm{i:03}")).collect();
        texts.push("abcdef".into());
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::ITa, AlgoConfig::full(), &q, 0.9);
        assert_eq!(out.results.len(), 1);
        // Far fewer probes than (reads × lists).
        assert!(out.stats.random_probes < out.stats.elements_read);
    }

    #[test]
    fn empty_query() {
        let c = setup(&["abcd"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("");
        assert!(run(&idx, AlgorithmKind::ITa, AlgoConfig::full(), &q, 0.5)
            .results
            .is_empty());
    }
}
