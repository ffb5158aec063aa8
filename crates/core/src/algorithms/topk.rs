//! Top-k set similarity search (the paper's stated future work).
//!
//! Instead of a fixed threshold τ, return the `k` most similar sets. Both
//! variants run with a *dynamic* threshold: the k-th best lower bound seen
//! so far. As results accumulate the threshold rises, and the same
//! semantic properties (Magnitude and Length Boundedness relative to the
//! current threshold) prune the tail of every list.
//!
//! * [`topk_scan`](crate::algorithms::topk::topk_scan) — exhaustive oracle.
//! * [`topk_nra`](crate::algorithms::topk::topk_nra) — NRA-style round-robin with candidate bookkeeping.
//! * [`topk_sf`](crate::algorithms::topk::topk_sf) — restarted SF: run the threshold algorithm at a guessed
//!   τ, halve until k results survive. Exploits SF's extremely cheap
//!   individual runs; with a reasonable first guess it usually finishes in
//!   one or two passes.

use crate::algorithms::scan::exact_score;
use crate::engine::{check_query_width, execute, DetHashMap, Scratch, SearchError};
use crate::{
    InvertedIndex, Match, PreparedQuery, SearchOutcome, SearchRequest, SearchStats, SetId,
};

/// Exhaustive top-k oracle: score everything, keep the best `k`
/// (ties broken by ascending id).
pub fn topk_scan(index: &InvertedIndex<'_>, query: &PreparedQuery, k: usize) -> Vec<Match> {
    let mut all: Vec<Match> = (0..index.collection().len())
        .map(|i| {
            let id = SetId(i as u32);
            Match {
                id,
                score: exact_score(index, query, id),
            }
        })
        .filter(|m| m.score > 0.0)
        .collect();
    all.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

/// NRA-style top-k: round-robin sorted access, candidates kept with lower
/// and upper bounds, dynamic threshold = k-th best complete lower bound.
///
/// # Errors
/// [`SearchError::QueryTooWide`] if the query has more than
/// [`MAX_QUERY_LISTS`](crate::MAX_QUERY_LISTS) lists (the width of the
/// per-candidate seen-bitset).
pub fn topk_nra(
    index: &InvertedIndex<'_>,
    query: &PreparedQuery,
    k: usize,
) -> Result<SearchOutcome, SearchError> {
    check_query_width(query)?;
    let mut stats = SearchStats {
        total_list_elements: index.query_list_elements(query),
        ..Default::default()
    };
    if query.is_empty() || k == 0 {
        return Ok(SearchOutcome::complete(Vec::new(), stats));
    }

    struct Cand {
        lower: f64,
        len: f64,
        seen: u128,
    }

    let lists: Vec<&[crate::Posting]> = query
        .tokens
        .iter()
        .map(|qt| index.query_list(qt.token).postings())
        .collect();
    let n = lists.len();
    let mut pos = vec![0usize; n];
    let mut frontier = vec![f64::INFINITY; n];
    let mut candidates: DetHashMap<u32, Cand> = DetHashMap::default();
    // Completed results, maintained as a sorted (descending) vector capped
    // at k — small k keeps this cheap.
    let mut best: Vec<Match> = Vec::new();

    let threshold = |best: &Vec<Match>| -> f64 {
        if best.len() < k {
            0.0
        } else {
            best[k - 1].score
        }
    };

    loop {
        stats.rounds += 1;
        let mut any_read = false;
        for i in 0..n {
            if pos[i] >= lists[i].len() {
                continue;
            }
            let p = lists[i][pos[i]];
            pos[i] += 1;
            stats.elements_read += 1;
            any_read = true;
            frontier[i] = p.len;
            let w = query.tokens[i].idf_sq / (p.len * query.len);
            let e = candidates.entry(p.id.0).or_insert_with(|| {
                stats.candidates_inserted += 1;
                Cand {
                    lower: 0.0,
                    len: p.len,
                    seen: 0,
                }
            });
            e.lower += w;
            e.seen |= 1u128 << i;
        }

        let exhausted: Vec<bool> = (0..n).map(|i| pos[i] >= lists[i].len()).collect();
        let all_exhausted = exhausted.iter().all(|&e| e);
        let tau = threshold(&best);

        let mut to_remove = Vec::new();
        for (&id, c) in &candidates {
            stats.candidate_scan_steps += 1;
            let mut upper = c.lower;
            let mut complete = true;
            for i in 0..n {
                if c.seen & (1u128 << i) != 0 {
                    continue;
                }
                if exhausted[i] || c.len < frontier[i] {
                    continue; // Order Preservation / exhaustion
                }
                complete = false;
                upper += query.tokens[i].idf_sq / (c.len * query.len);
            }
            if complete {
                let m = Match {
                    id: SetId(id),
                    score: c.lower,
                };
                let at = best
                    .binary_search_by(|b| m.score.total_cmp(&b.score).then(b.id.cmp(&m.id)))
                    .unwrap_or_else(|e| e);
                best.insert(at, m);
                best.truncate(k.max(best.len().min(k)));
                best.truncate(k);
                to_remove.push(id);
            } else if best.len() == k && upper < tau {
                to_remove.push(id);
            }
        }
        for id in to_remove {
            candidates.remove(&id);
        }

        if all_exhausted {
            break;
        }
        // Unseen bound: can anything new still enter the top k?
        let f: f64 = (0..n)
            .map(|i| {
                if exhausted[i] {
                    0.0
                } else {
                    query.tokens[i].idf_sq / (frontier[i] * query.len)
                }
            })
            .sum();
        if best.len() == k && candidates.is_empty() && f < threshold(&best) {
            break;
        }
        if !any_read {
            break;
        }
    }

    Ok(SearchOutcome::complete(best, stats))
}

/// SF-based top-k: geometric threshold descent. Starts at `tau_guess`,
/// runs an SF selection (the [`SearchRequest`] default) and halves the
/// threshold until at least `k` results are found (or the floor is hit),
/// then keeps the best `k`.
///
/// # Panics
/// Panics if `tau_guess` is outside `(0, 1]`.
pub fn topk_sf(
    index: &InvertedIndex<'_>,
    query: &PreparedQuery,
    k: usize,
    tau_guess: f64,
) -> SearchOutcome {
    assert!(
        tau_guess > 0.0 && tau_guess <= 1.0,
        "initial guess must be in (0, 1]"
    );
    let mut stats = SearchStats::default();
    if query.is_empty() || k == 0 {
        return SearchOutcome::complete(Vec::new(), stats);
    }
    let mut scratch = Scratch::default();
    let mut tau = tau_guess;
    loop {
        let req = SearchRequest::new(query).tau(tau);
        let Ok(out) = execute(index, &mut scratch, &req) else {
            unreachable!("tau stays in (0, 1] and SF has no width limit")
        };
        stats.merge(&out.stats);
        if out.results.len() >= k || tau <= 1e-6 {
            let mut results = out.results;
            results.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
            results.truncate(k);
            return SearchOutcome::complete(results, stats);
        }
        tau *= 0.5;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectionBuilder, IndexOptions, MAX_QUERY_LISTS};
    use setsim_tokenize::QGramTokenizer;

    fn setup(texts: &[&str]) -> crate::SetCollection {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        b.build()
    }

    fn assert_topk_matches(got: &[Match], want: &[Match]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            // Scores must agree; ids may differ only on exact ties.
            assert!((g.score - w.score).abs() < 1e-9, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn nra_topk_matches_oracle() {
        let c = setup(&[
            "main street",
            "main st",
            "maine street",
            "park avenue",
            "main street east",
            "maine",
        ]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        for text in ["main street", "maine st"] {
            let q = idx.prepare_query_str(text);
            for k in [1, 2, 3, 5, 10] {
                let oracle = topk_scan(&idx, &q, k);
                let got = topk_nra(&idx, &q, k).unwrap();
                assert_topk_matches(&got.results, &oracle);
            }
        }
    }

    #[test]
    fn sf_topk_matches_oracle() {
        let c = setup(&[
            "main street",
            "main st",
            "maine street",
            "park avenue",
            "main street east",
            "maine",
        ]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        for text in ["main street", "park"] {
            let q = idx.prepare_query_str(text);
            for k in [1, 3, 5] {
                let oracle = topk_scan(&idx, &q, k);
                let got = topk_sf(&idx, &q, k, 0.9);
                assert_topk_matches(&got.results, &oracle);
            }
        }
    }

    #[test]
    fn k_zero_and_empty_query() {
        // 127 distinct characters pad to 129 distinct 3-grams.
        let wide: String = (0..127u32)
            .filter_map(|i| char::from_u32(0x4e00 + i))
            .collect();
        let c = setup(&["abcd", &wide]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcd");
        assert!(topk_nra(&idx, &q, 0).unwrap().results.is_empty());
        assert!(topk_sf(&idx, &q, 0, 0.5).results.is_empty());
        let empty = idx.prepare_query_str("");
        assert!(topk_nra(&idx, &empty, 3).unwrap().results.is_empty());
        let wide = idx.prepare_query_str(&wide);
        assert_eq!(wide.num_lists(), MAX_QUERY_LISTS + 1);
        assert_eq!(
            topk_nra(&idx, &wide, 3).unwrap_err(),
            SearchError::QueryTooWide {
                lists: MAX_QUERY_LISTS + 1,
                max: MAX_QUERY_LISTS
            }
        );
    }

    #[test]
    fn k_larger_than_matches() {
        let c = setup(&["abcd", "zzzz"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcd");
        let got = topk_nra(&idx, &q, 10).unwrap();
        // Only one record overlaps the query at all.
        assert_eq!(got.results.len(), 1);
    }

    #[test]
    fn results_sorted_descending() {
        let c = setup(&["abcdef", "abcdeg", "abcxyz", "qrstuv"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let got = topk_nra(&idx, &q, 3).unwrap();
        for w in got.results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
