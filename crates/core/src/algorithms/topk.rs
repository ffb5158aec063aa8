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

use crate::algorithms::{canonical_score, table_score};
use crate::engine::{check_query_width, execute, DetHashMap, Scratch, SearchError};
use crate::{
    safely_below, InvertedIndex, Match, PreparedQuery, SearchOutcome, SearchRequest, SearchStats,
    SetId, Tau,
};

/// Exhaustive top-k oracle: score everything, keep the best `k`
/// (ties broken by ascending id).
pub fn topk_scan(index: &InvertedIndex<'_>, query: &PreparedQuery, k: usize) -> Vec<Match> {
    let mut all: Vec<Match> = (0..index.collection().len())
        .map(|i| {
            let id = SetId(i as u32);
            Match {
                id,
                score: table_score(index, query, id),
            }
        })
        .filter(|m| m.score > 0.0)
        .collect();
    all.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

/// NRA-style top-k: round-robin sorted access, candidates kept with lower
/// and upper bounds, dynamic threshold = k-th best canonical score. A
/// candidate or the unseen frontier is dropped only when its bound is
/// safely below that threshold, so every reported score is a canonical
/// score and the top-k scores equal [`topk_scan`]'s bit for bit.
///
/// # Errors
/// [`SearchError::QueryTooWide`] if the query has more than
/// [`MAX_QUERY_LISTS`](crate::MAX_QUERY_LISTS) lists (the width of the
/// per-candidate seen-bitset); [`SearchError::ForeignQuery`] if it was
/// prepared against another index.
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

    let lists = query
        .tokens
        .iter()
        .map(|qt| match index.list(qt.token) {
            Some(list) => Ok(list.postings()),
            None => Err(SearchError::ForeignQuery { token: qt.token }),
        })
        .collect::<Result<Vec<_>, _>>()?;
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
                    score: canonical_score(query, c.len, |i| c.seen & (1u128 << i) != 0),
                };
                let at = best
                    .binary_search_by(|b| m.score.total_cmp(&b.score).then(b.id.cmp(&m.id)))
                    .unwrap_or_else(|e| e);
                best.insert(at, m);
                best.truncate(k.max(best.len().min(k)));
                best.truncate(k);
                to_remove.push(id);
            } else if best.len() == k && safely_below(upper, tau) {
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
        if best.len() == k && candidates.is_empty() && safely_below(f, threshold(&best)) {
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
/// # Errors
/// [`SearchError::InvalidTau`] if `tau_guess` is outside `(0, 1]`;
/// [`SearchError::ForeignQuery`] if the query was prepared against
/// another index.
pub fn topk_sf(
    index: &InvertedIndex<'_>,
    query: &PreparedQuery,
    k: usize,
    tau_guess: f64,
) -> Result<SearchOutcome, SearchError> {
    let mut tau = Tau::try_from(tau_guess)?.get();
    let mut stats = SearchStats::default();
    if query.is_empty() || k == 0 {
        return Ok(SearchOutcome::complete(Vec::new(), stats));
    }
    let mut scratch = Scratch::default();
    loop {
        let out = execute(index, &mut scratch, &SearchRequest::new(query).tau(tau))?;
        stats.merge(&out.stats);
        if out.results.len() >= k || tau <= 1e-6 {
            let mut results = out.results;
            results.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
            results.truncate(k);
            return Ok(SearchOutcome::complete(results, stats));
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
            // Scores must agree to the bit; ids may differ only on ties.
            assert_eq!(g.score.to_bits(), w.score.to_bits(), "{g:?} vs {w:?}");
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
                let got = topk_sf(&idx, &q, k, 0.9).unwrap();
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
        assert!(topk_sf(&idx, &q, 0, 0.5).unwrap().results.is_empty());
        let empty = idx.prepare_query_str("");
        assert!(topk_nra(&idx, &empty, 3).unwrap().results.is_empty());
        let wide = idx.prepare_query_str(&wide);
        assert_eq!(wide.num_lists(), MAX_QUERY_LISTS + 1);
        assert!(matches!(
            topk_nra(&idx, &wide, 3).unwrap_err(),
            SearchError::QueryTooWide { lists, max }
                if lists == MAX_QUERY_LISTS + 1 && max == MAX_QUERY_LISTS
        ));
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
