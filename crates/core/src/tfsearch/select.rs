use super::{TfIndex, TfQuery, TfQueryToken};
use crate::{passes, safely_below, Match, SearchError, SearchOutcome, SearchStats, SetId, Tau};

/// `tf_q·tf_s·idf²`: token `qt`'s term against a set holding it `tf_s` times.
#[inline]
fn tf_term(qt: &TfQueryToken, tf_s: u32) -> f64 {
    f64::from(qt.tf_q) * f64::from(tf_s) * qt.idf_sq
}

/// The tf-aware cosine `T(q, s)` of set `id`, computed one way: its
/// query tokens' terms summed in query-token order, divided once by
/// `‖s‖·‖q‖`. The tf counterpart of the IDF path's `canonical_score`:
/// [`tf_scan`] reports it, and [`tf_sf`]'s emissions equal it bit for bit.
fn tf_score(index: &TfIndex<'_>, query: &TfQuery, id: SetId) -> f64 {
    let m = index.collection().multiset(id);
    let mut dot = 0.0;
    for qt in &query.tokens {
        dot += tf_term(qt, m.tf(qt.token));
    }
    if dot == 0.0 {
        return 0.0;
    }
    dot / (index.norm(id) * query.norm)
}

/// Exhaustive TF/IDF-cosine selection (the oracle).
///
/// # Errors
/// [`SearchError::InvalidTau`] if `tau` is outside `(0, 1]`.
pub fn tf_scan(
    index: &TfIndex<'_>,
    query: &TfQuery,
    tau: f64,
) -> Result<SearchOutcome, SearchError> {
    Tau::try_from(tau)?;
    let mut stats = SearchStats::default();
    let mut results = Vec::new();
    if query.is_empty() || query.norm == 0.0 {
        return Ok(SearchOutcome::complete(results, stats));
    }
    for i in 0..index.collection().len() {
        let id = SetId(i as u32);
        // Base-table access, not a sorted list read: counted in
        // records_scanned so elements_read ≤ total_list_elements holds.
        stats.records_scanned += 1;
        let score = tf_score(index, query, id);
        if passes(score, tau) {
            results.push(Match { id, score });
        }
    }
    Ok(SearchOutcome::complete(results, stats))
}

#[derive(Debug, Clone, Copy)]
struct Cand {
    id: SetId,
    norm: f64,
    /// Undivided `Σ tf_q·tf_s·idf²` over the lists the set was found in,
    /// in list order (= query-token order): `tf_score`'s numerator.
    dot: f64,
}

#[inline]
fn key(norm: f64, id: SetId) -> (u64, u32) {
    (norm.to_bits(), id.0)
}

/// Shortest-First selection for TF/IDF cosine, with every bound boosted by
/// the per-token maximum term frequency (Section IV's closing remark,
/// realized).
///
/// Identical control flow to SF (`AlgorithmKind::Sf`, Algorithm 3): lists in
/// descending boost order, λᵢ cutoffs from boost suffix sums, one merge
/// pass per list against a `(norm, id)`-sorted candidate list. The only
/// loosening is that upper bounds use `tf_q·M_t·idf²` instead of the
/// (tf-free) exact `idf²`, so slightly more candidates survive until their
/// actual tf contributions resolve them.
///
/// Exact results, boosted pruning: every emitted score is [`tf_scan`]'s,
/// bit for bit.
///
/// # Errors
/// [`SearchError::InvalidTau`] if `tau` is outside `(0, 1]`.
pub fn tf_sf(index: &TfIndex<'_>, query: &TfQuery, tau: f64) -> Result<SearchOutcome, SearchError> {
    Tau::try_from(tau)?;
    let mut stats = SearchStats::default();
    let mut results = Vec::new();
    if query.is_empty() || query.norm == 0.0 {
        return Ok(SearchOutcome::complete(results, stats));
    }
    let n = query.num_lists();
    let (norm_lo, norm_hi) = query.norm_bounds(tau);
    let lo_seek = norm_lo * (1.0 - crate::EPS_REL);
    let hi_cut = norm_hi * (1.0 + crate::EPS_REL);
    let suffix = query.boost_suffix_sums();
    // λᵢ: the largest norm a NEW candidate first discovered in list i
    // can have — its best case is suffix(i)/(norm·‖q‖).
    let lambdas: Vec<f64> = (0..n)
        .map(|i| (suffix[i] / (tau * query.norm)) * (1.0 + crate::EPS_REL))
        .collect();

    let mut cands: Vec<Cand> = Vec::new();
    for i in 0..n {
        stats.rounds += 1;
        let qt = &query.tokens[i];
        let Some(list) = index.list(qt.token) else {
            unreachable!("prepared tf-query tokens always have lists")
        };
        let postings = list.postings();
        stats.total_list_elements += postings.len() as u64;
        let start = list.seek_norm(lo_seek);
        stats.elements_skipped += start as u64;
        let mu = lambdas[i].min(hi_cut);

        let mut merged: Vec<Cand> = Vec::with_capacity(cands.len());
        let mut ci = 0usize;
        let mut pos = start;
        loop {
            let tail_max = if ci < cands.len() {
                cands[cands.len() - 1].norm
            } else {
                f64::NEG_INFINITY
            };
            let bound = mu.max(tail_max);
            if pos >= postings.len() {
                break;
            }
            let p = postings[pos];
            if p.norm > bound {
                break;
            }
            pos += 1;
            stats.elements_read += 1;

            while ci < cands.len() && key(cands[ci].norm, cands[ci].id) < key(p.norm, p.id) {
                let c = cands[ci];
                ci += 1;
                stats.candidate_scan_steps += 1;
                let upper = (c.dot + suffix[i + 1]) / (c.norm * query.norm);
                if !safely_below(upper, tau) {
                    merged.push(c);
                }
            }
            let term = tf_term(qt, p.tf);
            if ci < cands.len() && key(cands[ci].norm, cands[ci].id) == key(p.norm, p.id) {
                let mut c = cands[ci];
                ci += 1;
                c.dot += term;
                merged.push(c);
            } else if p.norm <= lambdas[i] {
                stats.candidates_inserted += 1;
                merged.push(Cand {
                    id: p.id,
                    norm: p.norm,
                    dot: term,
                });
            }
        }
        while ci < cands.len() {
            let c = cands[ci];
            ci += 1;
            stats.candidate_scan_steps += 1;
            let upper = (c.dot + suffix[i + 1]) / (c.norm * query.norm);
            if !safely_below(upper, tau) {
                merged.push(c);
            }
        }
        cands = merged;
    }
    for c in cands {
        let score = c.dot / (c.norm * query.norm);
        debug_assert_eq!(score.to_bits(), tf_score(index, query, c.id).to_bits());
        if passes(score, tau) {
            results.push(Match { id: c.id, score });
        }
    }
    Ok(SearchOutcome::complete(results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectionBuilder;
    use setsim_tokenize::{QGramTokenizer, WordTokenizer};

    fn words(texts: &[&str]) -> crate::SetCollection {
        let mut b = CollectionBuilder::new(WordTokenizer::new().with_lowercase());
        b.extend(texts.iter().copied());
        b.build()
    }

    fn check_agreement(c: &crate::SetCollection, queries: &[&str], taus: &[f64]) {
        let idx = TfIndex::build(c);
        for qtext in queries {
            let q = idx.prepare_query_str(qtext);
            for &tau in taus {
                let oracle = tf_scan(&idx, &q, tau).unwrap();
                let got = tf_sf(&idx, &q, tau).unwrap();
                assert_eq!(
                    got.bits_sorted(),
                    oracle.bits_sorted(),
                    "q={qtext} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_scan_on_words() {
        let c = words(&[
            "main main st",
            "main st",
            "main st st",
            "maine st",
            "park avenue",
            "main",
        ]);
        check_agreement(
            &c,
            &["main st", "main main st", "maine", "park avenue avenue"],
            &[0.2, 0.5, 0.8, 1.0],
        );
    }

    #[test]
    fn agrees_with_scan_on_qgrams() {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(2));
        // 2-grams of strings with repeated substrings produce tf > 1.
        b.extend([
            "abab",
            "ababab",
            "abcabc",
            "aabbaabb",
            "abcdef",
            "aaaa",
            "abab abab",
        ]);
        let c = b.build();
        check_agreement(
            &c,
            &["abab", "abcabc", "aaaa", "abcd"],
            &[0.3, 0.6, 0.9, 1.0],
        );
    }

    #[test]
    fn tf_discrepancy_lowers_score() {
        // The paper's s1/s2 intuition: higher tf discrepancy, lower cosine.
        let c = words(&["main main st", "main st"]);
        let idx = TfIndex::build(&c);
        let q = idx.prepare_query_str("main main st");
        let out = tf_scan(&idx, &q, 0.01).unwrap().sorted_by_score();
        assert_eq!(out[0].id, SetId(0));
        assert!(passes(out[0].score, 1.0));
        assert!(out[1].score < 1.0 - 1e-6);
    }

    #[test]
    fn self_similarity_is_one() {
        let c = words(&["alpha alpha beta", "gamma delta", "beta beta beta"]);
        let idx = TfIndex::build(&c);
        for (texts_i, text) in ["alpha alpha beta", "gamma delta", "beta beta beta"]
            .iter()
            .enumerate()
        {
            let q = idx.prepare_query_str(text);
            let out = tf_sf(&idx, &q, 1.0).unwrap();
            assert!(
                out.results.iter().any(|m| m.id.index() == texts_i),
                "self match lost for {text:?}"
            );
        }
    }

    #[test]
    fn boosted_bounds_still_prune() {
        // Every filler contains the query token "word" but at a much
        // larger tf-weighted norm, so the boosted length bounds exclude it.
        let mut texts: Vec<String> = (0..300)
            .map(|i| format!("filler{i:03} word {}", "pad ".repeat(3 + i % 20)))
            .collect();
        texts.push("needle word".into());
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = words(&refs);
        let idx = TfIndex::build(&c);
        let q = idx.prepare_query_str("needle word");
        let out = tf_sf(&idx, &q, 0.8).unwrap();
        assert!(!out.results.is_empty());
        assert!(
            out.stats.elements_read < out.stats.total_list_elements,
            "boosted bounds must still prune something"
        );
    }

    #[test]
    fn empty_query() {
        let c = words(&["alpha"]);
        let idx = TfIndex::build(&c);
        let q = idx.prepare_query_str("");
        assert!(tf_sf(&idx, &q, 0.5).unwrap().results.is_empty());
        assert!(tf_scan(&idx, &q, 0.5).unwrap().results.is_empty());
    }
}
