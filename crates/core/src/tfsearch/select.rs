use super::{TfIndex, TfQuery};
use crate::{passes, safely_below, validate_tau, Match, SearchOutcome, SearchStats, SetId};

/// Exhaustive TF/IDF-cosine selection (the oracle).
pub fn tf_scan(index: &TfIndex<'_>, query: &TfQuery, tau: f64) -> SearchOutcome {
    validate_tau(tau);
    let mut stats = SearchStats::default();
    let mut results = Vec::new();
    if query.is_empty() || query.norm == 0.0 {
        return SearchOutcome::complete(results, stats);
    }
    let collection = index.collection();
    for i in 0..collection.len() {
        let id = SetId(i as u32);
        // Base-table access, not a sorted list read: counted in
        // records_scanned so elements_read ≤ total_list_elements holds.
        stats.records_scanned += 1;
        let norm_s = index.norm(id);
        if norm_s == 0.0 {
            continue;
        }
        let m = collection.multiset(id);
        let dot: f64 = query
            .tokens
            .iter()
            .map(|qt| {
                let tf_s = m.tf(qt.token);
                f64::from(qt.tf_q) * f64::from(tf_s) * qt.idf_sq
            })
            .sum();
        let score = dot / (norm_s * query.norm);
        if passes(score, tau) {
            results.push(Match { id, score });
        }
    }
    SearchOutcome::complete(results, stats)
}

#[derive(Debug, Clone, Copy)]
struct Cand {
    id: SetId,
    norm: f64,
    lower: f64,
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
/// Exact results, boosted pruning.
///
/// # Panics
/// Panics if `tau` is outside `(0, 1]`.
pub fn tf_sf(index: &TfIndex<'_>, query: &TfQuery, tau: f64) -> SearchOutcome {
    validate_tau(tau);
    let mut stats = SearchStats::default();
    let mut results = Vec::new();
    if query.is_empty() || query.norm == 0.0 {
        return SearchOutcome::complete(results, stats);
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
        let Some(list) = index.list(query.tokens[i].token) else {
            unreachable!("prepared tf-query tokens always have lists")
        };
        let postings = list.postings();
        stats.total_list_elements += postings.len() as u64;
        let start = list.seek_norm(lo_seek);
        stats.elements_skipped += start as u64;
        let mu = lambdas[i].min(hi_cut);
        let w_factor = f64::from(query.tokens[i].tf_q) * query.tokens[i].idf_sq;

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
                let upper = c.lower + suffix[i + 1] / (c.norm * query.norm);
                if !safely_below(upper, tau) {
                    merged.push(c);
                }
            }
            let w = w_factor * f64::from(p.tf) / (p.norm * query.norm);
            if ci < cands.len() && key(cands[ci].norm, cands[ci].id) == key(p.norm, p.id) {
                let mut c = cands[ci];
                ci += 1;
                c.lower += w;
                merged.push(c);
            } else if p.norm <= lambdas[i] {
                stats.candidates_inserted += 1;
                merged.push(Cand {
                    id: p.id,
                    norm: p.norm,
                    lower: w,
                });
            }
        }
        while ci < cands.len() {
            let c = cands[ci];
            ci += 1;
            stats.candidate_scan_steps += 1;
            let upper = c.lower + suffix[i + 1] / (c.norm * query.norm);
            if !safely_below(upper, tau) {
                merged.push(c);
            }
        }
        cands = merged;
    }
    for c in cands {
        if passes(c.lower, tau) {
            results.push(Match {
                id: c.id,
                score: c.lower,
            });
        }
    }
    SearchOutcome::complete(results, stats)
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
                let oracle = tf_scan(&idx, &q, tau);
                let got = tf_sf(&idx, &q, tau);
                assert_eq!(got.ids_sorted(), oracle.ids_sorted(), "q={qtext} tau={tau}");
                // Exact scores.
                let mut want: Vec<_> = oracle.results.clone();
                want.sort_by_key(|m| m.id);
                let mut have = got.results.clone();
                have.sort_by_key(|m| m.id);
                for (a, b) in have.iter().zip(&want) {
                    assert!((a.score - b.score).abs() < 1e-9);
                }
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
        let out = tf_scan(&idx, &q, 0.01).sorted_by_score();
        assert_eq!(out[0].id, SetId(0));
        assert!((out[0].score - 1.0).abs() < 1e-9);
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
            let out = tf_sf(&idx, &q, 1.0);
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
        let out = tf_sf(&idx, &q, 0.8);
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
        assert!(tf_sf(&idx, &q, 0.5).results.is_empty());
        assert!(tf_scan(&idx, &q, 0.5).results.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_tau_panics() {
        let c = words(&["alpha"]);
        let idx = TfIndex::build(&c);
        let q = idx.prepare_query_str("alpha");
        let _ = tf_sf(&idx, &q, 0.0);
    }
}
