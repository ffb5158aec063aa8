//! The prefix-filter baseline (Chaudhuri et al., discussed in Section IX).
//!
//! The paper's Related Work notes the Prefix Filter "can be modified to
//! work for all weighted similarity measures for selection queries", and
//! claims it is subsumed by the SQL/B-tree approach. This module makes
//! that comparison concrete for the IDF measure.
//!
//! **Principle.** Fix a global token order (descending idf). For a set
//! `s`, its *prefix* is the shortest head of `s` in that order whose
//! removal would leave suffix mass `Σ idf² < τ_min²·len(s)²`. If
//! `I(q, s) ≥ τ ≥ τ_min` then, combining the score bound with Theorem 1's
//! `len(q) ≥ τ·len(s)`:
//!
//! ```text
//! Σ_{t∈q∩s} idf(t)²  =  I·len(s)·len(q)  ≥  τ²·len(s)²  ≥  τ_min²·len(s)²,
//! ```
//!
//! so `q` must hit the prefix — indexing only prefix tokens cannot lose a
//! result. The index is therefore much smaller than full inverted lists,
//! but every candidate surfaced must be **verified** with an exact score
//! against the base table, and the filter weakens rapidly as `τ_min`
//! drops (prefixes approach whole sets).

use crate::algorithms::table_score;
use crate::{
    passes, InvertedIndex, Match, PreparedQuery, SearchError, SearchOutcome, SearchStats, SetId,
    Tau,
};
use setsim_tokenize::Token;
use std::collections::HashMap;

/// A prefix-filter index supporting selections with `τ ≥ τ_min`.
pub struct PrefixFilterIndex {
    tau_min: f64,
    /// Inverted lists over prefix tokens only.
    lists: HashMap<Token, Vec<SetId>>,
    prefix_postings: u64,
}

impl PrefixFilterIndex {
    /// Build the filter over the same collection as `index`, valid for
    /// thresholds down to `tau_min`.
    ///
    /// # Errors
    /// [`SearchError::InvalidTau`] if `tau_min` is outside `(0, 1]`.
    pub fn build(index: &InvertedIndex<'_>, tau_min: f64) -> Result<Self, SearchError> {
        Tau::try_from(tau_min)?;
        let weights = index.weights();
        let mut lists: HashMap<Token, Vec<SetId>> = HashMap::new();
        let mut prefix_postings = 0u64;
        for (id, set) in index.collection().iter_sets() {
            let len_s = index.set_len(id);
            // Tokens in descending idf order (ties by token id — any fixed
            // global order works).
            let mut toks: Vec<Token> = set.iter().collect();
            toks.sort_by(|a, b| weights.idf(*b).total_cmp(&weights.idf(*a)).then(a.cmp(b)));
            let budget = tau_min * tau_min * len_s * len_s;
            let mut suffix: f64 = toks.iter().map(|t| weights.idf(*t).powi(2)).sum();
            for t in toks {
                // Keep indexing until the remaining suffix (excluding this
                // token) can no longer reach the budget on its own.
                lists.entry(t).or_default().push(id);
                prefix_postings += 1;
                suffix -= weights.idf(t).powi(2);
                if suffix < budget * (1.0 - crate::EPS_REL) {
                    break;
                }
            }
        }
        Ok(Self {
            tau_min,
            lists,
            prefix_postings,
        })
    }

    /// The minimum threshold this filter supports.
    pub fn tau_min(&self) -> f64 {
        self.tau_min
    }

    /// Prefix postings indexed (vs. the full index's posting count).
    pub fn prefix_postings(&self) -> u64 {
        self.prefix_postings
    }

    /// Run a selection: candidate generation over the prefix lists, then
    /// exact verification against the base table.
    ///
    /// # Errors
    /// [`SearchError::InvalidTau`] if `tau` is outside `(0, 1]`;
    /// [`SearchError::BelowTauMin`] if `tau < tau_min` (the filter would
    /// lose results).
    pub fn search(
        &self,
        index: &InvertedIndex<'_>,
        query: &PreparedQuery,
        tau: f64,
    ) -> Result<SearchOutcome, SearchError> {
        Tau::try_from(tau)?;
        if tau < self.tau_min - 1e-12 {
            return Err(SearchError::BelowTauMin {
                tau,
                tau_min: self.tau_min,
            });
        }
        let mut stats = SearchStats {
            total_list_elements: index.query_list_elements(query),
            ..Default::default()
        };
        let mut results = Vec::new();
        if query.is_empty() {
            return Ok(SearchOutcome::complete(results, stats));
        }
        let mut candidates: Vec<SetId> = Vec::new();
        for qt in &query.tokens {
            if let Some(list) = self.lists.get(&qt.token) {
                stats.elements_read += list.len() as u64;
                candidates.extend_from_slice(list);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        for id in candidates {
            stats.candidate_scan_steps += 1;
            let score = table_score(index, query, id);
            if passes(score, tau) {
                results.push(Match { id, score });
            }
        }
        Ok(SearchOutcome::complete(results, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::run;
    use crate::{AlgoConfig, AlgorithmKind, CollectionBuilder, IndexOptions};
    use setsim_tokenize::QGramTokenizer;

    fn setup(texts: &[&str]) -> crate::SetCollection {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        b.build()
    }

    #[test]
    fn agrees_with_scan_at_and_above_tau_min() {
        let c = setup(&[
            "main street",
            "main st",
            "maine street",
            "park avenue",
            "main street east",
            "maine",
        ]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let filter = PrefixFilterIndex::build(&idx, 0.5).unwrap();
        for text in ["main street", "maine", "park avenue"] {
            let q = idx.prepare_query_str(text);
            for tau in [0.5, 0.7, 0.9, 1.0] {
                let oracle = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau);
                let got = filter.search(&idx, &q, tau).unwrap();
                assert_eq!(
                    got.bits_sorted(),
                    oracle.bits_sorted(),
                    "q={text} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn prefix_index_is_smaller() {
        let texts: Vec<String> = (0..300).map(|i| format!("record number {i:05}")).collect();
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let strict = PrefixFilterIndex::build(&idx, 0.9).unwrap();
        let loose = PrefixFilterIndex::build(&idx, 0.3).unwrap();
        assert!(strict.prefix_postings() < idx.total_postings());
        assert!(
            strict.prefix_postings() < loose.prefix_postings(),
            "higher tau_min => shorter prefixes"
        );
        assert!(loose.prefix_postings() <= idx.total_postings());
    }

    #[test]
    fn below_tau_min_is_an_error() {
        let c = setup(&["abcdef"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let filter = PrefixFilterIndex::build(&idx, 0.8).unwrap();
        let q = idx.prepare_query_str("abcdef");
        assert_eq!(
            filter.search(&idx, &q, 0.5).unwrap_err(),
            SearchError::BelowTauMin {
                tau: 0.5,
                tau_min: 0.8
            }
        );
        assert!(filter.search(&idx, &q, 0.8).is_ok());
    }

    #[test]
    fn empty_query() {
        let c = setup(&["abcdef"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let filter = PrefixFilterIndex::build(&idx, 0.5).unwrap();
        let q = idx.prepare_query_str("");
        assert!(filter.search(&idx, &q, 0.5).unwrap().results.is_empty());
    }

    #[test]
    fn exact_match_survives_strictest_filter() {
        let texts: Vec<String> = (0..100).map(|i| format!("word{i:03}")).collect();
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let filter = PrefixFilterIndex::build(&idx, 1.0).unwrap();
        for text in ["word007", "word042"] {
            let q = idx.prepare_query_str(text);
            let out = filter.search(&idx, &q, 1.0).unwrap();
            assert_eq!(out.results.len(), 1, "{text}");
        }
    }
}
