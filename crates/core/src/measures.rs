//! Weighted set similarity measures.
//!
//! Section II of the paper introduces the **IDF** measure — TF/IDF with the
//! term-frequency component dropped and scores length-normalized into
//! `[0, 1]` — and the analogous **BM25′** (BM25 without tf). Table I shows
//! the tf-free variants lose essentially no retrieval precision on
//! relational string data, where almost all term frequencies are 1.
//!
//! All four measures share the [`Similarity`] trait so the Table I
//! precision experiment can sweep them uniformly. Only IDF is used by the
//! inverted-list algorithms (its semantic properties are what the paper's
//! algorithms exploit); the others are evaluated by exhaustive scoring.

// Scoring arithmetic: every numeric conversion is exact or typed.
#![deny(clippy::as_conversions)]

use crate::{SetCollection, SetId, TokenWeights};
use setsim_tokenize::TokenMultiSet;

/// A similarity measure between a query multiset and a database record.
pub trait Similarity {
    /// Short name for reports ("IDF", "BM25", …).
    fn name(&self) -> &'static str;

    /// Score `query` against record `id` of `collection` using `weights`.
    fn score(
        &self,
        query: &TokenMultiSet,
        collection: &SetCollection,
        id: SetId,
        weights: &TokenWeights,
    ) -> f64;
}

/// The paper's IDF measure: `Σ_{t ∈ q∩s} idf(t)² / (len(s)·len(q))`,
/// normalized to `[0, 1]` with `I(s, s) = 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Idf;

impl Similarity for Idf {
    fn name(&self) -> &'static str {
        "IDF"
    }

    fn score(
        &self,
        query: &TokenMultiSet,
        collection: &SetCollection,
        id: SetId,
        weights: &TokenWeights,
    ) -> f64 {
        let q = query.to_set();
        let s = collection.set(id);
        let len_q = weights.set_length(&q);
        let len_s = weights.set_length(s);
        if len_q == 0.0 || len_s == 0.0 {
            return 0.0;
        }
        let dot: f64 = q
            .intersection(s)
            .map(|t| {
                let w = weights.idf(t);
                w * w
            })
            .sum();
        dot / (len_q * len_s)
    }
}

/// Classic TF/IDF cosine similarity over multisets:
/// `Σ tf_q(t)·tf_s(t)·idf(t)² / (‖q‖·‖s‖)` with tf-weighted norms.
#[derive(Debug, Clone, Copy, Default)]
pub struct TfIdf;

fn tf_norm(m: &TokenMultiSet, weights: &TokenWeights) -> f64 {
    m.iter()
        .map(|(t, tf)| {
            let w = f64::from(tf) * weights.idf(t);
            w * w
        })
        .sum::<f64>()
        .sqrt()
}

impl Similarity for TfIdf {
    fn name(&self) -> &'static str {
        "TFIDF"
    }

    fn score(
        &self,
        query: &TokenMultiSet,
        collection: &SetCollection,
        id: SetId,
        weights: &TokenWeights,
    ) -> f64 {
        let s = collection.multiset(id);
        let nq = tf_norm(query, weights);
        let ns = tf_norm(s, weights);
        if nq == 0.0 || ns == 0.0 {
            return 0.0;
        }
        let dot: f64 = query
            .iter()
            .map(|(t, tfq)| {
                let tfs = s.tf(t);
                if tfs == 0 {
                    0.0
                } else {
                    let idf = weights.idf(t);
                    f64::from(tfq) * f64::from(tfs) * idf * idf
                }
            })
            .sum();
        dot / (nq * ns)
    }
}

/// Okapi BM25 with the usual `k1`/`b` parameters. Scores are unnormalized
/// (ranking-only), as in standard IR practice; Table I uses ranks.
#[derive(Debug, Clone, Copy)]
pub struct Bm25 {
    /// Term-frequency saturation (default 1.2).
    pub k1: f64,
    /// Length normalization strength (default 0.75).
    pub b: f64,
}

impl Default for Bm25 {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

fn bm25_idf(n: usize, df: u32) -> f64 {
    let n = crate::weights::count_to_f64(n);
    let d = f64::from(df.max(1));
    ((n - d + 0.5) / (d + 0.5) + 1.0).ln()
}

fn bm25_score(
    query: &TokenMultiSet,
    collection: &SetCollection,
    id: SetId,
    weights: &TokenWeights,
    k1: f64,
    b: f64,
    use_tf: bool,
) -> f64 {
    let s = collection.multiset(id);
    let dl = f64::from(s.total_len());
    let avgdl = weights.avg_set_size().max(1e-12);
    query
        .iter()
        .map(|(t, _)| {
            let tf = if use_tf {
                f64::from(s.tf(t))
            } else {
                f64::from(u32::from(s.tf(t) > 0))
            };
            if tf == 0.0 {
                return 0.0;
            }
            let idf = bm25_idf(weights.n_sets(), weights.df(t));
            idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        })
        .sum()
}

impl Similarity for Bm25 {
    fn name(&self) -> &'static str {
        "BM25"
    }

    fn score(
        &self,
        query: &TokenMultiSet,
        collection: &SetCollection,
        id: SetId,
        weights: &TokenWeights,
    ) -> f64 {
        bm25_score(query, collection, id, weights, self.k1, self.b, true)
    }
}

/// BM25′: BM25 with term frequency information dropped (every present
/// token counts as frequency 1), the paper's tf-free BM25 variant.
#[derive(Debug, Clone, Copy)]
pub struct Bm25NoTf {
    /// Term-frequency saturation (default 1.2).
    pub k1: f64,
    /// Length normalization strength (default 0.75).
    pub b: f64,
}

impl Default for Bm25NoTf {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

impl Similarity for Bm25NoTf {
    fn name(&self) -> &'static str {
        "BM25'"
    }

    fn score(
        &self,
        query: &TokenMultiSet,
        collection: &SetCollection,
        id: SetId,
        weights: &TokenWeights,
    ) -> f64 {
        bm25_score(query, collection, id, weights, self.k1, self.b, false)
    }
}

/// Rank every record of `collection` by `measure` against `query_text`,
/// descending. Exhaustive; used by the Table I precision experiment.
pub fn rank_all<M: Similarity>(
    measure: &M,
    collection: &SetCollection,
    query_text: &str,
    weights: &TokenWeights,
) -> Vec<(SetId, f64)> {
    let mut buf = Vec::new();
    collection.tokenizer().tokenize_into(query_text, &mut buf);
    let mut dict = collection.dict().clone();
    let query = TokenMultiSet::from_tokens(buf.iter().map(|s| dict.intern(s)).collect());
    // Tokens the query introduced beyond the collection's dictionary have
    // df 0; `TokenWeights` clamps them. Extend the idf table accordingly.
    let mut weights = weights.clone();
    weights.extend_for_dict(dict.len());
    let mut out: Vec<(SetId, f64)> = (0u32..)
        .take(collection.len())
        .map(|i| {
            let id = SetId(i);
            (id, measure.score(&query, collection, id, &weights))
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

impl TokenWeights {
    /// Extend the idf/df tables with unseen-token entries up to
    /// `n_tokens`, so query-side tokens outside the collection dictionary
    /// can be scored.
    pub fn extend_for_dict(&mut self, n_tokens: usize) {
        let unseen = self.unseen_idf();
        while self.idf_len() < n_tokens {
            self.push_unseen(unseen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectionBuilder;
    use setsim_tokenize::{QGramTokenizer, WordTokenizer};

    fn words(texts: &[&str]) -> (SetCollection, TokenWeights) {
        let mut b = CollectionBuilder::new(WordTokenizer::new().with_lowercase());
        b.extend(texts.iter().copied());
        let c = b.build();
        let w = TokenWeights::compute(&c);
        (c, w)
    }

    fn query(c: &SetCollection, text: &str) -> TokenMultiSet {
        let mut buf = Vec::new();
        c.tokenizer().tokenize_into(text, &mut buf);
        TokenMultiSet::from_tokens(buf.iter().filter_map(|s| c.dict().get(s)).collect())
    }

    #[test]
    fn idf_self_similarity_is_one() {
        let (c, w) = words(&["main street", "park avenue", "main square"]);
        for (id, _) in c.iter_sets() {
            let q = c.multiset(id).clone();
            let s = Idf.score(&q, &c, id, &w);
            assert!((s - 1.0).abs() < 1e-12, "self-sim {s} for {id}");
        }
    }

    #[test]
    fn idf_within_unit_interval() {
        let (c, w) = words(&["main street", "park avenue", "main square", "main park"]);
        for (id, _) in c.iter_sets() {
            for (other, _) in c.iter_sets() {
                let q = c.multiset(other).clone();
                let s = Idf.score(&q, &c, id, &w);
                assert!((0.0..=1.0 + 1e-12).contains(&s));
            }
        }
    }

    #[test]
    fn idf_symmetry() {
        let (c, w) = words(&["main street", "main square", "park street"]);
        let q0 = c.multiset(SetId(0)).clone();
        let q1 = c.multiset(SetId(1)).clone();
        let a = Idf.score(&q0, &c, SetId(1), &w);
        let b = Idf.score(&q1, &c, SetId(0), &w);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sets_score_zero() {
        let (c, w) = words(&["alpha beta", "gamma delta"]);
        let q = query(&c, "alpha beta");
        assert_eq!(Idf.score(&q, &c, SetId(1), &w), 0.0);
        assert_eq!(TfIdf.score(&q, &c, SetId(1), &w), 0.0);
        assert_eq!(Bm25::default().score(&q, &c, SetId(1), &w), 0.0);
        assert_eq!(Bm25NoTf::default().score(&q, &c, SetId(1), &w), 0.0);
    }

    #[test]
    fn rare_token_dominates_idf() {
        // Query "maine": matches s2 via the rare token; "main st" shares
        // nothing. A query of a frequent word scores lower against a set
        // containing it than a rare word does against its holder.
        let (c, w) = words(&["main st", "maine st", "main rd", "main av"]);
        let q_rare = query(&c, "maine");
        let q_freq = query(&c, "main");
        let rare_score = Idf.score(&q_rare, &c, SetId(1), &w);
        let freq_score = Idf.score(&q_freq, &c, SetId(0), &w);
        assert!(rare_score > freq_score);
    }

    #[test]
    fn tfidf_rewards_matching_frequencies() {
        let (c, w) = words(&["main main st", "main st"]);
        let q = {
            let mut buf = Vec::new();
            c.tokenizer().tokenize_into("main main st", &mut buf);
            TokenMultiSet::from_tokens(buf.iter().filter_map(|s| c.dict().get(s)).collect())
        };
        let same = TfIdf.score(&q, &c, SetId(0), &w);
        let diff = TfIdf.score(&q, &c, SetId(1), &w);
        assert!((same - 1.0).abs() < 1e-12);
        assert!(diff < same);
    }

    #[test]
    fn idf_ignores_frequencies() {
        let (c, w) = words(&["main main st", "main st"]);
        let q = query(&c, "main st");
        let a = Idf.score(&q, &c, SetId(0), &w);
        let b = Idf.score(&q, &c, SetId(1), &w);
        assert!((a - b).abs() < 1e-12, "IDF must not see tf");
    }

    #[test]
    fn bm25_prefers_rarer_matches() {
        let (c, w) = words(&[
            "common rare",
            "common other",
            "common thing",
            "common stuff",
        ]);
        let q_rare = query(&c, "rare");
        let q_common = query(&c, "common");
        let s_rare = Bm25::default().score(&q_rare, &c, SetId(0), &w);
        let s_common = Bm25::default().score(&q_common, &c, SetId(0), &w);
        assert!(s_rare > s_common);
    }

    #[test]
    fn bm25_variants_agree_when_tf_is_one() {
        let (c, w) = words(&["alpha beta", "beta gamma", "gamma alpha"]);
        let q = query(&c, "alpha gamma");
        for i in 0..3 {
            let a = Bm25::default().score(&q, &c, SetId(i), &w);
            let b = Bm25NoTf::default().score(&q, &c, SetId(i), &w);
            assert!((a - b).abs() < 1e-12, "record {i}");
        }
    }

    #[test]
    fn rank_all_puts_exact_match_first() {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(["florham park", "florham dark", "totally unrelated"]);
        let c = b.build();
        let w = TokenWeights::compute(&c);
        let ranked = rank_all(&Idf, &c, "florham park", &w);
        assert_eq!(ranked[0].0, SetId(0));
        assert!(ranked[0].1 > ranked[1].1);
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn rank_all_handles_unknown_query_tokens() {
        let (c, w) = words(&["alpha beta", "gamma delta"]);
        let ranked = rank_all(&Idf, &c, "alpha zzz", &w);
        assert_eq!(ranked[0].0, SetId(0));
        assert!(ranked[0].1 < 1.0, "junk token must depress the score");
        assert!(ranked[0].1 > 0.0);
    }

    #[test]
    fn empty_query_scores_zero_everywhere() {
        let (c, w) = words(&["alpha beta"]);
        let q = TokenMultiSet::default();
        assert_eq!(Idf.score(&q, &c, SetId(0), &w), 0.0);
        assert_eq!(TfIdf.score(&q, &c, SetId(0), &w), 0.0);
        assert_eq!(Bm25::default().score(&q, &c, SetId(0), &w), 0.0);
    }
}
