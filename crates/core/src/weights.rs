// Scoring arithmetic: every numeric conversion is exact or typed.
#![deny(clippy::as_conversions)]

use crate::SetCollection;
use setsim_tokenize::{Token, TokenSet};

/// Exact conversion of a corpus-scale count to `f64`.
///
/// Set counts are bounded by the `u32` id space and posting totals by
/// addressable memory, both far below 2⁵³ — the range in which every
/// integer has an exact `f64` representation — so the cast cannot round.
#[inline]
#[allow(clippy::as_conversions)] // why: exact below 2^53, guarded by the debug_assert
pub(crate) fn count_to_f64(n: usize) -> f64 {
    debug_assert!(
        n < (1usize << 53),
        "count exceeds the f64 exact-integer range"
    );
    n as f64
}

/// Per-token idf weights and document statistics for a collection.
///
/// `idf(t) = log2(1 + N / N(t))` where `N` is the number of sets in the
/// database and `N(t)` the number of sets containing `t` (set semantics:
/// a token counted once per set, matching the IDF measure's reduction of
/// multisets to sets).
#[derive(Debug, Clone)]
pub struct TokenWeights {
    idf: Vec<f64>,
    df: Vec<u32>,
    n_sets: usize,
    avg_set_size: f64,
}

impl TokenWeights {
    /// Compute weights for every token of `collection`.
    pub fn compute(collection: &SetCollection) -> Self {
        let n_tokens = collection.dict().len();
        let mut df = vec![0u32; n_tokens];
        let mut total_size = 0usize;
        for (_, set) in collection.iter_sets() {
            total_size += set.len();
            for t in set.iter() {
                df[t.index()] += 1;
            }
        }
        let n_sets = collection.len();
        let idf = df.iter().map(|&d| Self::idf_formula(n_sets, d)).collect();
        Self {
            idf,
            df,
            n_sets,
            avg_set_size: if n_sets == 0 {
                0.0
            } else {
                count_to_f64(total_size) / count_to_f64(n_sets)
            },
        }
    }

    /// Reconstruct weights from a document-frequency table computed over
    /// a corpus of `n_sets` sets (the shard path: every shard scores with
    /// the *global* df table, not its own sub-collection's, so scores are
    /// bit-identical to the unsharded index). `df[t]` counts each token
    /// once per set, exactly as [`compute`](Self::compute) does, so the
    /// average distinct-token set size is `Σ df / N`.
    pub fn from_doc_freqs(n_sets: usize, df: Vec<u32>) -> Self {
        let idf = df.iter().map(|&d| Self::idf_formula(n_sets, d)).collect();
        // Summing exact u32 integers in f64 stays exact below 2^53, so
        // this equals `count_to_f64` of the integer total bit-for-bit
        // (pinned by `from_doc_freqs_matches_compute`).
        let total_size: f64 = df.iter().map(|&d| f64::from(d)).sum();
        let avg_set_size = if n_sets == 0 {
            0.0
        } else {
            total_size / count_to_f64(n_sets)
        };
        Self {
            idf,
            df,
            n_sets,
            avg_set_size,
        }
    }

    /// The document-frequency table, one entry per dictionary token.
    pub(crate) fn doc_freqs(&self) -> &[u32] {
        &self.df
    }

    /// `log2(1 + N / max(1, N(t)))`. Document frequency is clamped to 1 so
    /// that query tokens absent from the database (which can arise from
    /// query modifications) still get a finite weight: they behave as if
    /// the query itself were the one document containing them. Such tokens
    /// inflate `len(q)` — an exact-looking match against a query with junk
    /// grams scores below 1, which is the desired semantics.
    #[inline]
    pub fn idf_formula(n_sets: usize, df: u32) -> f64 {
        (1.0 + count_to_f64(n_sets) / f64::from(df.max(1))).log2()
    }

    /// idf of token `t` (`t` must belong to the collection's dictionary).
    #[inline]
    pub fn idf(&self, t: Token) -> f64 {
        self.idf[t.index()]
    }

    /// The idf a token unseen in the database receives.
    #[inline]
    pub fn unseen_idf(&self) -> f64 {
        Self::idf_formula(self.n_sets, 0)
    }

    /// Document frequency of token `t`.
    #[inline]
    pub fn df(&self, t: Token) -> u32 {
        self.df[t.index()]
    }

    /// Number of sets in the collection.
    pub fn n_sets(&self) -> usize {
        self.n_sets
    }

    /// Average distinct-token set size (BM25's `avgdl`).
    pub fn avg_set_size(&self) -> f64 {
        self.avg_set_size
    }

    /// Number of tokens the idf table covers.
    pub(crate) fn idf_len(&self) -> usize {
        self.idf.len()
    }

    /// Append one unseen-token entry (df 0, the given idf).
    pub(crate) fn push_unseen(&mut self, idf: f64) {
        self.idf.push(idf);
        self.df.push(0);
    }

    /// Normalized length of a set: `sqrt(Σ idf(t)²)`.
    pub fn set_length(&self, set: &TokenSet) -> f64 {
        set.iter()
            .map(|t| {
                let w = self.idf(t);
                w * w
            })
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectionBuilder;
    use setsim_tokenize::WordTokenizer;

    fn collection(texts: &[&str]) -> SetCollection {
        let mut b = CollectionBuilder::new(WordTokenizer::new().with_lowercase());
        b.extend(texts.iter().copied());
        b.build()
    }

    #[test]
    fn rare_tokens_weigh_more() {
        // 'main' appears in 3 sets, 'maine' in 1.
        let c = collection(&["main st", "main rd", "main maine", "park"]);
        let w = TokenWeights::compute(&c);
        let main = c.dict().get("main").unwrap();
        let maine = c.dict().get("maine").unwrap();
        assert!(w.idf(maine) > w.idf(main));
        assert_eq!(w.df(main), 3);
        assert_eq!(w.df(maine), 1);
    }

    #[test]
    fn idf_formula_values() {
        // N = 4, df = 1 -> log2(5); df = 4 -> log2(2) = 1.
        assert!((TokenWeights::idf_formula(4, 1) - 5f64.log2()).abs() < 1e-12);
        assert!((TokenWeights::idf_formula(4, 4) - 1.0).abs() < 1e-12);
        // df = 0 clamps to 1.
        assert_eq!(
            TokenWeights::idf_formula(4, 0),
            TokenWeights::idf_formula(4, 1)
        );
    }

    #[test]
    fn multiset_duplicates_count_once_for_df() {
        let c = collection(&["main main main", "other"]);
        let w = TokenWeights::compute(&c);
        let main = c.dict().get("main").unwrap();
        assert_eq!(w.df(main), 1);
    }

    #[test]
    fn set_length_is_l2_norm() {
        let c = collection(&["alpha beta", "alpha"]);
        let w = TokenWeights::compute(&c);
        let alpha = c.dict().get("alpha").unwrap();
        let beta = c.dict().get("beta").unwrap();
        let s = c.set(crate::SetId(0));
        let expect = (w.idf(alpha).powi(2) + w.idf(beta).powi(2)).sqrt();
        assert!((w.set_length(s) - expect).abs() < 1e-12);
    }

    #[test]
    fn empty_collection_weights() {
        let c = collection(&[]);
        let w = TokenWeights::compute(&c);
        assert_eq!(w.n_sets(), 0);
        assert_eq!(w.avg_set_size(), 0.0);
    }

    #[test]
    fn avg_set_size() {
        let c = collection(&["a b c", "d"]);
        let w = TokenWeights::compute(&c);
        assert!((w.avg_set_size() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn from_doc_freqs_matches_compute() {
        let c = collection(&["main st", "main rd", "main maine", "park"]);
        let w = TokenWeights::compute(&c);
        let rebuilt = TokenWeights::from_doc_freqs(w.n_sets(), w.doc_freqs().to_vec());
        assert_eq!(rebuilt.n_sets(), w.n_sets());
        assert_eq!(rebuilt.avg_set_size().to_bits(), w.avg_set_size().to_bits());
        for i in 0..c.dict().len() {
            let t = Token(u32::try_from(i).unwrap());
            assert_eq!(rebuilt.idf(t).to_bits(), w.idf(t).to_bits());
            assert_eq!(rebuilt.df(t), w.df(t));
        }
    }
}
