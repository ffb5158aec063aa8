use setsim_tokenize::Token;

/// One query token with its precomputed weight.
#[derive(Debug, Clone, Copy)]
pub struct QueryToken {
    /// The token (known to the index's dictionary, so its inverted list
    /// exists).
    pub token: Token,
    /// `idf(token)` — kept for ordering and diagnostics.
    pub idf: f64,
    /// `idf(token)²` — the numerator of the token's contribution
    /// `w(s) = idf² / (len(s)·len(q))`.
    pub idf_sq: f64,
}

/// A query prepared against a specific index: deduplicated known tokens in
/// **descending idf order** (the order SF scans lists in), plus the query's
/// normalized length.
///
/// Unknown tokens (possible after query modifications) carry no inverted
/// list and can never contribute score, but they *do* contribute to
/// `len(q)`: a query containing junk grams cannot reach similarity 1, which
/// keeps the measure honest. Their count is folded into [`len`](Self::len)
/// at preparation time using the unseen-token idf.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Known tokens, descending idf, ties broken by token id.
    pub tokens: Vec<QueryToken>,
    /// Normalized query length `len(q)` (includes unknown-token mass).
    pub len: f64,
    /// Σ idf² over the known tokens (the total score numerator available
    /// from the index).
    pub idf_sq_total: f64,
}

impl PreparedQuery {
    /// Build from raw `(token, idf)` pairs plus unknown-token mass.
    pub(crate) fn assemble(mut toks: Vec<QueryToken>, unknown_mass_sq: f64) -> Self {
        toks.sort_by(|a, b| b.idf.total_cmp(&a.idf).then(a.token.cmp(&b.token)));
        let idf_sq_total: f64 = toks.iter().map(|t| t.idf_sq).sum();
        let len = (idf_sq_total + unknown_mass_sq).sqrt();
        Self {
            tokens: toks,
            len,
            idf_sq_total,
        }
    }

    /// Number of known query tokens (inverted lists to merge).
    pub fn num_lists(&self) -> usize {
        self.tokens.len()
    }

    /// True if no known token remains — the query cannot match anything.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Suffix sums of `idf²` in list order: `suffix(i) = Σ_{j ≥ i} idf²`.
    /// `suffix(0) = idf_sq_total`. Used for the λᵢ cutoffs of SF/Hybrid and
    /// for Magnitude Boundedness.
    pub fn idf_sq_suffix_sums(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.idf_sq_suffix_sums_into(&mut out);
        out
    }

    /// Allocation-free variant of [`idf_sq_suffix_sums`]: fills `out`
    /// (cleared first) reusing its capacity. Used by the engine's
    /// reusable-scratch search path.
    ///
    /// [`idf_sq_suffix_sums`]: Self::idf_sq_suffix_sums
    pub fn idf_sq_suffix_sums_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.tokens.len() + 1, 0.0);
        for i in (0..self.tokens.len()).rev() {
            out[i] = out[i + 1] + self.tokens[i].idf_sq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(idfs: &[f64]) -> PreparedQuery {
        let toks = idfs
            .iter()
            .enumerate()
            .map(|(i, &idf)| QueryToken {
                token: Token(i as u32),
                idf,
                idf_sq: idf * idf,
            })
            .collect();
        PreparedQuery::assemble(toks, 0.0)
    }

    #[test]
    fn tokens_sorted_by_descending_idf() {
        let pq = q(&[1.0, 3.0, 2.0]);
        let idfs: Vec<f64> = pq.tokens.iter().map(|t| t.idf).collect();
        assert_eq!(idfs, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn len_is_l2_norm() {
        let pq = q(&[3.0, 4.0]);
        assert!((pq.len - 5.0).abs() < 1e-12);
        assert!((pq.idf_sq_total - 25.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_mass_inflates_len_only() {
        let with = PreparedQuery::assemble(
            vec![QueryToken {
                token: Token(0),
                idf: 3.0,
                idf_sq: 9.0,
            }],
            16.0,
        );
        assert!((with.len - 5.0).abs() < 1e-12);
        assert!((with.idf_sq_total - 9.0).abs() < 1e-12);
    }

    #[test]
    fn suffix_sums() {
        let pq = q(&[1.0, 2.0, 3.0]); // sorted desc: 9, 4, 1
        let s = pq.idf_sq_suffix_sums();
        assert_eq!(s, vec![14.0, 5.0, 1.0, 0.0]);
    }

    #[test]
    fn empty_query() {
        let pq = q(&[]);
        assert!(pq.is_empty());
        assert_eq!(pq.num_lists(), 0);
        assert_eq!(pq.len, 0.0);
        assert_eq!(pq.idf_sq_suffix_sums(), vec![0.0]);
    }
}
