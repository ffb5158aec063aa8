//! The relational (SQL) baseline of Section III-A.
//!
//! The database of sets is materialized as a q-gram table in First Normal
//! Form — one row per `(id, token, len, weight)` with
//! `weight = idf(token)²` — clustered on `(token, len, id)`. A similarity
//! selection is then the plan
//!
//! ```sql
//! SELECT Q.id, SUM(Q.weight) / (Q.len · len(q)) AS score
//! FROM   qgrams Q
//! WHERE  Q.token IN (q¹ … qⁿ)
//!   AND  Q.len BETWEEN τ·len(q) AND len(q)/τ   -- Length Boundedness
//! GROUP  BY Q.id, Q.len
//! HAVING score ≥ τ
//! ```
//!
//! executed as one clustered index range scan per query token feeding a
//! hash aggregate. A clustered index's leaf level is the table sorted by
//! its key, so that is all this module stores: one row vector in key
//! order, where a range scan is a `partition_point` pair and binary search
//! stands in for the internal levels. The `len` predicate is pushed into
//! the scan — this is how "existing solutions take advantage of semantic
//! properties" and what Figure 8 switches off for the SQL NLB variant.
//! The scans run in query-token order and the aggregate sums in input
//! order, so the one division gives the canonical score's bits
//! (DESIGN.md §1).
//!
//! The baseline models the plan's access pattern (rows read per scan),
//! not a DBMS's per-row cost.

use crate::engine::DetHashMap;
use crate::{
    properties, Match, PreparedQuery, SearchError, SearchOutcome, SearchStats, SetCollection,
    SetId, Tau, TokenWeights,
};

/// One row of the 1NF q-gram table.
#[derive(Debug, Clone, Copy)]
struct QgramRow {
    token: u32,
    id: u32,
    /// `len(s)`, always positive: zero-length sets are not materialized,
    /// so `to_bits` order is numeric order.
    len: f64,
    /// `idf(token)²`.
    weight: f64,
}

/// The q-gram table, stored clustered on `(token, len, id)`.
pub struct SqlBaseline {
    /// Every row, sorted by `(token, len, id)`.
    rows: Vec<QgramRow>,
    /// `len(s)` per set id (the base table's length column).
    lengths: Vec<f64>,
    /// Whether the `len` predicate is pushed into each range scan.
    length_bounding: bool,
}

impl SqlBaseline {
    /// Materialize the clustered q-gram table for `collection`.
    pub fn build(collection: &SetCollection, weights: &TokenWeights) -> Self {
        Self::build_with(collection, weights, true)
    }

    /// As [`build`](Self::build), with the Length Boundedness pushdown
    /// toggleable.
    pub fn build_with(
        collection: &SetCollection,
        weights: &TokenWeights,
        length_bounding: bool,
    ) -> Self {
        let mut rows = Vec::new();
        let mut lengths = Vec::with_capacity(collection.len());
        for (id, set) in collection.iter_sets() {
            let len = weights.set_length(set);
            lengths.push(len);
            if len == 0.0 {
                continue;
            }
            for t in set.iter() {
                let idf = weights.idf(t);
                rows.push(QgramRow {
                    token: t.0,
                    id: id.0,
                    len,
                    weight: idf * idf,
                });
            }
        }
        rows.sort_unstable_by_key(|r| (r.token, r.len.to_bits(), r.id));
        rows.shrink_to_fit();
        Self {
            rows,
            lengths,
            length_bounding,
        }
    }

    /// Run the similarity selection plan.
    ///
    /// # Errors
    /// [`SearchError::InvalidTau`] if `tau` is outside `(0, 1]`.
    pub fn search(&self, query: &PreparedQuery, tau: f64) -> Result<SearchOutcome, SearchError> {
        Tau::try_from(tau)?;
        let mut stats = SearchStats::default();
        let mut results = Vec::new();
        if query.is_empty() {
            return Ok(SearchOutcome::complete(results, stats));
        }
        let (len_lo, len_hi) = properties::length_bounds(tau, query.len);
        let lo = len_lo * (1.0 - crate::EPS_REL);
        let hi = len_hi * (1.0 + crate::EPS_REL);

        // One clustered range scan per query token (the IN-list), feeding
        // GROUP BY id, SUM(weight).
        let mut sums: DetHashMap<u32, f64> = DetHashMap::default();
        for qt in &query.tokens {
            let token = qt.token.0;
            let start = self.rows.partition_point(|r| r.token < token);
            let end = self.rows.partition_point(|r| r.token <= token);
            let mut scan = &self.rows[start..end];
            stats.total_list_elements += scan.len() as u64;
            if self.length_bounding {
                let from = scan.partition_point(|r| r.len < lo);
                let to = scan.partition_point(|r| r.len <= hi);
                scan = &scan[from..to];
            }
            stats.elements_read += scan.len() as u64;
            for row in scan {
                *sums.entry(row.id).or_insert(0.0) += row.weight;
            }
        }

        // One division; HAVING score ≥ τ.
        for (id, dot) in sums {
            let id = SetId(id);
            let score = dot / (self.lengths[id.index()] * query.len);
            if crate::passes(score, tau) {
                results.push(Match { id, score });
            }
        }
        Ok(SearchOutcome::complete(results, stats))
    }

    /// Rows in the q-gram table.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Bytes of the clustered q-gram table (Figure 5). Nothing else is
    /// allocated: binary search over the rows stands in for the index's
    /// internal levels.
    pub fn size_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<QgramRow>()
    }

    /// A static rendering of the plan's SQL, for documentation and logs.
    pub fn sql_text(&self) -> &'static str {
        "SELECT Q.id, SUM(Q.weight) / (Q.len * ?) AS score FROM qgrams Q \
         WHERE Q.token IN (?) AND Q.len BETWEEN ? AND ? \
         GROUP BY Q.id, Q.len HAVING score >= ?"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        ]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let sql = SqlBaseline::build(&c, idx.weights());
        let sql_nlb = SqlBaseline::build_with(&c, idx.weights(), false);
        for text in ["main street", "maine", "park avenue"] {
            let q = idx.prepare_query_str(text);
            let lists: Vec<&[crate::Posting]> = q
                .tokens
                .iter()
                .map(|qt| idx.list(qt.token).unwrap().postings())
                .collect();
            let total: usize = lists.iter().map(|l| l.len()).sum();
            for tau in [0.3, 0.6, 0.9, 1.0] {
                let oracle = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau);
                let got = sql.search(&q, tau).unwrap();
                assert_eq!(
                    got.bits_sorted(),
                    oracle.bits_sorted(),
                    "q={text} tau={tau}"
                );
                let got_nlb = sql_nlb.search(&q, tau).unwrap();
                assert_eq!(got_nlb.bits_sorted(), oracle.bits_sorted());

                // Counters: every scan counts its whole token range; with
                // the pushdown only the rows in the widened, inclusive
                // Length Boundedness window are read.
                let (lo, hi) = properties::length_bounds(tau, q.len);
                let (lo, hi) = (lo * (1.0 - crate::EPS_REL), hi * (1.0 + crate::EPS_REL));
                let in_window = lists
                    .iter()
                    .flat_map(|l| l.iter())
                    .filter(|p| (lo..=hi).contains(&p.len))
                    .count();
                assert_eq!(got.stats.total_list_elements, total as u64);
                assert_eq!(
                    got.stats.elements_read, in_window as u64,
                    "q={text} tau={tau}"
                );
                assert_eq!(got_nlb.stats.total_list_elements, total as u64);
                assert_eq!(got_nlb.stats.elements_read, total as u64);
            }
        }
    }

    #[test]
    fn length_bounding_reads_fewer_rows() {
        let texts: Vec<String> = (1..50).map(|i| "ab".repeat(i)).collect();
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let with = SqlBaseline::build(&c, idx.weights());
        let without = SqlBaseline::build_with(&c, idx.weights(), false);
        let q = idx.prepare_query_str(&"ab".repeat(25));
        let a = with.search(&q, 0.9).unwrap();
        let b = without.search(&q, 0.9).unwrap();
        assert_eq!(a.ids_sorted(), b.ids_sorted());
        assert!(a.stats.elements_read < b.stats.elements_read);
    }

    #[test]
    fn result_order_is_deterministic() {
        let texts: Vec<String> = (0..36)
            .map(|i| match i % 3 {
                0 => "main street".to_string(),
                _ => format!("park avenue {i}"),
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let a = SqlBaseline::build(&c, idx.weights());
        let b = SqlBaseline::build(&c, idx.weights());
        let q = idx.prepare_query_str("main street");
        let (ra, rb) = (a.search(&q, 0.5).unwrap(), b.search(&q, 0.5).unwrap());
        assert!(ra.results.len() >= 8, "{} matches", ra.results.len());
        // Unsorted: the aggregate's output order itself is fixed.
        let bits = |o: &SearchOutcome| -> Vec<(SetId, u64)> {
            o.results
                .iter()
                .map(|m| (m.id, m.score.to_bits()))
                .collect()
        };
        assert_eq!(bits(&ra), bits(&rb));
    }

    #[test]
    fn one_row_per_id_token_pair() {
        let c = setup(&["abcabc"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let sql = SqlBaseline::build(&c, idx.weights());
        // Set semantics: each distinct gram once.
        assert_eq!(sql.num_rows(), c.set(SetId(0)).len());
    }

    #[test]
    fn empty_query_is_empty() {
        let c = setup(&["abcd"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let sql = SqlBaseline::build(&c, idx.weights());
        let q = idx.prepare_query_str("");
        assert!(sql.search(&q, 0.5).unwrap().results.is_empty());
    }

    #[test]
    fn sizes_reported() {
        let c = setup(&["abcd", "bcde"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let sql = SqlBaseline::build(&c, idx.weights());
        // 24 B per `(token, id, len, weight)` row and nothing else.
        assert!(sql.num_rows() > 0);
        assert_eq!(sql.size_bytes(), 24 * sql.num_rows());
        assert!(sql.sql_text().contains("GROUP BY"));
    }
}
