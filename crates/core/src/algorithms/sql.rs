//! The relational (SQL) baseline of Section III-A.
//!
//! The database of sets is materialized as a q-gram table in First Normal
//! Form — one row per `(id, token, len, weight)` with
//! `weight = idf(token)²` — under a clustered composite B+-tree on
//! `(token, len, id)`. A similarity selection is then the plan
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
//! hash aggregate. The `len` predicate is pushed into the index scan —
//! this is how "existing solutions take advantage of semantic properties"
//! and what Figure 8 switches off for the SQL NLB variant. The scans run
//! in query-token order and the aggregate sums in input order, so the one
//! division gives the canonical score's bits (DESIGN.md §1).

use crate::{
    properties, Match, PreparedQuery, SearchError, SearchOutcome, SearchStats, SetCollection,
    SetId, Tau, TokenWeights,
};
use setsim_relational::{exec, ColumnType, Schema, Table, TableIndex, Value};

/// The materialized q-gram table plus its clustered index.
pub struct SqlBaseline {
    table: Table,
    index: TableIndex,
    /// `len(s)` per set id (the base table's length column).
    lengths: Vec<f64>,
    /// Rows scanned and aggregated are counted per query.
    length_bounding: bool,
}

impl SqlBaseline {
    /// Materialize the q-gram table and clustered index for `collection`.
    pub fn build(collection: &SetCollection, weights: &TokenWeights) -> Self {
        Self::build_with(collection, weights, true, 64)
    }

    /// As [`build`](Self::build), with the Length Boundedness pushdown
    /// toggleable and the B+-tree branching factor exposed.
    pub fn build_with(
        collection: &SetCollection,
        weights: &TokenWeights,
        length_bounding: bool,
        branching: usize,
    ) -> Self {
        let schema = Schema::new(vec![
            ("id", ColumnType::Int),
            ("token", ColumnType::Int),
            ("len", ColumnType::Float),
            ("weight", ColumnType::Float),
        ]);
        let mut table = Table::new("qgrams", schema);
        let mut lengths = Vec::with_capacity(collection.len());
        for (id, set) in collection.iter_sets() {
            let len = weights.set_length(set);
            lengths.push(len);
            if len == 0.0 {
                continue;
            }
            for t in set.iter() {
                let idf = weights.idf(t);
                table.insert(vec![
                    Value::Int(i64::from(id.0)),
                    Value::Int(i64::from(t.0)),
                    Value::Float(len),
                    Value::Float(idf * idf),
                ]);
            }
        }
        let index = TableIndex::build(&table, &["token", "len", "id"], branching);
        Self {
            table,
            index,
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

        // One clustered range scan per query token, unioned (the IN-list).
        let mut scanned: Vec<setsim_relational::Row> = Vec::new();
        for qt in &query.tokens {
            let token = i64::from(qt.token.0);
            let (scan_lo, scan_hi): (Vec<Value>, Vec<Value>) = if self.length_bounding {
                (
                    vec![Value::Int(token), Value::Float(lo)],
                    vec![Value::Int(token), Value::Float(hi)],
                )
            } else {
                (vec![Value::Int(token)], vec![Value::Int(token)])
            };
            for row in exec::index_range_scan(&self.table, &self.index, &scan_lo, &scan_hi) {
                stats.elements_read += 1;
                scanned.push(row);
            }
            stats.total_list_elements += self
                .index
                .range_scan(&[Value::Int(token)], &[Value::Int(token)])
                .len() as u64;
        }

        // GROUP BY id, SUM(weight); one division; HAVING score ≥ τ.
        let aggregated = exec::hash_aggregate_sum(scanned.into_iter(), 0, 3);
        for row in aggregated {
            let Ok(id) = u32::try_from(row[0].as_int()) else {
                unreachable!("set ids originate from u32")
            };
            let id = SetId(id);
            let score = row[1].as_float() / (self.lengths[id.index()] * query.len);
            if crate::passes(score, tau) {
                results.push(Match { id, score });
            }
        }
        Ok(SearchOutcome::complete(results, stats))
    }

    /// Rows in the q-gram table.
    pub fn num_rows(&self) -> usize {
        self.table.len()
    }

    /// Sizes in bytes: `(q-gram table, clustered B+-tree)` (Figure 5).
    pub fn size_bytes(&self) -> (usize, usize) {
        (self.table.size_bytes(), self.index.size_bytes())
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
        let sql_nlb = SqlBaseline::build_with(&c, idx.weights(), false, 64);
        for text in ["main street", "maine", "park avenue"] {
            let q = idx.prepare_query_str(text);
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
        let without = SqlBaseline::build_with(&c, idx.weights(), false, 64);
        let q = idx.prepare_query_str(&"ab".repeat(25));
        let a = with.search(&q, 0.9).unwrap();
        let b = without.search(&q, 0.9).unwrap();
        assert_eq!(a.ids_sorted(), b.ids_sorted());
        assert!(a.stats.elements_read < b.stats.elements_read);
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
        let (t, i) = sql.size_bytes();
        assert!(t > 0 && i > 0);
        assert!(sql.sql_text().contains("GROUP BY"));
    }
}
