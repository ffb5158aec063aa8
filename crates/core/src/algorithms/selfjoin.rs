//! Set similarity **self-join** built on selection queries.
//!
//! The literature the paper positions itself against is mostly about
//! joins; the selection primitive composes into one directly: run one
//! selection per database set and keep each pair once. Length Boundedness
//! makes this far better than it sounds — each probe touches only the
//! `[τ·len(q), len(q)/τ]` window of its lists — and probes are
//! embarrassingly parallel.

use crate::engine::{execute_into, steal, Scratch, ScratchPool};
use crate::{AlgorithmKind, InvertedIndex, SearchError, SearchRequest, SearchStats, SetId};
use std::ops::Range;

/// One joined pair: `a < b` and `I(a, b) ≥ τ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPair {
    /// Smaller set id.
    pub a: SetId,
    /// Larger set id.
    pub b: SetId,
    /// Their exact similarity.
    pub score: f64,
}

/// Result of a self-join.
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    /// All qualifying pairs, `a < b`, in ascending `(a, b)` order.
    pub pairs: Vec<JoinPair>,
    /// Merged access statistics over all probes.
    pub stats: SearchStats,
}

/// Records probed per stolen work item of [`par_self_join`]: large enough
/// that claiming a block costs nothing next to probing it, small enough
/// that a block of long records cannot leave the other workers idle.
const JOIN_BLOCK: usize = 256;

/// Probe the records in `ids` on one warm scratch, keeping each unordered
/// pair once, from its smaller endpoint.
fn probe(
    index: &InvertedIndex<'_>,
    kind: AlgorithmKind,
    tau: f64,
    scratch: &mut Scratch,
    ids: Range<usize>,
) -> Result<JoinOutcome, SearchError> {
    let mut out = JoinOutcome::default();
    for raw in ids {
        let id = SetId(raw as u32);
        let query = index.prepare_query(index.collection().set(id), 0);
        let req = SearchRequest::new(&query).tau(tau).algorithm(kind);
        execute_into(index, scratch, &req)?;
        out.stats.merge(scratch.stats());
        for m in scratch.results() {
            if m.id > id {
                out.pairs.push(JoinPair {
                    a: id,
                    b: m.id,
                    score: m.score,
                });
            }
        }
    }
    Ok(out)
}

/// Self-join `index`'s collection at threshold `tau`, running the per-set
/// probes with `kind`. Pairs are deduplicated (`a < b`); self-pairs
/// excluded. Fails like any selection: on a `tau` outside `(0, 1]`, or on
/// a record wider than a width-limited `kind` supports.
pub fn self_join(
    index: &InvertedIndex<'_>,
    kind: AlgorithmKind,
    tau: f64,
) -> Result<JoinOutcome, SearchError> {
    let n = index.collection().len();
    let mut out = probe(index, kind, tau, &mut Scratch::default(), 0..n)?;
    out.pairs.sort_by_key(|p| (p.a, p.b));
    Ok(out)
}

/// Parallel self-join: `num_threads` workers steal blocks of records to
/// probe, each on one warm scratch.
pub fn par_self_join(
    index: &InvertedIndex<'_>,
    kind: AlgorithmKind,
    tau: f64,
    num_threads: usize,
) -> Result<JoinOutcome, SearchError> {
    let n = index.collection().len();
    if num_threads <= 1 || n <= 1 {
        return self_join(index, kind, tau);
    }
    let blocks: Vec<Range<usize>> = (0..n)
        .step_by(JOIN_BLOCK)
        .map(|start| start..n.min(start + JOIN_BLOCK))
        .collect();
    let pool = ScratchPool::default();
    let blocks = steal(&pool, num_threads, &blocks, |scratch, ids| {
        probe(index, kind, tau, scratch, ids.clone())
    });
    let mut out = JoinOutcome::default();
    for block in blocks {
        let block = block?;
        out.stats.merge(&block.stats);
        out.pairs.extend(block.pairs);
    }
    out.pairs.sort_by_key(|p| (p.a, p.b));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::table_score;
    use crate::{CollectionBuilder, IndexOptions};
    use setsim_tokenize::QGramTokenizer;

    fn setup(texts: &[&str]) -> crate::SetCollection {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        b.build()
    }

    /// O(n²) oracle: `(a, b, score bits)` for every qualifying pair.
    fn join_oracle(index: &InvertedIndex<'_>, tau: f64) -> Vec<(u32, u32, u64)> {
        let n = index.collection().len();
        let mut out = Vec::new();
        for i in 0..n {
            let q = index.prepare_query(index.collection().set(SetId(i as u32)), 0);
            for j in (i + 1)..n {
                let s = table_score(index, &q, SetId(j as u32));
                if crate::passes(s, tau) {
                    out.push((i as u32, j as u32, s.to_bits()));
                }
            }
        }
        out
    }

    #[test]
    fn matches_nested_loop_oracle() {
        let c = setup(&[
            "main street",
            "main st",
            "maine street",
            "main street",
            "park avenue",
            "park avenu",
            "completely different",
        ]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        for tau in [0.4, 0.6, 0.9] {
            let got: Vec<(u32, u32, u64)> = self_join(&idx, AlgorithmKind::Sf, tau)
                .unwrap()
                .pairs
                .iter()
                .map(|p| (p.a.0, p.b.0, p.score.to_bits()))
                .collect();
            let want = join_oracle(&idx, tau);
            assert_eq!(got, want, "tau={tau}");
        }
    }

    #[test]
    fn duplicate_records_always_join() {
        let c = setup(&["same string", "same string", "other thing"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let out = self_join(&idx, AlgorithmKind::Sf, 1.0).unwrap();
        assert_eq!(out.pairs.len(), 1);
        assert_eq!((out.pairs[0].a.0, out.pairs[0].b.0), (0, 1));
        assert!(crate::passes(out.pairs[0].score, 1.0));
    }

    #[test]
    fn pairs_are_deduplicated_and_ordered() {
        let c = setup(&["abcdef", "abcdeg", "abcdfg", "abcefg"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let out = self_join(&idx, AlgorithmKind::Sf, 0.3).unwrap();
        for p in &out.pairs {
            assert!(p.a < p.b);
        }
        for w in out.pairs.windows(2) {
            assert!((w[0].a, w[0].b) < (w[1].a, w[1].b));
        }
        let mut seen = std::collections::HashSet::new();
        for p in &out.pairs {
            assert!(seen.insert((p.a, p.b)), "duplicate pair {p:?}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        // Several JOIN_BLOCKs, so workers really steal.
        let texts: Vec<String> = (0..3 * JOIN_BLOCK + 7)
            .map(|i| format!("record {} {}", i % 30, i))
            .collect();
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let serial = self_join(&idx, AlgorithmKind::Sf, 0.7).unwrap();
        let parallel = par_self_join(&idx, AlgorithmKind::Sf, 0.7, 4).unwrap();
        let a: Vec<_> = serial.pairs.iter().map(|p| (p.a, p.b)).collect();
        let b: Vec<_> = parallel.pairs.iter().map(|p| (p.a, p.b)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_tau_is_a_typed_error() {
        let c = setup(&["abcdef", "abcdeg"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        for threads in [1, 2] {
            let got = par_self_join(&idx, AlgorithmKind::Sf, 0.0, threads);
            assert!(matches!(got, Err(SearchError::InvalidTau(_))));
        }
    }

    #[test]
    fn empty_collection_joins_empty() {
        let c = setup(&[]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let out = self_join(&idx, AlgorithmKind::Sf, 0.5).unwrap();
        assert!(out.pairs.is_empty());
    }
}
