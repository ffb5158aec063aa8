use crate::engine::SearchCtx;
use crate::{IdPostings, Match, SearchStatus};
use setsim_collections::SetBits;
use std::cmp::Reverse;

/// Ascending-id cursor over one query list.
enum IdCursor<'a> {
    Slice {
        postings: &'a [crate::Posting],
        pos: usize,
    },
    Bits(SetBits<'a>),
}

impl IdCursor<'_> {
    /// Next `(id, len)` pair in ascending id order, or `None` when the
    /// list is exhausted.
    fn next(&mut self, index: &crate::InvertedIndex<'_>) -> Option<(u32, f64)> {
        match self {
            IdCursor::Slice { postings, pos } => {
                let p = postings.get(*pos)?;
                *pos += 1;
                Some((p.id.0, p.len))
            }
            IdCursor::Bits(bits) => {
                let id = bits.next()?;
                Some((id, index.set_len(crate::SetId(id))))
            }
        }
    }
}

/// Multiway merge over **id-sorted** inverted lists (Section III-B's
/// "sort-by-id" baseline).
///
/// A heap holds the head of every list; the smallest id's score is always
/// complete when it surfaces, so it can be emitted or discarded
/// immediately. Bookkeeping is trivial but every element of every query
/// list is read — no pruning whatsoever, which is why its cost is constant
/// across thresholds in Figure 6(a).
///
/// Lists supply ascending ids through whichever representation they hold:
/// the id-sorted posting copy (inline and run lists) or set-bit
/// enumeration of the dense bitmap, whose postings' lengths are recovered
/// from the index's length table — the same table every stored posting's
/// `len` was computed from, so scores are bit-identical across
/// representations.
///
/// # Panics
///
/// Panics if a query list supports no ascending-id access at all — a
/// run-represented list built with `build_id_sorted_lists` disabled.
/// `execute_into` rejects such a request as `SearchError::Unsupported`
/// before dispatching here.
#[allow(clippy::panic)] // why: the contract is the `# Panics` section above
pub(crate) fn search(ctx: &mut SearchCtx<'_, '_>) {
    let index = ctx.index;
    let query = ctx.query;
    let tau = ctx.tau;
    let budget = ctx.budget;
    let scratch = &mut *ctx.scratch;
    scratch.stats.total_list_elements = index.query_list_elements(query);
    if query.is_empty() {
        return;
    }

    let mut cursors: Vec<IdCursor<'_>> = query
        .tokens
        .iter()
        .map(|qt| {
            let l = index.query_list(qt.token);
            match l.id_postings() {
                Some(IdPostings::Slice(postings)) => IdCursor::Slice { postings, pos: 0 },
                Some(IdPostings::Bitmap(bm)) => IdCursor::Bits(bm.iter()),
                None => panic!("sort-by-id requires build_id_sorted_lists"),
            }
        })
        .collect();

    // Heap of (Reverse(id), Reverse(list index)): lists tied on an id pop
    // in query-token order, so `dot` is canonical_score's sum and one
    // division gives its bits. `heads` holds each list's current head
    // length so a popped entry scores without re-touching its source.
    // Elements are counted when consumed (popped).
    let heap = &mut scratch.heap;
    scratch.frontier.resize(cursors.len(), 0.0);
    let heads = &mut scratch.frontier;
    for (i, cur) in cursors.iter_mut().enumerate() {
        if let Some((id, len)) = cur.next(index) {
            heads[i] = len;
            heap.push((Reverse(id), Reverse(i)));
        }
    }

    while let Some(&(Reverse(id), _)) = heap.peek() {
        if budget.exceeded(&scratch.stats) {
            scratch.status = SearchStatus::BudgetExceeded;
            return;
        }
        // Drain every list whose head is `id`, accumulating its score.
        let mut dot = 0.0;
        let mut len_s = 0.0;
        while let Some(&(Reverse(head), Reverse(i))) = heap.peek() {
            if head != id {
                break;
            }
            heap.pop();
            scratch.stats.elements_read += 1;
            dot += query.tokens[i].idf_sq;
            len_s = heads[i];
            if let Some((next_id, next_len)) = cursors[i].next(index) {
                heads[i] = next_len;
                heap.push((Reverse(next_id), Reverse(i)));
            }
        }
        let score = dot / (len_s * query.len);
        if crate::passes(score, tau) {
            scratch.results.push(Match {
                id: crate::SetId(id),
                score,
            });
        }
    }
}

#[cfg(test)]
mod tests {
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
        for text in ["main street", "maine", "park"] {
            let q = idx.prepare_query_str(text);
            for tau in [0.2, 0.5, 0.8, 1.0] {
                let a = run(&idx, AlgorithmKind::Merge, AlgoConfig::full(), &q, tau);
                let b = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau);
                assert_eq!(a.ids_sorted(), b.ids_sorted(), "q={text} tau={tau}");
            }
        }
    }

    #[test]
    fn reads_every_list_element() {
        let c = setup(&["abcd", "bcde", "abcf"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcd");
        let out = run(&idx, AlgorithmKind::Merge, AlgoConfig::full(), &q, 0.9);
        assert_eq!(out.stats.elements_read, out.stats.total_list_elements);
        assert_eq!(out.stats.pruning_pct(), 0.0);
    }

    #[test]
    fn empty_query() {
        let c = setup(&["abcd"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("");
        let out = run(&idx, AlgorithmKind::Merge, AlgoConfig::full(), &q, 0.5);
        assert!(out.results.is_empty());
    }

    #[test]
    fn bitmap_lists_keep_exact_element_counters() {
        // The bitmap cursor enumerates set bits rather than stored
        // postings; each enumerated id must still count as exactly one
        // sorted read, so the no-pruning contract of this baseline — and
        // the `read ≤ total` invariant behind pruning_pct — survive the
        // representation change.
        let c = setup(&["abcd", "bcde", "abcf", "abcde"]);
        let opts = IndexOptions::default()
            .with_repr_policy(crate::ReprPolicy::Force(crate::ReprKind::Bitmap));
        let idx = InvertedIndex::build(&c, opts);
        let q = idx.prepare_query_str("abcd");
        let out = run(&idx, AlgorithmKind::Merge, AlgoConfig::full(), &q, 0.5);
        assert_eq!(out.stats.elements_read, out.stats.total_list_elements);
        assert_eq!(out.stats.pruning_pct(), 0.0);
        let oracle = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, 0.5);
        assert_eq!(out.ids_sorted(), oracle.ids_sorted());
        for m in &out.results {
            let expect = crate::algorithms::table_score(&idx, &q, m.id);
            assert_eq!(m.score.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn scores_are_exact() {
        let c = setup(&["abcdef", "abcxyz"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::Merge, AlgoConfig::full(), &q, 0.1);
        assert!(!out.results.is_empty());
        for m in &out.results {
            let expect = crate::algorithms::table_score(&idx, &q, m.id);
            assert_eq!(m.score.to_bits(), expect.to_bits());
        }
    }
}
