use crate::algorithms::AlgoConfig;
use crate::engine::{SearchCtx, SfCand};
use crate::index::{IndexLists, QueryLists, SortedList};
use crate::{properties, safely_below, Match, SearchStatus, SetId, SnapshotError};

/// Ordering key shared by candidate list and inverted lists.
#[inline]
fn key(len: f64, id: SetId) -> (u64, u32) {
    (len.to_bits(), id.0)
}

/// The Shortest-First algorithm (Algorithm 3, "SF").
///
/// Depth-first: lists are processed one at a time in **descending idf**
/// order — shortest (rarest-token) lists first. Before list `i` is
/// scanned, the cutoff
///
/// ```text
/// λᵢ = Σ_{j ≥ i} idf(qʲ)² / (τ·len(q))
/// ```
///
/// bounds the length of any *new* viable candidate: a set first appearing
/// in list `i` can collect contributions only from lists `i..n`, so a
/// longer set cannot reach τ even if it appeared in all of them. Because
/// `λ₁ ≥ λ₂ ≥ …`, reading rare lists first discovers few false positives,
/// and the candidate ceiling `max_len(C)` keeps falling, so only a small
/// prefix of the long, frequent-token lists is ever touched.
///
/// Candidates live in a single list sorted by `(len, id)` — the same order
/// as every inverted list — so each list is combined with the candidate
/// set by one merge pass: no hashing, no per-round scans. Bookkeeping is
/// minimal, which is why SF wins on wall-clock time throughout Figure 6
/// even though iTA prunes slightly more.
pub(crate) fn search(ctx: &mut SearchCtx<'_, '_>, config: AlgoConfig) -> Result<(), SnapshotError> {
    let mut lists = IndexLists {
        index: ctx.index,
        query: ctx.query,
    };
    search_lists(ctx, config, &mut lists)
}

/// [`search`] over any source of the query's lists. Lists are read
/// through [`SortedList`], whose reads may fault (the paged engine's
/// window runs decode a block on first touch): a fault ends the search as
/// its error, never as a partial outcome.
pub(crate) fn search_lists<L: QueryLists>(
    ctx: &mut SearchCtx<'_, '_>,
    config: AlgoConfig,
    lists: &mut L,
) -> Result<(), SnapshotError> {
    let query = ctx.query;
    let tau = ctx.tau;
    let budget = ctx.budget;
    let scratch = &mut *ctx.scratch;
    scratch.stats.total_list_elements = lists.total_elements();
    if query.is_empty() {
        return Ok(());
    }

    let n = query.num_lists();
    let (len_lo, len_hi) = properties::length_bounds(tau, query.len);
    let lo_seek = len_lo * (1.0 - crate::EPS_REL);
    let hi_cut = len_hi * (1.0 + crate::EPS_REL);
    // λᵢ cutoffs (query tokens are already in descending idf order).
    query.idf_sq_suffix_sums_into(&mut scratch.suffix);
    properties::lambda_cutoffs_into(query, tau, &scratch.suffix, &mut scratch.lambdas);

    // Candidate list, kept sorted by (len, id). `sf_cands` holds the
    // survivors of the previous list; `sf_merged` receives this list's
    // merge output, then the buffers swap.
    scratch.sf_cands.clear();

    for i in 0..n {
        if budget.exceeded(&scratch.stats) {
            scratch.status = SearchStatus::BudgetExceeded;
            // Partial sums are not scores: a truncated SF run must
            // not emit them.
            return Ok(());
        }
        scratch.stats.rounds += 1;
        let mut list = lists.list(i);
        let list_len = list.len();
        let start = if config.length_bounding {
            list.seek_len(lo_seek, config.use_skip_lists, &mut scratch.stats)?
        } else {
            0
        };
        let lambda_i = scratch.lambdas[i] * (1.0 + crate::EPS_REL);
        // µᵢ: no new candidate beyond λᵢ; nothing qualifies beyond
        // len(q)/τ. (λᵢ ≤ len(q)/τ always, but keep the min for the
        // no-length-bounding ablation where hi_cut is disabled.)
        let mu = if config.length_bounding {
            lambda_i.min(hi_cut)
        } else {
            lambda_i
        };

        scratch.sf_merged.clear();
        let mut ci = 0usize; // cursor into sf_cands
        let mut pos = start;
        loop {
            // Reading bound: the deepest point any existing candidate
            // or admissible new candidate can sit at. Only the
            // not-yet-merged tail of C matters; new insertions sit
            // below λᵢ ≤ µ already.
            let tail_max = if ci < scratch.sf_cands.len() {
                scratch.sf_cands[scratch.sf_cands.len() - 1].len
            } else {
                f64::NEG_INFINITY
            };
            let bound = mu.max(tail_max);
            if pos >= list_len {
                break;
            }
            if budget.exceeded(&scratch.stats) {
                scratch.status = SearchStatus::BudgetExceeded;
                return Ok(());
            }
            let p = list.posting(pos)?;
            if p.len > bound {
                break;
            }
            // Forward jump: past λᵢ no posting can be admitted as a
            // new candidate (lists are length-sorted, so every later
            // posting is past λᵢ too), and postings ordered before the
            // next pending candidate cannot match any pending
            // candidate either. Seek straight to that candidate's key;
            // everything bypassed is provably irrelevant and counted
            // as skipped, not read.
            if config.block_skip && p.len > lambda_i && ci < scratch.sf_cands.len() {
                let c = scratch.sf_cands[ci];
                if key(p.len, p.id) < key(c.len, c.id) {
                    pos =
                        list.seek_key(pos, c.len, c.id, config.use_skip_lists, &mut scratch.stats)?;
                    continue;
                }
            }
            pos += 1;
            scratch.stats.elements_read += 1;

            // Merge step: flush candidates ordered before this posting;
            // they did not appear in list i.
            while ci < scratch.sf_cands.len()
                && key(scratch.sf_cands[ci].len, scratch.sf_cands[ci].id) < key(p.len, p.id)
            {
                let c = scratch.sf_cands[ci];
                ci += 1;
                scratch.stats.candidate_scan_steps += 1;
                let upper = (c.dot + scratch.suffix[i + 1]) / (c.len * query.len);
                if !safely_below(upper, tau) {
                    scratch.sf_merged.push(c);
                }
            }
            let idf_sq = query.tokens[i].idf_sq;
            if ci < scratch.sf_cands.len()
                && key(scratch.sf_cands[ci].len, scratch.sf_cands[ci].id) == key(p.len, p.id)
            {
                // Existing candidate found in list i.
                let mut c = scratch.sf_cands[ci];
                ci += 1;
                c.dot += idf_sq;
                scratch.sf_merged.push(c);
            } else if p.len <= lambda_i {
                // New candidate admissible in list i.
                scratch.stats.candidates_inserted += 1;
                scratch.sf_merged.push(SfCand {
                    id: p.id,
                    len: p.len,
                    dot: idf_sq,
                });
            }
        }
        // Flush candidates beyond the last posting read: skipped in
        // list i as well.
        while ci < scratch.sf_cands.len() {
            let c = scratch.sf_cands[ci];
            ci += 1;
            scratch.stats.candidate_scan_steps += 1;
            let upper = (c.dot + scratch.suffix[i + 1]) / (c.len * query.len);
            if !safely_below(upper, tau) {
                scratch.sf_merged.push(c);
            }
        }
        std::mem::swap(&mut scratch.sf_cands, &mut scratch.sf_merged);
        if scratch.sf_cands.is_empty() && i + 1 < n {
            // No candidate survives; later lists cannot create viable
            // new ones deeper than their own λ, so continue — λ keeps
            // shrinking and scans stay shallow.
            continue;
        }
    }

    // Lists run in query-token order: one division gives canonical_score.
    for ci in 0..scratch.sf_cands.len() {
        let c = scratch.sf_cands[ci];
        let score = c.dot / (c.len * query.len);
        if crate::passes(score, tau) {
            scratch.results.push(Match { id: c.id, score });
        }
    }
    Ok(())
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
    fn agrees_with_scan_all_configs() {
        let c = setup(&[
            "main street",
            "main st",
            "maine street",
            "park avenue",
            "main street east",
            "maine",
            "mainstreet",
            "st main",
        ]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let configs = [
            AlgoConfig::full(),
            AlgoConfig::no_skip_lists(),
            AlgoConfig::no_length_bounding(),
        ];
        for text in ["main street", "maine", "park avenue", "main", "st"] {
            let q = idx.prepare_query_str(text);
            for tau in [0.2, 0.5, 0.8, 1.0] {
                let oracle = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau);
                for cfg in configs {
                    let got = run(&idx, AlgorithmKind::Sf, cfg, &q, tau);
                    assert_eq!(
                        got.ids_sorted(),
                        oracle.ids_sorted(),
                        "q={text} tau={tau} cfg={cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_list_merge_keeps_exact_scores() {
        let c = setup(&["abcdef", "abcxyz", "abqrst", "abcdxy"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.1);
        assert!(!out.results.is_empty());
        for m in &out.results {
            let expect = crate::algorithms::table_score(&idx, &q, m.id);
            assert_eq!(m.score.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn no_random_probes_and_no_hash_needed() {
        // SF must run on an index without hash structures at all.
        let c = setup(&["abcdef", "abcxyz", "defghi"]);
        let lean = IndexOptions {
            build_hash_indexes: false,
            build_id_sorted_lists: false,
            ..IndexOptions::default()
        };
        let idx = InvertedIndex::build(&c, lean);
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.4);
        assert_eq!(out.stats.random_probes, 0);
        assert!(!out.results.is_empty());
    }

    #[test]
    fn shallow_scans_on_frequent_lists() {
        // A flood of long records sharing the query's grams: they populate
        // the query's lists but sit far beyond the length window, so SF
        // skips essentially all of them.
        let mut texts: Vec<String> = (0..500)
            .map(|i| format!("zyxwvut padded with lots of extra material {i:04}"))
            .collect();
        texts.push("zyxwvut".into());
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("zyxwvut");
        let out = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.8);
        assert_eq!(out.results.len(), 1);
        assert!(
            out.stats.pruning_pct() > 90.0,
            "pruning {}%",
            out.stats.pruning_pct()
        );
    }

    #[test]
    fn empty_query() {
        let c = setup(&["abcd"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("");
        assert!(run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, 0.5)
            .results
            .is_empty());
    }
}
