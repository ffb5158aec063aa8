use crate::algorithms::{assert_query_width, canonical_score};
use crate::engine::{CandCell, SearchCtx};
use crate::{safely_below, Match, SearchStatus, SetId};

// Classic NRA tracks no set length for its *bounds*: those use frontier
// weights only (that blindness is exactly what iNRA fixes). The scratch
// CandCell's len field is still recorded so completed candidates can be
// emitted through `canonical_score` — order-independent bits.

/// The classic No-Random-Access algorithm (Algorithm 1).
///
/// Sequential accesses only, in round-robin order. A hash table keeps one
/// candidate per discovered set with its partial (lower-bound) score and a
/// bit vector of the lists it has appeared in; upper bounds use the
/// frontier contributions `wᵢ(fᵢ)`. After each round the candidate set is
/// scanned: candidates whose upper bound falls below τ are discarded,
/// candidates whose score is complete and ≥ τ are reported. The search
/// ends when the candidate set empties.
///
/// The paper could not run textbook NRA to completion at scale, so its
/// experiments enable two bookkeeping reducers, as does this
/// implementation: skip candidate scans while the frontier bound `F ≥ τ`
/// (the search cannot terminate before `F < τ` anyway), and end a scan at
/// the first still-viable candidate.
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
    assert_query_width(query);

    let lists: Vec<&[crate::Posting]> = query
        .tokens
        .iter()
        .map(|qt| index.query_list(qt.token).postings())
        .collect();
    let n = lists.len();
    scratch.pos.resize(n, 0);
    scratch.frontier.resize(n, f64::INFINITY); // wᵢ(fᵢ); 0 when exhausted
    scratch.closed.resize(n, false); // exhaustion flags, refreshed per round

    loop {
        if budget.exceeded(&scratch.stats) {
            scratch.status = SearchStatus::BudgetExceeded;
            return;
        }
        scratch.stats.rounds += 1;
        let mut any_read = false;
        for i in 0..n {
            if scratch.pos[i] >= lists[i].len() {
                scratch.frontier[i] = 0.0;
                continue;
            }
            let p = lists[i][scratch.pos[i]];
            scratch.pos[i] += 1;
            scratch.stats.elements_read += 1;
            any_read = true;
            let w = query.tokens[i].idf_sq / (p.len * query.len);
            scratch.frontier[i] = w;
            let e = scratch.candidates.entry(p.id.0).or_insert_with(|| {
                scratch.stats.candidates_inserted += 1;
                CandCell::default()
            });
            e.lower += w;
            e.len = p.len;
            e.seen |= 1u128 << i;
        }

        for (i, list) in lists.iter().enumerate() {
            scratch.closed[i] = scratch.pos[i] >= list.len();
        }
        let all_exhausted = scratch.closed.iter().all(|&e| e);
        // Best possible score of an unseen set.
        let f: f64 = (0..n)
            .map(|i| {
                if scratch.closed[i] {
                    0.0
                } else {
                    scratch.frontier[i]
                }
            })
            .sum();

        let must_scan = safely_below(f, tau) || all_exhausted;
        if must_scan {
            scratch.to_remove.clear();
            for (&id, c) in &scratch.candidates {
                scratch.stats.candidate_scan_steps += 1;
                let mut upper = c.lower;
                let mut complete = true;
                for i in 0..n {
                    if c.seen & (1u128 << i) != 0 {
                        continue;
                    }
                    if scratch.closed[i] {
                        continue; // resolved: not in list i
                    }
                    complete = false;
                    upper += scratch.frontier[i];
                }
                if complete {
                    // Emit the order-canonical score, not the
                    // round-order partial sum (see canonical_score).
                    let score = canonical_score(query, c.len, |i| c.seen & (1u128 << i) != 0);
                    if crate::passes(score, tau) {
                        scratch.results.push(Match {
                            id: SetId(id),
                            score,
                        });
                    }
                    scratch.to_remove.push(id);
                } else if safely_below(upper, tau) {
                    scratch.to_remove.push(id);
                } else if !all_exhausted {
                    break; // a viable candidate survives; stop scanning
                }
            }
            for id in &scratch.to_remove {
                scratch.candidates.remove(id);
            }
        }

        if all_exhausted {
            break; // final scan above resolved every candidate
        }
        if scratch.candidates.is_empty() && safely_below(f, tau) {
            break;
        }
        if !any_read {
            break; // defensive: nothing left to read
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

    fn check_against_scan(texts: &[&str], queries: &[&str], taus: &[f64]) {
        let c = setup(texts);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        for text in queries {
            let q = idx.prepare_query_str(text);
            for &tau in taus {
                let oracle = run(&idx, AlgorithmKind::Scan, AlgoConfig::full(), &q, tau);
                let got = run(&idx, AlgorithmKind::Nra, AlgoConfig::full(), &q, tau);
                assert_eq!(got.ids_sorted(), oracle.ids_sorted(), "q={text} tau={tau}");
            }
        }
    }

    #[test]
    fn agrees_with_scan() {
        check_against_scan(
            &[
                "main street",
                "main st",
                "maine street",
                "park avenue",
                "main street east",
                "maine",
            ],
            &["main street", "maine", "park avenue", "main"],
            &[0.2, 0.5, 0.8, 1.0],
        );
    }

    #[test]
    fn agrees_on_identical_lengths() {
        // All sets the same length: frontier bounds stay flat for a while.
        check_against_scan(
            &["abcd", "bcda", "cdab", "dabc"],
            &["abcd", "bcda"],
            &[0.3, 0.7, 1.0],
        );
    }

    #[test]
    fn no_random_probes() {
        let c = setup(&["abcdef", "abcxyz"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::Nra, AlgoConfig::full(), &q, 0.5);
        assert_eq!(out.stats.random_probes, 0);
    }

    #[test]
    fn scores_are_exact() {
        let c = setup(&["abcdef", "abcxyz", "abqrst"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("abcdef");
        let out = run(&idx, AlgorithmKind::Nra, AlgoConfig::full(), &q, 0.1);
        assert!(!out.results.is_empty());
        for m in &out.results {
            let expect = crate::algorithms::table_score(&idx, &q, m.id);
            assert_eq!(m.score.to_bits(), expect.to_bits(), "{m:?}");
        }
    }

    #[test]
    fn empty_query() {
        let c = setup(&["abcd"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("");
        assert!(run(&idx, AlgorithmKind::Nra, AlgoConfig::full(), &q, 0.5)
            .results
            .is_empty());
    }
}
