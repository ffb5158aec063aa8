use crate::algorithms::{assert_query_width, AlgoConfig, MAX_QUERY_LISTS};
use crate::engine::{PoolCand, SearchCtx};
use crate::{properties, safely_below, Match, SearchStatus, SetId};

/// The Hybrid algorithm (Section VII, Algorithm 4).
///
/// Round-robin breadth-first like iNRA, but each list additionally stops
/// at the SF reading bound: once list `i`'s frontier exceeds both `λᵢ` (no
/// new viable candidate can be *first discovered* here) and `max_len(C)`
/// (no tracked candidate can still appear here), the list **rests**. A
/// resting list resumes if a later-discovered candidate raises
/// `max_len(C)` past its head — that re-read rule is what makes the stop
/// sound under round-robin, where (unlike SF's fixed order) a set's first
/// sighting can come from any of its lists.
///
/// Hybrid therefore never descends deeper into a list than SF, and being
/// round-robin it also never reads more than iNRA (Lemma 4): the best of
/// both in element accesses. The price is bookkeeping: `max_len(C)` is
/// consulted on every access, which the paper's special candidate
/// organization makes `O(n)` — candidates are partitioned into per-list
/// append-only vectors (each sorted by length by construction, since
/// lists are scanned in increasing length order) plus a hash table on set
/// ids, so `max_len(C)` is read off the tails and pruning pops dead
/// entries from the backs. That pool lives in the engine scratch
/// ([`crate::engine::Scratch`]) so repeated queries reuse its allocations.
pub(crate) fn search(ctx: &mut SearchCtx<'_, '_>, config: AlgoConfig) {
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

    // Stack-allocated list table (see iNRA): no per-query heap
    // allocation on a warm scratch.
    let mut lists_buf: [&[crate::Posting]; MAX_QUERY_LISTS] = [&[]; MAX_QUERY_LISTS];
    let n = query.num_lists();
    for (slot, qt) in lists_buf.iter_mut().zip(&query.tokens) {
        *slot = index.query_list(qt.token).postings();
    }
    let lists = &lists_buf[..n];
    let (len_lo, len_hi) = properties::length_bounds(tau, query.len);
    let hi_cut = len_hi * (1.0 + crate::EPS_REL);
    query.idf_sq_suffix_sums_into(&mut scratch.suffix);
    properties::lambda_cutoffs_into(query, tau, &scratch.suffix, &mut scratch.lambdas);
    for l in &mut scratch.lambdas {
        *l *= 1.0 + crate::EPS_REL;
    }

    scratch.pos.resize(n, 0);
    scratch.closed.resize(n, false);
    scratch.resting.resize(n, false);
    for (i, list) in lists.iter().enumerate() {
        scratch.pos[i] = if config.length_bounding {
            index.query_list(query.tokens[i].token).seek_len(
                len_lo * (1.0 - crate::EPS_REL),
                config.use_skip_lists,
                &mut scratch.stats,
            )
        } else {
            0
        };
        scratch.closed[i] = scratch.pos[i] >= list.len();
    }
    scratch.pool.prepare(n);
    let mut f_star = f64::INFINITY;

    // Next unread length per list (∞ when closed/exhausted).
    let next_len = |pos: &[usize], closed: &[bool], i: usize| -> f64 {
        if closed[i] || pos[i] >= lists[i].len() {
            f64::INFINITY
        } else {
            lists[i][pos[i]].len
        }
    };

    loop {
        if budget.exceeded(&scratch.stats) {
            scratch.status = SearchStatus::BudgetExceeded;
            return;
        }
        scratch.stats.rounds += 1;
        let mut any_read = false;
        for i in 0..n {
            if scratch.closed[i] {
                continue;
            }
            if scratch.resting[i] {
                // Resume if a tracked candidate may still appear here.
                let head = next_len(&scratch.pos, &scratch.closed, i);
                let bound = scratch.pool.max_len().max(scratch.lambdas[i]);
                if head <= bound {
                    scratch.resting[i] = false;
                } else {
                    continue;
                }
            }
            let p = lists[i][scratch.pos[i]];
            scratch.pos[i] += 1;
            scratch.stats.elements_read += 1;
            any_read = true;
            if scratch.pos[i] >= lists[i].len() {
                scratch.closed[i] = true;
            }
            if config.length_bounding && p.len > hi_cut {
                scratch.closed[i] = true;
                continue;
            }
            let w = query.tokens[i].idf_sq / (p.len * query.len);
            if let Some(c) = scratch.pool.get_mut(p.id.0) {
                c.lower += w;
                c.seen |= 1u128 << i;
            } else {
                let admissible = !safely_below(f_star, tau)
                    && !safely_below(
                        properties::max_score(query.idf_sq_total, p.len, query.len),
                        tau,
                    );
                if admissible {
                    scratch.stats.candidates_inserted += 1;
                    scratch.pool.insert(
                        i,
                        PoolCand {
                            id: p.id.0,
                            len: p.len,
                            lower: w,
                            seen: 1u128 << i,
                            dead: false,
                        },
                    );
                }
            }
            // SF-style stop: beyond λᵢ nothing new viable can be first
            // discovered here, and beyond max_len(C) no tracked
            // candidate can still appear here.
            if !scratch.closed[i] && p.len > scratch.lambdas[i] && p.len > scratch.pool.max_len() {
                scratch.resting[i] = true;
            }
        }

        let all_closed = scratch.closed.iter().all(|&c| c);
        // Unseen-set bound via Magnitude Boundedness: a set first
        // discovered in list j has len ≥ that list's head, so its best
        // score is suffix(j) / (head·len(q)); the max over lists bounds
        // every unseen set (tighter than NRA's frontier sum).
        f_star = (0..n)
            .filter(|&j| !scratch.closed[j])
            .map(|j| {
                let head =
                    next_len(&scratch.pos, &scratch.closed, j).max(len_lo.max(f64::MIN_POSITIVE));
                scratch.suffix[j] / (head * query.len)
            })
            .fold(0.0f64, f64::max);

        if safely_below(f_star, tau) || all_closed || !any_read {
            for li in 0..n {
                for pi in 0..scratch.pool.per_list[li].len() {
                    let (id, len, lower, seen, dead) = {
                        let c = &scratch.pool.per_list[li][pi];
                        (c.id, c.len, c.lower, c.seen, c.dead)
                    };
                    if dead {
                        continue;
                    }
                    scratch.stats.candidate_scan_steps += 1;
                    let mut upper = lower;
                    let mut complete = true;
                    for i in 0..n {
                        if seen & (1u128 << i) != 0 {
                            continue;
                        }
                        // Resolved absent: list fully consumed for this
                        // length range (Order Preservation on the next
                        // unread posting).
                        if scratch.closed[i] || len < next_len(&scratch.pos, &scratch.closed, i) {
                            continue;
                        }
                        complete = false;
                        upper += query.tokens[i].idf_sq / (len * query.len);
                    }
                    if complete {
                        // Emit the order-canonical score, not the
                        // round-order partial sum (see canonical_score).
                        let score = crate::algorithms::canonical_score(query, len, |i| {
                            seen & (1u128 << i) != 0
                        });
                        if crate::passes(score, tau) {
                            scratch.results.push(Match {
                                id: SetId(id),
                                score,
                            });
                        }
                        scratch.pool.kill_at(li, pi);
                    } else if safely_below(upper, tau) {
                        scratch.pool.kill_at(li, pi);
                    }
                }
            }
        }

        if all_closed {
            break;
        }
        if scratch.pool.is_empty() && safely_below(f_star, tau) {
            break;
        }
        if !any_read {
            if scratch.pool.is_empty() {
                break;
            }
            // Defensive: all lists rest yet candidates remain (cannot
            // happen — resting implies frontier > max_len(C), which
            // resolves every candidate). Force progress.
            scratch.resting.fill(false);
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
                    let got = run(&idx, AlgorithmKind::Hybrid, cfg, &q, tau);
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
    fn reads_no_more_than_inra_and_sf() {
        let texts: Vec<String> = (0..400)
            .map(|i| {
                format!(
                    "entry {} number {:04}",
                    if i % 7 == 0 { "rare" } else { "common" },
                    i
                )
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        for qtext in ["rare", "common", "entry number"] {
            let q = idx.prepare_query_str(qtext);
            for tau in [0.6, 0.8, 0.95] {
                let hy = run(&idx, AlgorithmKind::Hybrid, AlgoConfig::full(), &q, tau);
                let inra = run(&idx, AlgorithmKind::INra, AlgoConfig::full(), &q, tau);
                let sf = run(&idx, AlgorithmKind::Sf, AlgoConfig::full(), &q, tau);
                assert_eq!(hy.ids_sorted(), inra.ids_sorted());
                assert_eq!(hy.ids_sorted(), sf.ids_sorted());
                // Lemma 4's spirit: Hybrid tracks the better of iNRA/SF
                // up to boundary-posting accounting (SF peeks the posting
                // that stops a scan without consuming it; round-robin
                // algorithms consume it — one posting per list per round).
                let slack = 2 * q.num_lists() as u64 + 8;
                assert!(
                    hy.stats.elements_read <= inra.stats.elements_read + slack,
                    "q={qtext} tau={tau}: hybrid {} vs iNRA {}",
                    hy.stats.elements_read,
                    inra.stats.elements_read
                );
                assert!(
                    hy.stats.elements_read <= sf.stats.elements_read + slack,
                    "q={qtext} tau={tau}: hybrid {} vs SF {}",
                    hy.stats.elements_read,
                    sf.stats.elements_read
                );
            }
        }
    }

    #[test]
    fn empty_query() {
        let c = setup(&["abcd"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("");
        assert!(
            run(&idx, AlgorithmKind::Hybrid, AlgoConfig::full(), &q, 0.5)
                .results
                .is_empty()
        );
    }
}
