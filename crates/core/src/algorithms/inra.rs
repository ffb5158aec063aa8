use crate::algorithms::{assert_query_width, AlgoConfig, MAX_QUERY_LISTS};
use crate::engine::{CandCell, SearchCtx};
use crate::{properties, safely_below, Match, SearchStatus, SetId};

/// The improved NRA algorithm (Algorithm 2, "iNRA").
///
/// Breadth-first round-robin like NRA, with every semantic property of
/// Section IV engaged:
///
/// * **Length Boundedness** — lists start at `τ·len(q)` (skip-list seek)
///   and are marked complete once the frontier passes `len(q)/τ`.
/// * **Magnitude Boundedness** — a new set is only admitted as a candidate
///   if its exact best-case score `Σⱼ wⱼ(s)` reaches τ; upper bounds of
///   tracked candidates use `wᵢ(s)` (a function of the set's own length),
///   not the looser frontier weights.
/// * **Order Preservation** — if `len(s) < len(fᵢ)` and `s` has not been
///   seen in list `i`, then `s ∉ list i`: the list's contribution resolves
///   to zero without reading further.
///
/// Bookkeeping reducers from Section V: no new candidates are admitted
/// once the unseen-set bound `F` drops below τ; candidate scans are
/// skipped entirely while `F ≥ τ` (the algorithm cannot terminate before
/// then); and a scan ends at the first still-viable candidate.
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

    // Stack-allocated list table: keeps the warm-scratch hot path free
    // of per-query heap allocation (width is capped by
    // assert_query_width / the engine's QueryTooWide check).
    let mut lists_buf: [&[crate::Posting]; MAX_QUERY_LISTS] = [&[]; MAX_QUERY_LISTS];
    let n = query.num_lists();
    for (slot, qt) in lists_buf.iter_mut().zip(&query.tokens) {
        *slot = index.query_list(qt.token).postings();
    }
    let lists = &lists_buf[..n];
    let (len_lo, len_hi) = properties::length_bounds(tau, query.len);
    let hi_cut = len_hi * (1.0 + crate::EPS_REL);

    scratch.pos.resize(n, 0);
    scratch.closed.resize(n, false);
    // Frontier length per list (last posting read by sorted access).
    scratch.frontier.resize(n, 0.0);
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
    // F from the previous round; sound for gating new insertions since
    // frontier weights only decrease.
    let mut f_bound = f64::INFINITY;

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
            // Endgame block skipping: once F < τ no posting can be
            // admitted as a new candidate, so list i only owes the
            // entries of candidates still unseen in it and not yet
            // resolved absent by Order Preservation. Jump straight to
            // the smallest such key — every bypassed posting either
            // belongs to no candidate or to one already seen here, and
            // is counted as skipped. If no such candidate exists the
            // list's tail is irrelevant: close it outright. (The
            // frontier is left where the last *read* put it, which
            // only under-resolves — never a false resolution.)
            if config.block_skip && safely_below(f_bound, tau) {
                let mut target: Option<(u64, u32)> = None;
                for (&id, c) in &scratch.candidates {
                    if c.seen & (1u128 << i) != 0 || c.len < scratch.frontier[i] {
                        continue;
                    }
                    let k = (c.len.to_bits(), id);
                    if target.map_or(true, |t| k < t) {
                        target = Some(k);
                    }
                }
                match target {
                    None => {
                        scratch.stats.elements_skipped += (lists[i].len() - scratch.pos[i]) as u64;
                        scratch.closed[i] = true;
                        continue;
                    }
                    Some((len_bits, id)) => {
                        scratch.pos[i] = index.query_list(query.tokens[i].token).seek_key(
                            scratch.pos[i],
                            f64::from_bits(len_bits),
                            SetId(id),
                            config.use_skip_lists,
                            &mut scratch.stats,
                        );
                        if scratch.pos[i] >= lists[i].len() {
                            scratch.closed[i] = true;
                            continue;
                        }
                    }
                }
            }
            let p = lists[i][scratch.pos[i]];
            scratch.pos[i] += 1;
            scratch.stats.elements_read += 1;
            any_read = true;
            scratch.frontier[i] = p.len;
            if scratch.pos[i] >= lists[i].len() {
                scratch.closed[i] = true;
            }
            if config.length_bounding && p.len > hi_cut {
                scratch.closed[i] = true;
                continue;
            }
            let w = query.tokens[i].idf_sq / (p.len * query.len);
            if let Some(c) = scratch.candidates.get_mut(&p.id.0) {
                c.lower += w;
                c.seen |= 1u128 << i;
                continue;
            }
            // New set: admit only if it could still qualify.
            if safely_below(f_bound, tau) {
                continue;
            }
            let best = properties::max_score(query.idf_sq_total, p.len, query.len);
            if safely_below(best, tau) {
                continue;
            }
            scratch.stats.candidates_inserted += 1;
            scratch.candidates.insert(
                p.id.0,
                CandCell {
                    lower: w,
                    len: p.len,
                    seen: 1u128 << i,
                },
            );
        }

        let all_closed = scratch.closed.iter().all(|&c| c);
        f_bound = (0..n)
            .map(|i| {
                if scratch.closed[i] {
                    0.0
                } else {
                    query.tokens[i].idf_sq / (scratch.frontier[i] * query.len)
                }
            })
            .sum();

        // The search cannot terminate while F ≥ τ, so candidate scans
        // before that point are wasted work (Section V).
        if safely_below(f_bound, tau) || all_closed {
            scratch.to_remove.clear();
            for (&id, c) in &scratch.candidates {
                scratch.stats.candidate_scan_steps += 1;
                let mut upper = c.lower;
                let mut complete = true;
                for i in 0..n {
                    if c.seen & (1u128 << i) != 0 {
                        continue;
                    }
                    // Order Preservation: the frontier passed this
                    // set's length, so it cannot be in list i.
                    if scratch.closed[i] || c.len < scratch.frontier[i] {
                        continue;
                    }
                    complete = false;
                    // Magnitude Boundedness: the set's own weight is a
                    // tighter cap than the frontier weight.
                    upper += query.tokens[i].idf_sq / (c.len * query.len);
                }
                if complete {
                    // Emit the order-canonical score, not the
                    // round-order partial sum (see canonical_score).
                    let score = crate::algorithms::canonical_score(query, c.len, |i| {
                        c.seen & (1u128 << i) != 0
                    });
                    if crate::passes(score, tau) {
                        scratch.results.push(Match {
                            id: SetId(id),
                            score,
                        });
                    }
                    scratch.to_remove.push(id);
                } else if safely_below(upper, tau) {
                    scratch.to_remove.push(id);
                } else if !all_closed {
                    break; // early scan exit at the first survivor
                }
            }
            for id in &scratch.to_remove {
                scratch.candidates.remove(id);
            }
        }

        if all_closed {
            break;
        }
        if scratch.candidates.is_empty() && safely_below(f_bound, tau) {
            break;
        }
        if !any_read {
            break;
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
                    let got = run(&idx, AlgorithmKind::INra, cfg, &q, tau);
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
    fn prunes_more_than_nra() {
        // Length ladder with shared grams and a mid-length query: length
        // bounding skips the short prefixes of every list, which blind NRA
        // must read (Lemma 1's direction of improvement).
        let seq = super::super::test_support::pseudoseq(160);
        let texts: Vec<String> = (3..120).map(|i| seq[..i].to_string()).collect();
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str(&seq[..60]);
        let nra = run(&idx, AlgorithmKind::Nra, AlgoConfig::full(), &q, 0.9);
        let inra = run(&idx, AlgorithmKind::INra, AlgoConfig::full(), &q, 0.9);
        assert_eq!(nra.ids_sorted(), inra.ids_sorted());
        assert!(
            2 * inra.stats.elements_read < nra.stats.elements_read,
            "iNRA {} vs NRA {}",
            inra.stats.elements_read,
            nra.stats.elements_read
        );
    }

    #[test]
    fn unique_lengths_tau_one_touches_little() {
        // Theorem 1 with unique lengths and τ = 1: the window collapses to
        // a single length, so almost nothing is read (the Section V
        // observation that any Length Bounded algorithm beats NRA
        // arbitrarily here). A non-repeating sequence keeps gram sets
        // distinct (a cyclic alphabet would alias whole prefixes).
        let seq = super::super::test_support::pseudoseq(120);
        let texts: Vec<String> = (3..80).map(|i| seq[..i].to_string()).collect();
        let refs: Vec<&str> = texts.iter().map(std::string::String::as_str).collect();
        let c = setup(&refs);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str(&seq[..40]);
        let out = run(&idx, AlgorithmKind::INra, AlgoConfig::full(), &q, 1.0);
        assert_eq!(out.results.len(), 1);
        assert!(
            out.stats.pruning_pct() > 50.0,
            "pruning {}%",
            out.stats.pruning_pct()
        );
    }

    #[test]
    fn empty_query() {
        let c = setup(&["abcd"]);
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let q = idx.prepare_query_str("");
        assert!(run(&idx, AlgorithmKind::INra, AlgoConfig::full(), &q, 0.5)
            .results
            .is_empty());
    }
}
