//! Galloping and block-at-a-time intersection kernels, plus the block-max
//! directory that turns a run of sorted postings into a skippable layer.
//!
//! *Fast Set Intersection in Memory* (Ding & König; see PAPERS.md) shows
//! that once lists are resident, element-at-a-time cursor merges lose to
//! exponential-probe ("galloping") seeks on skewed length ratios and to
//! word-level AND on dense inputs. These kernels package both shapes for
//! the inverted-list layer:
//!
//! * [`gallop_seek_by`] — position a cursor at the first element
//!   satisfying a predicate boundary, probing `1, 2, 4, …` ahead and then
//!   binary-searching the bracketed gap. Returns the probe count so
//!   callers can charge reads precisely (a probe inspects one element;
//!   everything leapt over was never touched).
//! * [`intersect_sorted_linear`] / [`intersect_sorted_gallop`] /
//!   [`intersect_run_bitmap`] / [`intersect_bitmaps`] — the four
//!   run/bitmap intersection pairings; all produce identical ascending
//!   output, which the differential tests exploit.
//! * [`BlockMaxIndex`] — the first sort key of every fixed-stride block of
//!   a sorted run. Posting lists sort ascending by `(len, id)`, and the
//!   per-token contribution `w = idf²/(len·len_q)` falls as `len` grows,
//!   so a block's *first* key bounds the best score any posting inside it
//!   can contribute: block-max weight metadata is exactly the ascending
//!   `first_key` array, and skipping every block whose first key exceeds a
//!   target is sound. It is the one skip layer every posting list seeks
//!   through.

use crate::bitmap::DenseBitmap;

/// Position of the first element at index `≥ from` for which `below`
/// returns `false`, found by galloping (exponential probe + binary
/// search); `xs` must be partitioned so that `below` is monotone
/// (true-prefix, false-suffix) from `from` onward.
///
/// Returns `(index, probes)`: `index == xs.len()` if every element tests
/// below, and `probes` is the number of elements actually inspected —
/// the caller's exact sequential-read charge. Elements between probes are
/// never touched.
pub fn gallop_seek_by<T>(xs: &[T], from: usize, mut below: impl FnMut(&T) -> bool) -> (usize, u64) {
    let n = xs.len();
    if from >= n {
        return (n, 0);
    }
    let mut probes = 0u64;
    // First probe: the very next element (the common no-skip case).
    probes += 1;
    if !below(&xs[from]) {
        return (from, probes);
    }
    // Exponential probe: bracket the boundary between lo (below) and hi.
    let mut step = 1usize;
    let mut lo = from; // last index known to test below
    loop {
        let hi = match lo.checked_add(step) {
            Some(h) if h < n => h,
            _ => {
                // Boundary is in (lo, n); probe the last element first so
                // "everything below" costs one probe, not log n.
                probes += 1;
                if below(&xs[n - 1]) {
                    return (n, probes);
                }
                break binary_boundary(xs, lo, n - 1, &mut below, &mut probes);
            }
        };
        probes += 1;
        if below(&xs[hi]) {
            lo = hi;
            step <<= 1;
        } else {
            break binary_boundary(xs, lo, hi, &mut below, &mut probes);
        }
    }
}

/// Binary search for the boundary in `(lo, hi]` where `below(xs[lo])` and
/// `!below(xs[hi])` are already established.
fn binary_boundary<T>(
    xs: &[T],
    mut lo: usize,
    mut hi: usize,
    below: &mut impl FnMut(&T) -> bool,
    probes: &mut u64,
) -> (usize, u64) {
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        *probes += 1;
        if below(&xs[mid]) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (hi, *probes)
}

/// Linear reference for [`gallop_seek_by`]: scan from `from` until the
/// predicate flips, counting every inspected element as a probe.
pub fn linear_seek_by<T>(xs: &[T], from: usize, mut below: impl FnMut(&T) -> bool) -> (usize, u64) {
    let mut i = from;
    let mut probes = 0u64;
    while i < xs.len() {
        probes += 1;
        if !below(&xs[i]) {
            break;
        }
        i += 1;
    }
    (i, probes)
}

/// Element-at-a-time intersection of two ascending runs (the reference
/// kernel the differential tests pin the others against).
#[must_use]
pub fn intersect_sorted_linear(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Galloping intersection: walk the shorter run, gallop in the longer.
/// Wins when the length ratio is skewed (`O(short · log long)`).
#[must_use]
pub fn intersect_sorted_gallop(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::new();
    let mut pos = 0usize;
    for &x in short {
        let (idx, _) = gallop_seek_by(long, pos, |&y| y < x);
        pos = idx;
        if pos < long.len() && long[pos] == x {
            out.push(x);
            pos += 1;
        }
    }
    out
}

/// Run × bitmap intersection: one membership probe per run element.
#[must_use]
pub fn intersect_run_bitmap(run: &[u32], bm: &DenseBitmap) -> Vec<u32> {
    run.iter().copied().filter(|&id| bm.contains(id)).collect()
}

/// Bitmap × bitmap intersection, block-at-a-time: whole 512-bit blocks
/// are skipped when either side's popcount directory reports them empty,
/// and surviving words are ANDed and enumerated.
#[must_use]
pub fn intersect_bitmaps(a: &DenseBitmap, b: &DenseBitmap) -> Vec<u32> {
    let mut out = Vec::new();
    let (wa, wb) = (a.words(), b.words());
    let words = wa.len().min(wb.len());
    let blocks = words.div_ceil(crate::bitmap::BLOCK_WORDS);
    for blk in 0..blocks {
        if a.block_pop(blk) == 0 || b.block_pop(blk) == 0 {
            continue;
        }
        let start = blk * crate::bitmap::BLOCK_WORDS;
        let end = (start + crate::bitmap::BLOCK_WORDS).min(words);
        for w in start..end {
            let mut bits = wa[w] & wb[w];
            while bits != 0 {
                out.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
    out
}

/// Block-max directory over a sorted run: the first sort key of every
/// `stride`-sized block, a flat array of fence keys whose offsets are
/// implicit (`b · stride`). Because the run ascends, `first_keys`
/// ascends, and (for posting lists keyed by `len` or `(len, id)`) the
/// per-token contribution of every posting in block `b` is bounded by
/// the weight at `first_keys[b]` — the block-max invariant the
/// micro-tests pin down.
///
/// This is the skip layer of every run and bitmap posting list: a seek
/// is one `partition_point` over the fences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMaxIndex<K> {
    stride: usize,
    first_keys: Vec<K>,
}

impl<K: Ord + Copy> BlockMaxIndex<K> {
    /// Build over `keys`, the sort keys of a run in ascending order.
    ///
    /// # Panics
    /// Panics if `stride` is zero or `keys` is not ascending (posting
    /// runs are sorted by construction; a violation is an upstream bug).
    #[must_use]
    pub fn build(keys: impl IntoIterator<Item = K>, stride: usize) -> Self {
        assert!(stride > 0, "block stride must be positive");
        let mut first_keys = Vec::new();
        let mut prev: Option<K> = None;
        for (i, k) in keys.into_iter().enumerate() {
            assert!(
                prev.map_or(true, |p| p <= k),
                "block-max keys must be non-decreasing"
            );
            prev = Some(k);
            if i % stride == 0 {
                first_keys.push(k);
            }
        }
        Self { stride, first_keys }
    }

    /// Elements per block.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of blocks in the directory.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.first_keys.len()
    }

    /// First sort key of block `b` — equivalently, the key attaining the
    /// block's maximum contribution weight.
    #[must_use]
    pub fn first_key(&self, b: usize) -> K {
        self.first_keys[b]
    }

    /// Start offset of the run suffix that can contain a key `≥ min_key`:
    /// every element before the returned offset has a key strictly below
    /// `min_key` and may be skipped without inspection.
    ///
    /// This is the start of the **last** block whose first key is below
    /// `min_key` (the boundary may fall anywhere inside that block), or 0.
    #[must_use]
    pub fn seek_start(&self, min_key: K) -> usize {
        let b = self.first_keys.partition_point(|&k| k < min_key);
        self.stride * b.saturating_sub(1)
    }

    /// Heap footprint of the directory.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.first_keys.len() * std::mem::size_of::<K>() + std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic ascending id run of roughly `n` elements with gap
    /// texture controlled by `seed` (dense stretches and long jumps).
    fn run(n: usize, seed: u64) -> Vec<u32> {
        let mut x = seed | 1;
        let mut cur = 0u32;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let gap = match x >> 61 {
                0..=3 => 1,
                4..=5 => (x >> 20 & 7) as u32 + 1,
                _ => (x >> 20 & 127) as u32 + 1,
            };
            cur += gap;
            v.push(cur);
        }
        v
    }

    #[test]
    fn gallop_seek_matches_linear_on_boundaries() {
        let xs: Vec<u32> = (0..100).map(|i| i * 3).collect();
        for target in [0u32, 1, 3, 148, 296, 297, 1000] {
            let (g, gp) = gallop_seek_by(&xs, 0, |&x| x < target);
            let (l, lp) = linear_seek_by(&xs, 0, |&x| x < target);
            assert_eq!(g, l, "target {target}");
            assert!(gp >= 1 || xs.is_empty());
            assert!(
                lp >= gp || l < 8,
                "gallop should not probe more beyond tiny seeks"
            );
        }
    }

    #[test]
    fn gallop_seek_empty_and_past_end() {
        let xs: [u32; 0] = [];
        assert_eq!(gallop_seek_by(&xs, 0, |&x| x < 5), (0, 0));
        let ys = [1u32, 2, 3];
        assert_eq!(gallop_seek_by(&ys, 3, |&x| x < 5), (3, 0));
        let (idx, probes) = gallop_seek_by(&ys, 0, |&x| x < 100);
        assert_eq!(idx, 3);
        // All-below costs the first probe, one bracketing probe at the
        // end, plus the intermediate exponential probes.
        assert!(probes <= 4, "probes {probes}");
    }

    #[test]
    fn gallop_probes_logarithmic_on_long_runs() {
        let xs: Vec<u32> = (0..100_000).collect();
        let (idx, probes) = gallop_seek_by(&xs, 0, |&x| x < 99_999);
        assert_eq!(idx, 99_999);
        assert!(probes <= 40, "probes {probes} not O(log n)");
    }

    #[test]
    fn intersect_kernels_trivial_cases() {
        let empty: Vec<u32> = vec![];
        let one = vec![7u32];
        let dis_a = vec![1u32, 3, 5];
        let dis_b = vec![2u32, 4, 6];
        let full = vec![10u32, 20, 30];
        for (a, b, expect) in [
            (&empty, &empty, vec![]),
            (&empty, &one, vec![]),
            (&one, &one, vec![7]),
            (&dis_a, &dis_b, vec![]),
            (&full, &full, full.clone()),
        ] {
            assert_eq!(&intersect_sorted_linear(a, b), &expect);
            assert_eq!(&intersect_sorted_gallop(a, b), &expect);
            let ub = b.iter().chain(a.iter()).max().map_or(1, |m| m + 1);
            let bm = DenseBitmap::from_sorted_ids(b, ub);
            assert_eq!(&intersect_run_bitmap(a, &bm), &expect);
            let am = DenseBitmap::from_sorted_ids(a, ub);
            assert_eq!(&intersect_bitmaps(&am, &bm), &expect);
        }
    }

    #[test]
    fn block_max_first_keys_ascend_and_bound_blocks() {
        let keys: Vec<u64> = run(5000, 0xfeed).iter().map(|&x| u64::from(x)).collect();
        let bmx = BlockMaxIndex::build(keys.iter().copied(), 16);
        assert_eq!(bmx.num_blocks(), keys.len().div_ceil(16));
        for b in 1..bmx.num_blocks() {
            assert!(
                bmx.first_key(b - 1) <= bmx.first_key(b),
                "directory must ascend"
            );
        }
        // Every key inside block b is >= the block's first key (so the
        // first key attains the block's max contribution weight).
        for (i, &k) in keys.iter().enumerate() {
            assert!(k >= bmx.first_key(i / 16));
        }
    }

    #[test]
    fn block_max_seek_start_is_sound_and_tight() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 2).collect();
        let bmx = BlockMaxIndex::build(keys.iter().copied(), 16);
        for min_key in [0u64, 1, 2, 31, 32, 999, 1000, 1998, 1999, 5000] {
            let start = bmx.seek_start(min_key);
            // Soundness: everything skipped is strictly below the target.
            for &k in &keys[..start] {
                assert!(k < min_key, "skipped key {k} >= target {min_key}");
            }
            // Tightness: the boundary lies within one stride of the start.
            let true_boundary = keys.partition_point(|&k| k < min_key);
            assert!(true_boundary >= start);
            assert!(
                true_boundary - start <= 16,
                "start {start} boundary {true_boundary}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn block_max_rejects_descending_keys() {
        let _ = BlockMaxIndex::build([5u64, 3], 4);
    }

    proptest! {
        #[test]
        fn gallop_equals_linear_everywhere(
            na in 0usize..600,
            seed in 0u64..1u64 << 48,
            from_frac in 0u32..100,
            target_frac in 0u32..120,
        ) {
            let xs = run(na, seed);
            let hi = xs.last().copied().unwrap_or(0) + 2;
            let target = u64::from(hi) * u64::from(target_frac) / 100;
            let target = u32::try_from(target).unwrap();
            let from = xs.len() * from_frac as usize / 100;
            let (g, gp) = gallop_seek_by(&xs, from, |&x| x < target);
            let (l, lp) = linear_seek_by(&xs, from, |&x| x < target);
            prop_assert_eq!(g, l);
            // Probe accounting: a seek never inspects more elements than
            // it advances past plus one boundary probe set; both kernels
            // charge at most the traversed span + bracketing.
            prop_assert!(lp <= (l - from) as u64 + 1);
            prop_assert!(gp <= (l - from) as u64 + 2 * u64::from(usize::BITS));
        }

        #[test]
        fn intersections_agree_on_skewed_runs(
            na in 0usize..400,
            nb in 0usize..400,
            sa in 0u64..1u64 << 48,
            sb in 0u64..1u64 << 48,
        ) {
            let a = run(na, sa);
            let b = run(nb, sb);
            let expect = intersect_sorted_linear(&a, &b);
            prop_assert_eq!(&intersect_sorted_gallop(&a, &b), &expect);
            let ub = a.iter().chain(b.iter()).max().map_or(1, |m| m + 1);
            let bm_b = DenseBitmap::from_sorted_ids(&b, ub);
            prop_assert_eq!(&intersect_run_bitmap(&a, &bm_b), &expect);
            let bm_a = DenseBitmap::from_sorted_ids(&a, ub);
            prop_assert_eq!(&intersect_bitmaps(&bm_a, &bm_b), &expect);
        }

        /// `seek_start` equals the closed form "start of the block holding
        /// the last key below the target" over both key shapes posting
        /// lists use: `len` bits alone and `(len bits, id)` pairs. That
        /// closed form is the predecessor of the target among the
        /// every-stride keys, so it pins the exact offsets (and hence the
        /// skipped/read counters) of every length and candidate seek.
        #[test]
        fn block_max_seek_sound_on_random_runs(
            n in 1usize..2000,
            seed in 0u64..1u64 << 48,
            stride in 1usize..64,
            target_frac in 0u32..120,
            target_id in 0u32..2000,
        ) {
            fn closed_form<K: Ord>(keys: &[K], stride: usize, t: &K) -> usize {
                let b = keys.partition_point(|k| k < t);
                if b == 0 { 0 } else { stride * ((b - 1) / stride) }
            }
            // Coarse lengths so equal-length ties (broken by id) are common.
            let lens: Vec<u64> = run(n, seed).iter().map(|&x| u64::from(x / 4)).collect();
            let pairs: Vec<(u64, u32)> =
                lens.iter().enumerate().map(|(i, &l)| (l, i as u32)).collect();
            let by_len = BlockMaxIndex::build(lens.iter().copied(), stride);
            let by_pair = BlockMaxIndex::build(pairs.iter().copied(), stride);
            let hi = lens.last().copied().unwrap_or(0) + 2;
            let t = hi * u64::from(target_frac) / 100;
            prop_assert_eq!(by_len.seek_start(t), closed_form(&lens, stride, &t));
            let tp = (t, target_id);
            prop_assert_eq!(by_pair.seek_start(tp), closed_form(&pairs, stride, &tp));
            // A pair seek with id 0 lands where the len-only seek does.
            prop_assert_eq!(by_pair.seek_start((t, 0)), by_len.seek_start(t));
        }
    }
}
