//! The benchmark's inputs: one corpus and one query stream shared by
//! every workload. The program under test sees only the generated
//! strings.
//!
//! The corpus and the query stream are the same on every run: both come
//! from [`DATA_SEED`], and `--seed` is accepted and not used. Drawing the
//! data from the seed would move every metric with the data instead of
//! with the code. The Zipf head of the vocabulary is a handful of words
//! whose lengths decide the size of the longest lists: across ten corpus
//! seeds the heap workload's peak RSS ranged over 9 % and its median
//! latency over 14 %. And a query costs in proportion to how often its
//! word occurs, so which head words a sample happens to hold decides the
//! tail: across ten query samples `mixed_rw`'s p99 ranged from 94 to
//! 136 µs, against 97 to 106 µs for four runs of one sample. Neither fits
//! under a bound of a tenth.

use crate::sut::{self, Corpus};

/// Sizes of one benchmark run. `FULL` is what `BENCHMARK.json` measures;
/// `TINY` is the same code at a size the crate's smoke test can afford.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    pub(crate) name: &'static str,
    pub(crate) records: usize,
    pub(crate) vocab: usize,
    /// Queries per regime; the stream holds three times as many.
    pub(crate) per_class: usize,
    /// Prefix of the stream the paged workloads run (≈3.6 ms a query
    /// today, so the full stream would not fit the run budget).
    pub(crate) paged_queries: usize,
    /// Prefix of the stream the traced ladder replays through every rung.
    pub(crate) trace_queries: usize,
    /// Shorter prefix for the ladder's millisecond rungs (iNRA, Hybrid,
    /// paged), so that a traced run costs no more than an untraced one.
    pub(crate) slow_queries: usize,
    /// Word occurrences `mixed_rw` holds out of its base to insert later.
    pub(crate) heldout: usize,
    /// Queries `heap_select` re-answers with a full scan.
    pub(crate) scan_sample: usize,
    /// Queries `mixed_rw` re-answers with a full scan, before and after
    /// its compaction.
    pub(crate) mixed_scan_sample: usize,
    /// How long each rung of the traced ladder keeps timing passes once
    /// it has `--min-passes` (the untraced workloads take `--seconds`).
    pub(crate) rung_seconds: f64,
}

impl Scale {
    pub(crate) const FULL: Scale = Scale {
        name: "full",
        records: 100_000,
        vocab: 25_000,
        per_class: 1024,
        paged_queries: 1024,
        trace_queries: 288,
        slow_queries: 96,
        heldout: 8192,
        scan_sample: 128,
        mixed_scan_sample: 64,
        rung_seconds: 0.25,
    };

    pub(crate) const TINY: Scale = Scale {
        name: "tiny",
        records: 2_000,
        vocab: 1_200,
        per_class: 32,
        paged_queries: 96,
        trace_queries: 96,
        slow_queries: 48,
        heldout: 256,
        scan_sample: 16,
        mixed_scan_sample: 8,
        rung_seconds: 0.0,
    };

    pub(crate) fn parse(name: &str) -> Option<Scale> {
        [Scale::FULL, Scale::TINY]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// Seed of the corpus, of the query sample and of the traced run's fixed
/// arrays (the seed `BENCH_seed.json` was recorded with).
pub(crate) const DATA_SEED: u64 = 42;

/// Length bands of [`crate::workloads::sharded_scatter`].
pub(crate) const SHARDS: usize = 8;

/// The three regimes `BENCH_seed.json` names, round-robin in the stream:
/// `(name, gram bucket of LengthBucket::PAPER, edits, τ)`.
pub(crate) const CLASSES: [(&str, usize, usize, f64); 3] = [
    ("selective", 2, 0, 0.8),
    ("permissive", 2, 0, 0.6),
    ("dirty", 1, 1, 0.7),
];

/// One query of the stream; query `i` belongs to class `i % 3`.
#[derive(Debug, Clone)]
pub(crate) struct Query {
    pub(crate) text: String,
    pub(crate) tau: f64,
}

/// The corpus and the query stream.
pub(crate) struct Inputs {
    pub(crate) corpus: Corpus,
    pub(crate) stream: Vec<Query>,
}

impl Inputs {
    pub(crate) fn generate(scale: Scale) -> Result<Self, String> {
        let corpus = sut::corpus(scale.records, scale.vocab, DATA_SEED);
        let classes = CLASSES.len();
        let mut per_class = Vec::with_capacity(classes);
        for (c, (name, bucket, edits, _)) in CLASSES.iter().enumerate() {
            // Distinct per-class samples.
            let class_seed = DATA_SEED ^ (0x9e37_79b9 + c as u64);
            let texts = sut::bucket_queries(&corpus, *bucket, *edits, scale.per_class, class_seed);
            if texts.len() != scale.per_class {
                return Err(format!(
                    "corpus has {} words for class {name}, need {}",
                    texts.len(),
                    scale.per_class
                ));
            }
            per_class.push(texts);
        }
        let stream = (0..scale.per_class * classes)
            .map(|i| Query {
                text: per_class[i % classes][i / classes].clone(),
                tau: CLASSES[i % classes].3,
            })
            .collect();
        Ok(Self { corpus, stream })
    }

    /// `n` queries spread evenly over `stream`, rotating through the
    /// three classes.
    pub(crate) fn sample(stream: &[Query], n: usize) -> Vec<&Query> {
        let step = (stream.len() / n.max(1)).max(1);
        (0..n.min(stream.len()))
            .map(|k| &stream[(k * step + k % CLASSES.len()).min(stream.len() - 1)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_rotates_through_the_classes_and_repeats() {
        let a = Inputs::generate(Scale::TINY).unwrap();
        let b = Inputs::generate(Scale::TINY).unwrap();
        let texts = |i: &Inputs| i.stream.iter().map(|q| q.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_eq!(a.stream.len(), 96);
        for (i, q) in a.stream.iter().enumerate() {
            assert_eq!(q.tau, CLASSES[i % 3].3);
        }
    }
}
