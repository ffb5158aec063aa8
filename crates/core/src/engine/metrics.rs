//! Engine-level serving metrics.
//!
//! [`EngineMetrics`] aggregates per-query [`SearchStats`] and wall-clock
//! latency into lock-free counters plus a fixed-bucket (log₂ microsecond)
//! latency histogram, cheap enough to update on every query from any
//! worker thread. [`MetricsSnapshot`] is the read side: percentiles,
//! pruning power (the paper's Figure 7 metric, aggregated), and budget
//! hit counts, with a plain-text [`render`](MetricsSnapshot::render) used
//! by `setsim-cli bench`.

use crate::{SearchStats, SearchStatus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of log₂ latency buckets: bucket `b` holds queries with latency
/// in `[2^(b-1), 2^b)` microseconds (bucket 0 = sub-microsecond), so 40
/// buckets cover up to ~6 days.
const BUCKETS: usize = 40;

/// Lock-free aggregation of query statistics and latencies. Shared by all
/// engine entry points (single queries and batch workers); every field is
/// a relaxed atomic, so recording never contends.
#[derive(Debug)]
pub struct EngineMetrics {
    queries: AtomicU64,
    budget_exceeded: AtomicU64,
    matches: AtomicU64,
    /// Σ of every [`SearchStats`] counter, in [`SearchStats::FIELDS`] order.
    totals: [AtomicU64; SearchStats::FIELDS.len()],
    /// Σ pruning_pct × 100 (centi-percent), for a cheap integer mean.
    sum_pruning_centi: AtomicU64,
    latency_us_sum: AtomicU64,
    hist: [AtomicU64; BUCKETS],
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self {
            queries: AtomicU64::new(0),
            budget_exceeded: AtomicU64::new(0),
            matches: AtomicU64::new(0),
            totals: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_pruning_centi: AtomicU64::new(0),
            latency_us_sum: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Histogram bucket for a latency in microseconds.
fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        // lint: allow — bit width of a u64 is at most 64, exact in usize.
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound (µs) of histogram bucket `b`.
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        (1u64 << b) - 1
    }
}

impl EngineMetrics {
    /// Serve one query under the metrics: time `serve`, and when it
    /// succeeds record what `served` reads off its outcome — counters,
    /// status and match count. Every engine entry point goes through
    /// here, so this is the serving layer's one clock read (it feeds the
    /// latency histogram, never the algorithm kernels); a failed request
    /// records nothing.
    pub(crate) fn observe<T, E>(
        &self,
        serve: impl FnOnce() -> Result<T, E>,
        served: impl FnOnce(&T) -> (&SearchStats, SearchStatus, usize),
    ) -> Result<T, E> {
        let start = Instant::now();
        let out = serve()?;
        let (stats, status, matches) = served(&out);
        self.record(stats, status, matches as u64, start.elapsed());
        Ok(out)
    }

    /// Record one finished query.
    fn record(&self, stats: &SearchStats, status: SearchStatus, matches: u64, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if status == SearchStatus::BudgetExceeded {
            self.budget_exceeded.fetch_add(1, Ordering::Relaxed);
        }
        self.matches.fetch_add(matches, Ordering::Relaxed);
        for (total, v) in self.totals.iter().zip(stats.as_array()) {
            total.fetch_add(v, Ordering::Relaxed);
        }
        // lint: allow — pruning_pct ∈ [0, 100], ×100 fits u64 exactly.
        let centi = (stats.pruning_pct() * 100.0).round() as u64;
        self.sum_pruning_centi.fetch_add(centi, Ordering::Relaxed);
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.latency_us_sum.fetch_add(us, Ordering::Relaxed);
        self.hist[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of the counters. (Counters
    /// are read individually with relaxed ordering; mid-query skew is at
    /// most one query, which is irrelevant for serving dashboards.)
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let hist: Vec<u64> = self
            .hist
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let queries = self.queries.load(Ordering::Relaxed);
        MetricsSnapshot {
            queries,
            budget_exceeded: self.budget_exceeded.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
            totals: SearchStats::from_array(std::array::from_fn(|i| {
                self.totals[i].load(Ordering::Relaxed)
            })),
            mean_pruning_pct: if queries == 0 {
                100.0
            } else {
                // lint: allow — u64 counts well below 2^53; exact in f64.
                self.sum_pruning_centi.load(Ordering::Relaxed) as f64 / (100.0 * queries as f64)
            },
            latency_us_sum: self.latency_us_sum.load(Ordering::Relaxed),
            p50_us: percentile(&hist, queries, 0.50),
            p95_us: percentile(&hist, queries, 0.95),
            p99_us: percentile(&hist, queries, 0.99),
        }
    }

    /// Zero every counter (between benchmark phases).
    pub fn reset(&self) {
        let scalars = [
            &self.queries,
            &self.budget_exceeded,
            &self.matches,
            &self.sum_pruning_centi,
            &self.latency_us_sum,
        ];
        for cell in scalars.into_iter().chain(&self.totals).chain(&self.hist) {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

/// Smallest bucket upper bound covering quantile `q` of the histogram.
/// Percentiles are bucket upper bounds, so they over- rather than
/// under-report latency (conservative for SLO checks).
fn percentile(hist: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    // lint: allow — ceil of a value ≤ total (a u64); exact enough for a
    // rank, and clamped below.
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (b, &count) in hist.iter().enumerate() {
        cum += count;
        if cum >= target {
            return bucket_upper(b);
        }
    }
    bucket_upper(hist.len().saturating_sub(1))
}

/// Point-in-time copy of [`EngineMetrics`], with derived percentiles.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MetricsSnapshot {
    /// Queries recorded.
    pub queries: u64,
    /// Queries cut short by a budget.
    pub budget_exceeded: u64,
    /// Matches returned across all queries.
    pub matches: u64,
    /// Σ of every per-query [`SearchStats`] counter — what folding each
    /// outcome's `stats` with [`SearchStats::merge`] gives.
    pub totals: SearchStats,
    /// Mean per-query pruning power (the Figure 7 metric), percent.
    pub mean_pruning_pct: f64,
    /// Σ per-query latency, microseconds.
    pub latency_us_sum: u64,
    /// Median latency upper bound, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency upper bound, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency upper bound, microseconds.
    pub p99_us: u64,
}

impl MetricsSnapshot {
    /// Plain-text report (the `setsim-cli bench` output block).
    #[must_use]
    pub fn render(&self) -> String {
        let mean_us = self.latency_us_sum.checked_div(self.queries).unwrap_or(0);
        format!(
            "queries            {}\n\
             budget-exceeded    {}\n\
             matches            {}\n\
             latency µs         mean {} · p50 ≤ {} · p95 ≤ {} · p99 ≤ {}\n\
             pruning            mean {:.2}% (read {} of {} list elements)\n\
             random probes      {}\n\
             records scanned    {}\n\
             skipped by seeks   {}\n\
             pages              touched {} · pool hits {} · pool misses {}",
            self.queries,
            self.budget_exceeded,
            self.matches,
            mean_us,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.mean_pruning_pct,
            self.totals.elements_read,
            self.totals.total_list_elements,
            self.totals.random_probes,
            self.totals.records_scanned,
            self.totals.elements_skipped,
            self.totals.pages_touched,
            self.totals.page_cache_hits,
            self.totals.page_cache_misses,
        )
    }

    /// Machine-readable companion to [`render`](Self::render): one flat
    /// JSON object — `queries`, `budget_exceeded`, `matches`, every
    /// [`SearchStats::FIELDS`] total in that order, `mean_pruning_pct`,
    /// and a `latency_us` object (`mean`, `sum`, `p50`, `p95`, `p99`).
    /// Used by `setsim-cli bench --json`. Counter values are exact
    /// integers; the only float is `mean_pruning_pct`, emitted with
    /// shortest-round-trip formatting.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mean_us = self.latency_us_sum.checked_div(self.queries).unwrap_or(0);
        format!(
            "{{\"queries\":{},\"budget_exceeded\":{},\"matches\":{},{},\
             \"mean_pruning_pct\":{},\"latency_us\":{{\"mean\":{},\"sum\":{},\
             \"p50\":{},\"p95\":{},\"p99\":{}}}}}",
            self.queries,
            self.budget_exceeded,
            self.matches,
            self.totals.json_members(),
            self.mean_pruning_pct,
            mean_us,
            self.latency_us_sum,
            self.p50_us,
            self.p95_us,
            self.p99_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(read: u64, total: u64) -> SearchStats {
        SearchStats {
            elements_read: read,
            total_list_elements: total,
            ..Default::default()
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let m = EngineMetrics::default();
        m.record(
            &stats(25, 100),
            SearchStatus::Complete,
            3,
            Duration::from_micros(10),
        );
        m.record(
            &stats(0, 100),
            SearchStatus::BudgetExceeded,
            0,
            Duration::from_micros(1000),
        );
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.budget_exceeded, 1);
        assert_eq!(s.matches, 3);
        assert_eq!(s.totals.elements_read, 25);
        assert_eq!(s.totals.total_list_elements, 200);
        // Pruning: (75 + 100) / 2.
        assert!((s.mean_pruning_pct - 87.5).abs() < 1e-9);
        assert!(s.p50_us >= 10 && s.p50_us < 1000, "p50 = {}", s.p50_us);
        assert!(s.p99_us >= 1000, "p99 = {}", s.p99_us);
    }

    #[test]
    fn empty_snapshot_is_benign() {
        let s = EngineMetrics::default().snapshot();
        assert_eq!(s.queries, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.mean_pruning_pct, 100.0);
        assert!(s.render().contains("queries"));
    }

    #[test]
    fn percentile_picks_upper_bounds() {
        // 100 queries at 1µs (bucket 1), 1 query at ~1ms (bucket 10+).
        let m = EngineMetrics::default();
        for _ in 0..100 {
            m.record(
                &stats(0, 0),
                SearchStatus::Complete,
                0,
                Duration::from_micros(1),
            );
        }
        m.record(
            &stats(0, 0),
            SearchStatus::Complete,
            0,
            Duration::from_micros(1000),
        );
        let s = m.snapshot();
        assert_eq!(s.p50_us, 1);
        assert_eq!(s.p95_us, 1);
        assert!(s.p99_us <= 1, "99th of 101 is still the 1µs mass");
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = EngineMetrics::default();
        m.record(
            &stats(1, 2),
            SearchStatus::Complete,
            0,
            Duration::from_micros(5),
        );
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.queries, 0);
        assert_eq!(s.totals, SearchStats::default());
        assert_eq!(s.p50_us, 0);
    }

    #[test]
    fn render_json_carries_counters_and_percentiles() {
        let m = EngineMetrics::default();
        m.record(
            &stats(10, 100),
            SearchStatus::Complete,
            2,
            Duration::from_micros(7),
        );
        let json = m.snapshot().render_json();
        assert!(json.contains("\"queries\":1"), "{json}");
        assert!(json.contains("\"matches\":2"), "{json}");
        assert!(json.contains("\"elements_read\":10"), "{json}");
        assert!(json.contains("\"mean_pruning_pct\":90"), "{json}");
        assert!(json.contains("\"p95\":"), "{json}");
        // Braces balance — the object is structurally closed.
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
        assert_eq!(opens, 2, "outer object plus latency_us");
    }

    #[test]
    fn render_mentions_key_lines() {
        let m = EngineMetrics::default();
        m.record(
            &stats(10, 100),
            SearchStatus::Complete,
            0,
            Duration::from_micros(7),
        );
        let text = m.snapshot().render();
        assert!(text.contains("p95"));
        assert!(text.contains("pruning"));
        assert!(text.contains("90.00%"));
    }
}
