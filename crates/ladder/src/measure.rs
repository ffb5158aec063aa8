//! How a number is made: repeated passes over one stream, the median
//! across passes of each operation's latency, and statistics over those
//! per-operation medians — never over one pass. On a two-core box the raw
//! p99 of a single pass moves 6–13 % between runs of identical code, from
//! scheduler and cache accidents that hit one pass and not the next; the
//! per-operation median is left with what moves every pass alike. What
//! moves a whole run — the shared host running slower for minutes — is
//! measured beside the operations by [`Calibrator`] and divided out of the
//! reported times (see README.md, "How a number is made").

use crate::spans::Tracer;
use std::time::{Duration, Instant};

/// How many passes to time: at least `min_passes`, and until `seconds`
/// of timed passes have elapsed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PassPlan {
    pub(crate) min_passes: usize,
    pub(crate) seconds: f64,
}

impl PassPlan {
    pub(crate) fn done(&self, passes: usize, started: Instant) -> bool {
        passes >= self.min_passes && started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// When one operation started and ended; `mid` splits it into a
/// `prepare` and a `search` child span when the caller took that reading.
pub(crate) struct Timing {
    pub(crate) start: Instant,
    pub(crate) mid: Option<Instant>,
    pub(crate) end: Instant,
}

impl Timing {
    pub(crate) fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Saturates at 4.29 s, far above any single operation here.
    pub(crate) fn nanos(&self) -> u32 {
        u32::try_from(self.end.duration_since(self.start).as_nanos()).unwrap_or(u32::MAX)
    }
}

/// Time one call from outside.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (Timing, R) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let timing = Timing {
        start,
        mid: None,
        end,
    };
    (timing, out)
}

/// Where a traced rung's spans go. Only the first `KEPT_PASSES` timed
/// passes are kept, so a cheap rung that runs a hundred passes does not
/// write a hundred passes of spans.
pub(crate) struct SpanSink<'t> {
    pub(crate) tracer: &'t mut Tracer,
    /// The enclosing rung span.
    pub(crate) parent: u32,
    /// Name of the per-operation span.
    pub(crate) name: &'static str,
}

const KEPT_PASSES: usize = 3;

/// Per-operation latencies: the median across timed passes, in µs.
#[derive(Debug, Clone)]
pub(crate) struct Lat {
    pub(crate) per_op_us: Vec<f64>,
    /// Timed passes behind each median.
    pub(crate) passes: usize,
}

impl Lat {
    /// `rows[pass][op]` in nanoseconds.
    pub(crate) fn from_passes(rows: &[Vec<u32>]) -> Self {
        let ops = rows.first().map_or(0, Vec::len);
        let mut column = Vec::with_capacity(rows.len());
        let per_op_us = (0..ops)
            .map(|i| {
                column.clear();
                column.extend(rows.iter().map(|row| f64::from(row[i])));
                median(&mut column) / 1e3
            })
            .collect();
        Self {
            per_op_us,
            passes: rows.len(),
        }
    }

    pub(crate) fn p50(&self) -> f64 {
        median(&mut self.per_op_us.clone())
    }

    /// Nearest-rank 99th percentile.
    pub(crate) fn p99(&self) -> f64 {
        let mut sorted = self.per_op_us.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (sorted.len() * 99).div_ceil(100).max(1);
        sorted[rank - 1]
    }

    pub(crate) fn sum_us(&self) -> f64 {
        self.per_op_us.iter().sum()
    }

    /// Operations one closed-loop client completes per second.
    pub(crate) fn per_second(&self) -> f64 {
        1e6 * self.per_op_us.len() as f64 / self.sum_us()
    }

    /// Median over the operations `i` with `i % of == class`.
    pub(crate) fn class_p50(&self, class: usize, of: usize) -> f64 {
        let mut members: Vec<f64> = self
            .per_op_us
            .iter()
            .skip(class)
            .step_by(of)
            .copied()
            .collect();
        median(&mut members)
    }
}

/// Median (mean of the two middle values for an even count); NaN if empty.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them — the spread the benchmark's acceptance is judged by.
pub(crate) fn quartile_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&mut sorted)
}

/// The host's speed while a run measures, sampled between operations: a
/// fixed kernel of dependent loads and multiplies over a 256 KiB table,
/// about a millisecond long, at most once every 20 ms. It calls nothing
/// of the program under test, so it slows only when the host does.
pub(crate) struct Calibrator {
    table: Vec<u32>,
    last: Instant,
    /// Kernel times in nanoseconds.
    samples: Vec<f64>,
}

impl Calibrator {
    const SLOTS: usize = 1 << 16;
    const STEPS: usize = 1 << 17;
    const EVERY: Duration = Duration::from_millis(20);

    pub(crate) fn new() -> Self {
        let mut x = 0x2545_f491u32;
        let table = (0..Self::SLOTS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Self {
            table,
            last: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Forget what was sampled so far (the warm-up pass is not measured).
    pub(crate) fn restart(&mut self) {
        self.samples.clear();
        self.last = Instant::now();
    }

    /// Call between two operations, outside any timed interval: takes a
    /// sample if the last one is 20 ms old.
    pub(crate) fn tick(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let start = Instant::now();
        let mut x = 1u32;
        for i in 0..Self::STEPS {
            let slot = (x as usize ^ i) & (Self::SLOTS - 1);
            x ^= self.table[slot].wrapping_mul(0x9e37_79b1).rotate_left(5);
        }
        std::hint::black_box(x);
        self.last = Instant::now();
        let nanos = self.last.duration_since(start).as_nanos();
        self.samples.push(nanos as f64);
    }

    /// The samples taken since the last restart; one is taken now if the
    /// timed passes were too short for any.
    pub(crate) fn finish(mut self) -> Vec<f64> {
        if self.samples.is_empty() {
            self.sample();
        }
        self.samples
    }
}

/// Kernel time the calibrated metrics are scaled to: about what the
/// kernel takes on the box the benchmark was written on when it is quiet.
const NOMINAL_KERNEL_NS: f64 = 1e6;

/// How much slower than nominal the host ran while `samples` were taken.
pub(crate) fn slowdown(samples: &[f64]) -> f64 {
    median(&mut samples.to_vec()) / NOMINAL_KERNEL_NS
}

/// What a sequence of passes produced.
pub(crate) struct Passes {
    /// `rows[pass][op]`: each timed pass's latencies in nanoseconds.
    pub(crate) rows: Vec<Vec<u32>>,
    /// Calibration kernel times taken during the timed passes (the
    /// traced ladder, whose times are not calibrated, drops them).
    pub(crate) calibration: Vec<f64>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
}

impl Passes {
    pub(crate) fn lat(&self) -> Lat {
        Lat::from_passes(&self.rows)
    }
}

/// Run pass 0 untimed (warm-up; `check` verifies answers there) and then
/// timed passes of the same `ops` operations until `plan` is satisfied.
/// `op(i)` performs operation `i` and times it; `check(pass, i, out)`
/// runs outside the timed interval and says whether the operation
/// succeeded.
pub(crate) fn run_passes<R>(
    ops: usize,
    plan: PassPlan,
    mut sink: Option<SpanSink<'_>>,
    mut op: impl FnMut(usize) -> (Timing, R),
    mut check: impl FnMut(usize, usize, R) -> bool,
) -> Passes {
    let mut rows: Vec<Vec<u32>> = Vec::new();
    let mut failed = 0u64;
    let mut started = Instant::now();
    let mut pass = 0usize;
    let mut calibrator = Calibrator::new();
    loop {
        let pass_span = match sink.as_mut() {
            Some(s) if (1..=KEPT_PASSES).contains(&pass) => Some(s.tracer.open("pass", s.parent)),
            _ => None,
        };
        let mut row = Vec::with_capacity(if pass == 0 { 0 } else { ops });
        for i in 0..ops {
            calibrator.tick();
            let (timing, out) = op(i);
            if pass > 0 {
                row.push(timing.nanos());
            }
            if let (Some(s), Some(parent)) = (sink.as_mut(), pass_span) {
                let root = s
                    .tracer
                    .record(s.name, parent, Some(i), timing.start, timing.end);
                if let Some(mid) = timing.mid {
                    s.tracer.record("prepare", root, Some(i), timing.start, mid);
                    s.tracer.record("search", root, Some(i), mid, timing.end);
                }
            }
            if !check(pass, i, out) {
                failed += 1;
            }
        }
        if let (Some(s), Some(id)) = (sink.as_mut(), pass_span) {
            s.tracer.close(id);
        }
        if pass == 0 {
            started = Instant::now();
            calibrator.restart();
        } else {
            rows.push(row);
        }
        pass += 1;
        if plan.done(rows.len(), started) {
            break;
        }
    }
    Passes {
        rows,
        calibration: calibrator.finish(),
        attempted: (pass * ops) as u64,
        failed,
    }
}

/// `VmHWM` of this process in MB.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_median_ignores_one_slow_pass() {
        let rows = vec![vec![1000, 5000], vec![1100, 5100], vec![90_000, 5050]];
        let lat = Lat::from_passes(&rows);
        assert_eq!(lat.per_op_us, vec![1.1, 5.05]);
        assert_eq!(lat.passes, 3);
    }

    #[test]
    fn p99_is_nearest_rank() {
        let lat = Lat {
            per_op_us: (1..=200).map(f64::from).collect(),
            passes: 1,
        };
        assert_eq!(lat.p99(), 198.0);
        assert_eq!(lat.p50(), 100.5);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13, 20, 21], n=4) == [10.5, 13.0, 20.5]
        let v = [13.0, 10.0, 21.0, 11.0, 20.0];
        assert!((quartile_spread(&v) - 10.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_yields_a_sample_even_for_a_short_run() {
        let samples = Calibrator::new().finish();
        assert_eq!(samples.len(), 1);
        assert!(samples[0] > 0.0);
        assert_eq!(slowdown(&[1.9e6, 2e6, 2.4e6]), 2.0);
    }

    #[test]
    fn passes_stop_at_the_plan_and_count_failures() {
        let plan = PassPlan {
            min_passes: 2,
            seconds: 0.0,
        };
        let out = run_passes(4, plan, None, |i| timed(|| i), |_, i, _| i != 3);
        assert_eq!(out.lat().passes, 2);
        assert_eq!(out.attempted, 12);
        assert_eq!(out.failed, 3);
    }
}
