//! The versioned, schema-stable benchmark report.
//!
//! One [`BenchReport`] is the unit of the repo's perf trajectory: the
//! harness (`setsim-bench harness`) writes one as `BENCH_<label>.json`
//! and `cargo xtask bench-diff` compares two of them (see
//! [`crate::diff`]). The figure binaries
//! (`fig6_time --json`, `fig7_pruning --json`) emit the same schema, so
//! paper figures and the regression gate share one representation
//! instead of two ad-hoc printers.
//!
//! Layout (schema version [`SCHEMA_VERSION`]):
//!
//! ```text
//! { "schema_version": 1,
//!   "label": "seed", "scale": "small", "seed": 42,
//!   "warmup": 1, "reps": 3,
//!   "env": { host, os, arch, rev, profile },
//!   "workloads": [
//!     { "label": "tau=0.8 11-15g 0mods", "tau": 0.8, "queries": 50,
//!       "algos": [
//!         { "name": "SF",
//!           "counters": { queries, matches, elements_read, … },
//!           "latency": { reps, min_ms_per_query, median_ms_per_query,
//!                        mad_ms_per_query } } ] } ] }
//! ```
//!
//! The **counters section is deterministic**: it aggregates
//! [`SearchStats`] access counts, which depend only on (scale, seed,
//! workload, algorithm) — never on machine load. Two runs with the same
//! parameters produce byte-identical counter sections
//! ([`BenchReport::counters_json`]), which is why counters are the
//! primary regression signal and wall clock is advisory. Versioning
//! rule: any key rename, removal, or semantic change bumps
//! [`SCHEMA_VERSION`]; adding new keys is allowed within a version
//! (readers ignore unknown keys).

use crate::json::Json;
use crate::{Algo, Engines};
use setsim_core::{AlgoConfig, PreparedQuery, SearchStats};
use std::time::Instant;

/// Version of the `BENCH_*.json` layout. Bump on any incompatible key
/// change; `bench-diff` refuses to compare across versions.
pub const SCHEMA_VERSION: u64 = 1;

/// Where a report was produced: recorded so a comparison across hosts,
/// revisions, or build profiles is visibly apples-to-oranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// Hostname (from `$HOSTNAME`, else "unknown").
    pub host: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Git revision (`$SETSIM_REV`, else `git rev-parse --short HEAD`,
    /// else "unknown").
    pub rev: String,
    /// Build profile of the harness binary: "release" or "debug".
    pub profile: String,
}

impl EnvFingerprint {
    /// Capture the current environment.
    #[must_use]
    pub fn capture() -> Self {
        let rev = std::env::var("SETSIM_REV").ok().or_else(git_rev);
        Self {
            host: std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".to_string()),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            rev: rev.unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .field("host", self.host.as_str())
            .field("os", self.os.as_str())
            .field("arch", self.arch.as_str())
            .field("rev", self.rev.as_str())
            .field("profile", self.profile.as_str())
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            host: str_field(v, "env.host")?,
            os: str_field(v, "env.os")?,
            arch: str_field(v, "env.arch")?,
            rev: str_field(v, "env.rev")?,
            profile: str_field(v, "env.profile")?,
        })
    }
}

fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?;
    let rev = rev.trim();
    (!rev.is_empty()).then(|| rev.to_string())
}

/// The deterministic access counters of one (workload, algorithm) cell:
/// the [`SearchStats`] sums plus result counts. These are exact integers
/// independent of machine speed — the regression gate's primary signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSection {
    /// Queries executed (workload size).
    pub queries: u64,
    /// Matches returned across the workload.
    pub matches: u64,
    /// Σ of every per-query access counter.
    pub stats: SearchStats,
}

/// How many leading [`SearchStats::FIELDS`] a report must carry. Counters
/// after them (the shard counters of PR 9, the page counters of PR 10,
/// and whatever is appended next) were added within schema version 1:
/// reports written before them must still parse, reading zeros.
const MANDATORY_ON_READ: usize = 8;

impl CounterSection {
    /// Build from merged workload stats plus result/query counts.
    #[must_use]
    pub fn from_stats(stats: &SearchStats, queries: u64, matches: u64) -> Self {
        Self {
            queries,
            matches,
            stats: *stats,
        }
    }

    /// Every counter with its report key, in serialization order:
    /// `queries`, `matches`, then [`SearchStats::FIELDS`]. `bench-diff`
    /// iterates this, so a new counter is automatically gated.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [("queries", self.queries), ("matches", self.matches)]
            .into_iter()
            .chain(SearchStats::FIELDS.into_iter().zip(self.stats.as_array()))
    }

    /// Pruning power over the workload, the paper's Figure 7 metric.
    #[must_use]
    pub fn pruning_pct(&self) -> f64 {
        self.stats.pruning_pct()
    }

    /// Modeled disk milliseconds per query with the 2008-era constants of
    /// `fig6_time` (0.2 µs per sequential posting, 100 µs per random
    /// probe) — counter-derived, hence deterministic.
    #[must_use]
    pub fn modeled_disk_ms_per_query(&self) -> f64 {
        // lint: allow — counters well below 2^53, exact in f64.
        let (seq, rnd) = (
            self.stats.elements_read as f64,
            self.stats.random_probes as f64,
        );
        // lint: allow — query count below 2^53.
        (seq * 0.0002 + rnd * 0.1) / self.queries.max(1) as f64
    }

    fn to_json(self) -> Json {
        self.fields()
            .fold(Json::obj(), |obj, (key, v)| obj.field(key, v))
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let (queries, matches) = (u64_field(v, "queries")?, u64_field(v, "matches")?);
        let mut stats = [0u64; SearchStats::FIELDS.len()];
        for (i, (slot, key)) in stats.iter_mut().zip(SearchStats::FIELDS).enumerate() {
            *slot = if i < MANDATORY_ON_READ {
                u64_field(v, key)?
            } else {
                u64_field_or_zero(v, key)?
            };
        }
        Ok(Self {
            queries,
            matches,
            stats: SearchStats::from_array(stats),
        })
    }
}

/// Wall-clock statistics over the measured repetitions of one workload:
/// min-of-k (the robust point estimate — the least-interfered-with run)
/// plus median and MAD (median absolute deviation) to expose spread.
/// Noisy by nature; `bench-diff` prints drift here and never fails on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySection {
    /// Measured repetitions (after warmup).
    pub reps: u64,
    /// Minimum over reps of mean milliseconds per query.
    pub min_ms_per_query: f64,
    /// Median over reps of mean milliseconds per query.
    pub median_ms_per_query: f64,
    /// Median absolute deviation of the per-rep means.
    pub mad_ms_per_query: f64,
    /// Client-observed tail percentiles over individual request
    /// latencies. `None` for the offline harness (which reduces per-rep
    /// *means*, where percentiles of three numbers mean nothing);
    /// populated by `setsim-bench loadgen`, whose samples are one TCP
    /// round-trip each. Optional keys are a within-version schema
    /// extension: readers ignore unknown keys, and old reports without
    /// them still parse.
    pub tail: Option<TailSection>,
}

/// Tail latency percentiles (nearest-rank) over per-request samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSection {
    /// 50th percentile, milliseconds per request.
    pub p50_ms: f64,
    /// 95th percentile, milliseconds per request.
    pub p95_ms: f64,
    /// 99th percentile, milliseconds per request.
    pub p99_ms: f64,
}

impl TailSection {
    fn of_sorted(sorted: &[f64]) -> Self {
        let pick = |p: f64| {
            // Nearest-rank: ceil(p·n) clamped into range, 1-indexed.
            let n = sorted.len();
            // lint: allow — sample counts well below 2^53.
            let rank = (p * n as f64).ceil() as usize;
            sorted[rank.clamp(1, n) - 1]
        };
        Self {
            p50_ms: pick(0.50),
            p95_ms: pick(0.95),
            p99_ms: pick(0.99),
        }
    }
}

impl LatencySection {
    /// Reduce per-repetition mean-ms-per-query samples. Panics on an
    /// empty sample set (the harness always runs ≥ 1 rep).
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        Self::reduce(samples, false)
    }

    /// Reduce per-**request** latency samples (milliseconds), keeping
    /// tail percentiles — the loadgen path, where every sample is one
    /// client-observed round-trip rather than a per-rep mean.
    #[must_use]
    pub fn from_request_samples_ms(samples: &[f64]) -> Self {
        Self::reduce(samples, true)
    }

    fn reduce(samples: &[f64], with_tail: bool) -> Self {
        assert!(!samples.is_empty(), "at least one measured sample required");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let med = median_of_sorted(&sorted);
        let mut devs: Vec<f64> = sorted.iter().map(|s| (s - med).abs()).collect();
        devs.sort_by(f64::total_cmp);
        Self {
            reps: samples.len() as u64,
            min_ms_per_query: sorted[0],
            median_ms_per_query: med,
            mad_ms_per_query: median_of_sorted(&devs),
            tail: with_tail.then(|| TailSection::of_sorted(&sorted)),
        }
    }

    fn to_json(self) -> Json {
        let mut obj = Json::obj()
            .field("reps", self.reps)
            .field("min_ms_per_query", self.min_ms_per_query)
            .field("median_ms_per_query", self.median_ms_per_query)
            .field("mad_ms_per_query", self.mad_ms_per_query);
        if let Some(t) = self.tail {
            obj = obj
                .field("p50_ms", t.p50_ms)
                .field("p95_ms", t.p95_ms)
                .field("p99_ms", t.p99_ms);
        }
        obj
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        // The tail keys travel together; a report either has all three
        // (loadgen) or none (harness).
        let tail = match v.get("p50_ms") {
            Some(_) => Some(TailSection {
                p50_ms: f64_field(v, "p50_ms")?,
                p95_ms: f64_field(v, "p95_ms")?,
                p99_ms: f64_field(v, "p99_ms")?,
            }),
            None => None,
        };
        Ok(Self {
            reps: u64_field(v, "reps")?,
            min_ms_per_query: f64_field(v, "min_ms_per_query")?,
            median_ms_per_query: f64_field(v, "median_ms_per_query")?,
            mad_ms_per_query: f64_field(v, "mad_ms_per_query")?,
            tail,
        })
    }
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One algorithm's measurement on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoReport {
    /// Paper display name (`SF`, `iNRA`, …).
    pub name: String,
    /// Deterministic access counters — the gated signal.
    pub counters: CounterSection,
    /// Wall-clock statistics — the advisory signal.
    pub latency: LatencySection,
}

impl AlgoReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("name", self.name.as_str())
            .field("counters", self.counters.to_json())
            .field("latency", self.latency.to_json())
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            name: str_field(v, "name")?,
            counters: CounterSection::from_json(
                v.get("counters").ok_or("algo missing `counters`")?,
            )?,
            latency: LatencySection::from_json(v.get("latency").ok_or("algo missing `latency`")?)?,
        })
    }
}

/// One workload (a query set at one threshold) measured across the
/// algorithm roster.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Stable identifier, e.g. `tau=0.8 11-15g 0mods` — `bench-diff`
    /// matches workloads across reports by this label.
    pub label: String,
    /// Selection threshold.
    pub tau: f64,
    /// Queries in the workload.
    pub queries: u64,
    /// Per-algorithm measurements, roster order.
    pub algos: Vec<AlgoReport>,
}

impl WorkloadReport {
    /// Measurement for one algorithm, by paper display name.
    #[must_use]
    pub fn algo(&self, name: &str) -> Option<&AlgoReport> {
        self.algos.iter().find(|a| a.name == name)
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .field("label", self.label.as_str())
            .field("tau", self.tau)
            .field("queries", self.queries)
            .field(
                "algos",
                Json::Arr(self.algos.iter().map(AlgoReport::to_json).collect()),
            )
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let algos = v
            .get("algos")
            .and_then(Json::as_arr)
            .ok_or("workload missing `algos` array")?
            .iter()
            .map(AlgoReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            label: str_field(v, "label")?,
            tau: f64_field(v, "tau")?,
            queries: u64_field(v, "queries")?,
            algos,
        })
    }
}

/// A complete benchmark report: fingerprint, parameters, measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Layout version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Report label (`BENCH_<label>.json`).
    pub label: String,
    /// Experiment scale (`small` / `medium` / `large`).
    pub scale: String,
    /// Master seed for corpus and workload generation.
    pub seed: u64,
    /// Untimed warmup repetitions per (workload, algorithm).
    pub warmup: u64,
    /// Timed repetitions per (workload, algorithm).
    pub reps: u64,
    /// Where and on what the report was produced.
    pub env: EnvFingerprint,
    /// The measured workloads.
    pub workloads: Vec<WorkloadReport>,
}

impl BenchReport {
    /// Full JSON document (pretty-printed, trailing newline).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Full JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema_version", self.schema_version)
            .field("label", self.label.as_str())
            .field("scale", self.scale.as_str())
            .field("seed", self.seed)
            .field("warmup", self.warmup)
            .field("reps", self.reps)
            .field("env", self.env.to_json())
            .field(
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadReport::to_json).collect()),
            )
    }

    /// Parse a report from JSON text, validating the schema version.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema_version = u64_field(&v, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let workloads = v
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("report missing `workloads` array")?
            .iter()
            .map(WorkloadReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema_version,
            label: str_field(&v, "label")?,
            scale: str_field(&v, "scale")?,
            seed: u64_field(&v, "seed")?,
            warmup: u64_field(&v, "warmup")?,
            reps: u64_field(&v, "reps")?,
            env: EnvFingerprint::from_json(v.get("env").ok_or("report missing `env`")?)?,
            workloads,
        })
    }

    /// Only the deterministic slice of the report — parameters plus every
    /// counter section, no env, no latency. Two harness runs with the
    /// same (scale, seed, workload grid) produce **byte-identical**
    /// output here; the determinism test and the CI gate both rely on it.
    #[must_use]
    pub fn counters_json(&self) -> String {
        Json::obj()
            .field("schema_version", self.schema_version)
            .field("scale", self.scale.as_str())
            .field("seed", self.seed)
            .field(
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::obj()
                                .field("label", w.label.as_str())
                                .field("tau", w.tau)
                                .field("queries", w.queries)
                                .field(
                                    "algos",
                                    Json::Arr(
                                        w.algos
                                            .iter()
                                            .map(|a| {
                                                Json::obj()
                                                    .field("name", a.name.as_str())
                                                    .field("counters", a.counters.to_json())
                                            })
                                            .collect(),
                                    ),
                                )
                        })
                        .collect(),
                ),
            )
            .pretty()
    }
}

/// A column of numbers derivable from one [`AlgoReport`] — what the
/// figure binaries print and what `--json` replaces with the full report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Min-of-k mean wall-clock ms/query (Figure 6 primary).
    MinMs,
    /// Counter-modeled disk ms/query (Figure 6 companion).
    ModeledDiskMs,
    /// Pruning power % (Figure 7).
    PruningPct,
}

impl Metric {
    /// Extract this metric's value from one measurement.
    #[must_use]
    pub fn of(self, algo: &AlgoReport) -> f64 {
        match self {
            Metric::MinMs => algo.latency.min_ms_per_query,
            Metric::ModeledDiskMs => algo.counters.modeled_disk_ms_per_query(),
            Metric::PruningPct => algo.counters.pruning_pct(),
        }
    }

    /// Table-cell formatting for this metric.
    #[must_use]
    pub fn format(self, value: f64) -> String {
        match self {
            Metric::MinMs | Metric::ModeledDiskMs => format!("{value:.3}"),
            Metric::PruningPct => format!("{value:.1}%"),
        }
    }
}

/// Render a figure-style text table — algorithms × workload columns — of
/// one metric, through the shared [`crate::print_table`] layout. The
/// same `WorkloadReport` values serialize to JSON via [`BenchReport`],
/// so the figures' text and JSON outputs are two views of one schema.
pub fn print_figure(title: &str, columns: &[&WorkloadReport], col_labels: &[String], m: Metric) {
    let Some(first) = columns.first() else {
        return;
    };
    let rows: Vec<(String, Vec<String>)> = first
        .algos
        .iter()
        .map(|a| {
            let cells = columns
                .iter()
                .map(|w| {
                    w.algo(&a.name)
                        .map_or_else(|| "-".to_string(), |r| m.format(m.of(r)))
                })
                .collect();
            (a.name.clone(), cells)
        })
        .collect();
    crate::print_table(title, col_labels, &rows);
}

/// Pass counts for one measured cell: `warmup` untimed passes followed
/// by `reps` timed passes (clamped to ≥ 1).
#[derive(Debug, Clone, Copy)]
pub struct Passes {
    /// Untimed passes run first to settle caches and allocators.
    pub warmup: usize,
    /// Timed passes that feed [`LatencySection::from_samples`].
    pub reps: usize,
}

/// Measure `algos` over one prepared workload: `passes.warmup` untimed
/// passes, then `passes.reps` timed passes per algorithm. Counters come
/// from the final pass (they are identical across passes — that
/// determinism is asserted by `tests/harness_determinism.rs`); latency
/// reduces all timed passes.
pub fn measure_workload(
    engines: &Engines<'_>,
    algos: &[Algo],
    config: AlgoConfig,
    queries: &[PreparedQuery],
    tau: f64,
    label: &str,
    passes: Passes,
) -> WorkloadReport {
    let (warmup, reps) = (passes.warmup, passes.reps.max(1));
    let mut reports = Vec::with_capacity(algos.len());
    for &algo in algos {
        for _ in 0..warmup {
            run_pass(engines, algo, config, queries, tau);
        }
        let mut samples = Vec::with_capacity(reps);
        let mut last = PassResult::default();
        for _ in 0..reps {
            let start = Instant::now();
            last = run_pass(engines, algo, config, queries, tau);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            // lint: allow — workload sizes well below 2^53.
            samples.push(elapsed_ms / queries.len().max(1) as f64);
        }
        reports.push(AlgoReport {
            name: algo.name().to_string(),
            counters: CounterSection::from_stats(
                &last.stats,
                queries.len() as u64,
                last.matches as u64,
            ),
            latency: LatencySection::from_samples(&samples),
        });
    }
    WorkloadReport {
        label: label.to_string(),
        tau,
        queries: queries.len() as u64,
        algos: reports,
    }
}

#[derive(Default)]
struct PassResult {
    stats: SearchStats,
    matches: usize,
}

fn run_pass(
    engines: &Engines<'_>,
    algo: Algo,
    config: AlgoConfig,
    queries: &[PreparedQuery],
    tau: f64,
) -> PassResult {
    let mut pass = PassResult::default();
    for q in queries {
        let out = engines.run(algo, config, q, tau);
        pass.matches += out.results.len();
        pass.stats.merge(&out.stats);
    }
    pass
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    // Nested keys in error labels ("env.host") address the outer object.
    let leaf = key.rsplit('.').next().unwrap_or(key);
    v.get(leaf)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

/// Optional integer field: absent keys default to 0 (pre-extension
/// reports), present keys must still be integers.
fn u64_field_or_zero(v: &Json, key: &str) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(0),
        Some(j) => j
            .as_u64()
            .ok_or_else(|| format!("non-integer field `{key}`")),
    }
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> BenchReport {
        let counters = CounterSection {
            queries: 10,
            matches: 12,
            stats: SearchStats {
                elements_read: 500,
                random_probes: 20,
                elements_skipped: 100,
                candidates_inserted: 50,
                candidate_scan_steps: 75,
                rounds: 30,
                records_scanned: 0,
                total_list_elements: 2000,
                shards_pruned: 3,
                shard_pruned_elements: 400,
                pages_touched: 7,
                page_cache_hits: 5,
                page_cache_misses: 2,
            },
        };
        let latency = LatencySection::from_samples(&[0.5, 0.4, 0.6]);
        BenchReport {
            schema_version: SCHEMA_VERSION,
            label: "test".to_string(),
            scale: "small".to_string(),
            seed: 42,
            warmup: 1,
            reps: 3,
            env: EnvFingerprint {
                host: "h".to_string(),
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                rev: "abc1234".to_string(),
                profile: "release".to_string(),
            },
            workloads: vec![WorkloadReport {
                label: "tau=0.8 11-15g 0mods".to_string(),
                tau: 0.8,
                queries: 10,
                algos: vec![AlgoReport {
                    name: "SF".to_string(),
                    counters,
                    latency,
                }],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let text = r.to_json_string();
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn unsupported_schema_version_is_rejected() {
        let text = sample_report()
            .to_json_string()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        let err = BenchReport::parse(&text).unwrap_err();
        assert!(err.contains("schema_version 999"), "{err}");
    }

    #[test]
    fn missing_field_is_a_readable_error() {
        let text = sample_report()
            .to_json_string()
            .replace("\"elements_read\": 500,", "");
        let err = BenchReport::parse(&text).unwrap_err();
        assert!(err.contains("elements_read"), "{err}");
    }

    #[test]
    fn latency_reduction_is_min_median_mad() {
        let l = LatencySection::from_samples(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!(l.reps, 4);
        assert_eq!(l.min_ms_per_query, 1.0);
        assert_eq!(l.median_ms_per_query, 2.5);
        // Deviations from 2.5: sorted [0.5, 0.5, 1.5, 7.5] → median 1.0.
        assert_eq!(l.mad_ms_per_query, 1.0);
    }

    #[test]
    fn request_samples_keep_tail_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = LatencySection::from_request_samples_ms(&samples);
        let t = l.tail.expect("loadgen reduction keeps tails");
        assert_eq!(t.p50_ms, 50.0);
        assert_eq!(t.p95_ms, 95.0);
        assert_eq!(t.p99_ms, 99.0);
        // The tail keys survive the JSON round trip, and their absence
        // (harness reports) still parses.
        let mut r = sample_report();
        r.workloads[0].algos[0].latency = l;
        let back = BenchReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        assert!(sample_report().workloads[0].algos[0].latency.tail.is_none());
    }

    #[test]
    fn fields_cover_every_counter_in_report_order() {
        let c = CounterSection {
            queries: 1,
            matches: 2,
            stats: SearchStats::from_array(std::array::from_fn(|i| 3 + i as u64)),
        };
        let keys: Vec<&str> = c.fields().map(|(k, _)| k).collect();
        assert_eq!(&keys[..3], ["queries", "matches", "elements_read"]);
        assert_eq!(keys.last(), Some(&"page_cache_misses"));
        let values: Vec<u64> = c.fields().map(|(_, v)| v).collect();
        assert_eq!(values, (1..=15).collect::<Vec<u64>>());
    }

    #[test]
    fn every_counter_that_was_mandatory_is_still_mandatory() {
        for key in &SearchStats::FIELDS[..MANDATORY_ON_READ] {
            let text = sample_report()
                .to_json_string()
                .replace(&format!("\"{key}\""), &format!("\"x_{key}\""));
            let err = BenchReport::parse(&text).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        assert_eq!(SearchStats::FIELDS[MANDATORY_ON_READ], "shards_pruned");
    }

    #[test]
    fn missing_shard_counters_default_to_zero() {
        // Reports written before the sharded cell landed have no shard
        // keys; they must parse with zeros, not fail.
        // Renaming the keys (readers ignore unknown keys) removes them
        // without disturbing the surrounding JSON punctuation.
        let text = sample_report()
            .to_json_string()
            .replace("\"shards_pruned\"", "\"x_shards_pruned\"")
            .replace("\"shard_pruned_elements\"", "\"x_shard_pruned_elements\"");
        let back = BenchReport::parse(&text).unwrap();
        let c = &back.workloads[0].algos[0].counters;
        assert_eq!(c.stats.shards_pruned, 0);
        assert_eq!(c.stats.shard_pruned_elements, 0);
    }

    #[test]
    fn missing_page_counters_default_to_zero() {
        // Reports written before the paged engine landed have no page
        // keys; same extension rule as the shard counters.
        let text = sample_report()
            .to_json_string()
            .replace("\"pages_touched\"", "\"x_pages_touched\"")
            .replace("\"page_cache_hits\"", "\"x_page_cache_hits\"")
            .replace("\"page_cache_misses\"", "\"x_page_cache_misses\"");
        let back = BenchReport::parse(&text).unwrap();
        let c = &back.workloads[0].algos[0].counters;
        assert_eq!(c.stats.pages_touched, 0);
        assert_eq!(c.stats.page_cache_hits, 0);
        assert_eq!(c.stats.page_cache_misses, 0);
    }

    #[test]
    fn counters_json_excludes_env_and_latency() {
        let text = sample_report().counters_json();
        assert!(text.contains("elements_read"), "{text}");
        assert!(!text.contains("min_ms_per_query"), "{text}");
        assert!(!text.contains("host"), "{text}");
    }

    #[test]
    fn derived_metrics() {
        let r = sample_report();
        let a = &r.workloads[0].algos[0];
        assert!((Metric::PruningPct.of(a) - 75.0).abs() < 1e-9);
        // 500 seq × 0.2µs + 20 probes × 100µs = 0.1ms + 2ms over 10 q.
        assert!((Metric::ModeledDiskMs.of(a) - 0.21).abs() < 1e-9);
        assert_eq!(Metric::MinMs.of(a), 0.4);
        assert_eq!(Metric::PruningPct.format(75.0), "75.0%");
    }

    #[test]
    fn env_capture_is_well_formed() {
        let env = EnvFingerprint::capture();
        assert!(!env.os.is_empty());
        assert!(!env.arch.is_empty());
        assert!(env.profile == "debug" || env.profile == "release");
    }
}
