//! Comparison of two [`BenchReport`]s — the logic behind
//! `cargo xtask bench-diff <baseline.json> <candidate.json>`.
//!
//! The gate's core asymmetry: **counters are exact, latency is noisy.**
//! Access counters ([`crate::report::CounterSection`]) are deterministic
//! functions of (scale, seed, workload, algorithm), so *any* drift is a
//! real behavioral change and fails the comparison. Wall clock depends
//! on the machine and its load, so latency drift is printed beside each
//! verdict and never fails it: the wall-clock gate is the calibrated
//! ladder (`BENCHMARK.json`, `setsim-ladder`), which runs both sides on
//! one machine.
//!
//! Comparisons are refused outright when the reports are not
//! comparable: different schema versions, scales, or seeds measure
//! different experiments. Environment differences (host, rev, profile)
//! are reported as context, with a debug-profile candidate escalated to
//! a warning.

use crate::report::BenchReport;
use std::fmt::Write as _;

/// Outcome of a comparison: the rendered report plus failure counts.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// Human-readable per-algorithm report.
    pub report: String,
    /// Counter deviations (each one fails the gate).
    pub counter_regressions: usize,
    /// Non-fatal observations (env mismatch, new rows).
    pub warnings: usize,
}

impl DiffOutcome {
    /// Whether the gate fails: any counter drift does, nothing else.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.counter_regressions > 0
    }
}

/// Compare `candidate` against `baseline`. `Err` means the reports are
/// not comparable at all (schema/scale/seed mismatch or malformed
/// structure); `Ok` carries the per-algorithm verdicts.
pub fn diff(baseline: &BenchReport, candidate: &BenchReport) -> Result<DiffOutcome, String> {
    if baseline.schema_version != candidate.schema_version {
        return Err(format!(
            "schema_version mismatch: baseline {} vs candidate {}",
            baseline.schema_version, candidate.schema_version
        ));
    }
    if baseline.scale != candidate.scale {
        return Err(format!(
            "scale mismatch: baseline `{}` vs candidate `{}` — different experiments",
            baseline.scale, candidate.scale
        ));
    }
    if baseline.seed != candidate.seed {
        return Err(format!(
            "seed mismatch: baseline {} vs candidate {} — workloads differ",
            baseline.seed, candidate.seed
        ));
    }

    let mut out = DiffOutcome {
        report: String::new(),
        counter_regressions: 0,
        warnings: 0,
    };
    let r = &mut out.report;
    let _ = writeln!(
        r,
        "bench-diff: scale={} seed={} (counters gate; min ms/query is informational)",
        baseline.scale, baseline.seed
    );
    let _ = writeln!(
        r,
        "  baseline : {} @ {} ({}, {})",
        baseline.env.host, baseline.env.rev, baseline.env.os, baseline.env.profile
    );
    let _ = writeln!(
        r,
        "  candidate: {} @ {} ({}, {})",
        candidate.env.host, candidate.env.rev, candidate.env.os, candidate.env.profile
    );
    if baseline.env.host != candidate.env.host {
        let _ = writeln!(r, "  note: different hosts — latency is not comparable");
        out.warnings += 1;
    }
    if candidate.env.profile == "debug" {
        let _ = writeln!(r, "  warning: candidate measured in a debug build");
        out.warnings += 1;
    }

    for base_wl in &baseline.workloads {
        let _ = writeln!(r, "\nworkload {}", base_wl.label);
        let Some(cand_wl) = candidate
            .workloads
            .iter()
            .find(|w| w.label == base_wl.label)
        else {
            let _ = writeln!(r, "  MISSING in candidate");
            out.counter_regressions += 1;
            continue;
        };
        for base_algo in &base_wl.algos {
            let Some(cand_algo) = cand_wl.algo(&base_algo.name) else {
                let _ = writeln!(r, "  {:10} MISSING in candidate", base_algo.name);
                out.counter_regressions += 1;
                continue;
            };
            let drifted: Vec<(&str, u64, u64)> = base_algo
                .counters
                .fields()
                .zip(cand_algo.counters.fields())
                .filter(|((_, b), (_, c))| b != c)
                .map(|((field, b), (_, c))| (field, b, c))
                .collect();
            let (lb, lc) = (
                base_algo.latency.min_ms_per_query,
                cand_algo.latency.min_ms_per_query,
            );
            let lat_delta_pct = if lb > 0.0 {
                100.0 * (lc - lb) / lb
            } else {
                0.0
            };
            let _ = writeln!(
                r,
                "  {:10} {} · min {:.3} → {:.3} ms/q ({:+.1}%)",
                base_algo.name,
                if drifted.is_empty() {
                    "ok   counters exact"
                } else {
                    "COUNTER DRIFT"
                },
                lb,
                lc,
                lat_delta_pct,
            );
            for (field, b, c) in &drifted {
                let _ = writeln!(
                    r,
                    "      {field:22} {b:>14} -> {c:>14}  ({})",
                    pct_delta(*b, *c)
                );
                out.counter_regressions += 1;
            }
        }
        for cand_algo in &cand_wl.algos {
            if base_wl.algo(&cand_algo.name).is_none() {
                let _ = writeln!(r, "  {:10} new in candidate (no baseline)", cand_algo.name);
                out.warnings += 1;
            }
        }
    }
    for cand_wl in &candidate.workloads {
        if !baseline.workloads.iter().any(|w| w.label == cand_wl.label) {
            let _ = writeln!(r, "\nworkload {} — new in candidate", cand_wl.label);
            out.warnings += 1;
        }
    }

    let _ = writeln!(
        r,
        "\nverdict: {} counter regression(s), {} warning(s)",
        out.counter_regressions, out.warnings
    );
    Ok(out)
}

fn pct_delta(b: u64, c: u64) -> String {
    if b == 0 {
        return "was 0".to_string();
    }
    format!("{:+.1}%", 100.0 * (c as f64 - b as f64) / b as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{
        AlgoReport, BenchReport, CounterSection, EnvFingerprint, LatencySection, WorkloadReport,
        SCHEMA_VERSION,
    };
    use setsim_core::SearchStats;

    fn report(elements_read: u64, min_ms: f64) -> BenchReport {
        let counters = CounterSection {
            queries: 10,
            matches: 12,
            stats: SearchStats {
                elements_read,
                random_probes: 20,
                elements_skipped: 100,
                candidates_inserted: 50,
                candidate_scan_steps: 75,
                rounds: 30,
                total_list_elements: 2000,
                ..SearchStats::default()
            },
        };
        BenchReport {
            schema_version: SCHEMA_VERSION,
            label: "t".to_string(),
            scale: "small".to_string(),
            seed: 42,
            warmup: 1,
            reps: 3,
            env: EnvFingerprint {
                host: "h".to_string(),
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                rev: "abc".to_string(),
                profile: "release".to_string(),
            },
            workloads: vec![WorkloadReport {
                label: "tau=0.8".to_string(),
                tau: 0.8,
                queries: 10,
                algos: vec![AlgoReport {
                    name: "SF".to_string(),
                    counters,
                    latency: LatencySection::from_samples(&[min_ms, min_ms * 1.1, min_ms * 1.2]),
                }],
            }],
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(500, 0.4);
        let out = diff(&r, &r.clone()).unwrap();
        assert_eq!(out.counter_regressions, 0);
        assert!(!out.failed(), "{}", out.report);
        assert!(out.report.contains("ok"), "{}", out.report);
    }

    #[test]
    fn doubled_counter_is_caught() {
        // The acceptance scenario: a 2× elements_read inflation must fail
        // with a readable per-algorithm report.
        let base = report(500, 0.4);
        let cand = report(1000, 0.4);
        let out = diff(&base, &cand).unwrap();
        assert_eq!(out.counter_regressions, 1);
        assert!(out.failed());
        assert!(out.report.contains("COUNTER DRIFT"), "{}", out.report);
        assert!(out.report.contains("elements_read"), "{}", out.report);
        assert!(out.report.contains("+100.0%"), "{}", out.report);
    }

    #[test]
    fn latency_drift_is_printed_and_never_fails() {
        let base = report(500, 0.40);
        for (cand_ms, delta) in [(0.60, "+50.0%"), (0.10, "-75.0%")] {
            let out = diff(&base, &report(500, cand_ms)).unwrap();
            assert!(!out.failed(), "{}", out.report);
            assert!(out.report.contains(delta), "{}", out.report);
        }
    }

    #[test]
    fn incomparable_reports_are_refused() {
        let base = report(500, 0.4);
        let mut cand = report(500, 0.4);
        cand.seed = 7;
        assert!(diff(&base, &cand).unwrap_err().contains("seed mismatch"));
        let mut cand = report(500, 0.4);
        cand.scale = "large".to_string();
        assert!(diff(&base, &cand).unwrap_err().contains("scale mismatch"));
        let mut cand = report(500, 0.4);
        cand.schema_version = 2;
        assert!(diff(&base, &cand).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn missing_algo_or_workload_fails() {
        let base = report(500, 0.4);
        let mut cand = report(500, 0.4);
        cand.workloads[0].algos.clear();
        let out = diff(&base, &cand).unwrap();
        assert!(out.counter_regressions > 0);
        assert!(out.report.contains("MISSING"), "{}", out.report);

        let mut cand = report(500, 0.4);
        cand.workloads.clear();
        let out = diff(&base, &cand).unwrap();
        assert!(out.counter_regressions > 0);
    }

    #[test]
    fn debug_candidate_warns() {
        let base = report(500, 0.4);
        let mut cand = report(500, 0.4);
        cand.env.profile = "debug".to_string();
        let out = diff(&base, &cand).unwrap();
        assert!(out.warnings > 0);
        assert!(out.report.contains("debug build"), "{}", out.report);
    }
}
