//! The harness determinism contract: two runs with the same
//! (scale, seed, grid) must produce **byte-identical** counter sections.
//! This is the property `cargo xtask bench-diff` builds its zero-tolerance
//! counter gate on — if this test fails, an algorithm (or the workload
//! generator) has picked up a source of nondeterminism.
//!
//! Each test runs the whole harness, so every cell costs tier-1 time five
//! times over: the 128-byte-page paged cell (a second snapshot save and
//! three pool passes) took this binary from 3.6 to 4.0 s (medians of
//! eight alternating debug runs on a shared two-core x86-64 host).

use setsim_bench::harness::{run, HarnessConfig};
use setsim_bench::report::BenchReport;
use setsim_bench::Scale;

fn tiny_config() -> HarnessConfig {
    let mut config = HarnessConfig::new(Scale::Small, 42);
    // Keep the test fast: determinism does not depend on workload size,
    // warmup, or repetition count.
    config.queries = 10;
    config.warmup = 0;
    config.reps = 1;
    config
}

#[test]
fn same_seed_runs_are_counter_identical() {
    let config = tiny_config();
    let a = run(&config);
    let b = run(&config);
    assert_eq!(
        a.counters_json(),
        b.counters_json(),
        "two same-seed harness runs diverged in their deterministic slice"
    );
    // The full reports are NOT required to be identical: latency sections
    // carry wall-clock noise by design.
}

#[test]
fn different_seed_changes_counters() {
    let a = run(&tiny_config());
    let mut config = tiny_config();
    config.seed = 43;
    let b = run(&config);
    assert_ne!(
        a.counters_json(),
        b.counters_json(),
        "seed must drive the workload (corpus and queries)"
    );
}

#[test]
fn counters_survive_json_round_trip() {
    let a = run(&tiny_config());
    let parsed = BenchReport::parse(&a.to_json_string()).expect("own output parses");
    assert_eq!(a.counters_json(), parsed.counters_json());
    assert_eq!(a, parsed);
}
