//! `cargo xtask` — the workspace's single analysis entry point.
//!
//! `cargo xtask check` is what CI runs and what a contributor runs before
//! pushing: rustfmt in check mode, clippy with the workspace's curated
//! deny-set (`[workspace.lints]` in the root manifest, escalated to
//! errors), and `analyze` — the token-engine passes: the repo's nine
//! custom lint rules plus the panic-reachability pass (see
//! [`xtask::analyze`]). `check` including `analyze` is what
//! makes the gate unskippable.
//!
//! It also hosts the benchmark regression gate: `cargo xtask bench-diff
//! <baseline.json> <candidate.json>` compares two `BENCH_*.json` reports
//! produced by `setsim-bench harness`. Deterministic counter drift of any
//! amount fails; wall-clock drift is printed and never fails (the
//! wall-clock gate is `setsim-ladder`, see `BENCHMARK.json`).
//!
//! Subcommands:
//! * `check` — fmt + clippy + analyze (the CI gate)
//! * `analyze [--allows]` — token-engine passes only (fast, no
//!   compilation); `--allows` prints the `lint: allow` inventory instead
//! * `fmt`   — rustfmt check only
//! * `clippy` — clippy only
//! * `bench-diff <baseline> <candidate>`

use std::path::Path;
use std::process::{Command, ExitCode};
use xtask::analyze;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("check", String::as_str);
    let root = analyze::workspace_root();
    let ok = match cmd {
        "check" => run_fmt(&root) & run_clippy(&root) & analyze::run(&root, &args[1..]),
        "analyze" => analyze::run(&root, &args[1..]),
        "fmt" => run_fmt(&root),
        "clippy" => run_clippy(&root),
        "bench-diff" => run_bench_diff(&args[1..]),
        other => {
            eprintln!(
                "unknown xtask command `{other}`; try: check | analyze | fmt | clippy | bench-diff"
            );
            return ExitCode::FAILURE;
        }
    };
    if ok {
        println!("xtask {cmd}: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask {cmd}: FAILED");
        ExitCode::FAILURE
    }
}

fn run_step(root: &Path, name: &str, program: &str, args: &[&str]) -> bool {
    println!("==> {name}");
    match Command::new(program).args(args).current_dir(root).status() {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("{name} failed with {status}");
            false
        }
        Err(e) => {
            eprintln!("could not run {program}: {e}");
            false
        }
    }
}

fn run_fmt(root: &Path) -> bool {
    run_step(
        root,
        "rustfmt (check mode)",
        "cargo",
        &["fmt", "--all", "--check"],
    )
}

fn run_clippy(root: &Path) -> bool {
    run_step(
        root,
        "clippy (workspace lints as errors)",
        "cargo",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    )
}

/// `cargo xtask bench-diff <baseline.json> <candidate.json>`: load two
/// harness reports and apply the gate from [`setsim_bench::diff`].
/// Counter drift of any amount fails; latency drift is only printed.
fn run_bench_diff(args: &[String]) -> bool {
    let [baseline_path, candidate_path] = args else {
        eprintln!("usage: cargo xtask bench-diff <baseline.json> <candidate.json>");
        return false;
    };
    let load = |path: &str| -> Option<setsim_bench::report::BenchReport> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("could not read {path}: {e}");
                return None;
            }
        };
        match setsim_bench::report::BenchReport::parse(&text) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("could not parse {path}: {e}");
                None
            }
        }
    };
    let (Some(baseline), Some(candidate)) = (load(baseline_path), load(candidate_path)) else {
        return false;
    };
    match setsim_bench::diff::diff(&baseline, &candidate) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            !outcome.failed()
        }
        Err(e) => {
            eprintln!("bench-diff: reports are not comparable: {e}");
            false
        }
    }
}
