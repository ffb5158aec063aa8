//! Self-test corpus for `cargo xtask analyze`.
//!
//! Three layers of assurance:
//!
//! 1. the committed tree passes every pass with zero findings (the same
//!    gate CI runs),
//! 2. injecting a known defect into a *real* workspace file produces a
//!    finding (the gate cannot silently go blind),
//! 3. known-bad fixture files under `tests/fixtures/` yield their
//!    expected findings **exactly** — rule, line, and nothing else —
//!    including token-accuracy cases a line-based regex engine gets
//!    wrong (an `.unwrap()` inside a string literal).
//!
//! Fixture files are never compiled: cargo builds `tests/*.rs`, not
//! `tests/fixtures/`, and every analysis pass scopes itself out of
//! `crates/xtask/`.

use std::path::Path;
use xtask::analyze::{self, panic};
use xtask::lints;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn source_walk_finds_the_workspace() {
    let root = analyze::workspace_root();
    let files: Vec<_> = analyze::LINT_ROOTS
        .iter()
        .flat_map(|d| analyze::rust_sources(&root.join(d)))
        .collect();
    assert!(
        files.len() > 40,
        "workspace walk found only {} files",
        files.len()
    );
    for needle in [
        "crates/core/src/lib.rs",
        "crates/core/src/segment/engine.rs",
        "crates/cli/src/main.rs",
    ] {
        assert!(
            files.iter().any(|f| f.ends_with(needle)),
            "walk missed {needle}"
        );
    }
}

/// The same gate CI runs: the committed tree is clean under the custom
/// lints and the panic-reachability pass.
#[test]
fn committed_tree_passes_all_passes() {
    let root = analyze::workspace_root();
    let report = analyze::collect(&root).expect("workspace sources readable");
    assert!(
        report.files_scanned > 40,
        "scanned {}",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "committed tree must be clean:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The gate cannot silently go blind: a defect injected into a real
/// core file is caught by the same path `collect` uses.
#[test]
fn unwrap_injected_into_real_core_file_fails() {
    let root = analyze::workspace_root();
    let rel = "crates/core/src/weights.rs";
    let source = std::fs::read_to_string(root.join(rel)).expect("core file readable");
    assert!(lints::check_file(rel, &source).is_empty());
    let line_of_injection = source.lines().count() + 1;
    let injected = format!("{source}pub fn bad(x: Option<u32>) -> u32 {{ x.unwrap() }}\n");
    let findings = lints::check_file(rel, &injected);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "no-unwrap");
    assert_eq!(findings[0].line, line_of_injection);
}

/// Token accuracy: `.unwrap()` inside string literals and comments —
/// which the old line-based engine flagged — produces zero findings.
#[test]
fn unwrap_inside_string_fixture_is_clean() {
    let src = fixture("unwrap_in_string.rs");
    // Every string/comment line would trip a regex engine; scope the
    // fixture as core lib code where no-unwrap gates.
    let findings = lints::check_file("crates/core/src/weights.rs", &src);
    assert!(findings.is_empty(), "{findings:?}");
    let (panics, _) = panic::check("crates/core/src/weights.rs", &src);
    assert!(panics.is_empty(), "{panics:?}");
}

/// The panic fixture is caught at exactly its two undocumented sites:
/// the bare `panic!` (line 8) and the bare `unreachable!` (line 27).
/// The `# Panics`-documented twin, the messaged invariant, and the
/// `#[cfg(test)]` module stay silent.
#[test]
fn panic_fixture_yields_exact_findings() {
    let src = fixture("panic_paths.rs");
    let (findings, _) = panic::check("crates/core/src/properties.rs", &src);
    let sites: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        sites,
        vec![("panic-path", 8), ("panic-path", 27)],
        "{findings:?}"
    );
}

/// Scope sanity: the passes gate serving code and stay out of the dev
/// tooling (where these fixtures live).
#[test]
fn pass_scopes_cover_serving_code_only() {
    assert!(panic::in_scope("crates/core/src/segment/engine.rs"));
    assert!(panic::in_scope("crates/collections/src/btree.rs"));
    assert!(!panic::in_scope(
        "crates/xtask/tests/fixtures/panic_paths.rs"
    ));
    assert!(lints::rules_for("crates/xtask/tests/fixtures/unwrap_in_string.rs").is_empty());
}
