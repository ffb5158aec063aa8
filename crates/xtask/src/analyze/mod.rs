//! `cargo xtask analyze` — the workspace's offline static-analysis
//! gate, layered on the token engine ([`crate::lexer`] +
//! [`crate::model`]).
//!
//! Two things run under this command:
//!
//! 1. the nine custom lint rules ([`crate::lints`]),
//! 2. the panic-reachability pass ([`mod@panic`]) over `setsim-core`,
//!    `setsim-collections`, `setsim-storage` (where the paged buffer
//!    pool's files are gated like the lock-guarded serving layer), and
//!    `setsim-server` library code.
//!
//! The exit status is the gate: any finding fails. Sites the passes
//! deliberately do not gate (indexing/division in kernel code that
//! never runs under a lock guard) are reported as advisory counts so
//! drift is visible in CI logs without burying real findings.
//!
//! `cargo xtask analyze --allows` prints the `lint: allow` marker
//! inventory instead: every escape hatch in the tree with its file,
//! line, and justification text, so stale markers can be audited
//! mechanically (see DESIGN.md §13).

pub mod panic;

use crate::lints::{self, Finding, ALLOW_MARKER};
use crate::model::FileModel;
use std::path::{Path, PathBuf};

/// Directories scanned by the analysis passes: every crate, plus the
/// root facade and its examples.
pub const LINT_ROOTS: [&str; 3] = ["crates", "src", "examples"];

/// The workspace root: two levels above the xtask crate's manifest.
#[must_use]
pub fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string()); // lint: allow — xtask is a dev tool, not library code
    Path::new(&manifest)
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// All `.rs` files under `dir`, recursively, skipping `target/`.
#[must_use]
pub fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            out.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// Everything one `analyze` run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Gating findings from all passes, in path order.
    pub findings: Vec<Finding>,
    /// Advisory tallies from the panic pass (counted, not gated).
    pub advisory: panic::Advisory,
    /// Number of files at least one pass looked at.
    pub files_scanned: usize,
}

/// Run every pass over the workspace rooted at `root`.
///
/// # Errors
///
/// Returns the path of any source file that could not be read.
pub fn collect(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    for file in LINT_ROOTS.iter().flat_map(|d| rust_sources(&root.join(d))) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let lint_rules = lints::rules_for(&rel);
        let panic_scope = panic::in_scope(&rel);
        if lint_rules.is_empty() && !panic_scope {
            continue;
        }
        let source = std::fs::read_to_string(&file).map_err(|e| format!("{rel}: {e}"))?;
        report.files_scanned += 1;
        report.findings.extend(lints::check_file(&rel, &source));
        if panic_scope {
            let (findings, adv) = panic::check(&rel, &source);
            report.findings.extend(findings);
            report.advisory.index_sites += adv.index_sites;
            report.advisory.div_sites += adv.div_sites;
        }
    }
    Ok(report)
}

/// One `lint: allow` escape hatch in the tree.
#[derive(Debug)]
pub struct AllowSite {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line of the marker comment.
    pub line: usize,
    /// The marker comment's text (holds the justification).
    pub text: String,
}

/// Inventory every `lint: allow` marker in the scanned roots.
#[must_use]
pub fn allow_inventory(root: &Path) -> Vec<AllowSite> {
    let mut out = Vec::new();
    for file in LINT_ROOTS.iter().flat_map(|d| rust_sources(&root.join(d))) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        let m = FileModel::new(&source);
        // Doc comments are excluded: prose there (the passes' own docs)
        // mentions the marker without being an escape hatch.
        for t in m.tokens.iter().filter(|t| t.is_comment() && !t.is_doc()) {
            let text = t.text(&source);
            if text.contains(ALLOW_MARKER) {
                out.push(AllowSite {
                    file: rel.clone(),
                    line: t.line,
                    text: text.trim().to_string(),
                });
            }
        }
    }
    out
}

/// CLI entry point: run the passes (or, with `--allows`, print the
/// marker inventory) and report to stdout/stderr. Returns overall
/// success.
#[must_use]
pub fn run(root: &Path, args: &[String]) -> bool {
    if args.iter().any(|a| a == "--allows") {
        let sites = allow_inventory(root);
        println!("==> {} `{ALLOW_MARKER}` marker(s) in tree", sites.len());
        for s in &sites {
            println!("{}:{}: {}", s.file, s.line, s.text);
        }
        return true;
    }
    println!("==> analyze: custom lints + panic-reachability (token engine)");
    let report = match collect(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: could not read {e}");
            return false;
        }
    };
    for f in &report.findings {
        eprintln!("{f}");
    }
    println!(
        "    {} files scanned, {} finding(s); advisory: {} kernel index \
         site(s), {} kernel division site(s) outside guard-holding code",
        report.files_scanned,
        report.findings.len(),
        report.advisory.index_sites,
        report.advisory.div_sites,
    );
    report.findings.is_empty()
}
