//! The workspace's source policy, checked by `cargo test` (DESIGN.md §13).
//!
//! Clippy enforces almost every policy, from each crate's `clippy.toml`
//! and from `#![deny(..)]` attributes at the top of the crate or file a
//! rule governs. Two things clippy cannot do live here:
//!
//! * the source-text policies no lint expresses: every public item of
//!   `setsim-core`'s algorithms cites where in the paper it comes from,
//!   in its own `///` docs or in the file's `//!` header; and library
//!   code never writes a bare `unreachable!()`, because the message
//!   states the violated invariant and turns a dead branch into a
//!   diagnosable bug report;
//! * a pin on the clippy configuration itself: deleting a `#![deny(..)]`
//!   line or a `disallowed-methods` entry leaves clippy green, so each
//!   policy row of §13 is asserted to be configured in the scope it
//!   governs.

use std::path::{Path, PathBuf};

/// Words that locate an item in the source paper.
const PAPER_LOCATORS: [&str; 9] = [
    "Section",
    "Theorem",
    "Algorithm",
    "Equation",
    "Figure",
    "Table",
    "paper",
    "Property 1",
    "Property 2",
];

/// Item keywords a column-0 `pub` introduces; `pub(crate)` is not API.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "mod"];

/// The library crates whose `src/` may not hold a bare `unreachable!()`.
const UNREACHABLE_SCOPE: [&str; 4] = ["core", "collections", "storage", "server"];

fn has_locator(text: &str) -> bool {
    PAPER_LOCATORS.iter().any(|w| text.contains(w))
}

/// Column-0 public items of `source` whose `///` block (read through
/// attributes) and `//!` header both lack a paper locator, as
/// `path:line: item` findings.
fn paper_ref_findings(path: &str, source: &str) -> Vec<String> {
    let lines: Vec<&str> = source.lines().collect();
    let header: String = lines
        .iter()
        .take_while(|l| l.starts_with("//!"))
        .copied()
        .collect();
    let mut findings = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("pub ") else {
            continue;
        };
        if !ITEM_KEYWORDS
            .iter()
            .any(|kw| rest.starts_with(&format!("{kw} ")))
        {
            continue;
        }
        let doc: String = lines[..n]
            .iter()
            .rev()
            .take_while(|l| l.starts_with("///") || l.starts_with("#["))
            .copied()
            .collect();
        if !has_locator(&doc) && !has_locator(&header) {
            findings.push(format!("{path}:{}: {line}", n + 1));
        }
    }
    findings
}

/// Code lines of `source` that call `unreachable!()` without a message,
/// as `path:line: text` findings.
fn bare_unreachable_findings(path: &str, source: &str) -> Vec<String> {
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| line.contains("unreachable!()") && !line.trim_start().starts_with("//"))
        .map(|(n, line)| format!("{path}:{}: {}", n + 1, line.trim()))
        .collect()
}

fn workspace() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// The files the paper-locator policy reads.
fn paper_ref_scope() -> Vec<PathBuf> {
    rust_files(&workspace().join("crates/core/src/algorithms"))
}

/// The files the bare-`unreachable!()` policy reads.
fn unreachable_scope() -> Vec<PathBuf> {
    UNREACHABLE_SCOPE
        .iter()
        .flat_map(|krate| rust_files(&workspace().join("crates").join(krate).join("src")))
        .collect()
}

/// Runs `check` over every file of `scope` and gathers the findings.
fn scan(scope: &[PathBuf], check: fn(&str, &str) -> Vec<String>) -> Vec<String> {
    scope
        .iter()
        .flat_map(|file| {
            let source = std::fs::read_to_string(file).expect("readable source");
            check(&file.display().to_string(), &source)
        })
        .collect()
}

/// The lint paths named by the `#![deny(..)]` attributes of a workspace
/// file.
fn denied_lints(rel: &str) -> Vec<String> {
    let source = std::fs::read_to_string(workspace().join(rel)).expect("readable source");
    let mut denied = String::new();
    let mut open = false;
    for line in source.lines() {
        open |= line.starts_with("#![deny(");
        if open {
            denied.push_str(line);
            denied.push('\n');
            open = !line.contains(")]");
        }
    }
    denied
        .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .filter(|word| word.starts_with("clippy::"))
        .map(str::to_owned)
        .collect()
}

/// Asserts that each of `files` denies each of `lints` at its top.
fn assert_denies(files: &[&str], lints: &[&str]) {
    for file in files {
        let denied = denied_lints(file);
        for lint in lints {
            assert!(
                denied.iter().any(|d| d == lint),
                "{file} must carry `#![deny({lint})]`; it denies {denied:?}"
            );
        }
    }
}

/// The `clippy.toml` of a workspace crate.
fn clippy_toml(krate: &str) -> String {
    std::fs::read_to_string(workspace().join("crates").join(krate).join("clippy.toml"))
        .expect("readable clippy.toml")
}

/// Asserts that each crate's `clippy.toml` lists each method path under
/// `disallowed-methods`.
fn assert_disallows(crates: &[&str], methods: &[&str]) {
    for krate in crates {
        let toml = clippy_toml(krate);
        let list = toml
            .split_once("disallowed-methods = [")
            .map(|(_, rest)| rest)
            .unwrap_or_default();
        for method in methods {
            assert!(
                list.contains(&format!("path = \"{method}\"")),
                "crates/{krate}/clippy.toml must disallow `{method}`"
            );
        }
    }
}

/// The ten `setsim_collections::codec` primitives and the integer
/// byte-order conversions the wire policy keeps out of serving code.
const WIRE_PRIMITIVES: [&str; 14] = [
    "setsim_collections::codec::write_varint",
    "setsim_collections::codec::read_varint",
    "setsim_collections::codec::write_u32_le",
    "setsim_collections::codec::read_u32_le",
    "setsim_collections::codec::write_u64_le",
    "setsim_collections::codec::read_u64_le",
    "setsim_collections::codec::write_bytes",
    "setsim_collections::codec::read_bytes",
    "setsim_collections::codec::write_str",
    "setsim_collections::codec::read_str",
    "u32::to_le_bytes",
    "u32::from_le_bytes",
    "u64::to_le_bytes",
    "u64::from_le_bytes",
];

const INDEX_CONSTRUCTORS: [&str; 3] = [
    "setsim_core::InvertedIndex::build",
    "setsim_core::InvertedIndex::build_owned",
    "setsim_core::InvertedIndex::load",
];

mod tests {
    use super::*;

    #[test]
    fn every_public_algorithm_item_cites_the_paper() {
        let missing = scan(&paper_ref_scope(), paper_ref_findings);
        assert!(
            missing.is_empty(),
            "public items whose docs and module header cite no paper location \
             (Section/Algorithm/Theorem/…):\n{}",
            missing.join("\n")
        );
    }

    #[test]
    fn no_unreachable_without_a_message() {
        let bare = scan(&unreachable_scope(), bare_unreachable_findings);
        assert!(
            bare.is_empty(),
            "state the violated invariant: `unreachable!(\"…\")`:\n{}",
            bare.join("\n")
        );
    }

    #[test]
    fn rules_route_by_path() {
        let workspace = workspace().display().to_string();
        let rel = |files: Vec<PathBuf>| -> Vec<String> {
            files
                .iter()
                .map(|f| f.display().to_string().replace(&workspace, ""))
                .collect()
        };
        let paper = rel(paper_ref_scope());
        assert!(paper.contains(&"/crates/core/src/algorithms/prefix.rs".to_owned()));
        assert!(paper
            .iter()
            .all(|f| f.starts_with("/crates/core/src/algorithms/")));
        let unreachable = rel(unreachable_scope());
        for file in [
            "/crates/core/src/lib.rs",
            "/crates/collections/src/lib.rs",
            "/crates/storage/src/pool.rs",
            "/crates/server/src/lib.rs",
        ] {
            assert!(unreachable.contains(&file.to_owned()), "{file} not scanned");
        }
        assert!(!unreachable.iter().any(|f| f.starts_with("/crates/bench/")));
    }

    #[test]
    fn documented_item_without_any_locator_is_flagged() {
        let src = "//! Helpers.\n\n/// Does a thing.\npub fn thing() {}\n";
        assert_eq!(paper_ref_findings("a.rs", src).len(), 1);
    }

    #[test]
    fn undocumented_public_item_is_flagged() {
        let src = "//! Helpers.\n\npub struct Bare;\n";
        assert_eq!(
            paper_ref_findings("a.rs", src),
            ["a.rs:3: pub struct Bare;"]
        );
    }

    #[test]
    fn documented_item_without_locator_passes_via_header() {
        let src = "//! The iNRA algorithm (Section V).\n\n/// Does a thing.\npub fn thing() {}\n";
        assert!(paper_ref_findings("a.rs", src).is_empty());
    }

    #[test]
    fn item_level_locator_passes() {
        let src = "//! Helpers.\n\n/// Theorem 1's length window.\npub fn window() {}\n";
        assert!(paper_ref_findings("a.rs", src).is_empty());
    }

    #[test]
    fn docs_through_derive_attribute_attach() {
        let src = "//! Helpers.\n\n/// Algorithm 2's cursor.\n#[derive(Debug, Clone)]\n\
                   #[must_use]\npub struct Cursor;\n";
        assert!(paper_ref_findings("a.rs", src).is_empty());
        // A blank line detaches the docs: the item is then undocumented.
        let detached = "//! Helpers.\n\n/// Algorithm 2's cursor.\n\npub struct Cursor;\n";
        assert_eq!(paper_ref_findings("a.rs", detached).len(), 1);
    }

    #[test]
    fn nested_items_are_not_scanned_for_paper_refs() {
        let src = "//! Helpers.\n\nimpl Thing {\n    /// Plain.\n    pub fn method() {}\n}\n\
                   pub(crate) fn internal() {}\n";
        assert!(paper_ref_findings("a.rs", src).is_empty());
    }

    #[test]
    fn findings_render_with_location() {
        let src = "//! Helpers.\n\n/// Plain.\npub fn thing() {}\n";
        assert_eq!(
            paper_ref_findings("crates/x/src/a.rs", src),
            ["crates/x/src/a.rs:4: pub fn thing() {}"]
        );
        let src = "fn f() {\n    unreachable!()\n}\n";
        assert_eq!(
            bare_unreachable_findings("b.rs", src),
            ["b.rs:2: unreachable!()"]
        );
    }

    #[test]
    fn bare_unreachable_is_flagged_messaged_passes() {
        let src = "fn f(x: u8) -> u8 {\n    match x {\n        0 => 1,\n        \
                   _ => unreachable!(\"x is 0 by the caller's check\"),\n    }\n}\n\
                   // never unreachable!() in a comment\n";
        assert!(bare_unreachable_findings("a.rs", src).is_empty());
        let bare = src.replace(
            "unreachable!(\"x is 0 by the caller's check\")",
            "unreachable!()",
        );
        assert_eq!(bare_unreachable_findings("a.rs", &bare).len(), 1);
    }

    #[test]
    fn unwrap_in_lib_code_is_flagged() {
        assert_denies(
            &[
                "crates/core/src/lib.rs",
                "crates/collections/src/lib.rs",
                "crates/storage/src/lib.rs",
            ],
            &["clippy::unwrap_used"],
        );
    }

    #[test]
    fn expect_in_lib_code_is_flagged() {
        assert_denies(
            &["crates/core/src/lib.rs", "crates/collections/src/lib.rs"],
            &["clippy::expect_used"],
        );
    }

    #[test]
    fn unchecked_io_in_storage_lib_code_is_flagged() {
        assert_denies(
            &["crates/storage/src/lib.rs"],
            &["clippy::unwrap_used", "clippy::expect_used"],
        );
    }

    #[test]
    fn unwrap_inside_test_module_is_exempt() {
        for krate in ["core", "collections", "storage"] {
            let toml = clippy_toml(krate);
            for key in [
                "allow-unwrap-in-tests = true",
                "allow-expect-in-tests = true",
            ] {
                assert!(
                    toml.contains(key),
                    "crates/{krate}/clippy.toml lacks `{key}`"
                );
            }
        }
    }

    #[test]
    fn reachable_panics_are_denied_in_the_lib_crates() {
        assert_denies(
            &[
                "crates/core/src/lib.rs",
                "crates/collections/src/lib.rs",
                "crates/storage/src/lib.rs",
                "crates/server/src/lib.rs",
            ],
            &[
                "clippy::panic",
                "clippy::todo",
                "clippy::unimplemented",
                "clippy::missing_panics_doc",
            ],
        );
    }

    #[test]
    fn guard_holding_files_deny_indexing_and_division() {
        assert_denies(
            &[
                "crates/core/src/engine/mod.rs",
                "crates/core/src/segment/engine.rs",
                "crates/server/src/lib.rs",
                "crates/storage/src/pool.rs",
                "crates/storage/src/pagedsnap.rs",
            ],
            &[
                "clippy::indexing_slicing",
                "clippy::integer_division_remainder_used",
            ],
        );
    }

    #[test]
    fn wallclock_in_core_lib_is_flagged() {
        assert_disallows(&["core"], &["std::time::Instant::now"]);
    }

    #[test]
    fn system_time_is_flagged_too() {
        assert_disallows(&["core"], &["std::time::SystemTime::now"]);
    }

    #[test]
    fn lossy_cast_is_flagged() {
        assert_denies(
            &[
                "crates/core/src/measures.rs",
                "crates/core/src/weights.rs",
                "crates/core/src/properties.rs",
            ],
            &["clippy::as_conversions"],
        );
    }

    #[test]
    fn direct_executor_call_in_serving_code_is_flagged() {
        assert_disallows(
            &["cli", "server"],
            &[
                "setsim_core::engine::execute",
                "setsim_core::engine::execute_into",
            ],
        );
    }

    #[test]
    fn direct_index_build_in_cli_is_flagged() {
        assert_disallows(&["core", "cli", "server"], &INDEX_CONSTRUCTORS);
    }

    #[test]
    fn hand_rolled_wire_bytes_are_flagged() {
        assert_disallows(&["cli", "server", "bench"], &WIRE_PRIMITIVES);
    }
}
