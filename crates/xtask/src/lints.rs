//! The repo's custom lint rules, on the token-stream engine.
//!
//! Nine rules encode policies rustc and clippy cannot express:
//!
//! 1. **`no-unwrap`** — library code in `setsim-core` and
//!    `setsim-collections` must not call `.unwrap()` or `.expect(...)`.
//!    These crates sit under every search path; a panic site hidden in a
//!    combinator chain is an availability bug. Test modules
//!    (`#[cfg(test)]`) are exempt, as is any line carrying a
//!    `lint: allow` marker with its justification.
//! 2. **`no-lossy-cast`** — the scoring arithmetic (`measures.rs`,
//!    `weights.rs`, `properties.rs`) must not use `as` casts between
//!    numeric types. A silently-truncating cast in score computation
//!    corrupts ranking rather than crashing, which is the worst way for
//!    arithmetic to be wrong. Use `From`/`f64::from`, or confine a
//!    provably-exact cast to one `lint: allow`-marked line with its
//!    contract spelled out.
//! 3. **`paper-ref`** — every public item in `crates/core/src/algorithms/`
//!    must be documented, and its doc comment (or the file's module
//!    header) must cite the paper location it implements (a section,
//!    algorithm, theorem, equation, or figure). The crate exists to
//!    reproduce a paper; unlocatable public API is unreviewable.
//! 4. **`no-unchecked-io`** — library code in `setsim-storage` must not
//!    call `.unwrap()` or `.expect(...)`. That crate is the only one that
//!    touches real files: an unchecked `io::Result` there turns a
//!    recoverable disk condition into a panic in the middle of snapshot
//!    save/load, precisely where `SnapshotError` exists to report it.
//!    The few in-memory invariants that genuinely cannot fail carry a
//!    `lint: allow` marker with their justification; test modules are
//!    exempt as usual.
//! 5. **`no-wallclock`** — library code in `setsim-core` must not call
//!    `Instant::now()` / `SystemTime::now()` outside the engine's
//!    metrics module. The bench harness gates regressions on the
//!    *deterministic* access counters precisely because the measured
//!    kernels contain no timing logic; a clock read hidden inside an
//!    algorithm would both perturb what the harness measures and make
//!    behavior machine-dependent. The serving boundary (engine latency
//!    recording, budget deadlines) carries explicit `lint: allow`
//!    markers — those clocks sit outside the pruning kernels.
//! 6. **`mutable-index`** — serving and CLI code must obtain indexes
//!    through the segment layer rather than constructing `InvertedIndex`
//!    directly; direct construction bypasses record-id assignment, the
//!    delta op log, and drift accounting.
//! 7. **`wire-api`** — code that speaks the network protocol (the server
//!    crate, the CLI, the bench loadgen) must construct requests and
//!    responses as typed `setsim_core::api` values and frame them with
//!    `write_frame`/`read_frame`, never by hand-rolling bytes. A bespoke
//!    encoder silently forks the wire format — the exact failure the
//!    versioned protocol exists to prevent.
//! 8. **`sharding`** — serving code (the CLI and the server crate) must
//!    run searches through an engine (`QueryEngine`, `ShardedEngine`,
//!    `MutableEngine`), never by invoking the single-index executor
//!    (`engine::execute` / `execute_into`) directly. A direct executor
//!    call bypasses the shard planner: the Theorem 1 band table is never
//!    consulted, so a sharded deployment would silently search one shard
//!    and miss the rest.
//! 9. **`paged-io`** — the demand-paged serving path (`engine/paged` in
//!    setsim-core, `pagedsnap` in setsim-storage) must not call a
//!    full-decode entry point: `decode_all(..)`, the `load_index*`
//!    helpers, or `InvertedIndex::load`. The whole point of the paged
//!    engine is that resident memory scales with the buffer pool, not
//!    the snapshot; one stray eager decode silently restores the
//!    O(index) footprint the subsystem exists to avoid, and nothing
//!    crashes to reveal it. Test regions are exempt (equivalence suites
//!    deliberately cross-check against the full decode), as is a
//!    `lint: allow`-marked line with its justification.
//!
//! The first six used to run as line-oriented substring scans; they now run
//! on the token stream from [`crate::lexer`] via [`crate::model`]. The
//! observable policy is unchanged on the committed tree (both engines
//! report zero findings); behavior differs only where the text engine
//! was provably wrong — `.unwrap()` spelled inside a string literal no
//! longer counts as a call, a call chain split across lines no longer
//! escapes, and `lint: allow` inside a *string* no longer silences
//! anything (markers must be comments). The analyzer self-test corpus in
//! `crates/xtask/tests/` pins each of those differences.

use crate::lexer::TokenKind;
use crate::model::FileModel;
use std::fmt;

pub use crate::model::ALLOW_MARKER;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (`no-unwrap`, `panic-path`, `serving-index`, …).
    pub rule: &'static str,
    /// What went wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Match `.unwrap()` / `.expect(` as token sequences. Returns the code
/// index and which needle fired. `unwrap_or`, `expect_err`, etc. are
/// single ident tokens and never match.
fn unwrap_sites(m: &FileModel<'_>) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for i in 0..m.code_len().saturating_sub(2) {
        if !m.is_punct(i, '.') {
            continue;
        }
        if m.is_ident(i + 1, "unwrap") && m.is_punct(i + 2, '(') {
            out.push((i + 1, ".unwrap()"));
        } else if m.is_ident(i + 1, "expect") && m.is_punct(i + 2, '(') {
            out.push((i + 1, ".expect("));
        }
    }
    out
}

/// Rule `no-unwrap`: flag `.unwrap()` / `.expect(` outside test regions.
pub fn check_no_unwrap(file: &str, source: &str) -> Vec<Finding> {
    let m = FileModel::new(source);
    unwrap_sites(&m)
        .into_iter()
        .filter(|(i, _)| {
            let line = m.ct(*i).line;
            !m.in_test(line) && !m.allowed_on(line)
        })
        .map(|(i, needle)| Finding {
            file: file.to_string(),
            line: m.ct(i).line,
            rule: "no-unwrap",
            message: format!(
                "`{needle}` in library code; return an error, use a \
                 combinator with a total fallback, or panic explicitly \
                 with a documented `# Panics` contract"
            ),
        })
        .collect()
}

/// Rule `no-unchecked-io`: `setsim-storage` wraps real files, so every
/// `io::Result` must propagate (`?` into `SnapshotError::Io`) rather
/// than be unwrapped. Same detector as `no-unwrap` but reported under
/// its own rule so the policy and its fix are explicit.
pub fn check_no_unchecked_io(file: &str, source: &str) -> Vec<Finding> {
    let m = FileModel::new(source);
    unwrap_sites(&m)
        .into_iter()
        .filter(|(i, _)| {
            let line = m.ct(*i).line;
            !m.in_test(line) && !m.allowed_on(line)
        })
        .map(|(i, needle)| Finding {
            file: file.to_string(),
            line: m.ct(i).line,
            rule: "no-unchecked-io",
            message: format!(
                "`{needle}` in storage library code; propagate I/O \
                 errors (`?` into `SnapshotError::Io`) — an in-memory \
                 invariant that truly cannot fail needs a \
                 `{ALLOW_MARKER}` marker with its justification"
            ),
        })
        .collect()
}

/// Rule `no-wallclock`: flag wall-clock reads in `setsim-core` library
/// code outside the metrics module, so timing logic cannot leak into the
/// measured algorithm kernels (their counters must stay deterministic —
/// they are the bench harness's primary regression signal).
pub fn check_no_wallclock(file: &str, source: &str) -> Vec<Finding> {
    let m = FileModel::new(source);
    let mut findings = Vec::new();
    for i in 0..m.code_len().saturating_sub(4) {
        let clock = if m.is_ident(i, "Instant") {
            "Instant::now()"
        } else if m.is_ident(i, "SystemTime") {
            "SystemTime::now()"
        } else {
            continue;
        };
        let is_now_call = m.is_punct(i + 1, ':')
            && m.is_punct(i + 2, ':')
            && m.is_ident(i + 3, "now")
            && m.is_punct(i + 4, '(');
        if !is_now_call {
            continue;
        }
        let line = m.ct(i).line;
        if m.in_test(line) || m.allowed_on_or_above(line) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule: "no-wallclock",
            message: format!(
                "`{clock}` in core library code; clocks belong at the \
                 serving boundary (engine metrics / budget deadlines), \
                 not in measured kernels — counters must stay \
                 deterministic. If this site genuinely is that \
                 boundary, add a `{ALLOW_MARKER}` marker with its \
                 justification"
            ),
        });
    }
    findings
}

/// Numeric types an `as` cast can target; a cast to any of these in
/// scoring arithmetic is treated as potentially lossy.
const NUMERIC_TYPES: [&str; 13] = [
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "isize",
];

/// Rule `no-lossy-cast`: flag `as <numeric>` outside test regions.
pub fn check_no_lossy_casts(file: &str, source: &str) -> Vec<Finding> {
    let m = FileModel::new(source);
    let mut findings = Vec::new();
    for i in 0..m.code_len().saturating_sub(1) {
        if !m.is_ident(i, "as") {
            continue;
        }
        let target = m.ct_text(i + 1);
        if m.ct(i + 1).kind != TokenKind::Ident || !NUMERIC_TYPES.contains(&target) {
            continue;
        }
        let line = m.ct(i).line;
        if m.in_test(line) || m.allowed_on(line) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule: "no-lossy-cast",
            message: format!(
                "`as {target}` in scoring arithmetic; use `From`/`try_from`, \
                 or isolate a provably-exact cast behind a `{ALLOW_MARKER}` \
                 marker with its contract"
            ),
        });
    }
    findings
}

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

fn has_paper_locator(text: &str) -> bool {
    PAPER_LOCATORS.iter().any(|w| text.contains(w))
}

/// Item keywords a top-level `pub` can introduce.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "mod"];

/// Rule `paper-ref`: every public item in an algorithms source file must
/// carry a doc comment, and that comment — or the file's `//!` header —
/// must cite where in the paper the item comes from.
pub fn check_paper_refs(file: &str, source: &str) -> Vec<Finding> {
    let m = FileModel::new(source);
    let header_located = has_paper_locator(&m.module_header());
    let mut findings = Vec::new();
    let mut depth = 0usize;
    for i in 0..m.code_len() {
        if m.is_punct(i, '{') {
            depth += 1;
            continue;
        }
        if m.is_punct(i, '}') {
            depth = depth.saturating_sub(1);
            continue;
        }
        // A top-level `pub` directly followed by an item keyword — the
        // `pub(crate)` form has `(` next and is not public API.
        if depth != 0 || !m.is_ident(i, "pub") {
            continue;
        }
        if !ITEM_KEYWORDS.iter().any(|kw| m.is_ident(i + 1, kw)) {
            continue;
        }
        let line = m.ct(i).line;
        if m.in_test(line) {
            continue;
        }
        let item = source
            .lines()
            .nth(line - 1)
            .unwrap_or("")
            .trim()
            .trim_end_matches('{')
            .trim();
        let doc = m.doc_above(i);
        if doc.is_empty() {
            findings.push(Finding {
                file: file.to_string(),
                line,
                rule: "paper-ref",
                message: format!(
                    "public item `{item}` has no doc comment; document it with the \
                     paper location it implements"
                ),
            });
        } else if !has_paper_locator(&doc) && !header_located {
            findings.push(Finding {
                file: file.to_string(),
                line,
                rule: "paper-ref",
                message: format!(
                    "public item `{item}`: neither its docs nor the module header \
                     cite a paper location (Section/Algorithm/Theorem/…)"
                ),
            });
        }
    }
    findings
}

/// Rule `mutable-index`: serving and CLI code must obtain indexes
/// through the segment layer (`MutableIndex::from_collection` /
/// `MutableEngine::open`, freezing with `into_base()` where a static
/// index is needed) rather than constructing `InvertedIndex` directly.
/// Direct construction bypasses record-id assignment, the delta op log,
/// and drift accounting, so an index built that way can never be
/// mutated or audited. The segment module itself and test regions are
/// exempt; a deliberate exception carries the allow marker on the call
/// line or the line above.
pub fn check_mutable_index(file: &str, source: &str) -> Vec<Finding> {
    let m = FileModel::new(source);
    let mut findings = Vec::new();
    for i in 0..m.code_len().saturating_sub(4) {
        if !m.is_ident(i, "InvertedIndex") || !m.is_punct(i + 1, ':') || !m.is_punct(i + 2, ':') {
            continue;
        }
        let method = m.ct_text(i + 3);
        if !["build", "build_owned", "load"].contains(&method) || !m.is_punct(i + 4, '(') {
            continue;
        }
        let line = m.ct(i + 3).line;
        if m.in_test(line) || m.allowed_on_or_above(line) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule: "mutable-index",
            message: format!(
                "`InvertedIndex::{method}(..)` in serving/CLI code; build through the \
                 segment layer (`MutableIndex::from_collection` or \
                 `MutableEngine::open`) and freeze with `into_base()` \
                 if a static index is required"
            ),
        });
    }
    findings
}

/// Rule `wire-api`: serving-adjacent code must speak the wire protocol
/// through `setsim_core::api` — typed `WireRequest`/`WireResponse`
/// values framed by `write_frame`/`read_frame` — never by hand-rolling
/// bytes. Detected as calls to the byte-level codec primitives
/// (`write_varint`, `read_u32_le`, …) or `to_le_bytes`/`from_le_bytes`:
/// any bespoke framing needs one of those to produce a length prefix or
/// a fixed-width field, so the primitives are the reliable tell. The
/// `api` module itself lives in `setsim-core` (outside this rule's
/// scope); test suites are exempt, and a deliberate exception carries
/// the allow marker on the call line or the line above.
pub fn check_wire_api(file: &str, source: &str) -> Vec<Finding> {
    const PRIMITIVES: [&str; 12] = [
        "write_varint",
        "read_varint",
        "write_u32_le",
        "read_u32_le",
        "write_u64_le",
        "read_u64_le",
        "write_bytes",
        "read_bytes",
        "write_str",
        "read_str",
        "to_le_bytes",
        "from_le_bytes",
    ];
    let m = FileModel::new(source);
    let mut findings = Vec::new();
    for i in 0..m.code_len().saturating_sub(1) {
        if m.ct(i).kind != TokenKind::Ident || !m.is_punct(i + 1, '(') {
            continue;
        }
        let name = m.ct_text(i);
        if !PRIMITIVES.contains(&name) {
            continue;
        }
        let line = m.ct(i).line;
        if m.in_test(line) || m.allowed_on_or_above(line) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule: "wire-api",
            message: format!(
                "`{name}(..)` hand-rolls wire bytes in serving code; construct typed \
                 `setsim_core::api` requests/responses and frame them with \
                 `write_frame`/`read_frame`"
            ),
        });
    }
    findings
}

/// Rule `sharding`: serving code must run searches through an engine —
/// `QueryEngine`, `ShardedEngine`, or `MutableEngine` — never by calling
/// the single-index executor (`engine::execute` / `execute_into`) on an
/// `InvertedIndex` directly. The engines own the shard planner: a direct
/// executor call skips the Theorem 1 band table, so in a sharded
/// deployment it would search one shard and silently miss the rest.
/// Test regions are exempt; a deliberate exception carries the allow
/// marker on the call line or the line above.
pub fn check_sharding(file: &str, source: &str) -> Vec<Finding> {
    let m = FileModel::new(source);
    let mut findings = Vec::new();
    for i in 0..m.code_len().saturating_sub(1) {
        if m.ct(i).kind != TokenKind::Ident || !m.is_punct(i + 1, '(') {
            continue;
        }
        let name = m.ct_text(i);
        if name != "execute" && name != "execute_into" {
            continue;
        }
        let line = m.ct(i).line;
        if m.in_test(line) || m.allowed_on_or_above(line) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule: "sharding",
            message: format!(
                "`{name}(..)` runs a single-index search in serving code; route \
                 through `QueryEngine`/`ShardedEngine`/`MutableEngine` so the \
                 shard planner (the Theorem 1 band table) stays in the loop"
            ),
        });
    }
    findings
}

/// Rule `paged-io`: the demand-paged serving path — the paged engine in
/// `setsim-core` and the paged snapshot reader in `setsim-storage` —
/// must never fall back to a full-decode entry point. Detected as a
/// call to `decode_all(..)` or the `load_index*` helpers (any callee
/// spelling), or to `InvertedIndex::load(..)` specifically; an
/// unqualified `.load(..)` on some other receiver stays legal. Faulting
/// goes through the buffer pool one posting block at a time
/// (`PagedSnapshot::page` / `read_list_blocks`), which is what keeps
/// resident memory proportional to the pool rather than the snapshot.
/// Test regions are exempt — the equivalence suites cross-check against
/// the eager decode on purpose — and a deliberate exception carries the
/// allow marker on the call line or the line above.
pub fn check_paged_io(file: &str, source: &str) -> Vec<Finding> {
    const FULL_DECODE: [&str; 3] = ["decode_all", "load_index", "load_index_with_weights"];
    let m = FileModel::new(source);
    let mut findings = Vec::new();
    for i in 0..m.code_len().saturating_sub(1) {
        if m.ct(i).kind != TokenKind::Ident || !m.is_punct(i + 1, '(') {
            continue;
        }
        let name = m.ct_text(i);
        let qualified_load = name == "load"
            && i >= 3
            && m.is_ident(i - 3, "InvertedIndex")
            && m.is_punct(i - 2, ':')
            && m.is_punct(i - 1, ':');
        if !FULL_DECODE.contains(&name) && !qualified_load {
            continue;
        }
        let line = m.ct(i).line;
        if m.in_test(line) || m.allowed_on_or_above(line) {
            continue;
        }
        let shown = if qualified_load {
            "InvertedIndex::load"
        } else {
            name
        };
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule: "paged-io",
            message: format!(
                "`{shown}(..)` decodes the whole snapshot inside the demand-paged \
                 path; fault individual posting blocks through the buffer pool \
                 (`PagedSnapshot::page` / `read_list_blocks`) so resident memory \
                 stays proportional to the pool"
            ),
        });
    }
    findings
}

/// Which rules apply to a repo-relative path.
pub fn rules_for(path: &str) -> Vec<fn(&str, &str) -> Vec<Finding>> {
    let mut rules: Vec<fn(&str, &str) -> Vec<Finding>> = Vec::new();
    let unix = path.replace('\\', "/");
    let in_lib_crates = (unix.starts_with("crates/core/src/")
        || unix.starts_with("crates/collections/src/"))
        && unix.ends_with(".rs");
    if in_lib_crates {
        rules.push(check_no_unwrap);
    }
    if unix.starts_with("crates/storage/src/") && unix.ends_with(".rs") {
        rules.push(check_no_unchecked_io);
    }
    // no-wallclock: all of setsim-core except the metrics module, which
    // exists to hold the serving layer's latency instrumentation.
    if unix.starts_with("crates/core/src/")
        && unix.ends_with(".rs")
        && unix != "crates/core/src/engine/metrics.rs"
    {
        rules.push(check_no_wallclock);
    }
    if [
        "crates/core/src/measures.rs",
        "crates/core/src/weights.rs",
        "crates/core/src/properties.rs",
    ]
    .contains(&unix.as_str())
    {
        rules.push(check_no_lossy_casts);
    }
    if unix.starts_with("crates/core/src/algorithms/") && unix.ends_with(".rs") {
        rules.push(check_paper_refs);
    }
    // mutable-index: the CLI, the server, and the core serving layer,
    // minus the segment module (it defines the sanctioned construction
    // path) and test suites. Everything else may build static indexes
    // freely.
    let in_serving = unix.starts_with("crates/cli/src/")
        || unix.starts_with("crates/server/src/")
        || unix.starts_with("crates/core/src/engine/");
    if in_serving && unix.ends_with(".rs") && !unix.contains("tests/") {
        rules.push(check_mutable_index);
    }
    // wire-api: the code that speaks the network protocol. The typed
    // encoders live in setsim-core's api module, which this scope
    // deliberately excludes; the bench crate is in scope only through
    // its loadgen module and driver binary (its JSON writer has a
    // legitimate `write_str` of its own).
    let speaks_wire = unix.starts_with("crates/server/src/")
        || unix.starts_with("crates/cli/src/")
        || unix == "crates/bench/src/loadgen.rs"
        || unix.starts_with("crates/bench/src/bin/");
    if speaks_wire && unix.ends_with(".rs") && !unix.contains("tests/") {
        rules.push(check_wire_api);
    }
    // sharding: the CLI and the server serve queries, so they must go
    // through the engines that consult the shard planner. Core (defines
    // the executor and the engines), bench (measures the raw executor as
    // a baseline), and test suites stay out.
    let serves_queries =
        unix.starts_with("crates/cli/src/") || unix.starts_with("crates/server/src/");
    if serves_queries && unix.ends_with(".rs") && !unix.contains("tests/") {
        rules.push(check_sharding);
    }
    // paged-io: the demand-paged engine and its snapshot reader. Scoped
    // by substring so a future split (e.g. engine/paged/pool.rs) stays
    // covered without touching the router.
    let demand_paged = unix.contains("engine/paged") || unix.contains("pagedsnap");
    if demand_paged && unix.ends_with(".rs") && !unix.contains("tests/") {
        rules.push(check_paged_io);
    }
    rules
}

/// Run every applicable rule on one file.
pub fn check_file(path: &str, source: &str) -> Vec<Finding> {
    rules_for(path)
        .into_iter()
        .flat_map(|rule| rule(path, source))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB_PATH: &str = "crates/core/src/example.rs";

    #[test]
    fn unwrap_in_lib_code_is_flagged() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let f = check_no_unwrap(LIB_PATH, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].rule, "no-unwrap");
    }

    #[test]
    fn expect_in_lib_code_is_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"present\")\n}\n";
        assert_eq!(check_no_unwrap(LIB_PATH, src).len(), 1);
    }

    #[test]
    fn unwrap_inside_test_module_is_exempt() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
        assert!(check_no_unwrap(LIB_PATH, src).is_empty());
    }

    #[test]
    fn unwrap_after_test_module_is_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let f = check_no_unwrap(LIB_PATH, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 7);
    }

    #[test]
    fn allow_marker_exempts_a_line() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint: allow — checked non-empty above\n}\n";
        assert!(check_no_unwrap(LIB_PATH, src).is_empty());
    }

    #[test]
    fn unwrap_in_comment_is_not_flagged() {
        let src = "// calling .unwrap() here would be wrong\nfn f() {}\n";
        assert!(check_no_unwrap(LIB_PATH, src).is_empty());
    }

    /// The headline fix of the token migration: `.unwrap()` spelled
    /// inside a string literal is data, not a call. The old line scanner
    /// flagged it.
    #[test]
    fn unwrap_inside_string_literal_is_not_flagged() {
        let src = "fn f() -> &'static str {\n    \"never call .unwrap() in serving code\"\n}\n";
        assert!(check_no_unwrap(LIB_PATH, src).is_empty());
        let raw = "fn f() -> &'static str {\n    r#\"x.unwrap() inside raw\"#\n}\n";
        assert!(check_no_unwrap(LIB_PATH, raw).is_empty());
    }

    /// And the converse: a chain split across lines IS a call — the old
    /// line scanner only matched `.unwrap()` on one line.
    #[test]
    fn multiline_unwrap_chain_is_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x\n        .unwrap\n        ()\n}\n";
        let f = check_no_unwrap(LIB_PATH, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    /// `lint: allow` smuggled inside a string no longer silences the rule.
    #[test]
    fn allow_marker_inside_string_does_not_exempt() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap(); let _ = \"lint: allow\";\n    0\n}\n";
        assert_eq!(check_no_unwrap(LIB_PATH, src).len(), 1);
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0).max(x.unwrap_or_default())\n}\n";
        assert!(check_no_unwrap(LIB_PATH, src).is_empty());
    }

    #[test]
    fn lossy_cast_is_flagged() {
        let src = "fn f(n: usize) -> f64 {\n    n as f64\n}\n";
        let f = check_no_lossy_casts("crates/core/src/weights.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-lossy-cast");
    }

    #[test]
    fn cast_in_test_module_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() -> u32 { 1usize as u32 }\n}\n";
        assert!(check_no_lossy_casts("crates/core/src/weights.rs", src).is_empty());
    }

    #[test]
    fn non_cast_use_of_as_keyword_is_ignored() {
        let src = "use std::collections::HashMap as Map;\nfn f(m: &Map<u32, u32>) { let _ = m; }\n";
        assert!(check_no_lossy_casts("crates/core/src/weights.rs", src).is_empty());
    }

    /// `as` inside a string ("measured as f64 …") is not a cast.
    #[test]
    fn cast_spelled_in_string_is_ignored() {
        let src = "fn f() -> &'static str {\n    \"stored as f64 internally\"\n}\n";
        assert!(check_no_lossy_casts("crates/core/src/weights.rs", src).is_empty());
    }

    #[test]
    fn undocumented_public_item_is_flagged() {
        let src = "//! Module header with Section III context.\n\npub fn mystery() {}\n";
        let f = check_paper_refs("crates/core/src/algorithms/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no doc comment"));
    }

    #[test]
    fn documented_item_without_locator_passes_via_header() {
        let src =
            "//! Implements Section V of the paper.\n\n/// Does the thing.\npub fn thing() {}\n";
        assert!(check_paper_refs("crates/core/src/algorithms/x.rs", src).is_empty());
    }

    #[test]
    fn documented_item_without_any_locator_is_flagged() {
        let src = "//! A module about stuff.\n\n/// Does the thing.\npub fn thing() {}\n";
        let f = check_paper_refs("crates/core/src/algorithms/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("paper location"));
    }

    #[test]
    fn item_level_locator_passes() {
        let src = "/// The merge of Section III-B.\npub struct Merge;\n";
        assert!(check_paper_refs("crates/core/src/algorithms/x.rs", src).is_empty());
    }

    #[test]
    fn nested_items_are_not_scanned_for_paper_refs() {
        let src = "/// Algorithm 3 driver.\npub fn run() {\n    pub fn helper() {}\n}\n";
        assert!(check_paper_refs("crates/core/src/algorithms/x.rs", src).is_empty());
    }

    /// Doc comments interleaved with attributes still attach to the item.
    #[test]
    fn docs_through_derive_attribute_attach() {
        let src = "/// Section III-B merge state.\n#[derive(Debug, Clone)]\npub struct Merge;\n";
        assert!(check_paper_refs("crates/core/src/algorithms/x.rs", src).is_empty());
    }

    #[test]
    fn rules_route_by_path() {
        assert!(!rules_for("crates/core/src/index.rs").is_empty());
        assert!(!rules_for("crates/collections/src/btree.rs").is_empty());
        // core lib code picks up no-wallclock on top of its prior rules.
        assert_eq!(rules_for("crates/core/src/weights.rs").len(), 3);
        assert_eq!(rules_for("crates/core/src/algorithms/sf.rs").len(), 3);
        // ... except the metrics module, whose whole job is timing; the
        // engine modules also pick up mutable-index.
        assert_eq!(rules_for("crates/core/src/engine/metrics.rs").len(), 2);
        assert_eq!(rules_for("crates/core/src/engine/budget.rs").len(), 3);
        // The paged engine adds paged-io on top of the engine rules, and
        // the paged snapshot reader adds it on top of the storage rules.
        assert_eq!(rules_for("crates/core/src/engine/paged.rs").len(), 4);
        assert_eq!(rules_for("crates/storage/src/pagedsnap.rs").len(), 2);
        // The segment module defines the sanctioned construction path, so
        // it gets the core rules but NOT mutable-index.
        assert_eq!(rules_for("crates/core/src/segment/mod.rs").len(), 2);
        // storage lib code: no-unchecked-io.
        assert_eq!(rules_for("crates/storage/src/snapshot.rs").len(), 1);
        assert_eq!(rules_for("crates/storage/src/pool.rs").len(), 1);
        // Crates with no policy of their own.
        assert!(rules_for("crates/datagen/src/corpus.rs").is_empty());
        // CLI serving code: mutable-index + wire-api + sharding.
        assert_eq!(rules_for("crates/cli/src/lib.rs").len(), 3);
        assert_eq!(rules_for("crates/cli/src/main.rs").len(), 3);
        // Server crate: the same three.
        assert_eq!(rules_for("crates/server/src/lib.rs").len(), 3);
        assert_eq!(rules_for("crates/server/src/client.rs").len(), 3);
        assert!(rules_for("examples/quickstart.rs").is_empty());
        assert!(rules_for("src/lib.rs").is_empty());
        // Bench's loadgen speaks the wire; the rest of the crate (e.g.
        // the JSON writer) stays out.
        assert_eq!(rules_for("crates/bench/src/loadgen.rs").len(), 1);
        assert_eq!(rules_for("crates/bench/src/bin/setsim-bench.rs").len(), 1);
        assert!(rules_for("crates/bench/src/lib.rs").is_empty());
        assert!(rules_for("crates/bench/src/json.rs").is_empty());
        // Exempt: xtask and every test suite.
        assert!(rules_for("crates/xtask/src/lints.rs").is_empty());
        assert!(rules_for("tests/oracle_equivalence.rs").is_empty());
        assert!(rules_for("crates/cli/tests/e2e.rs").is_empty());
        assert!(rules_for("crates/server/tests/e2e.rs").is_empty());
        assert!(rules_for("crates/core/README.md").is_empty());
    }

    #[test]
    fn hand_rolled_wire_bytes_are_flagged() {
        let src = "pub fn frame(len: u32, out: &mut Vec<u8>) {\n    \
                   out.extend_from_slice(&len.to_le_bytes());\n    \
                   write_varint(out, 7);\n}\n";
        let f = check_wire_api("crates/server/src/lib.rs", src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, "wire-api");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);
    }

    #[test]
    fn typed_wire_calls_and_exemptions_pass() {
        // Typed surface: no byte primitives, nothing fires.
        let src = "pub fn send(s: &mut TcpStream, r: &WireRequest) {\n    \
                   write_frame(s, &r.encode());\n}\n";
        assert!(check_wire_api("crates/server/src/lib.rs", src).is_empty());
        // The primitive named in a comment or string is not a call.
        let src = "/ to_le_bytes( is banned here\npub fn f() -> &'static str {\n    \
                   \"write_varint(out, 7)\"\n}\n"
            .replace("/ to", "// to");
        assert!(check_wire_api("crates/server/src/lib.rs", &src).is_empty());
        // Allow marker on the line above escapes.
        let src = "pub fn f(x: u32) {\n    / lint: allow — checksum field, not framing.\n    \
                   let b = x.to_le_bytes();\n}\n"
            .replace("/ lint", "// lint");
        assert!(check_wire_api("crates/server/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn direct_executor_call_in_serving_code_is_flagged() {
        let src = "pub fn serve(idx: &InvertedIndex, req: &SearchRequest) -> SearchOutcome {\n    \
                   let mut scratch = Scratch::default();\n    \
                   engine::execute(idx, &mut scratch, req)\n}\n";
        let f = check_sharding("crates/cli/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "sharding");
        assert_eq!(f[0].line, 3);

        let src =
            "pub fn serve(idx: &InvertedIndex, req: &SearchRequest, out: &mut Vec<Hit>) {\n    \
                   engine::execute_into(idx, req, out);\n}\n";
        let f = check_sharding("crates/server/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn engine_routed_search_and_exemptions_pass() {
        // Routing through an engine is the sanctioned path.
        let src = "pub fn serve(e: &ShardedEngine, req: &SearchRequest) -> SearchOutcome {\n    \
                   e.search(req)\n}\n";
        assert!(check_sharding("crates/cli/src/lib.rs", src).is_empty());
        // The executor named in a comment or string is not a call.
        let src = "/ engine::execute( is banned here\npub fn f() -> &'static str {\n    \
                   \"execute_into(idx, req, out)\"\n}\n"
            .replace("/ engine", "// engine");
        assert!(check_sharding("crates/cli/src/lib.rs", &src).is_empty());
        // Allow marker on the line above escapes.
        let src = "pub fn f(idx: &InvertedIndex, req: &SearchRequest) {\n    \
                   / lint: allow — single-shard debug path, banner printed.\n    \
                   let _ = engine::execute(idx, &mut Scratch::default(), req);\n}\n"
            .replace("/ lint", "// lint");
        assert!(check_sharding("crates/cli/src/lib.rs", &src).is_empty());
        // Test modules may drive the executor directly.
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                   let _ = engine::execute(&idx, &mut s, &req);\n    }\n}\n";
        assert!(check_sharding("crates/cli/src/lib.rs", src).is_empty());
    }

    #[test]
    fn full_decode_in_paged_path_is_flagged() {
        let src = "pub fn warm(p: &Paged, d: &mut Disk, b: &mut BufferPool) {\n    \
                   let all = p.decode_all(d, b);\n    \
                   let idx = InvertedIndex::load(&path);\n}\n";
        let f = check_paged_io("crates/core/src/engine/paged.rs", src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, "paged-io");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);
        assert!(f[1].message.contains("InvertedIndex::load"));
    }

    #[test]
    fn paged_faults_and_exemptions_pass() {
        // Faulting one block through the pool is the sanctioned path.
        let src = "pub fn fault(s: &PagedSnapshot, pool: &mut BufferPool, pg: u64) {\n    \
                   let _ = s.page(pool, pg);\n}\n";
        assert!(check_paged_io("crates/storage/src/pagedsnap.rs", src).is_empty());
        // An unqualified `.load(..)` is some other receiver's load, not
        // the full snapshot decode.
        let src = "pub fn f(r: &Reader) -> Block {\n    r.load(7)\n}\n";
        assert!(check_paged_io("crates/storage/src/pagedsnap.rs", src).is_empty());
        // Named in a comment or a string, it is not a call.
        let src = "/ decode_all( is banned here\npub fn f() -> &'static str {\n    \
                   \"InvertedIndex::load(path)\"\n}\n"
            .replace("/ decode", "// decode");
        assert!(check_paged_io("crates/core/src/engine/paged.rs", &src).is_empty());
        // Allow marker on the line above escapes.
        let src = "pub fn f(p: &Paged) {\n    \
                   / lint: allow — verify subcommand decodes everything on purpose.\n    \
                   let _ = p.decode_all(&mut d, &mut b);\n}\n"
            .replace("/ lint", "// lint");
        assert!(check_paged_io("crates/core/src/engine/paged.rs", &src).is_empty());
        // Test modules cross-check against the eager decode on purpose.
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                   let _ = p.decode_all(&mut d, &mut b);\n    }\n}\n";
        assert!(check_paged_io("crates/core/src/engine/paged.rs", src).is_empty());
    }

    #[test]
    fn check_file_runs_paged_io_for_paged_paths() {
        // check_file must route the rule: the same eager decode that the
        // direct call flags is flagged through the front door too.
        let src = "pub fn warm(p: &Paged) {\n    let _ = p.decode_all(&mut d, &mut b);\n}\n";
        let f = check_file("crates/core/src/engine/paged.rs", src);
        assert!(f.iter().any(|f| f.rule == "paged-io"));
        // ...and must NOT apply it to the legacy paged codec in storage,
        // which legitimately defines decode_all for the simulator.
        let f = check_file("crates/storage/src/paged.rs", src);
        assert!(f.iter().all(|f| f.rule != "paged-io"));
    }

    #[test]
    fn wallclock_in_core_lib_is_flagged() {
        let src = "pub fn f() {\n    let t = Instant::now();\n}\n";
        let f = check_no_wallclock(LIB_PATH, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].rule, "no-wallclock");
    }

    #[test]
    fn wallclock_with_allow_marker_passes() {
        let src =
            "pub fn f() {\n    / lint: allow — serving-boundary latency measurement.\n    let t = Instant::now();\n}\n"
                .replace("/ lint", "// lint");
        assert!(check_no_wallclock(LIB_PATH, &src).is_empty());
    }

    #[test]
    fn wallclock_in_tests_and_comments_passes() {
        let src = "/ Instant::now() is banned here.\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let t = Instant::now();\n    }\n}\n"
            .replace("/ Instant", "// Instant");
        assert!(check_no_wallclock(LIB_PATH, &src).is_empty());
    }

    #[test]
    fn system_time_is_flagged_too() {
        let src = "pub fn f() {\n    let t = SystemTime::now();\n}\n";
        let f = check_no_wallclock(LIB_PATH, src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn direct_index_build_in_cli_is_flagged() {
        let src = "fn f() {\n    let idx = InvertedIndex::build(&collection, IndexOptions::default());\n}\n";
        let f = check_mutable_index("crates/cli/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].rule, "mutable-index");
        let src = "fn f() {\n    let idx = InvertedIndex::load(path)?;\n}\n";
        assert_eq!(
            check_mutable_index("crates/core/src/engine/mod.rs", src).len(),
            1
        );
    }

    #[test]
    fn segment_layer_construction_passes_mutable_index() {
        let src = "fn f() {\n    let mi = MutableIndex::from_collection(c, o)?;\n    let idx = mi.into_base();\n}\n";
        assert!(check_mutable_index("crates/cli/src/lib.rs", src).is_empty());
    }

    #[test]
    fn mutable_index_allow_marker_and_tests_pass() {
        let src = "fn f() {\n    / lint: allow mutable-index — cold-start path.\n    let idx = InvertedIndex::load(path)?;\n}\n"
            .replace("/ lint", "// lint");
        assert!(check_mutable_index("crates/core/src/engine/mod.rs", &src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        let idx = InvertedIndex::build(&c, o);\n    }\n}\n";
        assert!(check_mutable_index("crates/cli/src/lib.rs", src).is_empty());
    }

    #[test]
    fn introducing_unwrap_into_core_lib_code_fails_the_check() {
        // The acceptance test stated end-to-end: take a realistic
        // library file shape, verify it passes, introduce an unwrap,
        // verify the check now fails.
        let clean = "use std::collections::HashMap;\n\npub fn lookup(m: &HashMap<u32, u32>, k: u32) -> Option<u32> {\n    m.get(&k).copied()\n}\n";
        assert!(check_file("crates/core/src/example.rs", clean).is_empty());
        let dirty = clean.replace(".copied()", ".copied().unwrap().into()");
        let f = check_file("crates/core/src/example.rs", &dirty);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unwrap");
    }

    #[test]
    fn unchecked_io_in_storage_lib_code_is_flagged() {
        let path = "crates/storage/src/example.rs";
        let src = "pub fn read(p: &Path) -> Vec<u8> {\n    std::fs::read(p).unwrap()\n}\n";
        let f = check_no_unchecked_io(path, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unchecked-io");
        assert!(f[0].message.contains("SnapshotError::Io"));

        let marked = "pub fn cap(v: &[u8]) -> u8 {\n    // lint: allow — slice checked non-empty by caller\n    v.first().copied().expect(\"non-empty\")\n}\n";
        // The marker must sit on the offending line itself for this rule.
        assert_eq!(check_no_unchecked_io(path, marked).len(), 1);
        let inline = "pub fn cap(v: &[u8]) -> u8 {\n    v[0] // lint: allow — in-memory, bounds asserted\n}\n";
        assert!(check_no_unchecked_io(path, inline).is_empty());

        let in_test = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { std::fs::read(\"x\").unwrap(); }\n}\n";
        assert!(check_no_unchecked_io(path, in_test).is_empty());
    }

    #[test]
    fn introducing_unchecked_io_into_storage_fails_the_check() {
        // End-to-end through check_file: a clean storage file passes,
        // injecting an unwrapped io::Result makes the check fail.
        let clean = "pub fn read(p: &Path) -> Result<Vec<u8>, SnapshotError> {\n    Ok(std::fs::read(p)?)\n}\n";
        assert!(check_file("crates/storage/src/example.rs", clean).is_empty());
        let dirty =
            "pub fn read(p: &Path) -> Vec<u8> {\n    std::fs::read(p).expect(\"readable\")\n}\n";
        let f = check_file("crates/storage/src/example.rs", dirty);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unchecked-io");
    }

    #[test]
    fn findings_render_with_location() {
        let f = Finding {
            file: "crates/core/src/x.rs".to_string(),
            line: 7,
            rule: "no-unwrap",
            message: "bad".to_string(),
        };
        assert_eq!(f.to_string(), "crates/core/src/x.rs:7: [no-unwrap] bad");
    }
}
