//! The workspace's offline analysis engine, shared between the `cargo
//! xtask` binary and the analyzer self-tests in `crates/xtask/tests/`.
//!
//! Layering, bottom to top:
//!
//! * [`lexer`] — a hand-rolled Rust lexer (raw strings, nested block
//!   comments, char-vs-lifetime disambiguation, doc comments as their
//!   own token kinds). No `syn`: the workspace builds offline with zero
//!   external dependencies.
//! * [`model`] — the per-file token model every pass consumes: code
//!   tokens, a token-accurate `#[cfg(test)]` region mask, the
//!   `lint: allow` escape-hatch index, doc-comment attachment.
//! * [`lints`] — the nine custom policy rules (`no-unwrap`,
//!   `no-lossy-cast`, `paper-ref`, `no-unchecked-io`, `no-wallclock`,
//!   `mutable-index`, `wire-api`, `sharding`, `paged-io`), on the token
//!   stream.
//! * [`analyze`] — the workspace pass behind `cargo xtask analyze`,
//!   panic-reachability ([`analyze::panic`]), plus the orchestrator
//!   that runs it beside the lints and the allow-marker inventory.
//!
//! Lock order is not linted: `setsim-core`'s serving engine has two
//! locks and carries their order in its types (DESIGN.md §13).

pub mod analyze;
pub mod lexer;
pub mod lints;
pub mod model;
