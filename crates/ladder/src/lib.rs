//! `setsim-ladder` — the repository's end-to-end benchmark.
//!
//! One corpus (the paper's §VIII word-occurrence database as 3-gram
//! sets) and one τ-selection query stream run through every stack the
//! repository serves: seven workloads, each in its own process, closed
//! loop, one client. With tracing off a workload reports the end-to-end
//! metrics of `BENCHMARK.json`; a separate traced run replays a prefix
//! of the stream through every lower rung by timing calls into each
//! layer's public functions from outside, and reports the per-layer
//! metrics. Every latency is a statistic over per-query medians across
//! repeated passes of the same stream, never over one pass.
//!
//! See `README.md` for the workloads, the metrics, how they interact,
//! and the list of program entry points the adapter (`src/sut.rs`) calls.

mod check;
pub mod cli;
mod inputs;
pub mod json;
mod ladder;
mod measure;
pub mod metrics;
mod spans;
mod sut;
pub mod workloads;
