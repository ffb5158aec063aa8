//! Every workload end to end at a tiny corpus (2 000 records, 96
//! queries, 2 timed passes), through the same binary and flags the
//! driver uses.

use setsim_ladder::cli::{MIN_PASSES, RUN_SECONDS};
use setsim_ladder::json::{self, Value};
use setsim_ladder::metrics::{MetricDef, END_TO_END, PER_LAYER, WRITE_SIDE};
use setsim_ladder::workloads::WORKLOADS;
use std::collections::BTreeSet;
use std::process::Command;

/// What one run of the binary printed.
struct Run {
    /// Lines before the result line.
    lines: Vec<String>,
    /// The result line, parsed.
    result: Value,
}

impl Run {
    fn metric(&self, name: &str) -> (f64, String) {
        let m = self
            .result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("no metric {name}"));
        (
            m.get("value").and_then(Value::as_f64).expect("value"),
            m.get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string(),
        )
    }

    /// The rest of the line that starts with `workload/key `.
    fn note(&self, key: &str) -> &str {
        self.lines
            .iter()
            .find_map(|l| l.split_once('/')?.1.strip_prefix(key)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no `{key}` line"))
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_setsim-ladder"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny", "--min-passes", "2"])
        .output()
        .expect("spawn setsim-ladder");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = json::parse(&lines.pop().expect("a result line")).expect("result line is JSON");
    Run { lines, result }
}

/// Name, unit and value of every metric in the result line, checked
/// against `defs`: all present, nothing else, right units.
fn assert_reports(run: &Run, defs: &[MetricDef]) {
    let reported: Vec<&str> = run
        .result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(reported, declared);
    for def in defs {
        let (value, unit) = run.metric(def.name);
        assert_eq!(unit, def.unit, "{}", def.name);
        assert!(value.is_finite(), "{}", def.name);
    }
    assert_eq!(run.result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(run.result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(run.result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
}

#[test]
fn benchmark_json_declares_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let file = json::parse(&text).expect("BENCHMARK.json parses");
    let field = |item: &Value, key: &str| {
        item.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no string `{key}`"))
            .to_string()
    };
    let list = |key: &str| file.get(key).and_then(Value::as_array).expect(key).to_vec();

    let declared = list("workloads");
    assert_eq!(declared.len(), WORKLOADS.len());
    for (item, (name, why)) in declared.iter().zip(WORKLOADS) {
        assert_eq!(field(item, "name"), name);
        assert_eq!(field(item, "why"), why);
    }

    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = list(key);
        assert_eq!(declared.len(), defs.len(), "{key}");
        for (item, def) in declared.iter().zip(defs) {
            assert_eq!(field(item, "name"), def.name);
            assert_eq!(field(item, "unit"), def.unit, "{}", def.name);
            assert_eq!(field(item, "better"), def.better, "{}", def.name);
            let bound = item.get("bound").and_then(Value::as_f64);
            assert_eq!(
                bound,
                (def.bound > 0.0).then_some(def.bound),
                "{}",
                def.name
            );
        }
    }
    assert_eq!(
        file.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS)
    );
    let command: Vec<String> = list("command")
        .iter()
        .map(|a| a.as_str().expect("argument").to_string())
        .collect();
    assert_eq!(
        command[command.len() - 2..],
        ["--min-passes".to_string(), MIN_PASSES.to_string()]
    );
    let paths: Vec<String> = list("paths")
        .iter()
        .map(|p| p.as_str().expect("path").to_string())
        .collect();
    assert_eq!(paths, ["crates/ladder"]);
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_the_same_answers() {
    let (mut digests, mut mutable_digests) = (BTreeSet::new(), BTreeSet::new());
    for (name, _) in WORKLOADS {
        let run = run(name, 42, false);
        assert_reports(&run, &END_TO_END);
        for def in &END_TO_END {
            assert!(run.metric(def.name).0 > 0.0, "{name}/{} is zero", def.name);
        }
        // The human-readable lines carry the same names and units.
        for def in &END_TO_END {
            assert!(
                run.note(def.name).ends_with(def.unit),
                "{name}/{}",
                def.name
            );
        }
        if matches!(name, "mixed_rw" | "write_compact") {
            // Their corpus differs (held-out words, writes), so their
            // answers are proved against a full scan instead; the two run
            // one schedule and must agree with each other.
            for def in &WRITE_SIDE {
                assert!(run.note(def.name).ends_with(def.unit), "{}", def.name);
            }
            mutable_digests.insert(run.note("answers_digest").to_string());
        } else {
            digests.insert(run.note("answers_digest").to_string());
        }
    }
    for digests in [digests, mutable_digests] {
        assert_eq!(
            digests.len(),
            1,
            "workloads disagree on answers: {digests:?}"
        );
    }
}

#[test]
fn traced_runs_report_every_layer_and_counts_repeat_exactly() {
    for (name, _) in WORKLOADS {
        assert_reports(&run(name, 42, true), &PER_LAYER);
    }
    let counts = |run: &Run| -> Vec<u64> {
        PER_LAYER
            .iter()
            .filter(|d| d.count)
            .map(|d| run.metric(d.name).0.to_bits())
            .collect()
    };
    let (first, again) = (run("paged_tight", 42, true), run("paged_tight", 42, true));
    assert_eq!(counts(&first), counts(&again));
    assert_eq!(first.note("answers_digest"), again.note("answers_digest"));
    // The inputs are fixed: another seed asks the same queries.
    let other = run("paged_tight", 43, true);
    assert_eq!(counts(&first), counts(&other));
    assert_eq!(first.note("answers_digest"), other.note("answers_digest"));
}

#[test]
fn span_file_parses_and_every_parent_exists() {
    let run = run("wire_loopback", 42, true);
    let note = run.note("spans");
    let (count, path) = note.split_once(" in ").expect("`spans N in FILE`");
    let text = std::fs::read_to_string(path).expect("span file");
    let spans: Vec<Value> = text
        .lines()
        .map(|l| json::parse(l).expect("span line is JSON"))
        .collect();
    assert_eq!(spans.len(), count.parse::<usize>().expect("span count"));
    let number = |s: &Value, key: &str| s.get(key).and_then(Value::as_f64).expect("number");
    let mut names = BTreeSet::new();
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(number(span, "id"), (i + 1) as f64);
        let parent = number(span, "parent");
        // Spans are logged after their parent opened; only the root has none.
        assert!(parent < number(span, "id"));
        assert_eq!(parent == 0.0, i == 0);
        assert!(number(span, "start_ns") <= number(span, "end_ns"));
        names.insert(span.get("name").and_then(Value::as_str).expect("name"));
    }
    // One span name per layer boundary the ladder crosses.
    for name in [
        "run",
        "tokenize.prepare",
        "algo.sf",
        "engine.search",
        "shard.scatter",
        "segment.search",
        "paged.search",
        "api.decode_resp",
        "server.search_rtt",
        "kernels.crc32",
        "query",
        "prepare",
        "search",
    ] {
        assert!(names.contains(name), "no `{name}` span");
    }
    // A query's `prepare` and `search` children tile their parent.
    let children: Vec<&Value> = spans
        .iter()
        .filter(|s| s.get("name").and_then(Value::as_str) == Some("prepare"))
        .collect();
    assert!(!children.is_empty());
    for child in children {
        let parent = &spans[number(child, "parent") as usize - 1];
        assert_eq!(parent.get("name").and_then(Value::as_str), Some("query"));
        assert_eq!(number(child, "start_ns"), number(parent, "start_ns"));
        assert_eq!(child.get("query"), parent.get("query"));
    }
}
