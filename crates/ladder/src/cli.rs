//! Command line of `setsim-ladder`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — what the driver
//!   runs: one workload in this process. Prints every metric as
//!   `workload/metric value unit` and, last, the result line. The inputs
//!   are the same on every run; `--seed` is accepted and not used.
//! * `run` — every workload, one child process after another, nothing
//!   concurrent, untraced then traced.
//! * `repeat` — the whole benchmark several times; min / median / max
//!   and spread of every end-to-end metric, held to its bound.
//! * `reference` — internal: the child that answers the stream with the
//!   heap engine and writes the snapshot, so that a workload's peak RSS
//!   is its own.

use crate::check;
use crate::inputs::{self, Inputs, Scale};
use crate::json::{self, Value};
use crate::ladder;
use crate::measure::{self, median, quartile_spread, PassPlan};
use crate::metrics::{MetricDef, Report, END_TO_END, PER_LAYER, WRITE_SIDE};
use crate::workloads::{self, Ctx, EndToEnd, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  setsim-ladder --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--min-passes P]
                [--scale full|tiny]
  setsim-ladder run    [--seconds S] [--min-passes P] [--scale S] [--workload NAME] [--no-trace]
  setsim-ladder repeat [--sets K] [--seconds S] [--min-passes P] [--scale S] [--workload NAME]
                       [--no-trace]";

/// Seconds of timed passes per workload when `--seconds` is absent; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 10.0;

/// Timed passes a workload runs at least when `--min-passes` is absent;
/// the value `BENCHMARK.json`'s command passes.
pub const MIN_PASSES: usize = 3;

/// Parsed flags: `--name value`, or `--name` alone for the switches.
struct Flags(BTreeMap<String, String>);

const SWITCHES: [&str; 2] = ["--snapshot", "--no-trace"];
const VALUED: [&str; 8] = [
    "--workload",
    "--seed",
    "--seconds",
    "--min-passes",
    "--trace",
    "--scale",
    "--sets",
    "--out",
];

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = if SWITCHES.contains(&flag.as_str()) {
                String::new()
            } else if !VALUED.contains(&flag.as_str()) {
                return Err(format!("unexpected argument `{flag}`\n{USAGE}"));
            } else {
                it.next()
                    .ok_or_else(|| format!("`{flag}` needs a value"))?
                    .clone()
            };
            map.insert(flag.clone(), value);
        }
        Ok(Self(map))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.0.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value `{v}` for `{flag}`")),
        }
    }

    /// `--seconds`: how long to keep timing passes. A NaN here would never
    /// compare as elapsed.
    fn seconds(&self) -> Result<f64, String> {
        let seconds = self.get("--seconds", RUN_SECONDS)?;
        if (0.0..=3600.0).contains(&seconds) {
            Ok(seconds)
        } else {
            Err(format!("--seconds takes 0 to 3600, not {seconds}"))
        }
    }

    fn scale(&self) -> Result<Scale, String> {
        let name = self.get("--scale", "full".to_string())?;
        Scale::parse(&name).ok_or_else(|| format!("unknown scale `{name}`"))
    }

    /// Fewest timed passes behind any per-operation median.
    fn min_passes(&self) -> Result<usize, String> {
        match self.get("--min-passes", MIN_PASSES)? {
            0 => Err("--min-passes takes at least 1".to_string()),
            passes => Ok(passes),
        }
    }

    /// The workloads to run: the one named, or all seven.
    fn workloads(&self) -> Result<Vec<&'static str>, String> {
        match self.0.get("--workload") {
            None => Ok(WORKLOADS.iter().map(|(name, _)| *name).collect()),
            Some(name) => WORKLOADS
                .iter()
                .find(|(known, _)| known == name)
                .map(|(known, _)| vec![*known])
                .ok_or_else(|| format!("unknown workload `{name}`")),
        }
    }
}

/// Entry point of the binary.
#[must_use]
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run(&f)),
        Some("repeat") => Flags::parse(&args[1..]).and_then(|f| repeat(&f)),
        Some("reference") => Flags::parse(&args[1..]).and_then(|f| reference(&f)),
        Some(flag) if flag.starts_with("--") => Flags::parse(&args).and_then(|f| workload(&f)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("setsim-ladder: {e}");
            ExitCode::from(2)
        }
    }
}

/// `<target dir>/ladder`: where span files and temporary snapshots go.
/// The executable sits in `<target dir>/<profile>/`, so this stays inside
/// the checkout wherever `CARGO_TARGET_DIR` points within it.
fn output_dir(exe: &Path) -> Result<PathBuf, String> {
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} has no target directory", exe.display()))?
        .join("ladder");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A directory private to this process, removed when it exits.
struct TmpDir(PathBuf);

impl TmpDir {
    fn create(parent: &Path) -> Result<Self, String> {
        let dir = parent.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One workload in this process.
fn workload(flags: &Flags) -> Result<bool, String> {
    let names = flags.workloads()?;
    let [name] = names[..] else {
        return Err(USAGE.to_string());
    };
    let scale = flags.scale()?;
    // The driver passes a seed; the inputs do not depend on it.
    let seed = flags.get::<u64>("--seed", inputs::DATA_SEED)?;
    let seconds = flags.seconds()?;
    let trace = match flags.get("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = output_dir(&exe)?;
    let tmp = TmpDir::create(&out_dir)?;
    let inputs = Inputs::generate(scale)?;
    let cx = Ctx {
        scale,
        plan: PassPlan {
            min_passes: flags.min_passes()?,
            seconds,
        },
        inputs: &inputs,
        tmp: &tmp.0,
        exe: &exe,
    };
    let mut report = if trace {
        traced_report(&cx, name, &out_dir.join(format!("trace-{name}.jsonl")))?
    } else {
        let measured = match name {
            "heap_select" => Ok(workloads::heap_select(&cx)),
            "sharded_scatter" => workloads::sharded_scatter(&cx),
            "paged_fit" => workloads::paged(&cx, false),
            "paged_tight" => workloads::paged(&cx, true),
            "mixed_rw" => workloads::mixed_rw(&cx, false),
            "write_compact" => workloads::mixed_rw(&cx, true),
            _ => workloads::wire_loopback(&cx),
        }?;
        end_to_end_report(&cx, name, &measured)?
    };
    drop(tmp);
    report.notes.push(format!(
        "inputs data_seed={} (--seed {seed} accepted, not used)",
        inputs::DATA_SEED
    ));
    print!("{}", report.lines());
    println!("{}", report.json());
    Ok(report.failed == 0)
}

/// Digest of the answers to the prefix every workload serves, so runs of
/// different workloads can be compared.
fn answers_note(cx: &Ctx<'_>, answers: &[check::Answer]) -> String {
    let common = cx.scale.paged_queries.min(cx.scale.trace_queries);
    let prefix = &answers[..common.min(answers.len())];
    format!(
        "answers_digest {:016x} over the first {} queries",
        check::fold(prefix),
        prefix.len()
    )
}

/// Every time is reported calibrated: divided by how much slower than
/// nominal the host ran during the timed passes (see `measure::Calibrator`).
fn end_to_end_report(cx: &Ctx<'_>, name: &str, m: &EndToEnd) -> Result<Report, String> {
    let slowdown = measure::slowdown(&m.calibration);
    let values = [
        ("query_p50_us", m.lat.p50() / slowdown),
        ("query_p99_us", m.lat.p99() / slowdown),
        ("queries_per_s", m.lat.per_second() * slowdown),
        ("setup_s", m.setup_s / slowdown),
        ("peak_rss_mb", measure::peak_rss_mb()?),
    ];
    let ops = m.lat.per_op_us.len();
    let mut notes = vec![
        format!(
            "samples operations={ops} timed_passes={} beyond_p99={}",
            m.lat.passes,
            ops - (ops * 99).div_ceil(100)
        ),
        answers_note(cx, &m.answers),
        format!(
            "calibration samples={} host_slowdown={slowdown} uncalibrated_query_p50_us={}",
            m.calibration.len(),
            m.lat.p50()
        ),
        format!(
            "threads available_parallelism={}",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        ),
    ];
    let mut extra = Vec::new();
    if let Some(w) = &m.write_side {
        extra = Report::collect(
            &WRITE_SIDE,
            &[
                ("write_p50_us", w.write_p50_us / slowdown),
                ("compact_s", w.compact_s / slowdown),
            ],
        )?;
        notes.push(format!(
            "samples writes={} compactions_timed={}",
            w.writes, m.lat.passes
        ));
    }
    Ok(Report {
        workload: name.to_string(),
        attempted: m.attempted,
        failed: m.failed,
        metrics: Report::collect(&END_TO_END, &values)?,
        extra,
        notes,
    })
}

fn traced_report(cx: &Ctx<'_>, name: &str, trace_file: &Path) -> Result<Report, String> {
    let traced = ladder::run(cx, name, trace_file)?;
    Ok(Report {
        workload: name.to_string(),
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: Report::collect(&PER_LAYER, &traced.metrics)?,
        extra: Vec::new(),
        notes: vec![
            format!(
                "samples queries={} min_timed_passes={}",
                cx.scale.trace_queries, cx.plan.min_passes
            ),
            answers_note(cx, &traced.answers),
            format!("spans {} in {}", traced.spans, trace_file.display()),
        ],
    })
}

/// The reference child.
fn reference(flags: &Flags) -> Result<bool, String> {
    let inputs = Inputs::generate(flags.scale()?)?;
    let out: PathBuf = flags.get("--out", PathBuf::new())?;
    workloads::write_reference(&inputs, &out, flags.has("--snapshot"))?;
    Ok(true)
}

/// What a child workload process printed, parsed back.
struct ChildRun {
    correct: bool,
    /// Every `workload/metric value unit` line.
    values: Vec<(String, f64, String)>,
}

/// Run one workload in a child process and echo what it prints.
fn spawn_workload(name: &str, trace: bool, flags: &Flags) -> Result<ChildRun, String> {
    let scale = flags.scale()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seconds", &flags.seconds()?.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--min-passes", &flags.min_passes()?.to_string()])
        .args(["--scale", scale.name])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines
        .pop()
        .ok_or_else(|| format!("{name} printed nothing (exit {})", output.status))?;
    let result = json::parse(result).map_err(|e| format!("{name} result line: {e}"))?;
    let prefix = format!("{name}/");
    let mut values = Vec::new();
    for line in lines {
        println!("{line}");
        let mut words = line.strip_prefix(&prefix).unwrap_or("").split(' ');
        if let (Some(metric), Some(value), Some(unit), None) =
            (words.next(), words.next(), words.next(), words.next())
        {
            if let Ok(value) = value.parse::<f64>() {
                values.push((metric.to_string(), value, unit.to_string()));
            }
        }
    }
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Value::Bool(true)) && output.status.success(),
        values,
    })
}

/// Every workload once, one process after another.
fn run(flags: &Flags) -> Result<bool, String> {
    let mut correct = true;
    let mut last_traced = None;
    for name in flags.workloads()? {
        correct &= spawn_workload(name, false, flags)?.correct;
        if !flags.has("--no-trace") {
            let traced = spawn_workload(name, true, flags)?;
            correct &= traced.correct;
            last_traced = Some(traced);
        }
    }
    if let Some(traced) = last_traced {
        print!("{}", overhead_table(&traced.values));
    }
    println!("all answers correct: {correct}");
    Ok(correct)
}

/// The rung-to-rung table: each rung's per-query median and what it adds
/// to the rung below it — the reported overhead metric where there is one
/// (a median of per-query differences), else the difference of medians.
fn overhead_table(values: &[(String, f64, String)]) -> String {
    let get = |name: &str| {
        values
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    };
    // (rung, rung below, overhead metric, what the rung is)
    let rows = [
        ("algo.sf_us", "", "", "execute_into on the raw index"),
        (
            "engine.search_us",
            "algo.sf_us",
            "engine.overhead_us",
            "QueryEngine::search",
        ),
        (
            "shard.inline_us",
            "engine.search_us",
            "",
            "8 bands, searched inline",
        ),
        (
            "shard.scatter_us",
            "shard.inline_us",
            "shard.spawn_overhead_us",
            "thread scatter per query",
        ),
        (
            "segment.search_us",
            "engine.search_us",
            "segment.overhead_us",
            "pristine MutableEngine",
        ),
        (
            "segment.drifted_search_us",
            "segment.search_us",
            "",
            "after the pre-compaction writes",
        ),
        (
            "paged.search_us",
            "engine.search_us",
            "paged.overhead_us",
            "PagedEngine::search",
        ),
        (
            "server.search_rtt_us",
            "segment.search_us",
            "",
            "loopback round trip, text in",
        ),
    ];
    let mut out = String::from("rung-to-rung overhead (per-query medians, us)\n");
    for (rung, below, metric, what) in rows {
        let adds = match (below, metric) {
            ("", _) => String::new(),
            (_, "") => format!("{:+.2} over {below}", get(rung) - get(below)),
            _ => format!("{:+.2} over {below}", get(metric)),
        };
        let _ = writeln!(out, "  {rung:<26} {:>9.2}  {adds:<36} {what}", get(rung));
    }
    out
}

/// The whole benchmark `--sets` times: the proof that it is not noisy.
fn repeat(flags: &Flags) -> Result<bool, String> {
    let sets: u64 = flags.get("--sets", 5)?;
    let names = flags.workloads()?;
    // (workload, metric) -> (definition, one value per set)
    let mut series: BTreeMap<(usize, String), (MetricDef, Vec<f64>)> = BTreeMap::new();
    let mut ok = true;
    for _ in 0..sets {
        for (w, name) in names.iter().enumerate() {
            let mut runs = vec![spawn_workload(name, false, flags)?];
            if !flags.has("--no-trace") {
                runs.push(spawn_workload(name, true, flags)?);
            }
            for run in runs {
                ok &= run.correct;
                for (metric, value, _) in run.values {
                    let known = END_TO_END.iter().chain(&WRITE_SIDE).chain(&PER_LAYER);
                    if let Some(def) = known.into_iter().find(|d| d.name == metric) {
                        let entry = series.entry((w, metric)).or_insert((*def, Vec::new()));
                        entry.1.push(value);
                    }
                }
            }
        }
    }
    println!("\n{sets} sets: min / median / max, spread = quartile distance / median");
    for ((w, metric), (def, values)) in &series {
        let name = names[*w];
        if def.bound > 0.0 {
            let spread = quartile_spread(values);
            let within = spread <= def.bound;
            ok &= within;
            println!(
                "{name}/{metric} {:.4} / {:.4} / {:.4} {} spread {:.2}% (bound {:.0}%){}",
                values.iter().copied().fold(f64::INFINITY, f64::min),
                median(&mut values.clone()),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                def.unit,
                100.0 * spread,
                100.0 * def.bound,
                if within { "" } else { "  EXCEEDS ITS BOUND" }
            );
        } else if def.count {
            let identical = values.iter().all(|v| v.to_bits() == values[0].to_bits());
            ok &= identical;
            if !identical {
                println!("{name}/{metric} is a count but did not repeat exactly: {values:?}");
            }
        }
    }
    println!("repeat: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        Flags::parse(&args)
    }

    #[test]
    fn flags_from_outside_are_checked() {
        assert!(flags(&["--sed", "5"]).is_err());
        assert!(flags(&["--seed"]).is_err());
        assert!(flags(&["stray"]).is_err());
        for bad in ["NaN", "-1", "inf"] {
            assert!(flags(&["--seconds", bad]).unwrap().seconds().is_err());
        }
        assert_eq!(flags(&["--seconds", "0"]).unwrap().seconds(), Ok(0.0));
        assert_eq!(flags(&[]).unwrap().seconds(), Ok(RUN_SECONDS));
        assert!(flags(&["--workload", "nope"]).unwrap().workloads().is_err());
        assert_eq!(flags(&[]).unwrap().workloads().unwrap().len(), 7);
        assert!(flags(&["--min-passes", "0"]).unwrap().min_passes().is_err());
        assert_eq!(flags(&[]).unwrap().min_passes(), Ok(MIN_PASSES));
        assert!(flags(&["--no-trace", "--seed", "7"])
            .unwrap()
            .has("--no-trace"));
    }
}
