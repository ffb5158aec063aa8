//! `setsim-bench` — the machine-readable benchmark harness driver.
//!
//! ```text
//! setsim-bench harness [--scale small|medium|large] [--seed N]
//!                      [--queries N] [--warmup W] [--reps K]
//!                      [--label L] [--out FILE] [--stdout]
//! setsim-bench loadgen [--scale S] [--seed N] [--readers R] [--writers W]
//!                      [--requests N] [--mutations N] [--tau T]
//!                      [--inflight P] [--clog C] [--label L] [--out FILE]
//!                      [--stdout] [--expect-zero-shed] [--expect-shed]
//!                      [--expect-drain-clean]
//! ```
//!
//! `harness` runs the deterministic seeded workload grid of
//! [`setsim_bench::harness`] through every roster algorithm and writes
//! the versioned report as `BENCH_<label>.json` (default label: the
//! scale name). The counter sections of the report are byte-identical
//! across runs with the same `--scale`/`--seed`; the latency sections
//! and env fingerprint are machine-dependent. Compare two reports with
//! `cargo xtask bench-diff`.
//!
//! `loadgen` drives an in-process `setsim-server` over real TCP with
//! concurrent readers and writers ([`setsim_bench::loadgen`]) and writes
//! the same report schema with client-observed tail percentiles. The
//! `--expect-*` flags turn contract violations into exit code 1 — the CI
//! `serving` job runs one low-load invocation with `--expect-zero-shed
//! --expect-drain-clean` and one saturated invocation (`--inflight 1
//! --clog 2`, so shedding is deterministic rather than a scheduling
//! race) with `--expect-shed --expect-drain-clean`.

use setsim_bench::harness::{self, HarnessConfig};
use setsim_bench::loadgen::{self, LoadgenConfig};
use setsim_bench::report::Metric;
use setsim_bench::scaleout::{self, ScaleoutConfig};
use setsim_bench::Scale;

const USAGE: &str = "\
setsim-bench — machine-readable benchmark harness

USAGE:
  setsim-bench harness [OPTIONS]
  setsim-bench loadgen [OPTIONS]
  setsim-bench scaleout [OPTIONS]

HARNESS OPTIONS:
  --scale small|medium|large   corpus scale (default small)
  --seed N                     master seed (default 42)
  --queries N                  queries per workload (default per scale)
  --warmup W                   untimed passes per cell (default 1)
  --reps K                     timed passes per cell (default 3)
  --label L                    report label (default: scale name)
  --out FILE                   output path (default BENCH_<label>.json)
  --stdout                     print the JSON instead of writing a file

LOADGEN OPTIONS:
  --scale small|medium|large   corpus scale served (default small)
  --seed N                     corpus/workload seed (default 42)
  --readers R                  concurrent search connections (default 4)
  --writers W                  concurrent mutation connections (default 1)
  --requests N                 searches per reader (default 50)
  --mutations N                mutations per writer (default 20)
  --tau T                      selection threshold (default 0.8)
  --inflight P                 server admission permits (default 8)
  --clog C                     permit-holding clog connections (default 0);
                               2 clogs + --inflight 1 = guaranteed shed
  --label L                    report label (default loadgen)
  --out FILE                   output path (default BENCH_<label>.json)
  --stdout                     print the JSON instead of writing a file
  --expect-zero-shed           exit 1 if any request was shed
  --expect-shed                exit 1 if no request was shed (saturation)
  --expect-drain-clean         exit 1 on transport errors or drain loss

SCALEOUT OPTIONS:
  --records N                  corpus records (default 10000000)
  --shards S                   length-banded shards (default 32)
  --seed N                     master seed (default 42)
  --queries Q                  queries per tau cell (default 64)
  --taus T1,T2,..              threshold grid (default 0.5,0.8,0.95)
  --dir DIR                    sharded-snapshot cache directory: reopened
                               when present, written after a fresh build
  --equivalence N              every kind, sharded and unsharded, against
                               the unsharded scan, bit for bit, over the
                               first N records (default 20000; 0 skips)
  --label L                    report label (default scaleout)
  --out FILE                   output path (default BENCH_<label>.json)
  --stdout                     print the JSON instead of writing a file
  --expect-majority-pruned     exit 1 unless tau=0.8 prunes > 50% of
                               (query, shard) visits whole
";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("harness") => run_harness(&args[1..]),
        Some("loadgen") => run_loadgen(&args[1..]),
        Some("scaleout") => run_scaleout(&args[1..]),
        Some("-h" | "--help") => println!("{USAGE}"),
        Some(other) => fail(&format!("unknown subcommand '{other}'")),
        None => fail("missing subcommand"),
    }
}

fn run_harness(args: &[String]) {
    let mut config = HarnessConfig::new(Scale::Small, 42);
    let mut out_path: Option<String> = None;
    let mut to_stdout = false;
    let mut label_set = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{name} requires a value")))
        };
        match a.as_str() {
            "--scale" => {
                let v = value("--scale");
                let scale = Scale::parse(&v).unwrap_or_else(|| {
                    fail(&format!("unknown scale {v:?}; use small|medium|large"))
                });
                let seed = config.seed;
                let keep_label = label_set.then(|| config.label.clone());
                config = HarnessConfig::new(scale, seed);
                if let Some(l) = keep_label {
                    config.label = l;
                }
            }
            "--seed" => config.seed = parse_num(&value("--seed"), "--seed"),
            "--queries" => config.queries = parse_num(&value("--queries"), "--queries"),
            "--warmup" => config.warmup = parse_num(&value("--warmup"), "--warmup"),
            "--reps" => {
                config.reps = parse_num(&value("--reps"), "--reps");
                if config.reps == 0 {
                    fail("--reps must be at least 1");
                }
            }
            "--label" => {
                config.label = value("--label");
                label_set = true;
            }
            "--out" => out_path = Some(value("--out")),
            "--stdout" => to_stdout = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown option {other:?}")),
        }
    }

    eprintln!(
        "harness: scale={} seed={} queries/workload={} warmup={} reps={}",
        Scale::name(config.scale),
        config.seed,
        config.queries,
        config.warmup,
        config.reps
    );
    let report = harness::run(&config);
    let json = report.to_json_string();
    if to_stdout {
        print!("{json}");
    } else {
        let path = out_path.unwrap_or_else(|| format!("BENCH_{}.json", config.label));
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    // Terse human summary on stderr: min-of-k ms/query per cell.
    for w in &report.workloads {
        eprintln!("  workload {}", w.label);
        for a in &w.algos {
            eprintln!(
                "    {:10} min {:>9.3} ms/q  median {:>9.3} ±{:.3}  pruning {:>5.1}%",
                a.name,
                a.latency.min_ms_per_query,
                a.latency.median_ms_per_query,
                a.latency.mad_ms_per_query,
                Metric::PruningPct.of(a),
            );
        }
    }
}

#[allow(clippy::too_many_lines)] // flag loop + assertions are one linear script
fn run_loadgen(args: &[String]) {
    let mut config = LoadgenConfig::default();
    let mut out_path: Option<String> = None;
    let mut to_stdout = false;
    let (mut expect_zero_shed, mut expect_shed, mut expect_drain_clean) = (false, false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{name} requires a value")))
        };
        match a.as_str() {
            "--scale" => {
                let v = value("--scale");
                config.scale = Scale::parse(&v).unwrap_or_else(|| {
                    fail(&format!("unknown scale '{v}'; use small|medium|large"))
                });
            }
            "--seed" => config.seed = parse_num(&value("--seed"), "--seed"),
            "--readers" => config.readers = parse_num(&value("--readers"), "--readers"),
            "--writers" => config.writers = parse_num(&value("--writers"), "--writers"),
            "--requests" => config.requests = parse_num(&value("--requests"), "--requests"),
            "--mutations" => config.mutations = parse_num(&value("--mutations"), "--mutations"),
            "--tau" => config.tau = parse_num(&value("--tau"), "--tau"),
            "--inflight" => config.inflight = parse_num(&value("--inflight"), "--inflight"),
            "--clog" => config.clog = parse_num(&value("--clog"), "--clog"),
            "--label" => config.label = value("--label"),
            "--out" => out_path = Some(value("--out")),
            "--stdout" => to_stdout = true,
            "--expect-zero-shed" => expect_zero_shed = true,
            "--expect-shed" => expect_shed = true,
            "--expect-drain-clean" => expect_drain_clean = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown option '{other}'")),
        }
    }

    eprintln!(
        "loadgen: scale={} seed={} readers={} writers={} clogs={} requests/reader={} mutations/writer={} tau={} inflight={}",
        Scale::name(config.scale),
        config.seed,
        config.readers,
        config.writers,
        config.clog,
        config.requests,
        config.mutations,
        config.tau,
        config.inflight
    );
    let outcome = loadgen::run(&config).unwrap_or_else(|e| {
        eprintln!("loadgen failed: {e}");
        std::process::exit(1);
    });
    let json = outcome.report.to_json_string();
    if to_stdout {
        print!("{json}");
    } else {
        let path = out_path.unwrap_or_else(|| format!("BENCH_{}.json", config.label));
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    let lat = &outcome.report.workloads[0].algos[0].latency;
    let tail = lat.tail.expect("loadgen reports carry tail percentiles");
    eprintln!(
        "  {} ok, {} overloaded, {} transport error(s), {} mutation(s) applied",
        outcome.ok, outcome.overloaded, outcome.transport_errors, outcome.mutations_applied
    );
    eprintln!(
        "  latency ms/request: p50 {:.3}  p95 {:.3}  p99 {:.3}  (min {:.3}, {} samples)",
        tail.p50_ms, tail.p95_ms, tail.p99_ms, lat.min_ms_per_query, lat.reps
    );
    eprintln!(
        "  server: {} served, {} shed; drain: {} served, {} shed, {} connection(s)",
        outcome.server.queries,
        outcome.server.shed,
        outcome.drain.served,
        outcome.drain.shed,
        outcome.drain.accepted_connections
    );

    let mut failed = false;
    if expect_zero_shed && (outcome.overloaded > 0 || outcome.drain.shed > 0) {
        eprintln!(
            "FAIL --expect-zero-shed: {} client overload(s), {} server shed(s)",
            outcome.overloaded, outcome.drain.shed
        );
        failed = true;
    }
    if expect_shed && outcome.overloaded == 0 {
        eprintln!("FAIL --expect-shed: saturation produced no typed Overloaded refusal");
        failed = true;
    }
    if expect_drain_clean {
        // Clean drain: no transport-level failures (every request got a
        // typed response on an intact connection) and the server-side
        // shed count matches the typed refusals clients saw — nothing
        // was dropped silently.
        if outcome.transport_errors > 0 {
            eprintln!(
                "FAIL --expect-drain-clean: {} transport error(s)",
                outcome.transport_errors
            );
            failed = true;
        }
        if outcome.drain.shed != outcome.overloaded {
            eprintln!(
                "FAIL --expect-drain-clean: server shed {} but clients saw {} typed refusal(s)",
                outcome.drain.shed, outcome.overloaded
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn run_scaleout(args: &[String]) {
    let mut config = ScaleoutConfig::default();
    let mut out_path: Option<String> = None;
    let mut to_stdout = false;
    let mut expect_majority = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{name} requires a value")))
        };
        match a.as_str() {
            "--records" => config.records = parse_num(&value("--records"), "--records"),
            "--shards" => config.shards = parse_num(&value("--shards"), "--shards"),
            "--seed" => config.seed = parse_num(&value("--seed"), "--seed"),
            "--queries" => config.queries = parse_num(&value("--queries"), "--queries"),
            "--taus" => {
                config.taus = value("--taus")
                    .split(',')
                    .map(|t| parse_num(t, "--taus"))
                    .collect();
                if config.taus.is_empty() {
                    fail("--taus needs at least one threshold");
                }
            }
            "--dir" => config.dir = Some(value("--dir").into()),
            "--equivalence" => {
                config.equivalence_records = parse_num(&value("--equivalence"), "--equivalence");
            }
            "--label" => config.label = value("--label"),
            "--out" => out_path = Some(value("--out")),
            "--stdout" => to_stdout = true,
            "--expect-majority-pruned" => expect_majority = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown option {other:?}")),
        }
    }
    if config.records == 0 || config.shards == 0 {
        fail("--records and --shards must be at least 1");
    }

    eprintln!(
        "scaleout: records={} shards={} seed={} queries/tau={} taus={:?} equivalence={}",
        config.records,
        config.shards,
        config.seed,
        config.queries,
        config.taus,
        config.equivalence_records
    );
    let outcome = scaleout::run(&config).unwrap_or_else(|e| {
        eprintln!("scaleout failed: {e}");
        std::process::exit(1);
    });
    let json = outcome.report.to_json_string();
    if to_stdout {
        print!("{json}");
    } else {
        let path = out_path.unwrap_or_else(|| format!("BENCH_{}.json", config.label));
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    eprintln!(
        "  index: {} record(s) in {} shard(s){}{}",
        outcome.num_records,
        outcome.num_shards,
        if outcome.opened_from_cache {
            " (reopened from cache)"
        } else {
            " (built fresh)"
        },
        if outcome.equivalence_checked {
            ", equivalence prefix OK"
        } else {
            ""
        }
    );
    for (tau, fraction) in &outcome.pruned_fraction {
        eprintln!(
            "  tau={tau}: {:.1}% of (query, shard) visits pruned whole",
            100.0 * fraction
        );
    }
    print_placements(&outcome);

    if expect_majority {
        let at_08 = outcome
            .pruned_fraction
            .iter()
            .find(|(t, _)| (*t - 0.8).abs() < 1e-9);
        match at_08 {
            Some((_, fraction)) if *fraction > 0.5 => {}
            Some((_, fraction)) => {
                eprintln!(
                    "FAIL --expect-majority-pruned: tau=0.8 pruned only {:.1}% of shard visits",
                    100.0 * fraction
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("FAIL --expect-majority-pruned: tau=0.8 not in --taus grid");
                std::process::exit(1);
            }
        }
    }
}

/// Per τ: served latency, forced inline vs scatter time over all queries
/// and how many queries the scatter ran faster; then the inline-vs-scatter
/// table by surviving mass.
fn print_placements(outcome: &scaleout::ScaleoutOutcome) {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    for ((tau, ps), w) in outcome.placements.iter().zip(&outcome.report.workloads) {
        let served_us = w.algos[0].latency.median_ms_per_query * 1e3;
        let inline: Vec<f64> = ps.iter().map(|p| p.inline_us).collect();
        let scatter: Vec<f64> = ps.iter().map(|p| p.scatter_us).collect();
        let faster = ps.iter().filter(|p| p.scatter_us < p.inline_us).count();
        eprintln!(
            "  tau={tau}: served {served_us:.1} us/query; forced inline {:.1} vs scatter \
             {:.1} us; scatter faster on {faster}/{}",
            mean(&inline),
            mean(&scatter),
            ps.len(),
        );
    }
    let all: Vec<_> = outcome
        .placements
        .iter()
        .flat_map(|(_, ps)| ps.iter().copied())
        .collect();
    eprintln!(
        "  inline vs scatter by surviving mass (median of best-of-{} us, every tau):",
        scaleout::PLACEMENT_REPS
    );
    for row in scaleout::crossover(&all) {
        eprintln!(
            "    mass >= {:>9}: {:>4} queries, inline {:>9.1}, scatter {:>9.1}",
            row.lo, row.queries, row.inline_us, row.scatter_us
        );
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("{flag} expects a number, got '{s}'")))
}
