//! The metric names, units and directions this benchmark reports — the
//! same lists `BENCHMARK.json` declares (the smoke test compares them) —
//! and the two output forms: `workload/metric value unit` lines for
//! people, one JSON object on the last line for the driver.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as it appears in `BENCHMARK.json` and in the output.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// A count made by the program: it must repeat exactly for one seed.
    pub count: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// zero for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        count: false,
        bound: 0.0,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        count: false,
        bound: 0.0,
    }
}

const fn bounded(def: MetricDef, bound: f64) -> MetricDef {
    MetricDef { bound, ..def }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        count: true,
        bound: 0.0,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    bounded(timing("query_p50_us", "us"), 0.15),
    bounded(timing("query_p99_us", "us"), 0.15),
    bounded(rate("queries_per_s", "1/s"), 0.15),
    bounded(timing("setup_s", "s"), 0.15),
    bounded(timing("peak_rss_mb", "MB"), 0.05),
];

/// The write side of the `mixed_rw` schedule under ISSUE 12's names,
/// printed by `mixed_rw` and `write_compact` beside the end-to-end metrics
/// and held to a bound by `repeat`. The driver's result line cannot carry
/// them (it requires every workload to report every end-to-end metric, and
/// five have no writes), so `write_compact` gates them as its
/// `query_p50_us` and, through the compaction's share of the time, its
/// `queries_per_s`.
pub const WRITE_SIDE: [MetricDef; 2] = [
    bounded(timing("write_p50_us", "us"), 0.10),
    bounded(timing("compact_s", "s"), 0.15),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [MetricDef; 58] = [
    timing("tokenize.prepare_us", "us"),
    timing("kernels.gallop_seek_ns", "ns"),
    timing("kernels.intersect_gallop_ns_per_elem", "ns"),
    timing("kernels.intersect_linear_ns_per_elem", "ns"),
    rate("kernels.crc32_gb_s", "GB/s"),
    timing("algo.sf_us", "us"),
    timing("algo.inra_us", "us"),
    timing("algo.hybrid_us", "us"),
    count("algo.elements_read", "count", "lower"),
    count("algo.elements_skipped", "count", "higher"),
    count("algo.candidates_inserted", "count", "lower"),
    count("algo.pruning_pct", "%", "higher"),
    timing("engine.search_us", "us"),
    timing("engine.overhead_us", "us"),
    rate("engine.batch_qps", "1/s"),
    timing("segment.search_us", "us"),
    timing("segment.overhead_us", "us"),
    timing("segment.drifted_search_us", "us"),
    count("segment.records_scanned", "count", "lower"),
    timing("segment.insert_us", "us"),
    timing("segment.delete_us", "us"),
    timing("segment.upsert_us", "us"),
    timing("segment.compact_s", "s"),
    timing("shard.inline_us", "us"),
    timing("shard.scatter_us", "us"),
    timing("shard.spawn_overhead_us", "us"),
    count("shard.shards_pruned_share", "share", "higher"),
    count("shard.surviving_per_query", "count", "lower"),
    timing("paged.search_us", "us"),
    timing("paged.overhead_us", "us"),
    count("paged.pages_touched_per_query", "count", "lower"),
    count("paged.pool_misses_per_query", "count", "lower"),
    count("paged.pool_hit_ratio", "share", "higher"),
    timing("storage.page_hit_us", "us"),
    timing("storage.page_miss_us", "us"),
    timing("storage.open_paged_s", "s"),
    timing("storage.snapshot_load_s", "s"),
    timing("storage.snapshot_save_s", "s"),
    count("storage.snapshot_bytes", "bytes", "lower"),
    count("storage.bytes_per_posting", "bytes", "lower"),
    timing("api.encode_req_us", "us"),
    timing("api.decode_req_us", "us"),
    timing("api.encode_resp_us", "us"),
    timing("api.decode_resp_us", "us"),
    count("api.resp_bytes_p50", "bytes", "lower"),
    timing("server.search_rtt_us", "us"),
    timing("server.ping_rtt_us", "us"),
    timing("server.socket_overhead_us", "us"),
    count("server.shed", "count", "lower"),
    timing("setup.collection_build_s", "s"),
    timing("setup.index_build_s", "s"),
    timing("setup.shard_build_s", "s"),
    timing("setup.mutable_build_s", "s"),
    timing("setup.server_spawn_ms", "ms"),
    timing("class.selective_p50_us", "us"),
    timing("class.permissive_p50_us", "us"),
    timing("class.dirty_p50_us", "us"),
    timing("trace.overhead_pct", "%"),
];

/// What one workload process reports.
pub(crate) struct Report {
    pub(crate) workload: String,
    /// Operations attempted, and how many of them failed.
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// The metrics of the driver's result line, in declaration order.
    pub(crate) metrics: Vec<(MetricDef, f64)>,
    /// Further `workload/name value unit` lines (write side, samples).
    pub(crate) extra: Vec<(MetricDef, f64)>,
    /// Free-form lines: sample counts, pass counts, digests.
    pub(crate) notes: Vec<String>,
}

impl Report {
    /// Pair `defs` with `values` by name; every metric must be present
    /// and finite.
    pub(crate) fn collect(
        defs: &[MetricDef],
        values: &[(&'static str, f64)],
    ) -> Result<Vec<(MetricDef, f64)>, String> {
        defs.iter()
            .map(
                |def| match values.iter().find(|(name, _)| *name == def.name) {
                    Some((_, v)) if v.is_finite() => Ok((*def, *v)),
                    Some((_, v)) => Err(format!("metric {} is {v}", def.name)),
                    None => Err(format!("metric {} was not measured", def.name)),
                },
            )
            .collect()
    }

    /// The human-readable form.
    pub(crate) fn lines(&self) -> String {
        let mut out = String::new();
        for (def, value) in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(out, "{}/{} {value} {}", self.workload, def.name, def.unit);
        }
        for note in &self.notes {
            let _ = writeln!(out, "{}/{note}", self.workload);
        }
        let _ = writeln!(
            out,
            "{}/operations attempted={} failed={}",
            self.workload, self.attempted, self.failed
        );
        out
    }

    /// The driver's result line.
    pub(crate) fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&WRITE_SIDE).chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(&def.better));
        }
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let report = Report {
            workload: "heap_select".into(),
            attempted: 10,
            failed: 0,
            metrics: Report::collect(
                &END_TO_END[..2],
                &[("query_p99_us", 2.5), ("query_p50_us", 1.25)],
            )
            .unwrap(),
            extra: vec![],
            notes: vec![],
        };
        let v = json::parse(&report.json()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = v
            .get("metrics")
            .and_then(|m| m.get("query_p50_us"))
            .unwrap();
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(1.25));
        assert!(Report::collect(&END_TO_END, &[("query_p50_us", 1.0)]).is_err());
        assert!(Report::collect(&END_TO_END[..1], &[("query_p50_us", f64::NAN)]).is_err());
    }
}
