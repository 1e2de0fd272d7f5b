//! Turns measurements into named metrics and prints the two result lines:
//! the full `perfbench/1` record (run conditions, every metric with its
//! sample count and statistic, failures) and, last, the summary line of
//! the metrics `BENCHMARK.json` lists.

use crate::layers::TracedRun;
use crate::stats;
use crate::workloads::Measured;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports (`BENCHMARK.json`
/// `end_to_end`, in order).
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "entries_per_s",
    "op_p50_ms",
    "peak_rss_mib",
];

/// Per-layer metrics every workload's traced run reports
/// (`BENCHMARK.json` `per_layer`, in order). Layers a workload bypasses
/// report their metrics in the full record only.
pub const PER_LAYER: [&str; 17] = [
    "jir.parse_ms",
    "jir.parse_mb_per_s",
    "resolve.hierarchy_ms",
    "resolve.callgraph_ms",
    "resolve.reachable",
    "engine.analyze_ms",
    "engine.fixpoint_cpu_ms",
    "engine.self_ms",
    "engine.parallel_efficiency",
    "engine.frames",
    "engine.memo_hit_ratio",
    "engine.steals",
    "engine.batches_formed",
    "engine.writeback_flushes",
    "core.report_bytes",
    "cli.spawn_ms",
    "trace.overhead_ratio",
];

pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub samples: usize,
    pub stat: String,
}

fn metric(value: f64, unit: &str, samples: usize, stat: &str) -> Metric {
    Metric {
        value,
        unit: unit.to_owned(),
        samples,
        stat: stat.to_owned(),
    }
}

/// The end-to-end metrics of one run: the five every workload reports,
/// then each op kind's median and (where at least ten samples lie beyond
/// it) tail latency, named `<kind>_p<N>_<unit>`, and `fail_ratio`.
pub fn end_to_end(m: &Measured) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    let ops = m.ops();
    out.insert(
        "setup_s".into(),
        metric(
            stats::median(&m.setup_s),
            "s",
            m.setup_s.len(),
            "p50 of set-up runs",
        ),
    );
    // Every round holds the same mix, so a round's wall time prices the
    // whole mix; the median round resists a burst of outside load.
    let rounds = m.round_s.len();
    let ops_per_s = m.clients as f64 * (ops as f64 / rounds as f64) / stats::median(&m.round_s);
    out.insert(
        "ops_per_s".into(),
        metric(
            ops_per_s,
            "1/s",
            rounds,
            "clients x ops per round / p50 round time",
        ),
    );
    out.insert(
        "entries_per_s".into(),
        metric(
            ops_per_s * m.entries as f64 / ops as f64,
            "1/s",
            rounds,
            "ops_per_s x entry points reported or compared per op",
        ),
    );
    let medians: Vec<f64> = m.samples.values().map(|v| stats::median(v)).collect();
    out.insert(
        "op_p50_ms".into(),
        metric(
            stats::geomean(&medians),
            "ms",
            ops,
            "geometric mean of the per-kind p50s",
        ),
    );
    out.insert(
        "peak_rss_mib".into(),
        metric(
            m.peak_rss_kib as f64 / 1024.0,
            "MiB",
            ops,
            "max over spo children / daemon",
        ),
    );
    for (kind, v) in &m.samples {
        let (scale, unit, tail) = if *kind == "query" {
            (1e3, "us", 99.0)
        } else {
            (1.0, "ms", 90.0)
        };
        let scaled: Vec<f64> = v.iter().map(|x| x * scale).collect();
        out.insert(
            format!("{kind}_p50_{unit}"),
            metric(stats::median(&scaled), unit, v.len(), "p50"),
        );
        if let Some(t) = stats::tail(&scaled, tail) {
            out.insert(
                format!("{kind}_p{tail}_{unit}"),
                metric(t, unit, v.len(), &format!("p{tail}")),
            );
        }
    }
    out.insert(
        "fail_ratio".into(),
        metric(
            m.tally.failed as f64 / m.tally.attempted.max(1) as f64,
            "ratio",
            m.tally.attempted as usize,
            "failed ops / ops_total",
        ),
    );
    out
}

pub fn per_layer(t: &TracedRun) -> BTreeMap<String, Metric> {
    t.layers
        .iter()
        .map(|(k, l)| (k.clone(), metric(l.value, l.unit, l.samples, l.stat)))
        .collect()
}

/// A JSON number, or `null` for a non-finite value.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", spo_obs::json::escape(s))
}

/// `{"name":{"value":…,"unit":…[,"samples":…,"stat":…]},…}` over `names`.
pub fn metrics_json<'a>(
    metrics: &BTreeMap<String, Metric>,
    names: impl IntoIterator<Item = &'a str>,
    full: bool,
) -> String {
    let mut out = String::from("{");
    for (i, name) in names.into_iter().enumerate() {
        let m = &metrics[name];
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}",
            json_str(name),
            num(m.value),
            json_str(&m.unit)
        )
        .unwrap();
        if full {
            write!(
                out,
                ",\"samples\":{},\"stat\":{}",
                m.samples,
                json_str(&m.stat)
            )
            .unwrap();
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The full record of one run.
pub struct Record<'a> {
    pub conditions: &'a [(&'static str, String)],
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: &'a [String],
    pub metrics: &'a BTreeMap<String, Metric>,
    pub extra: &'a [(&'static str, String)],
}

impl Record<'_> {
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"perfbench/1\"");
        for (k, v) in self.conditions {
            write!(out, ",\"{k}\":{v}").unwrap();
        }
        write!(
            out,
            ",\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}]",
            self.correct,
            self.attempted,
            self.failed,
            self.failures
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(",")
        )
        .unwrap();
        write!(
            out,
            ",\"metrics\":{}",
            metrics_json(self.metrics, self.metrics.keys().map(String::as_str), true)
        )
        .unwrap();
        for (k, v) in self.extra {
            write!(out, ",\"{k}\":{v}").unwrap();
        }
        out.push('}');
        out
    }

    /// The last line: exactly the keys the benchmark contract names.
    pub fn summary(&self, names: &[&str]) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(self.metrics, names.iter().copied(), false)
        )
    }
}

/// `{"k":v,…}` of a name → number map.
pub fn map_json(m: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), num(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists compiled in here are the ones `BENCHMARK.json`
    /// declares, so the summary line always carries exactly those.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = spo_obs::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s".to_owned(), metric(0.8127, "s", 3, "p50"));
        metrics.insert("extra".to_owned(), metric(1.0, "ms", 1, "p50"));
        let rec = Record {
            conditions: &[],
            correct: true,
            attempted: 10,
            failed: 0,
            failures: &[],
            metrics: &metrics,
            extra: &[],
        };
        let line = rec.summary(&["setup_s"]);
        let v = spo_obs::json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.matches("\"value\"").count(), 1, "{line}");
        assert!(line.contains("0.8127"));
    }
}
