//! Report-only comparison of two result sets (directories of
//! `perfbench/1` records, as `--out` writes them): per workload and
//! metric, each side's median and quartiles, and whether the change of
//! the median lies outside the metric's bound from `BENCHMARK.json`
//! (the one of the tree the benchmark was built from). It also flags a
//! workload whose host steal time differs between the sides, because
//! then a change of the timings may come from the host, not the program.
//! It never fails a build; it prints.

use crate::stats;
use spo_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// `(workload, trace) → metric → (unit, values)`.
type Sets = BTreeMap<(String, u64), BTreeMap<String, (String, Vec<f64>)>>;

fn load(dir: &Path) -> Result<Sets, String> {
    let mut sets = Sets::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(doc) = json::parse(text.trim()) else {
            continue;
        };
        if doc.get("schema").and_then(Value::as_str) != Some("perfbench/1") {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned();
        let trace = doc.get("trace").and_then(Value::as_u64).unwrap_or(0);
        let metrics = sets.entry((workload, trace)).or_default();
        if let Some(steal) = number(doc.get(STEAL)) {
            metrics
                .entry(STEAL.to_owned())
                .or_insert_with(|| ("ratio".to_owned(), Vec::new()))
                .1
                .push(steal);
        }
        for (name, m) in doc
            .get("metrics")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            let Some(value) = number(m.get("value")) else {
                continue;
            };
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned();
            metrics
                .entry(name.clone())
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
    Ok(sets)
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::UInt(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The run condition that tells host drift from a change of the program.
const STEAL: &str = "host_steal_ratio";

/// A difference of the steal medians (as a share of CPU time) beyond
/// which a workload's comparison is flagged.
const STEAL_DRIFT: f64 = 0.02;

/// `name → (bound, lower_is_better)` from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let doc = json::parse(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let name = m.get("name").and_then(Value::as_str).unwrap_or_default();
        let Some(bound) = number(m.get("bound")) else {
            continue;
        };
        let lower = m.get("better").and_then(Value::as_str) == Some("lower");
        out.insert(name.to_owned(), (bound, lower));
    }
    Ok(out)
}

/// How side B's median moved against side A's, judged by the bound.
pub fn verdict(a: f64, b: f64, bound: Option<(f64, bool)>) -> &'static str {
    let Some((bound, lower_is_better)) = bound else {
        return "no bound";
    };
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    let worse = if lower_is_better { change } else { -change };
    if worse > bound {
        "WORSE beyond bound"
    } else if -worse > bound {
        "better beyond bound"
    } else {
        "within bound"
    }
}

fn summary(values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    format!(
        "{:.4} [{:.4}, {:.4}] n={}",
        stats::median(values),
        q1,
        q3,
        values.len()
    )
}

pub fn run(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: compare DIR_A DIR_B".to_owned());
    };
    let bounds = bounds()?;
    let (sa, sb) = (load(Path::new(a))?, load(Path::new(b))?);
    println!(
        "A = {a}\nB = {b}\nmetric: median [q1, q3] n per side; change = (B - A) / A of the medians"
    );
    for (key, ma) in &sa {
        let Some(mb) = sb.get(key) else {
            println!("\n{} (trace {}): only in A", key.0, key.1);
            continue;
        };
        println!("\n{} (trace {})", key.0, key.1);
        for (name, (unit, va)) in ma {
            let Some((_, vb)) = mb.get(name) else {
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0;
            println!(
                "  {name:<28} {unit:<6} A {}  B {}  change {change:+.1}%  {}",
                summary(va),
                summary(vb),
                verdict(ma, mb, bounds.get(name).copied())
            );
        }
        if let (Some((_, sa)), Some((_, sb))) = (ma.get(STEAL), mb.get(STEAL)) {
            let (sa, sb) = (stats::median(sa), stats::median(sb));
            if (sb - sa).abs() > STEAL_DRIFT {
                println!(
                    "  HOST DRIFT: median steal {:.1}% in A, {:.1}% in B; timing changes may come from the host",
                    sa * 100.0,
                    sb * 100.0
                );
            }
        }
    }
    for key in sb.keys().filter(|k| !sa.contains_key(*k)) {
        println!("\n{} (trace {}): only in B", key.0, key.1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_direction_and_bound() {
        let lower = Some((0.1, true));
        let higher = Some((0.1, false));
        assert_eq!(verdict(100.0, 105.0, lower), "within bound");
        assert_eq!(verdict(100.0, 115.0, lower), "WORSE beyond bound");
        assert_eq!(verdict(100.0, 85.0, lower), "better beyond bound");
        assert_eq!(verdict(100.0, 85.0, higher), "WORSE beyond bound");
        assert_eq!(verdict(100.0, 200.0, None), "no bound");
    }
}
