//! `bench_e2e compare <a.json> <b.json>`: per (metric, workload) verdict of
//! result file `b` against baseline `a`, using the bounds in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::{iqr_share, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The noise on either side exceeds the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the metric's median over the file's repeats
/// and the noise recorded with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    /// Repeat spread (IQR ÷ median) when the file holds repeats, else the
    /// spread of the kept timing blocks for the two timing metrics, else 0.
    pub noise: f64,
}

/// Worsening of `b` against `a` as a share of `a` (positive = worse).
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let delta = if better == "higher" { a - b } else { b - a };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

pub fn verdict(a: Side, b: Side, bound: f64, better: &str) -> Verdict {
    if a.noise.max(b.noise) > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(a.median, b.median, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// `(bound, better)` per end-to-end metric, from `BENCHMARK.json`.
pub fn load_bounds(text: &str) -> Result<BTreeMap<String, (f64, String)>, String> {
    let doc = json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.as_arr()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            let better = m.get("better").and_then(Value::as_str).unwrap_or("lower");
            Ok((name.to_string(), (bound, better.to_string())))
        })
        .collect()
}

/// The timing metrics, whose single-run noise gauge is the block spread.
const TIMING: [&str; 2] = ["op_p50_ms", "ops_per_s"];

/// `(workload, metric) -> Side` over the untraced results of a result file.
pub fn sides(doc: &Value) -> BTreeMap<(String, String), Side> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut block_noise: BTreeMap<String, f64> = BTreeMap::new();
    for result in doc.get("results").map_or(&[][..], Value::as_arr) {
        if result.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let Some(workload) = result.get("workload").and_then(Value::as_str) else {
            continue;
        };
        for (name, m) in result.get("metrics").map_or(&[][..], Value::fields) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        let spread = result
            .get("diagnostics")
            .and_then(|d| d.get("harness.kept_block_spread"))
            .and_then(Value::as_f64)
            .unwrap_or(1.0);
        let slot = block_noise.entry(workload.to_string()).or_insert(0.0);
        *slot = slot.max(spread - 1.0);
    }
    values
        .into_iter()
        .map(|((workload, metric), v)| {
            let noise = if v.len() > 1 {
                iqr_share(&v)
            } else if TIMING.contains(&metric.as_str()) {
                block_noise.get(&workload).copied().unwrap_or(0.0)
            } else {
                0.0
            };
            let side = Side {
                median: median(&v),
                noise,
            };
            ((workload, metric), side)
        })
        .collect()
}

/// Compare two result documents; returns the printed table and whether any
/// pair came out worse.
pub fn compare(a: &Value, b: &Value, bounds: &BTreeMap<String, (f64, String)>) -> (String, bool) {
    let (sa, sb) = (sides(a), sides(b));
    let mut table = format!(
        "{:<24} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "change", "bound"
    );
    let mut any_worse = false;
    for ((workload, metric), a_side) in &sa {
        let (Some(b_side), Some((bound, better))) = (
            sb.get(&(workload.clone(), metric.clone())),
            bounds.get(metric),
        ) else {
            continue;
        };
        let v = verdict(*a_side, *b_side, *bound, better);
        any_worse |= v == Verdict::Worse;
        table.push_str(&format!(
            "{:<24} {:<26} {:>14.6} {:>14.6} {:>+8.2}% {:>7.3}  {}\n",
            workload,
            metric,
            a_side.median,
            b_side.median,
            worsening(a_side.median, b_side.median, better) * 100.0,
            bound,
            v.label()
        ));
    }
    (table, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, noise: f64) -> Side {
        Side { median, noise }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_noise() {
        // Lower is better: +5% is within a 10% bound, +15% is worse, -15% better.
        assert_eq!(
            verdict(side(100.0, 0.0), side(105.0, 0.0), 0.10, "lower"),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(side(100.0, 0.0), side(115.0, 0.0), 0.10, "lower"),
            Verdict::Worse
        );
        assert_eq!(
            verdict(side(100.0, 0.0), side(85.0, 0.0), 0.10, "lower"),
            Verdict::Better
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(side(100.0, 0.0), side(85.0, 0.0), 0.10, "higher"),
            Verdict::Worse
        );
        assert_eq!(
            verdict(side(100.0, 0.0), side(115.0, 0.0), 0.10, "higher"),
            Verdict::Better
        );
        // Noise above the bound on either side blocks any claim.
        assert_eq!(
            verdict(side(100.0, 0.2), side(150.0, 0.0), 0.10, "lower"),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(side(100.0, 0.0), side(100.0, 0.11), 0.10, "lower"),
            Verdict::Unresolved
        );
        // Exact counts: any change beyond a tiny bound is a verdict.
        assert_eq!(
            verdict(side(76.0, 0.0), side(77.0, 0.0), 0.001, "lower"),
            Verdict::Worse
        );
        assert_eq!(
            verdict(side(76.0, 0.0), side(76.0, 0.0), 0.001, "lower"),
            Verdict::WithinBound
        );
    }

    fn result_file(op_p50: &[f64], kept_spread: f64) -> Value {
        let results: Vec<Value> = op_p50
            .iter()
            .map(|&v| {
                Value::obj()
                    .with("workload", "w")
                    .with("trace", false)
                    .with(
                        "metrics",
                        Value::obj()
                            .with(
                                "op_p50_ms",
                                Value::obj().with("value", v).with("unit", "ms"),
                            )
                            .with(
                                "stored_ratio",
                                Value::obj().with("value", 0.27).with("unit", "ratio"),
                            ),
                    )
                    .with(
                        "diagnostics",
                        Value::obj().with("harness.kept_block_spread", kept_spread),
                    )
            })
            .collect();
        Value::obj().with("results", results)
    }

    #[test]
    fn compare_reads_repeats_block_noise_and_flags_worse() {
        let bounds = load_bounds(
            r#"{"end_to_end": [
                {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
                {"name": "stored_ratio", "unit": "ratio", "better": "lower", "bound": 0.001}]}"#,
        )
        .unwrap();
        let base = result_file(&[10.0, 10.1, 9.9, 10.0], 1.02);
        let slower = result_file(&[12.0, 12.1, 11.9, 12.0], 1.02);
        let (table, worse) = compare(&base, &slower, &bounds);
        assert!(worse, "{table}");
        assert!(table.contains("WORSE"));
        let (_, worse) = compare(&base, &base, &bounds);
        assert!(!worse);
        // A single noisy run cannot carry a timing verdict, but its exact
        // metrics still resolve.
        let noisy = result_file(&[12.0], 1.5);
        let s = sides(&noisy);
        assert!(s[&("w".into(), "op_p50_ms".into())].noise > 0.4);
        assert_eq!(s[&("w".into(), "stored_ratio".into())].noise, 0.0);
        let (table, worse) = compare(&base, &noisy, &bounds);
        assert!(!worse && table.contains("unresolved"), "{table}");
    }
}
