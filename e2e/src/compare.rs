//! `segscope-e2e compare A.json B.json`: per workload and metric, the
//! medians and quartiles of two sets of runs against the metric's bound
//! in `BENCHMARK.json`.

use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;

/// How a metric moved from set A to set B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by more than A's run-to-run spread, in at least nine
    /// tenths of the seed-paired runs.
    Better,
    /// Within the bound and not shown better.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of A or B exceeds the bound, and B neither
    /// beats nor loses to A in every pair of runs.
    Unresolved,
}

impl Verdict {
    /// The verdict's report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median, quartiles and the quartile distance as a share of the
/// median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 - q1) / median`.
    pub spread: f64,
}

/// Summarizes one metric's values.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    let median = median(values);
    let (q1, q3) = quartiles(values);
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    };
    Summary {
        median,
        q1,
        q3,
        spread,
    }
}

/// Compares paired runs `a[i]` / `b[i]` of one metric.
/// `higher_is_better` orients the change; `bound` is the allowed
/// worsening as a share of A's median.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    let gain = |x: f64, y: f64| if higher_is_better { y - x } else { x - y };
    let change = gain(sa.median, sb.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let all = |pred: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| pred(x, y)));
    if sa.spread.max(sb.spread) > bound {
        if all(&|x, y| gain(x, y) > 0.0) {
            return Verdict::Better;
        }
        if all(&|x, y| gain(x, y) < 0.0) {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    if change < -bound {
        return Verdict::Worse;
    }
    let wins = a.iter().zip(b).filter(|(&x, &y)| gain(x, y) > 0.0).count();
    if change > sa.spread && wins * 10 >= a.len().min(b.len()) * 9 {
        return Verdict::Better;
    }
    Verdict::Same
}

/// One run read back from a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Seed the run was generated from.
    pub seed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// A results file: the host's thread count and every run.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// `available_parallelism` of the host that produced the runs.
    pub nproc: u64,
    /// The runs, in the order they were made.
    pub runs: Vec<Run>,
}

fn field<'a>(map: &'a [(String, Value)], name: &str) -> Result<&'a Value, String> {
    serde::get_field(map, name).map_err(|e| e.to_string())
}

fn number(value: &Value) -> Result<f64, String> {
    match value {
        Value::Float(x) => Ok(*x),
        Value::Int(i) => Ok(*i as f64),
        other => Err(format!("expected a number, found {other:?}")),
    }
}

/// Parses a results file written by `segscope-e2e run --out`.
///
/// # Errors
///
/// Malformed JSON or a missing field.
pub fn parse_results(text: &str) -> Result<Results, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let top = value.as_map().map_err(|e| e.to_string())?;
    let nproc = number(field(top, "nproc")?)? as u64;
    let runs = field(top, "runs")?
        .as_seq()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|run| {
            let run = run.as_map().map_err(|e| e.to_string())?;
            let metrics = field(run, "metrics")?
                .as_map()
                .map_err(|e| e.to_string())?
                .iter()
                .map(|(name, entry)| {
                    let entry = entry.as_map().map_err(|e| e.to_string())?;
                    Ok((name.clone(), number(field(entry, "value")?)?))
                })
                .collect::<Result<_, String>>()?;
            Ok(Run {
                workload: field(run, "workload")?
                    .as_str()
                    .map_err(|e| e.to_string())?
                    .to_owned(),
                seed: number(field(run, "seed")?)? as u64,
                metrics,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Results { nproc, runs })
}

/// A metric's direction and bound from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the median (`None` for per-layer
    /// metrics, which have no bound).
    pub bound: Option<f64>,
}

/// Reads every metric's rule from `BENCHMARK.json`.
///
/// # Errors
///
/// Malformed JSON or a missing field.
pub fn parse_rules(text: &str) -> Result<BTreeMap<String, Rule>, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let top = value.as_map().map_err(|e| e.to_string())?;
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for metric in field(top, section)?.as_seq().map_err(|e| e.to_string())? {
            let metric = metric.as_map().map_err(|e| e.to_string())?;
            let name = field(metric, "name")?.as_str().map_err(|e| e.to_string())?;
            let better = field(metric, "better")?
                .as_str()
                .map_err(|e| e.to_string())?;
            let bound = match metric.iter().find(|(k, _)| k == "bound") {
                Some((_, v)) => Some(number(v)?),
                None => None,
            };
            rules.insert(
                name.to_owned(),
                Rule {
                    higher_is_better: better == "higher",
                    bound,
                },
            );
        }
    }
    Ok(rules)
}

/// The comparison table, and whether any metric got worse.
#[must_use]
pub fn compare(a: &Results, b: &Results, rules: &BTreeMap<String, Rule>) -> (String, bool) {
    let mut out = String::new();
    let one_core = a.nproc < 2 || b.nproc < 2;
    if one_core {
        out.push_str("note: a results file comes from a 1-core host; no speed-up is claimed\n");
    }
    out.push_str(&format!(
        "{:<13} {:<34} {:>34} {:>34} {:>7} {}\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "verdict"
    ));
    let mut workloads: Vec<&str> = a.runs.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    let mut any_worse = false;
    for workload in workloads {
        let side = |results: &Results| -> Vec<Run> {
            let mut runs: Vec<Run> = results
                .runs
                .iter()
                .filter(|r| r.workload == workload)
                .cloned()
                .collect();
            runs.sort_by_key(|r| r.seed);
            runs
        };
        let (ra, rb) = (side(a), side(b));
        let Some(first) = ra.first() else { continue };
        for name in first.metrics.keys() {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if vb.is_empty() {
                continue;
            }
            let (sa, sb) = (summarize(&va), summarize(&vb));
            let rule = rules.get(name);
            let (bound, label) = match rule.and_then(|r| r.bound.map(|b| (r, b))) {
                Some((rule, bound)) => {
                    let mut v = verdict(&va, &vb, rule.higher_is_better, bound);
                    if one_core && v == Verdict::Better {
                        v = Verdict::Unresolved;
                    }
                    any_worse |= v == Verdict::Worse;
                    (format!("{bound:.3}"), v.label())
                }
                None => ("-".to_owned(), "-"),
            };
            let cell = |s: Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            out.push_str(&format!(
                "{:<13} {:<34} {:>34} {:>34} {:>7} {}\n",
                workload,
                name,
                cell(sa),
                cell(sb),
                bound,
                label
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, true, 0.1), Verdict::Same);
        let slower = a.map(|x| x * 0.8);
        assert_eq!(verdict(&a, &slower, true, 0.1), Verdict::Worse);
        let faster = a.map(|x| x * 1.2);
        assert_eq!(verdict(&a, &faster, true, 0.1), Verdict::Better);
        // Lower-is-better flips the direction.
        assert_eq!(verdict(&a, &faster, false, 0.1), Verdict::Worse);
        // A spread wider than the bound is unresolved unless every pair
        // agrees.
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&a, &noisy, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn results_and_rules_parse() {
        let results = parse_results(
            r#"{"nproc":2,"runs":[{"workload":"w","seed":3,"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1.5,"unit":"s"}}}]}"#,
        )
        .expect("parses");
        assert_eq!(results.nproc, 2);
        assert_eq!(results.runs[0].metrics["x"], 1.5);
        let rules = parse_rules(
            r#"{"end_to_end":[{"name":"x","unit":"s","better":"lower","bound":0.1}],"per_layer":[{"name":"y","unit":"s","better":"lower"}]}"#,
        )
        .expect("parses");
        assert_eq!(rules["x"].bound, Some(0.1));
        assert!(!rules["x"].higher_is_better);
        assert_eq!(rules["y"].bound, None);
        let (table, worse) = compare(&results, &results, &rules);
        assert!(!worse);
        assert!(table.contains("same"), "{table}");
    }
}
