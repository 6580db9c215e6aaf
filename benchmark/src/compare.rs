//! `compare PARENT.json... -- CHANGE.json...`: the rule for claiming a
//! gain or ruling out a regression, per (end-to-end metric, workload).
//!
//! The i-th parent file is paired with the i-th change file; run them
//! alternating which side goes first. A gain needs at least ten pairs,
//! the change winning nine tenths of them (ties count for neither), and
//! the medians differing by more than the parent's interquartile range.
//! A regression is a median worse than the parent's by more than the
//! metric's bound in `BENCHMARK.json`; where the run-to-run spread is
//! wider than the bound, the pairing is unresolved instead, unless every
//! change run reads better than every parent run.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::{median, quartiles, relative_iqr};

/// Pairs a gain needs.
const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    /// Neither a gain nor worse than the bound allows.
    WithinBound,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within-bound",
        }
    }
}

/// How one end-to-end metric is judged.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    pub lower_is_better: bool,
    /// Share of the parent's median the change may be worse by.
    pub bound: f64,
}

impl Rule {
    fn better(self, x: f64, than: f64) -> bool {
        if self.lower_is_better {
            x < than
        } else {
            x > than
        }
    }

    /// Pairs the change wins; ties count for neither side.
    fn wins(self, parent: &[f64], change: &[f64]) -> usize {
        parent
            .iter()
            .zip(change)
            .filter(|&(&p, &c)| self.better(c, p))
            .count()
    }
}

/// Judges one (metric, workload): `parent[i]` and `change[i]` are pair i.
pub fn verdict(parent: &[f64], change: &[f64], rule: Rule) -> Verdict {
    let better = |x: f64, than: f64| rule.better(x, than);
    let (mp, mc) = (median(parent), median(change));
    let pairs = parent.len().min(change.len());
    let wins = rule.wins(parent, change);
    let parent_iqr = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(mc, mp)
        && (mc - mp).abs() > parent_iqr
    {
        return Verdict::Gain;
    }
    let spread = relative_iqr(parent)
        .unwrap_or(f64::INFINITY)
        .max(relative_iqr(change).unwrap_or(f64::INFINITY));
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse_by = if rule.lower_is_better {
        (mc - mp) / mp.abs()
    } else {
        (mp - mc) / mp.abs()
    };
    if spread > rule.bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

/// workload → metric → value, from one result file: the `run` form
/// (`{"workloads": {name: result}}`) or a single workload's file
/// (`{"workload": name, "metrics": ...}`).
type Values = BTreeMap<String, BTreeMap<String, f64>>;

fn read_results(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut results: Vec<(String, &Json)> = Vec::new();
    if let Some(workloads) = doc.get("workloads").and_then(Json::as_object) {
        results.extend(workloads.iter().map(|(name, r)| (name.clone(), r)));
    } else if let Some(name) = doc.get("workload").and_then(Json::as_str) {
        results.push((name.to_string(), &doc));
    } else {
        return Err(format!("{path}: not a bst-benchmark result file"));
    }
    let mut out = Values::new();
    for (name, result) in results {
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{path}: {name} did not run correctly"));
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}: {name} has no metrics"))?;
        let entry = out.entry(name).or_default();
        for (metric, v) in metrics {
            if let Some(value) = v.get("value").and_then(Json::as_f64) {
                entry.insert(metric.clone(), value);
            }
        }
    }
    Ok(out)
}

/// The end-to-end metrics' rules, from `BENCHMARK.json` beside this
/// package.
fn rules() -> Result<Vec<(String, Rule)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok((
                    name.to_string(),
                    Rule {
                        lower_is_better: better == "lower",
                        bound,
                    },
                )),
                _ => Err(format!("malformed end_to_end entry {}", m.render())),
            }
        })
        .collect()
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: compare PARENT.json... -- CHANGE.json...")?;
    let (parent_files, change_files) = (&args[..split], &args[split + 1..]);
    if parent_files.is_empty() || change_files.is_empty() {
        return Err("compare needs result files on both sides of --".into());
    }
    let parent = parent_files
        .iter()
        .map(|p| read_results(p))
        .collect::<Result<Vec<_>, _>>()?;
    let change = change_files
        .iter()
        .map(|p| read_results(p))
        .collect::<Result<Vec<_>, _>>()?;
    let rules = rules()?;
    let workloads: std::collections::BTreeSet<&String> = parent
        .iter()
        .chain(&change)
        .flat_map(|v| v.keys())
        .collect();
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "parent median", "change median", "change", "wins"
    );
    let mut regressions = 0;
    for workload in workloads {
        for (metric, rule) in &rules {
            let values = |side: &[Values]| -> Vec<f64> {
                side.iter()
                    .filter_map(|v| v.get(workload)?.get(metric).copied())
                    .collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let v = verdict(&p, &c, *rule);
            regressions += usize::from(v == Verdict::Regression);
            let (mp, mc) = (median(&p), median(&c));
            let wins = rule.wins(&p, &c);
            println!(
                "{workload:<18} {metric:<14} {mp:>14.4} {mc:>14.4} {:>+7.1}% {:>3}/{:<3}  {}",
                (mc - mp) / mp * 100.0,
                wins,
                p.len().min(c.len()),
                v.name()
            );
        }
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: 0.1,
    };
    const HIGHER: Rule = Rule {
        lower_is_better: false,
        bound: 0.1,
    };

    /// Values around `center` with a ±1% wobble.
    fn runs(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.01 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn same_commit_is_within_bound() {
        let a = runs(100.0, 10);
        assert_eq!(verdict(&a, &a, LOWER), Verdict::WithinBound);
        assert_eq!(verdict(&a, &a, HIGHER), Verdict::WithinBound);
    }

    #[test]
    fn a_clear_win_on_ten_pairs_is_a_gain() {
        assert_eq!(
            verdict(&runs(100.0, 10), &runs(80.0, 10), LOWER),
            Verdict::Gain
        );
        assert_eq!(
            verdict(&runs(100.0, 10), &runs(120.0, 10), HIGHER),
            Verdict::Gain
        );
    }

    #[test]
    fn fewer_than_ten_pairs_never_gain() {
        assert_eq!(
            verdict(&runs(100.0, 9), &runs(50.0, 9), LOWER),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten() {
        let parent = runs(100.0, 10);
        let mut change = runs(90.0, 10);
        change[0] = parent[0] + 0.5;
        change[1] = parent[1] + 0.5;
        assert_eq!(verdict(&parent, &change, LOWER), Verdict::WithinBound);
        change[1] = 90.0;
        assert_eq!(verdict(&parent, &change, LOWER), Verdict::Gain);
    }

    #[test]
    fn a_gain_needs_the_medians_apart_by_more_than_the_parent_iqr() {
        // Every pair won, but by less than the parent's own spread.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + 4.0 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|x| x - 1.0).collect();
        let loose = Rule {
            lower_is_better: true,
            bound: 0.25,
        };
        assert_eq!(verdict(&parent, &change, loose), Verdict::WithinBound);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression() {
        assert_eq!(
            verdict(&runs(100.0, 5), &runs(115.0, 5), LOWER),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&runs(100.0, 5), &runs(85.0, 5), HIGHER),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&runs(100.0, 5), &runs(105.0, 5), LOWER),
            Verdict::WithinBound
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(verdict(&noisy, &noisy, LOWER), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let better: Vec<f64> = noisy.iter().map(|x| x - 100.0).collect();
        assert_eq!(verdict(&noisy, &better, LOWER), Verdict::WithinBound);
    }
}
