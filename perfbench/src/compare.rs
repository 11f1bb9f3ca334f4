//! Compare mode: labels each (workload, end-to-end metric) pair of a
//! change's results against its parent's as better, worse, unchanged or
//! unresolved, and exits non-zero on any regression.
//!
//! A workload whose change runs failed more operations in total than its
//! parent runs is a regression too, whatever its metrics say: refused
//! requests drop out of the latency samples and barely move throughput.
//! Runs whose chips used different pool crossovers are not compared at
//! all (exit 2): the crossover decides which sorts use the pool.
//!
//! * **better** — the change wins at least nine tenths of the paired
//!   runs (ties count for neither side) and the medians differ by more
//!   than the parent's own interquartile range;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound in `BENCHMARK.json`;
//! * **unresolved** — neither, and the parent's own spread (IQR over
//!   median) is wider than the bound, so "no change" cannot be claimed;
//! * **unchanged** — within the bound, with a spread narrow enough to
//!   say so.
//!
//! Runs pair by seed when both sides ran the same seeds, and by order
//! otherwise. Inputs are files of result lines as the benchmark prints
//! them; the self-describing record lines of untraced runs are used.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::stats::Quartiles;

/// One metric's rule from `BENCHMARK.json`.
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One untraced run, as its record reports it.
#[derive(Debug, Clone)]
struct Run {
    seed: u64,
    attempted: u64,
    failed: u64,
    /// The pool crossover the run's chips used, in mats.
    crossover: Option<u64>,
    metrics: BTreeMap<String, f64>,
}

/// Runs by workload.
type Runs = BTreeMap<String, Vec<Run>>;

fn load_rules(path: &Path) -> Result<Vec<Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Rule {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn load_runs(paths: &[PathBuf]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        parse_runs(&text, &mut runs).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(runs)
}

/// Adds the untraced run records among `text`'s lines to `runs`.
fn parse_runs(text: &str, runs: &mut Runs) -> Result<(), String> {
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(record) = json::parse(line) else {
            continue;
        };
        let (Some(workload), Some(0.0)) = (
            record.get("workload").and_then(Value::as_str),
            record.get("trace").and_then(Value::as_f64),
        ) else {
            continue;
        };
        if record.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("an incorrect {workload} run"));
        }
        let count = |key: &str| -> Result<u64, String> {
            record
                .get(key)
                .and_then(Value::as_f64)
                .map(|v| v as u64)
                .ok_or(format!("a {workload} record without {key}"))
        };
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload.to_string()).or_default().push(Run {
            seed: count("seed")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            crossover: record
                .get("pool")
                .and_then(|p| p.get("crossover_mats"))
                .and_then(Value::as_f64)
                .map(|v| v as u64),
            metrics,
        });
    }
    Ok(())
}

/// `(failed, attempted)` summed over runs.
fn failures(runs: &[Run]) -> (u64, u64) {
    runs.iter()
        .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted))
}

/// The distinct pool crossovers the runs used.
fn crossovers(runs: &[Run]) -> Vec<Option<u64>> {
    let mut c: Vec<Option<u64>> = runs.iter().map(|r| r.crossover).collect();
    c.sort_unstable();
    c.dedup();
    c
}

/// The label for one pair, with the figures behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

#[derive(Debug)]
pub struct Verdict {
    pub label: Label,
    pub parent: Quartiles,
    pub change: Quartiles,
    /// Signed change of the median, as a share of the parent's; positive
    /// is worse.
    pub worse_by: f64,
    pub wins: usize,
    pub pairs: usize,
}

/// Applies the rule to paired runs (`parent[i]` pairs with `change[i]`).
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Option<Verdict> {
    let p = Quartiles::of(parent)?;
    let c = Quartiles::of(change)?;
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&pv, &cv)| better(cv, pv))
        .count();
    let delta = if p.median == 0.0 {
        0.0
    } else {
        (c.median - p.median) / p.median.abs()
    };
    let worse_by = if lower_is_better { delta } else { -delta };
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    let label =
        if 10 * wins >= 9 * pairs && worse_by < 0.0 && (c.median - p.median).abs() > p.q3 - p.q1 {
            Label::Better
        } else if worse_by > bound {
            Label::Worse
        } else if p.spread() > bound && !all_better {
            Label::Unresolved
        } else {
            Label::Unchanged
        };
    Some(Verdict {
        label,
        parent: p,
        change: c,
        worse_by,
        wins,
        pairs,
    })
}

fn usage() -> ExitCode {
    eprintln!("usage: perfbench compare --parent <results>... --change <results>...");
    ExitCode::from(2)
}

/// Compares with the rules of the benchmark definition at `bench`.
pub fn main(args: &[String], bench: &Path) -> ExitCode {
    let mut parent = Vec::new();
    let mut change = Vec::new();
    let mut side: Option<&mut Vec<PathBuf>> = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            path => match side.as_mut() {
                Some(list) => list.push(PathBuf::from(path)),
                None => return usage(),
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        return usage();
    }
    let loaded =
        load_rules(bench).and_then(|rules| Ok((rules, load_runs(&parent)?, load_runs(&change)?)));
    let (rules, parent, change) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressions = 0;
    let mut refused = 0;
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>6}  label",
        "workload", "metric", "parent median", "change median", "worse by", "wins"
    );
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            continue;
        };
        let (p_cross, c_cross) = (crossovers(p_runs), crossovers(c_runs));
        if p_cross != c_cross {
            println!(
                "{workload:<16} not compared: pool crossover {p_cross:?} (parent) vs {c_cross:?} (change)"
            );
            refused += 1;
            continue;
        }
        let ((p_failed, p_attempted), (c_failed, c_attempted)) =
            (failures(p_runs), failures(c_runs));
        let more_failures = c_failed > p_failed;
        if more_failures {
            regressions += 1;
            println!(
                "{workload:<16} {:<18} {:>14} {:>14}  worse",
                "failed", p_failed, c_failed
            );
            rows.push(json::object(&[
                ("workload", json::string(workload)),
                ("metric", json::string("failed")),
                ("parent_failed", p_failed.to_string()),
                ("parent_attempted", p_attempted.to_string()),
                ("change_failed", c_failed.to_string()),
                ("change_attempted", c_attempted.to_string()),
                ("label", json::string("worse")),
            ]));
        }
        // Pair by seed when both sides ran the same seeds.
        let mut p_sorted = p_runs.clone();
        let mut c_sorted = c_runs.clone();
        p_sorted.sort_by_key(|r| r.seed);
        c_sorted.sort_by_key(|r| r.seed);
        let same_seeds = p_sorted
            .iter()
            .map(|r| r.seed)
            .eq(c_sorted.iter().map(|r| r.seed));
        let (p_runs, c_runs) = if same_seeds {
            (&p_sorted, &c_sorted)
        } else {
            (p_runs, c_runs)
        };
        for rule in &rules {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&rule.name).copied())
                    .collect()
            };
            let Some(v) = judge(
                &values(p_runs),
                &values(c_runs),
                rule.lower_is_better,
                rule.bound,
            ) else {
                println!("{workload:<16} {:<18} too few runs to compare", rule.name);
                continue;
            };
            // A gain does not count when more operations failed.
            let label = match v.label {
                Label::Better if more_failures => Label::Unresolved,
                l => l,
            };
            if label == Label::Worse {
                regressions += 1;
            }
            let label = format!("{label:?}").to_lowercase();
            println!(
                "{workload:<16} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>3}/{:<2}  {label}",
                rule.name,
                v.parent.median,
                v.change.median,
                100.0 * v.worse_by,
                v.wins,
                v.pairs
            );
            rows.push(json::object(&[
                ("workload", json::string(workload)),
                ("metric", json::string(&rule.name)),
                ("parent_median", json::number(v.parent.median)),
                ("parent_q1", json::number(v.parent.q1)),
                ("parent_q3", json::number(v.parent.q3)),
                ("change_median", json::number(v.change.median)),
                ("change_q1", json::number(v.change.q1)),
                ("change_q3", json::number(v.change.q3)),
                ("worse_by", json::number(v.worse_by)),
                ("wins", v.wins.to_string()),
                ("pairs", v.pairs.to_string()),
                ("label", json::string(&label)),
            ]));
        }
    }
    println!(
        "{}",
        json::object(&[
            ("regressions", regressions.to_string()),
            ("not_compared", refused.to_string()),
            ("pairs", format!("[{}]", rows.join(", "))),
        ])
    );
    if regressions > 0 {
        ExitCode::FAILURE
    } else if refused > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn a_clear_win_is_better() {
        let parent = ten(100.0, 0.5);
        let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let v = judge(&parent, &change, true, 0.1).unwrap();
        assert_eq!(v.label, Label::Better);
        assert_eq!((v.wins, v.pairs), (10, 10));
    }

    #[test]
    fn a_median_beyond_the_bound_is_worse() {
        let parent = ten(100.0, 0.5);
        let change: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&parent, &change, true, 0.1).unwrap().label,
            Label::Worse
        );
        // Higher-is-better metrics flip the direction.
        let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            judge(&parent, &change, false, 0.1).unwrap().label,
            Label::Worse
        );
    }

    #[test]
    fn noise_within_the_bound_is_unchanged_or_unresolved() {
        let parent = ten(100.0, 0.5);
        let change: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            judge(&parent, &change, true, 0.1).unwrap().label,
            Label::Unchanged
        );
        // A parent whose own spread exceeds the bound cannot show "no
        // change".
        let wide = ten(50.0, 10.0);
        let shuffled: Vec<f64> = wide.iter().rev().copied().collect();
        assert_eq!(
            judge(&wide, &shuffled, true, 0.1).unwrap().label,
            Label::Unresolved
        );
    }

    #[test]
    fn eight_wins_in_ten_is_not_better() {
        let parent = ten(100.0, 1.0);
        let mut change: Vec<f64> = parent.iter().map(|v| v - 20.0).collect();
        change[0] = 200.0;
        change[1] = 200.0;
        let v = judge(&parent, &change, true, 0.5).unwrap();
        assert_eq!(v.wins, 8);
        assert_ne!(v.label, Label::Better);
    }

    #[test]
    fn records_carry_failures_and_crossover() {
        let text = concat!(
            r#"{"workload": "w", "seed": 3, "trace": 0, "correct": true, "attempted": 10, "failed": 2, "#,
            r#""pool": {"crossover_mats": 16}, "metrics": {"throughput": {"value": 5.5, "unit": "ops/s"}}}"#,
            "\n",
            r#"{"workload": "w", "seed": 4, "trace": 1, "correct": true, "attempted": 10, "failed": 9, "metrics": {}}"#,
            "\n",
            r#"{"correct": true, "attempted": 10, "failed": 2, "metrics": {}}"#,
        );
        let mut runs = Runs::new();
        parse_runs(text, &mut runs).unwrap();
        // The traced record and the bare result line are skipped.
        let w = &runs["w"];
        assert_eq!(w.len(), 1);
        assert_eq!(failures(w), (2, 10));
        assert_eq!(crossovers(w), vec![Some(16)]);
        assert_eq!(w[0].metrics["throughput"], 5.5);
        let incorrect = r#"{"workload": "w", "seed": 1, "trace": 0, "correct": false}"#;
        assert!(parse_runs(incorrect, &mut runs).is_err());
    }

    #[test]
    fn too_few_runs_is_no_verdict() {
        assert!(judge(&[1.0], &[1.0, 2.0], true, 0.1).is_none());
    }
}
