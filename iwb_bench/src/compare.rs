//! `iwb_bench compare A… -- B…`: per metric and workload, each side's
//! median and quartile spread ((q3 − q1) ÷ median) over its runs, and a
//! verdict against the bound `BENCHMARK.json` fixes for the metric.

use crate::json::Json;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One run's output: the workload it ran and its result line.
#[derive(Debug, Clone)]
pub struct RunFile {
    pub workload: String,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

/// Parse the captured stdout of one `iwb_bench run --workload …`: the
/// `iwb_bench: workload=<name>` header and the JSON last line.
pub fn parse_run(text: &str) -> Result<RunFile, String> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("iwb_bench: workload="))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no `iwb_bench: workload=` header")?
        .to_owned();
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let v = Json::parse(last)?;
    let correct = v
        .get("correct")
        .and_then(Json::as_bool)
        .ok_or("no `correct`")?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("no `metrics`")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunFile {
        workload,
        correct,
        metrics,
    })
}

/// A metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Rule {
    pub higher_is_better: bool,
    /// Relative bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub fn rules(manifest: &str) -> Result<BTreeMap<String, Rule>, String> {
    let v = Json::parse(manifest)?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in v.get(section).and_then(Json::as_array).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            out.insert(
                name.to_owned(),
                Rule {
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// How side B (the change) stands against side A (the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
    /// A side's quartile spread is wider than the bound, and not every
    /// B run beats every A run.
    Unresolved,
    /// No bound (per-layer metric): medians only.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Quartile distance as a share of the median.
fn spread(q: (f64, f64, f64)) -> f64 {
    if q.1 == 0.0 {
        0.0
    } else {
        (q.2 - q.0).abs() / q.1.abs()
    }
}

pub fn verdict(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(qa), Some(qb)) = (quartiles(a), quartiles(b)) else {
        return Verdict::Info;
    };
    let Some(bound) = rule.bound else {
        return Verdict::Info;
    };
    let good = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| good(y, x)));
    if spread(qa) > bound || spread(qb) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    // Signed change of B's median in the "worse" direction, relative.
    let base = qa.1.abs().max(f64::MIN_POSITIVE);
    let worse_by = if rule.higher_is_better {
        (qa.1 - qb.1) / base
    } else {
        (qb.1 - qa.1) / base
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound.max(spread(qa)) {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The comparison table, and whether B is worse than its bound on some
/// metric or any run reported `correct: false`.
pub fn compare(rules: &BTreeMap<String, Rule>, a: &[RunFile], b: &[RunFile]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<9} {:<34} {:>12} {:>12} {:>12} {:>12} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "A spread", "B median", "B spread", "bound", "change"
    );
    let workloads: std::collections::BTreeSet<&str> =
        a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    for w in workloads {
        let side = |runs: &[RunFile], name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        for (name, rule) in rules {
            let (va, vb) = (side(a, name), side(b, name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(rule, &va, &vb);
            regressed |= v == Verdict::Worse;
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let fmt_q = |q: Option<(f64, f64, f64)>| {
                q.map_or(("-".to_owned(), "-".to_owned()), |q| {
                    (format!("{:.4}", q.1), format!("{:.1}%", 100.0 * spread(q)))
                })
            };
            let ((ma, sa), (mb, sb)) = (fmt_q(qa), fmt_q(qb));
            let change = match (qa, qb) {
                (Some(x), Some(y)) if x.1 != 0.0 => format!("{:+.1}%", 100.0 * (y.1 - x.1) / x.1),
                _ => "-".to_owned(),
            };
            let bound = rule
                .bound
                .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "{w:<9} {name:<34} {ma:>12} {sa:>12} {mb:>12} {sb:>12} {bound:>7} {change:>7}  {}",
                v.label()
            );
        }
    }
    let incorrect = a.iter().chain(b).filter(|r| !r.correct).count();
    if incorrect > 0 {
        let _ = writeln!(out, "{incorrect} run(s) reported correct=false");
    }
    (out, regressed || incorrect > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: f64) -> Rule {
        Rule {
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&rule(0.1), &a, &[10.2, 10.1, 10.3, 10.2, 10.25]),
            Verdict::Within
        );
        assert_eq!(
            verdict(&rule(0.1), &a, &[12.0, 12.1, 11.9, 12.0, 12.05]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&rule(0.1), &a, &[8.0, 8.1, 7.9, 8.0, 8.05]),
            Verdict::Better
        );
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(&rule(0.1), &a, &noisy), Verdict::Unresolved);
        let higher = Rule {
            higher_is_better: true,
            bound: Some(0.1),
        };
        assert_eq!(
            verdict(&higher, &a, &[8.0, 8.1, 7.9, 8.0, 8.05]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                &Rule {
                    higher_is_better: false,
                    bound: None
                },
                &a,
                &a
            ),
            Verdict::Info
        );
    }

    #[test]
    fn parses_a_captured_run() {
        let text = "iwb_bench: workload=decide seed=3 seconds=10 trace=0\n  p50_ms 1.0 ms\n\
                    {\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n";
        let run = parse_run(text).unwrap();
        assert_eq!(run.workload, "decide");
        assert!(run.correct);
        assert_eq!(run.metrics.get("p50_ms"), Some(&1.5));
    }
}
