//! `mrsch-e2e compare A.json B.json`: two result sets side by side.
//!
//! Per workload × end-to-end metric: both values, the ratio B ÷ A (A is
//! the base), the metric's bound, and a verdict —
//!
//! * `regressed`: B is worse than A by more than the bound;
//! * `unresolved`: either side's own spread (IQR ÷ median of its
//!   repetitions, when it kept at least five) is wider than the bound, so
//!   the two cannot be told apart;
//! * `ok`: otherwise.
//!
//! Counts in traced sets (`sim.report_digest`, event and decision counts,
//! cache counters, …) repeat exactly for a fixed seed; they are listed as
//! `identical` / `differs` and never gated — a behaviour change is a
//! different kind of change from a slow-down.

use crate::json::Value;
use crate::metrics::{self, Better};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Fewer repetitions than this say nothing about quartiles.
const MIN_SAMPLES_FOR_SPREAD: f64 = 5.0;

/// `value`, and the metric's relative spread (IQR ÷ median) when enough
/// repetitions were kept to speak of quartiles, else 0.
fn reading(metric: &Value) -> Option<(f64, f64)> {
    let value = metric.get("value")?.as_f64()?;
    let samples = metric.get("n").and_then(Value::as_f64).unwrap_or(0.0);
    let spread = match metric.get("iqr").and_then(Value::as_f64) {
        Some(iqr) if samples >= MIN_SAMPLES_FOR_SPREAD && value != 0.0 => (iqr / value).abs(),
        _ => 0.0,
    };
    Some((value, spread))
}

pub fn verdict(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b.0 - a.0) / a.0.abs(),
        Better::Higher => (a.0 - b.0) / a.0.abs(),
    };
    if a.1.max(b.1) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The per-workload results of a file: a result set's `results`, or a
/// single workload's `--json` output.
fn results(doc: &Value) -> Vec<&Value> {
    match doc.get("results") {
        Some(Value::Arr(items)) => items.iter().collect(),
        _ => vec![doc],
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Returns `Ok(false)` when any pairing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (doc_a, doc_b) = (load(path_a)?, load(path_b)?);
    println!("A (base) = {path_a}\nB        = {path_b}");
    for (label, doc) in [("A", &doc_a), ("B", &doc_b)] {
        if let Some(host) = doc.get("host") {
            println!("host {label}: {}", host.render());
        }
    }
    println!(
        "{:<18} {:<14} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut regressed = 0;
    let mut counts = Vec::new();
    for a in results(&doc_a) {
        let name = a
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("result without a workload")?;
        let Some(b) = results(&doc_b)
            .into_iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<18} missing from B");
            regressed += 1;
            continue;
        };
        for def in metrics::END_TO_END {
            let read = |r: &Value| {
                r.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(reading)
            };
            let (Some(ra), Some(rb)) = (read(a), read(b)) else {
                continue;
            };
            let bound = metrics::bound(def.name);
            let v = verdict(def.better, bound, ra, rb);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{:<18} {:<14} {:>16.6} {:>16.6} {:>9.4} {:>6.2}  {}",
                name,
                def.name,
                ra.0,
                rb.0,
                rb.0 / ra.0,
                bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (key, failed) in [("A", a), ("B", b)] {
            if failed.get("correct") != Some(&Value::Bool(true)) {
                println!("{name:<18} {key} failed its output checks");
                regressed += 1;
            }
        }
        for def in metrics::PER_LAYER.iter().filter(|d| d.unit == "count") {
            let read = |r: &Value| {
                r.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(reading)
            };
            if let (Some(ra), Some(rb)) = (read(a), read(b)) {
                counts.push((name.to_string(), def.name, ra.0, rb.0));
            }
        }
    }
    if !counts.is_empty() {
        println!("exact counts (never gated):");
        for (workload, metric, a, b) in counts {
            let same = if a == b { "identical" } else { "differs" };
            println!("  {workload:<18} {metric:<24} {a:>18} {b:>18}  {same}");
        }
    }
    println!("{regressed} regressed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // 8 % slower is inside a 10 % bound; 12 % is not.
        assert_eq!(
            verdict(Lower, 0.10, (100.0, 0.01), (108.0, 0.01)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Lower, 0.10, (100.0, 0.01), (112.0, 0.01)),
            Verdict::Regressed
        );
        // Getting better is never a regression, whichever way is better.
        assert_eq!(verdict(Lower, 0.10, (100.0, 0.0), (50.0, 0.0)), Verdict::Ok);
        assert_eq!(
            verdict(Higher, 0.10, (100.0, 0.0), (150.0, 0.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Higher, 0.10, (100.0, 0.0), (88.0, 0.0)),
            Verdict::Regressed
        );
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            verdict(Higher, 0.10, (100.0, 0.2), (80.0, 0.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Lower, 0.10, (100.0, 0.0), (101.0, 0.11)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn reading_takes_spread_from_the_kept_repetitions() {
        let metric = |n: f64| {
            Value::obj([
                ("value", Value::Num(200.0)),
                ("iqr", Value::Num(10.0)),
                ("n", Value::Num(n)),
            ])
        };
        assert_eq!(reading(&metric(8.0)), Some((200.0, 0.05)));
        // Three set-up repetitions have no quartiles to speak of.
        assert_eq!(reading(&metric(3.0)), Some((200.0, 0.0)));
        let single = Value::obj([("value", Value::Num(3.0))]);
        assert_eq!(reading(&single), Some((3.0, 0.0)));
    }
}
