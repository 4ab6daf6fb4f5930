//! `benchmark compare <parent_dir> <change_dir>`: judges a change against its
//! parent from the `record` lines of their runs.
//!
//! Each directory holds the captured standard output of runs, one file per run;
//! files are taken in name order, and the i-th run of each side forms pair i (run
//! the two sides alternately, each pair on the same seed). For every workload and
//! end-to-end metric the verdict is:
//!
//! * **improved**: the change wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ, in its favour, by more than the parent's
//!   interquartile range;
//! * **unresolved**: otherwise, if either side's interquartile range is wider than
//!   the metric's bound (a share of the median), unless every change run beats
//!   every parent run;
//! * **worse**: otherwise, if the change's median is worse than the parent's by
//!   more than the bound;
//! * **unchanged**: otherwise.
//!
//! Exact values (pure functions of seed and run length) must be identical between
//! every two runs of the same workload, seed and length.

use std::path::Path;

use radar_obs::JsonValue;

use crate::registry::{Better, END_TO_END};
use crate::stats::quartiles;

/// One run's record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Run length.
    pub seconds: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Registry metrics.
    pub metrics: Vec<(String, f64)>,
    /// Values that must not move between two runs of the same seed and length.
    pub exact: Vec<(String, f64)>,
}

impl Record {
    fn parse(json: &str) -> Result<Record, String> {
        let doc = JsonValue::parse(json)?;
        let text = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("record without {key}"))
        };
        let number = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("record without {key}"))
        };
        let values = |key: &str, exact_only: bool| -> Vec<(String, f64)> {
            let Some(JsonValue::Object(members)) = doc.get(key) else {
                return Vec::new();
            };
            members
                .iter()
                .filter(|(_, v)| !exact_only || v.get("exact") == Some(&JsonValue::Bool(true)))
                .filter_map(|(name, v)| Some((name.clone(), v.get("value")?.as_f64()?)))
                .collect()
        };
        let metrics = values("metrics", false);
        let mut exact = values("extras", true);
        exact.extend(
            metrics
                .iter()
                .filter(|(name, _)| END_TO_END.iter().any(|m| m.exact && m.name == name))
                .cloned(),
        );
        Ok(Record {
            workload: text("workload")?.to_owned(),
            seed: number("seed")? as u64,
            seconds: number("seconds")? as u64,
            trace: doc.get("trace") == Some(&JsonValue::Bool(true)),
            metrics,
            exact,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Reads every `record` line of every file in `dir`, files in name order.
pub fn load(dir: &Path) -> Result<Vec<Record>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.is_file())
        .collect();
    files.sort();
    let mut records = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        for line in text.lines() {
            if let Some(json) = line.strip_prefix("record ") {
                records.push(Record::parse(json).map_err(|e| format!("{}: {e}", file.display()))?);
            }
        }
    }
    Ok(records)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the rule in the module docs.
    Improved,
    /// No worse than the bound allows.
    Unchanged,
    /// Worse than the bound allows.
    Worse,
    /// Run-to-run spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairwise wins of `change` over `parent` (pair i = the i-th run of each), and the
/// number of pairs.
pub fn wins(better: Better, parent: &[f64], change: &[f64]) -> (usize, usize) {
    let won = |p: f64, c: f64| match better {
        Better::Higher => c > p,
        Better::Lower => c < p,
    };
    let pairs = parent.len().min(change.len());
    let count = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| won(p, c))
        .count();
    (count, pairs)
}

/// Judges one metric.
///
/// # Panics
///
/// Panics if either side has no runs.
pub fn verdict(better: Better, bound: f64, parent: &[f64], change: &[f64]) -> Verdict {
    let (p1, pm, p3) = quartiles(parent);
    let (c1, cm, c3) = quartiles(change);
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let gain = sign * (cm - pm);
    let (won, pairs) = wins(better, parent, change);
    if pairs > 0 && won * 10 >= pairs * 9 && gain > p3 - p1 {
        return Verdict::Improved;
    }
    let spread = ((p3 - p1) / pm.abs()).max((c3 - c1) / cm.abs());
    if spread > bound {
        let beats_all = change
            .iter()
            .all(|&c| parent.iter().all(|&p| sign * (c - p) > 0.0));
        return if beats_all {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > bound * pm.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Compares the runs in two directories; returns whether nothing is worse or
/// unresolved and every exact value matched.
pub fn run(parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let mut workloads: Vec<&str> = parent
        .iter()
        .filter(|r| !r.trace)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    if workloads.is_empty() {
        return Err(format!("no untraced records in {}", parent_dir.display()));
    }
    let mut clean = true;
    println!(
        "{:<14} {:<12} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for workload in &workloads {
        let side = |records: &[Record]| -> Vec<Record> {
            records
                .iter()
                .filter(|r| !r.trace && r.workload == *workload)
                .cloned()
                .collect()
        };
        let (p, c) = (side(&parent), side(&change));
        if c.is_empty() {
            println!("{workload:<14} no change runs");
            clean = false;
            continue;
        }
        for metric in &END_TO_END {
            let values = |records: &[Record]| -> Vec<f64> {
                records
                    .iter()
                    .filter_map(|r| r.metric(metric.name))
                    .collect()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let bound = metric.bound.unwrap_or(0.0);
            let v = verdict(metric.better, bound, &pv, &cv);
            let (won, pairs) = wins(metric.better, &pv, &cv);
            let show = |values: &[f64]| {
                let (q1, m, q3) = quartiles(values);
                format!("{m:.4} [{q1:.4}, {q3:.4}]")
            };
            println!(
                "{workload:<14} {:<12} {:>34} {:>34} {:>6}  {}",
                metric.name,
                show(&pv),
                show(&cv),
                format!("{won}/{pairs}"),
                v.name()
            );
            clean &= matches!(v, Verdict::Improved | Verdict::Unchanged);
        }
        let mismatches = exact_mismatches(&p, &c);
        for m in &mismatches {
            println!("{workload:<14} exact value differs: {m}");
        }
        clean &= mismatches.is_empty();
    }
    println!(
        "{}",
        if clean {
            "no regression"
        } else {
            "REGRESSION OR UNRESOLVED"
        }
    );
    Ok(clean)
}

/// Exact values that differ between runs of the same seed and length.
fn exact_mismatches(parent: &[Record], change: &[Record]) -> Vec<String> {
    let all: Vec<&Record> = parent.iter().chain(change).collect();
    let mut out = Vec::new();
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            if (a.seed, a.seconds) != (b.seed, b.seconds) {
                continue;
            }
            for (name, value) in &a.exact {
                let other = b.exact.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
                if other.is_some_and(|v| v.to_bits() != value.to_bits()) {
                    out.push(format!(
                        "{name} on seed {}: {value} vs {}",
                        a.seed,
                        other.unwrap_or(f64::NAN)
                    ));
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + step * (i as f64 - n as f64 / 2.0))
            .collect()
    }

    #[test]
    fn a_clear_gain_is_improved() {
        let parent = around(100.0, 0.2, 10);
        let change: Vec<f64> = parent.iter().map(|p| p * 1.10).collect();
        assert_eq!(
            verdict(Better::Higher, 0.05, &parent, &change),
            Verdict::Improved
        );
        // The same numbers are a clear loss for a lower-is-better metric.
        assert_eq!(
            verdict(Better::Lower, 0.05, &parent, &change),
            Verdict::Worse
        );
    }

    #[test]
    fn winning_too_few_pairs_is_not_improved() {
        let parent = around(100.0, 0.2, 10);
        // Medians far apart, but the change loses two of the ten pairs.
        let mut change: Vec<f64> = parent.iter().map(|p| p * 1.04).collect();
        change[0] = 90.0;
        change[1] = 90.0;
        assert_ne!(
            verdict(Better::Higher, 0.05, &parent, &change),
            Verdict::Improved
        );
        assert_eq!(wins(Better::Higher, &parent, &change), (8, 10));
    }

    #[test]
    fn a_gap_inside_the_parent_spread_is_not_improved() {
        let parent = around(100.0, 1.0, 10); // IQR ≈ 5
        let change: Vec<f64> = parent.iter().map(|p| p + 2.0).collect();
        assert_eq!(wins(Better::Higher, &parent, &change), (10, 10));
        assert_eq!(
            verdict(Better::Higher, 0.10, &parent, &change),
            Verdict::Unchanged
        );
    }

    #[test]
    fn small_moves_within_the_bound_are_unchanged() {
        let parent = around(100.0, 0.01, 10);
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(
            verdict(Better::Higher, 0.05, &parent, &change),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(Better::Higher, 0.005, &parent, &change),
            Verdict::Worse
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = around(100.0, 5.0, 10); // IQR ≈ 25% of the median
        let change = around(99.0, 5.0, 10);
        assert_eq!(
            verdict(Better::Higher, 0.05, &parent, &change),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let far: Vec<f64> = parent.iter().map(|p| p + 60.0).collect();
        let mut noisy = far.clone();
        noisy[0] = 0.0; // spoils the 9-in-10 rule
        noisy[1] = 0.0;
        assert_eq!(
            verdict(Better::Higher, 0.05, &parent, &noisy),
            Verdict::Unresolved
        );
        assert_ne!(
            verdict(Better::Higher, 0.05, &parent, &far),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_values_must_match_per_seed() {
        let record = |seed: u64, ttd: f64| Record {
            workload: "attack_rotate".into(),
            seed,
            seconds: 15,
            trace: false,
            metrics: Vec::new(),
            exact: vec![("ttd_requests".into(), ttd)],
        };
        assert!(exact_mismatches(&[record(1, 0.0)], &[record(1, 0.0), record(2, 5.0)]).is_empty());
        assert_eq!(
            exact_mismatches(&[record(1, 0.0)], &[record(1, 3.0)]).len(),
            1
        );
    }

    #[test]
    fn records_parse_from_run_output() {
        let line = r#"{"workload":"serve_b8","seed":3,"seconds":15,"trace":false,"metrics":{"ops_per_s":{"value":1000.5,"unit":"1/s"},"correct_pct":{"value":99.5,"unit":"%"}},"extras":{"ttd_requests":{"value":0.0,"unit":"count","exact":true},"latency_samples":{"value":9.0,"unit":"count","exact":false}}}"#;
        let record = Record::parse(line).expect("valid record");
        assert_eq!(record.workload, "serve_b8");
        assert_eq!((record.seed, record.seconds, record.trace), (3, 15, false));
        assert_eq!(record.metric("ops_per_s"), Some(1000.5));
        assert!(record.exact.contains(&("ttd_requests".to_owned(), 0.0)));
        assert!(record.exact.contains(&("correct_pct".to_owned(), 99.5)));
        assert_eq!(record.exact.len(), 2);
        assert!(Record::parse(r#"{"seed":1}"#).is_err());
    }
}
