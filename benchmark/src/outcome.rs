//! What one run reports, and how it is printed: `name value unit` lines, one
//! `record` line for `benchmark compare`, and the final JSON result line.

use crate::host::Host;
use crate::json::Json;
use crate::registry::{self, Metric, Workload};

/// A value reported beside the registry metrics (detection outcomes, sample
/// counts, secondary rates).
#[derive(Debug, Clone, PartialEq)]
pub struct Extra {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Whether the value is a pure function of the seed and run length (such values
    /// must be identical between two builds that claim the same behaviour).
    pub exact: bool,
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Registry metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra values.
    pub extras: Vec<Extra>,
    /// Operations attempted (requests submitted, audit rounds run).
    pub attempted: u64,
    /// Operations that did not complete correctly.
    pub failed: u64,
    /// Correctness gates that failed; any entry makes the run incorrect.
    pub failures: Vec<String>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(attempted: u64, failures: Vec<String>) -> Outcome {
        Outcome {
            attempted,
            failures,
            ..Outcome::default()
        }
    }

    /// Sets a registry metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(registry::metric(name).is_some(), "{name} is not registered");
        self.metrics.push((name, value));
    }

    /// Adds an extra value.
    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str, exact: bool) {
        self.extras.push(Extra {
            name,
            value,
            unit,
            exact,
        });
    }

    /// The value of a registry metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Whether every correctness gate held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Names of `declared` metrics this outcome lacks or reports as non-finite.
    #[cfg(test)]
    pub fn missing(&self, declared: &[Metric]) -> Vec<&'static str> {
        declared
            .iter()
            .filter(|m| !self.value(m.name).is_some_and(f64::is_finite))
            .map(|m| m.name)
            .collect()
    }

    /// Prints the run: human-readable lines, the `record` line, and the result
    /// JSON as the last line of standard output.
    pub fn print(&self, run: &RunInfo<'_>, declared: &[Metric]) {
        for failure in &self.failures {
            println!("FAILED {failure}");
        }
        for m in declared {
            println!(
                "{} {} {}",
                m.name,
                self.value(m.name).unwrap_or(f64::NAN),
                m.unit
            );
        }
        for e in &self.extras {
            println!("{} {} {}", e.name, e.value, e.unit);
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        println!("record {}", self.record(run, declared).render());
        println!("{}", self.result(declared).render());
    }

    fn metrics_json(&self, declared: &[Metric]) -> Json {
        declared.iter().fold(Json::obj(), |obj, m| {
            obj.with(
                m.name,
                Json::obj()
                    .with("value", Json::Num(self.value(m.name).unwrap_or(f64::NAN)))
                    .with("unit", Json::Str(m.unit.into())),
            )
        })
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result(&self, declared: &[Metric]) -> Json {
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Int(self.attempted.max(1)))
            .with("failed", Json::Int(self.failed))
            .with("metrics", self.metrics_json(declared))
    }

    /// The self-describing record `benchmark compare` reads.
    pub fn record(&self, run: &RunInfo<'_>, declared: &[Metric]) -> Json {
        let extras = self.extras.iter().fold(Json::obj(), |obj, e| {
            obj.with(
                e.name,
                Json::obj()
                    .with("value", Json::Num(e.value))
                    .with("unit", Json::Str(e.unit.into()))
                    .with("exact", Json::Bool(e.exact)),
            )
        });
        Json::obj()
            .with("workload", Json::Str(run.workload.name().into()))
            .with("seed", Json::Int(run.seed))
            .with("seconds", Json::Int(run.seconds))
            .with("trace", Json::Bool(run.trace))
            .with("fixtures_sha256", Json::Str(run.fixtures_sha256.into()))
            .with("host", run.host.json())
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Int(self.attempted))
            .with("failed", Json::Int(self.failed))
            .with("metrics", self.metrics_json(declared))
            .with("extras", extras)
    }
}

/// The identity of one run, printed with its record.
pub struct RunInfo<'a> {
    /// Workload.
    pub workload: Workload,
    /// Seed.
    pub seed: u64,
    /// Run length.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Fixture digest.
    pub fixtures_sha256: &'a str,
    /// Host fingerprint.
    pub host: &'a Host,
}
