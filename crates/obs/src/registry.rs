//! The metrics registry: counters and latency histograms, addressable by a small
//! label set and mergeable across threads.
//!
//! Hot paths write into a per-thread [`ObsShard`](crate::ObsShard) (no locks); the
//! shard's registry is folded into the session-wide one at existing barrier points.
//! Every merge is **associative and commutative** — shard flush order must not
//! change the merged output, and the `cross_thread_merge` tests pin that down —
//! which dictates the representations below: counters sum, histograms add bucket
//! counts.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::LatencyHistogram;

/// The label set metrics are addressed by. All fields are optional; `None` means
/// "not applicable", not "all".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct Labels {
    /// Serving worker index.
    pub worker: Option<u32>,
    /// Model layer index.
    pub layer: Option<u32>,
    /// Key epoch index.
    pub epoch: Option<u32>,
    /// Benchmark scenario / campaign cell name.
    pub scenario: Option<Cow<'static, str>>,
}

impl Labels {
    /// No labels at all (the common case for engine-wide metrics).
    #[must_use]
    pub fn none() -> Self {
        Labels::default()
    }

    /// Sets the worker label.
    #[must_use]
    pub fn worker(mut self, worker: u32) -> Self {
        self.worker = Some(worker);
        self
    }

    /// Sets the layer label.
    #[must_use]
    pub fn layer(mut self, layer: u32) -> Self {
        self.layer = Some(layer);
        self
    }

    /// Sets the epoch label.
    #[must_use]
    pub fn epoch(mut self, epoch: u32) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Sets the scenario label.
    #[must_use]
    pub fn scenario(mut self, scenario: impl Into<Cow<'static, str>>) -> Self {
        self.scenario = Some(scenario.into());
        self
    }

    /// Renders the labels as a deterministic `{k=v,…}` suffix (empty string when no
    /// label is set).
    #[must_use]
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(w) = self.worker {
            parts.push(format!("worker={w}"));
        }
        if let Some(l) = self.layer {
            parts.push(format!("layer={l}"));
        }
        if let Some(e) = self.epoch {
            parts.push(format!("epoch={e}"));
        }
        if let Some(s) = &self.scenario {
            parts.push(format!("scenario={s}"));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// A metric's identity: its name plus its label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct MetricKey {
    name: &'static str,
    labels: Labels,
}

/// The metrics registry: one instance per thread shard, one merged instance per
/// session. `BTreeMap` keys give every iteration (and every export) a
/// deterministic order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, LatencyHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Adds `n` to the counter at `(name, labels)`.
    pub fn add_counter(&mut self, name: &'static str, labels: Labels, n: u64) {
        *self.counters.entry(MetricKey { name, labels }).or_insert(0) += n;
    }

    /// Records a nanosecond sample into the histogram at `(name, labels)`.
    pub fn record_ns(&mut self, name: &'static str, labels: Labels, ns: u64) {
        self.histograms
            .entry(MetricKey { name, labels })
            .or_default()
            .record(ns);
    }

    /// Folds `other` into `self`. Associative and commutative, so shard flush order
    /// cannot change the merged registry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, n) in &other.counters {
            *self.counters.entry(key.clone()).or_insert(0) += n;
        }
        for (key, hist) in &other.histograms {
            self.histograms
                .entry(key.clone())
                .and_modify(|mine| mine.merge(hist))
                .or_insert_with(|| hist.clone());
        }
    }

    /// The counter at exactly `(name, labels)` (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str, labels: &Labels) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k.name == name && k.labels == *labels)
            .map_or(0, |(_, &n)| n)
    }

    /// Sum of the counter `name` across every label set.
    #[must_use]
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &n)| n)
            .sum()
    }

    /// All histograms named `name`, merged across label sets (empty when none).
    #[must_use]
    pub fn histogram_merged(&self, name: &str) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for (key, hist) in &self.histograms {
            if key.name == name {
                merged.merge(hist);
            }
        }
        merged
    }

    /// Renders every metric as one deterministic text line (`name{labels} value`),
    /// for reports and debugging.
    #[must_use]
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (key, n) in &self.counters {
            lines.push(format!("{}{} {n}", key.name, key.labels.render()));
        }
        for (key, hist) in &self.histograms {
            let mut line = String::new();
            let _ = write!(
                line,
                "{}{} p50 {:.0}ns p99 {:.0}ns (n {})",
                key.name,
                key.labels.render(),
                if hist.count() > 0 {
                    hist.quantile_ns(0.5)
                } else {
                    0.0
                },
                if hist.count() > 0 {
                    hist.quantile_ns(0.99)
                } else {
                    0.0
                },
                hist.count()
            );
            lines.push(line);
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_labels() {
        let mut r = MetricsRegistry::new();
        r.add_counter("x.calls", Labels::none().worker(0), 3);
        r.add_counter("x.calls", Labels::none().worker(1), 4);
        r.add_counter("y.calls", Labels::none(), 10);
        assert_eq!(r.counter("x.calls", &Labels::none().worker(0)), 3);
        assert_eq!(r.counter_sum("x.calls"), 7);
        assert_eq!(r.counter_sum("missing"), 0);
    }

    #[test]
    fn labels_render_deterministically() {
        let labels = Labels::none().worker(1).epoch(2).scenario("attack");
        assert_eq!(labels.render(), "{worker=1,epoch=2,scenario=attack}");
        assert_eq!(Labels::none().render(), "");
    }

    #[test]
    fn histograms_merge_across_labels() {
        let mut r = MetricsRegistry::new();
        r.record_ns("lat", Labels::none().worker(0), 1_000_000);
        r.record_ns("lat", Labels::none().worker(1), 2_000_000);
        assert_eq!(r.histogram_merged("lat").count(), 2);
        assert_eq!(r.histogram_merged("nope").count(), 0);
    }

    #[test]
    fn render_lines_are_stable() {
        let mut r = MetricsRegistry::new();
        r.add_counter("b.counter", Labels::none(), 1);
        r.add_counter("a.counter", Labels::none(), 2);
        r.record_ns("lat", Labels::none(), 1_000);
        let lines = r.render_lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a.counter"));
        assert!(lines[1].starts_with("b.counter"));
    }
}
