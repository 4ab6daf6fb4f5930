//! The benchmark's registry: its workloads and every metric it reports, with units,
//! direction and regression bounds. `BENCHMARK.json` at the repository root must
//! declare exactly these (a test parses it and compares).

use std::fmt;

/// Seconds one run measures unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 15;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, accuracy).
    Higher,
    /// Smaller is better (latency, time, memory).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as printed and as keyed in the JSON record.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the metric may
    /// worsen before a change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// Whether the value is a pure function of the seed and run length, so two
    /// builds that claim the same behaviour must report it identically.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

impl Metric {
    const fn exact(self) -> Metric {
        Metric {
            exact: true,
            ..self
        }
    }
}

/// End-to-end metrics, reported by every workload with tracing off. An
/// "operation" is one request on the serve workloads and one audit round on
/// `audit_r18`.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("op_p95_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
    e2e("correct_pct", "%", Better::Higher, 0.03).exact(),
];

/// Per-layer metrics, reported by every workload's traced run. Layers are the
/// workspace crates; the prefix names the crate.
pub const PER_LAYER: [Metric; 22] = [
    layer("serve.ticket_wait_share", "share", Better::Lower),
    layer("serve.snapshot_build_ms", "ms", Better::Lower),
    layer("serve.infer_ms", "ms", Better::Lower),
    layer("serve.scrub_ms", "ms", Better::Lower),
    layer("serve.batch_size_mean", "count", Better::Higher),
    layer("serve.snapshot_reclaim_ratio", "ratio", Better::Higher),
    layer("serve.verify_duty_pct", "%", Better::Lower),
    layer("obs.trace_overhead_pct", "%", Better::Lower),
    layer("core.sign_ms", "ms", Better::Lower),
    layer("core.fetch_verify_ms", "ms", Better::Lower),
    layer("core.verify_gbps", "GB/s", Better::Higher),
    layer("core.verify_sweeps", "count", Better::Lower),
    layer("core.recover_ms", "ms", Better::Lower),
    layer("core.resign_ms", "ms", Better::Lower),
    layer("memsim.fetch_gbps", "GB/s", Better::Higher),
    layer("memsim.mount_ms", "ms", Better::Lower),
    layer("memsim.load_ms", "ms", Better::Lower),
    layer("nn.load_ms", "ms", Better::Lower),
    layer("quant.quantize_ms", "ms", Better::Lower),
    layer("quant.forward_ms", "ms", Better::Lower),
    layer("tensor.gemm_calls", "count", Better::Lower),
    layer("tensor.gemm_panels", "count", Better::Lower),
];

/// Looks a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop serving of the trained ResNet-20 at batch 8.
    ServeB8,
    /// Closed-loop serving of the trained ResNet-20 at batch 1.
    ServeB1,
    /// Batch-8 serving under scripted PBFA strikes with key rotation.
    AttackRotate,
    /// Integrity audit of the paper-width ResNet-18: flip, verify, recover.
    AuditR18,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeB8,
        Workload::ServeB1,
        Workload::AttackRotate,
        Workload::AuditR18,
    ];

    /// The workload's name on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeB8 => "serve_b8",
            Workload::ServeB1 => "serve_b1",
            Workload::AttackRotate => "attack_rotate",
            Workload::AuditR18 => "audit_r18",
        }
    }

    /// Why the workload is in the benchmark (the `BENCHMARK.json` `why`).
    #[cfg(test)]
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeB8 => {
                "closed-loop serving at batch 8: the integer GEMM forward does ~97% of the work, so forward changes show and verify or sync changes should not"
            }
            Workload::ServeB1 => {
                "closed-loop serving at batch 1: every request pays a fused fetch+verify, a ticket handoff and a snapshot publish, so verify and sync changes show first"
            }
            Workload::AttackRotate => {
                "batch-8 traffic with 4 PBFA strikes, a key-rotation tick every 2 batches and a scrub every batch: recovery and re-sign writes contend with reads"
            }
            Workload::AuditR18 => {
                "paper-width ResNet-18 (11.2M weights, G=512), no inference: rounds of 10 MSB flips, full fused verify and recovery over a working set beyond L2"
            }
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_obs::JsonValue;

    fn benchmark_json() -> JsonValue {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
        value
            .get(key)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn check_metrics(declared: &JsonValue, registry: &[Metric]) {
        let declared = declared.as_array().expect("metric list");
        assert_eq!(declared.len(), registry.len(), "metric count");
        for (json, metric) in declared.iter().zip(registry) {
            assert_eq!(field(json, "name").as_str(), Some(metric.name));
            assert_eq!(field(json, "unit").as_str(), Some(metric.unit));
            assert_eq!(field(json, "better").as_str(), Some(metric.better.as_str()));
            assert_eq!(json.get("bound").and_then(JsonValue::as_f64), metric.bound);
        }
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let doc = benchmark_json();
        let workloads = field(&doc, "workloads").as_array().expect("workload list");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (json, workload) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(json, "name").as_str(), Some(workload.name()));
            assert_eq!(field(json, "why").as_str(), Some(workload.why()));
        }
        check_metrics(field(&doc, "end_to_end"), &END_TO_END);
        check_metrics(field(&doc, "per_layer"), &PER_LAYER);
        assert_eq!(
            field(&doc, "run_seconds").as_f64(),
            Some(RUN_SECONDS as f64)
        );
    }

    #[test]
    fn names_are_unique_and_setup_is_declared() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        let setup = metric("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
    }
}
