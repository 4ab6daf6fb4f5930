//! Verification-throughput experiment: the storage-order verify sweep over a whole
//! model (`detect`), and the fused fetch-and-verify kernel against its two-pass
//! copy-then-verify baseline, measured on the ResNet-18-like model. This is the
//! in-repo evidence for the paper's fetch-path framing (Table IV): verification must
//! keep up with the weight-fetch stream, so detect throughput — not just detection
//! accuracy — is a tracked number.
//!
//! Besides the human-readable report, the experiment writes
//! `artifacts/results/BENCH_verify.json` so CI can archive the throughput trajectory
//! across commits.

use radar_core::{DetectionReport, RadarConfig, RadarProtection, VERIFY_SWEEPS};
use radar_memsim::{DramGeometry, WeightDram};
use radar_nn::{resnet18, ResNetConfig};
use radar_obs::{set_global_level, ObsLevel, Stopwatch};
use radar_quant::QuantizedModel;

use crate::harness::{artifacts_dir, Budget};
use crate::report::Report;

/// Group sizes measured (the paper's ResNet-18 Table IV point plus one smaller size).
const GROUP_SIZES: [usize; 2] = [128, 512];

/// The two-step weight-fetch baseline: copy every layer out of DRAM, then verify
/// the copy through the value kernel — what a fetch without the fused kernel pays
/// per batch.
fn split_fetch_verify(
    radar: &RadarProtection,
    dram: &WeightDram,
    layers: &mut [Vec<i8>],
    acc: &mut Vec<i32>,
) -> DetectionReport {
    let mut report = DetectionReport::default();
    for (layer, buf) in layers.iter_mut().enumerate() {
        dram.read_layer_into(layer, buf);
        report.merge(&radar.verify_layer_values_with_scratch(layer, buf, acc));
    }
    report
}

/// The fused fetch-and-verify kernel: per layer, the DRAM bytes are copied out and
/// the cache-hot copy is verified in the same call — what the shared-snapshot build
/// pays per batch.
fn fused_fetch_verify(
    radar: &RadarProtection,
    dram: &WeightDram,
    layers: &mut [Vec<i8>],
    acc: &mut Vec<i32>,
) -> DetectionReport {
    let epoch = radar.current_epoch();
    let mut report = DetectionReport::default();
    for (layer, buf) in layers.iter_mut().enumerate() {
        report.merge(&radar.fetch_verify_layer_at_epoch_with_scratch(
            epoch,
            layer,
            dram.layer_bytes(layer),
            buf,
            acc,
        ));
    }
    report
}

/// Median wall-clock seconds of `iters` runs of `f`.
fn median_seconds(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let start = Stopwatch::start();
            f();
            start.elapsed_secs()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One measured group-size point.
struct Measurement {
    group_size: usize,
    /// Full-model `detect` over in-memory values.
    detect_seconds: f64,
    /// Full-model copy-then-verify from DRAM (the unfused two-pass baseline).
    split_fetch_seconds: f64,
    /// Full-model fused copy-and-verify from DRAM (the snapshot build kernel).
    fused_fetch_seconds: f64,
    /// [`VERIFY_SWEEPS`] per detect pass (one per layer — pinned by the counter so
    /// a second sweep sneaking into the pass shows up in the artifact).
    sweeps: u64,
}

impl Measurement {
    /// Speedup of the fused fetch-and-verify over the two-pass fetch baseline.
    fn fused_speedup(&self) -> f64 {
        self.split_fetch_seconds / self.fused_fetch_seconds
    }
}

/// Runs the verification-throughput comparison and writes the JSON artifact.
///
/// The model is the ResNet-18-like architecture at base width 32 (~2.8 M weights —
/// a quarter of real ResNet-18's 11 M, against the width-8 ~177 k-weight variant the
/// accuracy experiments train), so one pass spans a working set beyond L2; weights
/// are untrained because detect throughput is independent of weight values.
pub fn bench_verify(budget: &Budget) -> Report {
    // Arm the kernel-side global counters so sweep counts can be attributed per
    // detect pass (single-session binary; the process-wide gate is unambiguous).
    set_global_level(ObsLevel::Counters);
    let model = QuantizedModel::new(Box::new(resnet18(&ResNetConfig::new(20, 32, 3, 18))));
    let total_weights = model.total_weights();
    let iters = budget.verify_iters;

    let mut report = Report::new("Verification throughput — detect, split and fused fetch");
    report.line(format!(
        "ResNet-18-like model, {total_weights} weights, median of {iters} passes"
    ));
    report.row(&[
        "G".into(),
        "detect (ms)".into(),
        "split (ms)".into(),
        "fused (ms)".into(),
        "fused speedup".into(),
    ]);

    let dram = WeightDram::load(&model, DramGeometry::default());
    let mut layers: Vec<Vec<i8>> = vec![Vec::new(); dram.num_layers()];
    let mut acc: Vec<i32> = Vec::new();
    let mut measurements = Vec::new();
    for g in GROUP_SIZES {
        let radar = RadarProtection::new(&model, RadarConfig::paper_default(g));
        // Sanity: all paths agree on the clean model before being timed.
        assert!(!radar.detect(&model).attack_detected());
        assert!(!split_fetch_verify(&radar, &dram, &mut layers, &mut acc).attack_detected());
        assert!(!fused_fetch_verify(&radar, &dram, &mut layers, &mut acc).attack_detected());

        let detect_seconds = median_seconds(iters, || {
            std::hint::black_box(radar.detect(&model));
        });
        let split_fetch_seconds = median_seconds(iters, || {
            std::hint::black_box(split_fetch_verify(&radar, &dram, &mut layers, &mut acc));
        });
        let fused_fetch_seconds = median_seconds(iters, || {
            std::hint::black_box(fused_fetch_verify(&radar, &dram, &mut layers, &mut acc));
        });

        // One counted (untimed) pass attributes the sweep counter to this point.
        VERIFY_SWEEPS.reset();
        std::hint::black_box(radar.detect(&model));
        let sweeps = VERIFY_SWEEPS.reset();

        let m = Measurement {
            group_size: g,
            detect_seconds,
            split_fetch_seconds,
            fused_fetch_seconds,
            sweeps,
        };
        report.row(&[
            format!("{g}"),
            format!("{:.3}", m.detect_seconds * 1e3),
            format!("{:.3}", m.split_fetch_seconds * 1e3),
            format!("{:.3}", m.fused_fetch_seconds * 1e3),
            format!("{:.2}x", m.fused_speedup()),
        ]);
        measurements.push(m);
    }

    if let Some(m) = measurements.first() {
        report.line(format!(
            "{} layer sweeps per detect pass (VERIFY_SWEEPS)",
            m.sweeps
        ));
    }
    write_json(total_weights, iters, &measurements);
    report
}

/// Serializes the measurements as `artifacts/results/BENCH_verify.json` (hand-rolled:
/// the workspace carries no JSON dependency).
fn write_json(total_weights: usize, iters: usize, measurements: &[Measurement]) {
    let points: Vec<String> = measurements
        .iter()
        .map(|m| {
            format!(
                concat!(
                    "    {{\"group_size\": {}, \"detect_seconds\": {:.9}, ",
                    "\"split_fetch_seconds\": {:.9}, \"fused_fetch_seconds\": {:.9}, ",
                    "\"fused_speedup\": {:.3}, \"sweeps_per_pass\": {}}}"
                ),
                m.group_size,
                m.detect_seconds,
                m.split_fetch_seconds,
                m.fused_fetch_seconds,
                m.fused_speedup(),
                m.sweeps,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"model\": \"resnet18-like\",\n  \"total_weights\": {},\n  \
         \"iters\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        total_weights,
        iters,
        points.join(",\n")
    );
    let path = artifacts_dir().join("results").join("BENCH_verify.json");
    std::fs::write(&path, json).expect("artifact results directory is writable");
    eprintln!("[bench_verify] wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_nn::resnet20;
    use radar_quant::MSB;

    #[test]
    fn split_and_fused_fetch_paths_agree_on_a_corrupted_dram_image() {
        let model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))));
        let radar = RadarProtection::new(&model, RadarConfig::paper_default(32));
        let mut dram = WeightDram::load(&model, DramGeometry::default());
        dram.flip_bit(dram.offset_of(1, 7), MSB);
        dram.flip_bit(dram.offset_of(5, 0), MSB);

        let mut layers = vec![Vec::new(); dram.num_layers()];
        let mut acc = Vec::new();
        let split = split_fetch_verify(&radar, &dram, &mut layers, &mut acc);
        let split_bytes = layers.clone();
        let fused = fused_fetch_verify(&radar, &dram, &mut layers, &mut acc);
        assert!(fused.attack_detected());
        assert_eq!(
            split, fused,
            "the fused sweep must flag exactly what split does"
        );
        assert_eq!(
            split_bytes, layers,
            "the fused copy must produce the same bytes"
        );
    }

    #[test]
    fn median_of_constant_work_is_finite_and_positive() {
        let t = median_seconds(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t.is_finite() && t >= 0.0);
    }
}
