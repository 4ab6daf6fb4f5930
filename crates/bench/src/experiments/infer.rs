//! Inference-path benchmark: the float-shadow pipeline against quantized-native
//! execution, measured end to end per batch — weight fetch from the DRAM image
//! included, because that is what a serving worker pays every batch.
//!
//! * **float** — the pre-quantized-native pipeline: fetch every layer back into the
//!   `QuantizedModel`, dequantize the whole model into its float shadow, run the
//!   float forward ([`QuantizedModel::forward_float`]) — the fixed oracle baseline.
//! * **native** — the integer path: fetch every layer's bytes into a reusable
//!   arena ([`WeightDram::read_layer_into`]) and run the i8×i8/i32 GEMM forward
//!   straight off them ([`QuantizedModel::forward_with_values`]) on the calling
//!   thread, as one serve worker does.
//!
//! Two shapes are measured: a single image (the latency floor) and a serve-shaped
//! batch (the default `max_batch` of the serving engine). Results land in
//! `artifacts/results/BENCH_infer.json` with one point per shape; the `bench_infer`
//! binary's `--smoke` mode additionally *fails* when the native path loses to the
//! float path on the serve-shaped batch — CI's regression gate for the integer
//! kernels.

use radar_memsim::{DramGeometry, WeightDram};
use radar_nn::{resnet20, ResNetConfig};
use radar_obs::{set_global_level, JsonValue, ObsLevel, Stopwatch};
use radar_quant::QuantizedModel;
use radar_serve::ServeConfig;
use radar_tensor::{Tensor, GEMM_CALLS, GEMM_PANELS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;

/// Sizing of one inference benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferBenchParams {
    /// Timed passes per measured point (the median is reported).
    pub iters: usize,
    /// Input spatial size (square).
    pub image_size: usize,
}

impl InferBenchParams {
    /// The default run: CIFAR-sized inputs.
    pub fn default_run() -> Self {
        InferBenchParams {
            iters: 7,
            image_size: 32,
        }
    }

    /// The CI smoke run: smaller inputs, fewer passes — still large enough that the
    /// dequantize-everything sync dominates the float path.
    pub fn smoke() -> Self {
        InferBenchParams {
            iters: 3,
            image_size: 16,
        }
    }
}

/// One measured shape: the float baseline against the native path.
#[derive(Debug, Clone, PartialEq)]
pub struct InferPoint {
    /// Point name (`single_image` / `serve_batch`).
    pub name: &'static str,
    /// Batch size of the shape.
    pub batch: usize,
    /// Median seconds per fetch+forward on the float-shadow pipeline.
    pub float_seconds: f64,
    /// Median seconds per fetch+forward on the quantized-native path.
    pub native_seconds: f64,
    /// Integer-GEMM kernel invocations per native fetch+forward pass
    /// ([`GEMM_CALLS`]).
    pub gemm_calls: u64,
    /// Integer-GEMM 16-column tiles per native fetch+forward pass ([`GEMM_PANELS`]:
    /// one per column tile of each kernel call, every weight row running over it).
    pub gemm_panels: u64,
}

impl InferPoint {
    /// Float-path time over native-path time (> 1 means native wins).
    pub fn speedup(&self) -> f64 {
        self.float_seconds / self.native_seconds
    }
}

/// The full inference benchmark outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct InferBenchOutcome {
    /// Model identifier.
    pub model: String,
    /// Total quantized weights of the model.
    pub total_weights: usize,
    /// The run sizing.
    pub params: InferBenchParams,
    /// Per-shape measurements.
    pub points: Vec<InferPoint>,
}

/// Median wall-clock seconds of `iters` runs of `f` (one untimed warm-up first).
fn median_seconds(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
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

/// Runs the benchmark on the paper-width ResNet-20 (no training needed — latency
/// does not depend on the weight values).
pub fn bench_infer(params: &InferBenchParams) -> InferBenchOutcome {
    // Arm the kernel-side global counters so per-pass GEMM call/tile counts can
    // be attributed to each measured shape (the binary is single-session, so the
    // process-wide gate is unambiguous here).
    set_global_level(ObsLevel::Counters);
    let mut model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::resnet20_paper(10))));
    let dram = WeightDram::load(&model, DramGeometry::default());
    let total_weights = model.total_weights();
    let serve_batch = ServeConfig::default().max_batch;
    let mut rng = StdRng::seed_from_u64(0xBE9C);

    let mut points = Vec::new();
    for (name, batch) in [("single_image", 1usize), ("serve_batch", serve_batch)] {
        let x = Tensor::rand_normal(
            &mut rng,
            &[batch, 3, params.image_size, params.image_size],
            0.0,
            1.0,
        );
        eprintln!(
            "[bench_infer] {name}: batch {batch}, {} iters…",
            params.iters
        );

        // Float-shadow pipeline: fetch into the model, dequantize everything, float
        // forward — what a serving worker paid per batch before the native path.
        let float_seconds = median_seconds(params.iters, || {
            dram.fetch_into(&mut model);
            std::hint::black_box(model.forward_float(&x));
        });

        // Quantized-native: fetch into the arena, run the integer GEMM off it.
        let mut arena: Vec<Vec<i8>> = (0..model.num_layers()).map(|_| Vec::new()).collect();

        // One counted (untimed) pass attributes the kernel-side global counters
        // to this shape: GEMM invocations and column tiles per fetch+forward.
        GEMM_CALLS.reset();
        GEMM_PANELS.reset();
        for (layer, buf) in arena.iter_mut().enumerate() {
            dram.read_layer_into(layer, buf);
        }
        std::hint::black_box(model.forward_with_values(&arena, &x));
        let gemm_calls = GEMM_CALLS.reset();
        let gemm_panels = GEMM_PANELS.reset();

        let native_seconds = median_seconds(params.iters, || {
            for (layer, buf) in arena.iter_mut().enumerate() {
                dram.read_layer_into(layer, buf);
            }
            std::hint::black_box(model.forward_with_values(&arena, &x));
        });

        points.push(InferPoint {
            name,
            batch,
            float_seconds,
            native_seconds,
            gemm_calls,
            gemm_panels,
        });
    }

    InferBenchOutcome {
        model: "resnet20_paper_width".to_owned(),
        total_weights,
        params: *params,
        points,
    }
}

impl InferBenchOutcome {
    /// The serve-shaped batch point — the shape the CI gate is judged on.
    pub fn serve_point(&self) -> &InferPoint {
        self.points
            .iter()
            .find(|p| p.name == "serve_batch")
            .expect("serve_batch point is always measured")
    }

    /// Renders the measurement as a human-readable table: one row per shape.
    pub fn report(&self) -> Report {
        let mut report = Report::new(&format!(
            "Inference path — float-shadow vs quantized-native on {} ({} weights, {}x{} input, median of {})",
            self.model, self.total_weights, self.params.image_size, self.params.image_size,
            self.params.iters
        ));
        report.row(&[
            "shape".into(),
            "batch".into(),
            "float ms".into(),
            "native ms".into(),
            "speedup".into(),
        ]);
        for p in &self.points {
            report.row(&[
                p.name.into(),
                p.batch.to_string(),
                format!("{:.2}", p.float_seconds * 1e3),
                format!("{:.2}", p.native_seconds * 1e3),
                format!("{:.2}x", p.speedup()),
            ]);
        }
        report.line("per pass: full weight fetch from the DRAM image + forward, one thread");
        for p in &self.points {
            report.line(format!(
                "{}: {} integer-GEMM calls, {} 16-column tiles per native pass",
                p.name, p.gemm_calls, p.gemm_panels
            ));
        }
        report
    }

    /// The measurement as the `BENCH_infer.json` document.
    pub fn to_json(&self) -> JsonValue {
        let points: Vec<JsonValue> = self
            .points
            .iter()
            .map(|p| {
                JsonValue::object()
                    .with("name", p.name)
                    .with("batch", p.batch)
                    .with("float_seconds", p.float_seconds)
                    .with("native_seconds", p.native_seconds)
                    .with("speedup", p.speedup())
                    .with("gemm_calls", p.gemm_calls)
                    .with("gemm_panels", p.gemm_panels)
            })
            .collect();
        JsonValue::object()
            .with("model", self.model.as_str())
            .with("total_weights", self.total_weights)
            .with("image_size", self.params.image_size)
            .with("iters", self.params.iters)
            .with("points", points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_presets_are_sane() {
        let run = InferBenchParams::default_run();
        let smoke = InferBenchParams::smoke();
        assert!(run.iters >= smoke.iters);
        assert!(run.image_size > smoke.image_size);
    }

    #[test]
    fn speedup_is_float_over_native() {
        let p = InferPoint {
            name: "serve_batch",
            batch: 8,
            float_seconds: 0.2,
            native_seconds: 0.05,
            gemm_calls: 22,
            gemm_panels: 100,
        };
        assert!((p.speedup() - 4.0).abs() < 1e-12);
    }
}
