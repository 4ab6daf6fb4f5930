//! Measures the inference hot path — the float-shadow pipeline (fetch → model
//! write-back → dequantize-everything → float forward) against quantized-native
//! execution (fetch into an arena → integer GEMM forward) — on a single image and a
//! serve-shaped batch. Writes the human-readable table and
//! `artifacts/results/BENCH_infer.json` with one point per shape.
//!
//! `--smoke` runs the CI-sized shapes and **exits non-zero if the native path is
//! slower than the float path on the serve-shaped batch** — the regression gate
//! that keeps the integer kernels the fastest way to run the model.

use radar_bench::experiments::infer::{bench_infer, InferBenchParams};
use radar_bench::harness::write_artifact;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = if smoke {
        InferBenchParams::smoke()
    } else {
        InferBenchParams::default_run()
    };
    let outcome = bench_infer(&params);
    outcome.report().print_and_save("bench_infer");
    write_artifact("BENCH_infer.json", &outcome.to_json());

    if smoke {
        let serve = outcome.serve_point();
        if serve.native_seconds > serve.float_seconds {
            eprintln!(
                "[bench_infer] FAIL: quantized-native path ({:.2} ms) is slower than the \
                 float-shadow path ({:.2} ms) on the serve-shaped batch",
                serve.native_seconds * 1e3,
                serve.float_seconds * 1e3
            );
            std::process::exit(1);
        }
        eprintln!(
            "[bench_infer] smoke gate passed: native {:.2} ms vs float {:.2} ms ({:.2}x)",
            serve.native_seconds * 1e3,
            serve.float_seconds * 1e3,
            serve.speedup()
        );
    }
}
