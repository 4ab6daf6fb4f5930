//! Measures full-model verification throughput — whole-model `detect`, and the
//! fused fetch-and-verify kernel against its two-step baseline — on the
//! ResNet-18-like model. Writes the human-readable table and
//! `artifacts/results/BENCH_verify.json`.

use radar_bench::experiments::verify;
use radar_bench::harness::Budget;

fn main() {
    let budget = Budget::from_env();
    verify::bench_verify(&budget).print_and_save("bench_verify");
}
