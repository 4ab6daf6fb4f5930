//! Runs the key-rotation benchmark: the key-learning study (brute-forcing static
//! per-layer keys from golden signatures, constructing stale evasions) plus the
//! static-vs-rotating serving scenarios with a full epoch roll under live traffic.
//! Writes the table to `artifacts/results/rotation.txt` and the machine-readable
//! `artifacts/results/BENCH_rotation.json`.
//!
//! `--smoke` selects the CI-sized timeline (one rotation tick per batch, just enough
//! traffic for a full roll). The usual [`Budget`] and `RADAR_SERVE_*` environment
//! knobs apply.

use radar_bench::harness::{prepare, write_artifact, Budget, ModelKind};
use radar_bench::rotation::{self, RotationBenchParams};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = Budget::from_env();
    let kind = ModelKind::from_env("RADAR_SERVE_MODEL");
    let params = if smoke {
        RotationBenchParams::smoke()
    } else {
        RotationBenchParams::default_run()
    };
    eprintln!(
        "[run_rotation] rotate_every {} on {} ({})",
        params.rotate_every,
        kind.name(),
        if smoke { "smoke" } else { "default" }
    );

    let mut prepared = prepare(kind, budget);
    let outcome = rotation::run(&mut prepared, &params);
    outcome.report().print_and_save("rotation");
    write_artifact("BENCH_rotation.json", &outcome.to_json());
}
