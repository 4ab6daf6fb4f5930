//! Regenerates every table and figure of the paper in one run. Intermediate artifacts
//! (trained checkpoints, attack profiles) are cached under `artifacts/`, so re-runs are
//! much faster than the first run.

use radar_bench::campaign::{self, ScenarioGrid};
use radar_bench::experiments::{characterize, detection, knowledgeable, recovery, timing};
use radar_bench::harness::{
    knob, parse_count, pbfa_profiles, prepare, write_artifact, Budget, ModelKind,
};
use radar_bench::serving;

fn main() {
    let budget = Budget::from_env();
    eprintln!("[run_all] budget: {budget:?}");

    // Platform-model experiments (cheap, no training needed).
    timing::table4().print_and_save("table4_time_overhead");
    timing::table5().print_and_save("table5_crc_comparison");
    detection::missrate(knob("RADAR_MISSRATE_TRIALS", parse_count).unwrap_or(200_000))
        .print_and_save("missrate_toy_layer");

    // Model-based experiments.
    for kind in [ModelKind::ResNet20Like, ModelKind::ResNet18Like] {
        let mut prepared = prepare(kind, budget);
        eprintln!(
            "[run_all] {} clean accuracy: {:.2}%",
            kind.name(),
            prepared.clean_accuracy
        );
        let profiles = pbfa_profiles(&mut prepared);
        characterize::table1(&prepared, &profiles).print_and_save(&format!("table1_{}", kind.id()));
        characterize::table2(&prepared, &profiles).print_and_save(&format!("table2_{}", kind.id()));
        characterize::fig2(&prepared, &profiles).print_and_save(&format!("fig2_{}", kind.id()));
        detection::fig4(&mut prepared).print_and_save(&format!("fig4_{}", kind.id()));
        recovery::table3(&mut prepared).print_and_save(&format!("table3_{}", kind.id()));
        recovery::fig6(&mut prepared, &profiles).print_and_save(&format!("fig6_{}", kind.id()));
    }

    // Section VIII experiments (ResNet-20 setting, as in the paper).
    let mut prepared = prepare(ModelKind::ResNet20Like, budget);
    knowledgeable::fig7(&mut prepared).print_and_save("fig7_knowledgeable");
    knowledgeable::msb1(&mut prepared).print_and_save("msb1_attack");

    // The full attack × defense scenario campaign (parallel engine).
    let grid = ScenarioGrid::paper_grid(ModelKind::ResNet20Like, &budget);
    let outcome = campaign::run(&mut prepared, &grid);
    outcome.report().print_and_save("campaign");
    write_artifact("BENCH_campaign.json", &outcome.to_json());

    // The online-serving timeline: RADAR against live traffic (radar-serve engine).
    let serve_outcome = serving::run(&mut prepared, &serving::ServeBenchParams::default_run());
    serve_outcome.report().print_and_save("serve");
    write_artifact("BENCH_serve.json", &serve_outcome.to_json());

    eprintln!("[run_all] done; reports are in artifacts/results/");
}
