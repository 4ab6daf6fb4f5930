//! Runs the attack × defense scenario campaign: every cell of a declarative
//! [`ScenarioGrid`] executed across a pool of worker threads, writing the per-cell
//! table to `artifacts/results/campaign.txt` and the machine-readable
//! `artifacts/results/BENCH_campaign.json`.
//!
//! Environment knobs on top of the usual [`Budget`] variables:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `RADAR_CAMPAIGN` | `paper` (≥ 24 cells) or `smoke` (≤ 8 cells) | `paper` |
//! | `RADAR_CAMPAIGN_MODEL` | `resnet20` or `resnet18` | `resnet20` |
//! | `RADAR_CAMPAIGN_ROUNDS` | override rounds per cell | grid default |

use radar_bench::campaign::{self, ScenarioGrid};
use radar_bench::harness::{knob, one_of, parse_count, prepare, write_artifact, Budget, ModelKind};

fn main() {
    let budget = Budget::from_env();
    let kind = ModelKind::from_env("RADAR_CAMPAIGN_MODEL");
    let mut grid = match knob("RADAR_CAMPAIGN", |raw| one_of(raw, &["paper", "smoke"])) {
        Some("smoke") => ScenarioGrid::smoke(kind, &budget),
        _ => ScenarioGrid::paper_grid(kind, &budget),
    };
    if let Some(rounds) = knob("RADAR_CAMPAIGN_ROUNDS", parse_count) {
        grid.rounds = rounds;
    }
    eprintln!(
        "[run_campaign] {} cells ({} attacks × {} defenses) on {}, {} rounds/cell, {} threads",
        grid.num_cells(),
        grid.attacks.len(),
        grid.defenses.len(),
        kind.name(),
        grid.rounds,
        budget.threads
    );

    let mut prepared = prepare(kind, budget);
    let outcome = campaign::run(&mut prepared, &grid);
    outcome.report().print_and_save("campaign");
    write_artifact("BENCH_campaign.json", &outcome.to_json());
}
