//! Reproduces the Section VI.B Monte-Carlo detection-miss-rate study on a toy layer.

use radar_bench::experiments::detection::missrate;
use radar_bench::harness::{knob, parse_count};

fn main() {
    let trials = knob("RADAR_MISSRATE_TRIALS", parse_count).unwrap_or(200_000);
    missrate(trials).print_and_save("missrate_toy_layer");
}
