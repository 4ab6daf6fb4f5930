//! Detection experiments: Fig. 4 (detected flips vs group size) and the Section VI.B
//! Monte-Carlo miss-rate study on a toy layer.

use radar_attack::AttackProfile;
use radar_core::{
    group_signature, GroupLayout, Grouping, RadarConfig, RadarProtection, SecretKey, SignatureBits,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::campaign::{self, AttackSpec, ScenarioGrid};
use crate::harness::Prepared;
use crate::report::Report;

/// Average number of injected flips that fall inside flagged groups, over all profiles.
pub fn average_detected(
    prepared: &mut Prepared,
    profiles: &[AttackProfile],
    config: RadarConfig,
) -> f64 {
    let radar = RadarProtection::new(&prepared.qmodel, config);
    let snapshot = prepared.qmodel.snapshot();
    let mut total = 0usize;
    for profile in profiles {
        profile.apply(&mut prepared.qmodel);
        let report = radar.detect(&prepared.qmodel);
        let locations: Vec<(usize, usize)> =
            profile.flips.iter().map(|f| (f.layer, f.weight)).collect();
        total += radar.count_covered(&report, &locations);
        prepared.qmodel.restore(&snapshot);
    }
    total as f64 / profiles.len().max(1) as f64
}

/// Fig. 4: detected bit-flips (out of `N_BF`) versus group size, with and without
/// interleaving — a thin view over a PBFA campaign row: one [`ScenarioGrid`] cell
/// per `(G, interleave)` pair, executed by the parallel campaign engine.
pub fn fig4(prepared: &mut Prepared) -> Report {
    let budget = prepared.budget;
    let attack = AttackSpec::Pbfa {
        n_bits: budget.n_bits,
    };
    let grid = ScenarioGrid {
        attacks: vec![attack],
        defenses: prepared
            .kind
            .group_sweep()
            .iter()
            .flat_map(|&g| {
                [
                    RadarConfig::without_interleave(g),
                    RadarConfig::paper_default(g),
                ]
            })
            .collect(),
        rounds: budget.rounds,
        base_seed: 0xF164_0004,
        evaluate_accuracy: false,
    };
    let outcome = campaign::run(prepared, &grid);

    let mut report = Report::new(&format!(
        "Fig. 4 — detected bit-flips out of {} ({}, {} rounds)",
        budget.n_bits,
        prepared.kind.name(),
        grid.rounds
    ));
    report.row(&["G".into(), "w/o interleave".into(), "interleave".into()]);
    for &g in prepared.kind.group_sweep() {
        let cell = |interleaved: bool| {
            outcome
                .find(&attack, g, interleaved)
                .expect("grid covers every (G, interleave) pair")
                .avg_flips_detected
        };
        report.row(&[
            g.to_string(),
            format!("{:.2}", cell(false)),
            format!("{:.2}", cell(true)),
        ]);
    }
    report
}

/// Section VI.B: Monte-Carlo detection miss rate on a 512-weight toy layer under 10
/// random MSB flips per round.
pub fn missrate(trials: usize) -> Report {
    let mut report = Report::new(&format!(
        "Section VI.B — MSB-flip detection miss rate on a 512-weight layer ({trials} rounds)"
    ));
    report.row(&["G".into(), "round undetected".into(), "flips missed".into()]);

    let mut rng = StdRng::seed_from_u64(0xB17F);
    for &g in &[16usize, 32] {
        let layout = GroupLayout::new(512, g, Grouping::interleaved());
        let key = SecretKey::random(&mut rng);
        let mut undetected_rounds = 0usize;
        let mut missed_flips = 0usize;
        let mut weights = vec![0i8; 512];
        let mut indices: Vec<usize> = (0..512).collect();
        for _ in 0..trials {
            for w in &mut weights {
                *w = rng.gen::<i8>();
            }
            // Golden signatures.
            let golden: Vec<u8> = (0..layout.num_groups())
                .map(|grp| {
                    let vals: Vec<i8> = layout.members(grp).iter().map(|&i| weights[i]).collect();
                    group_signature(&vals, &key, SignatureBits::Two)
                })
                .collect();
            // 10 random distinct MSB flips.
            indices.shuffle(&mut rng);
            for &i in indices.iter().take(10) {
                weights[i] = (weights[i] as u8 ^ 0x80) as i8;
            }
            // Re-check.
            let mut any_flagged = false;
            let mut flagged = vec![false; layout.num_groups()];
            for (grp, &gold) in golden.iter().enumerate() {
                let vals: Vec<i8> = layout.members(grp).iter().map(|&i| weights[i]).collect();
                if group_signature(&vals, &key, SignatureBits::Two) != gold {
                    flagged[grp] = true;
                    any_flagged = true;
                }
            }
            if !any_flagged {
                undetected_rounds += 1;
            }
            missed_flips += indices
                .iter()
                .take(10)
                .filter(|&&i| !flagged[layout.group_of(i)])
                .count();
        }
        report.row(&[
            g.to_string(),
            format!("{:.2e}", undetected_rounds as f64 / trials as f64),
            format!("{:.2e}", missed_flips as f64 / (trials * 10) as f64),
        ]);
    }
    report
}
