//! The parallel scenario-campaign engine.
//!
//! The paper evaluates RADAR across a grid of scenarios — attack type × group size ×
//! interleaving × masking × signature width (Tables III–V, Figs. 4/7) — and the repo
//! historically ran each cell as a hand-rolled single-threaded binary. This module
//! turns that inside out: a [`ScenarioGrid`] *declares* the attack × defense product,
//! [`run`] executes the cells across a pool of worker threads (each owning its own
//! model replica, rebuilt from the shared checkpoint), and the per-cell results land
//! in one [`CampaignOutcome`] that is rendered as a table and serialized to
//! `artifacts/results/BENCH_campaign.json`. The figure/table experiments are thin
//! views over campaign cells.
//!
//! Every cell carries a deterministic seed derived from the grid's base seed and the
//! cell index, so results are reproducible regardless of worker count or scheduling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use radar_attack::{
    AttackProfile, BitFlip, KnowledgeableAttacker, Pbfa, PbfaConfig, RandomBitFlip,
};
use radar_core::{Grouping, RadarConfig, RadarProtection};
use radar_data::Dataset;
use radar_memsim::{DramGeometry, RowhammerInjector, WeightDram};
use radar_obs::{JsonValue, Labels, MetricsRegistry, Stopwatch};
use radar_quant::{QuantizedModel, WeightSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{artifacts_dir, fresh_model, pbfa_profiles, Prepared};
use crate::profile_cache;
use crate::report::Report;

/// One attack family of the paper's threat model, as a campaign axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackSpec {
    /// Unrestricted PBFA, truncated to the first `n_bits` flips of each cached profile.
    Pbfa {
        /// Flips applied per round.
        n_bits: usize,
    },
    /// The Section VIII MSB-1-restricted PBFA ("avoid flipping MSB").
    Msb1 {
        /// Flips applied per round.
        n_bits: usize,
    },
    /// The Section VIII knowledgeable attacker (paired flips); it assumes the
    /// defense's own group size, so profiles are generated per defense `G`.
    Knowledgeable,
    /// The random-fault baseline: uniformly random bit flips.
    RandomFlips {
        /// Flips injected per round.
        n_bits: usize,
    },
    /// A PBFA profile mounted through the DRAM model by rowhammer with a per-flip
    /// success probability — the run-time threat-model pipeline.
    Rowhammer {
        /// Per-flip success probability in `[0, 1]`.
        success_rate: f64,
        /// Flips attempted per round.
        n_bits: usize,
    },
}

impl AttackSpec {
    /// Stable identifier used in reports, JSON and cell lookups.
    pub fn label(&self) -> String {
        match self {
            AttackSpec::Pbfa { n_bits } => format!("pbfa_n{n_bits}"),
            AttackSpec::Msb1 { n_bits } => format!("msb1_n{n_bits}"),
            AttackSpec::Knowledgeable => "knowledgeable".to_owned(),
            AttackSpec::RandomFlips { n_bits } => format!("random_n{n_bits}"),
            AttackSpec::Rowhammer {
                success_rate,
                n_bits,
            } => format!("rowhammer_p{:02}_n{n_bits}", (success_rate * 100.0) as u32),
        }
    }
}

/// Key of the shared precomputed-profile map: which cached profile set a cell reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ProfileKey {
    Pbfa,
    Msb1(usize),
    Knowledgeable(usize),
}

/// A declarative attack × defense grid plus the execution budget of each cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// Attack axis.
    pub attacks: Vec<AttackSpec>,
    /// Defense axis (each entry is one full RADAR configuration).
    pub defenses: Vec<RadarConfig>,
    /// Attack rounds averaged per cell.
    pub rounds: usize,
    /// Base seed from which every cell derives its deterministic seed.
    pub base_seed: u64,
    /// Whether cells evaluate model accuracy (attacked and recovered) — the expensive
    /// part of a cell; detection-only views switch it off.
    pub evaluate_accuracy: bool,
}

/// One executable cell of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Position in the grid's row-major (attack-major) cell order.
    pub index: usize,
    /// The attack of this cell.
    pub attack: AttackSpec,
    /// The defense of this cell.
    pub defense: RadarConfig,
    /// Deterministic seed (stable under any worker count or scheduling).
    pub seed: u64,
}

impl ScenarioGrid {
    /// The paper-shaped campaign for `kind`: five attack families against the model's
    /// Table III group sizes with and without interleaving, plus masking-off and
    /// 3-bit-signature ablations on the middle group size — 5 × 8 = 40 cells.
    pub fn paper_grid(kind: crate::harness::ModelKind, budget: &crate::harness::Budget) -> Self {
        let n = budget.n_bits;
        let groups = kind.table3_groups();
        let mid = groups[groups.len() / 2];
        let mut defenses = Vec::new();
        for &g in groups {
            defenses.push(RadarConfig::without_interleave(g));
            defenses.push(RadarConfig::paper_default(g));
        }
        defenses.push(RadarConfig::paper_default(mid).with_masking(false));
        defenses.push(RadarConfig::paper_default(mid).with_three_bit_signature());
        ScenarioGrid {
            attacks: vec![
                AttackSpec::Pbfa { n_bits: n },
                AttackSpec::Msb1 { n_bits: 2 * n },
                AttackSpec::Knowledgeable,
                AttackSpec::RandomFlips { n_bits: n },
                AttackSpec::Rowhammer {
                    success_rate: 0.75,
                    n_bits: n,
                },
            ],
            defenses,
            rounds: budget.rounds.clamp(1, 2),
            base_seed: 0xCA4A_16E0,
            evaluate_accuracy: true,
        }
    }

    /// A ≤ 8-cell smoke grid for CI: two cheap attacks against four defenses, one
    /// round, no accuracy evaluation.
    pub fn smoke(kind: crate::harness::ModelKind, budget: &crate::harness::Budget) -> Self {
        let n = budget.n_bits;
        let groups = kind.table3_groups();
        let (g_lo, g_hi) = (groups[0], groups[groups.len() - 1]);
        ScenarioGrid {
            attacks: vec![
                AttackSpec::Pbfa { n_bits: n },
                AttackSpec::RandomFlips { n_bits: n },
            ],
            defenses: vec![
                RadarConfig::without_interleave(g_lo),
                RadarConfig::paper_default(g_lo),
                RadarConfig::paper_default(g_hi),
                RadarConfig::paper_default(g_hi).with_masking(false),
            ],
            rounds: 1,
            base_seed: 0xCA4A_16E0,
            evaluate_accuracy: false,
        }
    }

    /// Number of cells in the grid.
    pub fn num_cells(&self) -> usize {
        self.attacks.len() * self.defenses.len()
    }

    /// Materializes the attack-major cell list with deterministic per-cell seeds.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.num_cells());
        for (ai, &attack) in self.attacks.iter().enumerate() {
            for (di, &defense) in self.defenses.iter().enumerate() {
                let index = ai * self.defenses.len() + di;
                // SplitMix64-style spread of the index over the seed space.
                let seed = self
                    .base_seed
                    .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                cells.push(Cell {
                    index,
                    attack,
                    defense,
                    seed,
                });
            }
        }
        cells
    }
}

/// Aggregated result of one campaign cell (averaged over the grid's rounds).
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Attack label ([`AttackSpec::label`]).
    pub attack: String,
    /// Defense group size `G`.
    pub group_size: usize,
    /// Whether the defense interleaves groups.
    pub interleaved: bool,
    /// Whether the defense applies secret-key masking.
    pub masking: bool,
    /// Signature width in bits (2 or 3).
    pub signature_bits: u32,
    /// The cell's deterministic seed.
    pub seed: u64,
    /// Rounds averaged.
    pub rounds: usize,
    /// Mean bit flips actually mounted per round.
    pub avg_flips: f64,
    /// Mean mounted flips that landed inside flagged groups.
    pub avg_flips_detected: f64,
    /// `avg_flips_detected / avg_flips` (0 when no flip was mounted).
    pub detection_rate: f64,
    /// Mean groups flagged by detection.
    pub avg_groups_flagged: f64,
    /// Mean groups zeroed by recovery.
    pub avg_groups_zeroed: f64,
    /// Mean weights zeroed by recovery.
    pub avg_weights_zeroed: f64,
    /// Mean test accuracy (percent) after the attack, before recovery.
    pub accuracy_attacked: Option<f64>,
    /// Mean test accuracy (percent) after detect + zero-out recovery.
    pub accuracy_recovered: Option<f64>,
    /// Wall-clock seconds this cell took (all rounds).
    pub wall_seconds: f64,
}

/// The result of one campaign run: every cell in grid order plus run-level context.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Model identifier (`resnet20` / `resnet18`).
    pub model: String,
    /// Clean test accuracy of the shared model, in percent.
    pub clean_accuracy: f64,
    /// Worker threads the cells were executed on.
    pub threads: usize,
    /// Rounds per cell.
    pub rounds: usize,
    /// Accuracy-evaluation samples per measurement (0 when accuracy was skipped).
    pub eval_samples: usize,
    /// Wall-clock seconds of the whole campaign.
    pub total_seconds: f64,
    /// Per-cell results in grid (attack-major) order.
    pub cells: Vec<CellResult>,
    /// The merged [`MetricsRegistry`] of every campaign worker, rendered as
    /// deterministic text lines (per-cell wall-time histograms keyed by the
    /// attack's scenario label, round counters, the campaign total).
    pub metrics: Vec<String>,
}

impl CampaignOutcome {
    /// The cell of `(attack, group_size, interleaved)`, ignoring the masking and
    /// signature-width ablations (first match in grid order).
    pub fn find(
        &self,
        attack: &AttackSpec,
        group_size: usize,
        interleaved: bool,
    ) -> Option<&CellResult> {
        let label = attack.label();
        self.cells.iter().find(|c| {
            c.attack == label && c.group_size == group_size && c.interleaved == interleaved
        })
    }

    /// Renders the campaign as a human-readable table.
    pub fn report(&self) -> Report {
        let mut report = Report::new(&format!(
            "Scenario campaign — {} cells on {} ({} rounds/cell, {} threads, clean {:.2}%)",
            self.cells.len(),
            self.model,
            self.rounds,
            self.threads,
            self.clean_accuracy
        ));
        report.row(&[
            "attack".into(),
            "G".into(),
            "int".into(),
            "mask".into(),
            "bits".into(),
            "flips".into(),
            "det".into(),
            "rate".into(),
            "zeroed".into(),
            "acc atk".into(),
            "acc rec".into(),
            "wall (s)".into(),
        ]);
        let fmt_acc = |a: Option<f64>| a.map_or("-".to_owned(), |v| format!("{v:.2}%"));
        for c in &self.cells {
            report.row(&[
                c.attack.clone(),
                c.group_size.to_string(),
                if c.interleaved { "yes" } else { "no" }.into(),
                if c.masking { "yes" } else { "no" }.into(),
                c.signature_bits.to_string(),
                format!("{:.1}", c.avg_flips),
                format!("{:.1}", c.avg_flips_detected),
                format!("{:.2}", c.detection_rate),
                format!("{:.1}", c.avg_groups_zeroed),
                fmt_acc(c.accuracy_attacked),
                fmt_acc(c.accuracy_recovered),
                format!("{:.3}", c.wall_seconds),
            ]);
        }
        report.line(format!("total wall clock: {:.2}s", self.total_seconds));
        if !self.metrics.is_empty() {
            report.line("registry:");
            for line in &self.metrics {
                report.line(format!("  {line}"));
            }
        }
        report
    }

    /// The campaign as the `BENCH_campaign.json` document.
    pub fn to_json(&self) -> JsonValue {
        let cells: Vec<JsonValue> = self
            .cells
            .iter()
            .map(|c| {
                JsonValue::object()
                    .with("attack", c.attack.as_str())
                    .with("group_size", c.group_size)
                    .with("interleaved", c.interleaved)
                    .with("masking", c.masking)
                    .with("signature_bits", c.signature_bits)
                    .with("seed", c.seed)
                    .with("rounds", c.rounds)
                    .with("avg_flips", c.avg_flips)
                    .with("avg_flips_detected", c.avg_flips_detected)
                    .with("detection_rate", c.detection_rate)
                    .with("avg_groups_flagged", c.avg_groups_flagged)
                    .with("avg_groups_zeroed", c.avg_groups_zeroed)
                    .with("avg_weights_zeroed", c.avg_weights_zeroed)
                    .with("accuracy_attacked_percent", c.accuracy_attacked)
                    .with("accuracy_recovered_percent", c.accuracy_recovered)
                    .with("wall_seconds", c.wall_seconds)
            })
            .collect();
        JsonValue::object()
            .with("model", self.model.as_str())
            .with("clean_accuracy_percent", self.clean_accuracy)
            .with("threads", self.threads)
            .with("rounds", self.rounds)
            .with("eval_samples", self.eval_samples)
            .with("total_wall_seconds", self.total_seconds)
            .with("cells", cells)
    }
}

/// Generates (or loads from the artifact cache) the knowledgeable-attacker profiles
/// that assume contiguous groups of `assumed_group_size`.
pub(crate) fn knowledgeable_profiles(
    prepared: &mut Prepared,
    assumed_group_size: usize,
    rounds: usize,
) -> Vec<AttackProfile> {
    let cache = artifacts_dir().join(format!(
        "profiles_{}_knowledgeable_g{}_n{}_r{}.txt",
        prepared.kind.id(),
        assumed_group_size,
        prepared.budget.n_bits,
        rounds
    ));
    if let Ok(profiles) = profile_cache::load(&cache) {
        if profiles.len() == rounds {
            return profiles;
        }
    }
    let attacker = KnowledgeableAttacker::new(prepared.budget.n_bits, assumed_group_size);
    let snapshot = prepared.qmodel.snapshot();
    let mut profiles = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let batch = prepared.attacker_batch(1000 + round);
        let profile = attacker.attack(&mut prepared.qmodel, batch.images(), batch.labels());
        prepared.qmodel.restore(&snapshot);
        eprintln!(
            "[campaign] {} knowledgeable (G={assumed_group_size}) round {}/{}: {} flips",
            prepared.kind.name(),
            round + 1,
            rounds,
            profile.len()
        );
        profiles.push(profile);
    }
    profile_cache::save(&cache, &profiles).expect("artifact directory is writable");
    profiles
}

/// Generates (or loads from the artifact cache) one MSB-1-restricted PBFA profile of
/// `n_bits` flips (the Section VIII attack; shares its cache with the `msb1` bin).
pub(crate) fn msb1_profiles(prepared: &mut Prepared, n_bits: usize) -> Vec<AttackProfile> {
    let cache = artifacts_dir().join(format!(
        "profiles_{}_msb1_n{}.txt",
        prepared.kind.id(),
        n_bits
    ));
    if let Ok(profiles) = profile_cache::load(&cache) {
        // Guard against a truncated cache file (e.g. an interrupted earlier run):
        // an empty set would leave every Msb1 cell with nothing to mount.
        if !profiles.is_empty() {
            return profiles;
        }
    }
    let snapshot = prepared.qmodel.snapshot();
    let batch = prepared.attacker_batch(2000 + n_bits);
    let attack = Pbfa::new(PbfaConfig::msb1_only(n_bits));
    let profile = attack.attack(&mut prepared.qmodel, batch.images(), batch.labels());
    prepared.qmodel.restore(&snapshot);
    let profiles = vec![profile];
    profile_cache::save(&cache, &profiles).expect("artifact directory is writable");
    profiles
}

/// Precomputes every shared attack-profile set the grid's cells will read (cached on
/// disk, so re-runs and overlapping grids reuse the same attacker work).
fn precompute_profiles(
    prepared: &mut Prepared,
    grid: &ScenarioGrid,
) -> HashMap<ProfileKey, Vec<AttackProfile>> {
    let mut map: HashMap<ProfileKey, Vec<AttackProfile>> = HashMap::new();
    for attack in &grid.attacks {
        match attack {
            AttackSpec::Pbfa { .. } | AttackSpec::Rowhammer { .. } => {
                map.entry(ProfileKey::Pbfa)
                    .or_insert_with(|| pbfa_profiles(prepared));
            }
            AttackSpec::Msb1 { n_bits } => {
                map.entry(ProfileKey::Msb1(*n_bits))
                    .or_insert_with(|| msb1_profiles(prepared, *n_bits));
            }
            AttackSpec::Knowledgeable => {
                for defense in &grid.defenses {
                    map.entry(ProfileKey::Knowledgeable(defense.group_size))
                        .or_insert_with(|| {
                            knowledgeable_profiles(prepared, defense.group_size, grid.rounds)
                        });
                }
            }
            AttackSpec::RandomFlips { .. } => {}
        }
    }
    map
}

/// The profile a given round reads from a shared set, cycling when the grid asks for
/// more rounds than profiles exist; `None` when the set is empty (nothing to mount —
/// an empty cache or a zero-round budget — rather than a divide-by-zero panic inside
/// a worker).
fn profile_for_round(profiles: &[AttackProfile], round: usize) -> Option<&AttackProfile> {
    if profiles.is_empty() {
        None
    } else {
        Some(&profiles[round % profiles.len()])
    }
}

/// Applies the first `n` flips of `profile` to `model` and returns their
/// `(layer, weight)` locations (the paper's detected-bit-flips bookkeeping unit).
fn apply_truncated(
    model: &mut QuantizedModel,
    profile: Option<&AttackProfile>,
    n: usize,
) -> Vec<(usize, usize)> {
    let Some(profile) = profile else {
        return Vec::new();
    };
    let flips: &[BitFlip] = &profile.flips[..n.min(profile.flips.len())];
    for flip in flips {
        model.flip_bit(flip.layer, flip.weight, flip.bit);
    }
    flips.iter().map(|f| (f.layer, f.weight)).collect()
}

/// Executes one cell on a worker-owned model: restore clean → sign → mount attack →
/// detect → recover → measure, averaged over the grid's rounds. Cell wall time and
/// round counts also land in the worker's private `registry` (merged — order
/// independently — into the campaign-wide one after the worker drains).
fn run_cell(
    cell: &Cell,
    grid: &ScenarioGrid,
    qm: &mut QuantizedModel,
    snapshot: &WeightSnapshot,
    shared: &HashMap<ProfileKey, Vec<AttackProfile>>,
    eval: Option<&Dataset>,
    registry: &mut MetricsRegistry,
) -> CellResult {
    let start = Stopwatch::start();
    let rounds = grid.rounds.max(1);
    let mut flips = 0usize;
    let mut detected = 0usize;
    let mut flagged = 0usize;
    let mut groups_zeroed = 0usize;
    let mut weights_zeroed = 0usize;
    let mut acc_attacked = 0.0f64;
    let mut acc_recovered = 0.0f64;

    for round in 0..rounds {
        qm.restore(snapshot);
        let mut radar = RadarProtection::new(qm, cell.defense);
        let mut rng = StdRng::seed_from_u64(cell.seed.wrapping_add(round as u64));

        let locations: Vec<(usize, usize)> = match cell.attack {
            AttackSpec::Pbfa { n_bits } => {
                let profiles = &shared[&ProfileKey::Pbfa];
                apply_truncated(qm, profile_for_round(profiles, round), n_bits)
            }
            AttackSpec::Msb1 { n_bits } => {
                let profiles = &shared[&ProfileKey::Msb1(n_bits)];
                apply_truncated(qm, profile_for_round(profiles, round), n_bits)
            }
            AttackSpec::Knowledgeable => {
                let profiles = &shared[&ProfileKey::Knowledgeable(cell.defense.group_size)];
                apply_truncated(qm, profile_for_round(profiles, round), usize::MAX)
            }
            AttackSpec::RandomFlips { n_bits } => {
                let profile = RandomBitFlip::new(n_bits).attack(qm, &mut rng);
                profile.flips.iter().map(|f| (f.layer, f.weight)).collect()
            }
            AttackSpec::Rowhammer {
                success_rate,
                n_bits,
            } => {
                // Mount through the DRAM model; the flips that actually landed are
                // exactly the weights whose stored bytes now differ from clean.
                let clean: Vec<Vec<i8>> = (0..qm.num_layers())
                    .map(|i| qm.layer_values(i).to_vec())
                    .collect();
                let mut dram = WeightDram::load(qm, DramGeometry::default());
                if let Some(profile) = profile_for_round(&shared[&ProfileKey::Pbfa], round) {
                    let truncated = AttackProfile {
                        flips: profile.flips[..n_bits.min(profile.flips.len())].to_vec(),
                        loss_before: profile.loss_before,
                        loss_after: profile.loss_after,
                    };
                    RowhammerInjector::new(success_rate)
                        .mount_and_fetch(&mut dram, qm, &truncated, &mut rng);
                }
                let mut landed = Vec::new();
                for (layer, clean_values) in clean.iter().enumerate() {
                    for (weight, (&now, &before)) in
                        qm.layer_values(layer).iter().zip(clean_values).enumerate()
                    {
                        if now != before {
                            landed.push((layer, weight));
                        }
                    }
                }
                landed
            }
        };

        let report = radar.detect(qm);
        flips += locations.len();
        detected += radar.count_covered(&report, &locations);
        flagged += report.num_flagged();
        if let Some(eval) = eval {
            acc_attacked += f64::from(qm.accuracy(eval.images(), eval.labels(), 32).percent());
        }
        let recovery = radar.recover(qm, &report);
        groups_zeroed += recovery.groups_zeroed;
        weights_zeroed += recovery.weights_zeroed;
        if let Some(eval) = eval {
            acc_recovered += f64::from(qm.accuracy(eval.images(), eval.labels(), 32).percent());
        }
    }
    qm.restore(snapshot);

    let cell_labels = Labels::none().scenario(cell.attack.label());
    registry.record_ns("campaign.cell_ns", cell_labels.clone(), start.elapsed_ns());
    registry.add_counter("campaign.rounds", cell_labels, rounds as u64);

    let r = rounds as f64;
    CellResult {
        attack: cell.attack.label(),
        group_size: cell.defense.group_size,
        interleaved: matches!(cell.defense.grouping, Grouping::Interleaved { .. }),
        masking: cell.defense.masking,
        signature_bits: cell.defense.signature_bits.bits(),
        seed: cell.seed,
        rounds,
        avg_flips: flips as f64 / r,
        avg_flips_detected: detected as f64 / r,
        detection_rate: if flips == 0 {
            0.0
        } else {
            detected as f64 / flips as f64
        },
        avg_groups_flagged: flagged as f64 / r,
        avg_groups_zeroed: groups_zeroed as f64 / r,
        avg_weights_zeroed: weights_zeroed as f64 / r,
        accuracy_attacked: eval.map(|_| acc_attacked / r),
        accuracy_recovered: eval.map(|_| acc_recovered / r),
        wall_seconds: start.elapsed_secs(),
    }
}

/// Executes every cell of `grid` against the prepared model across
/// `prepared.budget.threads` scoped workers.
///
/// Shared attack profiles are precomputed (and disk-cached) up front; each worker then
/// rebuilds its own model replica from the training checkpoint via [`fresh_model`]
/// and drains cells from an atomic cursor. Results are deterministic for a given
/// grid and budget regardless of the worker count.
pub fn run(prepared: &mut Prepared, grid: &ScenarioGrid) -> CampaignOutcome {
    let start = Stopwatch::start();
    let shared = precompute_profiles(prepared, grid);
    let cells = grid.cells();
    let threads = prepared.budget.threads.clamp(1, cells.len().max(1));
    let snapshot = prepared.qmodel.snapshot();
    let eval = grid.evaluate_accuracy.then(|| prepared.eval_set());
    let kind = prepared.kind;
    let budget = prepared.budget;

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellResult>>> =
        (0..cells.len()).map(|_| Mutex::new(None)).collect();
    let metrics = Mutex::new(MetricsRegistry::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Every worker owns a model replica rebuilt from the shared
                // checkpoint, so cells never contend on weight state; likewise it
                // owns a private registry shard, folded into the campaign-wide
                // one only once it drains (merging is associative, so the merged
                // registry is independent of worker scheduling).
                let mut qm = fresh_model(kind, budget);
                let mut registry = MetricsRegistry::new();
                loop {
                    // relaxed: work-stealing index only claims a slot; the per-slot
                    // mutex orders the result write.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let result = run_cell(
                        &cells[i],
                        grid,
                        &mut qm,
                        &snapshot,
                        &shared,
                        eval.as_ref(),
                        &mut registry,
                    );
                    *slots[i].lock().expect("cell slot lock poisoned") = Some(result);
                }
                metrics
                    .lock()
                    .expect("campaign registry lock poisoned")
                    .merge(&registry);
            });
        }
    });

    let cells_out: Vec<CellResult> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("cell slot lock poisoned")
                .expect("every cell was executed")
        })
        .collect();
    let mut registry = metrics
        .into_inner()
        .expect("campaign registry lock poisoned");
    registry.add_counter("campaign.cells", Labels::none(), cells_out.len() as u64);
    registry.record_ns("campaign.total_ns", Labels::none(), start.elapsed_ns());
    CampaignOutcome {
        model: prepared.kind.id().to_owned(),
        clean_accuracy: f64::from(prepared.clean_accuracy),
        threads,
        rounds: grid.rounds.max(1),
        eval_samples: if grid.evaluate_accuracy {
            prepared.budget.eval_samples
        } else {
            0
        },
        total_seconds: start.elapsed_secs(),
        cells: cells_out,
        metrics: registry.render_lines(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Budget, ModelKind};

    fn budget() -> Budget {
        Budget::default()
    }

    #[test]
    fn paper_grid_is_at_least_24_cells() {
        for kind in [ModelKind::ResNet20Like, ModelKind::ResNet18Like] {
            let grid = ScenarioGrid::paper_grid(kind, &budget());
            assert!(grid.num_cells() >= 24, "only {} cells", grid.num_cells());
            assert_eq!(grid.num_cells(), grid.cells().len());
        }
    }

    #[test]
    fn smoke_grid_fits_the_ci_budget() {
        let grid = ScenarioGrid::smoke(ModelKind::ResNet20Like, &budget());
        assert!(grid.num_cells() <= 8);
        assert_eq!(grid.rounds, 1);
        assert!(!grid.evaluate_accuracy);
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let grid = ScenarioGrid::paper_grid(ModelKind::ResNet20Like, &budget());
        let a = grid.cells();
        let b = grid.cells();
        assert_eq!(a, b, "cell materialization must be deterministic");
        let seeds: std::collections::HashSet<u64> = a.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), a.len(), "cell seeds must be distinct");
        for (i, cell) in a.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
    }

    #[test]
    fn empty_profile_sets_mount_nothing_instead_of_panicking() {
        assert!(profile_for_round(&[], 0).is_none());
        assert!(profile_for_round(&[], 5).is_none());
        let set = vec![AttackProfile::default(), AttackProfile::default()];
        assert!(profile_for_round(&set, 0).is_some());
        assert!(profile_for_round(&set, 7).is_some());
    }

    #[test]
    fn attack_labels_are_stable_and_distinct() {
        let labels: Vec<String> = [
            AttackSpec::Pbfa { n_bits: 10 },
            AttackSpec::Msb1 { n_bits: 20 },
            AttackSpec::Knowledgeable,
            AttackSpec::RandomFlips { n_bits: 10 },
            AttackSpec::Rowhammer {
                success_rate: 0.75,
                n_bits: 10,
            },
        ]
        .iter()
        .map(AttackSpec::label)
        .collect();
        assert_eq!(
            labels,
            vec![
                "pbfa_n10",
                "msb1_n20",
                "knowledgeable",
                "random_n10",
                "rowhammer_p75_n10"
            ]
        );
        let set: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    fn one_cell_outcome(seed: u64) -> CampaignOutcome {
        CampaignOutcome {
            model: "resnet20".into(),
            clean_accuracy: 50.0,
            threads: 1,
            rounds: 1,
            eval_samples: 0,
            total_seconds: 0.0,
            cells: vec![CellResult {
                attack: "pbfa_n10".into(),
                group_size: 16,
                interleaved: true,
                masking: true,
                signature_bits: 2,
                seed,
                rounds: 1,
                avg_flips: 10.0,
                avg_flips_detected: 9.0,
                detection_rate: 0.9,
                avg_groups_flagged: 9.0,
                avg_groups_zeroed: 9.0,
                avg_weights_zeroed: 144.0,
                accuracy_attacked: None,
                accuracy_recovered: Some(71.25),
                wall_seconds: 0.1,
            }],
            metrics: Vec::new(),
        }
    }

    #[test]
    fn find_matches_on_attack_group_and_interleave() {
        let outcome = one_cell_outcome(1);
        let spec = AttackSpec::Pbfa { n_bits: 10 };
        assert!(outcome.find(&spec, 16, true).is_some());
        assert!(outcome.find(&spec, 16, false).is_none());
        assert!(outcome.find(&spec, 32, true).is_none());
        assert!(outcome.find(&AttackSpec::Knowledgeable, 16, true).is_none());
    }

    #[test]
    fn artifact_keeps_cell_seeds_exact() {
        // Grid seeds use the full 64 bits; an f64 would round them.
        let seed = ScenarioGrid::smoke(ModelKind::ResNet20Like, &budget()).cells()[0].seed;
        assert!(seed > 1 << 53);
        let doc = JsonValue::parse(&one_cell_outcome(seed).to_json().render()).expect("parses");
        let cell = &doc
            .get("cells")
            .and_then(JsonValue::as_array)
            .expect("cells")[0];
        assert_eq!(cell.get("seed"), Some(&JsonValue::Int(seed)));
        assert_eq!(
            cell.get("accuracy_attacked_percent"),
            Some(&JsonValue::Null)
        );
        assert_eq!(
            cell.get("accuracy_recovered_percent")
                .and_then(JsonValue::as_f64),
            Some(71.25)
        );
    }
}
