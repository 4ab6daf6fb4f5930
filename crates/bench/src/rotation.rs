//! The key-rotation benchmark: what epoch rotation buys against a key-learning
//! adversary, plus the live cost of rolling epochs under traffic.
//!
//! Two halves, one artifact (`artifacts/results/BENCH_rotation.json`):
//!
//! 1. **Key learning** — the [`radar_attack::KeyLearner`] brute-forces each layer's
//!    16-bit masking key from `(group values, golden signature)` pairs observed off a
//!    real [`RadarProtection`], then constructs one *certain* evasion pair per layer
//!    against the learned epoch-0 keys. The same stale pairs are re-scored under the
//!    epoch-1 keys: each survives a re-key only if the fresh masks happen to agree on
//!    its two slots, so rotation turns a guaranteed evasion into a per-pair coin flip.
//! 2. **Live rotation** — the same seeded strike replayed through
//!    [`radar_serve::serve`] twice: once with a static key (`rotate_every = 0`) and
//!    once with the background re-keying task armed, sized so a full epoch roll
//!    (begin, every layer re-signed, publish, retire) completes mid-service. The
//!    rotating run is replayed to confirm the rotation event stream is deterministic
//!    per seed.
//!
//! See the `run_rotation` binary (`--smoke` for the CI-sized timeline).

use radar_attack::{apply_msb_flip, evasion_pair, AttackProfile, KeyLearner, KeyObservation};
use radar_core::{group_signature, KeyEpoch, KeySchedule, RadarConfig, RadarProtection, KEY_BITS};
use radar_memsim::{AttackTimeline, DramGeometry, MountEvent, RowhammerInjector, WeightDram};
use radar_obs::{JsonValue, Labels, MetricsRegistry, Stopwatch};
use radar_serve::{serve, ServeConfig, ServeOutcome, TrafficSchedule};

use crate::harness::{fresh_model, pbfa_profiles, Prepared};
use crate::report::Report;

/// Sizing of one rotation benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationBenchParams {
    /// Minimum requests per serving scenario (raised automatically so the rotating
    /// scenario completes at least one full epoch roll).
    pub requests: usize,
    /// Served-accuracy window, in requests.
    pub window: usize,
    /// Seed of the shared traffic schedule.
    pub traffic_seed: u64,
    /// Batches between rotation ticks in the rotating scenario.
    pub rotate_every: usize,
    /// Layers to run the key-learning study on (capped at the model's layer count).
    pub learn_layers: usize,
}

impl RotationBenchParams {
    /// The default (paper-sized) run.
    pub fn default_run() -> Self {
        RotationBenchParams {
            requests: 512,
            window: 64,
            traffic_seed: 0x5E1A_11FE,
            rotate_every: 2,
            learn_layers: 8,
        }
    }

    /// The CI smoke run: the shortest timeline that still completes a full roll.
    pub fn smoke() -> Self {
        RotationBenchParams {
            requests: 96,
            window: 16,
            traffic_seed: 0x5E1A_11FE,
            rotate_every: 1,
            learn_layers: 4,
        }
    }
}

/// Outcome of brute-forcing one layer's key and re-scoring its stale evasion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerLearning {
    /// The studied layer.
    pub layer: usize,
    /// Observations consumed before the keyspace collapsed.
    pub groups_observed: usize,
    /// Candidate keys left after the search (1 = exact recovery).
    pub candidates: usize,
    /// Whether the surviving candidate is the layer's true epoch-0 key.
    pub recovered: bool,
    /// The raw bits of the recovered key, when the search converged. Reporting a
    /// key the adversary brute-forced *itself* is the point of the experiment —
    /// this is the one allowlisted `expose_bits` call outside `radar-core` (see
    /// the `secret-hygiene` rule in `radar-analyze`).
    pub recovered_bits: Option<u16>,
    /// Whether a cancelling evasion pair exists in the layer's first group.
    pub pair_found: bool,
    /// Whether the pair evades the (learned) epoch-0 key — certain by construction.
    pub evaded_static: bool,
    /// Whether the same stale pair is caught under the layer's epoch-1 key.
    pub caught_rotated: bool,
}

/// One serving scenario of the live half.
#[derive(Debug, Clone, PartialEq)]
pub struct RotationScenario {
    /// Scenario name (`attack_static` / `attack_rotating`).
    pub name: &'static str,
    /// Batches between rotation ticks (0 = static key).
    pub rotate_every: usize,
    /// Epoch rolls completed during the run.
    pub epochs_published: usize,
    /// Rotation ticks recorded in telemetry.
    pub rotation_events: usize,
    /// The engine telemetry.
    pub outcome: ServeOutcome,
}

/// The full rotation benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct RotationBenchOutcome {
    /// Model identifier.
    pub model: String,
    /// Group size of the RADAR defense.
    pub group_size: usize,
    /// Per-layer key-learning results.
    pub learning: Vec<LayerLearning>,
    /// Requests actually replayed per scenario (after the full-roll sizing).
    pub requests: usize,
    /// Flips in the mounted profile.
    pub n_flips: usize,
    /// Batch offset of the strike.
    pub attack_at_batch: usize,
    /// Per-scenario serving results.
    pub scenarios: Vec<RotationScenario>,
    /// Whether the rotating scenario's full logical telemetry (rotation events,
    /// accuracy windows, detections) replayed identically.
    pub deterministic_replay: bool,
    /// Per-phase wall-time metrics (key learning, each serving scenario, the
    /// replay), rendered from the benchmark's [`MetricsRegistry`].
    pub metrics: Vec<String>,
}

/// Brute-forces `layers` layer keys off a live protection and re-scores one stale
/// evasion pair per layer under the next epoch's keys.
fn learn_layers(
    signer: &radar_quant::QuantizedModel,
    protection: &RadarProtection,
    layers: usize,
) -> Vec<LayerLearning> {
    let config = protection.config();
    let schedule = KeySchedule::from_seed(config.key_seed);
    let learner = KeyLearner::new(config.signature_bits);
    let mut results = Vec::new();
    for layer in 0..layers.min(signer.num_layers()) {
        let layout = protection.layers()[layer].layout();
        let weights = signer.layer_values(layer);
        let observations: Vec<KeyObservation> = (0..layout.num_groups())
            .map(|g| KeyObservation {
                values: layout.members(g).iter().map(|&i| weights[i]).collect(),
                signature: protection.golden().signature(layer, g),
            })
            .collect();
        let recovery = learner.learn(&observations);
        let true_key = schedule.layer_key(layer, KeyEpoch::ZERO);
        let recovered = recovery.unique() == Some(true_key);
        let recovered_bits = recovery.unique().map(|key| key.expose_bits());

        // Stale-evasion re-score on the layer's first group: certain under the
        // learned key, a coin flip under the rotated one.
        let rotated = schedule.layer_key(layer, KeyEpoch::ZERO.next());
        let mut values = observations
            .first()
            .map(|o| o.values.clone())
            .unwrap_or_default();
        let pair = recovery
            .unique()
            .and_then(|key| evasion_pair(&key, &values).map(|p| (key, p)));
        let (pair_found, evaded_static, caught_rotated) = match pair {
            None => (false, false, false),
            Some((key, (a, b))) => {
                let bits = config.signature_bits;
                let before_old = group_signature(&values, &key, bits);
                let before_new = group_signature(&values, &rotated, bits);
                apply_msb_flip(&mut values, a);
                apply_msb_flip(&mut values, b);
                (
                    true,
                    group_signature(&values, &key, bits) == before_old,
                    group_signature(&values, &rotated, bits) != before_new,
                )
            }
        };
        results.push(LayerLearning {
            layer,
            groups_observed: recovery.groups_observed,
            candidates: recovery.candidates.len(),
            recovered,
            recovered_bits,
            pair_found,
            evaded_static,
            caught_rotated,
        });
    }
    results
}

/// Truncates the strongest cached PBFA profile to `n` flips.
fn attack_profile(prepared: &mut Prepared, n: usize) -> AttackProfile {
    let profiles = pbfa_profiles(prepared);
    let profile = profiles.first().expect("at least one PBFA profile");
    AttackProfile {
        flips: profile.flips[..n.min(profile.flips.len())].to_vec(),
        loss_before: profile.loss_before,
        loss_after: profile.loss_after,
    }
}

/// Runs the key-learning study and the static-vs-rotating serving scenarios.
pub fn run(prepared: &mut Prepared, params: &RotationBenchParams) -> RotationBenchOutcome {
    let kind = prepared.kind;
    let budget = prepared.budget;
    let group_size = kind.table3_groups()[kind.table3_groups().len() / 2];

    let signer = fresh_model(kind, budget);
    let num_layers = signer.num_layers();
    let radar_config = RadarConfig::paper_default(group_size);

    eprintln!(
        "[rotation] key-learning study: brute-forcing {} layer keys ({}-bit keyspace)",
        params.learn_layers.min(num_layers),
        KEY_BITS
    );
    let mut registry = MetricsRegistry::new();
    let phase = Stopwatch::start();
    let reference = RadarProtection::new(&signer, radar_config);
    let learning = learn_layers(&signer, &reference, params.learn_layers);
    registry.record_ns(
        "rotation.phase_ns",
        Labels::none().scenario("key_learning"),
        phase.elapsed_ns(),
    );
    registry.add_counter(
        "rotation.keys_recovered",
        Labels::none(),
        learning.iter().filter(|l| l.recovered).count() as u64,
    );

    let config = ServeConfig {
        strict_batching: true,
        window: params.window,
        scrub_layers: num_layers.div_ceil(5),
        ..ServeConfig::default()
    }
    .from_env();

    // A full roll needs `num_layers + 3` rotation ticks, one every `rotate_every`
    // batches; size the traffic so the rotating scenario crosses the retire with slack.
    let roll_batches = params.rotate_every * (num_layers + 6);
    let requests = params.requests.max(roll_batches * config.max_batch);
    let total_batches = requests.div_ceil(config.max_batch);
    let attack_at_batch = (total_batches / 3).clamp(1, total_batches.saturating_sub(1));
    let profile = attack_profile(prepared, budget.n_bits);
    let n_flips = profile.flips.len();
    let schedule = TrafficSchedule::new(params.traffic_seed, requests);
    let eval = prepared.eval_set();

    let run_scenario = |rotate_every: usize| {
        let mut cfg = config;
        cfg.rotate_every = rotate_every;
        let models = radar_serve::replicas(cfg.workers, || fresh_model(kind, budget));
        let protection = RadarProtection::new(&signer, radar_config);
        let dram = WeightDram::load(&signer, DramGeometry::default());
        let timeline = AttackTimeline::new(vec![MountEvent {
            at_batch: attack_at_batch,
            injector: RowhammerInjector::default(),
            profile: profile.clone(),
            seed: 0xA77A_C000 + attack_at_batch as u64,
        }]);
        serve(
            models,
            Some(protection),
            dram,
            &eval,
            &schedule,
            timeline,
            &cfg,
        )
    };

    let mut scenarios = Vec::new();
    for (name, rotate_every) in [
        ("attack_static", 0),
        ("attack_rotating", params.rotate_every),
    ] {
        eprintln!(
            "[rotation] scenario {name}: {requests} requests, strike at batch {attack_at_batch}, rotate_every {rotate_every}"
        );
        let phase = Stopwatch::start();
        let outcome = run_scenario(rotate_every);
        registry.record_ns(
            "rotation.phase_ns",
            Labels::none().scenario(name),
            phase.elapsed_ns(),
        );
        registry.add_counter(
            "rotation.epochs_published",
            Labels::none().scenario(name),
            outcome.epochs_published() as u64,
        );
        scenarios.push(RotationScenario {
            name,
            rotate_every,
            epochs_published: outcome.epochs_published(),
            rotation_events: outcome.rotations.len(),
            outcome,
        });
    }

    eprintln!("[rotation] replaying the rotating scenario to check determinism");
    let phase = Stopwatch::start();
    let replay = run_scenario(params.rotate_every);
    registry.record_ns(
        "rotation.phase_ns",
        Labels::none().scenario("replay"),
        phase.elapsed_ns(),
    );
    let rotating = &scenarios[1].outcome;
    let logical = |o: &ServeOutcome| {
        (
            o.rotations.clone(),
            o.windows.clone(),
            o.detections
                .iter()
                .map(|d| (d.batch, d.via_scrub, d.groups_flagged))
                .collect::<Vec<_>>(),
            o.recovery,
        )
    };
    let deterministic_replay = logical(rotating) == logical(&replay);

    RotationBenchOutcome {
        model: kind.id().to_owned(),
        group_size,
        learning,
        requests,
        n_flips,
        attack_at_batch,
        scenarios,
        deterministic_replay,
        metrics: registry.render_lines(),
    }
}

impl RotationBenchOutcome {
    /// Renders the benchmark as a human-readable table.
    pub fn report(&self) -> Report {
        let recovered = self.learning.iter().filter(|l| l.recovered).count();
        let pairs = self.learning.iter().filter(|l| l.pair_found).count();
        let evaded = self.learning.iter().filter(|l| l.evaded_static).count();
        let caught = self.learning.iter().filter(|l| l.caught_rotated).count();
        let mut report = Report::new(&format!(
            "Key rotation — {} ({} req/scenario, G={}, {} flips, strike at batch {})",
            self.model, self.requests, self.group_size, self.n_flips, self.attack_at_batch
        ));
        report.line(format!(
            "key learning: {recovered}/{} layer keys recovered exactly from golden signatures",
            self.learning.len()
        ));
        report.line(format!(
            "stale evasions: {evaded}/{pairs} certain under the learned epoch-0 keys, {caught}/{pairs} caught after one roll"
        ));
        report.row(&[
            "scenario".into(),
            "rotate_every".into(),
            "epochs".into(),
            "rot events".into(),
            "ttd batches".into(),
            "ttd req".into(),
            "zeroed".into(),
            "acc %".into(),
            "p99 ms".into(),
        ]);
        for s in &self.scenarios {
            let o = &s.outcome;
            let (ttd_b, ttd_r) = o.time_to_detect.map_or(("-".into(), "-".into()), |t| {
                (t.batches.to_string(), t.requests.to_string())
            });
            report.row(&[
                s.name.into(),
                s.rotate_every.to_string(),
                s.epochs_published.to_string(),
                s.rotation_events.to_string(),
                ttd_b,
                ttd_r,
                o.recovery.groups_zeroed.to_string(),
                format!("{:.2}", o.overall_percent()),
                format!("{:.2}", o.latency.quantile_ns(0.99) / 1e6),
            ]);
        }
        report.line(format!(
            "rotating replay deterministic: {}",
            self.deterministic_replay
        ));
        if !self.metrics.is_empty() {
            report.line("registry:");
            for line in &self.metrics {
                report.line(format!("  {line}"));
            }
        }
        report
    }

    /// The benchmark as the `BENCH_rotation.json` document.
    pub fn to_json(&self) -> JsonValue {
        let learning: Vec<JsonValue> = self
            .learning
            .iter()
            .map(|l| {
                JsonValue::object()
                    .with("layer", l.layer)
                    .with("groups_observed", l.groups_observed)
                    .with("candidates", l.candidates)
                    .with("recovered", l.recovered)
                    .with(
                        "recovered_key_bits",
                        l.recovered_bits.map(|b| format!("{b:04x}")),
                    )
                    .with("pair_found", l.pair_found)
                    .with("evaded_static", l.evaded_static)
                    .with("caught_rotated", l.caught_rotated)
            })
            .collect();
        let scenarios: Vec<JsonValue> = self
            .scenarios
            .iter()
            .map(|s| {
                let o = &s.outcome;
                let ttd = o.time_to_detect.map(|t| {
                    JsonValue::object()
                        .with("batches", t.batches)
                        .with("requests", t.requests)
                        .with("via_scrub", t.via_scrub)
                });
                JsonValue::object()
                    .with("name", s.name)
                    .with("rotate_every", s.rotate_every)
                    .with("epochs_published", s.epochs_published)
                    .with("rotation_events", s.rotation_events)
                    .with("requests", o.requests)
                    .with("batches", o.batches)
                    .with("time_to_detect", ttd)
                    .with(
                        "recovery",
                        JsonValue::object()
                            .with("groups_zeroed", o.recovery.groups_zeroed)
                            .with("weights_zeroed", o.recovery.weights_zeroed),
                    )
                    .with("served_accuracy_percent", o.overall_percent())
                    .with("min_window_accuracy_percent", o.min_window_percent())
                    .with(
                        "latency_ms",
                        JsonValue::object()
                            .with("p50", o.latency.quantile_ns(0.5) / 1e6)
                            .with("p99", o.latency.quantile_ns(0.99) / 1e6),
                    )
            })
            .collect();
        JsonValue::object()
            .with("model", self.model.as_str())
            .with("group_size", self.group_size)
            .with("key_bits", KEY_BITS)
            .with("n_flips", self.n_flips)
            .with("requests", self.requests)
            .with("attack_at_batch", self.attack_at_batch)
            .with("deterministic_replay", self.deterministic_replay)
            .with("key_learning", learning)
            .with("scenarios", scenarios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_presets_are_sane() {
        let run = RotationBenchParams::default_run();
        let smoke = RotationBenchParams::smoke();
        assert!(run.requests > smoke.requests);
        assert!(smoke.rotate_every >= 1 && run.rotate_every >= 1);
        assert!(smoke.learn_layers >= 1);
        assert_eq!(run.traffic_seed, smoke.traffic_seed, "same traffic stream");
    }
}
