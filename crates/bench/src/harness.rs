//! Shared experiment infrastructure: model preparation (train-or-load), attack-profile
//! generation with on-disk caching, and environment-variable budget knobs.

use std::env::VarError;
use std::path::PathBuf;

use radar_attack::{AttackProfile, Pbfa, PbfaConfig};
use radar_data::{Dataset, SyntheticSpec};
use radar_nn::{
    load_params, resnet18, resnet20, save_params, Adam, ResNetConfig, Sequential, Trainer,
};
use radar_obs::JsonValue;
use radar_quant::QuantizedModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::profile_cache;

/// Which of the paper's two evaluation models an experiment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The CIFAR-10 / ResNet-20 setting (width-reduced, synthetic data — see DESIGN.md).
    ResNet20Like,
    /// The ImageNet / ResNet-18 setting (width-reduced, synthetic data — see DESIGN.md).
    ResNet18Like,
}

impl ModelKind {
    /// Human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::ResNet20Like => "ResNet-20 (cifar-like)",
            ModelKind::ResNet18Like => "ResNet-18 (imagenet-like)",
        }
    }

    /// Short identifier used for artifact file names.
    pub fn id(&self) -> &'static str {
        match self {
            ModelKind::ResNet20Like => "resnet20",
            ModelKind::ResNet18Like => "resnet18",
        }
    }

    /// The model named by environment knob `key` (`resnet20` or `resnet18`),
    /// ResNet-20 when unset.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, on any other value.
    pub fn from_env(key: &str) -> Self {
        match knob(key, |raw| one_of(raw, &["resnet20", "resnet18"])) {
            Some("resnet18") => ModelKind::ResNet18Like,
            _ => ModelKind::ResNet20Like,
        }
    }

    /// Group sizes the paper sweeps for this model (Fig. 4 / Fig. 6).
    pub fn group_sweep(&self) -> &'static [usize] {
        match self {
            ModelKind::ResNet20Like => &[4, 8, 16, 32, 64],
            ModelKind::ResNet18Like => &[64, 128, 256, 512, 1024],
        }
    }

    /// Group sizes used in the paper's Table III for this model.
    pub fn table3_groups(&self) -> &'static [usize] {
        match self {
            ModelKind::ResNet20Like => &[8, 16, 32],
            ModelKind::ResNet18Like => &[128, 256, 512],
        }
    }

    fn dataset_spec(&self) -> SyntheticSpec {
        match self {
            ModelKind::ResNet20Like => SyntheticSpec::cifar_like().with_sizes(1_600, 800),
            ModelKind::ResNet18Like => SyntheticSpec::imagenet_like().with_sizes(1_600, 800),
        }
    }

    fn build_float_model(&self, num_classes: usize) -> Sequential {
        match self {
            ModelKind::ResNet20Like => resnet20(&ResNetConfig::new(num_classes, 16, 3, 20)),
            ModelKind::ResNet18Like => resnet18(&ResNetConfig::new(num_classes, 8, 3, 18)),
        }
    }
}

/// Experiment budgets, overridable through environment variables so the full harness can
/// be scaled from a quick smoke run to a paper-scale campaign.
///
/// | Variable | Meaning | Default |
/// |---|---|---|
/// | `RADAR_ROUNDS` | attack rounds per experiment | 8 |
/// | `RADAR_EPOCHS` | training epochs per model | 3 |
/// | `RADAR_NBF` | bit flips per PBFA round | 10 |
/// | `RADAR_EVAL_SAMPLES` | test samples used for accuracy numbers | 400 |
/// | `RADAR_ATTACK_BATCH` | attacker batch size | 16 |
/// | `RADAR_THREADS` | worker threads for the campaign engine | available cores |
///
/// Every variable is read through [`knob`]: an unset variable keeps its default, and a
/// set one that is not a non-negative integer ([`parse_count`]) panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Number of independent attack rounds (the paper uses 100).
    pub rounds: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Bit flips per PBFA round (the paper uses 10).
    pub n_bits: usize,
    /// Number of test samples used for accuracy evaluation.
    pub eval_samples: usize,
    /// Attacker batch size.
    pub attack_batch: usize,
    /// Worker threads used by the scenario-campaign engine.
    pub threads: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            rounds: 8,
            epochs: 3,
            n_bits: 10,
            eval_samples: 400,
            attack_batch: 16,
            threads: default_threads(),
        }
    }
}

/// Number of hardware threads available to this process (1 when undetectable).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

impl Budget {
    /// Reads the budget from the environment; unset variables keep their defaults.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when a set variable is not a
    /// non-negative integer.
    pub fn from_env() -> Self {
        let get = |key: &str, default: usize| knob(key, parse_count).unwrap_or(default);
        let d = Budget::default();
        Budget {
            rounds: get("RADAR_ROUNDS", d.rounds),
            epochs: get("RADAR_EPOCHS", d.epochs),
            n_bits: get("RADAR_NBF", d.n_bits),
            eval_samples: get("RADAR_EVAL_SAMPLES", d.eval_samples),
            attack_batch: get("RADAR_ATTACK_BATCH", d.attack_batch),
            threads: get("RADAR_THREADS", d.threads).max(1),
        }
    }
}

/// Reads environment knob `key` through `parse`: `None` when the variable is unset.
///
/// # Panics
///
/// Panics, naming the variable and its value, when the variable is set but `parse`
/// rejects it (or it is not valid unicode) — a typo fails the run instead of
/// silently running with the default.
pub fn knob<T>(key: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    match std::env::var(key) {
        Ok(raw) => Some(parse(&raw).unwrap_or_else(|e| panic!("{key}={raw:?}: {e}"))),
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(raw)) => panic!("{key}={raw:?}: not valid unicode"),
    }
}

/// Parses a numeric knob's value: a non-negative decimal integer, digits only (no
/// sign, no whitespace).
///
/// # Errors
///
/// Returns why `raw` is not such an integer.
pub fn parse_count(raw: &str) -> Result<usize, String> {
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return Err("expected a non-negative integer".to_owned());
    }
    raw.parse()
        .map_err(|e| format!("expected a non-negative integer ({e})"))
}

/// Accepts `raw` only if it is one of `accepted`.
///
/// # Errors
///
/// Returns a message listing the accepted values.
pub fn one_of<'a>(raw: &str, accepted: &[&'a str]) -> Result<&'a str, String> {
    accepted
        .iter()
        .copied()
        .find(|&a| a == raw)
        .ok_or_else(|| format!("expected one of: {}", accepted.join(", ")))
}

/// The directory all trained checkpoints, cached attack profiles and experiment reports
/// are written to.
pub fn artifacts_dir() -> PathBuf {
    let dir = std::env::var("RADAR_ARTIFACTS").unwrap_or_else(|_| "artifacts".to_owned());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(path.join("results")).expect("artifacts directory is writable");
    path
}

/// Writes `json` as one line to `artifacts/results/<file>` and returns the path.
///
/// # Panics
///
/// Panics when the results directory is not writable.
pub fn write_artifact(file: &str, json: &JsonValue) -> PathBuf {
    let path = artifacts_dir().join("results").join(file);
    let mut text = json.render();
    text.push('\n');
    std::fs::write(&path, text).expect("artifact results directory is writable");
    eprintln!("[harness] wrote {}", path.display());
    path
}

/// A fully prepared evaluation setting: trained quantized model plus its data splits.
pub struct Prepared {
    /// Which model this is.
    pub kind: ModelKind,
    /// The trained, quantized model (clean state).
    pub qmodel: QuantizedModel,
    /// Training split (the attacker samples its batch from here).
    pub train: Dataset,
    /// Test split (accuracy numbers come from here).
    pub test: Dataset,
    /// Clean test accuracy of the quantized model, in percent.
    pub clean_accuracy: f32,
    /// The budget the setting was prepared under.
    pub budget: Budget,
}

impl Prepared {
    /// The evaluation subset used for accuracy numbers (bounded by the budget).
    pub fn eval_set(&self) -> Dataset {
        self.test.head(self.budget.eval_samples)
    }

    /// A deterministic attacker batch (round-dependent so different rounds see different
    /// batches, as the paper's repeated attacks would).
    pub fn attacker_batch(&self, round: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + round as u64);
        self.train.sample(self.budget.attack_batch, &mut rng)
    }
}

/// Trains (or loads from the artifact cache) the requested model and returns the
/// prepared evaluation setting.
///
/// The float model is trained on the synthetic dataset, quantized to 8 bits, and its
/// checkpoint stored under `artifacts/` so every experiment binary shares the same
/// weights.
pub fn prepare(kind: ModelKind, budget: Budget) -> Prepared {
    let spec = kind.dataset_spec();
    let (train, test) = spec.generate();
    let mut float_model = kind.build_float_model(spec.num_classes);

    let checkpoint = checkpoint_path(kind, budget);
    if checkpoint.exists() {
        load_params(&mut float_model, &checkpoint).expect("cached checkpoint matches architecture");
    } else {
        eprintln!(
            "[harness] training {} for {} epochs…",
            kind.name(),
            budget.epochs
        );
        let mut rng = StdRng::seed_from_u64(0x7EA1);
        let mut trainer = Trainer::new(Adam::new(2e-3, 1e-4), 32);
        let report = trainer.fit(
            &mut float_model,
            train.images(),
            train.labels(),
            budget.epochs,
            &mut rng,
        );
        eprintln!(
            "[harness] {} trained: final loss {:.3}, train accuracy {}",
            kind.name(),
            report.epoch_losses.last().copied().unwrap_or(f32::NAN),
            report.train_accuracy
        );
        save_params(&mut float_model, &checkpoint).expect("artifact directory is writable");
    }

    let mut qmodel = QuantizedModel::new(Box::new(float_model));
    let eval = test.head(budget.eval_samples);
    let clean_accuracy = qmodel.accuracy(eval.images(), eval.labels(), 32).percent();
    Prepared {
        kind,
        qmodel,
        train,
        test,
        clean_accuracy,
        budget,
    }
}

/// Where the trained checkpoint of `(kind, budget)` is cached.
fn checkpoint_path(kind: ModelKind, budget: Budget) -> PathBuf {
    artifacts_dir().join(format!("{}_w8_e{}.rnnp", kind.id(), budget.epochs))
}

/// Rebuilds an independent replica of the prepared model from its cached checkpoint:
/// same float weights, hence bit-identical quantization scales and values.
///
/// The campaign engine calls this once per worker thread so every worker owns a model
/// it can corrupt and restore without synchronization.
///
/// # Panics
///
/// Panics if the checkpoint does not exist yet — [`prepare`] must have run (and
/// trained or loaded the model) under the same `(kind, budget.epochs)` first.
pub fn fresh_model(kind: ModelKind, budget: Budget) -> QuantizedModel {
    fresh_model_from(kind, &checkpoint_path(kind, budget))
}

/// [`fresh_model`] with an explicit checkpoint path (the testable seam: no dependency
/// on the artifacts directory).
fn fresh_model_from(kind: ModelKind, checkpoint: &std::path::Path) -> QuantizedModel {
    let spec = kind.dataset_spec();
    let mut float_model = kind.build_float_model(spec.num_classes);
    load_params(&mut float_model, checkpoint)
        .expect("checkpoint exists and matches — run prepare() before spawning workers");
    QuantizedModel::new(Box::new(float_model))
}

/// Generates (or loads from the artifact cache) `budget.rounds` PBFA profiles of
/// `budget.n_bits` flips each against the prepared model.
///
/// The clean model is restored after every round, as in the paper's repeated-attack
/// methodology.
pub fn pbfa_profiles(prepared: &mut Prepared) -> Vec<AttackProfile> {
    let budget = prepared.budget;
    let cache = artifacts_dir().join(format!(
        "profiles_{}_n{}_r{}_c2.txt",
        prepared.kind.id(),
        budget.n_bits,
        budget.rounds
    ));
    if let Ok(profiles) = profile_cache::load(&cache) {
        if profiles.len() == budget.rounds {
            return profiles;
        }
    }

    let snapshot = prepared.qmodel.snapshot();
    let attack = Pbfa::new(PbfaConfig::new(budget.n_bits).with_candidates_per_layer(2));
    let mut profiles = Vec::with_capacity(budget.rounds);
    for round in 0..budget.rounds {
        let batch = prepared.attacker_batch(round);
        let profile = attack.attack(&mut prepared.qmodel, batch.images(), batch.labels());
        prepared.qmodel.restore(&snapshot);
        eprintln!(
            "[harness] {} PBFA round {}/{}: loss {:.3} -> {:.3}",
            prepared.kind.name(),
            round + 1,
            budget.rounds,
            profile.loss_before,
            profile.loss_after
        );
        profiles.push(profile);
    }
    profile_cache::save(&cache, &profiles).expect("artifact directory is writable");
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_matches_documented_values() {
        let b = Budget::default();
        assert_eq!(b.rounds, 8);
        assert_eq!(b.n_bits, 10);
        assert!(b.eval_samples >= 100);
        assert!(b.threads >= 1);
    }

    #[test]
    fn count_knobs_parse_strictly() {
        assert_eq!(parse_count("0"), Ok(0));
        assert_eq!(parse_count("3"), Ok(3));
        for bad in ["", "x", "-1", " 2", "+3", "2,4", "99999999999999999999999"] {
            assert!(parse_count(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn string_knobs_accept_only_listed_values() {
        assert_eq!(one_of("smoke", &["paper", "smoke"]), Ok("smoke"));
        let err = one_of("smok", &["paper", "smoke"]).unwrap_err();
        assert!(err.contains("paper, smoke"), "{err}");
    }

    #[test]
    #[should_panic(expected = "RADAR_TEST_MALFORMED_KNOB=\"O\"")]
    fn a_malformed_knob_panics_naming_the_variable_and_value() {
        // A variable no other code reads, so setting it cannot race another test.
        std::env::set_var("RADAR_TEST_MALFORMED_KNOB", "O");
        knob("RADAR_TEST_MALFORMED_KNOB", parse_count);
    }

    #[test]
    fn an_unset_knob_keeps_its_default() {
        assert_eq!(knob("RADAR_TEST_UNSET_KNOB", parse_count), None);
    }

    #[test]
    fn fresh_model_replicates_quantization_from_checkpoint() {
        // Write a checkpoint directly (no training) and check a replica loads back to
        // bit-identical quantized values — the property campaign workers rely on.
        let dir = std::env::temp_dir().join(format!("radar_fresh_model_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        let kind = ModelKind::ResNet20Like;
        let mut float_model = kind.build_float_model(kind.dataset_spec().num_classes);
        let checkpoint = dir.join("checkpoint.rnnp");
        save_params(&mut float_model, &checkpoint).expect("temp dir is writable");
        let reference = QuantizedModel::new(Box::new(float_model));

        let replica = fresh_model_from(kind, &checkpoint);

        assert_eq!(replica.num_layers(), reference.num_layers());
        assert_eq!(replica.snapshot(), reference.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_sweeps_match_the_paper() {
        assert_eq!(ModelKind::ResNet20Like.group_sweep(), &[4, 8, 16, 32, 64]);
        assert_eq!(
            ModelKind::ResNet18Like.group_sweep(),
            &[64, 128, 256, 512, 1024]
        );
        assert_eq!(ModelKind::ResNet20Like.table3_groups(), &[8, 16, 32]);
        assert_eq!(ModelKind::ResNet18Like.table3_groups(), &[128, 256, 512]);
    }

    #[test]
    fn model_ids_are_distinct_and_stable() {
        assert_ne!(ModelKind::ResNet20Like.id(), ModelKind::ResNet18Like.id());
        assert!(ModelKind::ResNet20Like.name().contains("ResNet-20"));
        assert!(ModelKind::ResNet18Like.name().contains("ResNet-18"));
    }
}
