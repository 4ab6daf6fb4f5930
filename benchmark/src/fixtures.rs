//! The benchmark's fixtures, built once per checkout by `benchmark prepare` and
//! cached under `artifacts/benchmark/fixtures/`: the trained ResNet-20 checkpoint
//! and one 10-flip PBFA profile against it. No metric times their construction.
//!
//! The recipe is fixed here (3 epochs, seed `0x7EA1`, Adam 2e-3 / 1e-4, batch 32;
//! PBFA with 2 candidates per layer on a 16-sample attacker batch), independent of
//! any environment variable, so every checkout builds the same fixtures. Their
//! SHA-256 goes into every record: two records built on different fixtures are not
//! comparable.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use radar_attack::{AttackProfile, BitFlip, FlipDirection, Pbfa, PbfaConfig};
use radar_data::SyntheticSpec;
use radar_integrity::Sha256;
use radar_nn::{resnet20, save_params, Adam, ResNetConfig, Trainer};
use radar_quant::QuantizedModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Where the fixtures live, relative to the checkout root.
pub const DIR: &str = "artifacts/benchmark/fixtures";
const CHECKPOINT: &str = "resnet20_e3.rnnp";
const PROFILE: &str = "pbfa_n10.txt";

/// Training epochs of the ResNet-20 fixture.
pub const EPOCHS: usize = 3;
/// Seed of the training run.
pub const TRAIN_SEED: u64 = 0x7EA1;
/// Flips in the PBFA fixture.
pub const FLIPS: usize = 10;
/// Attacker batch size of the PBFA fixture.
const ATTACK_BATCH: usize = 16;
/// Seed of the attacker batch draw.
const ATTACK_SEED: u64 = 0x5EED_0000;

/// The CIFAR-10 stand-in the ResNet-20 fixture is trained and served on.
pub fn cifar_spec() -> SyntheticSpec {
    SyntheticSpec::cifar_like().with_sizes(1_600, 800)
}

/// The ResNet-20 architecture of the fixture.
pub fn resnet20_config() -> ResNetConfig {
    ResNetConfig::new(cifar_spec().num_classes, 16, 3, 20)
}

/// Loaded fixtures.
#[derive(Debug, Clone, PartialEq)]
pub struct Fixtures {
    /// Path of the trained float checkpoint.
    pub checkpoint: PathBuf,
    /// The PBFA profile the attack workload strikes with.
    pub profile: AttackProfile,
    /// SHA-256 over the checkpoint bytes followed by the profile bytes.
    pub sha256: String,
}

/// Loads the cached fixtures from `dir`.
pub fn load(dir: &Path) -> Result<Fixtures, String> {
    let checkpoint = dir.join(CHECKPOINT);
    let weights = std::fs::read(&checkpoint)
        .map_err(|e| format!("cannot read {}: {e}", checkpoint.display()))?;
    let profile_path = dir.join(PROFILE);
    let profile_text = std::fs::read_to_string(&profile_path)
        .map_err(|e| format!("cannot read {}: {e}", profile_path.display()))?;
    let profile =
        parse_profile(&profile_text).map_err(|e| format!("{}: {e}", profile_path.display()))?;
    let mut hash = Sha256::new();
    hash.update(&weights);
    hash.update(profile_text.as_bytes());
    Ok(Fixtures {
        checkpoint,
        profile,
        sha256: hex(&hash.finalize()),
    })
}

/// Builds the fixtures into `dir` unless they are already there (≈1 min on two
/// cores: three training epochs plus one PBFA round).
pub fn prepare(dir: &Path) -> Result<Fixtures, String> {
    if let Ok(fixtures) = load(dir) {
        return Ok(fixtures);
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (train, _) = cifar_spec().generate();
    let mut model = resnet20(&resnet20_config());
    eprintln!("[prepare] training ResNet-20 for {EPOCHS} epochs");
    let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
    Trainer::new(Adam::new(2e-3, 1e-4), 32).fit(
        &mut model,
        train.images(),
        train.labels(),
        EPOCHS,
        &mut rng,
    );
    // Staged under process-unique names and published by rename, so neither an
    // interrupted nor a concurrent prepare leaves a half-written fixture behind
    // for `load` to accept.
    let pid = std::process::id();
    let staged = dir.join(format!("{CHECKPOINT}.{pid}.tmp"));
    save_params(&mut model, &staged).map_err(|e| format!("cannot save checkpoint: {e}"))?;

    eprintln!("[prepare] PBFA: {FLIPS} flips");
    let mut qmodel = QuantizedModel::new(Box::new(model));
    let batch = train.sample(ATTACK_BATCH, &mut StdRng::seed_from_u64(ATTACK_SEED));
    let profile = Pbfa::new(PbfaConfig::new(FLIPS).with_candidates_per_layer(2)).attack(
        &mut qmodel,
        batch.images(),
        batch.labels(),
    );
    let staged_profile = dir.join(format!("{PROFILE}.{pid}.tmp"));
    std::fs::write(&staged_profile, render_profile(&profile))
        .map_err(|e| format!("cannot write profile: {e}"))?;
    for (from, to) in [(staged, CHECKPOINT), (staged_profile, PROFILE)] {
        std::fs::rename(&from, dir.join(to))
            .map_err(|e| format!("cannot publish {}: {e}", from.display()))?;
    }
    load(dir)
}

/// Loads the fixtures, building them first in a child process when they are
/// missing, so training's memory never counts towards this process's peak RSS.
pub fn ensure(dir: &Path) -> Result<Fixtures, String> {
    if let Ok(fixtures) = load(dir) {
        return Ok(fixtures);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let status = Command::new(exe)
        .arg("prepare")
        .stdin(Stdio::null())
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("cannot run prepare: {e}"))?;
    if !status.success() {
        return Err(format!("prepare failed: {status}"));
    }
    load(dir)
}

fn render_profile(profile: &AttackProfile) -> String {
    let mut out = format!("profile {} {}\n", profile.loss_before, profile.loss_after);
    for f in &profile.flips {
        let direction = match f.direction {
            FlipDirection::ZeroToOne => "01",
            FlipDirection::OneToZero => "10",
        };
        let _ = writeln!(
            out,
            "flip {} {} {} {direction} {}",
            f.layer, f.weight, f.bit, f.weight_before
        );
    }
    out
}

fn parse_profile(text: &str) -> Result<AttackProfile, String> {
    fn num<T: std::str::FromStr>(field: &str, what: &str) -> Result<T, String> {
        field.parse().map_err(|_| format!("bad {what} {field:?}"))
    }
    let mut lines = text.lines();
    let header: Vec<&str> = lines
        .next()
        .ok_or("empty profile")?
        .split_whitespace()
        .collect();
    let ["profile", before, after] = header.as_slice() else {
        return Err("missing profile header".into());
    };
    let mut profile = AttackProfile {
        flips: Vec::new(),
        loss_before: num(before, "loss")?,
        loss_after: num(after, "loss")?,
    };
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let ["flip", layer, weight, bit, direction, before] = fields.as_slice() else {
            return Err(format!("unrecognized line {line:?}"));
        };
        let bit: u32 = num(bit, "bit")?;
        if bit >= 8 {
            return Err(format!("bit {bit} out of range"));
        }
        profile.flips.push(BitFlip {
            layer: num(layer, "layer")?,
            weight: num(weight, "weight")?,
            bit,
            direction: match *direction {
                "01" => FlipDirection::ZeroToOne,
                "10" => FlipDirection::OneToZero,
                other => return Err(format!("bad direction {other:?}")),
            },
            weight_before: num(before, "weight value")?,
        });
    }
    Ok(profile)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut out, b| {
        let _ = write!(out, "{b:02x}");
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_round_trip_and_malformed_ones_are_rejected() {
        let profile = AttackProfile {
            flips: vec![
                BitFlip {
                    layer: 3,
                    weight: 42,
                    bit: 7,
                    direction: FlipDirection::ZeroToOne,
                    weight_before: 5,
                },
                BitFlip {
                    layer: 0,
                    weight: 1,
                    bit: 6,
                    direction: FlipDirection::OneToZero,
                    weight_before: -9,
                },
            ],
            loss_before: 0.25,
            loss_after: 3.5,
        };
        assert_eq!(parse_profile(&render_profile(&profile)), Ok(profile));
        for bad in [
            "",
            "flip 1 2 3 01 4\n",
            "profile 0.1 0.2\nflip 1 2 9 01 4\n",
            "profile 0.1 0.2\nflip 1 2 7 11 4\n",
            "profile 0.1 0.2\nnonsense\n",
        ] {
            assert!(parse_profile(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn missing_fixtures_fail_to_load() {
        let dir =
            std::env::temp_dir().join(format!("radar_benchmark_nofix_{}", std::process::id()));
        assert!(load(&dir).is_err());
    }

    #[test]
    fn hex_is_lowercase_and_padded() {
        assert_eq!(hex(&[0x00, 0xab, 0x7f]), "00ab7f");
    }
}
