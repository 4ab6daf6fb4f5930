//! The full paper pipeline on the CIFAR-like setting: train a small ResNet-20, quantize
//! it, run PBFA to find vulnerable bits, mount them through the DRAM/rowhammer model at
//! run time, then let RADAR detect the corruption and recover the accuracy.
//!
//! Run with: `cargo run --release --example attack_and_recover`
//! (Set `EPOCHS`/`NBF` to taste; defaults keep the run to a couple of minutes.)

use radar_repro::attack::{Pbfa, PbfaConfig};
use radar_repro::core::{RadarConfig, RadarProtection};
use radar_repro::data::SyntheticSpec;
use radar_repro::memsim::{DramGeometry, RowhammerInjector, WeightDram};
use radar_repro::nn::{resnet20, Adam, ResNetConfig, Trainer};
use radar_repro::quant::QuantizedModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reads a count from environment variable `key`, `default` when unset. A set value
/// that is not a non-negative integer panics, naming the variable and the value.
fn env_usize(key: &str, default: usize) -> usize {
    match std::env::var(key) {
        Ok(raw) => raw.parse().unwrap_or_else(|e| panic!("{key}={raw:?}: {e}")),
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(raw)) => panic!("{key}={raw:?}: not valid unicode"),
    }
}

fn main() {
    let epochs = env_usize("EPOCHS", 2);
    let n_bits = env_usize("NBF", 10);

    // Train a small quantized classifier on the synthetic CIFAR stand-in.
    let spec = SyntheticSpec::cifar_like().with_sizes(800, 400);
    let (train, test) = spec.generate();
    let mut model = resnet20(&ResNetConfig::new(spec.num_classes, 8, 3, 20));
    let mut rng = StdRng::seed_from_u64(1);
    println!("training for {epochs} epochs…");
    Trainer::new(Adam::new(2e-3, 1e-4), 32).fit(
        &mut model,
        train.images(),
        train.labels(),
        epochs,
        &mut rng,
    );

    let mut qmodel = QuantizedModel::new(Box::new(model));
    let clean = qmodel.accuracy(test.images(), test.labels(), 32);
    println!("clean quantized accuracy: {clean}");

    // Sign the clean weights and copy them into the DRAM model.
    let mut radar = RadarProtection::new(&qmodel, RadarConfig::paper_default(16));
    let mut dram = WeightDram::load(&qmodel, DramGeometry::default());

    // The attacker profiles the network offline (white box), then mounts the profile.
    println!("running PBFA with {n_bits} bit flips…");
    let batch = train.sample(8, &mut rng);
    let snapshot = qmodel.snapshot();
    let profile =
        Pbfa::new(PbfaConfig::new(n_bits)).attack(&mut qmodel, batch.images(), batch.labels());
    qmodel.restore(&snapshot);
    println!(
        "attacker loss: {:.3} -> {:.3}",
        profile.loss_before, profile.loss_after
    );

    let mount =
        RowhammerInjector::default().mount_and_fetch(&mut dram, &mut qmodel, &profile, &mut rng);
    println!(
        "rowhammer mounted {} flips across {} DRAM rows",
        mount.flips_landed, mount.rows_hammered
    );
    let attacked = qmodel.accuracy(test.images(), test.labels(), 32);
    println!("accuracy under attack (no defense): {attacked}");

    // RADAR's run-time pass: detect, zero out, measure the recovered accuracy.
    let (report, recovery) = radar.detect_and_recover(&mut qmodel);
    let detected = radar.count_covered(
        &report,
        &profile
            .flips
            .iter()
            .map(|f| (f.layer, f.weight))
            .collect::<Vec<_>>(),
    );
    println!(
        "RADAR flagged {} groups, detected {detected}/{} flips, zeroed {} weights",
        report.num_flagged(),
        profile.len(),
        recovery.weights_zeroed
    );
    let recovered = qmodel.accuracy(test.images(), test.labels(), 32);
    println!("accuracy after recovery: {recovered}");
}
