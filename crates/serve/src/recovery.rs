use radar_core::{DetectionReport, RadarProtection, RecoveryReport};
use radar_memsim::WeightDram;

/// Zero-out recovery applied directly to the weight bytes *in DRAM*, with a re-check:
/// every layer named by `report` is first re-verified against the current image, and
/// only the groups that are **still** flagged are zeroed (and their golden signatures
/// refreshed).
///
/// The re-check is what makes concurrent detectors safe: when the in-path check and
/// the background scrubber flag the same corruption, whichever acquires the write
/// locks first performs the recovery; the second finds the image already clean and
/// does nothing — no double-zeroing, no double-counted recovery statistics, no flags
/// raised against already-recovered groups. Flips that landed *after* `report` was
/// taken but in the same layers are swept up by the re-check as a bonus.
///
/// Callers must hold exclusive access to both `radar` and `dram` (in the serving
/// engine: the write sides of their `RwLock`s, acquired in DRAM-then-protection
/// order).
pub fn recover_in_dram(
    radar: &mut RadarProtection,
    dram: &mut WeightDram,
    report: &DetectionReport,
) -> RecoveryReport {
    recover_in_dram_traced(radar, dram, report, |_, _| {})
}

/// [`recover_in_dram`] with an observer: `on_zeroed(layer, group)` is invoked exactly
/// once per group the re-check confirmed and zeroed, after the recovery completes.
///
/// The deterministic schedule model-checker uses this to account zeroed groups across
/// every enumerated interleaving — proving each corrupted group is recovered (and
/// counted) exactly once no matter which racing detector gets there first — while the
/// engine's own calls go through the no-op observer of [`recover_in_dram`].
pub fn recover_in_dram_traced(
    radar: &mut RadarProtection,
    dram: &mut WeightDram,
    report: &DetectionReport,
    mut on_zeroed: impl FnMut(usize, usize),
) -> RecoveryReport {
    if !report.attack_detected() {
        return RecoveryReport::default();
    }
    let mut layers: Vec<usize> = report.flagged.iter().map(|f| f.layer).collect();
    layers.sort_unstable();
    layers.dedup();

    let mut buf = Vec::new();
    let mut acc = Vec::new();
    let mut confirmed = DetectionReport::default();
    for &layer in &layers {
        dram.read_layer_into(layer, &mut buf);
        confirmed.merge(&radar.verify_layer_values_with_scratch(layer, &buf, &mut acc));
    }
    let recovery = radar.recover_in(&confirmed, |layer, members| {
        for &member in members {
            dram.write(dram.offset_of(layer, member), 0);
        }
    });
    // `confirmed` is merged (sorted, deduplicated), so this reports each zeroed
    // group exactly once.
    for flagged in &confirmed.flagged {
        on_zeroed(flagged.layer, flagged.group);
    }
    recovery
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_core::RadarConfig;
    use radar_memsim::DramGeometry;
    use radar_nn::{resnet20, ResNetConfig};
    use radar_quant::{QuantizedModel, MSB};

    fn setup() -> (QuantizedModel, RadarProtection, WeightDram) {
        let model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))));
        let radar = RadarProtection::new(&model, RadarConfig::paper_default(16));
        let dram = WeightDram::load(&model, DramGeometry::default());
        (model, radar, dram)
    }

    /// Reads `layer` out of `dram` and verifies it at the current epoch.
    fn verify_stored(radar: &RadarProtection, dram: &WeightDram, layer: usize) -> DetectionReport {
        let mut buf = Vec::new();
        dram.read_layer_into(layer, &mut buf);
        radar.verify_layer_values_with_scratch(layer, &buf, &mut Vec::new())
    }

    #[test]
    fn recovers_corruption_in_the_image_and_resigns() {
        let (mut model, mut radar, mut dram) = setup();
        let offset = dram.offset_of(2, 5);
        dram.flip_bit(offset, MSB);
        let report = verify_stored(&radar, &dram, 2);
        assert!(report.attack_detected());

        let recovery = recover_in_dram(&mut radar, &mut dram, &report);
        assert_eq!(recovery.groups_zeroed, 1);
        assert_eq!(dram.read(offset), 0);
        // Subsequent fetches are clean.
        dram.fetch_into(&mut model);
        assert!(!radar.detect(&model).attack_detected());
    }

    #[test]
    fn second_recovery_of_the_same_report_is_a_no_op() {
        let (_, mut radar, mut dram) = setup();
        dram.flip_bit(dram.offset_of(2, 5), MSB);
        let report = verify_stored(&radar, &dram, 2);

        let first = recover_in_dram(&mut radar, &mut dram, &report);
        assert_eq!(first.groups_zeroed, 1);
        // A concurrent detector that raced to the same (now stale) report recovers
        // nothing: the re-check sees a clean image.
        let second = recover_in_dram(&mut radar, &mut dram, &report);
        assert_eq!(second, RecoveryReport::default());
    }

    #[test]
    fn empty_report_recovers_nothing() {
        let (_, mut radar, mut dram) = setup();
        let before = dram.clone();
        let recovery = recover_in_dram(&mut radar, &mut dram, &DetectionReport::default());
        assert_eq!(recovery, RecoveryReport::default());
        assert_eq!(dram, before);
    }

    #[test]
    fn recheck_sweeps_up_flips_landed_after_the_report() {
        let (_, mut radar, mut dram) = setup();
        dram.flip_bit(dram.offset_of(2, 5), MSB);
        let report = verify_stored(&radar, &dram, 2);
        assert_eq!(report.num_flagged(), 1);
        // A second flip lands in the same layer after the report was taken.
        dram.flip_bit(dram.offset_of(2, 80), MSB);
        let recovery = recover_in_dram(&mut radar, &mut dram, &report);
        assert!(recovery.groups_zeroed >= 1);
        assert_eq!(dram.read(dram.offset_of(2, 5)), 0);
        assert_eq!(dram.read(dram.offset_of(2, 80)), 0);
        assert!(!verify_stored(&radar, &dram, 2).attack_detected());
    }
}
