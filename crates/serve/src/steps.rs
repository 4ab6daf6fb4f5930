//! The protocol steps of the serving engine, as plain functions over the state
//! they touch.
//!
//! The batcher ([`crate::engine`]) runs each of them in batch order, on its own
//! thread: the fused image build and the post-recovery refresh, the re-keying tick,
//! the incremental scrub sweep, and the walk over a detection report's flagged
//! layers. Each is tested here on its own against an unfused reference.
//!
//! Every function here is allocation-free after its caller's scratch buffers warm up
//! (the `hot-path-alloc` rule in `crates/analyze/lints.toml` enforces this at the
//! token level).

use std::time::Duration;

use radar_core::{DetectionReport, KeyEpoch, RadarProtection, RecoveryReport};
use radar_memsim::WeightDram;
use radar_obs::Stopwatch;

use crate::recovery::recover_in_dram;
use crate::telemetry::RotationEventKind;

/// The per-batch image build: one fused fetch-and-verify pass over every layer's
/// DRAM bytes into the batch's image `layers` — the batch's single sweep over the
/// weight stream. With `prot` provided, each layer runs the fused kernel
/// ([`RadarProtection::fetch_verify_layer_at_epoch_with_scratch`]) under the given
/// [`KeyEpoch`] (the engine passes the current one; the protection also accepts
/// the previous epoch until it is retired): each row of bytes is copied into the
/// image and added to the masked group sums while it is still in L1, so the build
/// reads the weight stream from DRAM once instead of twice. Without a protection
/// the build is a plain per-layer copy.
///
/// `layers` is resized to the layer count and refilled in place, so an image
/// allocates on its first build only. Returns the merged detection report (empty
/// when `prot` is `None`).
///
/// `checking` accumulates the *whole* fused sweep time: copy and check are one
/// pass here, so verify-duty attributes the entire fetch stream to verification —
/// an upper bound, documented in `docs/OBSERVABILITY.md`.
pub(crate) fn build_snapshot(
    dram: &WeightDram,
    prot: Option<(&RadarProtection, KeyEpoch)>,
    layers: &mut Vec<Vec<i8>>,
    acc: &mut Vec<i32>,
    checking: &mut Duration,
) -> DetectionReport {
    layers.resize_with(dram.num_layers(), Vec::new);
    let mut flagged = DetectionReport::default();
    for (layer, buf) in layers.iter_mut().enumerate() {
        match prot {
            Some((prot, epoch)) => {
                let started = Stopwatch::start();
                flagged.merge(&prot.fetch_verify_layer_at_epoch_with_scratch(
                    epoch,
                    layer,
                    dram.layer_bytes(layer),
                    buf,
                    acc,
                ));
                *checking += started.elapsed_duration();
            }
            None => dram.read_layer_into(layer, buf),
        }
    }
    flagged
}

/// Re-reads every layer `report` flagged from `dram` into `layers` — the refresh the
/// batcher runs after an in-path recovery zeroed groups, so the image it dispatches
/// holds the recovered (zeroed) bytes, never the corrupted ones. This and
/// [`build_snapshot`] are the only reads of DRAM into an image.
pub(crate) fn refresh_layers(dram: &WeightDram, report: &DetectionReport, layers: &mut [Vec<i8>]) {
    for layer in flagged_layers(report) {
        dram.read_layer_into(layer, &mut layers[layer]);
    }
}

/// One tick of online re-keying: exactly one rotation action, chosen from the
/// protection's own epoch state:
///
/// 1. while a roll is in progress, re-sign the next layer — verifying it under the
///    *current* epoch first and recovering (in DRAM and in every retained signature
///    store) anything flagged, so corruption is never blessed into the next epoch.
///    The check is the fused kernel, and the layer is re-signed from the copy it
///    leaves in `buf` (re-read after a recovery, so it holds the zeroed bytes);
/// 2. once every layer is signed, publish the pending epoch;
/// 3. with no roll in progress but a previous epoch still retained, retire it;
/// 4. otherwise begin the next roll.
///
/// A full roll of an `L`-layer model is therefore `L + 3` ticks: begin, `L`
/// re-signs, publish, retire. Returns the action taken and the recovery work the
/// pre-sign check performed (empty unless a re-sign tick found corruption).
pub(crate) fn rotation_step(
    dram: &mut WeightDram,
    prot: &mut RadarProtection,
    buf: &mut Vec<i8>,
    acc: &mut Vec<i32>,
) -> (RotationEventKind, RecoveryReport) {
    let mut recovered = RecoveryReport::default();
    let kind = if let Some(layer) = prot.next_unsigned_layer() {
        let report = prot.fetch_verify_layer_at_epoch_with_scratch(
            prot.current_epoch(),
            layer,
            dram.layer_bytes(layer),
            buf,
            acc,
        );
        if report.attack_detected() {
            recovered = recover_in_dram(prot, dram, &report);
            dram.read_layer_into(layer, buf);
        }
        prot.resign_layer(layer, buf);
        RotationEventKind::Resigned {
            layer,
            groups_recovered: recovered.groups_zeroed,
        }
    } else if prot.rotation_in_progress() {
        RotationEventKind::Published(prot.publish_epoch())
    } else if let Some(retired) = prot.retire_previous() {
        RotationEventKind::Retired(retired)
    } else {
        RotationEventKind::Began(prot.begin_rotation())
    };
    (kind, recovered)
}

/// One scrub sweep step: verifies `step` layers of the DRAM image starting at
/// `cursor` (wrapping), straight from the stored bytes — no model replica involved —
/// with the fused kernel at the current epoch, one pass per layer (the copy it leaves
/// in `buf` is scratch). Returns the merged detection report for the swept slice.
pub(crate) fn scrub_sweep(
    dram: &WeightDram,
    prot: &RadarProtection,
    cursor: usize,
    step: usize,
    buf: &mut Vec<i8>,
    acc: &mut Vec<i32>,
) -> DetectionReport {
    let num_layers = dram.num_layers();
    let mut flagged = DetectionReport::default();
    let epoch = prot.current_epoch();
    for i in 0..step {
        let layer = (cursor + i) % num_layers;
        flagged.merge(&prot.fetch_verify_layer_at_epoch_with_scratch(
            epoch,
            layer,
            dram.layer_bytes(layer),
            buf,
            acc,
        ));
    }
    flagged
}

/// The distinct layers named by `report`, in ascending order, without allocating.
/// (A [`DetectionReport`]'s flagged list is kept sorted by `(layer, group)` and
/// deduplicated, so adjacent-duplicate suppression is exact.)
///
/// [`refresh_layers`] walks this after an in-path recovery to re-read exactly the
/// recovered layers into the batch's image, so inference consumes the zeroed —
/// not corrupted — weights.
pub(crate) fn flagged_layers(report: &DetectionReport) -> impl Iterator<Item = usize> + '_ {
    let mut last = None;
    report.flagged.iter().filter_map(move |f| {
        if last == Some(f.layer) {
            None
        } else {
            last = Some(f.layer);
            Some(f.layer)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_core::{FlaggedGroup, RadarConfig};
    use radar_memsim::DramGeometry;
    use radar_nn::{resnet20, ResNetConfig};
    use radar_quant::{QuantizedModel, MSB};

    fn setup() -> (RadarProtection, WeightDram) {
        let model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))));
        let radar = RadarProtection::new(&model, RadarConfig::paper_default(16));
        let dram = WeightDram::load(&model, DramGeometry::default());
        (radar, dram)
    }

    /// The unfused reference for [`build_snapshot`]: copy every layer out of DRAM,
    /// then verify the copy in a second pass at `radar`'s current epoch.
    fn read_then_verify(
        dram: &WeightDram,
        radar: &RadarProtection,
    ) -> (DetectionReport, Vec<Vec<i8>>) {
        let (mut report, mut acc) = (DetectionReport::default(), Vec::new());
        let layers = (0..dram.num_layers())
            .map(|layer| {
                let mut buf = Vec::new();
                dram.read_layer_into(layer, &mut buf);
                report.merge(&radar.verify_layer_values_with_scratch(layer, &buf, &mut acc));
                buf
            })
            .collect();
        (report, layers)
    }

    #[test]
    fn build_snapshot_matches_a_separate_read_and_verify_bit_for_bit() {
        let (radar, mut dram) = setup();
        dram.flip_bit(dram.offset_of(2, 5), MSB);
        let epoch = radar.current_epoch();
        let (mut acc, mut checking) = (Vec::new(), Duration::ZERO);
        let mut snap = Vec::new();
        let report = build_snapshot(
            &dram,
            Some((&radar, epoch)),
            &mut snap,
            &mut acc,
            &mut checking,
        );
        assert!(report.attack_detected());
        assert!(report.contains(2, radar.group_of(2, 5)));
        assert!(checking > Duration::ZERO);
        let (expect_report, expect_layers) = read_then_verify(&dram, &radar);
        assert_eq!(report, expect_report);
        assert_eq!(
            snap, expect_layers,
            "fused build must copy the exact DRAM bytes"
        );
        // The unprotected build copies the same bytes and flags nothing.
        let clean = build_snapshot(&dram, None, &mut snap, &mut acc, &mut checking);
        assert!(!clean.attack_detected());
        assert_eq!(snap, expect_layers);
    }

    #[test]
    fn refresh_layers_pulls_recovered_bytes_into_the_snapshot() {
        let (mut radar, mut dram) = setup();
        let offset = dram.offset_of(2, 5);
        dram.flip_bit(offset, MSB);
        let (mut acc, mut checking) = (Vec::new(), Duration::ZERO);
        let mut snap = Vec::new();
        let report = build_snapshot(
            &dram,
            Some((&radar, radar.current_epoch())),
            &mut snap,
            &mut acc,
            &mut checking,
        );
        assert!(report.attack_detected());
        recover_in_dram(&mut radar, &mut dram, &report);
        refresh_layers(&dram, &report, &mut snap);
        let mut expect = Vec::new();
        dram.read_layer_into(2, &mut expect);
        assert_eq!(
            snap[2], expect,
            "refreshed layer must hold the zeroed bytes"
        );
        assert_eq!(dram.read(offset), 0);
    }

    #[test]
    fn scrub_sweep_wraps_the_cursor_and_catches_the_victim_layer() {
        let (radar, mut dram) = setup();
        let victim = 1usize;
        dram.flip_bit(dram.offset_of(victim, 0), MSB);
        let (mut buf, mut acc) = (Vec::new(), Vec::new());
        let num_layers = dram.num_layers();
        // A sweep starting past the victim wraps around and still covers it.
        let report = scrub_sweep(&dram, &radar, victim + 1, num_layers, &mut buf, &mut acc);
        assert!(report.attack_detected());
        assert!(report.contains(victim, radar.group_of(victim, 0)));
        // A sweep step that misses the victim layer stays clean.
        let miss = scrub_sweep(&dram, &radar, victim + 1, 1, &mut buf, &mut acc);
        assert!(!miss.attack_detected());
    }

    #[test]
    fn rotation_ticks_complete_a_full_roll() {
        let (mut radar, mut dram) = setup();
        let num_layers = dram.num_layers();
        let (mut buf, mut acc) = (Vec::new(), Vec::new());
        let mut tick = || {
            let (kind, recovered) = rotation_step(&mut dram, &mut radar, &mut buf, &mut acc);
            assert_eq!(
                recovered,
                RecoveryReport::default(),
                "a clean roll recovers nothing"
            );
            kind
        };

        assert_eq!(tick(), RotationEventKind::Began(KeyEpoch::new(1)));
        for layer in 0..num_layers {
            assert_eq!(
                tick(),
                RotationEventKind::Resigned {
                    layer,
                    groups_recovered: 0
                }
            );
        }
        assert_eq!(tick(), RotationEventKind::Published(KeyEpoch::new(1)));
        assert_eq!(tick(), RotationEventKind::Retired(KeyEpoch::ZERO));
        // The cycle restarts.
        assert_eq!(tick(), RotationEventKind::Began(KeyEpoch::new(2)));
        assert_eq!(radar.current_epoch(), KeyEpoch::new(1));
    }

    #[test]
    fn resign_tick_recovers_corruption_before_signing() {
        let (mut radar, mut dram) = setup();
        radar.begin_rotation();
        // Corrupt layer 0 before its re-sign tick.
        let offset = dram.offset_of(0, 3);
        dram.flip_bit(offset, MSB);
        let (mut buf, mut acc) = (Vec::new(), Vec::new());
        let struck = dram.clone();
        let (kind, recovered) = rotation_step(&mut dram, &mut radar, &mut buf, &mut acc);
        assert_eq!(
            kind,
            RotationEventKind::Resigned {
                layer: 0,
                groups_recovered: 1
            }
        );
        assert_eq!(recovered.groups_zeroed, 1);
        assert_eq!(dram.read(offset), 0, "corruption must be zeroed in DRAM");
        // Only the flipped weight's group was zeroed.
        let group = radar.group_of(0, 3);
        for weight in 0..dram.layer_bytes(0).len() {
            let at = dram.offset_of(0, weight);
            if dram.read(at) != struck.read(at) {
                assert_eq!(radar.group_of(0, weight), group, "weight {weight}");
            }
        }
        // Finish the roll; the published epoch accepts the recovered image — the
        // corruption was never blessed into the new golden store.
        while !matches!(
            rotation_step(&mut dram, &mut radar, &mut buf, &mut acc),
            (RotationEventKind::Published(_), _)
        ) {}
        dram.read_layer_into(0, &mut buf);
        assert!(!radar
            .verify_layer_values_with_scratch(0, &buf, &mut acc)
            .attack_detected());
    }

    #[test]
    fn fetch_pinned_to_the_previous_epoch_still_detects() {
        let (mut radar, mut dram) = setup();
        let pinned = radar.current_epoch();
        // The oracle verifies at the current epoch of a copy taken before the roll.
        let before_roll = radar.clone();
        // A full roll publishes epoch 1 while our pin is still epoch 0.
        let (mut buf, mut acc) = (Vec::new(), Vec::new());
        while !matches!(
            rotation_step(&mut dram, &mut radar, &mut buf, &mut acc),
            (RotationEventKind::Published(_), _)
        ) {}
        assert_eq!(radar.previous_epoch(), Some(pinned));
        dram.flip_bit(dram.offset_of(1, 2), MSB);
        let (mut snap, mut checking) = (Vec::new(), Duration::ZERO);
        let report = build_snapshot(
            &dram,
            Some((&radar, pinned)),
            &mut snap,
            &mut acc,
            &mut checking,
        );
        assert!(report.contains(1, radar.group_of(1, 2)));
        let (expect_report, expect_layers) = read_then_verify(&dram, &before_roll);
        assert_eq!(report, expect_report);
        assert_eq!(snap, expect_layers);
    }

    #[test]
    fn flagged_layers_deduplicates_in_order() {
        let report = DetectionReport {
            flagged: vec![
                FlaggedGroup { layer: 1, group: 0 },
                FlaggedGroup { layer: 1, group: 3 },
                FlaggedGroup { layer: 4, group: 2 },
            ],
        };
        assert_eq!(flagged_layers(&report).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(flagged_layers(&DetectionReport::default()).count(), 0);
    }
}
