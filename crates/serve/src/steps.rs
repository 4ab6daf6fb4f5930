//! The protocol steps of the serving engine, as plain functions over the shared
//! state they touch.
//!
//! These are the atomic units of the serve/detect concurrency core: the ticket
//! holder's fused snapshot build and post-recovery refresh, the re-keying tick, the
//! scrubber's incremental sweep, and the walk over a detection report's flagged
//! layers. The OS-scheduled engine ([`crate::engine`])
//! calls them under its `RwLock` guards; the deterministic schedule model-checker
//! ([`crate::schedule`]) calls the *same* functions in exhaustively enumerated
//! orders — so what the checker proves is a property of the code the engine runs,
//! not of a parallel re-implementation.
//!
//! Every function here is allocation-free after its caller's scratch buffers warm up
//! (the `hot-path-alloc` rule in `crates/analyze/lints.toml` enforces this at the
//! token level).

use std::time::Duration;

use radar_core::{DetectionReport, KeyEpoch, RadarProtection, RecoveryReport};
use radar_memsim::WeightDram;
use radar_obs::Stopwatch;

use crate::recovery::recover_in_dram_traced;

/// The per-batch snapshot build: one fused fetch-and-verify pass over every layer's
/// DRAM bytes into the shared snapshot buffers `layers` — the batch's single sweep
/// over the weight stream. With `prot` provided, each layer runs the fused kernel
/// ([`RadarProtection::fetch_verify_layer_at_epoch_with_scratch`]) under the
/// [`KeyEpoch`] the builder pinned at its fetch ticket: the bytes are copied out
/// once and the masked group sums are taken over the still-cache-hot copy, so the
/// build reads the weight stream from DRAM once instead of twice. A rotation
/// publish landing between the pin and this call moves the pinned epoch into the
/// protection's `{current, previous}` acceptance window; verification proceeds
/// against the matching retained store either way. Without a protection the build
/// is a plain per-layer copy.
///
/// `layers` is resized to the layer count and refilled; capacities recycle across
/// builds (the engine pools retired snapshot buffers). Returns the merged
/// detection report (empty when `prot` is `None`).
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

/// Re-reads every layer `report` flagged from `dram` into `layers` — the refresh a
/// builder runs after an in-path recovery zeroed groups, so the snapshot it
/// publishes holds the recovered (zeroed) bytes, never the corrupted ones. This is
/// the only post-recovery read path: workers consume published snapshots and never
/// touch DRAM themselves.
pub(crate) fn refresh_layers(dram: &WeightDram, report: &DetectionReport, layers: &mut [Vec<i8>]) {
    for layer in flagged_layers(report) {
        dram.read_layer_into(layer, &mut layers[layer]);
    }
}

/// What one tick of the background re-keying task did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RotationAction {
    /// A roll to the returned epoch began (keys derived, placeholder store allocated).
    Began(KeyEpoch),
    /// One layer was verified under the current epoch, recovered if flagged, and
    /// signed into the pending epoch's store.
    Resigned {
        /// The re-signed layer.
        layer: usize,
        /// Recovery work the pre-sign check performed on that layer.
        recovered: RecoveryReport,
    },
    /// The fully re-signed epoch was published; the old epoch is retained as
    /// `previous` for pinned in-flight verification.
    Published(KeyEpoch),
    /// The previous epoch's acceptance window closed.
    Retired(KeyEpoch),
}

/// One tick of the online re-keying task: exactly one rotation action, chosen from
/// the protection's own epoch state so the engine thread and the schedule
/// model-checker drive the identical state machine:
///
/// 1. while a roll is in progress, re-sign the next layer — verifying it under the
///    *current* epoch first and recovering (in DRAM and in every retained signature
///    store) anything flagged, so corruption is never blessed into the next epoch;
/// 2. once every layer is signed, publish the pending epoch;
/// 3. with no roll in progress but a previous epoch still retained, retire it;
/// 4. otherwise begin the next roll.
///
/// A full roll of an `L`-layer model is therefore `L + 3` ticks: begin, `L`
/// re-signs, publish, retire. `on_zeroed(layer, group)` observes every group the
/// pre-sign recovery zeroed (the checker's accounting hook; the engine passes a
/// no-op).
///
/// Callers must hold exclusive access to both `prot` and `dram`, like any recovery.
pub(crate) fn rotation_step(
    dram: &mut WeightDram,
    prot: &mut RadarProtection,
    buf: &mut Vec<i8>,
    acc: &mut Vec<i32>,
    on_zeroed: impl FnMut(usize, usize),
) -> RotationAction {
    if let Some(layer) = prot.next_unsigned_layer() {
        dram.read_layer_into(layer, buf);
        let report = prot.verify_layer_values_with_scratch(layer, buf, acc);
        let mut recovered = RecoveryReport::default();
        if report.attack_detected() {
            recovered = recover_in_dram_traced(prot, dram, &report, on_zeroed);
            dram.read_layer_into(layer, buf);
        }
        prot.resign_layer(layer, buf);
        return RotationAction::Resigned { layer, recovered };
    }
    if prot.rotation_in_progress() {
        return RotationAction::Published(prot.publish_epoch());
    }
    if let Some(retired) = prot.retire_previous() {
        return RotationAction::Retired(retired);
    }
    RotationAction::Began(prot.begin_rotation())
}

/// One scrubber sweep step: verifies `step` layers of the DRAM image starting at
/// `cursor` (wrapping), straight from the stored bytes — no model replica involved.
/// Returns the merged detection report for the swept slice.
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
    for i in 0..step {
        let layer = (cursor + i) % num_layers;
        dram.read_layer_into(layer, buf);
        flagged.merge(&prot.verify_layer_values_with_scratch(layer, buf, acc));
    }
    flagged
}

/// The distinct layers named by `report`, in ascending order, without allocating.
/// (A [`DetectionReport`]'s flagged list is kept sorted by `(layer, group)` and
/// deduplicated, so adjacent-duplicate suppression is exact.)
///
/// [`refresh_layers`] walks this after an in-path recovery to re-read exactly the
/// recovered layers into the pending snapshot, so inference consumes the zeroed —
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
        recover_in_dram_traced(&mut radar, &mut dram, &report, |_, _| {});
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
        let mut tick = || rotation_step(&mut dram, &mut radar, &mut buf, &mut acc, |_, _| {});

        assert_eq!(tick(), RotationAction::Began(KeyEpoch::new(1)));
        for layer in 0..num_layers {
            assert_eq!(
                tick(),
                RotationAction::Resigned {
                    layer,
                    recovered: radar_core::RecoveryReport::default()
                }
            );
        }
        assert_eq!(tick(), RotationAction::Published(KeyEpoch::new(1)));
        assert_eq!(tick(), RotationAction::Retired(KeyEpoch::ZERO));
        // The cycle restarts.
        assert_eq!(tick(), RotationAction::Began(KeyEpoch::new(2)));
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
        let mut zeroed = Vec::new();
        let action = rotation_step(&mut dram, &mut radar, &mut buf, &mut acc, |layer, group| {
            zeroed.push((layer, group))
        });
        let RotationAction::Resigned { layer, recovered } = action else {
            panic!("expected a resign tick, got {action:?}");
        };
        assert_eq!(layer, 0);
        assert_eq!(recovered.groups_zeroed, 1);
        assert_eq!(zeroed, vec![(0, radar.group_of(0, 3))]);
        assert_eq!(dram.read(offset), 0, "corruption must be zeroed in DRAM");
        // Finish the roll; the published epoch accepts the recovered image — the
        // corruption was never blessed into the new golden store.
        while !matches!(
            rotation_step(&mut dram, &mut radar, &mut buf, &mut acc, |_, _| {}),
            RotationAction::Published(_)
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
            rotation_step(&mut dram, &mut radar, &mut buf, &mut acc, |_, _| {}),
            RotationAction::Published(_)
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
