use radar_quant::QuantizedModel;

use crate::config::RadarConfig;
use crate::grouping::GroupLayout;
use crate::key::{KeyEpoch, KeySchedule, SecretKey};
use crate::signature::{binarize, SignatureBits};
use crate::store::SignatureStore;

/// Per-layer protection state: the layer's secret key and group layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerProtection {
    key: SecretKey,
    layout: GroupLayout,
}

impl LayerProtection {
    /// The layer's secret key.
    pub fn key(&self) -> SecretKey {
        self.key
    }

    /// The layer's group layout.
    pub fn layout(&self) -> GroupLayout {
        self.layout
    }

    /// Signs `values` under this layer's key: one [`GroupLayout::masked_sums`] sweep,
    /// then [`binarize`] per group.
    fn sign(&self, values: &[i8], bits: SignatureBits) -> Vec<u8> {
        let mut sums = vec![0; self.layout.num_groups()];
        self.layout.masked_sums(&self.key, values, &mut sums);
        sums.into_iter().map(|m| binarize(m, bits)).collect()
    }
}

/// A group whose run-time signature disagreed with the golden signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlaggedGroup {
    /// Index of the protected layer.
    pub layer: usize,
    /// Group index within the layer.
    pub group: usize,
}

/// Result of one run-time detection pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DetectionReport {
    /// All groups whose signatures mismatched, in `(layer, group)` order.
    pub flagged: Vec<FlaggedGroup>,
}

impl DetectionReport {
    /// Whether any group was flagged (i.e. an attack was detected).
    pub fn attack_detected(&self) -> bool {
        !self.flagged.is_empty()
    }

    /// Number of flagged groups.
    pub fn num_flagged(&self) -> usize {
        self.flagged.len()
    }

    /// Whether a specific `(layer, group)` was flagged.
    pub fn contains(&self, layer: usize, group: usize) -> bool {
        self.flagged
            .iter()
            .any(|f| f.layer == layer && f.group == group)
    }

    /// Folds another report into this one; used by the incremental fetch-path checks to
    /// combine per-layer verdicts into a whole-pass report.
    ///
    /// The merged report is restored to sorted `(layer, group)` order and deduplicated
    /// — unconditionally, even when `other` is empty — so a group flagged by two
    /// overlapping range checks (or listed twice in a hand-built report) appears once
    /// and downstream consumers (recovery statistics above all) never see the same
    /// group twice.
    pub fn merge(&mut self, other: &DetectionReport) {
        self.flagged.extend_from_slice(&other.flagged);
        self.flagged.sort_unstable_by_key(|f| (f.layer, f.group));
        self.flagged.dedup();
    }
}

/// Result of the zero-out recovery pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Number of groups whose weights were zeroed.
    pub groups_zeroed: usize,
    /// Total number of weights set to zero.
    pub weights_zeroed: usize,
}

/// One epoch's verification state: the per-layer keys and layouts and the golden
/// [`SignatureStore`] — always paired, always from the same [`KeyEpoch`].
#[derive(Debug, Clone, PartialEq)]
struct EpochState {
    epoch: KeyEpoch,
    layers: Vec<LayerProtection>,
    golden: SignatureStore,
}

impl EpochState {
    /// Verifies one layer's raw weight values against this epoch's keys and golden
    /// store, appending mismatches to `report` — the verify core behind both
    /// per-layer kernels. `acc` is grown to the layer's group count, never shrunk.
    fn check_layer(
        &self,
        layer: usize,
        values: &[i8],
        acc: &mut Vec<i32>,
        report: &mut DetectionReport,
    ) {
        assert!(
            layer < self.layers.len(),
            "layer {layer} out of bounds for {} layers",
            self.layers.len()
        );
        let LayerProtection { key, layout } = self.layers[layer];
        assert_eq!(
            values.len(),
            layout.len(),
            "layer {layer} size changed since signing"
        );
        let groups = layout.num_groups();
        if acc.len() < groups {
            acc.resize(groups, 0);
        }
        layout.masked_sums(&key, values, acc);
        let bits = self.golden.signature_bits();
        for (group, &m) in acc[..groups].iter().enumerate() {
            if binarize(m, bits) != self.golden.signature(layer, group) {
                report.flagged.push(FlaggedGroup { layer, group });
            }
        }
    }
}

/// The next epoch while it is being signed layer-by-layer, before publication.
#[derive(Debug, Clone, PartialEq)]
struct PendingEpoch {
    state: EpochState,
    /// Layers `0..resigned` hold valid signatures; the rest are placeholders.
    resigned: usize,
}

/// The RADAR defense: golden signatures plus run-time detection and recovery.
///
/// Construction corresponds to the offline signing step (Algorithm 1 on the clean
/// model, with the golden signatures and per-layer keys stored "on chip");
/// [`detect`](Self::detect) and [`recover`](Self::recover) are the run-time steps
/// embedded in inference.
///
/// Every check runs through one of two per-layer kernels:
/// [`verify_layer_values_with_scratch`](Self::verify_layer_values_with_scratch)
/// verifies in-memory `i8` values at the current epoch, and
/// [`fetch_verify_layer_at_epoch_with_scratch`](Self::fetch_verify_layer_at_epoch_with_scratch)
/// copies DRAM bytes out and verifies the copy at a pinned epoch. Both run one
/// [`GroupLayout::masked_sums`] sweep per layer, and [`detect`](Self::detect) loops
/// the same per-layer check over a whole model. Per layer, the protection holds only
/// the [`GroupLayout`], the [`SecretKey`] and the packed golden signatures.
///
/// # Key epochs
///
/// Keys are not a static per-layer draw: a [`KeySchedule`] derives an independent
/// key per `(layer, epoch)` cell from a master secret expanded from
/// `config.key_seed`, and the protection can *roll* to the next epoch under live
/// traffic:
///
/// 1. [`begin_rotation`](Self::begin_rotation) derives the next epoch's keys and
///    allocates its (placeholder) signature store;
/// 2. [`resign_layer`](Self::resign_layer) signs one layer at a time under the
///    next epoch — the caller must verify-and-recover the layer under the current
///    epoch *first*, or corruption would be blessed into the new golden store;
/// 3. [`publish_epoch`](Self::publish_epoch) makes the pending epoch current and
///    retains the old epoch as `previous`, so verification pinned to the old
///    epoch
///    ([`fetch_verify_layer_at_epoch_with_scratch`](Self::fetch_verify_layer_at_epoch_with_scratch))
///    keeps working during the hand-over;
/// 4. [`retire_previous`](Self::retire_previous) drops the old epoch once no
///    in-flight work can still be pinned to it.
///
/// Recovery refreshes the zeroed groups' signatures in *every* retained epoch
/// store (a zeroed group's masked sum is 0 under any key, so the refreshed
/// signature is epoch-independent), which keeps racing detectors idempotent
/// across an epoch boundary.
///
/// # Example
///
/// ```
/// use radar_core::{RadarConfig, RadarProtection};
/// use radar_nn::{resnet20, ResNetConfig};
/// use radar_quant::{QuantizedModel, MSB};
///
/// let mut model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(10))));
/// let mut radar = RadarProtection::new(&model, RadarConfig::paper_default(32));
/// assert!(!radar.detect(&model).attack_detected());
///
/// model.flip_bit(0, 0, MSB); // rowhammer!
/// let report = radar.detect(&model);
/// assert!(report.attack_detected());
/// radar.recover(&mut model, &report);
/// assert!(!radar.detect(&model).attack_detected());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RadarProtection {
    config: RadarConfig,
    schedule: KeySchedule,
    current: EpochState,
    previous: Option<EpochState>,
    pending: Option<PendingEpoch>,
}

impl RadarProtection {
    /// Signs the (clean) `model` under `config`, producing the golden signature store.
    /// The initial epoch is [`KeyEpoch::ZERO`].
    pub fn new(model: &QuantizedModel, config: RadarConfig) -> Self {
        let schedule = KeySchedule::from_seed(config.key_seed);
        let layouts: Vec<GroupLayout> = model
            .layers()
            .iter()
            .map(|layer| GroupLayout::new(layer.len(), config.group_size, config.grouping))
            .collect();
        let layers = Self::epoch_layers(&config, &schedule, &layouts, KeyEpoch::ZERO);
        let mut golden = SignatureStore::for_epoch(config.signature_bits, KeyEpoch::ZERO);
        for (protection, layer) in layers.iter().zip(model.layers()) {
            golden.push_layer(protection.sign(layer.weights().values(), config.signature_bits));
        }
        RadarProtection {
            config,
            schedule,
            current: EpochState {
                epoch: KeyEpoch::ZERO,
                layers,
                golden,
            },
            previous: None,
            pending: None,
        }
    }

    /// Derives the per-layer keys of `epoch` and pairs them with the layouts.
    ///
    /// With `config.masking` disabled every layer gets the explicit
    /// [`SecretKey::insecure_unmasked`] ablation key — turning masking off in
    /// the config is the deliberate opt-in; there is no default path that
    /// lands on the unmasked key by accident.
    fn epoch_layers(
        config: &RadarConfig,
        schedule: &KeySchedule,
        layouts: &[GroupLayout],
        epoch: KeyEpoch,
    ) -> Vec<LayerProtection> {
        layouts
            .iter()
            .enumerate()
            .map(|(i, &layout)| {
                let key = if config.masking {
                    schedule.layer_key(i, epoch)
                } else {
                    SecretKey::insecure_unmasked()
                };
                LayerProtection { key, layout }
            })
            .collect()
    }

    /// The scheme configuration.
    pub fn config(&self) -> &RadarConfig {
        &self.config
    }

    /// Per-layer protection state of the current epoch.
    pub fn layers(&self) -> &[LayerProtection] {
        &self.current.layers
    }

    /// The golden signature store of the current epoch (what would be kept in
    /// secure on-chip memory).
    pub fn golden(&self) -> &SignatureStore {
        &self.current.golden
    }

    /// The currently published key epoch.
    pub fn current_epoch(&self) -> KeyEpoch {
        self.current.epoch
    }

    /// The retained previous epoch, if the last roll has not been retired yet.
    pub fn previous_epoch(&self) -> Option<KeyEpoch> {
        self.previous.as_ref().map(|s| s.epoch)
    }

    /// The epoch currently being signed, together with how many layers already
    /// carry valid signatures under it.
    pub fn pending_progress(&self) -> Option<(KeyEpoch, usize)> {
        self.pending.as_ref().map(|p| (p.state.epoch, p.resigned))
    }

    /// Whether a key roll has begun and not yet been published.
    pub fn rotation_in_progress(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether verification requests pinned to `epoch` are still served by a
    /// retained epoch state (current or previous).
    pub fn accepts_epoch(&self, epoch: KeyEpoch) -> bool {
        epoch == self.current.epoch || self.previous_epoch() == Some(epoch)
    }

    /// Starts the next key roll: derives every layer's key for
    /// `current_epoch().next()` and allocates its signature store with
    /// placeholder signatures. Layers must then be re-signed in order via
    /// [`resign_layer`](Self::resign_layer) before
    /// [`publish_epoch`](Self::publish_epoch).
    ///
    /// Returns the new epoch.
    ///
    /// # Panics
    ///
    /// Panics if a roll is already in progress.
    pub fn begin_rotation(&mut self) -> KeyEpoch {
        assert!(
            self.pending.is_none(),
            "a key roll to {} is already in progress",
            self.pending
                .as_ref()
                .map(|p| p.state.epoch)
                .unwrap_or_default()
        );
        let epoch = self.current.epoch.next();
        let layouts: Vec<GroupLayout> = self.current.layers.iter().map(|l| l.layout).collect();
        let layers = Self::epoch_layers(&self.config, &self.schedule, &layouts, epoch);
        let mut golden = SignatureStore::for_epoch(self.config.signature_bits, epoch);
        for layer in &layers {
            golden.push_layer(vec![0u8; layer.layout.num_groups()]);
        }
        self.pending = Some(PendingEpoch {
            state: EpochState {
                epoch,
                layers,
                golden,
            },
            resigned: 0,
        });
        epoch
    }

    /// The next layer awaiting a signature under the pending epoch, or `None`
    /// when no roll is in progress or every layer is already re-signed.
    pub fn next_unsigned_layer(&self) -> Option<usize> {
        self.pending
            .as_ref()
            .filter(|p| p.resigned < p.state.layers.len())
            .map(|p| p.resigned)
    }

    /// Whether every layer has been re-signed and the pending epoch is ready
    /// for [`publish_epoch`](Self::publish_epoch).
    pub fn rotation_complete(&self) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|p| p.resigned == p.state.layers.len())
    }

    /// Signs one layer's `values` under the pending epoch.
    ///
    /// The caller must have verified (and, if flagged, recovered) `values`
    /// under the *current* epoch immediately before this call — re-signing is
    /// trust transfer, and signing unverified bytes would bless whatever
    /// corruption they carry into the next epoch's golden store.
    ///
    /// # Panics
    ///
    /// Panics if no roll is in progress, if `layer` is not the next layer in
    /// order, or if `values` does not have the layer's signed size.
    pub fn resign_layer(&mut self, layer: usize, values: &[i8]) {
        let bits = self.config.signature_bits;
        let pending = self.pending.as_mut().expect("no key roll in progress");
        assert_eq!(
            layer, pending.resigned,
            "layers must be re-signed in order: expected layer {}, got {layer}",
            pending.resigned
        );
        let sigs = pending.state.layers[layer].sign(values, bits);
        for (group, &sig) in sigs.iter().enumerate() {
            pending.state.golden.set_signature(layer, group, sig);
        }
        pending.resigned += 1;
    }

    /// Publishes the fully re-signed pending epoch: it becomes current, and
    /// the old current epoch is retained as `previous` so verification pinned
    /// to it keeps being answered until
    /// [`retire_previous`](Self::retire_previous).
    ///
    /// Returns the newly current epoch.
    ///
    /// # Panics
    ///
    /// Panics if no roll is in progress or not every layer has been re-signed.
    pub fn publish_epoch(&mut self) -> KeyEpoch {
        assert!(
            self.rotation_complete(),
            "cannot publish {:?}: {:?} of {} layers re-signed",
            self.pending.as_ref().map(|p| p.state.epoch),
            self.pending.as_ref().map(|p| p.resigned),
            self.current.layers.len()
        );
        let pending = self.pending.take().expect("no key roll in progress");
        let old = std::mem::replace(&mut self.current, pending.state);
        self.previous = Some(old);
        self.current.epoch
    }

    /// Drops the retained previous epoch (if any), ending its acceptance
    /// window. Returns the retired epoch.
    pub fn retire_previous(&mut self) -> Option<KeyEpoch> {
        self.previous.take().map(|s| s.epoch)
    }

    /// Signature storage overhead in bytes (current epoch).
    pub fn storage_bytes(&self) -> usize {
        self.current.golden.storage_bytes()
    }

    /// Signature storage overhead in kilobytes (current epoch).
    pub fn storage_kb(&self) -> f64 {
        self.current.golden.storage_kb()
    }

    /// Runs the full detection pass: recomputes every group signature from the model's
    /// current (possibly corrupted) weights and compares with the golden store — one
    /// sweep per layer, one accumulator scratch for the whole pass.
    ///
    /// # Panics
    ///
    /// Panics if `model` does not have the same layer sizes as the model used at
    /// construction time.
    pub fn detect(&self, model: &QuantizedModel) -> DetectionReport {
        assert_eq!(
            model.num_layers(),
            self.current.layers.len(),
            "model layer count changed since signing"
        );
        let (mut acc, mut report) = (Vec::new(), DetectionReport::default());
        for layer in 0..model.num_layers() {
            self.current
                .check_layer(layer, model.layer_values(layer), &mut acc, &mut report);
        }
        report
    }

    /// Verifies one layer's raw weight values against the current epoch — bytes that
    /// are still in a DRAM image (or any other store) rather than fetched into a
    /// [`QuantizedModel`]. The background scrubber, the recovery re-check and the key
    /// roll's pre-sign check all verify this way: no model instance is needed at all.
    ///
    /// `acc` is a caller-owned accumulator scratch, grown to the layer's group count
    /// and never shrunk, so a caller sweeping many layers reuses one buffer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds or `values` does not have the layer's signed
    /// size.
    pub fn verify_layer_values_with_scratch(
        &self,
        layer: usize,
        values: &[i8],
        acc: &mut Vec<i32>,
    ) -> DetectionReport {
        let mut report = DetectionReport::default();
        self.current.check_layer(layer, values, acc, &mut report);
        report
    }

    /// Fetch-and-verify of one layer under a *pinned* epoch: copies the layer's raw
    /// DRAM bytes into `dst` (reinterpreted as `i8`, exactly as the weight-fetch path
    /// does), then checks the group signatures of the copy in one sweep over the
    /// still-cache-hot `dst`. DRAM is read once, and the bytes verified are the bytes
    /// the caller executes. This is the snapshot build path's kernel: a builder pins
    /// the epoch it saw when its fetch ticket came up, and a rotation publish landing
    /// between pin and verify must not strand it (the pinned epoch is then `previous`
    /// and still accepted).
    ///
    /// An `epoch` that is no longer retained falls back to the current state (see
    /// [`accepts_epoch`](Self::accepts_epoch)) — fail-closed, never skip. `acc` is
    /// grown as in [`verify_layer_values_with_scratch`](Self::verify_layer_values_with_scratch).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds or `src.len()` differs from the layer's
    /// signed size.
    pub fn fetch_verify_layer_at_epoch_with_scratch(
        &self,
        epoch: KeyEpoch,
        layer: usize,
        src: &[u8],
        dst: &mut Vec<i8>,
        acc: &mut Vec<i32>,
    ) -> DetectionReport {
        dst.clear();
        dst.extend(src.iter().map(|&b| i8::from_ne_bytes([b])));
        let mut report = DetectionReport::default();
        self.epoch_state(epoch)
            .check_layer(layer, dst, acc, &mut report);
        report
    }

    /// Resolves `epoch` to a retained epoch state. Unknown epochs (already
    /// retired, or never published) fall back to the *current* state: at worst
    /// that misflags a group signed under another key (a false positive that
    /// recovery re-checks), never a silent skip.
    fn epoch_state(&self, epoch: KeyEpoch) -> &EpochState {
        if epoch == self.current.epoch {
            &self.current
        } else if let Some(prev) = self.previous.as_ref().filter(|p| p.epoch == epoch) {
            prev
        } else {
            &self.current
        }
    }

    /// The group a given weight belongs to under this protection's layout.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn group_of(&self, layer: usize, weight: usize) -> usize {
        self.current.layers[layer].layout().group_of(weight)
    }

    /// Counts how many of the given `(layer, weight)` locations fall inside flagged
    /// groups — the paper's "number of detected bit-flips" metric (Fig. 4 / Fig. 7).
    pub fn count_covered(&self, report: &DetectionReport, locations: &[(usize, usize)]) -> usize {
        locations
            .iter()
            .filter(|&&(layer, weight)| report.contains(layer, self.group_of(layer, weight)))
            .count()
    }

    /// Zero-out recovery (Section V): every weight of every flagged group is set to 0,
    /// de-interleaving back to the original weight positions.
    ///
    /// The golden signature of each zeroed group is refreshed afterwards so subsequent
    /// verification passes accept the recovered state instead of re-flagging it (the
    /// paper leaves this bookkeeping implicit; without it every later inference would
    /// report the same, already-mitigated attack again).
    ///
    /// Recovery is idempotent per `(layer, group)`: a report that lists the same group
    /// twice (hand-merged from overlapping range checks, say) zeroes it — and counts it
    /// in the [`RecoveryReport`] — exactly once.
    pub fn recover(
        &mut self,
        model: &mut QuantizedModel,
        report: &DetectionReport,
    ) -> RecoveryReport {
        self.recover_in(report, |layer, members| {
            let weights = model.layer_weights_mut(layer);
            for &idx in members {
                weights.set_value(idx, 0);
            }
        })
    }

    /// [`recover`](Self::recover) with the actual zeroing delegated to the caller:
    /// `zero_group(layer, members)` is invoked once per deduplicated flagged group and
    /// must set every listed weight (original in-layer indices) to zero in whatever
    /// store holds them — an in-core model, a DRAM image, or both.
    ///
    /// This is the seam the online serving path uses to recover the weight bytes *in
    /// main memory* (so later fetches are clean) while this protection handles the
    /// `(layer, group)` deduplication, golden-signature refresh and accounting.
    ///
    /// The signature refresh covers **every retained epoch** — current, previous, and
    /// a mid-roll pending store alike. A zeroed group's masked sum is 0 under any key,
    /// so `binarize(0, bits)` is the correct signature in each of them; skipping one
    /// would make the same recovered group re-flag (or worse, a stale pending
    /// signature would survive into publication).
    pub fn recover_in<F>(&mut self, report: &DetectionReport, mut zero_group: F) -> RecoveryReport
    where
        F: FnMut(usize, &[usize]),
    {
        let mut recovery = RecoveryReport::default();
        let mut zeroed: std::collections::HashSet<FlaggedGroup> = std::collections::HashSet::new();
        for flagged in &report.flagged {
            if !zeroed.insert(*flagged) {
                continue;
            }
            let members = self.current.layers[flagged.layer]
                .layout
                .members(flagged.group);
            zero_group(flagged.layer, &members);
            // Re-sign the zeroed group: its masked sum is 0 whatever the key, so the
            // fresh signature is the binarization of zero at the configured width —
            // in every retained epoch store.
            let sig = binarize(0, self.config.signature_bits);
            let weights = members.len();
            self.current
                .golden
                .set_signature(flagged.layer, flagged.group, sig);
            if let Some(prev) = self.previous.as_mut() {
                prev.golden.set_signature(flagged.layer, flagged.group, sig);
            }
            if let Some(pending) = self.pending.as_mut() {
                // Layers not yet re-signed hold placeholders that the upcoming
                // resign overwrites wholesale; updating them early is harmless.
                pending
                    .state
                    .golden
                    .set_signature(flagged.layer, flagged.group, sig);
            }
            recovery.groups_zeroed += 1;
            recovery.weights_zeroed += weights;
        }
        recovery
    }

    /// Convenience: detection immediately followed by recovery, as embedded in the
    /// inference pass.
    pub fn detect_and_recover(
        &mut self,
        model: &mut QuantizedModel,
    ) -> (DetectionReport, RecoveryReport) {
        let report = self.detect(model);
        let recovery = self.recover(model, &report);
        (report, recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_nn::{resnet20, ResNetConfig};
    use radar_quant::MSB;

    fn model() -> QuantizedModel {
        QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))))
    }

    /// `values` as the raw DRAM bytes the fused kernel reads.
    fn as_bytes(values: &[i8]) -> Vec<u8> {
        values.iter().map(|&v| v as u8).collect()
    }

    /// Verifies `values` of `layer` pinned to `epoch` through the fused kernel.
    fn verify_at(
        radar: &RadarProtection,
        epoch: KeyEpoch,
        layer: usize,
        values: &[i8],
    ) -> DetectionReport {
        radar.fetch_verify_layer_at_epoch_with_scratch(
            epoch,
            layer,
            &as_bytes(values),
            &mut Vec::new(),
            &mut Vec::new(),
        )
    }

    /// Verifies `layers` of `m` one at a time through the value kernel and merges the
    /// per-layer reports.
    fn verify_range(
        radar: &RadarProtection,
        m: &QuantizedModel,
        layers: std::ops::Range<usize>,
    ) -> DetectionReport {
        let (mut report, mut acc) = (DetectionReport::default(), Vec::new());
        for layer in layers {
            report.merge(&radar.verify_layer_values_with_scratch(
                layer,
                m.layer_values(layer),
                &mut acc,
            ));
        }
        report
    }

    /// Drives a full key roll from the model's current weights — the offline
    /// equivalent of what the serving engine's rotation task does online.
    fn full_roll(radar: &mut RadarProtection, m: &QuantizedModel) -> KeyEpoch {
        radar.begin_rotation();
        while let Some(layer) = radar.next_unsigned_layer() {
            radar.resign_layer(layer, m.layer_values(layer));
        }
        radar.publish_epoch()
    }

    #[test]
    fn clean_model_raises_no_flags() {
        let m = model();
        for cfg in [
            RadarConfig::paper_default(16),
            RadarConfig::without_interleave(64),
            RadarConfig::paper_default(32).with_masking(false),
            RadarConfig::paper_default(32).with_three_bit_signature(),
        ] {
            let radar = RadarProtection::new(&m, cfg);
            assert!(
                !radar.detect(&m).attack_detected(),
                "false positive under {cfg:?}"
            );
        }
    }

    #[test]
    fn single_msb_flip_is_always_detected() {
        let mut m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(64));
        for &(layer, weight) in &[(0usize, 0usize), (3, 17), (10, 101)] {
            let snapshot = m.snapshot();
            m.flip_bit(layer, weight, MSB);
            let report = radar.detect(&m);
            assert!(report.contains(layer, radar.group_of(layer, weight)));
            assert_eq!(radar.count_covered(&report, &[(layer, weight)]), 1);
            m.restore(&snapshot);
        }
    }

    #[test]
    fn recovery_zeroes_exactly_the_flagged_groups() {
        let mut m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(16));
        m.flip_bit(2, 5, MSB);
        let (report, recovery) = radar.detect_and_recover(&mut m);
        assert_eq!(report.num_flagged(), 1);
        assert_eq!(recovery.groups_zeroed, 1);
        assert!(recovery.weights_zeroed <= 16);
        assert_eq!(m.layer(2).weights().value(5), 0);
        // The zeroed group is re-signed, so a second verification pass is clean.
        assert!(!radar.detect(&m).attack_detected());
    }

    #[test]
    fn storage_overhead_scales_inversely_with_group_size() {
        let m = model();
        let small = RadarProtection::new(&m, RadarConfig::paper_default(16));
        let large = RadarProtection::new(&m, RadarConfig::paper_default(256));
        assert!(small.storage_bytes() > large.storage_bytes());
        // 2 bits per group.
        assert_eq!(
            small.golden().storage_bits(),
            2 * small.golden().total_groups()
        );
    }

    #[test]
    fn three_bit_signature_uses_more_storage() {
        let m = model();
        let two = RadarProtection::new(&m, RadarConfig::paper_default(64));
        let three = RadarProtection::new(
            &m,
            RadarConfig::paper_default(64).with_three_bit_signature(),
        );
        assert!(three.golden().storage_bits() > two.golden().storage_bits());
    }

    #[test]
    fn paired_flips_evade_unmasked_contiguous_checksum_but_not_interleaved() {
        let mut m = model();
        let g = 32;
        let layer = 0;
        let plain =
            RadarProtection::new(&m, RadarConfig::without_interleave(g).with_masking(false));
        let interleaved =
            RadarProtection::new(&m, RadarConfig::paper_default(g).with_masking(false));

        // Find two weights that share a contiguous group but not an interleaved group,
        // with opposite MSB states (the Section VIII evasion pair).
        let values = m.layer(layer).weights().values().to_vec();
        let mut pair = None;
        'outer: for group_start in (0..values.len() - g).step_by(g) {
            for i in group_start..group_start + g {
                for j in i + 1..group_start + g {
                    if (values[i] < 0) != (values[j] < 0)
                        && interleaved.group_of(layer, i) != interleaved.group_of(layer, j)
                    {
                        pair = Some((i, j));
                        break 'outer;
                    }
                }
            }
        }
        let (i, j) = pair.expect("model has a suitable mixed-sign pair");

        m.flip_bit(layer, i, MSB);
        m.flip_bit(layer, j, MSB);

        // The unmasked, un-interleaved checksum misses the paired flips entirely.
        let plain_report = plain.detect(&m);
        assert_eq!(
            plain.count_covered(&plain_report, &[(layer, i), (layer, j)]),
            0
        );
        // Interleaving separates the pair into different groups, so both are caught.
        let int_report = interleaved.detect(&m);
        assert_eq!(
            interleaved.count_covered(&int_report, &[(layer, i), (layer, j)]),
            2
        );
    }

    #[test]
    fn incremental_layer_verification_matches_full_detect() {
        let mut m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        m.flip_bit(2, 5, MSB);
        m.flip_bit(7, 0, MSB);
        let full = radar.detect(&m);
        assert_eq!(full, verify_range(&radar, &m, 0..m.num_layers()));
        // A range verifies exactly the requested layers.
        let early = verify_range(&radar, &m, 0..3);
        assert!(early.contains(2, radar.group_of(2, 5)));
        assert!(early.flagged.iter().all(|f| f.layer < 3));
    }

    #[test]
    fn golden_signatures_match_the_gather_oracle_on_a_clean_model() {
        let m = model();
        for cfg in [
            RadarConfig::paper_default(16),
            RadarConfig::without_interleave(64).with_three_bit_signature(),
        ] {
            let radar = RadarProtection::new(&m, cfg);
            for (layer, protection) in radar.layers().iter().enumerate() {
                let sigs = crate::gather_signatures(
                    m.layer_values(layer),
                    &protection.layout(),
                    &protection.key(),
                    cfg.signature_bits,
                );
                for (g, &sig) in sigs.iter().enumerate() {
                    assert_eq!(sig, radar.golden().signature(layer, g), "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn value_and_fused_kernels_agree_layer_by_layer() {
        let mut m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        m.flip_bit(2, 5, MSB);
        let (mut acc, mut dst) = (Vec::new(), Vec::new());
        for layer in 0..m.num_layers() {
            let values = m.layer_values(layer);
            let from_values = radar.verify_layer_values_with_scratch(layer, values, &mut acc);
            let fused = radar.fetch_verify_layer_at_epoch_with_scratch(
                radar.current_epoch(),
                layer,
                &as_bytes(values),
                &mut dst,
                &mut acc,
            );
            assert_eq!(from_values, fused, "layer {layer}");
            assert_eq!(dst, values, "the fused kernel copies the exact bytes");
        }
        assert!(verify_range(&radar, &m, 2..3).attack_detected());
    }

    #[test]
    fn recover_in_zeroes_external_store_and_resigns() {
        let mut m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(16));
        m.flip_bit(2, 5, MSB);
        // An "external store" of layer 2's bytes, corrupted the same way.
        let mut store: Vec<i8> = m.layer_values(2).to_vec();
        let report = radar.detect(&m);
        let mut calls = 0usize;
        let recovery = radar.recover_in(&report, |layer, members| {
            assert_eq!(layer, 2);
            calls += 1;
            for &idx in members {
                store[idx] = 0;
            }
        });
        assert_eq!(calls, 1);
        assert_eq!(recovery.groups_zeroed, 1);
        assert_eq!(store[5], 0);
        // The golden store accepted the zeroed group: verifying the external bytes
        // (after zeroing) is clean even though the model itself was never touched.
        assert!(!radar
            .verify_layer_values_with_scratch(2, &store, &mut Vec::new())
            .attack_detected());
    }

    #[test]
    #[should_panic(expected = "size changed since signing")]
    fn verify_layer_values_rejects_wrong_length() {
        let m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        radar.verify_layer_values_with_scratch(0, &[0i8; 3], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "size changed since signing")]
    fn fetch_verify_rejects_wrong_length() {
        let m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        radar.fetch_verify_layer_at_epoch_with_scratch(
            radar.current_epoch(),
            0,
            &[0u8; 3],
            &mut Vec::new(),
            &mut Vec::new(),
        );
    }

    #[test]
    fn merge_deduplicates_and_keeps_sorted_order() {
        let mut a = DetectionReport {
            flagged: vec![
                FlaggedGroup { layer: 0, group: 2 },
                FlaggedGroup { layer: 3, group: 1 },
            ],
        };
        let b = DetectionReport {
            flagged: vec![
                FlaggedGroup { layer: 0, group: 2 }, // duplicate
                FlaggedGroup { layer: 1, group: 0 },
            ],
        };
        a.merge(&b);
        assert_eq!(
            a.flagged,
            vec![
                FlaggedGroup { layer: 0, group: 2 },
                FlaggedGroup { layer: 1, group: 0 },
                FlaggedGroup { layer: 3, group: 1 },
            ]
        );
        // Merging the same report again changes nothing.
        let before = a.clone();
        a.merge(&b);
        assert_eq!(a, before);
        // Merging an empty report still normalizes pre-existing duplicates.
        let mut dup = DetectionReport {
            flagged: vec![
                FlaggedGroup { layer: 2, group: 0 },
                FlaggedGroup { layer: 0, group: 1 },
                FlaggedGroup { layer: 2, group: 0 },
            ],
        };
        dup.merge(&DetectionReport::default());
        assert_eq!(
            dup.flagged,
            vec![
                FlaggedGroup { layer: 0, group: 1 },
                FlaggedGroup { layer: 2, group: 0 },
            ]
        );
    }

    #[test]
    fn recovery_from_duplicated_report_zeroes_each_group_once() {
        let mut m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(16));
        m.flip_bit(2, 5, MSB);
        let clean_report = radar.detect(&m);
        assert_eq!(clean_report.num_flagged(), 1);
        // A hand-built report listing the same flagged group three times.
        let duplicated = DetectionReport {
            flagged: vec![clean_report.flagged[0]; 3],
        };
        let recovery = radar.recover(&mut m, &duplicated);
        assert_eq!(recovery.groups_zeroed, 1);
        assert!(recovery.weights_zeroed <= 16);
        assert!(!radar.detect(&m).attack_detected());
    }

    #[test]
    fn merged_overlapping_range_recovery_counts_each_group_once() {
        let mut m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(16));
        m.flip_bit(2, 5, MSB);
        // Overlapping range checks both flag layer 2's group; the merge deduplicates.
        let mut merged = verify_range(&radar, &m, 0..4);
        merged.merge(&verify_range(&radar, &m, 2..6));
        merged.merge(&verify_range(&radar, &m, 2..3));
        assert_eq!(merged, radar.detect(&m));
        let reference_members = radar.layers()[2]
            .layout()
            .members(radar.group_of(2, 5))
            .len();
        let recovery = radar.recover(&mut m, &merged);
        assert_eq!(recovery.groups_zeroed, 1);
        assert_eq!(recovery.weights_zeroed, reference_members);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn verify_layer_values_rejects_an_out_of_range_layer() {
        let m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        radar.verify_layer_values_with_scratch(m.num_layers(), &[], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "changed since signing")]
    fn detecting_with_mismatched_model_panics() {
        let m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        let other = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::new(4, 8, 3, 1))));
        radar.detect(&other);
    }

    // ---- key-epoch lifecycle -------------------------------------------------

    #[test]
    fn full_roll_stays_clean_and_advances_the_epoch() {
        let m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        assert_eq!(radar.current_epoch(), KeyEpoch::ZERO);
        assert!(!radar.rotation_in_progress());

        let published = full_roll(&mut radar, &m);
        assert_eq!(published, KeyEpoch::new(1));
        assert_eq!(radar.current_epoch(), KeyEpoch::new(1));
        assert_eq!(radar.previous_epoch(), Some(KeyEpoch::ZERO));
        assert_eq!(radar.golden().epoch(), KeyEpoch::new(1));

        // Clean under the new epoch, under the retained previous epoch, and
        // after the previous epoch is retired.
        assert!(!radar.detect(&m).attack_detected());
        for layer in 0..m.num_layers() {
            let pinned = verify_at(&radar, KeyEpoch::ZERO, layer, m.layer_values(layer));
            assert!(!pinned.attack_detected(), "layer {layer} under epoch 0");
        }
        assert_eq!(radar.retire_previous(), Some(KeyEpoch::ZERO));
        assert_eq!(radar.previous_epoch(), None);
        assert!(!radar.detect(&m).attack_detected());
    }

    #[test]
    fn epochs_actually_rekey_the_layers() {
        let m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        let before: Vec<SecretKey> = radar.layers().iter().map(LayerProtection::key).collect();
        full_roll(&mut radar, &m);
        let after: Vec<SecretKey> = radar.layers().iter().map(LayerProtection::key).collect();
        // 16-bit keys can collide per layer; across the whole stack the epochs
        // must differ (collision probability ~ n/2^16).
        assert_ne!(before, after);
    }

    #[test]
    fn msb_flip_is_detected_under_both_epochs_mid_roll() {
        let mut m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        full_roll(&mut radar, &m); // current = 1, previous = 0 retained

        m.flip_bit(2, 5, MSB);
        let group = radar.group_of(2, 5);
        let current = verify_at(&radar, KeyEpoch::new(1), 2, m.layer_values(2));
        let previous = verify_at(&radar, KeyEpoch::ZERO, 2, m.layer_values(2));
        // An MSB flip moves the masked sum by ±128: S_B flips under *any* key,
        // so both epochs' verifiers must catch it during the acceptance window.
        assert!(current.contains(2, group), "missed under current epoch");
        assert!(previous.contains(2, group), "missed under previous epoch");
    }

    #[test]
    fn unknown_epoch_falls_back_to_current_state() {
        let mut m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        assert!(radar.accepts_epoch(KeyEpoch::ZERO));
        assert!(!radar.accepts_epoch(KeyEpoch::new(7)));
        m.flip_bit(2, 5, MSB);
        // Pinning a never-published epoch must not skip verification.
        let report = verify_at(&radar, KeyEpoch::new(7), 2, m.layer_values(2));
        assert!(report.attack_detected());
    }

    #[test]
    fn recovery_mid_roll_refreshes_every_retained_store() {
        let mut m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(16));
        radar.begin_rotation();
        // Re-sign the first three layers, then corrupt one of them.
        for layer in 0..3 {
            radar.resign_layer(layer, m.layer_values(layer));
        }
        m.flip_bit(2, 5, MSB);
        let report = radar.detect(&m);
        assert!(report.attack_detected());
        radar.recover(&mut m, &report);
        // Finish the roll from the recovered image and publish.
        while let Some(layer) = radar.next_unsigned_layer() {
            radar.resign_layer(layer, m.layer_values(layer));
        }
        radar.publish_epoch();
        // The pending store was refreshed during recovery, so the published
        // epoch accepts the recovered image — and so does the previous one.
        assert!(!radar.detect(&m).attack_detected());
        let previous = verify_at(&radar, KeyEpoch::ZERO, 2, m.layer_values(2));
        assert!(!previous.attack_detected());
    }

    #[test]
    fn consecutive_rolls_retire_older_epochs() {
        let m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(64));
        for expected in 1..=3u32 {
            radar.retire_previous();
            let published = full_roll(&mut radar, &m);
            assert_eq!(published, KeyEpoch::new(expected));
            assert_eq!(radar.previous_epoch(), Some(KeyEpoch::new(expected - 1)));
            assert!(!radar.detect(&m).attack_detected());
        }
    }

    #[test]
    #[should_panic(expected = "already in progress")]
    fn beginning_a_second_roll_panics() {
        let m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(64));
        radar.begin_rotation();
        radar.begin_rotation();
    }

    #[test]
    #[should_panic(expected = "re-signed in order")]
    fn resigning_out_of_order_panics() {
        let m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(64));
        radar.begin_rotation();
        radar.resign_layer(1, m.layer_values(1));
    }

    #[test]
    #[should_panic(expected = "cannot publish")]
    fn publishing_before_every_layer_is_resigned_panics() {
        let m = model();
        let mut radar = RadarProtection::new(&m, RadarConfig::paper_default(64));
        radar.begin_rotation();
        radar.resign_layer(0, m.layer_values(0));
        radar.publish_epoch();
    }

    #[test]
    fn unmasked_ablation_is_epoch_invariant() {
        // With masking disabled every epoch uses the explicit ablation key, so
        // a roll is a key-wise no-op and stays clean.
        let m = model();
        let mut radar =
            RadarProtection::new(&m, RadarConfig::paper_default(32).with_masking(false));
        let before: Vec<SecretKey> = radar.layers().iter().map(LayerProtection::key).collect();
        full_roll(&mut radar, &m);
        let after: Vec<SecretKey> = radar.layers().iter().map(LayerProtection::key).collect();
        assert_eq!(before, after);
        assert!(after.iter().all(|k| *k == SecretKey::insecure_unmasked()));
        assert!(!radar.detect(&m).attack_detected());
    }
}
