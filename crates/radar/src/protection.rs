use std::ops::Range;

use radar_quant::QuantizedModel;

use crate::config::RadarConfig;
use crate::grouping::GroupLayout;
use crate::key::{KeyEpoch, KeySchedule, SecretKey};
use crate::plan::{LayerPlan, VerifyPlan};
use crate::signature::binarize;
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
    /// combine per-layer verdicts into a whole-pass report, and by the sharded parallel
    /// detect to fold per-shard reports.
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

/// One epoch's verification state: the per-layer keys, the compiled
/// [`VerifyPlan`], and the golden [`SignatureStore`] — always paired, always
/// from the same [`KeyEpoch`].
#[derive(Debug, Clone, PartialEq)]
struct EpochState {
    epoch: KeyEpoch,
    layers: Vec<LayerProtection>,
    plan: VerifyPlan,
    golden: SignatureStore,
}

impl EpochState {
    /// The plan of `layer`, after checking that the layer exists and still has the
    /// `len` weights it was signed with; grows `acc` to the layer's group count.
    fn checked_plan(&self, layer: usize, len: usize, acc: &mut Vec<i32>) -> &LayerPlan {
        assert!(
            layer < self.layers.len(),
            "layer {layer} out of bounds for {} layers",
            self.layers.len()
        );
        assert_eq!(
            len,
            self.layers[layer].layout.len(),
            "layer {layer} size changed since signing"
        );
        let plan = self.plan.layer(layer);
        if acc.len() < plan.num_groups() {
            acc.resize(plan.num_groups(), 0);
        }
        plan
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
/// copies DRAM bytes out and verifies them in the same sweep at a pinned epoch.
/// [`detect`](Self::detect) and [`detect_parallel`](Self::detect_parallel) loop the
/// same per-layer check over a whole model.
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
    /// Signs the (clean) `model` under `config`, producing the golden signature store
    /// and compiling the [`VerifyPlan`] every run-time pass streams through. The
    /// initial epoch is [`KeyEpoch::ZERO`].
    pub fn new(model: &QuantizedModel, config: RadarConfig) -> Self {
        let schedule = KeySchedule::from_seed(config.key_seed);
        let layouts: Vec<GroupLayout> = model
            .layers()
            .iter()
            .map(|layer| GroupLayout::new(layer.len(), config.group_size, config.grouping))
            .collect();
        let layers = Self::epoch_layers(&config, &schedule, &layouts, KeyEpoch::ZERO);
        let plan = VerifyPlan::for_epoch(
            layers.iter().map(|l| (l.layout, l.key)),
            config.signature_bits,
            KeyEpoch::ZERO,
        );
        let mut golden = SignatureStore::for_epoch(config.signature_bits, KeyEpoch::ZERO);
        for (layer_plan, layer) in plan.layers().iter().zip(model.layers().iter()) {
            golden
                .push_layer(layer_plan.signatures(layer.weights().values(), config.signature_bits));
        }
        RadarProtection {
            config,
            schedule,
            current: EpochState {
                epoch: KeyEpoch::ZERO,
                layers,
                plan,
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

    /// The precomputed streaming verification plan of the current epoch.
    pub fn plan(&self) -> &VerifyPlan {
        &self.current.plan
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
        let plan = VerifyPlan::for_epoch(
            layers.iter().map(|l| (l.layout, l.key)),
            self.config.signature_bits,
            epoch,
        );
        let mut golden = SignatureStore::for_epoch(self.config.signature_bits, epoch);
        for layer_plan in plan.layers() {
            golden.push_layer(vec![0u8; layer_plan.num_groups()]);
        }
        self.pending = Some(PendingEpoch {
            state: EpochState {
                epoch,
                layers,
                plan,
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
        let sigs = pending.state.plan.layer(layer).signatures(values, bits);
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
    /// [`VerifyPlan`] sweep per layer, one accumulator scratch for the whole pass.
    ///
    /// # Panics
    ///
    /// Panics if `model` does not have the same layer sizes as the model used at
    /// construction time.
    pub fn detect(&self, model: &QuantizedModel) -> DetectionReport {
        let values = self.model_values(model);
        self.check_layers(&values, 0..values.len())
    }

    /// Sharded parallel detection: splits the layers into contiguous, weight-balanced
    /// ranges and verifies them concurrently on `threads` scoped workers, each with its
    /// own accumulator scratch over the shared [`VerifyPlan`].
    ///
    /// Produces exactly the report [`detect`](Self::detect) would (same flag set, same
    /// `(layer, group)` order): shards are disjoint layer ranges, so the per-shard
    /// reports concatenate in order with no duplicates.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or under the same model-mismatch conditions as
    /// [`detect`](Self::detect).
    pub fn detect_parallel(&self, model: &QuantizedModel, threads: usize) -> DetectionReport {
        assert!(threads > 0, "thread count must be non-zero");
        let values = self.model_values(model);
        let ranges = self.shard_ranges(threads);
        if ranges.len() <= 1 {
            return self.check_layers(&values, 0..values.len());
        }
        let mut report = DetectionReport::default();
        std::thread::scope(|scope| {
            let shards: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let values = &values;
                    scope.spawn(move || self.check_layers(values, range))
                })
                .collect();
            for shard in shards {
                report.merge(&shard.join().expect("detect shard worker panicked"));
            }
        });
        report
    }

    /// Verifies one layer's raw weight values against the current epoch — bytes that
    /// are still in a DRAM image (or any other store) rather than fetched into a
    /// [`QuantizedModel`]. The background scrubber, the recovery re-check and the key
    /// roll's pre-sign check all verify this way: no model instance is needed at all.
    ///
    /// `acc` is a caller-owned accumulator scratch, grown to the layer's group count
    /// and never shrunk, so a caller sweeping many layers reuses one buffer (size it
    /// with [`VerifyPlan::max_groups`] to cover every layer up front).
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
        Self::check_layer(&self.current, layer, values, acc, &mut report);
        report
    }

    /// Fused fetch-and-verify of one layer under a *pinned* epoch: copies the
    /// layer's raw DRAM bytes into `dst` (reinterpreted as `i8`, exactly as the
    /// weight-fetch path does) while accumulating and checking the group
    /// signatures in the same sweep. This is the snapshot build path's kernel: a
    /// builder pins the epoch it saw when its fetch ticket came up, and a rotation
    /// publish landing between pin and verify must not strand it (the pinned epoch
    /// is then `previous` and still accepted).
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
        let mut report = DetectionReport::default();
        Self::check_layer_fused(self.epoch_state(epoch), layer, src, dst, acc, &mut report);
        report
    }

    /// Borrows every layer's raw values after checking `model` has the signed layer
    /// count. Plain `&[i8]` slices are freely shared across scoped workers without
    /// requiring anything of the model's float-side internals.
    fn model_values<'m>(&self, model: &'m QuantizedModel) -> Vec<&'m [i8]> {
        assert_eq!(
            model.num_layers(),
            self.current.layers.len(),
            "model layer count changed since signing"
        );
        (0..model.num_layers())
            .map(|i| model.layer_values(i))
            .collect()
    }

    /// Checks `layers` of `values` against the current epoch with one accumulator
    /// scratch — the loop behind [`detect`](Self::detect) and each
    /// [`detect_parallel`](Self::detect_parallel) shard.
    fn check_layers(&self, values: &[&[i8]], layers: Range<usize>) -> DetectionReport {
        let mut acc = Vec::new();
        let mut report = DetectionReport::default();
        for layer in layers {
            Self::check_layer(&self.current, layer, values[layer], &mut acc, &mut report);
        }
        report
    }

    /// Verifies one layer's raw weight values against one epoch's plan and store,
    /// appending mismatches to `report` — the in-memory half of the verify core.
    fn check_layer(
        state: &EpochState,
        layer_idx: usize,
        values: &[i8],
        acc: &mut Vec<i32>,
        report: &mut DetectionReport,
    ) {
        let layer_plan = state.checked_plan(layer_idx, values.len(), acc);
        layer_plan.accumulate(values, acc);
        Self::compare_signatures(state, layer_idx, &acc[..layer_plan.num_groups()], report);
    }

    /// Fused fetch-and-verify of one layer from its raw DRAM bytes: copies the bytes
    /// into `dst` *while* accumulating the masked group sums in one sweep
    /// ([`LayerPlan::copy_accumulate`]), then compares the binarized signatures
    /// against `state`'s golden store — the snapshot build path's one pass per layer
    /// per batch.
    fn check_layer_fused(
        state: &EpochState,
        layer_idx: usize,
        src: &[u8],
        dst: &mut Vec<i8>,
        acc: &mut Vec<i32>,
        report: &mut DetectionReport,
    ) {
        let layer_plan = state.checked_plan(layer_idx, src.len(), acc);
        layer_plan.copy_accumulate(src, dst, acc);
        Self::compare_signatures(state, layer_idx, &acc[..layer_plan.num_groups()], report);
    }

    /// Binarizes one layer's accumulated group sums `sums` and appends every group
    /// whose signature differs from `state`'s golden store to `report` — the compare
    /// half shared by [`check_layer`](Self::check_layer) and
    /// [`check_layer_fused`](Self::check_layer_fused).
    fn compare_signatures(
        state: &EpochState,
        layer_idx: usize,
        sums: &[i32],
        report: &mut DetectionReport,
    ) {
        let bits = state.plan.signature_bits();
        for (group, &m) in sums.iter().enumerate() {
            if binarize(m, bits) != state.golden.signature(layer_idx, group) {
                report.flagged.push(FlaggedGroup {
                    layer: layer_idx,
                    group,
                });
            }
        }
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

    /// Splits the planned layers into at most `shards` contiguous ranges of roughly
    /// equal total weight count (the unit of detect work is one weight).
    fn shard_ranges(&self, shards: usize) -> Vec<Range<usize>> {
        let total: usize = self.current.plan.layers().iter().map(LayerPlan::len).sum();
        let num_layers = self.current.layers.len();
        let shards = shards.clamp(1, num_layers.max(1));
        let target = total.div_ceil(shards).max(1);
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        let mut in_shard = 0usize;
        for (idx, plan) in self.current.plan.layers().iter().enumerate() {
            in_shard += plan.len();
            // Close the shard once it reached its weight target, keeping enough layers
            // for the remaining shards to be non-empty.
            if in_shard >= target && num_layers - idx > shards - ranges.len() - 1 {
                ranges.push(start..idx + 1);
                start = idx + 1;
                in_shard = 0;
                if ranges.len() == shards - 1 {
                    break;
                }
            }
        }
        if start < num_layers {
            ranges.push(start..num_layers);
        }
        ranges
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
                weights.set_value(idx as usize, 0);
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
        F: FnMut(usize, &[u32]),
    {
        let mut recovery = RecoveryReport::default();
        let mut zeroed: std::collections::HashSet<FlaggedGroup> = std::collections::HashSet::new();
        for flagged in &report.flagged {
            if !zeroed.insert(*flagged) {
                continue;
            }
            let members = self
                .current
                .plan
                .layer(flagged.layer)
                .group_members(flagged.group);
            zero_group(flagged.layer, members);
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
        layers: Range<usize>,
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
    fn streaming_layer_signatures_match_golden_on_clean_model() {
        let m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(16));
        let bits = radar.config().signature_bits;
        for layer in 0..m.num_layers() {
            let sigs = radar
                .plan()
                .layer(layer)
                .signatures(m.layer_values(layer), bits);
            for (g, &sig) in sigs.iter().enumerate() {
                assert_eq!(sig, radar.golden().signature(layer, g));
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
                store[idx as usize] = 0;
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
        let reference_members = radar
            .plan()
            .layer(2)
            .group_members(radar.group_of(2, 5))
            .len();
        let recovery = radar.recover(&mut m, &merged);
        assert_eq!(recovery.groups_zeroed, 1);
        assert_eq!(recovery.weights_zeroed, reference_members);
    }

    #[test]
    fn parallel_detect_matches_sequential_for_any_thread_count() {
        let mut m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        m.flip_bit(0, 1, MSB);
        m.flip_bit(4, 9, MSB);
        m.flip_bit(10, 3, MSB);
        let sequential = radar.detect(&m);
        assert!(sequential.attack_detected());
        for threads in [1, 2, 3, 4, 7, 64] {
            assert_eq!(
                radar.detect_parallel(&m, threads),
                sequential,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_detect_then_recover_matches_detect_and_recover() {
        let mut a = model();
        let mut b = model();
        let mut radar_a = RadarProtection::new(&a, RadarConfig::paper_default(16));
        let mut radar_b = RadarProtection::new(&b, RadarConfig::paper_default(16));
        for &(layer, weight) in &[(1usize, 2usize), (6, 40), (12, 0)] {
            a.flip_bit(layer, weight, MSB);
            b.flip_bit(layer, weight, MSB);
        }
        let (report_a, recovery_a) = radar_a.detect_and_recover(&mut a);
        let report_b = radar_b.detect_parallel(&b, 4);
        let recovery_b = radar_b.recover(&mut b, &report_b);
        assert_eq!(report_a, report_b);
        assert_eq!(recovery_a, recovery_b);
        assert_eq!(a.snapshot(), b.snapshot());
        assert!(!radar_b.detect_parallel(&b, 4).attack_detected());
    }

    #[test]
    fn shard_ranges_cover_all_layers_without_overlap() {
        let m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        let total_weights: usize = (0..m.num_layers()).map(|i| m.layer(i).len()).sum();
        for threads in [1usize, 2, 3, 5, 8, 100] {
            let ranges = radar.shard_ranges(threads);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= threads.min(m.num_layers()));
            let mut next = 0usize;
            let mut covered = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be contiguous");
                assert!(r.end > r.start, "empty shard");
                covered += (r.start..r.end).map(|i| m.layer(i).len()).sum::<usize>();
                next = r.end;
            }
            assert_eq!(next, m.num_layers());
            assert_eq!(covered, total_weights);
        }
    }

    #[test]
    #[should_panic(expected = "thread count must be non-zero")]
    fn detect_parallel_rejects_zero_threads() {
        let m = model();
        let radar = RadarProtection::new(&m, RadarConfig::paper_default(32));
        radar.detect_parallel(&m, 0);
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
        assert_eq!(radar.plan().epoch(), KeyEpoch::new(1));

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
