use crate::grouping::GroupLayout;
use crate::key::{KeyEpoch, SecretKey};
use crate::signature::{binarize, SignatureBits};

/// Number of masked-accumulation sweeps ([`LayerPlan::accumulate`] or the fused
/// [`LayerPlan::copy_accumulate`]) the verification plans have executed — one per
/// layer per signature computation or check, across signing, in-path verification,
/// scrubbing and rotation re-signing. Gated by the process-global observability
/// level ([`radar_obs::set_global_level`]); at `Off` each sweep pays one relaxed
/// load and a branch.
pub static VERIFY_SWEEPS: radar_obs::GlobalCounter = radar_obs::GlobalCounter::new();

/// Fixed lane width of the verify sweep's inner loop. Both [`LayerPlan::accumulate`]
/// and [`LayerPlan::copy_accumulate`] process `chunks_exact(VERIFY_LANES)` blocks of
/// i8×i8→i32 widening multiplies into a lane-local accumulator array — the same shape
/// as the GEMM micro-kernel's fixed-width inner tile, chosen so the compiler
/// autovectorizes the multiply/widen without any unsafe SIMD intrinsics.
pub const VERIFY_LANES: usize = 16;

/// Precomputed verification plan for one layer: everything the run-time check needs to
/// turn signature computation into a single sweep over the layer's weights.
///
/// The gather-based path recomputes the interleave mapping per weight and allocates a
/// member list per group on every pass. A `LayerPlan` hoists all of that to signing
/// time:
///
/// * `members` / `group_offsets` — a flat slot-ordered member permutation in CSR form:
///   group `g`'s original weight indices are one contiguous slice, which the sweep
///   reads (or gathers through) and recovery walks without allocating,
/// * `slot_mask` — the ±1 key mask of every member, expanded from the 16-bit
///   [`SecretKey`] and permuted into `members` order, so each group's masks are one
///   contiguous slice and the hot loop never touches key bit arithmetic.
///
/// Detection then walks the groups in order and computes each masked sum as a
/// fixed-width dot product of the group's weights with its mask slice into per-group
/// `i32` accumulators: zero allocations after construction, five bytes of plan per
/// weight.
///
/// # Example
///
/// ```
/// use radar_core::{GroupLayout, Grouping, LayerPlan, SecretKey, SignatureBits};
///
/// let layout = GroupLayout::new(128, 16, Grouping::interleaved());
/// let plan = LayerPlan::new(layout, SecretKey::new(0xACE1));
/// let weights = vec![7i8; 128];
/// let sigs = plan.signatures(&weights, SignatureBits::Two);
/// assert_eq!(sigs.len(), layout.num_groups());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPlan {
    layout: GroupLayout,
    key: SecretKey,
    /// Original weight indices ordered by `(group, slot)`.
    members: Vec<u32>,
    /// CSR offsets into `members`: group `g` owns `members[offsets[g]..offsets[g + 1]]`.
    group_offsets: Vec<u32>,
    /// The ±1 key mask permuted into `members` order, so a group's masks are one
    /// contiguous slice and the per-group sweep is a fixed-width dot product.
    slot_mask: Vec<i8>,
    /// Whether `members` is the identity permutation (contiguous grouping): the
    /// per-group sweep then reads the weights as a contiguous slice, gather-free.
    identity_members: bool,
}

impl LayerPlan {
    /// Precomputes the streaming plan for `layout` under `key`.
    pub fn new(layout: GroupLayout, key: SecretKey) -> Self {
        let len = layout.len();
        let num_groups = layout.num_groups();
        // Counting sort of weight indices by group. Ascending weight index within a
        // group is ascending slot for both groupings (contiguous: slot = i % G;
        // interleaved: slot = i / num_groups), so each bucket comes out slot-ordered.
        let groups: Vec<u32> = (0..len).map(|i| layout.group_of(i) as u32).collect();
        let mut group_offsets = vec![0u32; num_groups + 1];
        for &g in &groups {
            group_offsets[g as usize + 1] += 1;
        }
        for g in 0..num_groups {
            group_offsets[g + 1] += group_offsets[g];
        }
        let mut members = vec![0u32; len];
        let mut cursor: Vec<u32> = group_offsets[..num_groups].to_vec();
        for (i, &g) in groups.iter().enumerate() {
            members[cursor[g as usize] as usize] = i as u32;
            cursor[g as usize] += 1;
        }
        let slot_mask: Vec<i8> = members
            .iter()
            .map(|&i| key.mask(layout.slot_of(i as usize)) as i8)
            .collect();
        let identity_members = members.iter().enumerate().all(|(j, &i)| i as usize == j);

        LayerPlan {
            layout,
            key,
            members,
            group_offsets,
            slot_mask,
            identity_members,
        }
    }

    /// The layout this plan was compiled from.
    pub fn layout(&self) -> GroupLayout {
        self.layout
    }

    /// The layer's secret key.
    pub fn key(&self) -> SecretKey {
        self.key
    }

    /// Number of weights in the layer.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// Whether the planned layer has no weights; mirrors [`GroupLayout::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.layout.is_empty()
    }

    /// Number of groups in the layer.
    pub fn num_groups(&self) -> usize {
        self.layout.num_groups()
    }

    /// The original weight indices of `group`, in slot order, as a borrowed slice —
    /// the allocation-free replacement for [`GroupLayout::members`].
    ///
    /// # Panics
    ///
    /// Panics if `group >= num_groups`.
    pub fn group_members(&self, group: usize) -> &[u32] {
        assert!(
            group < self.num_groups(),
            "group {group} out of bounds for {} groups",
            self.num_groups()
        );
        &self.members[self.group_offsets[group] as usize..self.group_offsets[group + 1] as usize]
    }

    /// One-pass masked accumulation: walks the groups through the CSR slot-ordered
    /// permutation and writes each group's masked sum into `acc[group]`. The inner
    /// loop is a fixed-width ([`VERIFY_LANES`]) i8×i8→i32 widening dot product over
    /// the permuted `slot_mask` table — contiguous groupings read the weights as a
    /// straight slice, interleaved groupings gather a lane block first — so the
    /// multiply/widen/add autovectorizes. The first `num_groups` entries of `acc`
    /// are overwritten; entries beyond that are left untouched so one scratch buffer
    /// can be shared across layers of different widths.
    ///
    /// Every sum is the same multiset of exact `i32` terms the storage-order scatter
    /// sweep produced, so results are bit-identical to that historical path (pinned
    /// by the `plan_equivalence` proptests).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the planned layer length or `acc` holds
    /// fewer than `num_groups` entries.
    pub fn accumulate(&self, weights: &[i8], acc: &mut [i32]) {
        assert_eq!(
            weights.len(),
            self.len(),
            "weight count changed since the plan was built"
        );
        let num_groups = self.num_groups();
        assert!(
            acc.len() >= num_groups,
            "accumulator holds {} entries, need {num_groups}",
            acc.len()
        );
        VERIFY_SWEEPS.add(1);
        self.accumulate_inner(weights, &mut acc[..num_groups]);
    }

    /// The group-major sweep shared by [`accumulate`](Self::accumulate) and the
    /// fused [`copy_accumulate`](Self::copy_accumulate): callers own the asserts
    /// and the [`VERIFY_SWEEPS`] tick, `acc` is exactly `num_groups` wide.
    fn accumulate_inner(&self, weights: &[i8], acc: &mut [i32]) {
        for (g, slot) in acc.iter_mut().enumerate() {
            let start = self.group_offsets[g] as usize;
            let end = self.group_offsets[g + 1] as usize;
            let masks = &self.slot_mask[start..end];
            *slot = if self.identity_members {
                dot_masked(&weights[start..end], masks)
            } else {
                dot_masked_gather(weights, &self.members[start..end], masks)
            };
        }
    }

    /// Fused fetch-and-verify sweep: copies the layer's raw DRAM bytes into `dst`
    /// (reinterpreted as two's-complement `i8`, exactly as the weight-fetch path
    /// does) while computing every group's masked sum in the same sweep — one pass
    /// over the bytes where the serving path previously paid a copy pass plus a
    /// verify pass. Like [`accumulate`](Self::accumulate) the sweep is group-major
    /// over the CSR slot-ordered permutation, so the inner loop stays the
    /// fixed-width ([`VERIFY_LANES`]) i8×i8→i32 widening dot that autovectorizes,
    /// with no per-element scatter.
    ///
    /// Contiguous groupings walk the groups in storage order, widening each lane
    /// block into `dst` and folding it into the group's dot product in the same
    /// step — a true single pass. Interleaved groupings first widen the whole
    /// layer into `dst` (a straight byte copy: the `u8 → i8` reinterpretation is
    /// a no-op bit cast) and then run the planned gather sweep over the
    /// still-cache-hot copy, so the bytes are read from DRAM once instead of
    /// twice.
    ///
    /// `dst` is cleared first and `acc`'s first `num_groups` entries are
    /// overwritten. `i32` addition is exact, so the group-major summation order is
    /// bit-identical to `read + copy` followed by
    /// [`accumulate`](Self::accumulate) and to the historical storage-order
    /// scatter (pinned by the `plan_equivalence` proptests).
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the planned layer length or `acc` holds
    /// fewer than `num_groups` entries.
    pub fn copy_accumulate(&self, src: &[u8], dst: &mut Vec<i8>, acc: &mut [i32]) {
        assert_eq!(
            src.len(),
            self.len(),
            "byte count changed since the plan was built"
        );
        let num_groups = self.num_groups();
        assert!(
            acc.len() >= num_groups,
            "accumulator holds {} entries, need {num_groups}",
            acc.len()
        );
        VERIFY_SWEEPS.add(1);
        let acc = &mut acc[..num_groups];
        dst.clear();
        dst.reserve(src.len());
        if self.identity_members {
            for (g, slot) in acc.iter_mut().enumerate() {
                let start = self.group_offsets[g] as usize;
                let end = self.group_offsets[g + 1] as usize;
                *slot = widen_dot_masked(&src[start..end], &self.slot_mask[start..end], dst);
            }
        } else {
            dst.extend(src.iter().map(|&b| i8::from_ne_bytes([b])));
            self.accumulate_inner(dst, acc);
        }
    }

    /// Streams the layer once and writes every group's signature into `out` (cleared
    /// first). `acc` is the caller-provided accumulator scratch, as in
    /// [`accumulate`](Self::accumulate).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`accumulate`](Self::accumulate).
    pub fn signatures_into(
        &self,
        weights: &[i8],
        bits: SignatureBits,
        acc: &mut [i32],
        out: &mut Vec<u8>,
    ) {
        self.accumulate(weights, acc);
        out.clear();
        out.extend(acc[..self.num_groups()].iter().map(|&m| binarize(m, bits)));
    }

    /// Convenience wrapper around [`signatures_into`](Self::signatures_into) that
    /// allocates its own scratch.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the planned layer length.
    pub fn signatures(&self, weights: &[i8], bits: SignatureBits) -> Vec<u8> {
        let mut acc = vec![0i32; self.num_groups()];
        let mut out = Vec::with_capacity(self.num_groups());
        self.signatures_into(weights, bits, &mut acc, &mut out);
        out
    }
}

/// Fixed-width masked dot product over contiguous weight and mask slices: lane-local
/// `i32` partial sums over [`VERIFY_LANES`]-wide blocks (the autovectorized fast
/// path), scalar over the ragged tail. Exact in `i32`, so any lane split produces
/// the same sum.
#[inline]
fn dot_masked(weights: &[i8], masks: &[i8]) -> i32 {
    let mut lanes = [0i32; VERIFY_LANES];
    let mut w = weights.chunks_exact(VERIFY_LANES);
    let mut m = masks.chunks_exact(VERIFY_LANES);
    for (wc, mc) in (&mut w).zip(&mut m) {
        for lane in 0..VERIFY_LANES {
            lanes[lane] += i32::from(wc[lane]) * i32::from(mc[lane]);
        }
    }
    let mut total: i32 = lanes.iter().sum();
    for (&wv, &mv) in w.remainder().iter().zip(m.remainder()) {
        total += i32::from(wv) * i32::from(mv);
    }
    total
}

/// [`dot_masked`] fused with the byte fetch: widens each lane block of raw DRAM
/// bytes into `dst` (two's-complement reinterpretation, a no-op bit cast) and
/// folds the same block into the masked dot in one step. Contiguous groups are
/// storage-order slices, so appending per group fills `dst` in layer order.
#[inline]
fn widen_dot_masked(bytes: &[u8], masks: &[i8], dst: &mut Vec<i8>) -> i32 {
    let mut lanes = [0i32; VERIFY_LANES];
    let mut b = bytes.chunks_exact(VERIFY_LANES);
    let mut m = masks.chunks_exact(VERIFY_LANES);
    for (bc, mc) in (&mut b).zip(&mut m) {
        let mut w = [0i8; VERIFY_LANES];
        for (lane, &byte) in w.iter_mut().zip(bc) {
            *lane = i8::from_ne_bytes([byte]);
        }
        dst.extend_from_slice(&w);
        for lane in 0..VERIFY_LANES {
            lanes[lane] += i32::from(w[lane]) * i32::from(mc[lane]);
        }
    }
    let mut total: i32 = lanes.iter().sum();
    for (&byte, &mv) in b.remainder().iter().zip(m.remainder()) {
        let w = i8::from_ne_bytes([byte]);
        dst.push(w);
        total += i32::from(w) * i32::from(mv);
    }
    total
}

/// [`dot_masked`] for permuted (interleaved) groups: gathers each lane block of
/// weights through the CSR member indices into a stack buffer, then runs the same
/// fixed-width widening multiply — the gather is scalar, the arithmetic is not.
#[inline]
fn dot_masked_gather(weights: &[i8], members: &[u32], masks: &[i8]) -> i32 {
    let mut lanes = [0i32; VERIFY_LANES];
    let mut idx = members.chunks_exact(VERIFY_LANES);
    let mut m = masks.chunks_exact(VERIFY_LANES);
    for (ic, mc) in (&mut idx).zip(&mut m) {
        let mut w = [0i8; VERIFY_LANES];
        for (lane, &i) in w.iter_mut().zip(ic) {
            *lane = weights[i as usize];
        }
        for lane in 0..VERIFY_LANES {
            lanes[lane] += i32::from(w[lane]) * i32::from(mc[lane]);
        }
    }
    let mut total: i32 = lanes.iter().sum();
    for (&i, &mv) in idx.remainder().iter().zip(m.remainder()) {
        total += i32::from(weights[i as usize]) * i32::from(mv);
    }
    total
}

/// The verification plan of a whole model: one [`LayerPlan`] per protected layer plus
/// the signature width, precomputed at signing time so every run-time detection pass is
/// a sequential, allocation-free sweep in weight-fetch order.
///
/// Like the golden [`SignatureStore`](crate::SignatureStore), a plan is versioned by
/// the [`KeyEpoch`] its keys were derived for: verifying weights against a store from
/// another epoch is a category error, and the protection layer keeps plan and store
/// paired per epoch.
///
/// # Example
///
/// ```
/// use radar_core::{GroupLayout, Grouping, KeyEpoch, SecretKey, SignatureBits, VerifyPlan};
///
/// let plan = VerifyPlan::new(
///     [(GroupLayout::new(64, 8, Grouping::interleaved()), SecretKey::new(1))],
///     SignatureBits::Two,
/// );
/// assert_eq!(plan.num_layers(), 1);
/// assert_eq!(plan.max_groups(), 8);
/// assert_eq!(plan.epoch(), KeyEpoch::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyPlan {
    layers: Vec<LayerPlan>,
    bits: SignatureBits,
    epoch: KeyEpoch,
}

impl VerifyPlan {
    /// Compiles a plan from per-layer `(layout, key)` pairs, versioned as
    /// [`KeyEpoch::ZERO`].
    pub fn new(
        layers: impl IntoIterator<Item = (GroupLayout, SecretKey)>,
        bits: SignatureBits,
    ) -> Self {
        Self::for_epoch(layers, bits, KeyEpoch::ZERO)
    }

    /// Compiles a plan whose keys belong to `epoch`.
    pub fn for_epoch(
        layers: impl IntoIterator<Item = (GroupLayout, SecretKey)>,
        bits: SignatureBits,
        epoch: KeyEpoch,
    ) -> Self {
        VerifyPlan {
            layers: layers
                .into_iter()
                .map(|(layout, key)| LayerPlan::new(layout, key))
                .collect(),
            bits,
            epoch,
        }
    }

    /// Signature width signatures are compared at.
    pub fn signature_bits(&self) -> SignatureBits {
        self.bits
    }

    /// The key epoch this plan's keys were derived for.
    pub fn epoch(&self) -> KeyEpoch {
        self.epoch
    }

    /// Number of planned layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The per-layer plans in layer order.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// The plan of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn layer(&self, layer: usize) -> &LayerPlan {
        &self.layers[layer]
    }

    /// Largest group count of any planned layer — the scratch size one shared
    /// accumulator needs to serve every layer.
    pub fn max_groups(&self) -> usize {
        self.layers
            .iter()
            .map(LayerPlan::num_groups)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::Grouping;
    use crate::signature::gather_signatures;

    fn weights(len: usize) -> Vec<i8> {
        (0..len)
            .map(|i| (i as i32 * 37 % 251 - 125) as i8)
            .collect()
    }

    #[test]
    fn streaming_matches_gather_for_both_groupings() {
        for grouping in [
            Grouping::Contiguous,
            Grouping::interleaved(),
            Grouping::Interleaved { offset: 0 },
            Grouping::Interleaved { offset: 7 },
        ] {
            for (len, g) in [(128, 16), (130, 16), (37, 5), (513, 64)] {
                let layout = GroupLayout::new(len, g, grouping);
                let key = SecretKey::new(0xBEEF);
                let w = weights(len);
                for bits in [SignatureBits::Two, SignatureBits::Three] {
                    assert_eq!(
                        LayerPlan::new(layout, key).signatures(&w, bits),
                        gather_signatures(&w, &layout, &key, bits),
                        "{grouping:?} len={len} G={g} {bits:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_members_match_layout_members_in_slot_order() {
        for grouping in [Grouping::Contiguous, Grouping::interleaved()] {
            let layout = GroupLayout::new(150, 16, grouping);
            let plan = LayerPlan::new(layout, SecretKey::insecure_unmasked());
            for g in 0..layout.num_groups() {
                let expected: Vec<u32> = layout.members(g).iter().map(|&i| i as u32).collect();
                assert_eq!(plan.group_members(g), expected.as_slice(), "group {g}");
            }
        }
    }

    #[test]
    fn mask_expands_key_by_slot() {
        let layout = GroupLayout::new(64, 8, Grouping::interleaved());
        let key = SecretKey::new(0xACE1);
        let plan = LayerPlan::new(layout, key);
        assert_eq!(plan.slot_mask.len(), layout.len());
        // Each group's mask slice holds the key mask of its members' slots, in order.
        for g in 0..layout.num_groups() {
            let start = plan.group_offsets[g] as usize;
            for (&i, &m) in plan.group_members(g).iter().zip(&plan.slot_mask[start..]) {
                assert_eq!(i32::from(m), key.mask(layout.slot_of(i as usize)));
            }
        }
    }

    #[test]
    fn shared_accumulator_serves_layers_of_different_widths() {
        let plan = VerifyPlan::new(
            [
                (
                    GroupLayout::new(256, 8, Grouping::interleaved()),
                    SecretKey::new(3),
                ),
                (
                    GroupLayout::new(64, 16, Grouping::Contiguous),
                    SecretKey::new(5),
                ),
            ],
            SignatureBits::Two,
        );
        let mut acc = vec![0i32; plan.max_groups()];
        let mut out = Vec::new();
        for layer in plan.layers() {
            let w = weights(layer.len());
            layer.signatures_into(&w, plan.signature_bits(), &mut acc, &mut out);
            assert_eq!(out, layer.signatures(&w, plan.signature_bits()));
        }
    }

    #[test]
    fn copy_accumulate_matches_copy_then_accumulate() {
        for grouping in [Grouping::Contiguous, Grouping::interleaved()] {
            for (len, g) in [(128, 16), (130, 16), (37, 5), (513, 64)] {
                let layout = GroupLayout::new(len, g, grouping);
                let plan = LayerPlan::new(layout, SecretKey::new(0xBEEF));
                let src: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
                let mut dst = Vec::new();
                let mut acc = vec![0i32; layout.num_groups()];
                plan.copy_accumulate(&src, &mut dst, &mut acc);
                let copied: Vec<i8> = src.iter().map(|&b| i8::from_ne_bytes([b])).collect();
                assert_eq!(dst, copied, "{grouping:?} len={len} G={g}");
                let mut expect = vec![0i32; layout.num_groups()];
                plan.accumulate(&copied, &mut expect);
                assert_eq!(acc, expect, "{grouping:?} len={len} G={g}");
            }
        }
    }

    #[test]
    fn identity_permutation_is_detected_for_contiguous_grouping_only() {
        let contiguous = LayerPlan::new(
            GroupLayout::new(96, 16, Grouping::Contiguous),
            SecretKey::new(0xACE1),
        );
        let interleaved = LayerPlan::new(
            GroupLayout::new(96, 16, Grouping::interleaved()),
            SecretKey::new(0xACE1),
        );
        assert!(contiguous.identity_members);
        assert!(!interleaved.identity_members);
    }

    #[test]
    #[should_panic(expected = "byte count changed")]
    fn copy_accumulate_rejects_mismatched_byte_count() {
        let plan = LayerPlan::new(
            GroupLayout::new(16, 4, Grouping::Contiguous),
            SecretKey::insecure_unmasked(),
        );
        let mut acc = vec![0i32; 4];
        plan.copy_accumulate(&[0u8; 15], &mut Vec::new(), &mut acc);
    }

    #[test]
    #[should_panic(expected = "weight count changed")]
    fn accumulate_rejects_mismatched_weight_count() {
        let plan = LayerPlan::new(
            GroupLayout::new(16, 4, Grouping::Contiguous),
            SecretKey::insecure_unmasked(),
        );
        let mut acc = vec![0i32; 4];
        plan.accumulate(&[0i8; 15], &mut acc);
    }

    #[test]
    #[should_panic(expected = "accumulator holds")]
    fn accumulate_rejects_short_scratch() {
        let plan = LayerPlan::new(
            GroupLayout::new(16, 4, Grouping::Contiguous),
            SecretKey::insecure_unmasked(),
        );
        let mut acc = vec![0i32; 3];
        plan.accumulate(&[0i8; 16], &mut acc);
    }
}
