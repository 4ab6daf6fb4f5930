//! Property-based equivalence proofs for the storage-order verify sweep: the masked
//! sums of [`GroupLayout::masked_sums`] must equal the per-group gather oracle
//! ([`gather_signatures`], [`masked_sum`] over [`GroupLayout::members`]) for arbitrary
//! layer shapes, keys and signature widths; the fetch kernel must report exactly what
//! the value kernel reports on the same bytes; both kernels must flag exactly the
//! groups whose gathered signature differs from the golden one; and the group layout
//! must stay a bijection even when the layer length is not a multiple of the group
//! size (padding suffix).

use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;
use radar_core::{
    binarize, gather_signatures, masked_sum, FlaggedGroup, GroupLayout, Grouping, RadarConfig,
    RadarProtection, SecretKey, SignatureBits,
};
use radar_nn::{Linear, Sequential};
use radar_quant::QuantizedModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits_from(three: bool) -> SignatureBits {
    if three {
        SignatureBits::Three
    } else {
        SignatureBits::Two
    }
}

/// Checks the sweep against the gather oracle on one layer: every accumulator equals
/// the masked sum of the group's gathered members, the binarized sweep equals
/// [`gather_signatures`], and scratch entries past the layer's groups stay untouched.
fn sweep_matches_gather(
    weights: &[i8],
    layout: GroupLayout,
    key: SecretKey,
    bits: SignatureBits,
) -> TestCaseResult {
    let ng = layout.num_groups();
    let mut acc = vec![i32::MIN; ng + 1];
    layout.masked_sums(&key, weights, &mut acc);
    for (g, &sum) in acc[..ng].iter().enumerate() {
        let gathered: Vec<i8> = layout.members(g).iter().map(|&i| weights[i]).collect();
        prop_assert_eq!(sum, masked_sum(&gathered, &key), "group {}", g);
    }
    prop_assert_eq!(acc[ng], i32::MIN, "the sweep wrote past num_groups");
    let swept: Vec<u8> = acc[..ng].iter().map(|&m| binarize(m, bits)).collect();
    prop_assert_eq!(swept, gather_signatures(weights, &layout, &key, bits));
    Ok(())
}

/// Builds a quantized model whose protected layers have exactly the given weight
/// counts (one `Linear(size, 1)` per entry; the model is never run forward, so the
/// layer dimensions do not need to chain).
fn model_with_layer_sizes(sizes: &[usize], seed: u64) -> QuantizedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = Sequential::new();
    for &size in sizes {
        seq.push(Linear::new(&mut rng, size, 1));
    }
    QuantizedModel::new(Box::new(seq))
}

proptest! {
    /// The sweep equals the gather oracle under interleaving for arbitrary
    /// `(len, group_size, offset, key, SignatureBits)`: ragged last rows whenever
    /// `len` is not a multiple of `num_groups`, and offsets up to 8, which reach
    /// `t ≥ num_groups` on short layers.
    #[test]
    fn sweep_equals_gather_interleaved(
        weights in prop::collection::vec(any::<i8>(), 1..1200),
        group_size in 1usize..300,
        offset in 0usize..9,
        key_bits in any::<u16>(),
        three_bit in any::<bool>(),
    ) {
        let layout = GroupLayout::new(weights.len(), group_size, Grouping::Interleaved { offset });
        sweep_matches_gather(&weights, layout, SecretKey::new(key_bits), bits_from(three_bit))?;
    }

    /// Same equivalence for the contiguous ("without interleave") ablation, including
    /// a short last group.
    #[test]
    fn sweep_equals_gather_contiguous(
        weights in prop::collection::vec(any::<i8>(), 1..1200),
        group_size in 1usize..300,
        key_bits in any::<u16>(),
        three_bit in any::<bool>(),
    ) {
        let layout = GroupLayout::new(weights.len(), group_size, Grouping::Contiguous);
        sweep_matches_gather(&weights, layout, SecretKey::new(key_bits), bits_from(three_bit))?;
    }

    /// Short interleaved layers with few groups, where every offset in `0..9` is at
    /// least `num_groups` for some shapes and the last row is usually ragged.
    #[test]
    fn sweep_equals_gather_when_the_offset_wraps(
        weights in prop::collection::vec(any::<i8>(), 1..40),
        group_size in 1usize..40,
        offset in 0usize..9,
        key_bits in any::<u16>(),
        three_bit in any::<bool>(),
    ) {
        let layout = GroupLayout::new(weights.len(), group_size, Grouping::Interleaved { offset });
        sweep_matches_gather(&weights, layout, SecretKey::new(key_bits), bits_from(three_bit))?;
    }

    /// The fetch kernel reports exactly what the value kernel reports on the same
    /// bytes, and copies those bytes into `dst` — across both groupings, masking,
    /// both signature widths, corrupted layers, and scratch buffers shared by layers
    /// of different sizes.
    #[test]
    fn fetch_kernel_matches_value_kernel(
        sizes in prop::collection::vec(4usize..400, 1..6),
        g in 1usize..96,
        seed in any::<u64>(),
        raw_flips in prop::collection::vec((any::<u16>(), any::<u16>(), 0u32..8), 0..16),
        interleave in any::<bool>(),
        masking in any::<bool>(),
        three_bit in any::<bool>(),
    ) {
        let mut model = model_with_layer_sizes(&sizes, seed);
        let mut cfg = if interleave {
            RadarConfig::paper_default(g)
        } else {
            RadarConfig::without_interleave(g)
        }
        .with_masking(masking);
        if three_bit {
            cfg = cfg.with_three_bit_signature();
        }
        let radar = RadarProtection::new(&model, cfg);
        for &(a, b, bit) in &raw_flips {
            let layer = a as usize % sizes.len();
            model.flip_bit(layer, b as usize % sizes[layer], bit);
        }
        let (mut dst, mut fetch_acc, mut value_acc) = (Vec::new(), Vec::new(), Vec::new());
        for layer in 0..model.num_layers() {
            let values = model.layer_values(layer);
            let bytes: Vec<u8> = values.iter().map(|&v| v as u8).collect();
            let fetched = radar.fetch_verify_layer_at_epoch_with_scratch(
                radar.current_epoch(),
                layer,
                &bytes,
                &mut dst,
                &mut fetch_acc,
            );
            let verified = radar.verify_layer_values_with_scratch(layer, values, &mut value_acc);
            prop_assert_eq!(fetched, verified, "layer {}", layer);
            prop_assert_eq!(dst.as_slice(), values, "layer {} copy", layer);
        }
    }

    /// Each kernel flags exactly the groups whose gathered signature
    /// ([`gather_signatures`]) differs from the golden one: an oracle for the packed
    /// word compare that shares no code with either kernel. Every layer takes several
    /// flips on any bit, so several groups of one word can differ at once, and every
    /// group count leaves a partial last word at both widths (`ng mod 32 ≠ 0`).
    #[test]
    fn kernels_flag_exactly_the_groups_the_gather_oracle_flags(
        layers in prop::collection::vec(
            (0usize..7, 1usize..32, any::<u16>(), prop::collection::vec((any::<u16>(), 0u32..8), 2..10)),
            1..4,
        ),
        g in 1usize..12,
        seed in any::<u64>(),
        interleave in any::<bool>(),
        masking in any::<bool>(),
        three_bit in any::<bool>(),
    ) {
        // `ng` groups of `g`, the last one short by up to `g − 1` weights.
        let sizes: Vec<usize> = layers
            .iter()
            .map(|&(words, extra, short, _)| (32 * words + extra) * g - usize::from(short) % g)
            .collect();
        let mut model = model_with_layer_sizes(&sizes, seed);
        let mut cfg = if interleave {
            RadarConfig::paper_default(g)
        } else {
            RadarConfig::without_interleave(g)
        }
        .with_masking(masking);
        if three_bit {
            cfg = cfg.with_three_bit_signature();
        }
        let radar = RadarProtection::new(&model, cfg);
        for (layer, (_, _, _, flips)) in layers.iter().enumerate() {
            for &(weight, bit) in flips {
                model.flip_bit(layer, usize::from(weight) % sizes[layer], bit);
            }
        }
        let (mut dst, mut acc) = (Vec::new(), Vec::new());
        for (layer, protection) in radar.layers().iter().enumerate() {
            let values = model.layer_values(layer);
            let layout = protection.layout();
            prop_assert_ne!(layout.num_groups() % 32, 0);
            let expected: Vec<FlaggedGroup> =
                gather_signatures(values, &layout, &protection.key(), cfg.signature_bits)
                    .into_iter()
                    .enumerate()
                    .filter(|&(group, sig)| sig != radar.golden().signature(layer, group))
                    .map(|(group, _)| FlaggedGroup { layer, group })
                    .collect();
            let verified = radar.verify_layer_values_with_scratch(layer, values, &mut acc);
            prop_assert_eq!(&verified.flagged, &expected, "value kernel, layer {}", layer);
            let bytes: Vec<u8> = values.iter().map(|&v| v as u8).collect();
            let fetched = radar.fetch_verify_layer_at_epoch_with_scratch(
                radar.current_epoch(),
                layer,
                &bytes,
                &mut dst,
                &mut acc,
            );
            prop_assert_eq!(&fetched.flagged, &expected, "fetch kernel, layer {}", layer);
        }
    }

    /// The layout remains a bijection between weight indices and `(group, slot)` pairs
    /// when the layer length is not a multiple of the group size (the padded-suffix
    /// case): every index appears in exactly one group and slots are unique within a
    /// group.
    #[test]
    fn layout_is_a_bijection_for_non_multiple_lengths(
        len in 1usize..1500,
        group_size in 2usize..300,
        offset in 0usize..9,
    ) {
        prop_assume!(len % group_size != 0);
        for grouping in [Grouping::Contiguous, Grouping::Interleaved { offset }] {
            let layout = GroupLayout::new(len, group_size, grouping);
            let mut seen = vec![0usize; len];
            for g in 0..layout.num_groups() {
                let members = layout.members(g);
                let mut slots: Vec<usize> = members.iter().map(|&i| layout.slot_of(i)).collect();
                for &i in &members {
                    prop_assert_eq!(layout.group_of(i), g);
                    seen[i] += 1;
                }
                let total = slots.len();
                slots.sort_unstable();
                slots.dedup();
                prop_assert_eq!(slots.len(), total, "duplicate slot in group {}", g);
            }
            prop_assert!(
                seen.iter().all(|&c| c == 1),
                "{:?}: some index is covered {:?} times",
                grouping,
                seen.iter().copied().max()
            );
        }
    }
}
