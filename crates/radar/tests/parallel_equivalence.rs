//! Property-based equivalence proofs for the sharded parallel detection path:
//! `detect_parallel` must produce exactly the report `detect` produces — same flag
//! set, same `(layer, group)` order — for arbitrary layer counts and sizes, group
//! sizes, thread counts and corruption patterns, and recovery driven by a merged
//! report of overlapping range checks must zero each flagged group exactly once.

use std::ops::Range;

use proptest::prelude::*;
use radar_core::{DetectionReport, RadarConfig, RadarProtection};
use radar_nn::{Linear, Sequential};
use radar_quant::{QuantizedModel, MSB};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Verifies `layers` of `model` one at a time through the per-layer kernel and
/// merges the reports — a layer-range check.
fn verify_range(
    radar: &RadarProtection,
    model: &QuantizedModel,
    layers: Range<usize>,
) -> DetectionReport {
    let (mut report, mut acc) = (DetectionReport::default(), Vec::new());
    for layer in layers {
        report.merge(&radar.verify_layer_values_with_scratch(
            layer,
            model.layer_values(layer),
            &mut acc,
        ));
    }
    report
}

fn config_from(g: usize, interleave: bool, masking: bool, three_bit: bool) -> RadarConfig {
    let mut cfg = if interleave {
        RadarConfig::paper_default(g)
    } else {
        RadarConfig::without_interleave(g)
    }
    .with_masking(masking);
    if three_bit {
        cfg = cfg.with_three_bit_signature();
    }
    cfg
}

proptest! {
    /// `detect_parallel` ≡ `detect` under sweeps of (layer sizes, G, threads, flips):
    /// strict equality proves the flag sets match and the order is preserved, and an
    /// order-insensitive set comparison guards the claim independently of ordering.
    #[test]
    fn detect_parallel_equals_detect(
        sizes in prop::collection::vec(4usize..400, 1..10),
        g in 1usize..96,
        threads in 1usize..9,
        seed in any::<u64>(),
        raw_flips in prop::collection::vec((any::<u16>(), any::<u16>(), any::<bool>()), 0..24),
        interleave in any::<bool>(),
        masking in any::<bool>(),
        three_bit in any::<bool>(),
    ) {
        let mut model = model_with_layer_sizes(&sizes, seed);
        let radar = RadarProtection::new(&model, config_from(g, interleave, masking, three_bit));
        for &(a, b, msb) in &raw_flips {
            let layer = a as usize % sizes.len();
            let weight = b as usize % sizes[layer];
            let bit = if msb { MSB } else { a as u32 % 8 };
            model.flip_bit(layer, weight, bit);
        }
        let sequential = radar.detect(&model);
        let parallel = radar.detect_parallel(&model, threads);
        prop_assert_eq!(&parallel, &sequential, "ordered reports diverge");
        // Order-insensitive comparison: same flags as sets, no duplicates on either side.
        let par_set: std::collections::HashSet<(usize, usize)> =
            parallel.flagged.iter().map(|f| (f.layer, f.group)).collect();
        let seq_set: std::collections::HashSet<(usize, usize)> =
            sequential.flagged.iter().map(|f| (f.layer, f.group)).collect();
        prop_assert_eq!(par_set.len(), parallel.flagged.len(), "parallel report has duplicates");
        prop_assert_eq!(seq_set.len(), sequential.flagged.len(), "sequential report has duplicates");
        prop_assert_eq!(par_set, seq_set);
    }

    /// Recovery from a report merged out of overlapping layer-range checks zeroes each
    /// flagged group exactly once: the merged report equals the full-pass report, and
    /// the recovery statistics match a straight detect-and-recover on an identical
    /// model.
    #[test]
    fn merged_overlapping_recovery_zeroes_groups_once(
        sizes in prop::collection::vec(8usize..200, 2..8),
        g in 2usize..64,
        seed in any::<u64>(),
        raw_flips in prop::collection::vec((any::<u16>(), any::<u16>()), 1..12),
        split in 1usize..7,
    ) {
        let mut model = model_with_layer_sizes(&sizes, seed);
        let mut twin = model_with_layer_sizes(&sizes, seed);
        let cfg = config_from(g, true, true, false);
        let mut radar = RadarProtection::new(&model, cfg);
        let mut radar_twin = RadarProtection::new(&twin, cfg);
        for &(a, b) in &raw_flips {
            let layer = a as usize % sizes.len();
            let weight = b as usize % sizes[layer];
            model.flip_bit(layer, weight, MSB);
            twin.flip_bit(layer, weight, MSB);
        }
        // Overlapping coverage: [0, mid+1) and [mid.saturating_sub(1), n) double-check
        // the boundary layers, plus a full-pass merge on top for maximal duplication.
        let n = sizes.len();
        let mid = split.min(n - 1);
        let mut merged = verify_range(&radar, &model, 0..(mid + 1).min(n));
        merged.merge(&verify_range(&radar, &model, mid.saturating_sub(1)..n));
        merged.merge(&radar.detect(&model));
        let (full, expected_recovery) = radar_twin.detect_and_recover(&mut twin);
        prop_assert_eq!(&merged, &full, "merged overlapping ranges diverge from full detect");
        let recovery = radar.recover(&mut model, &merged);
        prop_assert_eq!(recovery.groups_zeroed, expected_recovery.groups_zeroed);
        prop_assert_eq!(recovery.weights_zeroed, expected_recovery.weights_zeroed);
        prop_assert_eq!(recovery.groups_zeroed, full.num_flagged());
        prop_assert!(!radar.detect(&model).attack_detected());
        prop_assert_eq!(model.snapshot(), twin.snapshot());
    }
}
