use crate::grouping::GroupLayout;
use crate::key::SecretKey;

/// Width of the per-group signature.
///
/// The paper uses 2 bits (`S_A`, `S_B`, Eq. 1) by default and discusses a 3-bit variant
/// (adding `S_C = ⌊M/64⌋ % 2`) in Section VIII to also cover MSB-1 attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SignatureBits {
    /// The default 2-bit signature `{S_A, S_B}`.
    #[default]
    Two,
    /// The extended 3-bit signature `{S_A, S_B, S_C}`.
    Three,
}

impl SignatureBits {
    /// Number of bits per group signature.
    pub fn bits(&self) -> u32 {
        match self {
            SignatureBits::Two => 2,
            SignatureBits::Three => 3,
        }
    }
}

/// Largest group length for which [`masked_sum`] is provably exact in `i32`: every
/// term is at most 128 in magnitude (`|±1 · i8|`), so the running sum stays within
/// `i32` as long as `len * 128 <= i32::MAX`.
pub const MAX_GROUP_LEN: usize = (i32::MAX / 128) as usize;

/// Computes the masked addition checksum `M` of one group of weights.
///
/// `weights` are the group members in slot order; slot `t`'s contribution is negated
/// when key bit `t` is 0 (Algorithm 1). The sum is exact in `i32` (a group of at most a
/// few thousand `i8` values cannot overflow); the no-overflow bound is
/// [`MAX_GROUP_LEN`], checked by a `debug_assert!`.
pub fn masked_sum(weights: &[i8], key: &SecretKey) -> i32 {
    debug_assert!(
        weights.len() <= MAX_GROUP_LEN,
        "group of {} weights may overflow the i32 checksum (max {MAX_GROUP_LEN})",
        weights.len()
    );
    weights
        .iter()
        .enumerate()
        .map(|(t, &w)| key.mask(t) * i32::from(w))
        .sum()
}

/// Derives the signature from the checksum `M` by binarization (bit truncation in
/// hardware): `S_A = ⌊M/256⌋ % 2`, `S_B = ⌊M/128⌋ % 2`, and for the 3-bit variant
/// `S_C = ⌊M/64⌋ % 2`. An arithmetic right shift is floor division by a power of two,
/// so negative sums are handled exactly: the signature is bits 8 and 7 of `M`'s two's
/// complement (and bit 6 at three bits).
///
/// The signature is packed into the low bits of the returned byte: bit 0 = `S_B`
/// (parity of MSB flips), bit 1 = `S_A`, bit 2 = `S_C` when present.
pub fn binarize(m: i32, bits: SignatureBits) -> u8 {
    let sig = ((m >> 7) & 0b11) as u8;
    match bits {
        SignatureBits::Two => sig,
        SignatureBits::Three => sig | (((m >> 6) & 1) as u8) << 2,
    }
}

/// Convenience: the signature of one group of weights under a key.
pub fn group_signature(weights: &[i8], key: &SecretKey, bits: SignatureBits) -> u8 {
    binarize(masked_sum(weights, key), bits)
}

/// The per-group signatures of a whole layer, computed by gathering each group's
/// members through [`GroupLayout::members`].
///
/// This is the naive reference path: it re-derives the layout mapping and allocates a
/// member list per group on every call. The storage-order sweep
/// [`GroupLayout::masked_sums`] is the production path; this function is the
/// single-sourced test oracle the sweep is proven equivalent to (property tests).
///
/// # Panics
///
/// Panics if `weights.len()` differs from the layout's length.
pub fn gather_signatures(
    weights: &[i8],
    layout: &GroupLayout,
    key: &SecretKey,
    bits: SignatureBits,
) -> Vec<u8> {
    assert_eq!(
        weights.len(),
        layout.len(),
        "weight count does not match the layout"
    );
    (0..layout.num_groups())
        .map(|g| {
            let vals: Vec<i8> = layout.members(g).iter().map(|&i| weights[i]).collect();
            group_signature(&vals, key, bits)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_sum_with_identity_key_is_plain_sum() {
        let weights = [1i8, -2, 3, -4];
        assert_eq!(masked_sum(&weights, &SecretKey::insecure_unmasked()), -2);
    }

    #[test]
    fn masked_sum_negates_where_key_bit_is_zero() {
        // Key bits 0101...: positions 0, 2 are negated (bit = 0 means negate).
        let key = SecretKey::new(0b1010);
        let weights = [10i8, 20, 30, 40];
        // mask: pos0 -> bit0=0 -> -1; pos1 -> bit1=1 -> +1; pos2 -> bit2=0 -> -1; pos3 -> +1
        assert_eq!(masked_sum(&weights, &key), -10 + 20 - 30 + 40);
    }

    #[test]
    fn masked_sum_is_exact_at_the_i8_extremes() {
        // A large group saturated at i8::MIN, with an identity key (+1 masks) and with
        // an all-zero key (−1 masks): both extremes stay exact in i32.
        let len = 4096usize;
        let weights = vec![i8::MIN; len];
        assert_eq!(
            masked_sum(&weights, &SecretKey::insecure_unmasked()),
            -128 * len as i32
        );
        // Key 0 negates every slot, producing the positive extreme +128 per weight.
        assert_eq!(masked_sum(&weights, &SecretKey::new(0)), 128 * len as i32);
        // And the mixed extreme with i8::MAX.
        let highs = vec![i8::MAX; len];
        assert_eq!(
            masked_sum(&highs, &SecretKey::insecure_unmasked()),
            127 * len as i32
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "may overflow")]
    fn masked_sum_rejects_groups_beyond_the_overflow_bound() {
        let weights = vec![0i8; MAX_GROUP_LEN + 1];
        masked_sum(&weights, &SecretKey::insecure_unmasked());
    }

    #[test]
    fn binarize_matches_equation_one_for_positive_sums() {
        // M = 300: floor(300/256)=1 (odd), floor(300/128)=2 (even) -> S_A=1, S_B=0.
        assert_eq!(binarize(300, SignatureBits::Two), 0b10);
        // M = 130: S_A=0, S_B=1.
        assert_eq!(binarize(130, SignatureBits::Two), 0b01);
        // M = 64 with 3 bits: S_C=1.
        assert_eq!(binarize(64, SignatureBits::Three), 0b100);
    }

    #[test]
    fn binarize_uses_floor_semantics_for_negative_sums() {
        // M = -1: floor(-1/128) = -1 (odd) -> S_B = 1; floor(-1/256) = -1 -> S_A = 1.
        assert_eq!(binarize(-1, SignatureBits::Two), 0b11);
        // M = -128: floor(-128/128) = -1 -> S_B = 1; floor(-128/256) = -1 -> S_A = 1.
        assert_eq!(binarize(-128, SignatureBits::Two), 0b11);
        // M = -256: floor(-256/128) = -2 (even), floor(-256/256) = -1 (odd).
        assert_eq!(binarize(-256, SignatureBits::Two), 0b10);
    }

    #[test]
    fn single_msb_flip_always_toggles_parity_bit() {
        // Flipping an MSB changes the group sum by ±128, which must toggle S_B
        // regardless of the key and the rest of the group.
        let key = SecretKey::new(0xACE1);
        let mut weights = vec![3i8, -7, 20, -1, 0, 9, -30, 5];
        let before = group_signature(&weights, &key, SignatureBits::Two);
        weights[3] = (weights[3] as u8 ^ 0x80) as i8; // MSB flip on slot 3
        let after = group_signature(&weights, &key, SignatureBits::Two);
        assert_ne!(before & 1, after & 1, "S_B must detect a single MSB flip");
    }

    #[test]
    fn paired_opposite_flips_cancel_without_masking() {
        // The Section VIII evasion: (0→1, 1→0) MSB flips in one group leave the plain
        // sum unchanged, so the unmasked signature misses them.
        let key = SecretKey::insecure_unmasked();
        let mut weights = vec![5i8, -10, 7, -3];
        let before = group_signature(&weights, &key, SignatureBits::Two);
        weights[0] = (weights[0] as u8 ^ 0x80) as i8; // 0→1 (positive weight)
        weights[1] = (weights[1] as u8 ^ 0x80) as i8; // 1→0 (negative weight)
        let after = group_signature(&weights, &key, SignatureBits::Two);
        assert_eq!(before, after, "unmasked checksum is blind to paired flips");
    }

    #[test]
    fn masking_can_catch_paired_opposite_flips() {
        // With a key that negates one of the two positions, the same paired flips now
        // shift the masked sum by 256... which S_A catches (or by 0 for unlucky keys);
        // check that at least one key in a small sweep detects it, demonstrating that
        // masking removes the attacker's certainty.
        let mut detected = false;
        for key_bits in 0..16u16 {
            let key = SecretKey::new(key_bits);
            let mut weights = vec![5i8, -10, 7, -3];
            let before = group_signature(&weights, &key, SignatureBits::Two);
            weights[0] = (weights[0] as u8 ^ 0x80) as i8;
            weights[1] = (weights[1] as u8 ^ 0x80) as i8;
            let after = group_signature(&weights, &key, SignatureBits::Two);
            if before != after {
                detected = true;
            }
        }
        assert!(detected);
    }

    #[test]
    fn three_bit_signature_detects_msb1_flip() {
        let key = SecretKey::insecure_unmasked();
        let mut weights = vec![1i8, 2, 3, 4];
        let before2 = group_signature(&weights, &key, SignatureBits::Two);
        let before3 = group_signature(&weights, &key, SignatureBits::Three);
        weights[2] = (weights[2] as u8 ^ 0x40) as i8; // MSB-1 flip: +64
        let after2 = group_signature(&weights, &key, SignatureBits::Two);
        let after3 = group_signature(&weights, &key, SignatureBits::Three);
        // A single +64 change is invisible to S_B (parity of 128s) here but visible to S_C.
        assert_eq!(before2 & 1, after2 & 1);
        assert_ne!(before3, after3);
    }

    #[test]
    fn signature_bit_widths() {
        assert_eq!(SignatureBits::Two.bits(), 2);
        assert_eq!(SignatureBits::Three.bits(), 3);
        assert_eq!(SignatureBits::default(), SignatureBits::Two);
    }
}
