use crate::key::KeyEpoch;
use crate::signature::{binarize, SignatureBits};

/// The golden signatures of every group of every protected layer, as they would be held
/// in secure on-chip memory.
///
/// Signatures are stored bit-packed so the reported storage overhead matches what the
/// paper accounts for (2 or 3 bits per group). Every store is versioned by the
/// [`KeyEpoch`] its signatures were computed under: during a key roll the protection
/// holds one store per retained epoch, and verification must compare against the store
/// whose epoch matches the keys it verified with.
///
/// # Example
///
/// ```
/// use radar_core::{KeyEpoch, SignatureBits, SignatureStore};
///
/// let mut store = SignatureStore::new(SignatureBits::Two);
/// store.push_layer(vec![0b01, 0b10, 0b11]);
/// assert_eq!(store.signature(0, 2), 0b11);
/// assert_eq!(store.total_groups(), 3);
/// assert_eq!(store.epoch(), KeyEpoch::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureStore {
    bits: SignatureBits,
    epoch: KeyEpoch,
    layers: Vec<PackedLayer>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PackedLayer {
    packed: Vec<u8>,
    groups: usize,
}

impl SignatureStore {
    /// Creates an empty store for signatures of the given width, versioned as
    /// [`KeyEpoch::ZERO`].
    pub fn new(bits: SignatureBits) -> Self {
        Self::for_epoch(bits, KeyEpoch::ZERO)
    }

    /// Creates an empty store whose signatures belong to `epoch`.
    pub fn for_epoch(bits: SignatureBits, epoch: KeyEpoch) -> Self {
        SignatureStore {
            bits,
            epoch,
            layers: Vec::new(),
        }
    }

    /// Signature width.
    pub fn signature_bits(&self) -> SignatureBits {
        self.bits
    }

    /// The key epoch these signatures were computed under.
    pub fn epoch(&self) -> KeyEpoch {
        self.epoch
    }

    /// Appends one layer's group signatures (unpacked, one per group).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any signature has bits set above the store's width —
    /// such a signature would otherwise be silently truncated, corrupting detection
    /// state (e.g. a 3-bit signature written into a 2-bit store).
    pub fn push_layer(&mut self, signatures: Vec<u8>) {
        let width = self.bits.bits() as usize;
        let groups = signatures.len();
        let mut packed = vec![0u8; (groups * width).div_ceil(8)];
        for (g, &sig) in signatures.iter().enumerate() {
            debug_assert_eq!(
                sig >> width,
                0,
                "signature {sig:#05b} of group {g} exceeds the {width}-bit store width"
            );
            for b in 0..width {
                if (sig >> b) & 1 == 1 {
                    let bit_index = g * width + b;
                    packed[bit_index / 8] |= 1 << (bit_index % 8);
                }
            }
        }
        self.layers.push(PackedLayer { packed, groups });
    }

    /// Number of protected layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of groups in `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn groups_in_layer(&self, layer: usize) -> usize {
        self.layers[layer].groups
    }

    /// Total number of groups across all layers.
    pub fn total_groups(&self) -> usize {
        self.layers.iter().map(|l| l.groups).sum()
    }

    /// Reads back the signature of `(layer, group)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn signature(&self, layer: usize, group: usize) -> u8 {
        let l = &self.layers[layer];
        assert!(
            group < l.groups,
            "group {group} out of bounds for layer {layer} ({} groups)",
            l.groups
        );
        let width = self.bits.bits() as usize;
        let mut sig = 0u8;
        for b in 0..width {
            let bit_index = group * width + b;
            if (l.packed[bit_index / 8] >> (bit_index % 8)) & 1 == 1 {
                sig |= 1 << b;
            }
        }
        sig
    }

    /// Compares one layer's fresh masked sums `sums` (one per group) with its golden
    /// signatures, calling `on_mismatch(group)` for every group whose
    /// [`binarize`]d sum differs, in increasing group order.
    ///
    /// The fresh signatures are packed in the store's own LSB-first layout (32
    /// two-bit signatures `(m >> 7) & 3` per `u64` word; at three bits 64 groups fill
    /// three words), and each word is compared whole with the golden bytes. Only a
    /// word that differs is resolved to single groups, so a clean layer costs one
    /// compare per word.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds or `sums` does not hold one sum per group.
    pub(crate) fn compare_layer(&self, layer: usize, sums: &[i32], on_mismatch: impl FnMut(usize)) {
        let l = &self.layers[layer];
        assert_eq!(
            sums.len(),
            l.groups,
            "{} sums for the {} groups of layer {layer}",
            sums.len(),
            l.groups
        );
        match self.bits {
            SignatureBits::Two => compare_words::<2>(&l.packed, sums, on_mismatch),
            SignatureBits::Three => compare_words::<3>(&l.packed, sums, on_mismatch),
        }
    }

    /// Overwrites the signature of `(layer, group)`; used when recovery re-signs a
    /// zeroed group so later verification passes accept the recovered state.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds, and in debug builds if `sig` has bits
    /// set above the store's width (which would be silently truncated).
    pub fn set_signature(&mut self, layer: usize, group: usize, sig: u8) {
        let width = self.bits.bits() as usize;
        debug_assert_eq!(
            sig >> width,
            0,
            "signature {sig:#05b} exceeds the {width}-bit store width"
        );
        let l = &mut self.layers[layer];
        assert!(
            group < l.groups,
            "group {group} out of bounds for layer {layer} ({} groups)",
            l.groups
        );
        for b in 0..width {
            let bit_index = group * width + b;
            if (sig >> b) & 1 == 1 {
                l.packed[bit_index / 8] |= 1 << (bit_index % 8);
            } else {
                l.packed[bit_index / 8] &= !(1 << (bit_index % 8));
            }
        }
    }

    /// Total signature storage in bits (the paper's storage-overhead metric).
    pub fn storage_bits(&self) -> usize {
        self.total_groups() * self.bits.bits() as usize
    }

    /// Total signature storage in bytes (rounded up per layer, as packed).
    pub fn storage_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.packed.len()).sum()
    }

    /// Total signature storage in kilobytes (1 KB = 1024 bytes).
    pub fn storage_kb(&self) -> f64 {
        self.storage_bytes() as f64 / 1024.0
    }
}

/// [`SignatureStore::compare_layer`] at a signature width of `W` bits: 64 groups fill
/// `W` words, which are compared with the matching `8·W` bytes of `packed`. The last
/// chunk is padded with zero sums, whose signature is 0 like the store's padding.
fn compare_words<const W: usize>(packed: &[u8], sums: &[i32], mut on_mismatch: impl FnMut(usize)) {
    let mut last = usize::MAX;
    for (chunk, golden) in packed.chunks(8 * W).enumerate() {
        let part = &sums[64 * chunk..sums.len().min(64 * chunk + 64)];
        let fresh = match <&[i32; 64]>::try_from(part) {
            Ok(full) => pack_words::<W>(full),
            Err(_) => {
                let mut padded = [0; 64];
                padded[..part.len()].copy_from_slice(part);
                pack_words::<W>(&padded)
            }
        };
        for (k, (&word, golden)) in fresh.iter().zip(golden.chunks(8)).enumerate() {
            let mut diff = word ^ le_word(golden);
            let base = 64 * (chunk * W + k);
            while diff != 0 {
                let group = (base + diff.trailing_zeros() as usize) / W;
                if group != last {
                    on_mismatch(group);
                    last = group;
                }
                diff &= diff - 1;
            }
        }
    }
}

/// Packs the fresh `W`-bit signatures of 64 groups into `W` words, LSB first. Word `k`
/// holds the groups that start in bits `64k .. 64k + 64`; at 3 bits it opens with the
/// high bits of a group that straddles in from the word before.
fn pack_words<const W: usize>(sums: &[i32; 64]) -> [u64; W] {
    let bits = if W == 3 {
        SignatureBits::Three
    } else {
        SignatureBits::Two
    };
    let sig = |m: i32| u64::from(binarize(m, bits));
    let mut words = [0; W];
    for (k, word) in words.iter_mut().enumerate() {
        let base = 64 * k;
        let first = base.div_ceil(W);
        if W * first > base {
            *word = sig(sums[first - 1]) >> (base - W * (first - 1));
        }
        let end = (base + 64).div_ceil(W).min(64);
        for (i, &m) in sums[first..end].iter().enumerate() {
            *word |= sig(m) << (W * (first + i) - base);
        }
    }
    words
}

/// Reads up to 8 bytes as a little-endian word; missing high bytes read as 0.
fn le_word(bytes: &[u8]) -> u64 {
    match <[u8; 8]>::try_from(bytes) {
        Ok(word) => u64::from_le_bytes(word),
        Err(_) => bytes
            .iter()
            .rev()
            .fold(0, |word, &b| (word << 8) | u64::from(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_two_bit_signatures() {
        let mut store = SignatureStore::new(SignatureBits::Two);
        let sigs: Vec<u8> = (0..37).map(|i| (i % 4) as u8).collect();
        store.push_layer(sigs.clone());
        for (g, &expected) in sigs.iter().enumerate() {
            assert_eq!(store.signature(0, g), expected);
        }
    }

    #[test]
    fn roundtrip_three_bit_signatures() {
        let mut store = SignatureStore::new(SignatureBits::Three);
        let sigs: Vec<u8> = (0..19).map(|i| (i % 8) as u8).collect();
        store.push_layer(sigs.clone());
        for (g, &expected) in sigs.iter().enumerate() {
            assert_eq!(store.signature(0, g), expected);
        }
    }

    #[test]
    fn compare_layer_flags_each_differing_group_once_in_order() {
        // A sum whose binarized signature is `sig`: bits 8 and 7 carry S_A and S_B,
        // bit 6 carries S_C.
        let sum_for = |sig: u8| (i32::from(sig & 0b11) << 7) | (i32::from(sig >> 2) << 6);
        for bits in [SignatureBits::Two, SignatureBits::Three] {
            let width = bits.bits() as usize;
            // Groups 21 and 42 of every 64 straddle two words at 3 bits: 21 differs
            // only in its high bits, which open the next word, and 42 in all its
            // bits, so in both words. Every third other group differs in one bit.
            let flip = |g: usize| match g % 64 {
                21 => 0b110 & ((1u8 << width) - 1),
                42 => (1u8 << width) - 1,
                _ if g % 3 == 0 => 1 << (g % width),
                _ => 0,
            };
            // 130 groups leave a partial last word at both widths.
            for groups in [1usize, 21, 22, 43, 64, 65, 130] {
                let golden: Vec<u8> = (0..groups).map(|g| (g * 5 % (1 << width)) as u8).collect();
                let mut store = SignatureStore::new(bits);
                store.push_layer(golden.clone());
                let sums: Vec<i32> = (0..groups).map(|g| sum_for(golden[g] ^ flip(g))).collect();
                let mut flagged = Vec::new();
                store.compare_layer(0, &sums, |g| flagged.push(g));
                let expected: Vec<usize> = (0..groups).filter(|&g| flip(g) != 0).collect();
                assert_eq!(flagged, expected, "{bits:?}, {groups} groups");
            }
        }
    }

    #[test]
    fn storage_accounting_matches_group_count() {
        let mut store = SignatureStore::new(SignatureBits::Two);
        store.push_layer(vec![0; 1000]);
        store.push_layer(vec![0; 24]);
        assert_eq!(store.total_groups(), 1024);
        assert_eq!(store.storage_bits(), 2048);
        assert_eq!(store.storage_bytes(), 250 + 6);
        assert!((store.storage_kb() - 0.25).abs() < 0.01);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds the 2-bit store width")]
    fn pushing_out_of_width_signature_panics() {
        let mut store = SignatureStore::new(SignatureBits::Two);
        // A 3-bit signature written into a 2-bit store must be rejected, not truncated.
        store.push_layer(vec![0b01, 0b101]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds the 2-bit store width")]
    fn setting_out_of_width_signature_panics() {
        let mut store = SignatureStore::new(SignatureBits::Two);
        store.push_layer(vec![0b01, 0b10]);
        store.set_signature(0, 1, 0b100);
    }

    #[test]
    fn stores_are_versioned_by_epoch() {
        let zero = SignatureStore::new(SignatureBits::Two);
        let rolled = SignatureStore::for_epoch(SignatureBits::Two, KeyEpoch::new(3));
        assert_eq!(zero.epoch(), KeyEpoch::ZERO);
        assert_eq!(rolled.epoch(), KeyEpoch::new(3));
        // Identical contents under different epochs are different stores.
        assert_ne!(zero, rolled);
    }

    #[test]
    fn multiple_layers_are_independent() {
        let mut store = SignatureStore::new(SignatureBits::Two);
        store.push_layer(vec![0b11, 0b00]);
        store.push_layer(vec![0b01]);
        assert_eq!(store.num_layers(), 2);
        assert_eq!(store.groups_in_layer(0), 2);
        assert_eq!(store.groups_in_layer(1), 1);
        assert_eq!(store.signature(1, 0), 0b01);
    }
}
