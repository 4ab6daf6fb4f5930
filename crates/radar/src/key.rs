use std::fmt;

use radar_integrity::{HmacSha256, Sha256};
use rand::Rng;
use rand_chacha::{ChaCha20Rng, SeedableRng};

/// The per-layer secret key used to mask weights during checksum computation.
///
/// The paper uses an `N_k = 16`-bit key per layer; bit `t mod 16` decides whether the
/// `t`-th weight of a group enters the sum directly or as its two's complement
/// (Algorithm 1, lines 4–9). The key is assumed to live in secure on-chip storage and
/// to be unknown to the attacker — accordingly, [`Debug`] is redacted and the raw
/// bits are only reachable through the explicitly named [`SecretKey::expose_bits`].
///
/// Keys are not fixed for the lifetime of a deployment: [`KeySchedule`] derives an
/// independent key per `(layer, epoch)` cell so the serving stack can rotate epochs
/// under live traffic (see `docs/KEYING.md`).
///
/// # Example
///
/// ```
/// use radar_core::SecretKey;
///
/// let key = SecretKey::new(0b1010_1010_1010_1010);
/// assert!(key.keeps_sign(1));
/// assert!(!key.keeps_sign(0));
/// assert_eq!(format!("{key:?}"), "SecretKey(..)");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecretKey {
    bits: u16,
}

/// Number of bits in a [`SecretKey`] (the paper's `N_k`).
pub const KEY_BITS: u32 = 16;

impl SecretKey {
    /// Creates a key from its 16-bit value.
    pub fn new(bits: u16) -> Self {
        SecretKey { bits }
    }

    /// Draws a uniformly random key.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        SecretKey { bits: rng.gen() }
    }

    /// The key that never masks (all bits set): the checksum degenerates to a
    /// plain, attacker-predictable sum.
    ///
    /// This exists **only** for the paper's masking ablation
    /// (`RadarConfig { masking: false, .. }`) and for tests that want
    /// checksum arithmetic without masking. It must never protect real
    /// traffic — the `insecure_` prefix is the explicit opt-in. There is
    /// deliberately no `Default` impl for [`SecretKey`], so this key cannot
    /// be picked up by accident through `..Default::default()` plumbing.
    pub fn insecure_unmasked() -> Self {
        SecretKey { bits: u16::MAX }
    }

    /// The raw key bits.
    ///
    /// Deliberately named to read as what it is: a secret leaving its
    /// container. The `secret-hygiene` lint (`cargo run -p radar-analyze`)
    /// forbids calls outside `radar-core` except for a reasoned allowlist
    /// (e.g. the key-learning adversary reporting a key it recovered itself).
    pub fn expose_bits(&self) -> u16 {
        self.bits
    }

    /// Whether the weight at position `t` of a group keeps its sign (`key bit = 1`) or
    /// is negated (`key bit = 0`, the paper's "two's complement" branch).
    pub fn keeps_sign(&self, t: usize) -> bool {
        (self.bits >> (t as u32 % KEY_BITS)) & 1 == 1
    }

    /// The multiplicative mask (+1 or −1) applied to the weight at position `t`.
    pub fn mask(&self, t: usize) -> i32 {
        if self.keeps_sign(t) {
            1
        } else {
            -1
        }
    }
}

impl fmt::Debug for SecretKey {
    /// Redacted: key bits must not leak into logs, panics, or `{:?}` dumps.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SecretKey(..)")
    }
}

/// A key-schedule epoch: one generation of per-layer keys and signatures.
///
/// Epochs are totally ordered and advance by one at each completed key roll.
/// During a roll the verifier accepts `{current, previous}` so in-flight
/// requests pinned to the old epoch stay verifiable (see `docs/KEYING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct KeyEpoch(u32);

impl KeyEpoch {
    /// The first epoch, active from construction until the first roll.
    pub const ZERO: KeyEpoch = KeyEpoch(0);

    /// Creates an epoch from its index.
    pub fn new(index: u32) -> Self {
        KeyEpoch(index)
    }

    /// The epoch's index (0-based generation counter).
    pub fn index(self) -> u32 {
        self.0
    }

    /// The epoch after this one.
    ///
    /// # Panics
    ///
    /// Panics on `u32` overflow — four billion rolls means a driver bug.
    pub fn next(self) -> Self {
        KeyEpoch(self.0.checked_add(1).expect("KeyEpoch overflow"))
    }
}

impl fmt::Display for KeyEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// The root secret behind a [`KeySchedule`].
///
/// 32 bytes of key material, expanded from the config's `key_seed` (or
/// supplied directly). The raw bytes never leave this type: `Debug` is
/// redacted and the buffer is wiped on drop (best-effort — a safe-code
/// `fill(0)` followed by a `black_box` barrier; the workspace forbids
/// `unsafe`, so a volatile write is not available).
#[derive(Clone, PartialEq, Eq)]
pub struct MasterSecret {
    bytes: [u8; 32],
}

/// Domain-separation tag for expanding a `u64` seed into a [`MasterSecret`].
const MASTER_EXPAND_TAG: &[u8] = b"radar.master-secret.v1";
/// Domain-separation tag for the per-`(layer, epoch)` key derivation PRF.
const LAYER_KEY_TAG: &[u8] = b"radar.layer-key.v1";

impl MasterSecret {
    /// Wraps 32 bytes of externally supplied key material.
    pub fn new(bytes: [u8; 32]) -> Self {
        MasterSecret { bytes }
    }

    /// Expands a 64-bit seed into a full-width master secret via
    /// `SHA-256(tag || seed)`.
    ///
    /// The seed is the existing `RadarConfig::key_seed`, so configs stay
    /// `Copy + Eq + Hash` and campaign results stay reproducible per seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(MASTER_EXPAND_TAG);
        hasher.update(&seed.to_le_bytes());
        MasterSecret {
            bytes: hasher.finalize(),
        }
    }

    /// The raw key material — private to the key schedule.
    fn bytes(&self) -> &[u8; 32] {
        &self.bytes
    }
}

impl fmt::Debug for MasterSecret {
    /// Redacted: the master secret must never appear in logs or panics.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MasterSecret(..)")
    }
}

impl Drop for MasterSecret {
    fn drop(&mut self) {
        self.bytes.fill(0);
        // Keep the wipe observable so the optimizer cannot elide it.
        std::hint::black_box(&self.bytes);
    }
}

/// Derives the per-layer, per-epoch [`SecretKey`]s from a [`MasterSecret`].
///
/// Derivation follows the HMAC-PRF shape of the `tofn` `rng_seed` exemplar:
///
/// ```text
/// mac  = HMAC-SHA256(master, tag || layer_le64 || epoch_le32)
/// key  = SecretKey::random(ChaCha20Rng::from_seed(mac))
/// ```
///
/// Every `(layer, epoch)` cell is an independent PRF output, so leaking one
/// layer's key (or one whole epoch) says nothing about any other cell, and
/// advancing the epoch re-keys every layer at once.
///
/// # Example
///
/// ```
/// use radar_core::{KeyEpoch, KeySchedule};
///
/// let schedule = KeySchedule::from_seed(0xAD42);
/// let now = schedule.layer_key(0, KeyEpoch::ZERO);
/// let rolled = schedule.layer_key(0, KeyEpoch::ZERO.next());
/// assert_eq!(now, schedule.layer_key(0, KeyEpoch::ZERO)); // deterministic
/// assert_ne!(now, rolled); // epochs re-key
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySchedule {
    master: MasterSecret,
}

impl KeySchedule {
    /// Builds a schedule over an explicit master secret.
    pub fn new(master: MasterSecret) -> Self {
        KeySchedule { master }
    }

    /// Builds a schedule whose master secret is expanded from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        KeySchedule {
            master: MasterSecret::from_seed(seed),
        }
    }

    /// The key for one `(layer, epoch)` cell.
    pub fn layer_key(&self, layer: usize, epoch: KeyEpoch) -> SecretKey {
        let mut prf = HmacSha256::new(self.master.bytes());
        prf.update(LAYER_KEY_TAG);
        prf.update(&(layer as u64).to_le_bytes());
        prf.update(&epoch.index().to_le_bytes());
        let mut rng = ChaCha20Rng::from_seed(prf.finalize());
        SecretKey::random(&mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mask_follows_key_bits() {
        let key = SecretKey::new(0b0000_0000_0000_0101);
        assert_eq!(key.mask(0), 1);
        assert_eq!(key.mask(1), -1);
        assert_eq!(key.mask(2), 1);
        assert_eq!(key.mask(3), -1);
    }

    #[test]
    fn key_repeats_every_sixteen_positions() {
        let key = SecretKey::new(0xBEEF);
        for t in 0..16 {
            assert_eq!(key.mask(t), key.mask(t + 16));
            assert_eq!(key.mask(t), key.mask(t + 32));
        }
    }

    #[test]
    fn unmasked_ablation_key_never_negates() {
        let key = SecretKey::insecure_unmasked();
        assert!((0..64).all(|t| key.mask(t) == 1));
    }

    #[test]
    fn random_keys_differ_across_draws() {
        let mut rng = StdRng::seed_from_u64(0);
        let keys: std::collections::HashSet<u16> = (0..32)
            .map(|_| SecretKey::random(&mut rng).expose_bits())
            .collect();
        assert!(
            keys.len() > 16,
            "random keys should rarely collide, got {} unique",
            keys.len()
        );
    }

    #[test]
    fn debug_is_redacted() {
        let key = SecretKey::new(0xBEEF);
        assert_eq!(format!("{key:?}"), "SecretKey(..)");
        let master = MasterSecret::from_seed(7);
        assert_eq!(format!("{master:?}"), "MasterSecret(..)");
        let schedule = KeySchedule::new(master);
        assert!(!format!("{schedule:?}").contains("bytes"));
    }

    #[test]
    fn epoch_ordering_and_next() {
        assert_eq!(KeyEpoch::ZERO.index(), 0);
        assert_eq!(KeyEpoch::default(), KeyEpoch::ZERO);
        let one = KeyEpoch::ZERO.next();
        assert_eq!(one, KeyEpoch::new(1));
        assert!(one > KeyEpoch::ZERO);
        assert_eq!(format!("{one}"), "epoch 1");
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = KeySchedule::from_seed(0xAD42);
        let b = KeySchedule::from_seed(0xAD42);
        for layer in 0..8 {
            for epoch in 0..4 {
                let epoch = KeyEpoch::new(epoch);
                assert_eq!(a.layer_key(layer, epoch), b.layer_key(layer, epoch));
            }
        }
    }

    #[test]
    fn distinct_cells_give_distinct_keys() {
        // 16-bit keys collide at random with p = 2^-16 per pair; a small grid
        // of cells should be (and, for this fixed seed, is) collision-free.
        let schedule = KeySchedule::from_seed(0xAD42);
        let mut seen = std::collections::HashMap::new();
        for layer in 0..6 {
            for epoch in 0..4 {
                let key = schedule.layer_key(layer, KeyEpoch::new(epoch));
                if let Some(prev) = seen.insert(key.expose_bits(), (layer, epoch)) {
                    panic!("cells {prev:?} and {:?} collide", (layer, epoch));
                }
            }
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_schedules() {
        let a = KeySchedule::from_seed(1);
        let b = KeySchedule::from_seed(2);
        let differs = (0..16)
            .any(|layer| a.layer_key(layer, KeyEpoch::ZERO) != b.layer_key(layer, KeyEpoch::ZERO));
        assert!(differs);
    }

    #[test]
    fn master_secret_from_seed_matches_manual_expansion() {
        // The expansion is part of the persisted-signature contract: pin it.
        let mut hasher = Sha256::new();
        hasher.update(b"radar.master-secret.v1");
        hasher.update(&42u64.to_le_bytes());
        assert_eq!(
            MasterSecret::from_seed(42),
            MasterSecret::new(hasher.finalize())
        );
    }
}
