//! RADAR: Run-time Adversarial Weight Attack Detection and Accuracy Recovery.
//!
//! This crate is the paper's primary contribution. It protects the 8-bit quantized
//! weights of a DNN against the Progressive Bit-Flip Attack by:
//!
//! 1. **Grouping** each layer's weights into groups of `G`, optionally *interleaving*
//!    them so group members are originally far apart ([`GroupLayout`], [`Grouping`]).
//! 2. **Masking** each group with a per-layer 16-bit secret key that decides whether a
//!    weight enters the checksum directly or negated ([`SecretKey`]). Keys are not a
//!    one-time draw: a [`KeySchedule`] derives an independent key per
//!    `(layer, [`KeyEpoch`])` cell from a [`MasterSecret`] via HMAC-SHA256, and the
//!    protection can roll to a fresh epoch under live traffic
//!    ([`RadarProtection::begin_rotation`]) with a `{current, previous}` acceptance
//!    window so in-flight verification is never stranded.
//! 3. **Signing** each group with a 2-bit (or 3-bit) signature obtained by binarizing
//!    the masked addition checksum ([`SignatureBits`], [`group_signature`]); the golden
//!    signatures live in secure on-chip memory ([`SignatureStore`]).
//! 4. **Detecting** at run time by recomputing and comparing signatures
//!    ([`RadarProtection::detect`]) and **recovering** by zeroing every weight of a
//!    flagged group ([`RadarProtection::recover`]).
//!
//! Every signature is computed by one storage-order sweep over the layer,
//! [`GroupLayout::masked_sums`], which is arithmetic on the layout and the key alone:
//! an interleaved row holds one slot of every group under one key bit, so it adds into
//! the group accumulators as two contiguous runs; a contiguous group is a dot product
//! with the key's 16-entry ±1 pattern. There is no per-weight table and no gather.
//! Signing, both per-layer verify kernels and key rotation run that sweep:
//! [`RadarProtection::verify_layer_values_with_scratch`] verifies in-memory values
//! (the scrubber, the recovery re-check, the key roll's pre-sign check) and
//! [`RadarProtection::fetch_verify_layer_at_epoch_with_scratch`] copies a layer's
//! DRAM bytes out and verifies the copy, at a pinned key epoch (the serving engine's
//! snapshot build). [`RadarProtection::detect`] loops the same check over a whole
//! model.
//!
//! [`ProtectedModel`] embeds the whole flow into the inference path.
//!
//! # Example
//!
//! ```
//! use radar_core::{RadarConfig, RadarProtection};
//! use radar_nn::{resnet20, ResNetConfig};
//! use radar_quant::{QuantizedModel, MSB};
//!
//! # fn main() {
//! let mut model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(10))));
//! let mut radar = RadarProtection::new(&model, RadarConfig::paper_default(64));
//!
//! // Rowhammer flips the MSB of a stored weight at run time…
//! model.flip_bit(0, 5, MSB);
//!
//! // …RADAR flags the group and zeroes it out.
//! let (report, recovery) = radar.detect_and_recover(&mut model);
//! assert!(report.attack_detected());
//! assert!(recovery.weights_zeroed > 0);
//! # }
//! ```

mod config;
mod grouping;
mod key;
mod protected;
mod protection;
mod signature;
mod store;

pub use config::RadarConfig;
pub use grouping::{GroupLayout, Grouping, VERIFY_SWEEPS};
pub use key::{KeyEpoch, KeySchedule, MasterSecret, SecretKey, KEY_BITS};
pub use protected::{ProtectedModel, ProtectionStats};
pub use protection::{
    DetectionReport, FlaggedGroup, LayerProtection, RadarProtection, RecoveryReport,
};
pub use signature::{
    binarize, gather_signatures, group_signature, masked_sum, SignatureBits, MAX_GROUP_LEN,
};
pub use store::SignatureStore;
