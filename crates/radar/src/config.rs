use crate::grouping::Grouping;
use crate::signature::SignatureBits;

/// Configuration of the RADAR scheme.
///
/// # Example
///
/// ```
/// use radar_core::RadarConfig;
///
/// let cfg = RadarConfig::paper_default(512);
/// assert_eq!(cfg.group_size, 512);
/// assert!(cfg.masking);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RadarConfig {
    /// Group size `G` (number of weights whose checksum forms one signature).
    pub group_size: usize,
    /// Grouping strategy: contiguous or interleaved.
    pub grouping: Grouping,
    /// Signature width (2-bit default, 3-bit to also cover MSB-1).
    pub signature_bits: SignatureBits,
    /// Whether the secret-key masking of Algorithm 1 is applied. Disabling it is the
    /// ablation discussed in Section IV.B-1 (a plain addition checksum).
    pub masking: bool,
    /// Master seed from which the per-layer secret keys (and nothing else) are derived.
    pub key_seed: u64,
}

impl RadarConfig {
    /// The paper's default configuration for a given group size: interleaving on,
    /// masking on, 2-bit signature.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn paper_default(group_size: usize) -> Self {
        assert!(group_size > 0, "group size must be non-zero");
        RadarConfig {
            group_size,
            grouping: Grouping::interleaved(),
            signature_bits: SignatureBits::Two,
            masking: true,
            key_seed: 0xAD42,
        }
    }

    /// The "without interleave" ablation used throughout the paper's figures.
    pub fn without_interleave(group_size: usize) -> Self {
        RadarConfig {
            grouping: Grouping::Contiguous,
            ..Self::paper_default(group_size)
        }
    }

    /// Returns a copy with masking disabled (plain addition checksum).
    pub fn with_masking(mut self, masking: bool) -> Self {
        self.masking = masking;
        self
    }

    /// Returns a copy using the 3-bit signature of Section VIII.
    pub fn with_three_bit_signature(mut self) -> Self {
        self.signature_bits = SignatureBits::Three;
        self
    }
}
