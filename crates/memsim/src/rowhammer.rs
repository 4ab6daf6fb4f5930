use radar_attack::AttackProfile;
use radar_quant::QuantizedModel;
use rand::Rng;

use crate::dram::WeightDram;

/// Outcome of mounting one attack profile through the DRAM model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MountReport {
    /// Number of bit flips that landed (the aggressor pattern succeeded).
    pub flips_landed: usize,
    /// Number of bit flips that failed to land (cell not susceptible this time).
    pub flips_missed: usize,
    /// Distinct DRAM rows the attacker had to hammer.
    pub rows_hammered: usize,
}

impl MountReport {
    /// Total flips the mount attempted (landed plus missed).
    pub fn flips_attempted(&self) -> usize {
        self.flips_landed + self.flips_missed
    }

    /// Folds another mount's counts into this one, so repeated timeline mounts
    /// aggregate instead of each strike's report being dropped.
    ///
    /// All three counters are summed. `rows_hammered` is deduplicated only *within*
    /// each mount (the report does not carry the row set), so the merged value is an
    /// upper bound when two strikes hammer overlapping rows.
    pub fn merge(&mut self, other: &MountReport) {
        self.flips_landed += other.flips_landed;
        self.flips_missed += other.flips_missed;
        self.rows_hammered += other.rows_hammered;
    }

    /// Consuming form of [`merge`](Self::merge) for fold-style accumulation over a
    /// timeline of mounts; `#[must_use]` because dropping the return value silently
    /// discards the accumulated counts.
    #[must_use]
    pub fn merged(mut self, other: &MountReport) -> MountReport {
        self.merge(other);
        self
    }
}

/// A rowhammer-style fault injector that mounts a PBFA "vulnerable bit profile" onto
/// the weight bytes stored in the DRAM model at run time (step ② of the paper's threat
/// model).
///
/// Real rowhammer does not flip every targeted cell on every attempt; `success_rate`
/// models that (1.0 reproduces the paper's assumption that the attacker keeps hammering
/// until the profile is fully mounted).
///
/// # Example
///
/// ```
/// use radar_memsim::RowhammerInjector;
///
/// let injector = RowhammerInjector::new(1.0);
/// assert_eq!(injector.success_rate(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowhammerInjector {
    success_rate: f64,
}

impl RowhammerInjector {
    /// Creates an injector with the given per-flip success probability in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `success_rate` is not within `[0, 1]`.
    pub fn new(success_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&success_rate),
            "success rate must be within [0, 1]"
        );
        RowhammerInjector { success_rate }
    }

    /// The per-flip success probability.
    pub fn success_rate(&self) -> f64 {
        self.success_rate
    }

    /// Mounts `profile` onto the stored weight image.
    ///
    /// # Panics
    ///
    /// Panics if a flip names a `(layer, weight)` outside the stored image (see
    /// [`WeightDram::offset_of`]).
    pub fn mount<R: Rng + ?Sized>(
        &self,
        dram: &mut WeightDram,
        profile: &AttackProfile,
        rng: &mut R,
    ) -> MountReport {
        let mut report = MountReport::default();
        let mut rows = std::collections::HashSet::new();
        for flip in &profile.flips {
            let offset = dram.offset_of(flip.layer, flip.weight);
            let addr = dram.address_of(offset);
            rows.insert((addr.bank, addr.row));
            if self.success_rate >= 1.0 || rng.gen_bool(self.success_rate) {
                dram.flip_bit(offset, flip.bit);
                report.flips_landed += 1;
            } else {
                report.flips_missed += 1;
            }
        }
        report.rows_hammered = rows.len();
        report
    }

    /// Convenience for the full run-time pipeline: mount the profile in DRAM, then
    /// fetch the (now corrupted) weights into the model, as an inference pass would.
    pub fn mount_and_fetch<R: Rng + ?Sized>(
        &self,
        dram: &mut WeightDram,
        model: &mut QuantizedModel,
        profile: &AttackProfile,
        rng: &mut R,
    ) -> MountReport {
        let report = self.mount(dram, profile, rng);
        dram.fetch_into(model);
        report
    }
}

impl Default for RowhammerInjector {
    fn default() -> Self {
        RowhammerInjector::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramGeometry;
    use radar_attack::{BitFlip, FlipDirection};
    use radar_nn::{resnet20, ResNetConfig};
    use radar_quant::MSB;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (QuantizedModel, WeightDram, AttackProfile) {
        let model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))));
        let dram = WeightDram::load(&model, DramGeometry::default());
        let profile = AttackProfile {
            flips: vec![
                BitFlip {
                    layer: 0,
                    weight: 3,
                    bit: MSB,
                    direction: FlipDirection::ZeroToOne,
                    weight_before: 0,
                },
                BitFlip {
                    layer: 5,
                    weight: 11,
                    bit: MSB,
                    direction: FlipDirection::ZeroToOne,
                    weight_before: 0,
                },
            ],
            loss_before: 0.0,
            loss_after: 0.0,
        };
        (model, dram, profile)
    }

    #[test]
    fn full_success_rate_lands_every_flip() {
        let (mut model, mut dram, profile) = setup();
        let before = model.snapshot();
        let mut rng = StdRng::seed_from_u64(0);
        let report =
            RowhammerInjector::default().mount_and_fetch(&mut dram, &mut model, &profile, &mut rng);
        assert_eq!(report.flips_landed, 2);
        assert_eq!(report.flips_missed, 0);
        assert!(report.rows_hammered >= 1);
        assert_ne!(model.snapshot(), before);
    }

    #[test]
    fn zero_success_rate_lands_nothing() {
        let (mut model, mut dram, profile) = setup();
        let before = model.snapshot();
        let mut rng = StdRng::seed_from_u64(0);
        let report =
            RowhammerInjector::new(0.0).mount_and_fetch(&mut dram, &mut model, &profile, &mut rng);
        assert_eq!(report.flips_landed, 0);
        assert_eq!(report.flips_missed, 2);
        assert_eq!(model.snapshot(), before);
    }

    #[test]
    fn mounted_flips_match_direct_model_flips() {
        let (mut model, mut dram, profile) = setup();
        let mut reference = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))));
        profile.apply(&mut reference);
        let mut rng = StdRng::seed_from_u64(0);
        RowhammerInjector::default().mount_and_fetch(&mut dram, &mut model, &profile, &mut rng);
        assert_eq!(model.snapshot(), reference.snapshot());
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_success_rate_panics() {
        RowhammerInjector::new(1.5);
    }

    #[test]
    fn merge_sums_all_counters() {
        let mut a = MountReport {
            flips_landed: 3,
            flips_missed: 1,
            rows_hammered: 2,
        };
        let b = MountReport {
            flips_landed: 2,
            flips_missed: 4,
            rows_hammered: 5,
        };
        a.merge(&b);
        assert_eq!(a.flips_landed, 5);
        assert_eq!(a.flips_missed, 5);
        assert_eq!(a.rows_hammered, 7);
        assert_eq!(a.flips_attempted(), 10);
        // Merging the empty report is the identity.
        let before = a.clone();
        a.merge(&MountReport::default());
        assert_eq!(a, before);
        // The consuming helper agrees with the in-place form.
        let folded = MountReport::default().merged(&before).merged(&b);
        assert_eq!(folded, before.clone().merged(&b));
    }

    #[test]
    fn repeated_mounts_aggregate_via_merge() {
        let (mut model, mut dram, profile) = setup();
        let injector = RowhammerInjector::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = MountReport::default();
        for _ in 0..3 {
            total.merge(&injector.mount_and_fetch(&mut dram, &mut model, &profile, &mut rng));
        }
        // Every strike lands both flips at success rate 1.0 (re-flipping toggles the
        // same bits back and forth; the counters still accumulate per attempt).
        assert_eq!(total.flips_landed, 6);
        assert_eq!(total.flips_missed, 0);
        assert!(total.rows_hammered >= 3);
    }
}
