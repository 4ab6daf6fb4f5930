use radar_nn::Accuracy;
use radar_quant::QuantizedModel;
use radar_tensor::Tensor;

use crate::config::RadarConfig;
use crate::protection::{DetectionReport, RadarProtection, RecoveryReport};

/// Cumulative run-time statistics of a [`ProtectedModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtectionStats {
    /// Number of verification passes performed.
    pub verifications: usize,
    /// Number of verification passes that flagged at least one group.
    pub attacks_detected: usize,
    /// Total number of groups zeroed by recovery.
    pub groups_zeroed: usize,
    /// Total number of weights zeroed by recovery.
    pub weights_zeroed: usize,
}

/// A quantized model with RADAR embedded in its inference path.
///
/// Every call to [`forward`](Self::forward) first verifies the weights that inference is
/// about to consume and zeroes out any flagged group before computing, mirroring the
/// run-time flow of Sections IV–V on an in-memory model. (The serving engine embeds
/// the check in the weight fetch itself, one fetch-and-verify pass per layer.)
///
/// # Example
///
/// ```
/// use radar_core::{ProtectedModel, RadarConfig};
/// use radar_nn::{resnet20, ResNetConfig};
/// use radar_quant::{QuantizedModel, MSB};
/// use radar_tensor::Tensor;
///
/// let qmodel = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(10))));
/// let mut protected = ProtectedModel::new(qmodel, RadarConfig::paper_default(32));
///
/// protected.model_mut().flip_bit(0, 0, MSB); // run-time corruption
/// let _logits = protected.forward(&Tensor::zeros(&[1, 3, 8, 8]));
/// assert_eq!(protected.stats().attacks_detected, 1);
/// ```
#[derive(Debug)]
pub struct ProtectedModel {
    model: QuantizedModel,
    protection: RadarProtection,
    stats: ProtectionStats,
}

impl ProtectedModel {
    /// Signs `model` under `config` and wraps it.
    pub fn new(model: QuantizedModel, config: RadarConfig) -> Self {
        let protection = RadarProtection::new(&model, config);
        ProtectedModel {
            model,
            protection,
            stats: ProtectionStats::default(),
        }
    }

    /// The RADAR protection state (golden signatures, layouts, keys).
    pub fn protection(&self) -> &RadarProtection {
        &self.protection
    }

    /// The protected quantized model.
    pub fn model(&self) -> &QuantizedModel {
        &self.model
    }

    /// Mutable access to the protected model — this is the surface a run-time attacker
    /// (or the DRAM fault injector) corrupts.
    pub fn model_mut(&mut self) -> &mut QuantizedModel {
        &mut self.model
    }

    /// Cumulative verification/recovery statistics.
    pub fn stats(&self) -> ProtectionStats {
        self.stats
    }

    /// Runs one verification + recovery pass without inference:
    /// [`RadarProtection::detect_and_recover`] over the whole model, counted in
    /// [`stats`](Self::stats).
    pub fn verify_and_recover(&mut self) -> (DetectionReport, RecoveryReport) {
        let (report, recovery) = self.protection.detect_and_recover(&mut self.model);
        self.stats.verifications += 1;
        if report.attack_detected() {
            self.stats.attacks_detected += 1;
        }
        self.stats.groups_zeroed += recovery.groups_zeroed;
        self.stats.weights_zeroed += recovery.weights_zeroed;
        (report, recovery)
    }

    /// Verifies (and recovers if necessary) the weights, then runs inference.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.verify_and_recover();
        self.model.forward(input)
    }

    /// Verifies/recovers once, then evaluates top-1 accuracy.
    ///
    /// # Panics
    ///
    /// Panics if the label count does not match the image count or `batch_size` is zero.
    pub fn accuracy(&mut self, images: &Tensor, labels: &[usize], batch_size: usize) -> Accuracy {
        self.verify_and_recover();
        self.model.accuracy(images, labels, batch_size)
    }

    /// Unwraps the protected model.
    pub fn into_inner(self) -> QuantizedModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_nn::{resnet20, ResNetConfig};
    use radar_quant::MSB;

    fn protected() -> ProtectedModel {
        let qmodel = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))));
        ProtectedModel::new(qmodel, RadarConfig::paper_default(32))
    }

    #[test]
    fn clean_inference_reports_no_attack() {
        let mut p = protected();
        let _ = p.forward(&Tensor::zeros(&[1, 3, 8, 8]));
        assert_eq!(p.stats().verifications, 1);
        assert_eq!(p.stats().attacks_detected, 0);
        assert_eq!(p.stats().weights_zeroed, 0);
    }

    #[test]
    fn corruption_before_forward_is_detected_and_recovered() {
        let mut p = protected();
        p.model_mut().flip_bit(1, 3, MSB);
        let _ = p.forward(&Tensor::zeros(&[1, 3, 8, 8]));
        assert_eq!(p.stats().attacks_detected, 1);
        assert!(p.stats().groups_zeroed >= 1);
        assert_eq!(p.model().layer(1).weights().value(3), 0);
    }

    #[test]
    fn repeated_verifications_accumulate_stats() {
        let mut p = protected();
        p.verify_and_recover();
        p.model_mut().flip_bit(0, 0, MSB);
        p.verify_and_recover();
        assert_eq!(p.stats().verifications, 2);
        assert_eq!(p.stats().attacks_detected, 1);
    }

    #[test]
    fn one_pass_recovers_corruption_in_every_layer() {
        let mut p = protected();
        p.model_mut().flip_bit(0, 0, MSB);
        p.model_mut().flip_bit(2, 5, MSB);
        let (report, recovery) = p.verify_and_recover();
        assert_eq!(report.num_flagged(), 2);
        assert!(report.flagged.iter().any(|f| f.layer == 0));
        assert!(report.flagged.iter().any(|f| f.layer == 2));
        assert_eq!(recovery.groups_zeroed, 2);
        assert_eq!(p.stats().groups_zeroed, 2);
        assert_eq!(p.stats().weights_zeroed, recovery.weights_zeroed);
        assert_eq!(p.model().layer(0).weights().value(0), 0);
        assert_eq!(p.model().layer(2).weights().value(5), 0);
        assert!(!p.verify_and_recover().0.attack_detected());
    }

    #[test]
    fn accuracy_runs_after_recovery() {
        let mut p = protected();
        p.model_mut().flip_bit(0, 0, MSB);
        let acc = p.accuracy(&Tensor::zeros(&[4, 3, 8, 8]), &[0, 1, 2, 3], 2);
        assert_eq!(acc.total, 4);
        assert_eq!(p.stats().attacks_detected, 1);
    }
}
