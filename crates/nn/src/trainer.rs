use radar_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::layer::Layer;
use crate::loss::SoftmaxCrossEntropy;
use crate::metrics::{accuracy, Accuracy};
use crate::optim::Optimizer;

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Final training-set accuracy.
    pub train_accuracy: Accuracy,
}

/// A minimal mini-batch training loop for image classifiers.
///
/// # Example
///
/// ```no_run
/// use radar_nn::{resnet20, ResNetConfig, Sgd, Trainer};
/// use radar_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut model = resnet20(&ResNetConfig::tiny(10));
/// let images = Tensor::zeros(&[64, 3, 16, 16]);
/// let labels = vec![0usize; 64];
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut trainer = Trainer::new(Sgd::new(0.05, 0.9, 1e-4), 16);
/// let report = trainer.fit(&mut model, &images, &labels, 2, &mut rng);
/// println!("final loss {:?}", report.epoch_losses.last());
/// ```
#[derive(Debug)]
pub struct Trainer<O: Optimizer> {
    optimizer: O,
    batch_size: usize,
    loss: SoftmaxCrossEntropy,
}

impl<O: Optimizer> Trainer<O> {
    /// Creates a trainer with the given optimizer and mini-batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(optimizer: O, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch_size must be non-zero");
        Trainer {
            optimizer,
            batch_size,
            loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// Trains `model` on `(images, labels)` for `epochs` epochs, shuffling every epoch.
    ///
    /// # Panics
    ///
    /// Panics if the label count does not match the image count.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        model: &mut dyn Layer,
        images: &Tensor,
        labels: &[usize],
        epochs: usize,
        rng: &mut R,
    ) -> TrainReport {
        let n = images.dims()[0];
        assert_eq!(
            labels.len(),
            n,
            "label count {} != image count {n}",
            labels.len()
        );
        let sample = images.numel() / n.max(1);
        let mut order: Vec<usize> = (0..n).collect();
        let mut report = TrainReport::default();

        for _ in 0..epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.batch_size) {
                let mut dims = images.dims().to_vec();
                dims[0] = chunk.len();
                let mut batch_data = Vec::with_capacity(chunk.len() * sample);
                let mut batch_labels = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    batch_data.extend_from_slice(&images.data()[i * sample..(i + 1) * sample]);
                    batch_labels.push(labels[i]);
                }
                let batch = Tensor::from_vec(batch_data, &dims).expect("batch shape is consistent");

                model.zero_grad();
                let logits = model.forward(&batch, true);
                let (loss_value, grad) = self.loss.forward_backward(&logits, &batch_labels);
                model.backward(&grad);
                self.optimizer.step(model);

                epoch_loss += loss_value;
                batches += 1;
            }
            report.epoch_losses.push(epoch_loss / batches.max(1) as f32);
        }
        report.train_accuracy = accuracy(model, images, labels, self.batch_size);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu, Sequential, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A linearly separable 2-class problem in 4 dimensions.
    fn toy_data(rng: &mut StdRng, n: usize) -> (Tensor, Vec<usize>) {
        let mut data = Vec::with_capacity(n * 4);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { 1.5 } else { -1.5 };
            for _ in 0..4 {
                data.push(center + rng.gen_range(-0.5..0.5));
            }
            labels.push(class);
        }
        (Tensor::from_vec(data, &[n, 4]).unwrap(), labels)
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let (images, labels) = toy_data(&mut rng, 64);
        let mut model = Sequential::new();
        model.push(Linear::new(&mut rng, 4, 8));
        model.push(Relu::new());
        model.push(Linear::new(&mut rng, 8, 2));

        let mut trainer = Trainer::new(Sgd::new(0.1, 0.9, 0.0), 16);
        let report = trainer.fit(&mut model, &images, &labels, 20, &mut rng);
        assert!(
            report.train_accuracy.ratio() > 0.95,
            "accuracy {}",
            report.train_accuracy
        );
        assert!(report.epoch_losses.last().unwrap() < &0.2);
        assert!(report.epoch_losses.first().unwrap() > report.epoch_losses.last().unwrap());
    }

    #[test]
    fn losses_recorded_per_epoch() {
        let mut rng = StdRng::seed_from_u64(1);
        let (images, labels) = toy_data(&mut rng, 16);
        let mut model = Sequential::new();
        model.push(Linear::new(&mut rng, 4, 2));
        let mut trainer = Trainer::new(Sgd::new(0.05, 0.0, 0.0), 8);
        let report = trainer.fit(&mut model, &images, &labels, 3, &mut rng);
        assert_eq!(report.epoch_losses.len(), 3);
    }

    #[test]
    #[should_panic(expected = "batch_size must be non-zero")]
    fn zero_batch_size_panics() {
        let _ = Trainer::new(Sgd::new(0.1, 0.0, 0.0), 0);
    }
}
