use radar_nn::{
    accuracy_with, forward_quantized_with, Accuracy, Layer, QuantView, SoftmaxCrossEntropy,
};
use radar_tensor::Tensor;

use crate::qtensor::QuantizedTensor;

/// One quantized weight tensor of a model, identified by its parameter path.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayer {
    name: String,
    weights: QuantizedTensor,
}

impl QuantizedLayer {
    /// The parameter path of this layer's weight tensor (e.g. `"sequential3/.../weight"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The quantized weights.
    pub fn weights(&self) -> &QuantizedTensor {
        &self.weights
    }

    /// Number of weights in this layer.
    pub fn len(&self) -> usize {
        self.weights.numel()
    }

    /// Whether the layer has no weights (never true for real models).
    pub fn is_empty(&self) -> bool {
        self.weights.numel() == 0
    }
}

/// A snapshot of all quantized weight values of a model, used to restore the clean
/// model between attack rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightSnapshot {
    values: Vec<Vec<i8>>,
}

/// A neural network whose convolution and linear weights are stored as 8-bit
/// quantized tensors, exactly as the RADAR threat model assumes they live in DRAM.
///
/// Inference ([`forward`](Self::forward), [`accuracy`](Self::accuracy),
/// [`loss`](Self::loss)) executes **quantized-native**: the stored `i8` values feed
/// the true integer GEMM directly — i8×i8 products accumulated in `i32`, scales
/// applied once in the requantization epilogue (see
/// [`RequantParams`](crate::RequantParams)) — so no float weight tensor is ever
/// materialized and attacker-modified values take effect immediately.
///
/// The float model is kept for the gradient/training helpers PBFA needs
/// ([`weight_gradients`](Self::weight_gradients)) and as the equivalence oracle
/// ([`forward_float`](Self::forward_float)): those paths dequantize the (possibly
/// attacker-modified) values into the float parameters via [`sync`](Self::sync)
/// first, so gradients also always reflect the current DRAM contents.
///
/// # Example
///
/// ```
/// use radar_nn::{resnet20, ResNetConfig};
/// use radar_quant::QuantizedModel;
/// use radar_tensor::Tensor;
///
/// let model = resnet20(&ResNetConfig::tiny(10));
/// let mut qmodel = QuantizedModel::new(Box::new(model));
/// assert!(qmodel.num_layers() > 20);
/// let logits = qmodel.forward(&Tensor::zeros(&[1, 3, 8, 8]));
/// assert_eq!(logits.dims(), &[1, 10]);
/// ```
pub struct QuantizedModel {
    model: Box<dyn Layer>,
    layers: Vec<QuantizedLayer>,
    dirty: bool,
    loss: SoftmaxCrossEntropy,
}

impl std::fmt::Debug for QuantizedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedModel")
            .field("layers", &self.layers.len())
            .field("total_weights", &self.total_weights())
            .finish()
    }
}

impl QuantizedModel {
    /// Quantizes every weight tensor of `model` (parameters named `…/weight` with rank
    /// at least 2, i.e. convolution and linear weights; biases and batch-norm
    /// parameters stay in floating point, as in the paper).
    pub fn new(mut model: Box<dyn Layer>) -> Self {
        let mut layers = Vec::new();
        model.visit_params("", &mut |name, p| {
            if name.ends_with("weight") && p.value.shape().rank() >= 2 {
                layers.push(QuantizedLayer {
                    name: name.to_owned(),
                    weights: QuantizedTensor::quantize(&p.value),
                });
            }
        });
        let mut qm = QuantizedModel {
            model,
            layers,
            dirty: true,
            loss: SoftmaxCrossEntropy::new(),
        };
        qm.assert_layer_alignment();
        qm.sync();
        qm
    }

    /// Hard-verifies that walking the model's parameters matches every quantized
    /// layer *in order*: [`sync`](Self::sync)'s cursor-based name matching and the
    /// quantized forward's view streaming both silently desynchronize if a model
    /// reorders parameters between quantization and execution, so a mismatch must
    /// fail loudly at construction instead.
    ///
    /// # Panics
    ///
    /// Panics if any weight-shaped parameter does not line up with the quantized
    /// layer list.
    fn assert_layer_alignment(&mut self) {
        let layers = &self.layers;
        let mut cursor = 0usize;
        let mut misaligned: Vec<String> = Vec::new();
        self.model.visit_params("", &mut |name, p| {
            if name.ends_with("weight") && p.value.shape().rank() >= 2 {
                if cursor < layers.len() && layers[cursor].name == name {
                    cursor += 1;
                } else {
                    misaligned.push(name.to_owned());
                }
            }
        });
        assert!(
            misaligned.is_empty() && cursor == layers.len(),
            "quantized layers desynchronized from the model's parameter order: \
             matched {cursor}/{} layers, misaligned weight params {misaligned:?}",
            layers.len()
        );
    }

    /// Number of quantized weight tensors.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of quantized weights across all layers.
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(QuantizedLayer::len).sum()
    }

    /// The quantized layers in visit order.
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }

    /// The quantized layer at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn layer(&self, index: usize) -> &QuantizedLayer {
        &self.layers[index]
    }

    /// The raw `i8` weight values of layer `index`, in storage order — the view the
    /// streaming fetch-path verification sweeps over.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn layer_values(&self, index: usize) -> &[i8] {
        self.layers[index].weights.values()
    }

    /// Mutable access to the quantized weights of layer `index`. Marks the model dirty
    /// so the next forward pass re-synchronizes the float weights.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn layer_weights_mut(&mut self, index: usize) -> &mut QuantizedTensor {
        self.dirty = true;
        &mut self.layers[index].weights
    }

    /// Flips one bit of one weight: `(layer, weight index, bit)`; returns the new `i8`
    /// value of that weight.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn flip_bit(&mut self, layer: usize, weight: usize, bit: u32) -> i8 {
        self.dirty = true;
        self.layers[layer].weights.flip_bit(weight, bit)
    }

    /// Captures the current quantized values of every layer.
    pub fn snapshot(&self) -> WeightSnapshot {
        WeightSnapshot {
            values: self
                .layers
                .iter()
                .map(|l| l.weights.values().to_vec())
                .collect(),
        }
    }

    /// Restores a snapshot taken from the same model.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot layer count or any layer size does not match.
    pub fn restore(&mut self, snapshot: &WeightSnapshot) {
        assert_eq!(
            snapshot.values.len(),
            self.layers.len(),
            "snapshot layer count mismatch"
        );
        for (layer, values) in self.layers.iter_mut().zip(snapshot.values.iter()) {
            assert_eq!(
                values.len(),
                layer.weights.numel(),
                "snapshot layer size mismatch"
            );
            layer.weights.values_mut().copy_from_slice(values);
        }
        self.dirty = true;
    }

    /// Writes the dequantized weights into the float model. Called automatically by
    /// the gradient/training helpers ([`weight_gradients`](Self::weight_gradients))
    /// and the [`forward_float`](Self::forward_float) oracle when needed; the
    /// quantized-native inference path never calls it.
    pub fn sync(&mut self) {
        if !self.dirty {
            return;
        }
        let layers = &self.layers;
        let mut cursor = 0usize;
        self.model.visit_params("", &mut |name, p| {
            if cursor < layers.len() && layers[cursor].name == name {
                p.value = layers[cursor].weights.dequantize();
                cursor += 1;
            }
        });
        debug_assert_eq!(
            cursor,
            layers.len(),
            "not all quantized layers were written back"
        );
        self.dirty = false;
    }

    /// Runs the model on `input` in evaluation mode, executing directly off the
    /// current quantized `i8` values (integer GEMM with `i32` accumulation and a
    /// requantization epilogue): no float weight tensor is materialized and no
    /// full-model synchronization happens.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let views: Vec<QuantView<'_>> = self
            .layers
            .iter()
            .map(|l| QuantView::new(l.weights.values(), l.weights.scale(), l.weights.dims()))
            .collect();
        forward_quantized_with(self.model.as_mut(), input, &views)
    }

    /// Runs the model on `input` in evaluation mode with the weight values of every
    /// layer supplied externally (e.g. a serving worker's fetch arena holding the
    /// bytes it just read and verified from DRAM), using this model's scales and
    /// shapes. The model's own stored values are ignored and left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not provide exactly one correctly-sized slice per
    /// quantized layer.
    pub fn forward_with_values(&mut self, values: &[Vec<i8>], input: &Tensor) -> Tensor {
        assert_eq!(
            values.len(),
            self.layers.len(),
            "expected weight values for {} layers, got {}",
            self.layers.len(),
            values.len()
        );
        let views: Vec<QuantView<'_>> = self
            .layers
            .iter()
            .zip(values.iter())
            .map(|(l, v)| QuantView::new(v, l.weights.scale(), l.weights.dims()))
            .collect();
        forward_quantized_with(self.model.as_mut(), input, &views)
    }

    /// The pre-quantized-native inference path, kept as the equivalence oracle (and
    /// for tests that need the float model's view of the weights): dequantizes every
    /// layer into the float shadow model via [`sync`](Self::sync), then runs the
    /// float forward. Not used anywhere on the eval/serve hot path.
    pub fn forward_float(&mut self, input: &Tensor) -> Tensor {
        self.sync();
        self.model.forward(input, false)
    }

    /// Mean cross-entropy loss of the current quantized weights on `(input, labels)`,
    /// evaluated over the quantized-native forward path (integer GEMM with quantized
    /// activations) — the loss an attacker probing the deployed model observes.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` does not match the batch size.
    pub fn loss(&mut self, input: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward(input);
        self.loss.loss(&logits, labels)
    }

    /// Mean cross-entropy loss evaluated over the [`forward_float`](Self::forward_float)
    /// oracle — the differentiable loss that [`weight_gradients`](Self::weight_gradients)
    /// is the exact gradient of (the native loss additionally quantizes activations,
    /// so its finite differences carry requantization noise).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` does not match the batch size.
    pub fn loss_float(&mut self, input: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward_float(input);
        self.loss.loss(&logits, labels)
    }

    /// Computes the loss and the gradient of the loss with respect to every quantized
    /// weight tensor (in layer order), evaluated in evaluation mode exactly as PBFA
    /// does.
    ///
    /// The returned gradients are with respect to the *dequantized* weights; multiply by
    /// the layer scale to get the gradient with respect to the integer value.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` does not match the batch size.
    pub fn weight_gradients(&mut self, input: &Tensor, labels: &[usize]) -> (f32, Vec<Tensor>) {
        self.sync();
        self.model.zero_grad();
        let logits = self.model.forward(input, false);
        let (loss_value, grad_logits) = self.loss.forward_backward(&logits, labels);
        self.model.backward(&grad_logits);

        let mut grads: Vec<Option<Tensor>> = vec![None; self.layers.len()];
        let layers = &self.layers;
        self.model.visit_params("", &mut |name, p| {
            if let Some(pos) = layers.iter().position(|l| l.name == name) {
                grads[pos] = Some(p.grad.clone());
            }
        });
        let grads = grads
            .into_iter()
            .map(|g| g.expect("every quantized layer has a matching float parameter"))
            .collect();
        (loss_value, grads)
    }

    /// The per-layer requantization parameters the integer GEMM epilogue applies,
    /// in layer order — what an accelerator would program into its output-stage
    /// registers. Scales are fixed at quantization time; only the run-time
    /// activation scale is folded in per input (see
    /// [`RequantParams::fold`](crate::RequantParams::fold)).
    pub fn requant_params(&self) -> Vec<crate::RequantParams> {
        self.layers
            .iter()
            .map(|l| crate::RequantParams {
                weight_scale: l.weights.scale(),
            })
            .collect()
    }

    /// Top-1 accuracy of the current quantized weights on `(images, labels)`,
    /// evaluated over the quantized-native forward path with one reused batch
    /// scratch buffer (no per-batch allocation, no float-weight synchronization).
    ///
    /// # Panics
    ///
    /// Panics if the label count does not match the image count or `batch_size` is zero.
    pub fn accuracy(&mut self, images: &Tensor, labels: &[usize], batch_size: usize) -> Accuracy {
        let views: Vec<QuantView<'_>> = self
            .layers
            .iter()
            .map(|l| QuantView::new(l.weights.values(), l.weights.scale(), l.weights.dims()))
            .collect();
        let model = self.model.as_mut();
        accuracy_with(
            |batch| forward_quantized_with(model, batch, &views),
            images,
            labels,
            batch_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_nn::{resnet20, ResNetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> QuantizedModel {
        QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))))
    }

    #[test]
    fn quantizes_conv_and_linear_weights_only() {
        let mut qm = tiny_model();
        // ResNet-20 has 19 convolutions (stem + 18 in blocks) + 3 projection shortcuts? No:
        // tiny config stages are (w, 2w, 4w) so stages 2 and 3 have one projection each,
        // plus the final linear layer.
        assert!(qm.num_layers() >= 20, "found {}", qm.num_layers());
        for layer in qm.layers() {
            assert!(layer.name().ends_with("weight"));
            assert!(!layer.is_empty());
        }
        // Gradients resolve for every quantized layer.
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::rand_normal(&mut rng, &[2, 3, 8, 8], 0.0, 1.0);
        let (_, grads) = qm.weight_gradients(&x, &[0, 1]);
        assert_eq!(grads.len(), qm.num_layers());
    }

    #[test]
    fn forward_is_deterministic_given_weights() {
        let mut qm = tiny_model();
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let a = qm.forward(&x);
        let b = qm.forward(&x);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn flip_bit_changes_output_and_restore_undoes_it() {
        let mut qm = tiny_model();
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let clean = qm.forward(&x);
        let snapshot = qm.snapshot();

        // Flip the MSB of a weight in the first conv layer.
        qm.flip_bit(0, 0, crate::MSB);
        let attacked = qm.forward(&x);
        assert_ne!(
            clean.data(),
            attacked.data(),
            "MSB flip should perturb the output"
        );

        qm.restore(&snapshot);
        let restored = qm.forward(&x);
        assert_eq!(clean.data(), restored.data());
    }

    #[test]
    fn gradients_match_finite_difference_of_loss() {
        let mut qm = tiny_model();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_normal(&mut rng, &[2, 3, 8, 8], 0.0, 1.0);
        let labels = [0usize, 1usize];
        let (_, grads) = qm.weight_gradients(&x, &labels);

        // Perturb one dequantized weight via its integer value and compare.
        let layer = 0;
        let idx = 3;
        let scale = qm.layer(layer).weights().scale();
        // Finite differences through the float oracle: the analytic gradient is of
        // the differentiable dequantized loss, while the native loss additionally
        // quantizes activations (stepwise, non-differentiable).
        let base = qm.loss_float(&x, &labels);
        let orig = qm.layer(layer).weights().value(idx);
        qm.layer_weights_mut(layer)
            .set_value(idx, orig.saturating_add(2));
        let plus = qm.loss_float(&x, &labels);
        let fd = (plus - base) / (2.0 * scale);
        let analytic = grads[layer].data()[idx];
        assert!(
            (analytic - fd).abs() < 0.1 * (1.0 + fd.abs()),
            "analytic {analytic} vs finite difference {fd}"
        );
    }

    #[test]
    fn accuracy_runs_over_batches() {
        let mut qm = tiny_model();
        let x = Tensor::zeros(&[6, 3, 8, 8]);
        let labels = vec![0, 1, 2, 3, 0, 1];
        let acc = qm.accuracy(&x, &labels, 4);
        assert_eq!(acc.total, 6);
    }

    #[test]
    #[should_panic(expected = "snapshot layer count mismatch")]
    fn restoring_foreign_snapshot_panics() {
        let mut qm = tiny_model();
        let foreign = WeightSnapshot {
            values: vec![vec![0i8; 4]],
        };
        qm.restore(&foreign);
    }
}
