use radar_tensor::Tensor;

use crate::layer::{join_path, Layer, Param};
use crate::quantized::QuantCursor;

/// A container that applies layers in order and back-propagates in reverse order.
///
/// # Example
///
/// ```
/// use radar_nn::{Layer, Linear, Relu, Sequential};
/// use radar_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut model = Sequential::new();
/// model.push(Linear::new(&mut rng, 4, 8));
/// model.push(Relu::new());
/// model.push(Linear::new(&mut rng, 8, 2));
/// let y = model.forward(&Tensor::zeros(&[3, 4]), false);
/// assert_eq!(y.dims(), &[3, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .finish()
    }
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers in the container.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn forward_quantized(&mut self, input: &Tensor, weights: &mut QuantCursor<'_>) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward_quantized(&x, weights);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let path = join_path(prefix, &format!("{}{}", layer.name(), i));
            layer.visit_params(&path, f);
        }
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Vec<f32>)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let path = join_path(prefix, &format!("{}{}", layer.name(), i));
            layer.visit_buffers(&path, f);
        }
    }

    fn name(&self) -> &str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_backward_chain() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new();
        model.push(Linear::new(&mut rng, 4, 8));
        model.push(Relu::new());
        model.push(Linear::new(&mut rng, 8, 2));

        let x = Tensor::rand_normal(&mut rng, &[3, 4], 0.0, 1.0);
        let y = model.forward(&x, true);
        assert_eq!(y.dims(), &[3, 2]);
        let dx = model.backward(&Tensor::ones(&[3, 2]));
        assert_eq!(dx.dims(), &[3, 4]);
    }

    #[test]
    fn param_paths_are_prefixed_by_layer_index() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new();
        model.push(Linear::new(&mut rng, 2, 2));
        model.push(Relu::new());
        model.push(Linear::new(&mut rng, 2, 2));
        let names = (&mut model as &mut dyn Layer).param_names();
        assert_eq!(
            names,
            vec![
                "linear0/weight",
                "linear0/bias",
                "linear2/weight",
                "linear2/bias"
            ]
        );
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new();
        model.push(Linear::new(&mut rng, 2, 2));
        let x = Tensor::ones(&[1, 2]);
        model.forward(&x, true);
        model.backward(&Tensor::ones(&[1, 2]));
        model.zero_grad();
        model.visit_params("", &mut |_, p| {
            assert!(p.grad.data().iter().all(|&g| g == 0.0))
        });
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut model = Sequential::new();
        assert!(model.is_empty());
        let x = Tensor::ones(&[2, 2]);
        assert_eq!(model.forward(&x, false), x);
    }
}
