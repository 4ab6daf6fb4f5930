use radar_tensor::{linear_i8_requant, quantize_activations, Tensor};
use rand::Rng;

use crate::init::he_normal;
use crate::layer::{join_path, Layer, Param};
use crate::quantized::QuantCursor;

/// A fully-connected layer: `y = x W^T + b` with `x: (N, in)`, `W: (out, in)`,
/// `b: (out)`.
///
/// # Example
///
/// ```
/// use radar_nn::{Layer, Linear};
/// use radar_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut fc = Linear::new(&mut rng, 8, 4);
/// let y = fc.forward(&Tensor::zeros(&[2, 8]), false);
/// assert_eq!(y.dims(), &[2, 4]);
/// ```
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `in_features` or `out_features` is zero.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "feature counts must be non-zero"
        );
        Linear {
            weight: Param::new(he_normal(rng, &[out_features, in_features], in_features)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Validates the input shape.
    fn check_input(&self, input: &Tensor) {
        assert_eq!(
            input.shape().rank(),
            2,
            "Linear expects (N, in), got {}",
            input.shape()
        );
        assert_eq!(
            input.dims()[1],
            self.in_features,
            "Linear input features {} != expected {}",
            input.dims()[1],
            self.in_features
        );
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.check_input(input);
        self.cached_input = Some(input.clone());
        let out = input.matmul(&self.weight.value.transpose2d());
        let n = out.dims()[0];
        let mut data = out.into_vec();
        for row in 0..n {
            for j in 0..self.out_features {
                data[row * self.out_features + j] += self.bias.value.data()[j];
            }
        }
        Tensor::from_vec(data, &[n, self.out_features]).expect("linear output shape is consistent")
    }

    fn forward_quantized(&mut self, input: &Tensor, weights: &mut QuantCursor<'_>) -> Tensor {
        self.check_input(input);
        let view = weights.take(&[self.out_features, self.in_features]);
        let n = input.dims()[0];
        // Integer dot-product kernel over the i8 weights in their natural (out, in)
        // order: activations quantize at a power-of-two scale, products accumulate in
        // i32, and the epilogue folds both scales plus the bias — no transpose, no
        // dequantized weight tensor, nothing cached (eval only).
        let (xq, a_scale) = quantize_activations(input.data());
        let data = linear_i8_requant(
            &xq,
            view.values,
            n,
            self.in_features,
            self.out_features,
            &[view.scale * a_scale],
            Some(self.bias.value.data()),
        );
        Tensor::from_vec(data, &[n, self.out_features]).expect("linear output shape is consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before forward");
        // dW = grad_out^T @ x ; db = sum over batch ; dx = grad_out @ W
        let grad_w = grad_output.transpose2d().matmul(input);
        self.weight.grad.add_scaled_inplace(&grad_w, 1.0);
        let grad_b = grad_output.sum_rows();
        self.bias.grad.add_scaled_inplace(&grad_b, 1.0);
        grad_output.matmul(&self.weight.value)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_path(prefix, "weight"), &mut self.weight);
        f(&join_path(prefix, "bias"), &mut self.bias);
    }

    fn name(&self) -> &str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Linear {
        let mut rng = StdRng::seed_from_u64(7);
        Linear::new(&mut rng, 3, 2)
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut fc = layer();
        // Overwrite weights with known values.
        fc.weight.value = Tensor::from_vec(vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.0], &[2, 3]).unwrap();
        fc.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = fc.forward(&x, false);
        // y0 = 1*1 + 2*0 + 3*(-1) + 0.5 = -1.5 ; y1 = 1*2 + 2*1 + 3*0 - 0.5 = 3.5
        assert_eq!(y.data(), &[-1.5, 3.5]);
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let mut fc = layer();
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]).unwrap();
        // Loss = sum(y); dL/dy = ones.
        let y = fc.forward(&x, true);
        let ones = Tensor::ones(y.dims());
        fc.zero_grad();
        fc.forward(&x, true);
        let grad_in = fc.backward(&ones);

        // Finite differences on one weight and one input element.
        let eps = 1e-3;
        let base: f32 = fc.forward(&x, true).sum();

        let mut w_plus = fc.weight.value.clone();
        w_plus.data_mut()[1] += eps;
        let orig_w = std::mem::replace(&mut fc.weight.value, w_plus);
        let plus: f32 = fc.forward(&x, true).sum();
        fc.weight.value = orig_w;
        let fd_w = (plus - base) / eps;
        assert!(
            (fc.weight.grad.data()[1] - fd_w).abs() < 1e-2,
            "{} vs {}",
            fc.weight.grad.data()[1],
            fd_w
        );

        let mut x_plus = x.clone();
        x_plus.data_mut()[2] += eps;
        let plus_x: f32 = fc.forward(&x_plus, true).sum();
        let fd_x = (plus_x - base) / eps;
        assert!(
            (grad_in.data()[2] - fd_x).abs() < 1e-2,
            "{} vs {}",
            grad_in.data()[2],
            fd_x
        );
    }

    #[test]
    fn forward_quantized_matches_float_forward_on_integer_weights() {
        use crate::quantized::forward_quantized_with;
        use crate::QuantView;

        let mut fc = layer();
        let q: Vec<i8> = vec![1, 0, -1, 2, 1, 0];
        fc.weight.value = Tensor::from_vec(q.iter().map(|&v| v as f32).collect(), &[2, 3]).unwrap();
        fc.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -0.5, 0.25, 4.0], &[2, 3]).unwrap();
        let float_out = fc.forward(&x, false);

        let dims = [2usize, 3];
        let views = [QuantView::new(&q, 1.0, &dims)];
        let quant_out = forward_quantized_with(&mut fc, &x, &views);
        assert_eq!(float_out.data(), quant_out.data());
        assert_eq!(quant_out.dims(), &[2, 2]);
    }

    #[test]
    fn visit_params_reports_weight_and_bias() {
        let mut fc = layer();
        let names = (&mut fc as &mut dyn Layer).param_names();
        assert_eq!(names, vec!["weight", "bias"]);
        assert_eq!((&mut fc as &mut dyn Layer).param_count(), 2 * 3 + 2);
    }

    #[test]
    #[should_panic(expected = "called before forward")]
    fn backward_before_forward_panics() {
        let mut fc = layer();
        fc.backward(&Tensor::zeros(&[1, 2]));
    }
}
