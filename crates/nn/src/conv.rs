use radar_tensor::{
    col2im, gemm_i8_requant, im2col, im2col_i8, quantize_activations, Conv2dGeometry, Tensor,
};
use rand::Rng;

use crate::init::he_normal;
use crate::layer::{join_path, Layer, Param};
use crate::quantized::QuantCursor;

/// A 2-D convolution layer with square kernels, configurable stride and zero padding.
///
/// Input layout is `(N, C_in, H, W)`, weights `(C_out, C_in, K, K)`, output
/// `(N, C_out, H_out, W_out)`. The forward pass is an im2col lowering followed by a
/// matrix product, so the whole convolution — the dominant compute of the paper's
/// ResNet models — reuses the tensor crate's matmul kernel.
///
/// # Example
///
/// ```
/// use radar_nn::{Conv2d, Layer};
/// use radar_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1);
/// let y = conv.forward(&Tensor::zeros(&[2, 3, 16, 16]), false);
/// assert_eq!(y.dims(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    geom: Conv2dGeometry,
    cached_cols: Option<Tensor>,
    cached_input_dims: Option<[usize; 4]>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_channels`, `out_channels`, `kernel` or `stride` is zero.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channel counts must be non-zero"
        );
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Param::new(he_normal(
                rng,
                &[out_channels, in_channels, kernel, kernel],
                fan_in,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            geom: Conv2dGeometry::new(kernel, kernel, stride, padding),
            cached_cols: None,
            cached_input_dims: None,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Convolution geometry (kernel size, stride, padding).
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geom
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Validates the input shape and returns `(n, c, h, w)`.
    fn check_input(&self, input: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(
            input.shape().rank(),
            4,
            "Conv2d expects (N, C, H, W), got {}",
            input.shape()
        );
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        assert_eq!(
            c, self.in_channels,
            "Conv2d input channels {} != expected {}",
            c, self.in_channels
        );
        (n, c, h, w)
    }

    /// Reorders `(C_out, N*Ho*Wo)` matmul output into `(N, C_out, Ho, Wo)`.
    fn to_nchw(out2: &Tensor, n: usize, c_out: usize, ho: usize, wo: usize) -> Tensor {
        let mut out = vec![0.0f32; n * c_out * ho * wo];
        let data = out2.data();
        let cols = n * ho * wo;
        for co in 0..c_out {
            for ni in 0..n {
                for s in 0..ho * wo {
                    out[((ni * c_out) + co) * ho * wo + s] = data[co * cols + ni * ho * wo + s];
                }
            }
        }
        Tensor::from_vec(out, &[n, c_out, ho, wo]).expect("conv output shape is consistent")
    }

    /// Reorders `(N, C_out, Ho, Wo)` gradients into `(C_out, N*Ho*Wo)`.
    fn to_matrix(grad: &Tensor, n: usize, c_out: usize, ho: usize, wo: usize) -> Tensor {
        let mut out = vec![0.0f32; c_out * n * ho * wo];
        let data = grad.data();
        let cols = n * ho * wo;
        for ni in 0..n {
            for co in 0..c_out {
                for s in 0..ho * wo {
                    out[co * cols + ni * ho * wo + s] = data[((ni * c_out) + co) * ho * wo + s];
                }
            }
        }
        Tensor::from_vec(out, &[c_out, cols]).expect("conv grad shape is consistent")
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let (n, c, h, w) = self.check_input(input);
        let cols = im2col(input, &self.geom);
        let k = self.geom.kernel_h;
        let w2 = self
            .weight
            .value
            .reshape(&[self.out_channels, self.in_channels * k * k])
            .expect("conv weight reshape is consistent");
        let mut out2 = w2.matmul(&cols);
        let (ho, wo) = self.geom.output_size(h, w);
        // Add bias per output channel.
        let ncols = n * ho * wo;
        for co in 0..self.out_channels {
            let b = self.bias.value.data()[co];
            for v in &mut out2.data_mut()[co * ncols..(co + 1) * ncols] {
                *v += b;
            }
        }
        self.cached_cols = Some(cols);
        self.cached_input_dims = Some([n, c, h, w]);
        Self::to_nchw(&out2, n, self.out_channels, ho, wo)
    }

    fn forward_quantized(&mut self, input: &Tensor, weights: &mut QuantCursor<'_>) -> Tensor {
        let (n, _, h, w) = self.check_input(input);
        let (kh, kw) = (self.geom.kernel_h, self.geom.kernel_w);
        let view = weights.take(&[self.out_channels, self.in_channels, kh, kw]);

        let kk = self.in_channels * kh * kw;
        let (ho, wo) = self.geom.output_size(h, w);
        let ncols = n * ho * wo;
        // True-integer path straight off the i8 weight panel: quantize the *input*
        // at a power-of-two scale (each element rounded once, not once per kernel
        // position), unfold it with the i8 im2col, accumulate i8×i8 products in i32,
        // and fold weight scale × activation scale plus the channel bias into one
        // requantization epilogue. Padding quantizes to exact zero, so this is
        // element-for-element identical to quantizing after the unfold — at K²×
        // less rounding work and a quarter of the unfolded-matrix traffic. The
        // float weight parameter is never read and nothing is cached (eval only).
        let (xq, a_scale) = quantize_activations(input.data());
        let (ni, ci) = (input.dims()[0], input.dims()[1]);
        let cols_q = im2col_i8(&xq, ni, ci, h, w, &self.geom);
        let out2 = gemm_i8_requant(
            view.values,
            &cols_q,
            self.out_channels,
            kk,
            ncols,
            &[view.scale * a_scale],
            Some(self.bias.value.data()),
        );
        let out2 = Tensor::from_vec(out2, &[self.out_channels, ncols]).expect("conv output shape");
        Self::to_nchw(&out2, n, self.out_channels, ho, wo)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cols = self
            .cached_cols
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let [n, c, h, w] = self
            .cached_input_dims
            .expect("Conv2d::backward called before forward");
        let (ho, wo) = self.geom.output_size(h, w);
        let k = self.geom.kernel_h;

        let grad2 = Self::to_matrix(grad_output, n, self.out_channels, ho, wo);
        // dW = grad2 @ cols^T reshaped to the kernel shape.
        let grad_w = grad2.matmul(&cols.transpose2d());
        let grad_w = grad_w
            .reshape(&[self.out_channels, self.in_channels, k, k])
            .expect("conv weight grad reshape is consistent");
        self.weight.grad.add_scaled_inplace(&grad_w, 1.0);

        // db = row sums of grad2.
        let ncols = n * ho * wo;
        let mut grad_b = vec![0.0f32; self.out_channels];
        for (co, acc) in grad_b.iter_mut().enumerate() {
            *acc = grad2.data()[co * ncols..(co + 1) * ncols].iter().sum();
        }
        self.bias.grad.add_scaled_inplace(
            &Tensor::from_vec(grad_b, &[self.out_channels]).expect("bias grad shape"),
            1.0,
        );

        // dx = col2im(W^T @ grad2).
        let w2 = self
            .weight
            .value
            .reshape(&[self.out_channels, self.in_channels * k * k])
            .expect("conv weight reshape is consistent");
        let dcols = w2.transpose2d().matmul(&grad2);
        col2im(&dcols, &self.geom, n, c, h, w)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_path(prefix, "weight"), &mut self.weight);
        f(&join_path(prefix, "bias"), &mut self.bias);
    }

    fn name(&self) -> &str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_with_stride_and_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 3, 5, 3, 2, 1);
        let y = conv.forward(&Tensor::zeros(&[2, 3, 8, 8]), false);
        assert_eq!(y.dims(), &[2, 5, 4, 4]);
    }

    #[test]
    fn forward_known_kernel_matches_manual() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 2, 1, 0);
        conv.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[1, 1, 2, 2]).unwrap();
        conv.bias.value = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, false);
        // y[oh][ow] = x[oh][ow] - x[oh+1][ow+1] + 0.5 = -4 + 0.5
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert!(y.data().iter().all(|&v| (v + 3.5).abs() < 1e-6));
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        let x = Tensor::rand_normal(&mut rng, &[1, 2, 5, 5], 0.0, 1.0);

        conv.zero_grad();
        let y = conv.forward(&x, true);
        let ones = Tensor::ones(y.dims());
        let grad_in = conv.backward(&ones);
        assert_eq!(grad_in.dims(), x.dims());

        let eps = 1e-2;
        for &idx in &[0usize, 7, 20] {
            let base: f32 = conv.forward(&x, true).sum();
            conv.weight.value.data_mut()[idx] += eps;
            let plus: f32 = conv.forward(&x, true).sum();
            conv.weight.value.data_mut()[idx] -= eps;
            let fd = (plus - base) / eps;
            let analytic = conv.weight.grad.data()[idx];
            assert!(
                (analytic - fd).abs() < 0.05 * (1.0 + fd.abs()),
                "idx {idx}: {analytic} vs {fd}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 3, 2, 1);
        let x = Tensor::rand_normal(&mut rng, &[1, 1, 6, 6], 0.0, 1.0);

        conv.zero_grad();
        let y = conv.forward(&x, true);
        let grad_in = conv.backward(&Tensor::ones(y.dims()));

        let eps = 1e-2;
        let base: f32 = conv.forward(&x, true).sum();
        for &idx in &[0usize, 13, 35] {
            let mut x_plus = x.clone();
            x_plus.data_mut()[idx] += eps;
            let plus: f32 = conv.forward(&x_plus, true).sum();
            let fd = (plus - base) / eps;
            let analytic = grad_in.data()[idx];
            assert!(
                (analytic - fd).abs() < 0.05 * (1.0 + fd.abs()),
                "idx {idx}: {analytic} vs {fd}"
            );
        }
    }

    #[test]
    fn forward_quantized_matches_float_forward_on_integer_weights() {
        use crate::quantized::forward_quantized_with;
        use crate::QuantView;

        let mut rng = StdRng::seed_from_u64(9);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        // Integer weights with unit scale and integer-valued activations: the
        // power-of-two activation scale makes quantization exact, so the integer
        // kernel must be bit-identical to the float path.
        let q: Vec<i8> = (0..3 * 2 * 3 * 3).map(|v| (v % 9) as i8 - 4).collect();
        conv.weight.value =
            Tensor::from_vec(q.iter().map(|&v| v as f32).collect(), &[3, 2, 3, 3]).unwrap();
        conv.bias.value = Tensor::from_vec(vec![0.25, -0.5, 1.0], &[3]).unwrap();
        let x = Tensor::from_vec(
            (0..2 * 2 * 5 * 5)
                .map(|v| ((v * 7) % 11) as f32 - 5.0)
                .collect(),
            &[2, 2, 5, 5],
        )
        .unwrap();
        let float_out = conv.forward(&x, false);

        let dims = [3usize, 2, 3, 3];
        let views = [QuantView::new(&q, 1.0, &dims)];
        let quant_out = forward_quantized_with(&mut conv, &x, &views);
        assert_eq!(float_out.data(), quant_out.data());
        assert_eq!(float_out.dims(), quant_out.dims());
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn forward_quantized_rejects_mismatched_view_shape() {
        use crate::quantized::forward_quantized_with;
        use crate::QuantView;

        let mut rng = StdRng::seed_from_u64(10);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 3, 1, 1);
        let q = vec![1i8; 4];
        let dims = [1usize, 1, 2, 2];
        let views = [QuantView::new(&q, 1.0, &dims)];
        forward_quantized_with(&mut conv, &Tensor::zeros(&[1, 1, 4, 4]), &views);
    }

    #[test]
    fn visit_params_reports_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(&mut rng, 2, 4, 3, 1, 1);
        let names = (&mut conv as &mut dyn Layer).param_names();
        assert_eq!(names, vec!["weight", "bias"]);
        assert_eq!(
            (&mut conv as &mut dyn Layer).param_count(),
            4 * 2 * 3 * 3 + 4
        );
    }
}
