//! im2col / col2im lowering used to express 2-D convolutions as matrix products.

use crate::Tensor;

/// Geometry of a 2-D convolution: input/kernel sizes, stride and padding.
///
/// Inputs are laid out `(N, C, H, W)`, kernels `(C_out, C_in, K, K)`.
///
/// # Example
///
/// ```
/// use radar_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 3, 1, 1); // 3x3 kernel, stride 1, pad 1
/// assert_eq!(g.output_size(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a new geometry description.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or either kernel dimension is zero.
    pub fn new(kernel_h: usize, kernel_w: usize, stride: usize, padding: usize) -> Self {
        assert!(stride > 0, "stride must be non-zero");
        assert!(
            kernel_h > 0 && kernel_w > 0,
            "kernel dimensions must be non-zero"
        );
        Conv2dGeometry {
            kernel_h,
            kernel_w,
            stride,
            padding,
        }
    }

    /// Output spatial size `(H_out, W_out)` for an input of size `(h, w)`.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let h_out = (h + 2 * self.padding - self.kernel_h) / self.stride + 1;
        let w_out = (w + 2 * self.padding - self.kernel_w) / self.stride + 1;
        (h_out, w_out)
    }
}

/// Unfolds an `(N, C, H, W)` input into a `(C*K*K, N*H_out*W_out)` matrix so a
/// convolution becomes `weights(C_out, C*K*K) × im2col(input)`.
///
/// # Panics
///
/// Panics if `input` is not 4-D.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(
        input.shape().rank(),
        4,
        "im2col expects (N, C, H, W), got {}",
        input.shape()
    );
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (h_out, w_out) = geom.output_size(h, w);
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = n * h_out * w_out;
    let mut out = vec![0.0f32; rows * cols];
    let data = input.data();

    for ni in 0..n {
        for ci in 0..c {
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    let row = ci * geom.kernel_h * geom.kernel_w + kh * geom.kernel_w + kw;
                    for oh in 0..h_out {
                        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                        for ow in 0..w_out {
                            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                            let col = ni * h_out * w_out + oh * w_out + ow;
                            let v = if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w
                            {
                                data[((ni * c + ci) * h + ih as usize) * w + iw as usize]
                            } else {
                                0.0
                            };
                            out[row * cols + col] = v;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols]).expect("im2col output shape is consistent by construction")
}

/// Unfolds an already-quantized `(N, C, H, W)` input (raw row-major `i8` slice) into
/// a `(C*K*K, N*H_out*W_out)` `i8` matrix — the integer-pipeline twin of [`im2col`],
/// feeding `gemm_i8_requant` directly.
///
/// Quantizing *before* unfolding is what makes the native convolution cheap: the
/// rounding pass touches each input element once instead of once per kernel
/// position, and the unfolded matrix occupies a quarter of the float version's
/// bytes. Padding contributes quantized zero (exactly representable at any scale),
/// so `im2col_i8(quantize(x)) == quantize(im2col(x))` element-for-element whenever
/// the same scale is used.
///
/// The unfold moves rows, not bytes: for a stride-1 "same" convolution each
/// (channel, tap, image) block of valid output rows is one shifted slice copy of
/// the input plane, and any other geometry gathers each valid row segment with a
/// strided iterator. Padding stays the zero the output was allocated with.
///
/// # Example
///
/// ```
/// use radar_tensor::{im2col_i8, Conv2dGeometry};
///
/// // 1x1 kernel, stride 1: im2col is a reshape, so the values come back unchanged.
/// let g = Conv2dGeometry::new(1, 1, 1, 0);
/// let cols = im2col_i8(&[1, -2, 3, -4], 1, 1, 2, 2, &g);
/// assert_eq!(cols, vec![1, -2, 3, -4]);
/// ```
///
/// # Panics
///
/// Panics if `data.len()` does not equal `n*c*h*w`.
pub fn im2col_i8(
    data: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: &Conv2dGeometry,
) -> Vec<i8> {
    assert_eq!(
        data.len(),
        n * c * h * w,
        "im2col_i8 input length {} != {n}x{c}x{h}x{w}",
        data.len()
    );
    let (h_out, w_out) = geom.output_size(h, w);
    let (kh_n, kw_n, stride, pad) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let rows = c * kh_n * kw_n;
    let cols = n * h_out * w_out;
    let mut out = vec![0i8; rows * cols];
    // The output positions `[lo, hi)` along one axis whose input coordinate
    // `o * stride + tap - pad` lies in `[0, len)`; the rest read padding.
    let valid = |tap: usize, len: usize, out_len: usize| {
        let lo = pad.saturating_sub(tap).div_ceil(stride);
        let hi = (len + pad)
            .checked_sub(tap + 1)
            .map_or(0, |last| last / stride + 1);
        (lo.min(out_len), hi.min(out_len))
    };
    let row_ranges: Vec<_> = (0..kh_n).map(|kh| valid(kh, h, h_out)).collect();
    let col_ranges: Vec<_> = (0..kw_n).map(|kw| valid(kw, w, w_out)).collect();
    // Stride-1 "same" convolutions keep the input's row pitch, so a tap's whole
    // block of valid output rows is the input plane shifted by one offset.
    let same = stride == 1 && h_out == h && w_out == w;

    for ni in 0..n {
        for ci in 0..c {
            let plane = &data[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
            for (kh, &(oh_lo, oh_hi)) in row_ranges.iter().enumerate() {
                if oh_lo >= oh_hi {
                    continue; // every output row of this tap reads padding
                }
                for (kw, &(ow_lo, ow_hi)) in col_ranges.iter().enumerate() {
                    let row = (ci * kh_n + kh) * kw_n + kw;
                    let dst = &mut out[row * cols + ni * h_out * w_out..][..h_out * w_out];
                    if same {
                        // out[pos] = plane[pos + shift] for pos in the valid rows,
                        // clipped to the plane; then the |kw − pad| columns that
                        // wrapped into the neighbouring input row go back to zero.
                        let shift = (kh * w + kw) as isize - (pad * w + pad) as isize;
                        let lo = (oh_lo * w).max(shift.min(0).unsigned_abs());
                        let hi = (oh_hi * w).min((h * w).saturating_add_signed(-shift));
                        if lo < hi {
                            let src = lo.saturating_add_signed(shift);
                            dst[lo..hi].copy_from_slice(&plane[src..src + hi - lo]);
                        }
                        let edge = kw.abs_diff(pad).min(w);
                        let cut = if kw > pad { w - edge } else { 0 };
                        for col in cut..cut + edge {
                            for d in dst[oh_lo * w + col..oh_hi * w].iter_mut().step_by(w) {
                                *d = 0;
                            }
                        }
                    } else if ow_lo < ow_hi {
                        let iw_lo = ow_lo * stride + kw - pad;
                        for oh in oh_lo..oh_hi {
                            let ih = oh * stride + kh - pad;
                            let src = plane[ih * w + iw_lo..].iter().step_by(stride);
                            let seg = &mut dst[oh * w_out + ow_lo..oh * w_out + ow_hi];
                            for (d, &v) in seg.iter_mut().zip(src) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Folds a `(C*K*K, N*H_out*W_out)` matrix back into an `(N, C, H, W)` tensor, summing
/// overlapping contributions. This is the adjoint of [`im2col`] and is used for the
/// gradient with respect to the convolution input.
///
/// # Panics
///
/// Panics if `cols` is not 2-D or its dimensions are inconsistent with the geometry.
pub fn col2im(
    cols: &Tensor,
    geom: &Conv2dGeometry,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
) -> Tensor {
    assert_eq!(
        cols.shape().rank(),
        2,
        "col2im expects a 2-D matrix, got {}",
        cols.shape()
    );
    let (h_out, w_out) = geom.output_size(h, w);
    let rows = c * geom.kernel_h * geom.kernel_w;
    let ncols = n * h_out * w_out;
    assert_eq!(
        cols.dims(),
        &[rows, ncols],
        "col2im input dims {:?} inconsistent with geometry (expected {:?})",
        cols.dims(),
        [rows, ncols]
    );

    let mut out = vec![0.0f32; n * c * h * w];
    let data = cols.data();
    for ni in 0..n {
        for ci in 0..c {
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    let row = ci * geom.kernel_h * geom.kernel_w + kh * geom.kernel_w + kw;
                    for oh in 0..h_out {
                        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                        for ow in 0..w_out {
                            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                            if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w {
                                let col = ni * h_out * w_out + oh * w_out + ow;
                                out[((ni * c + ci) * h + ih as usize) * w + iw as usize] +=
                                    data[row * ncols + col];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w]).expect("col2im output shape is consistent by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_matches_formula() {
        let g = Conv2dGeometry::new(3, 3, 1, 1);
        assert_eq!(g.output_size(32, 32), (32, 32));
        let g = Conv2dGeometry::new(3, 3, 2, 1);
        assert_eq!(g.output_size(32, 32), (16, 16));
        let g = Conv2dGeometry::new(1, 1, 1, 0);
        assert_eq!(g.output_size(8, 8), (8, 8));
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        Conv2dGeometry::new(3, 3, 0, 1);
    }

    #[test]
    fn im2col_identity_kernel_copies_input() {
        // 1x1 kernel, stride 1, no padding: im2col is just a reshape of the input.
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let g = Conv2dGeometry::new(1, 1, 1, 0);
        let cols = im2col(&input, &g);
        assert_eq!(cols.dims(), &[1, 16]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn im2col_3x3_on_small_input_matches_manual_patch() {
        // 3x3 input, 3x3 kernel, stride 1, no padding => single column = whole input.
        let input = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let g = Conv2dGeometry::new(3, 3, 1, 0);
        let cols = im2col(&input, &g);
        assert_eq!(cols.dims(), &[9, 1]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn conv_via_im2col_matches_direct_computation() {
        // Direct 2-D convolution of a known input with a known kernel.
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let kernel = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[1, 1, 2, 2]).unwrap();
        let g = Conv2dGeometry::new(2, 2, 1, 0);
        let cols = im2col(&input, &g);
        let w = kernel.reshape(&[1, 4]).unwrap();
        let out = w.matmul(&cols); // (1, 9)
                                   // Manually: out[oh][ow] = x[oh][ow] - x[oh+1][ow+1] = -5 for every position.
        assert_eq!(out.dims(), &[1, 9]);
        assert!(out.data().iter().all(|&v| v == -5.0));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish data (adjoint property).
        let x = Tensor::from_vec(
            (0..2 * 3 * 5 * 5).map(|v| (v % 7) as f32 - 3.0).collect(),
            &[2, 3, 5, 5],
        )
        .unwrap();
        let g = Conv2dGeometry::new(3, 3, 2, 1);
        let cols = im2col(&x, &g);
        let y = cols.map(|v| v * 0.5 + 1.0);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, &g, 2, 3, 5, 5);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn im2col_padding_produces_zeros_at_border() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::new(3, 3, 1, 1);
        let cols = im2col(&input, &g);
        // Top-left output position, kernel element (0,0) looks at padded area -> 0.
        assert_eq!(cols.get(&[0, 0]), 0.0);
        // Centre kernel element (1,1) at output (0,0) looks at input (0,0) -> 1.
        assert_eq!(cols.get(&[4, 0]), 1.0);
    }
}
