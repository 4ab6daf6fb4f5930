//! Property test pinning the integer unfold `im2col_i8` to the float `im2col` oracle.
//!
//! Unfolding only gathers input values and inserts zero padding, so on the same
//! values the two must agree element for element. Geometries are drawn at random —
//! rectangular kernels, strides 1–3, padding 0–2, non-square inputs, several images
//! and channels — so the row-copy fast path for stride-1 "same" convolutions (its
//! shifted block copy, the clipped first and last elements and the zeroed edge
//! columns) and the strided row gather are both covered.

use proptest::prelude::*;
use radar_tensor::{im2col, im2col_i8, Conv2dGeometry, Tensor};

/// A geometry: half the draws are stride-1 "same" convolutions (kernel `2·pad + 1`,
/// the row-copy path), the rest any kernel 1–5 per side, stride 1–3, padding 0–2.
fn geometry() -> impl Strategy<Value = Conv2dGeometry> {
    (0usize..2, 1usize..6, 1usize..6, 1usize..4, 0usize..3).prop_map(
        |(mode, kh, kw, stride, pad)| {
            if mode == 0 {
                Conv2dGeometry::new(2 * pad + 1, 2 * pad + 1, 1, pad)
            } else {
                Conv2dGeometry::new(kh, kw, stride, pad)
            }
        },
    )
}

/// `(n, c, h, w, geometry)`: batch 1–3, channels 1–4, and an input (`h ≠ w` allowed)
/// that the padded kernel fits.
fn conv_case() -> impl Strategy<Value = (usize, usize, usize, usize, Conv2dGeometry)> {
    geometry().prop_flat_map(|geom| {
        let min_h = geom.kernel_h.saturating_sub(2 * geom.padding).max(1);
        let min_w = geom.kernel_w.saturating_sub(2 * geom.padding).max(1);
        (
            1usize..4,
            1usize..5,
            min_h..min_h + 6,
            min_w..min_w + 6,
            Just(geom),
        )
    })
}

proptest! {
    /// `im2col_i8(d)` equals the float `im2col` of the same values, element for
    /// element.
    #[test]
    fn im2col_i8_equals_float_im2col(
        (n, c, h, w, geom) in conv_case(),
        seed in prop::collection::vec(-128i32..128, 64..65),
    ) {
        let data: Vec<i8> = (0..n * c * h * w)
            .map(|i| seed[(i * 7 + i / 64) % seed.len()] as i8)
            .collect();
        let float: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        let input = Tensor::from_vec(float, &[n, c, h, w]).expect("shape matches");
        let want: Vec<f32> = im2col(&input, &geom).data().to_vec();
        let got: Vec<f32> = im2col_i8(&data, n, c, h, w, &geom)
            .into_iter()
            .map(f32::from)
            .collect();
        prop_assert_eq!(got, want, "{}x{}x{}x{} {:?}", n, c, h, w, geom);
    }
}
