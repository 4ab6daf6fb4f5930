//! Property tests pinning the GEMM kernels to their naive references, over ragged
//! shapes that straddle the blocking factors: the integer kernel's 16-column
//! register tiles and 4-row blocks (widths below, around one and around two tiles;
//! up to 9 rows, so two full row blocks plus a leftover row) and the float kernel's
//! 256-wide `k`/`n` panels.
//!
//! Contracts proved here:
//! - `gemm_f32` is *bit-identical* to the textbook triple loop — the kernel only
//!   reorders which elements are worked on, never the additions into one element.
//! - `gemm_i8` is *integer-exact*: equal to widening every operand to `i32` and
//!   running the textbook loop. Integer addition is associative, so register tiling
//!   and zero-padded ragged tiles cannot change a single bit.
//! - `gemm_i8_requant` / `linear_i8_requant` threaded output is *bit-identical* to
//!   single-threaded for any thread count (each output element is computed by exactly
//!   one worker, from the same exact integer accumulator), including column splits
//!   whose windows start off a tile boundary.
//! - The requantization epilogue tracks the infinitely-precise `acc·scale + bias` to
//!   within its three `f32` roundings (widen, multiply, add).
//! - End to end: integer weights at unit scale × integer-valued activations (which
//!   quantize exactly at a power-of-two scale) make the whole integer pipeline
//!   bit-identical to the float oracle. The general argmax-level agreement is pinned
//!   in `radar-quant`'s `native_equivalence` tests.

use proptest::prelude::*;
use radar_tensor::{gemm_f32, gemm_i8, gemm_i8_requant, linear_i8_requant, quantize_activations};

/// The textbook f32 reference: `i-k-j` accumulation, no blocking, no zero skipping.
fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let a_ip = a[i * k + p];
            for j in 0..n {
                out[i * n + j] += a_ip * b[p * n + j];
            }
        }
    }
    out
}

/// The widen-to-i32 reference for the integer kernels: every product formed after
/// sign-extending both operands, accumulated in `i32`, no blocking.
fn naive_i32(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for p in 0..k {
            let a_ip = a[i * k + p] as i32;
            for j in 0..n {
                out[i * n + j] += a_ip * b[p * n + j] as i32;
            }
        }
    }
    out
}

/// A `k`/`n` extent deliberately straddling the blocking factors: each draw lands
/// below one 16-wide register tile, around exactly one or two tiles (15–18, 31–34),
/// or around one or two 256-wide float panels.
fn edge_extent() -> impl Strategy<Value = usize> {
    (0usize..5, 0usize..14).prop_map(|(band, off)| match band {
        0 => 1 + off,
        1 => 15 + off % 4,
        2 => 31 + off % 4,
        3 => 250 + off,
        _ => 505 + off,
    })
}

/// Small `m` (up to two 4-row blocks plus a leftover row), ragged `k`/`n`.
fn ragged_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..10, edge_extent(), edge_extent())
}

/// An `i8` weight drawn over the full quantized range (including 0, the value a RADAR
/// zero-out recovery writes, and -128, the value a bit flip can mint).
fn weight() -> impl Strategy<Value = i8> {
    (-128i32..128).prop_map(|v| v as i8)
}

proptest! {
    /// Blocked float GEMM is bit-identical to the naive triple loop.
    #[test]
    fn gemm_blocked_equals_naive_matmul(
        (m, k, n) in ragged_dims(),
        seed in prop::collection::vec(-3.0f32..3.0, 64..65),
    ) {
        let a: Vec<f32> = (0..m * k).map(|i| seed[i % seed.len()] * 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| seed[(i * 31 + 7) % seed.len()]).collect();
        prop_assert_eq!(gemm_f32(&a, &b, m, k, n), naive(&a, &b, m, k, n));
    }

    /// The blocked, tiled, zero-skipping integer kernel is integer-exact: bit-equal
    /// to the widen-to-i32 textbook loop over ragged panel-straddling shapes.
    #[test]
    fn gemm_i8_equals_widen_to_i32_reference(
        (m, k, n) in ragged_dims(),
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
    ) {
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()]).collect();
        let x: Vec<i8> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()]).collect();
        prop_assert_eq!(gemm_i8(&w, &x, m, k, n), naive_i32(&w, &x, m, k, n));
    }

    /// Threaded requantizing GEMM is bit-identical to single-threaded for any thread
    /// count — covering both the row-split (`m >= threads`) and the column-split
    /// (`m < threads`) path, per-row scales and fused bias included.
    #[test]
    fn threaded_gemm_requant_is_bit_identical_to_single_threaded(
        (m, k, n) in ragged_dims(),
        threads in 2usize..6,
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
        sseed in prop::collection::vec(0.001f32..0.75, 8..9),
    ) {
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()]).collect();
        let x: Vec<i8> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()]).collect();
        let scales: Vec<f32> = (0..m).map(|i| sseed[i % sseed.len()]).collect();
        let bias: Vec<f32> = (0..m).map(|i| sseed[(i * 3 + 1) % sseed.len()] - 0.4).collect();
        let single = gemm_i8_requant(&w, &x, m, k, n, &scales, Some(&bias), 1);
        let multi = gemm_i8_requant(&w, &x, m, k, n, &scales, Some(&bias), threads);
        prop_assert_eq!(single, multi);
    }

    /// A column split whose windows start off a 16-column tile boundary: `m` is below
    /// the thread count, so the columns are split, and every worker's share is
    /// `16q + r` columns with `0 < r < 16`. The threaded output equals the exact
    /// integer reference (unit scale, no bias: every sum is exact in `f32`).
    #[test]
    fn unaligned_column_split_equals_integer_reference(
        threads in 2usize..6,
        (q, r) in (1usize..3, 1usize..16),
        m_pick in 0usize..8,
        k in edge_extent(),
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
    ) {
        let m = 1 + m_pick % (threads - 1);
        let n = threads * (16 * q + r);
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()]).collect();
        let x: Vec<i8> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()]).collect();
        let want: Vec<f32> = naive_i32(&w, &x, m, k, n).iter().map(|&v| v as f32).collect();
        prop_assert_eq!(gemm_i8_requant(&w, &x, m, k, n, &[1.0], None, threads), want);
    }

    /// Threaded fully-connected kernel is bit-identical to single-threaded over
    /// ragged depths, including the `rows < threads` remainder handling.
    #[test]
    fn threaded_linear_requant_is_bit_identical_to_single_threaded(
        (rows, k, m) in (1usize..6, 1usize..300, 1usize..10),
        threads in 2usize..6,
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
    ) {
        let x: Vec<i8> = (0..rows * k).map(|i| xseed[i % xseed.len()]).collect();
        let w: Vec<i8> = (0..m * k).map(|i| wseed[(i * 3 + 1) % wseed.len()]).collect();
        let scale = [0.03125f32];
        let single = linear_i8_requant(&x, &w, rows, k, m, &scale, None, 1);
        let multi = linear_i8_requant(&x, &w, rows, k, m, &scale, None, threads);
        prop_assert_eq!(single, multi);
    }

    /// The requantization epilogue tracks the infinitely-precise `acc·scale + bias`
    /// (computed in f64) to within its three f32 roundings: widen the i32
    /// accumulator, multiply by the folded scale, add the bias.
    #[test]
    fn requantization_tracks_exact_epilogue_within_rounding(
        (m, k, n) in ragged_dims(),
        wseed in prop::collection::vec(weight(), 64..65),
        xseed in prop::collection::vec(weight(), 64..65),
        scale in 0.0001f32..0.1,
        bias0 in -2.0f32..2.0,
    ) {
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()]).collect();
        let x: Vec<i8> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()]).collect();
        let bias: Vec<f32> = (0..m).map(|i| bias0 + i as f32 * 0.125).collect();
        let acc = naive_i32(&w, &x, m, k, n);
        let out = gemm_i8_requant(&w, &x, m, k, n, &[scale], Some(&bias), 1);
        for i in 0..m {
            for j in 0..n {
                let exact = acc[i * n + j] as f64 * scale as f64 + bias[i] as f64;
                let got = out[i * n + j] as f64;
                // Three roundings, each ≤ half an ulp of its intermediate: bound by
                // 3 ulp of the result magnitude (plus the bias magnitude, in case of
                // cancellation in the final add).
                let ulp = f32::EPSILON as f64
                    * (acc[i * n + j].unsigned_abs() as f64 * scale as f64
                        + bias[i].abs() as f64
                        + f32::MIN_POSITIVE as f64);
                prop_assert!(
                    (got - exact).abs() <= 3.0 * ulp,
                    "requant {} vs exact {} (bound {})", got, exact, 3.0 * ulp
                );
            }
        }
    }

    /// End to end: integer weights at unit scale and integer-valued activations make
    /// the full pipeline — `quantize_activations` → `gemm_i8_requant` with the folded
    /// scale — bit-identical to the float oracle. Power-of-two activation scales
    /// quantize integer values exactly, and every intermediate stays below the f32
    /// mantissa limit, so both paths compute the same exact integers.
    #[test]
    fn integer_pipeline_is_bit_identical_to_float_reference(
        (m, k, n) in ragged_dims(),
        wseed in prop::collection::vec(-127i32..128, 64..65),
        xseed in prop::collection::vec(-5i32..6, 64..65),
    ) {
        let w: Vec<i8> = (0..m * k).map(|i| wseed[i % wseed.len()] as i8).collect();
        let x: Vec<f32> = (0..k * n).map(|i| xseed[(i * 13 + 5) % xseed.len()] as f32).collect();
        let (xq, a_scale) = quantize_activations(&x);
        let native = gemm_i8_requant(&w, &xq, m, k, n, &[a_scale], None, 1);
        let wf: Vec<f32> = w.iter().map(|&q| q as f32).collect();
        prop_assert_eq!(native, naive(&wf, &x, m, k, n));
    }
}
