//! GEMM kernels for the inference hot path — float for the oracle, true-integer for
//! the quantized-native path.
//!
//! Three entry points cover every matrix product on the forward path:
//!
//! * [`gemm_f32`] — the float kernel behind [`Tensor::matmul`](crate::Tensor::matmul):
//!   `C(m×n) = A(m×k) × B(k×n)` over row-major slices, blocked over `k` and `n` so one
//!   panel of `B` stays cache-resident while every row of `A` sweeps it. This is the
//!   *oracle* kernel, bit-identical to the textbook triple loop.
//! * [`gemm_i8_requant`] — the quantized-native convolution kernel: an `i8` weight
//!   matrix times an `i8` quantized-activation matrix, every product accumulated in
//!   `i32`, with per-row requantization (scale multiply + bias add) in the epilogue.
//!   The accumulation runs one register-tiled kernel: a 4-row × 16-column block of
//!   `i32` accumulators held in registers across the whole reduction. **No `f32`
//!   multiply exists in the inner loop** — the paper's integer-accumulator datapath.
//! * [`linear_i8_requant`] — the fully-connected layout (`x(rows×k) × W(m×k)ᵀ`):
//!   both operands walked along contiguous rows as an `i8×i8 → i32` dot product, with
//!   the same per-output-feature requantization epilogue.
//!
//! Activations enter the integer kernels through [`quantize_activations`], which uses
//! a **power-of-two** per-tensor scale so that float values that are already dyadic
//! rationals with enough headroom (integers in `[-127, 127]` in particular) quantize
//! *exactly* — the foundation of the integer-exact equivalence guarantee below.
//!
//! # Threading
//!
//! Every kernel runs on the calling thread. In serving that is one of `radar-serve`'s
//! inference workers, which are the one source of inference parallelism: a split of
//! one kernel call across scoped threads lost to a single thread on every measured
//! shape (`docs/KERNELS.md` §6).
//!
//! # Summation order and equivalence guarantees
//!
//! All kernels accumulate every output element in a fixed order independent of
//! blocking. For [`gemm_f32`] that order is strictly ascending `k` (bit-identical to
//! the naive product). For the integer kernels the accumulator is `i32` and integer
//! addition is associative, so *any* order yields the same sums; the requantization
//! epilogue then performs at most three `f32` roundings per output element (the
//! `i32 → f32` widen, `* scale`, `+ bias`). Consequences, all property-tested:
//!
//! * at unit scale with no bias, both integer kernels equal the widen-to-`i32`
//!   textbook reference exactly (every sum below 2²⁴ widens to `f32` exactly);
//! * with integer-exact weights (unit scale) and integer activations, the requantized
//!   output is **bit-identical** to the float oracle;
//! * under general scales each output is within one rounding step (±1 ulp per `f32`
//!   operation) of the real-valued product.

/// Rows of the right-hand operand per cache panel of [`gemm_f32`] (the `k` blocking
/// factor).
const BLOCK_K: usize = 256;

/// Columns of the right-hand operand per cache panel of [`gemm_f32`] (the `n`
/// blocking factor).
///
/// One float panel is at most `BLOCK_K * BLOCK_N` floats (256 KiB) — sized to sit in
/// a typical L2 while every row of the left operand streams over it.
const BLOCK_N: usize = 256;

/// Fixed width of the vectorizable inner loops of the integer kernels.
///
/// The GEMM's register tile is this many output columns wide, and [`dot_i8`] keeps
/// this many lane accumulators, so the compiler sees a constant trip count with no
/// bounds checks and vectorizes the widening `i8×i8 → i32` multiply-accumulate.
const LANES: usize = 16;

/// Maximum reduction depth `k` the integer kernels accept.
///
/// Every `i8×i8` product has magnitude at most `128 × 128 = 16384` (and fits in
/// `i16` — which is what lets the inner loop multiply in 16-bit lanes), so an `i32`
/// accumulator is safe for any `k` up to `i32::MAX / 16384` — the same headroom
/// argument the paper's integer-accumulator datapath makes. All kernels assert this
/// bound.
pub const MAX_GEMM_K: usize = (i32::MAX as usize) / (128 * 128);

/// Accepts only `threads == 1`: the integer kernels are single-threaded and run on
/// the calling serve worker. The function does nothing else; it survives only
/// because the benchmark package calls `set_gemm_threads(1)`, and it goes away with
/// the next benchmark revision.
///
/// # Panics
///
/// Panics, naming the value, for any `threads` other than 1.
pub fn set_gemm_threads(threads: usize) {
    assert!(
        threads == 1,
        "set_gemm_threads({threads}): the integer kernels are single-threaded; only 1 is accepted"
    );
}

/// Quantizes a float activation slice to `i8` with a **power-of-two** per-tensor
/// scale: `float ≈ i8 * scale`, `scale = 2^e` the smallest power of two with
/// `127 * scale >= max|x|`.
///
/// Rounding is round-half-away-from-zero ([`f32::round`]) with a clamp to
/// `[-127, 127]`. Because the scale is a power of two, any input that is a dyadic
/// rational with magnitude at most `127 * scale` is represented *exactly* — in
/// particular integer-valued activations in `[-127, 127]` round-trip bit-exactly,
/// which is what makes the integer pipeline's exact-equivalence guarantee testable.
///
/// An all-zero slice gets scale `1.0` so dequantization stays well defined.
///
/// # Example
///
/// ```
/// use radar_tensor::quantize_activations;
///
/// let (q, scale) = quantize_activations(&[0.5, -1.0, 2.0]);
/// assert_eq!(scale, 0.03125); // 2^-5: smallest power of two with 127*s >= 2.0
/// assert_eq!(q, vec![16, -32, 64]); // 0.5/s, -1.0/s, 2.0/s — all exact
/// assert!((q[0] as f32 * scale - 0.5).abs() == 0.0);
/// ```
///
/// # Panics
///
/// Panics if any activation is non-finite.
pub fn quantize_activations(x: &[f32]) -> (Vec<i8>, f32) {
    let max_abs = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    assert!(max_abs.is_finite(), "activations must be finite");
    if max_abs == 0.0 {
        return (vec![0; x.len()], 1.0);
    }
    // Smallest power of two with 127 * scale >= max_abs, found exactly in a few
    // halvings/doublings (no log2 rounding subtleties, stays out of denormals).
    let mut scale = 1.0f32;
    while 127.0 * scale < max_abs {
        scale *= 2.0;
    }
    while scale > f32::MIN_POSITIVE * 2.0 && 127.0 * (scale * 0.5) >= max_abs {
        scale *= 0.5;
    }
    let recip = 1.0 / scale; // exact: scale is a power of two
    let q = x
        .iter()
        .map(|&v| (v * recip).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (q, scale)
}

/// `C(m×n) = A(m×k) × B(k×n)` over row-major slices, blocked for cache reuse.
///
/// The float oracle kernel: bit-identical to the naive `i-k-j` triple loop — each
/// output element accumulates its `k` products in ascending order; blocking only
/// reorders *which* elements are worked on when, never the additions into one
/// element. Zero elements of `A` are skipped (adding `0.0 * b` never changes a
/// finite sum, and activation matrices are often ReLU-sparse). This is the reference
/// the integer kernels are measured against.
///
/// # Example
///
/// ```
/// // (1×2) × (2×2): [1, 2] × [[1, 0], [0, 1]] = [1, 2]
/// let c = radar_tensor::gemm_f32(&[1.0, 2.0], &[1.0, 0.0, 0.0, 1.0], 1, 2, 2);
/// assert_eq!(c, vec![1.0, 2.0]);
/// ```
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `k*n`.
pub fn gemm_f32(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "lhs length {} != {m}x{k}", a.len());
    assert_eq!(b.len(), k * n, "rhs length {} != {k}x{n}", b.len());
    let mut out = vec![0.0f32; m * n];
    for jc in (0..n).step_by(BLOCK_N) {
        let nc = BLOCK_N.min(n - jc);
        for pc in (0..k).step_by(BLOCK_K) {
            let kc = BLOCK_K.min(k - pc);
            for i in 0..m {
                let a_panel = &a[i * k + pc..i * k + pc + kc];
                let out_row = &mut out[i * n + jc..i * n + jc + nc];
                for (p, &a_ip) in a_panel.iter().enumerate() {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let b_row = &b[(pc + p) * n + jc..(pc + p) * n + jc + nc];
                    for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a_ip * b_pj;
                    }
                }
            }
        }
    }
    out
}

/// Number of column tiles the `i8` GEMM core has executed — one increment per
/// 16-column tile of the right-hand operand per `gemm_i8_panel` invocation (a ragged
/// last tile included); every weight row of the call runs over each tile. Gated by
/// the process-global observability level ([`radar_obs::set_global_level`]); at
/// `Off` each kernel call pays one relaxed load and a branch.
pub static GEMM_PANELS: radar_obs::GlobalCounter = radar_obs::GlobalCounter::new();

/// Number of `i8` GEMM entry-point calls ([`gemm_i8_requant`] /
/// [`linear_i8_requant`]), gated like [`GEMM_PANELS`].
pub static GEMM_CALLS: radar_obs::GlobalCounter = radar_obs::GlobalCounter::new();

/// Output columns per register tile of the integer GEMM: one row of a tile is
/// [`LANES`] `i32` accumulators.
const TILE_N: usize = LANES;

/// Weight rows per register tile: a `TILE_M × TILE_N` `i32` accumulator block
/// (8 AVX2 registers) stays in registers across the whole reduction.
const TILE_M: usize = 4;

/// Accumulates the `R × TILE_N` register tile `W[rows] × X[:, c..c + TILE_N]` over
/// the whole reduction and returns it. `w_rows` holds `R` weight rows of `k`
/// elements; `x` is the full `k × n` right-hand operand.
///
/// Each `k` step loads one 16-byte row segment of `X`, sign-extends it once, and
/// multiplies it by each of the `R` broadcast weights. The product is formed in
/// `i16` — any `i8×i8` product fits (`|−128 × −128| = 16384 < 32767`) — then widened
/// into the `i32` lane. The tile is written back by the caller once, after the last
/// `k`: no accumulator traffic inside the loop.
#[inline(always)]
fn gemm_i8_tile<const R: usize>(
    w_rows: &[i8],
    x: &[i8],
    k: usize,
    n: usize,
    c: usize,
) -> [[i32; TILE_N]; R] {
    let w_rows: [&[i8]; R] = std::array::from_fn(|r| &w_rows[r * k..(r + 1) * k]);
    let mut tile = [[0i32; TILE_N]; R];
    for p in 0..k {
        let xs: &[i8; TILE_N] = x[p * n + c..p * n + c + TILE_N]
            .try_into()
            .expect("tile segment is TILE_N wide");
        for (acc, w_row) in tile.iter_mut().zip(&w_rows) {
            let wv = w_row[p] as i16;
            for (a, &b) in acc.iter_mut().zip(xs) {
                *a += (wv * b as i16) as i32;
            }
        }
    }
    tile
}

/// Accumulates `W(rows×k) × X(k×n)` into `acc` (`rows × n`, row-major) — the one
/// integer GEMM kernel behind [`gemm_i8_requant`].
///
/// For each [`TILE_N`]-column tile of `X` and each block of [`TILE_M`] weight rows it
/// runs [`gemm_i8_tile`], holding the accumulator block in registers across the
/// whole `k`, and stores it once. Leftover rows run as one-row tiles. A ragged last
/// column tile (`n` not a multiple of [`TILE_N`]) is first copied into a zero-padded
/// `k × TILE_N` strip, so the same tile code runs on it and only its real columns
/// are stored.
fn gemm_i8_panel(w: &[i8], x: &[i8], rows: usize, k: usize, n: usize, acc: &mut [i32]) {
    debug_assert_eq!(w.len(), rows * k);
    debug_assert_eq!(acc.len(), rows * n);
    GEMM_PANELS.add(n.div_ceil(TILE_N) as u64);
    let mut padded: Vec<i8>;
    for j in (0..n).step_by(TILE_N) {
        let width = TILE_N.min(n - j);
        // The tile's operand (`k × nt`, read from column `ct`): `X` itself, or for a
        // ragged last tile its columns copied into a zero-padded `k × TILE_N` strip.
        let (xt, nt, ct) = if width == TILE_N {
            (x, n, j)
        } else {
            padded = vec![0i8; k * TILE_N];
            for (dst, src) in padded.chunks_exact_mut(TILE_N).zip(x.chunks_exact(n)) {
                dst[..width].copy_from_slice(&src[j..j + width]);
            }
            (padded.as_slice(), TILE_N, 0)
        };
        let mut store = |i: usize, row: &[i32; TILE_N]| {
            acc[i * n + j..i * n + j + width].copy_from_slice(&row[..width]);
        };
        let mut i = 0;
        while i + TILE_M <= rows {
            let tile = gemm_i8_tile::<TILE_M>(&w[i * k..(i + TILE_M) * k], xt, k, nt, ct);
            for (r, row) in tile.iter().enumerate() {
                store(i + r, row);
            }
            i += TILE_M;
        }
        for i in i..rows {
            let [row] = gemm_i8_tile::<1>(&w[i * k..(i + 1) * k], xt, k, nt, ct);
            store(i, &row);
        }
    }
}

/// Validates a per-row requantization scale slice (`1` = uniform, or one scale per
/// output row) and returns a lookup closure.
fn row_scale(scales: &[f32], rows: usize) -> impl Fn(usize) -> f32 + '_ {
    assert!(
        scales.len() == 1 || scales.len() == rows,
        "requantization needs 1 or {rows} scales, got {}",
        scales.len()
    );
    move |i| {
        if scales.len() == 1 {
            scales[0]
        } else {
            scales[i]
        }
    }
}

/// Requantizes one accumulator row: `out[j] = acc[j] as f32 * scale + bias`.
///
/// At most three `f32` roundings per element — the `i32 → f32` widen (exact below
/// 2²⁴), the scale multiply, the bias add — the stated rounding contract of the
/// integer pipeline (`docs/KERNELS.md` §5), property-tested against an `f64`
/// reference in `tests/gemm_equivalence.rs`.
#[inline]
fn requant_row(acc: &[i32], out: &mut [f32], scale: f32, bias: f32) {
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = a as f32 * scale + bias;
    }
}

/// `C(m×n) = requantize(W(m×k) × X(k×n))` — the quantized-native convolution
/// kernel: `i8` weight matrix × `i8` activation matrix, `i32` accumulation in
/// register tiles, then a per-row epilogue `C[i][j] = acc * scales[i] + bias[i]`.
///
/// `scales` holds either one uniform scale or one per output row (per output
/// channel — the layout per-channel quantization will use); for the current
/// per-tensor scheme the caller folds `weight_scale * activation_scale` into it.
/// `bias` is an optional per-row addend, fused so no separate bias pass touches the
/// output again.
///
/// # Example
///
/// ```
/// use radar_tensor::gemm_i8_requant;
///
/// // (2×2) × (2×1), per-row scales [0.5, 2.0], bias [1.0, -1.0]:
/// // row 0: (1*10 + 2*100) * 0.5 + 1.0 = 106.0
/// // row 1: (3*10 + 4*100) * 2.0 - 1.0 = 859.0
/// let c = gemm_i8_requant(&[1, 2, 3, 4], &[10, 100], 2, 2, 1,
///                         &[0.5, 2.0], Some(&[1.0, -1.0]));
/// assert_eq!(c, vec![106.0, 859.0]);
/// ```
///
/// # Panics
///
/// Panics if slice lengths do not match `m*k`/`k*n`, `k` exceeds [`MAX_GEMM_K`],
/// `scales` is neither 1 nor `m` long, or `bias` (when given) is not `m` long.
pub fn gemm_i8_requant(
    w: &[i8],
    x: &[i8],
    m: usize,
    k: usize,
    n: usize,
    scales: &[f32],
    bias: Option<&[f32]>,
) -> Vec<f32> {
    assert_eq!(w.len(), m * k, "weight length {} != {m}x{k}", w.len());
    assert_eq!(x.len(), k * n, "rhs length {} != {k}x{n}", x.len());
    assert!(k <= MAX_GEMM_K, "k={k} overflows the i32 accumulator");
    GEMM_CALLS.add(1);
    let scale_of = row_scale(scales, m);
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "bias length {} != {m} output rows", b.len());
    }
    let mut out = vec![0.0f32; m * n];
    if m * n == 0 {
        return out;
    }
    let mut acc = vec![0i32; m * n];
    gemm_i8_panel(w, x, m, k, n, &mut acc);
    for (i, (acc_row, out_row)) in acc.chunks_exact(n).zip(out.chunks_exact_mut(n)).enumerate() {
        requant_row(acc_row, out_row, scale_of(i), bias.map_or(0.0, |b| b[i]));
    }
    out
}

/// `i8×i8 → i32` dot product over two contiguous rows, in [`LANES`]-wide tiles.
///
/// Uses one accumulator per lane summed at the end: integer addition is
/// associative, so the result is exactly the sequential sum while the tiles
/// autovectorize.
#[inline]
fn dot_i8(x: &[i8], w: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), w.len());
    let mut lanes = [0i32; LANES];
    let mut x_tiles = x.chunks_exact(LANES);
    let mut w_tiles = w.chunks_exact(LANES);
    for (a, b) in (&mut x_tiles).zip(&mut w_tiles) {
        for l in 0..LANES {
            // i16 product (always fits), widened into the i32 lane accumulator —
            // the same shape as the GEMM's register tile.
            lanes[l] += (a[l] as i16 * b[l] as i16) as i32;
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&a, &b) in x_tiles.remainder().iter().zip(w_tiles.remainder()) {
        acc += a as i32 * b as i32;
    }
    acc
}

/// `C(rows×m) = requantize(X(rows×k) × W(m×k)ᵀ)` — the quantized-native
/// fully-connected kernel over quantized activations `X` and `i8` weights `W` in
/// their natural `(out, in)` storage order.
///
/// Each output element is an `i8×i8 → i32` dot product of an activation row with a
/// weight row (both contiguous — no transpose, no copy), requantized in the epilogue
/// as `C[i][j] = dot * scales[j] + bias[j]`. `scales`/`bias` are indexed by the
/// weight row `j` (the output feature), mirroring [`gemm_i8_requant`]'s
/// per-output-channel layout.
///
/// # Example
///
/// ```
/// use radar_tensor::linear_i8_requant;
///
/// // x(1×3) × W(2×3)ᵀ at uniform scale 1 with bias [0.5, -0.5]:
/// // y0 = 1*1 + 2*0 + 3*(-1) + 0.5 = -1.5 ; y1 = 1*2 + 2*1 + 3*0 - 0.5 = 3.5
/// let y = linear_i8_requant(&[1, 2, 3], &[1, 0, -1, 2, 1, 0], 1, 3, 2,
///                           &[1.0], Some(&[0.5, -0.5]));
/// assert_eq!(y, vec![-1.5, 3.5]);
/// ```
///
/// # Panics
///
/// Panics if slice lengths do not match `rows*k`/`m*k`, `k` exceeds
/// [`MAX_GEMM_K`], `scales` is neither 1 nor `m` long, or `bias` (when given) is
/// not `m` long.
pub fn linear_i8_requant(
    x: &[i8],
    w: &[i8],
    rows: usize,
    k: usize,
    m: usize,
    scales: &[f32],
    bias: Option<&[f32]>,
) -> Vec<f32> {
    assert_eq!(
        x.len(),
        rows * k,
        "activation length {} != {rows}x{k}",
        x.len()
    );
    assert_eq!(w.len(), m * k, "weight length {} != {m}x{k}", w.len());
    assert!(k <= MAX_GEMM_K, "k={k} overflows the i32 accumulator");
    GEMM_CALLS.add(1);
    let scale_of = row_scale(scales, m);
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "bias length {} != {m} output features", b.len());
    }
    let mut out = vec![0.0f32; rows * m];
    if k == 0 || rows == 0 || m == 0 {
        for (i, o) in out.iter_mut().enumerate() {
            *o = bias.map_or(0.0, |b| b[i % m.max(1)]);
        }
        return out;
    }
    for (x_row, out_row) in x.chunks_exact(k).zip(out.chunks_exact_mut(m)) {
        for (j, o) in out_row.iter_mut().enumerate() {
            let dot = dot_i8(x_row, &w[j * k..(j + 1) * k]);
            *o = dot as f32 * scale_of(j) + bias.map_or(0.0, |b| b[j]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook float reference: `i-k-j` accumulation, no blocking.
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

    /// The widen-to-i32 integer reference.
    fn naive_i32(w: &[i8], x: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                let w_ip = w[i * k + p] as i32;
                for j in 0..n {
                    out[i * n + j] += w_ip * x[p * n + j] as i32;
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matches_naive_on_small_and_ragged_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 300, 9), (2, 513, 300)] {
            let a: Vec<f32> = (0..m * k).map(|v| ((v % 13) as f32 - 6.0) * 0.25).collect();
            let b: Vec<f32> = (0..k * n).map(|v| ((v % 7) as f32 - 3.0) * 0.5).collect();
            assert_eq!(
                gemm_f32(&a, &b, m, k, n),
                naive(&a, &b, m, k, n),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn integer_gemm_matches_widened_reference() {
        // Unit scale, no bias: every sum here is below 2^24, so it widens to f32
        // exactly and the requantized output equals the integer reference.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 300, 9),
            (2, 513, 37),
            (5, 64, 260),
        ] {
            let w: Vec<i8> = (0..m * k)
                .map(|v| ((v * 7) % 255) as i32 as u8 as i8)
                .collect();
            let x: Vec<i8> = (0..k * n)
                .map(|v| ((v * 13 + 5) % 251) as u8 as i8)
                .collect();
            let want: Vec<f32> = naive_i32(&w, &x, m, k, n)
                .iter()
                .map(|&v| v as f32)
                .collect();
            assert_eq!(
                gemm_i8_requant(&w, &x, m, k, n, &[1.0], None),
                want,
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn requant_applies_per_row_scale_and_bias() {
        let w = [2i8, -3, 0, 1];
        let x = [1i8, 2, -1, 3];
        // W(2x2) × X(2x2): row 0 = [2*1-3*(-1), 2*2-3*3] = [5, -5]; row 1 = [-1, 3].
        let out = gemm_i8_requant(&w, &x, 2, 2, 2, &[0.5, 2.0], Some(&[1.0, -1.0]));
        assert_eq!(out, vec![3.5, -1.5, -3.0, 5.0]);
    }

    #[test]
    fn uniform_scale_broadcasts() {
        let w = [1i8, 1, 1, 1];
        let x = [1i8, 1, 1, 1];
        let uniform = gemm_i8_requant(&w, &x, 2, 2, 2, &[0.25], None);
        let per_row = gemm_i8_requant(&w, &x, 2, 2, 2, &[0.25, 0.25], None);
        assert_eq!(uniform, per_row);
    }

    #[test]
    fn linear_matches_transposed_integer_reference() {
        let (rows, k, m) = (4, 130, 3);
        let x: Vec<i8> = (0..rows * k).map(|v| ((v * 9) % 251) as u8 as i8).collect();
        let w: Vec<i8> = (0..m * k)
            .map(|v| ((v * 5 + 2) % 255) as u8 as i8)
            .collect();
        // Reference: the widened integer loop on transposed weights.
        let mut wt = vec![0i8; k * m];
        for j in 0..m {
            for p in 0..k {
                wt[p * m + j] = w[j * k + p];
            }
        }
        let reference = naive_i32(&x, &wt, rows, k, m);
        let got = linear_i8_requant(&x, &w, rows, k, m, &[1.0], None);
        let want: Vec<f32> = reference.iter().map(|&v| v as f32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn quantize_activations_is_exact_on_integers() {
        let x = [3.0f32, -100.0, 0.0, 64.0, -1.0];
        let (q, scale) = quantize_activations(&x);
        for (&orig, &qq) in x.iter().zip(q.iter()) {
            assert_eq!(qq as f32 * scale, orig, "integer input must round-trip");
        }
    }

    #[test]
    fn quantize_activations_uses_power_of_two_scales() {
        for max in [0.3f32, 1.0, 2.5, 100.0, 127.0, 1000.0] {
            let (_, scale) = quantize_activations(&[max, -max * 0.5]);
            assert!(scale > 0.0);
            // A power of two has an exact reciprocal and log2.
            assert_eq!(
                scale.log2().fract(),
                0.0,
                "scale {scale} not a power of two"
            );
            assert!(127.0 * scale >= max, "range must cover max abs");
            assert!(127.0 * scale * 0.5 < max || scale <= f32::MIN_POSITIVE * 2.0);
        }
    }

    #[test]
    fn quantize_activations_handles_zero_slice() {
        let (q, scale) = quantize_activations(&[0.0, 0.0]);
        assert_eq!(q, vec![0, 0]);
        assert_eq!(scale, 1.0);
    }

    #[test]
    #[should_panic(expected = "set_gemm_threads(2)")]
    fn set_gemm_threads_accepts_one_and_panics_naming_any_other_count() {
        set_gemm_threads(1);
        set_gemm_threads(2);
    }

    #[test]
    #[should_panic(expected = "lhs length")]
    fn mismatched_lengths_panic() {
        gemm_f32(&[1.0], &[1.0, 2.0], 1, 2, 1);
    }

    #[test]
    #[should_panic(expected = "requantization needs")]
    fn wrong_scale_count_panics() {
        gemm_i8_requant(&[1, 1], &[1], 2, 1, 1, &[1.0, 1.0, 1.0], None);
    }
}
