//! GEMM kernels for the inference hot path — float for the oracle, true-integer for
//! the quantized-native path.
//!
//! Three entry points cover every matrix product on the forward path:
//!
//! * [`gemm_f32`] — the float kernel behind [`Tensor::matmul`](crate::Tensor::matmul):
//!   `C(m×n) = A(m×k) × B(k×n)` over row-major slices, blocked over `k` and `n` so one
//!   panel of `B` stays cache-resident while every row of `A` sweeps it. This is the
//!   *oracle* kernel — single-threaded, bit-identical to the textbook triple loop.
//! * [`gemm_i8_requant`] — the quantized-native convolution kernel: an `i8` weight
//!   matrix times an `i8` quantized-activation matrix, every product accumulated in
//!   `i32` ([`gemm_i8`] is the accumulate-only version), with per-row requantization
//!   (scale multiply + bias add) in the epilogue. Both run one register-tiled kernel:
//!   a 4-row × 16-column block of `i32` accumulators held in registers across the
//!   whole reduction. **No `f32` multiply exists in the inner loop** — the paper's
//!   integer-accumulator datapath.
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
//! The two integer kernels split their output rows (or, for a convolution with fewer
//! rows than workers, its output columns) across `std::thread::scope` workers. The
//! count comes from the caller; [`gemm_threads`] resolves the `RADAR_GEMM_THREADS`
//! environment knob (and an in-process override, [`set_gemm_threads`], used by the
//! benchmarks). Every output element is computed by exactly one worker with the same
//! accumulation order as the single-threaded kernel, and integer arithmetic is exact,
//! so **threaded and single-threaded runs are bit-identical** — pinned by the
//! property tests in `tests/gemm_equivalence.rs`.
//!
//! # Summation order and equivalence guarantees
//!
//! All kernels accumulate every output element in a fixed order independent of
//! blocking and threading. For [`gemm_f32`] that order is strictly ascending `k`
//! (bit-identical to the naive product). For the integer kernels the accumulator is
//! `i32` and integer addition is associative, so *any* order yields the same sums;
//! the requantization epilogue then performs at most three `f32` roundings per
//! output element (the `i32 → f32` widen, `* scale`, `+ bias`). Consequences, all
//! property-tested:
//!
//! * [`gemm_i8`] equals the widen-to-`i32` textbook reference exactly;
//! * with integer-exact weights (unit scale) and integer activations, the requantized
//!   output is **bit-identical** to the float oracle;
//! * under general scales each output is within one rounding step (±1 ulp per `f32`
//!   operation) of the real-valued product.

use std::env::VarError;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// In-process override for [`gemm_threads`]; `0` means "no override".
static GEMM_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (non-zero) or clears (zero) the in-process worker-count override consulted by
/// [`gemm_threads`], taking precedence over `RADAR_GEMM_THREADS`.
///
/// The benchmarks use this to sweep a thread axis within one process; everything
/// else should prefer the environment knob.
///
/// # Example
///
/// ```
/// radar_tensor::set_gemm_threads(2);
/// assert_eq!(radar_tensor::gemm_threads(), 2);
/// radar_tensor::set_gemm_threads(0); // back to the environment / default
/// ```
pub fn set_gemm_threads(threads: usize) {
    // relaxed: standalone config cell; readers need the value, not an ordering.
    GEMM_THREADS_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Worker-thread count for the integer GEMM kernels.
///
/// Resolution order: the [`set_gemm_threads`] override, then the
/// `RADAR_GEMM_THREADS` environment variable (parsed by [`parse_gemm_threads`] and
/// resolved to its largest entry, `0` meaning 1), then `1` (single-threaded — the
/// bit-identical fallback). The serving engine runs several inference workers of its
/// own, so GEMM-level threading is opt-in rather than defaulting to every core.
///
/// # Panics
///
/// Panics, naming the variable and its value, when `RADAR_GEMM_THREADS` is set but
/// malformed: a typo fails the run instead of silently running single-threaded.
///
/// # Example
///
/// ```
/// // Without the env knob or an override the kernels run single-threaded.
/// radar_tensor::set_gemm_threads(0);
/// if std::env::var("RADAR_GEMM_THREADS").is_err() {
///     assert_eq!(radar_tensor::gemm_threads(), 1);
/// }
/// ```
pub fn gemm_threads() -> usize {
    // relaxed: standalone config cell; readers need the value, not an ordering.
    let over = GEMM_THREADS_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    let raw = match std::env::var("RADAR_GEMM_THREADS") {
        Ok(raw) => raw,
        Err(VarError::NotPresent) => return 1,
        Err(VarError::NotUnicode(raw)) => panic!("RADAR_GEMM_THREADS={raw:?}: not valid unicode"),
    };
    let threads =
        parse_gemm_threads(&raw).unwrap_or_else(|e| panic!("RADAR_GEMM_THREADS={raw:?}: {e}"));
    threads.into_iter().max().unwrap_or(1).max(1)
}

/// Parses a `RADAR_GEMM_THREADS` value: a comma-separated list of non-negative
/// decimal integers, digits only (`4`, `2,4`). [`gemm_threads`] runs the kernels at
/// the largest entry; `bench_infer` sweeps every entry as its thread axis.
///
/// # Errors
///
/// Returns why the first malformed entry was rejected.
pub fn parse_gemm_threads(raw: &str) -> Result<Vec<usize>, String> {
    raw.split(',')
        .map(|entry| {
            if entry.is_empty() || !entry.bytes().all(|b| b.is_ascii_digit()) {
                return Err(format!(
                    "expected comma-separated non-negative integers, got {entry:?}"
                ));
            }
            entry.parse().map_err(|e| format!("{entry:?}: {e}"))
        })
        .collect()
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
/// finite sum, and activation matrices are often ReLU-sparse). Single-threaded by
/// design: this is the reference the threaded integer kernels are measured against.
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

/// Number of `i8` GEMM entry-point calls ([`gemm_i8`] / [`gemm_i8_requant`] /
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

/// Accumulates `W(rows×k) × X(k×n)` restricted to output columns
/// `[col0, col0 + ncols)` into `acc` (`rows × ncols`, row-major) — the one integer
/// GEMM kernel behind [`gemm_i8`], [`gemm_i8_requant`] and both thread splits.
///
/// For each [`TILE_N`]-column tile of the window and each block of [`TILE_M`] weight
/// rows it runs [`gemm_i8_tile`], holding the accumulator block in registers across
/// the whole `k`, and stores it once. Leftover rows run as one-row tiles. A ragged
/// last column tile (window width not a multiple of [`TILE_N`]) is first copied into
/// a zero-padded `k × TILE_N` strip, so the same tile code runs on it and only its
/// real columns are stored.
#[allow(clippy::too_many_arguments)] // a GEMM signature: operands, dims, column window
fn gemm_i8_panel(
    w: &[i8],
    x: &[i8],
    rows: usize,
    k: usize,
    n: usize,
    col0: usize,
    ncols: usize,
    acc: &mut [i32],
) {
    debug_assert_eq!(w.len(), rows * k);
    debug_assert_eq!(acc.len(), rows * ncols);
    GEMM_PANELS.add(ncols.div_ceil(TILE_N) as u64);
    let mut padded: Vec<i8>;
    for j in (0..ncols).step_by(TILE_N) {
        let width = TILE_N.min(ncols - j);
        // The tile's operand (`k × nt`, read from column `ct`): `X` itself, or for a
        // ragged last tile its columns copied into a zero-padded `k × TILE_N` strip.
        let (xt, nt, ct) = if width == TILE_N {
            (x, n, col0 + j)
        } else {
            padded = vec![0i8; k * TILE_N];
            for (dst, src) in padded.chunks_exact_mut(TILE_N).zip(x.chunks_exact(n)) {
                dst[..width].copy_from_slice(&src[col0 + j..col0 + j + width]);
            }
            (padded.as_slice(), TILE_N, 0)
        };
        let mut store = |i: usize, row: &[i32; TILE_N]| {
            acc[i * ncols + j..i * ncols + j + width].copy_from_slice(&row[..width]);
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

/// `C(m×n) = W(m×k) × X(k×n)` with both operands `i8` and every product accumulated
/// in `i32` — the raw integer GEMM, before requantization.
///
/// This is the paper's accelerator datapath: two's-complement 8-bit values straight
/// from DRAM feed a widening multiplier with a 32-bit accumulator. Integer
/// arithmetic is exact, so the result equals the widen-to-`i32` textbook triple loop
/// bit for bit (property-tested in `tests/gemm_equivalence.rs`).
///
/// # Example
///
/// ```
/// // (2×2) × (2×2) identity: rows come back unchanged, exactly.
/// let c = radar_tensor::gemm_i8(&[3, -7, 127, 1], &[1, 0, 0, 1], 2, 2, 2);
/// assert_eq!(c, vec![3, -7, 127, 1]);
/// ```
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `k*n`, or if `k` exceeds
/// [`MAX_GEMM_K`] (the `i32` accumulator headroom bound).
pub fn gemm_i8(w: &[i8], x: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(w.len(), m * k, "weight length {} != {m}x{k}", w.len());
    assert_eq!(x.len(), k * n, "rhs length {} != {k}x{n}", x.len());
    assert!(k <= MAX_GEMM_K, "k={k} overflows the i32 accumulator");
    GEMM_CALLS.add(1);
    let mut acc = vec![0i32; m * n];
    gemm_i8_panel(w, x, m, k, n, 0, n, &mut acc);
    acc
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

/// Splits `total` into `parts` contiguous near-even chunk lengths.
fn chunk_lengths(total: usize, parts: usize) -> Vec<usize> {
    let parts = parts.clamp(1, total.max(1));
    let base = total / parts;
    let rem = total % parts;
    (0..parts)
        .map(|i| base + usize::from(i < rem))
        .filter(|&l| l > 0)
        .collect()
}

/// `C(m×n) = requantize(W(m×k) × X(k×n))` — the quantized-native convolution
/// kernel: `i8` weight matrix × `i8` activation matrix, `i32` accumulation (the
/// [`gemm_i8`] kernel), then a per-row epilogue `C[i][j] = acc * scales[i] + bias[i]`.
///
/// `scales` holds either one uniform scale or one per output row (per output
/// channel — the layout per-channel quantization will use); for the current
/// per-tensor scheme the caller folds `weight_scale * activation_scale` into it.
/// `bias` is an optional per-row addend, fused so no separate bias pass touches the
/// output again.
///
/// Work is split across `threads` scoped workers: over blocks of output rows when `m`
/// is large enough, otherwise over blocks of output columns. Every output element is
/// produced by exactly one worker with the same exact integer accumulation, so the
/// result is **bit-identical for every thread count** — see the module docs.
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
///                         &[0.5, 2.0], Some(&[1.0, -1.0]), 1);
/// assert_eq!(c, vec![106.0, 859.0]);
/// ```
///
/// # Panics
///
/// Panics if slice lengths do not match `m*k`/`k*n`, `k` exceeds [`MAX_GEMM_K`],
/// `scales` is neither 1 nor `m` long, `bias` (when given) is not `m` long, or
/// `threads` is zero.
#[allow(clippy::too_many_arguments)] // a GEMM signature: operands, dims, epilogue, threads
pub fn gemm_i8_requant(
    w: &[i8],
    x: &[i8],
    m: usize,
    k: usize,
    n: usize,
    scales: &[f32],
    bias: Option<&[f32]>,
    threads: usize,
) -> Vec<f32> {
    assert_eq!(w.len(), m * k, "weight length {} != {m}x{k}", w.len());
    assert_eq!(x.len(), k * n, "rhs length {} != {k}x{n}", x.len());
    assert!(k <= MAX_GEMM_K, "k={k} overflows the i32 accumulator");
    assert!(threads > 0, "thread count must be non-zero");
    GEMM_CALLS.add(1);
    let scale_of = row_scale(scales, m);
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "bias length {} != {m} output rows", b.len());
    }
    let bias_of = |i: usize| bias.map_or(0.0, |b| b[i]);
    let mut out = vec![0.0f32; m * n];
    if m * n == 0 {
        return out;
    }

    if threads == 1 || (m < 2 && n < 2 * LANES) {
        let mut acc = vec![0i32; m * n];
        gemm_i8_panel(w, x, m, k, n, 0, n, &mut acc);
        for i in 0..m {
            requant_row(
                &acc[i * n..(i + 1) * n],
                &mut out[i * n..(i + 1) * n],
                scale_of(i),
                bias_of(i),
            );
        }
        return out;
    }

    if m >= threads {
        // Row split: each worker owns a contiguous block of output rows (a
        // contiguous region of `out`), accumulates it and requantizes in place.
        let lens = chunk_lengths(m, threads);
        std::thread::scope(|scope| {
            let mut rest = out.as_mut_slice();
            let mut row0 = 0usize;
            let scale_of = &scale_of;
            for rows_w in lens {
                let (mine, tail) = rest.split_at_mut(rows_w * n);
                rest = tail;
                let w_rows = &w[row0 * k..(row0 + rows_w) * k];
                let r0 = row0;
                scope.spawn(move || {
                    let mut acc = vec![0i32; rows_w * n];
                    gemm_i8_panel(w_rows, x, rows_w, k, n, 0, n, &mut acc);
                    for i in 0..rows_w {
                        requant_row(
                            &acc[i * n..(i + 1) * n],
                            &mut mine[i * n..(i + 1) * n],
                            scale_of(r0 + i),
                            bias_of(r0 + i),
                        );
                    }
                });
                row0 += rows_w;
            }
        });
    } else {
        // Column split (few output rows, e.g. a narrow conv layer): each worker
        // produces a requantized (m × ncols) block which is stitched afterwards.
        let lens = chunk_lengths(n, threads);
        let mut blocks: Vec<(usize, usize, Vec<f32>)> = Vec::with_capacity(lens.len());
        std::thread::scope(|scope| {
            let mut col0 = 0usize;
            let scale_of = &scale_of;
            let handles: Vec<_> = lens
                .into_iter()
                .map(|ncols| {
                    let c0 = col0;
                    col0 += ncols;
                    scope.spawn(move || {
                        let mut acc = vec![0i32; m * ncols];
                        gemm_i8_panel(w, x, m, k, n, c0, ncols, &mut acc);
                        let mut block = vec![0.0f32; m * ncols];
                        for i in 0..m {
                            requant_row(
                                &acc[i * ncols..(i + 1) * ncols],
                                &mut block[i * ncols..(i + 1) * ncols],
                                scale_of(i),
                                bias_of(i),
                            );
                        }
                        (c0, ncols, block)
                    })
                })
                .collect();
            blocks.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("gemm column worker panicked")),
            );
        });
        for (c0, ncols, block) in blocks {
            for i in 0..m {
                out[i * n + c0..i * n + c0 + ncols]
                    .copy_from_slice(&block[i * ncols..(i + 1) * ncols]);
            }
        }
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
/// per-output-channel layout. Activation rows are split across `threads` scoped
/// workers; the result is bit-identical for every thread count (integer
/// accumulation is exact; see the module docs).
///
/// # Example
///
/// ```
/// use radar_tensor::linear_i8_requant;
///
/// // x(1×3) × W(2×3)ᵀ at uniform scale 1 with bias [0.5, -0.5]:
/// // y0 = 1*1 + 2*0 + 3*(-1) + 0.5 = -1.5 ; y1 = 1*2 + 2*1 + 3*0 - 0.5 = 3.5
/// let y = linear_i8_requant(&[1, 2, 3], &[1, 0, -1, 2, 1, 0], 1, 3, 2,
///                           &[1.0], Some(&[0.5, -0.5]), 1);
/// assert_eq!(y, vec![-1.5, 3.5]);
/// ```
///
/// # Panics
///
/// Panics if slice lengths do not match `rows*k`/`m*k`, `k` exceeds
/// [`MAX_GEMM_K`], `scales` is neither 1 nor `m` long, `bias` (when given) is not
/// `m` long, or `threads` is zero.
#[allow(clippy::too_many_arguments)] // a GEMM signature: operands, dims, epilogue, threads
pub fn linear_i8_requant(
    x: &[i8],
    w: &[i8],
    rows: usize,
    k: usize,
    m: usize,
    scales: &[f32],
    bias: Option<&[f32]>,
    threads: usize,
) -> Vec<f32> {
    assert_eq!(
        x.len(),
        rows * k,
        "activation length {} != {rows}x{k}",
        x.len()
    );
    assert_eq!(w.len(), m * k, "weight length {} != {m}x{k}", w.len());
    assert!(k <= MAX_GEMM_K, "k={k} overflows the i32 accumulator");
    assert!(threads > 0, "thread count must be non-zero");
    GEMM_CALLS.add(1);
    let scale_of = row_scale(scales, m);
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "bias length {} != {m} output features", b.len());
    }
    let mut out = vec![0.0f32; rows * m];
    let kernel = |x_rows: &[i8], out_rows: &mut [f32]| {
        for (x_row, out_row) in x_rows
            .chunks_exact(k.max(1))
            .zip(out_rows.chunks_exact_mut(m))
        {
            for (j, o) in out_row.iter_mut().enumerate() {
                let dot = dot_i8(x_row, &w[j * k..(j + 1) * k]);
                *o = dot as f32 * scale_of(j) + bias.map_or(0.0, |b| b[j]);
            }
        }
    };
    if k == 0 || rows == 0 || m == 0 {
        for (i, o) in out.iter_mut().enumerate() {
            *o = bias.map_or(0.0, |b| b[i % m.max(1)]);
        }
        return out;
    }
    let threads = threads.min(rows);
    if threads <= 1 {
        kernel(x, &mut out);
        return out;
    }
    let lens = chunk_lengths(rows, threads);
    std::thread::scope(|scope| {
        let mut x_rest = x;
        let mut out_rest = out.as_mut_slice();
        let kernel = &kernel;
        for rows_w in lens {
            let (x_mine, x_tail) = x_rest.split_at(rows_w * k);
            let (out_mine, out_tail) = out_rest.split_at_mut(rows_w * m);
            x_rest = x_tail;
            out_rest = out_tail;
            scope.spawn(move || kernel(x_mine, out_mine));
        }
    });
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
            assert_eq!(
                gemm_i8(&w, &x, m, k, n),
                naive_i32(&w, &x, m, k, n),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn requant_applies_per_row_scale_and_bias() {
        let w = [2i8, -3, 0, 1];
        let x = [1i8, 2, -1, 3];
        // W(2x2) × X(2x2): row 0 = [2*1-3*(-1), 2*2-3*3] = [5, -5]; row 1 = [-1, 3].
        let out = gemm_i8_requant(&w, &x, 2, 2, 2, &[0.5, 2.0], Some(&[1.0, -1.0]), 1);
        assert_eq!(out, vec![3.5, -1.5, -3.0, 5.0]);
    }

    #[test]
    fn uniform_scale_broadcasts() {
        let w = [1i8, 1, 1, 1];
        let x = [1i8, 1, 1, 1];
        let uniform = gemm_i8_requant(&w, &x, 2, 2, 2, &[0.25], None, 1);
        let per_row = gemm_i8_requant(&w, &x, 2, 2, 2, &[0.25, 0.25], None, 1);
        assert_eq!(uniform, per_row);
    }

    #[test]
    fn threaded_gemm_is_bit_identical_row_and_column_split() {
        // m=7 ≥ threads → row split; m=2 < threads → column split.
        for &(m, k, n) in &[(7usize, 130usize, 300usize), (2, 70, 513)] {
            let w: Vec<i8> = (0..m * k).map(|v| ((v * 11) % 255) as u8 as i8).collect();
            let x: Vec<i8> = (0..k * n)
                .map(|v| ((v * 3 + 1) % 253) as u8 as i8)
                .collect();
            let scales: Vec<f32> = (0..m).map(|i| 0.01 + i as f32 * 0.003).collect();
            let bias: Vec<f32> = (0..m).map(|i| i as f32 - 1.5).collect();
            let single = gemm_i8_requant(&w, &x, m, k, n, &scales, Some(&bias), 1);
            for threads in [2usize, 3, 4, 5] {
                let multi = gemm_i8_requant(&w, &x, m, k, n, &scales, Some(&bias), threads);
                assert_eq!(single, multi, "{m}x{k}x{n} @ {threads} threads");
            }
        }
    }

    #[test]
    fn linear_matches_transposed_integer_reference() {
        let (rows, k, m) = (4, 130, 3);
        let x: Vec<i8> = (0..rows * k).map(|v| ((v * 9) % 251) as u8 as i8).collect();
        let w: Vec<i8> = (0..m * k)
            .map(|v| ((v * 5 + 2) % 255) as u8 as i8)
            .collect();
        // Reference via gemm_i8 on transposed weights.
        let mut wt = vec![0i8; k * m];
        for j in 0..m {
            for p in 0..k {
                wt[p * m + j] = w[j * k + p];
            }
        }
        let reference = naive_i32(&x, &wt, rows, k, m);
        let got = linear_i8_requant(&x, &w, rows, k, m, &[1.0], None, 1);
        let want: Vec<f32> = reference.iter().map(|&v| v as f32).collect();
        assert_eq!(got, want);
        for threads in [2usize, 3, 7] {
            assert_eq!(
                linear_i8_requant(&x, &w, rows, k, m, &[1.0], None, threads),
                want,
                "{threads} threads"
            );
        }
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
    fn gemm_threads_honors_override() {
        set_gemm_threads(3);
        assert_eq!(gemm_threads(), 3);
        set_gemm_threads(0);
    }

    #[test]
    fn gemm_thread_lists_parse_strictly() {
        assert_eq!(parse_gemm_threads("0"), Ok(vec![0]));
        assert_eq!(parse_gemm_threads("4"), Ok(vec![4]));
        assert_eq!(parse_gemm_threads("2,4"), Ok(vec![2, 4]));
        for bad in [
            "",
            "x",
            "2,x",
            "2,",
            ",2",
            "2, 4",
            " 2",
            "-1",
            "+3",
            "99999999999999999999999",
        ] {
            let err = parse_gemm_threads(bad).expect_err(bad);
            assert!(!err.is_empty(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "lhs length")]
    fn mismatched_lengths_panic() {
        gemm_f32(&[1.0], &[1.0, 2.0], 1, 2, 1);
    }

    #[test]
    #[should_panic(expected = "requantization needs")]
    fn wrong_scale_count_panics() {
        gemm_i8_requant(&[1, 1], &[1], 2, 1, 1, &[1.0, 1.0, 1.0], None, 1);
    }
}
