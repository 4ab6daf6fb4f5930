//! Minimal CPU tensor library used by the RADAR reproduction.
//!
//! This crate provides an owned, contiguous, row-major `f32` [`Tensor`] with the small
//! set of operations that the neural-network substrate ([`radar-nn`]) needs: elementwise
//! arithmetic, 2-D matrix multiplication, im2col/col2im lowering for convolutions and
//! pooling helpers. It intentionally avoids views, broadcasting rules beyond the simple
//! cases used here and generic element types; the goal is a dependable, easy-to-audit
//! substrate rather than a general array library.
//!
//! The [`gemm`](self) kernels behind the inference hot path live in the `gemm`
//! module: the float oracle [`gemm_f32`] and the true-integer quantized-native
//! kernels ([`gemm_i8`], [`gemm_i8_requant`], [`linear_i8_requant`],
//! [`quantize_activations`]) — i8×i8 products accumulated in `i32` with per-row
//! requantization, threaded via [`gemm_threads`]. See `docs/KERNELS.md` at the
//! repository root for the full execution-path architecture.
//!
//! # Example
//!
//! ```
//! use radar_tensor::Tensor;
//!
//! # fn main() -> Result<(), radar_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```
//!
//! [`radar-nn`]: https://example.com/radar-repro

mod conv;
mod error;
mod gemm;
mod ops;
mod shape;
mod tensor;

pub use conv::{col2im, im2col, im2col_i8, Conv2dGeometry};
pub use error::TensorError;
pub use gemm::{
    gemm_f32, gemm_i8, gemm_i8_requant, gemm_threads, linear_i8_requant, parse_gemm_threads,
    quantize_activations, set_gemm_threads, GEMM_CALLS, GEMM_PANELS, MAX_GEMM_K,
};
pub use shape::Shape;
pub use tensor::Tensor;
