//! Dense tensor substrate for the column-combining reproduction.
//!
//! The paper's pipeline (Kung, McDanel, Zhang — ASPLOS 2019) treats every
//! convolutional layer as a matrix–matrix multiplication between a *filter
//! matrix* and a *data matrix* (paper Fig. 1b). This crate provides:
//!
//! * [`Tensor`] — a minimal row-major NCHW `f32` tensor with shape checking,
//! * [`Matrix`] — a 2-D view specialization used for filter matrices,
//! * [`matmul`] / [`matmul_acc`] / [`matmul_acc_terms`] — a
//!   single-threaded, register-tiled GEMM whose summation order is fixed:
//!   per output element, the nonzero terms of `a` in ascending `k`, each a
//!   separate multiply and add (training results are pinned bit for bit on
//!   it), with [`RowTerms`] to compact a reused left operand once,
//! * [`pool`] — a bounded thread-local free list of tensor buffers, so a
//!   training step reuses last step's memory instead of the allocator's,
//! * [`quant`] — the paper's linear 8-bit fixed-point quantization (§2.5)
//!   with 16/32-bit integer accumulation semantics that the bit-serial
//!   systolic arrays implement exactly,
//! * [`isa`] — the workspace's one vector-level dispatch (baseline / AVX2),
//!   which the systolic lane kernel and the deployed engine's peripheral
//!   blocks all run through, and its two audited `unsafe` exceptions: the
//!   dispatch call and the token-gated AVX2 intrinsics the lane kernel's
//!   AVX2 body is written in,
//! * [`init`] — deterministic weight initializers.
//!
//! # Examples
//!
//! ```
//! use cc_tensor::{Matrix, matmul};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
//! let c = matmul(&a, &b);
//! assert_eq!(c.get(0, 0), 19.0);
//! ```

pub mod init;
pub mod isa;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod quant;
pub mod shape;
pub mod tensor;

pub use matrix::Matrix;
pub use ops::{matmul, matmul_acc, matmul_acc_terms, matmul_into, transpose, RowTerms};
pub use shape::Shape;
pub use tensor::Tensor;
