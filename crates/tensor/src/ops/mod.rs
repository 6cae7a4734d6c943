//! Differentiable operations on [`Tensor`](crate::Tensor)s.
//!
//! Every op builds the forward value eagerly and registers a backward
//! closure with the tape (unless gradients are disabled). Ops are grouped by
//! family; all are re-exported flat from this module so call sites read
//! `ops::matmul(&a, &b)`.

mod elementwise;
mod linalg;
mod losses;
mod reduce;
mod sparse;
mod structural;

pub use elementwise::{
    add, add_row, add_scalar, clamp, div, exp, leaky_relu, ln_eps, mul, mul_col, mul_scalar_t, neg,
    one_minus, powf, relu, scale, sigmoid, softmax_rows, sub, tanh,
};
pub use linalg::matmul;
pub use losses::{bce_probs, cosine_rows, kl_diag_gaussian, mse_loss};
pub use reduce::{mean_all, sum_all, sum_cols, sum_rows};
pub use sparse::{segment_softmax, spmm_sum, Segments, SparseAdj};
pub use structural::{concat_cols, gather_rows, row_differences, scatter_add_rows};
