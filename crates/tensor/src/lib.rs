//! # vrdag-tensor
//!
//! Dense `f32` matrices, reverse-mode automatic differentiation, and the
//! neural-network building blocks needed to reproduce the VRDAG model
//! (*Efficient Dynamic Attributed Graph Generation*, ICDE 2025) without any
//! external ML framework.
//!
//! The crate is organized as:
//!
//! * [`matrix`] — row-major dense [`Matrix`] and its kernels (one
//!   register-blocked matmul behind `A·B`, `A·Bᵀ` and `Aᵀ·B`, reductions).
//! * [`autograd`] — the define-by-run tape: [`Tensor`], [`no_grad`],
//!   [`Tensor::backward`].
//! * [`ops`] — differentiable operations, including the graph-specific
//!   primitives the paper's encoder/decoder need: CSR neighbor aggregation
//!   ([`ops::spmm_sum`]) and per-destination softmax
//!   ([`ops::segment_softmax`]) for GAT attention.
//! * [`math`] — `exp` and `tanh` for `f32` in plain IEEE-754 operations,
//!   with the same bits on every host, and their 8-lane slice kernels.
//! * [`nn`] — `Linear`, `Mlp`, `GruCell`, activations.
//! * [`optim`] — Adam / SGD and global-norm gradient clipping.
//! * [`par`] — scoped-thread helpers used by the hot kernels.
//! * [`simd`] — the runtime instruction-set selection (baseline or AVX2)
//!   behind the dispatched kernels.
//! * [`testing`] — finite-difference gradient checking, shared by the tests
//!   of every downstream crate.
//!
//! ## Example
//!
//! ```
//! use vrdag_tensor::{Matrix, Tensor, ops, nn, optim};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mlp = nn::Mlp::new(&[2, 8, 1], nn::Activation::Tanh, nn::Activation::Identity, &mut rng);
//! let x = Tensor::constant(Matrix::from_vec(4, 2, vec![0.,0., 0.,1., 1.,0., 1.,1.]));
//! let y = std::rc::Rc::new(Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]));
//! let mut adam = optim::Adam::new(0.05);
//! let params = mlp.parameters();
//! for _ in 0..50 {
//!     optim::zero_grad(&params);
//!     let loss = ops::mse_loss(&mlp.forward(&x), y.clone());
//!     loss.backward();
//!     adam.step(&params);
//! }
//! ```

pub mod autograd;
pub mod math;
pub mod matrix;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod par;
pub mod simd;
pub mod testing;

pub use autograd::{grad_enabled, no_grad, Tensor};
pub use matrix::Matrix;
