//! # vrdag-baselines
//!
//! Mechanism-level reimplementations of every baseline the VRDAG paper
//! compares against. Each keeps the defining algorithmic skeleton and cost
//! structure of its original (walks stay walks, autoregression stays
//! autoregressive) at reduced neural capacity, so quality and wall-time
//! comparisons keep their shape:
//!
//! | Baseline | Original | Kind | Attributes |
//! |----------|----------|------|-----------|
//! | [`TagGenLike`]  | KDD 2020      | temporal walks + discriminator + merge | no |
//! | [`TgganLike`]   | WWW 2021      | truncated time-valid walks             | no |
//! | [`TiggerLike`]  | AAAI 2022     | pretrained walk sampler + point process| no |
//! | [`DymondLike`]  | WWW 2021      | motif arrival rates (memory-bounded)   | no |
//! | [`GranLike`]    | NeurIPS 2019  | blockwise autoregressive (static)      | no |
//! | [`GenCatLike`]  | Inf. Sys. 2023| class/attribute proportions (static)   | yes |
//! | [`NormalBaseline`] | — (Fig. 3) | fitted iid normal attributes           | yes |
//!
//! All implement [`vrdag_graph::DynamicGraphGenerator`], the same trait as
//! the VRDAG model itself, so the bench harness can sweep them uniformly.

pub mod dymond;
pub mod gencat;
pub mod gran;
pub mod merge;
pub mod normal;
pub mod taggen;
pub mod tggan;
pub mod tigger;
pub mod walks;

pub use dymond::{DymondConfig, DymondLike};
pub use gencat::{GenCatConfig, GenCatLike};
pub use gran::{GranConfig, GranLike};
pub use normal::NormalBaseline;
pub use taggen::{TagGenConfig, TagGenLike};
pub use tggan::{TgganConfig, TgganLike};
pub use tigger::{TiggerConfig, TiggerLike};
