#![warn(missing_docs)]

//! # meshfree-nn
//!
//! Neural networks on the tensor tape: the machinery behind the PINN
//! strategy (paper §2.3).
//!
//! The crate is organised around the [`Module`] trait — shared flat-vector
//! parameter plumbing (storage, tape registration, gradient flattening) —
//! with one concrete network on top:
//!
//! * [`Mlp`]: a fully connected network. [`Mlp::forward`] tapes the
//!   weights (training mode); [`Mlp::forward_taylor`] additionally
//!   propagates batched first and second *input* derivatives through every
//!   layer (Taylor-mode forward differentiation built out of ordinary tape
//!   ops), so a PINN's PDE residual is itself a tape node and one reverse
//!   sweep yields exact `∇_θ` of the whole physics loss.
//!
//! The NeuralOp surrogate needs no network: the Laplace control-to-flux
//! map is affine, so `control::surrogate` fits it exactly by least
//! squares.

pub mod mlp;
pub mod module;

pub use mlp::{Activation, Mlp, MlpParams, TaylorBatch};
pub use module::Module;
