#![warn(missing_docs)]

//! # meshfree-autodiff
//!
//! The automatic-differentiation engine of the workspace — the substitute for
//! JAX in the paper's Python stack. Two engines:
//!
//! 1. **Forward mode** ([`Dual`], [`Dual2`]): scalar dual numbers carrying
//!    first (and second) derivatives. These auto-derive the differential
//!    operators `∂x`, `∂y`, `∇²` of any radial basis function `φ(r)` written
//!    generically over the [`Scalar`] trait — exactly the role `jax.grad`
//!    plays in Updec's operator definitions, letting users "effortlessly
//!    choose or design new functions φ".
//! 2. **Reverse mode** ([`tape::Tape`], [`tape::TVar`]): the tensor tape
//!    behind differentiable programming (DP) and the PINNs. Whole-array
//!    nodes (matmul, elementwise maps, reductions, concatenation) plus a
//!    **differentiable linear solve** whose forward pass caches an LU
//!    factorization and whose backward pass runs the adjoint solves
//!    `b̄ = A⁻ᵀ x̄`, `Ā = −b̄ x̄ᵀ` — the same custom VJP JAX registers for
//!    `jnp.linalg.solve`, and the key to differentiating *through* a PDE
//!    solver (discretise-then-optimise).
//!
//! Second-order information needs no third engine: the Laplace control
//! problem is linear-quadratic, so its exact Hessian-vector product is a
//! closed form of two solves (`pde::LaplaceControlProblem::hvp`).
//!
//! [`gradcheck`] provides central-finite-difference verification used
//! pervasively in the tests.

pub mod dual;
pub mod gradcheck;
pub mod scalar;
pub mod tape;
pub mod tensor;

pub use dual::{derivative, derivative2, Dual, Dual2};
pub use scalar::Scalar;
pub use tape::{TVar, Tape};
pub use tensor::Tensor;
