#![warn(missing_docs)]

//! # meshfree-control
//!
//! The paper's contribution layer: the three optimal-control strategies —
//! **DAL** (direct-adjoint looping), **DP** (differentiable programming) and
//! **PINN** (physics-informed neural networks with the two-step ω line
//! search) — plus the **NeuralOp** amortized surrogate (an exact affine
//! control-to-flux fit to one batched forward solve, frozen, then
//! optimized through) — driven over the
//! Laplace and Navier–Stokes substrates from `meshfree-pde`, with Adam and
//! the paper's learning-rate schedule from `meshfree-opt`, plus the
//! instrumentation (wall time, peak-allocation tracking, convergence
//! histories) behind the Table 3 reproduction.
//!
//! Experiment configurations mirror the paper's Tables 1 and 2; every
//! run returns a [`metrics::RunReport`] with the full convergence history
//! so the bench binaries can regenerate each figure.
//!
//! [`api`] is the one entry point: declare a run with [`api::RunSpec`]'s
//! builders
//! (`RunSpec::laplace().strategy(Strategy::Dal).iterations(200).seed(7).build()`),
//! execute it with [`api::execute`] (or [`api::execute_on`] against a
//! problem you built), and match on [`api::ControlError`] for failures.
//! Every strategy but the PINN maps to one [`api::ControlObjective`] and
//! runs through [`api::optimize_ctx`], the one optimizer loop, so DAL, DP,
//! finite differences and the NeuralOp surrogate share the same Adam
//! schedule. NeuralOp runs follow the train/freeze/optimize lifecycle in
//! [`surrogate`] and end with a DP audit re-solve of the surrogate's final
//! control.

pub mod api;
pub mod metrics;
pub mod ns;
pub mod pinn;
pub mod pinn_ns;
pub mod surrogate;
pub mod validate;

pub use api::{
    execute, execute_ctx, execute_on, BackendKind, BuiltProblem, ControlError, ControlObjective,
    OptimizeOpts, OptimizerKind, Problem, ProblemSpec, RunCtx, RunSpec, SpecRun, Strategy,
};
pub use metrics::{ConvergenceHistory, RunReport};
pub use surrogate::{LaplaceSurrogate, SurrogateObjective, SurrogateSpec};

// End-to-end Laplace runs through `api::execute_on`.
#[cfg(test)]
mod laplace;
