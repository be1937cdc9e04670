#![warn(missing_docs)]

//! # meshfree-pde
//!
//! PDE problems and solvers built on the RBF substrate:
//!
//! * [`analytic`] — closed-form references: the paper's printed Laplace
//!   minimiser, the *self-consistent* Fourier-series minimiser of the
//!   paper's problem (7) (see the module docs for the discrepancy), and the
//!   Poiseuille profile.
//! * [`laplace`] — the Laplace optimal-control substrate (paper §3.1):
//!   global RBF collocation on the unit square, control on the top wall,
//!   factored once and solved many times; both a plain solver and a
//!   tape-recorded (differentiable) solver.
//! * [`ns`] — steady incompressible Navier–Stokes in the channel
//!   (paper §3.2) via a Chorin-inspired projection iteration on nodal RBF
//!   differentiation matrices; plain solver.
//! * [`ns_dp`] — the same iteration recorded on the autodiff tensor tape:
//!   differentiable through all `k` refinements (the memory-hungry DP path
//!   of Table 3).
//! * [`ns_adjoint`] — the hand-derived continuous adjoint Navier–Stokes
//!   equations for DAL, discretised with the same coupled machinery.
//! * [`heat`] — the time-dependent extension (the paper's stated future
//!   work): implicit-Euler heat-equation control, DP through the whole
//!   march with one shared factorization.

pub mod advdiff;
pub mod analytic;
pub mod heat;
pub mod laplace;
pub mod ns;
pub mod ns_adjoint;
pub mod ns_dp;
pub mod poisson;

pub use laplace::LaplaceControlProblem;
pub use ns::{NsConfig, NsSolver, NsState, NsWorkspace};
