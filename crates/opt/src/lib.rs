#![warn(missing_docs)]

//! # meshfree-opt
//!
//! Optimizers shared by all three control strategies.
//!
//! The paper uses **Adam everywhere** — "for all our DAL, PINN, and DP
//! experiments, we used the Adam optimiser", noting that, while unusual for
//! DAL/DP, "Adam helped increase robustness to noisy gradients at
//! boundaries due to the Runge phenomenon". The learning-rate schedule is
//! the paper's piecewise-constant decay: "the initial learning rate was
//! divided by 10 after half the iterations or epochs, and again by 10 at
//! 75 % completion."
//!
//! Beyond the paper: the Laplace problem's closed-form Hessian-vector
//! product (`pde::LaplaceControlProblem::hvp`, one forward and one
//! transpose solve) gives *exact* curvature through the discretised
//! solver, so [`NewtonCg`] (trust-region Newton) and [`Lbfgs`]
//! (two-loop recursion) can cut iteration counts by an order of magnitude
//! on the smooth PDE control objectives. Newton-CG forms the reduced
//! Hessian explicitly from `n` probes per step and runs CG on that
//! matrix, which suits the small boundary controls of the Laplace
//! problems. Both plug into the same
//! [`Optimizer`] trait through the [`Optimizer::step_with_curvature`] hook;
//! Adam stays the paper-faithful default everywhere.

pub mod adam;
pub mod lbfgs;
pub mod newton_cg;
pub mod schedule;
pub mod sgd;

pub use adam::Adam;
pub use lbfgs::Lbfgs;
pub use newton_cg::NewtonCg;
pub use schedule::Schedule;
pub use sgd::Sgd;

use linalg::DVec;

/// Curvature and trial-cost information a second-order optimizer may query
/// at the current iterate.
///
/// Both methods return `None` on failure (solver breakdown, non-finite
/// values); optimizers must degrade gracefully — [`NewtonCg`] and [`Lbfgs`]
/// fall back to an lr-scaled gradient step. Implementations must be
/// deterministic: identical queries in identical order yield bitwise
/// identical answers, preserving the pool-width-invariance contract of the
/// run loops.
pub trait CurvatureOracle {
    /// Exact Hessian-vector product `H(x)·v` at the current iterate.
    fn hvp(&mut self, v: &DVec) -> Option<DVec>;
    /// Objective value at an arbitrary trial point.
    fn cost_at(&mut self, c: &DVec) -> Option<f64>;
    /// The `n` Hessian columns `H(x)·e_j`, `j = 0..n`, at the current
    /// iterate, or `None` if any probe fails. The default is
    /// [`probe_hessian`], one [`CurvatureOracle::hvp`] per unit vector in
    /// order. Oracles that can batch the probes override it and must
    /// return exactly the bits of that loop.
    fn hessian(&mut self, n: usize) -> Option<Vec<DVec>> {
        probe_hessian(self, n)
    }
}

/// The `n` Hessian columns from `n` [`CurvatureOracle::hvp`] probes along
/// the unit vectors, in order; `None` at the first failed probe. This is
/// the default [`CurvatureOracle::hessian`], exposed so overrides can
/// fall back on it and tests can compare against it.
pub fn probe_hessian<O: CurvatureOracle + ?Sized>(oracle: &mut O, n: usize) -> Option<Vec<DVec>> {
    (0..n).map(|j| oracle.hvp(&DVec::unit(n, j))).collect()
}

/// An optimizer over a flat parameter vector.
pub trait Optimizer {
    /// Applies one update step given the gradient at the current point.
    fn step(&mut self, params: &mut DVec, grad: &DVec);
    /// Steps taken so far.
    fn iteration(&self) -> usize;
    /// The learning rate that the *next* step will use.
    fn current_lr(&self) -> f64;
    /// Whether [`Optimizer::step_with_curvature`] actually consumes the
    /// oracle. First-order methods return `false` (the default) and callers
    /// may skip building an oracle entirely.
    fn uses_curvature(&self) -> bool {
        false
    }
    /// One update step with access to the objective value at the current
    /// point and a curvature oracle. The default ignores both and delegates
    /// to [`Optimizer::step`], so first-order optimizers are unchanged.
    fn step_with_curvature(
        &mut self,
        params: &mut DVec,
        cost: f64,
        grad: &DVec,
        oracle: &mut dyn CurvatureOracle,
    ) {
        let _ = (cost, oracle);
        self.step(params, grad);
    }
}

/// Which optimizer a run should use — a campaign hyperparameter like the
/// learning rate. Adam is the paper-faithful default; the second-order
/// options consume exact Hessian-vector products through
/// [`CurvatureOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizerKind {
    /// Adam with the paper's piecewise-constant decay (the default).
    #[default]
    Adam,
    /// Trust-region Newton: Steihaug CG on the explicit reduced Hessian,
    /// probed once per step.
    NewtonCg,
    /// Limited-memory BFGS with two-loop recursion and Armijo backtracking.
    Lbfgs,
}

impl OptimizerKind {
    /// Every kind, in report order.
    pub const ALL: [OptimizerKind; 3] = [
        OptimizerKind::Adam,
        OptimizerKind::NewtonCg,
        OptimizerKind::Lbfgs,
    ];

    /// Stable lowercase name, used in run identifiers and ledgers.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerKind::Adam => "adam",
            OptimizerKind::NewtonCg => "newton-cg",
            OptimizerKind::Lbfgs => "lbfgs",
        }
    }

    /// Whether this kind needs a [`CurvatureOracle`] at step time.
    pub fn is_second_order(&self) -> bool {
        !matches!(self, OptimizerKind::Adam)
    }

    /// Builds the optimizer for `n` parameters. `lr` is Adam's base rate
    /// (with the paper's decay over `iterations`) and the second-order
    /// methods' fallback/first-step scale.
    pub fn build(&self, n: usize, lr: f64, iterations: usize) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Adam => Box::new(Adam::new(n, Schedule::paper_decay(lr, iterations))),
            OptimizerKind::NewtonCg => Box::new(NewtonCg::new(lr)),
            OptimizerKind::Lbfgs => Box::new(Lbfgs::new(lr)),
        }
    }
}
