//! The unified strategy façade for optimal-control runs.
//!
//! The paper pitches its framework as "a robust yet flexible tool to
//! quickly prototype models and control them under various conditions",
//! and its headline contribution is a side-by-side comparison of DAL, DP
//! and PINN on the *same* mesh-free substrate. This module is that seam in
//! code form:
//!
//! * [`RunSpec`] declares one run — problem × [`Strategy`] × seed ×
//!   hyperparameters — through a builder
//!   (`RunSpec::laplace().strategy(Strategy::Dal).iterations(200).seed(7).build()`),
//!   and [`execute`] maps it to one [`ControlObjective`] (the PINN
//!   trainers aside) and runs that through [`optimize_ctx`], the one
//!   optimizer loop, so every strategy sees the same Adam schedule.
//! * [`ControlError`] is the single error type every public `control` and
//!   `driver` function returns (previously raw `LinalgError` leaked from
//!   every signature).
//! * [`RunCtx`] threads a [`CancelToken`] plus divergence checking through
//!   the optimizer loops, so the campaign driver can impose wall-clock
//!   deadlines and abort runs cooperatively.
//! * [`ControlObjective`] remains the low-level plug-in trait: anything
//!   that reports a cost and gradient runs under the same Adam loop via
//!   [`optimize`].

use crate::metrics::{ConvergenceHistory, RunReport, Timer};
use crate::pinn::{LaplacePinn, PinnConfig};
use crate::pinn_ns::{NsPinn, NsPinnConfig};
use crate::surrogate::{LaplaceSurrogate, SurrogateObjective, SurrogateSpec};
use geometry::generators::ChannelConfig;
use linalg::{DVec, LinalgError};
// Re-exported: the backend choice is part of the spec surface — campaign
// grids sweep it next to strategy and seed without importing `linalg`.
pub use linalg::BackendKind;
use meshfree_runtime::{trace, CancelToken, Rng64};
use opt::CurvatureOracle;
// Re-exported: the optimizer choice is part of the spec surface — campaign
// grids sweep it next to strategy and seed without importing `opt`.
pub use opt::OptimizerKind;
use pde::heat::HeatControlProblem;
use pde::ns_adjoint::NsAdjoint;
use pde::ns_dp::NsDp;
use pde::{LaplaceControlProblem, NsConfig, NsSolver, NsState, NsWorkspace};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------------
// ControlError
// ---------------------------------------------------------------------------

/// The single error type of the `control` and `driver` layers.
///
/// Wraps the numeric kernel's [`LinalgError`] and adds the run-supervision
/// failures (divergence, timeout, cancellation, bad configuration, ledger
/// I/O) that the campaign driver distinguishes when deciding whether to
/// retry, abort or fail fast.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// A linear-algebra / PDE-solve failure bubbled up from the kernels.
    Linalg(LinalgError),
    /// The cost objective became non-finite (NaN/∞) during optimization.
    Diverged {
        /// Iteration at which the non-finite cost was observed.
        iteration: usize,
        /// The offending cost value (NaN or ±∞).
        cost: f64,
    },
    /// The run's wall-clock deadline expired before it finished.
    Timeout {
        /// Iteration reached when the deadline fired.
        iteration: usize,
        /// Seconds elapsed when the deadline fired.
        elapsed_s: f64,
    },
    /// The run was cancelled cooperatively (e.g. campaign abort).
    Cancelled {
        /// Iteration reached when cancellation was observed.
        iteration: usize,
    },
    /// The run specification is invalid.
    BadConfig(String),
    /// A campaign-ledger I/O or parse failure.
    Ledger {
        /// Ledger file path.
        path: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::Linalg(e) => write!(f, "linear algebra: {e}"),
            ControlError::Diverged { iteration, cost } => {
                write!(f, "diverged at iteration {iteration}: cost = {cost:e}")
            }
            ControlError::Timeout {
                iteration,
                elapsed_s,
            } => write!(
                f,
                "timed out at iteration {iteration} after {elapsed_s:.2} s"
            ),
            ControlError::Cancelled { iteration } => {
                write!(f, "cancelled at iteration {iteration}")
            }
            ControlError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            ControlError::Ledger { path, detail } => {
                write!(f, "ledger {path}: {detail}")
            }
        }
    }
}

impl Error for ControlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ControlError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ControlError {
    fn from(e: LinalgError) -> Self {
        ControlError::Linalg(e)
    }
}

impl ControlError {
    /// True for failures that a damped retry with a perturbed seed can
    /// plausibly cure: an observed non-finite cost or a singular pivot
    /// (the Picard divergence mode).
    pub fn is_divergence(&self) -> bool {
        match self {
            ControlError::Diverged { .. } => true,
            ControlError::Linalg(e) => matches!(e, LinalgError::SingularMatrix { .. }),
            _ => false,
        }
    }

    /// True for failures that no retry can cure and that indicate the whole
    /// grid is misconfigured (the campaign driver fails fast on these).
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            ControlError::BadConfig(_)
                | ControlError::Ledger { .. }
                | ControlError::Linalg(
                    LinalgError::ShapeMismatch { .. } | LinalgError::NotPositiveDefinite { .. }
                )
        )
    }
}

// ---------------------------------------------------------------------------
// RunCtx
// ---------------------------------------------------------------------------

/// Supervision context threaded through every optimizer loop.
///
/// Carries the cooperative [`CancelToken`] (explicit cancel or wall-clock
/// deadline) and the divergence-detection switch. Loops call
/// [`RunCtx::check_iteration`] once per iteration and
/// [`RunCtx::check_cost`] on every fresh cost value; both are no-ops in the
/// common (live, finite) case.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Cooperative stop signal (deadline and/or explicit cancellation).
    pub cancel: CancelToken,
    /// When true, a non-finite cost aborts the run with
    /// [`ControlError::Diverged`]. [`RunCtx::unchecked`] keeps this off to
    /// preserve the historical freeze-and-report behaviour.
    pub check_divergence: bool,
    /// Zero-based attempt index; the campaign driver increments it on each
    /// damped retry (fault-injecting objectives key off it).
    pub attempt: u32,
}

impl RunCtx {
    /// Fresh context: no deadline, no cancellation, divergence checks on.
    pub fn new() -> RunCtx {
        RunCtx {
            cancel: CancelToken::new(),
            check_divergence: true,
            attempt: 0,
        }
    }

    /// Legacy semantics: never stops, never flags divergence. Runs behave
    /// exactly as before this context existed.
    pub fn unchecked() -> RunCtx {
        RunCtx {
            check_divergence: false,
            ..RunCtx::new()
        }
    }

    /// Context for a supervised (campaign) attempt.
    pub fn supervised(cancel: CancelToken, attempt: u32) -> RunCtx {
        RunCtx {
            cancel,
            check_divergence: true,
            attempt,
        }
    }

    /// Polls the cancel token; maps a stop into the matching error.
    pub fn check_iteration(&self, iteration: usize, elapsed_s: f64) -> Result<(), ControlError> {
        use meshfree_runtime::cancel::StopReason;
        match self.cancel.stop_reason() {
            None => Ok(()),
            Some(StopReason::DeadlineExpired) => Err(ControlError::Timeout {
                iteration,
                elapsed_s,
            }),
            Some(StopReason::Cancelled) => Err(ControlError::Cancelled { iteration }),
        }
    }

    /// Flags a non-finite cost as divergence (when checking is enabled).
    pub fn check_cost(&self, iteration: usize, cost: f64) -> Result<(), ControlError> {
        if self.check_divergence && !cost.is_finite() {
            return Err(ControlError::Diverged { iteration, cost });
        }
        Ok(())
    }
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx::new()
    }
}

// ---------------------------------------------------------------------------
// ControlObjective + generic Adam driver
// ---------------------------------------------------------------------------

/// A differentiable control objective `J(c)`.
pub trait ControlObjective {
    /// Number of control degrees of freedom.
    fn n_controls(&self) -> usize;
    /// Cost at `c`.
    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError>;
    /// Cost and gradient at `c` (mutable so implementations may keep warm
    /// state, like the Navier–Stokes flow field).
    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError>;
    /// Display name for reports. Returns `&str` (not `&'static str`) so
    /// campaign-generated objectives can carry grid coordinates in their
    /// names.
    fn name(&self) -> &str {
        "custom"
    }
    /// Initial control (zeros by default).
    fn initial_control(&self) -> DVec {
        DVec::zeros(self.n_controls())
    }
    /// Hessian-vector product `H(c)·v` of the objective this trait
    /// *reports* — the default is a central finite difference of
    /// [`ControlObjective::cost_and_grad`], so the curvature is always
    /// consistent with whatever gradient flavour the objective returns
    /// (exact for DP, the adjoint approximation for DAL). Objectives with
    /// an exact Hessian-vector product override this
    /// ([`LaplaceDpObjective`] does).
    fn hvp(&mut self, c: &DVec, v: &DVec) -> Result<DVec, ControlError> {
        let h = hvp_step(v);
        let mut cp = c.clone();
        cp.axpy(h, v);
        let mut cm = c.clone();
        cm.axpy(-h, v);
        let (_, gp) = self.cost_and_grad(&cp)?;
        let (_, gm) = self.cost_and_grad(&cm)?;
        Ok(DVec::from_fn(c.len(), |i| (gp[i] - gm[i]) / (2.0 * h)))
    }
    /// The Hessian columns `H(c)·e_j`, `j = 0..n`, in order. The default
    /// probes [`ControlObjective::hvp`] once per unit vector; objectives
    /// that can batch the probes override it and must return exactly the
    /// bits of that loop ([`LaplaceDalObjective`] does).
    fn hessian(&mut self, c: &DVec) -> Result<Vec<DVec>, ControlError> {
        let n = c.len();
        (0..n).map(|j| self.hvp(c, &DVec::unit(n, j))).collect()
    }
}

/// Step of the default central-difference [`ControlObjective::hvp`] along
/// `v`.
fn hvp_step(v: &DVec) -> f64 {
    1e-5 / (1.0 + v.norm_inf()).max(1.0)
}

/// Adapter exposing a [`ControlObjective`] as the [`CurvatureOracle`] the
/// second-order optimizers query. Failures collapse to `None` — the
/// optimizers then take their gradient fallback instead of erroring out.
struct ObjectiveOracle<'a> {
    obj: &'a mut dyn ControlObjective,
    x: DVec,
}

impl CurvatureOracle for ObjectiveOracle<'_> {
    fn hvp(&mut self, v: &DVec) -> Option<DVec> {
        self.obj
            .hvp(&self.x, v)
            .ok()
            .filter(|h| !h.has_non_finite())
    }
    fn hessian(&mut self, _n: usize) -> Option<Vec<DVec>> {
        self.obj
            .hessian(&self.x)
            .ok()
            .filter(|cols| cols.iter().all(|h| !h.has_non_finite()))
    }
    fn cost_at(&mut self, c: &DVec) -> Option<f64> {
        self.obj.cost(c).ok().filter(|j| j.is_finite())
    }
}

/// Options for the generic driver.
#[derive(Debug, Clone)]
pub struct OptimizeOpts {
    /// Optimizer iterations.
    pub iterations: usize,
    /// Initial learning rate (Adam applies the paper's schedule on top; the
    /// second-order methods use it for the fallback gradient step).
    pub lr: f64,
    /// History recording stride.
    pub log_every: usize,
    /// Which optimizer drives the loop (Adam is the paper-faithful
    /// default; [`OptimizerKind::NewtonCg`] / [`OptimizerKind::Lbfgs`]
    /// consume the objective's [`ControlObjective::hvp`] / cost oracle).
    pub optimizer: OptimizerKind,
}

impl Default for OptimizeOpts {
    fn default() -> Self {
        OptimizeOpts {
            iterations: 200,
            lr: 1e-2,
            log_every: 10,
            optimizer: OptimizerKind::Adam,
        }
    }
}

impl OptimizeOpts {
    /// Starts a builder pre-loaded with the defaults.
    pub fn builder() -> OptimizeOptsBuilder {
        OptimizeOptsBuilder {
            opts: OptimizeOpts::default(),
        }
    }
}

/// Builder for [`OptimizeOpts`] (all fields default to the historical
/// values, so existing literal-struct call sites keep their behaviour).
#[derive(Debug, Clone)]
pub struct OptimizeOptsBuilder {
    opts: OptimizeOpts,
}

impl OptimizeOptsBuilder {
    /// Adam iterations.
    pub fn iterations(mut self, n: usize) -> Self {
        self.opts.iterations = n;
        self
    }
    /// Initial learning rate.
    pub fn lr(mut self, lr: f64) -> Self {
        self.opts.lr = lr;
        self
    }
    /// History recording stride.
    pub fn log_every(mut self, k: usize) -> Self {
        self.opts.log_every = k.max(1);
        self
    }
    /// Optimizer selection (default [`OptimizerKind::Adam`]).
    pub fn optimizer(mut self, kind: OptimizerKind) -> Self {
        self.opts.optimizer = kind;
        self
    }
    /// Finishes the builder.
    pub fn build(self) -> OptimizeOpts {
        self.opts
    }
}

/// Runs the selected optimizer (Adam + the paper's learning-rate schedule
/// by default) on any objective.
pub fn optimize(
    obj: &mut dyn ControlObjective,
    opts: &OptimizeOpts,
) -> Result<(RunReport, DVec), ControlError> {
    optimize_ctx(obj, opts, &RunCtx::unchecked())
}

/// [`optimize`] under a supervision context (deadline / cancellation /
/// divergence detection). This is the only control optimisation loop:
/// every [`execute`] run but the PINN's goes through it. Each iteration
/// emits one `control` solve event, labelled with the objective's name
/// when that is a [`Strategy::name`] and `custom` otherwise, and the loop
/// stops early once the control goes non-finite (DAL at high Re can blow
/// up, the paper's fig. 4b); the final evaluation then reports that
/// control's cost.
pub fn optimize_ctx(
    obj: &mut dyn ControlObjective,
    opts: &OptimizeOpts,
    ctx: &RunCtx,
) -> Result<(RunReport, DVec), ControlError> {
    let timer = Timer::start();
    let mut c = obj.initial_control();
    let mut optimizer = opts.optimizer.build(c.len(), opts.lr, opts.iterations);
    let second_order = optimizer.uses_curvature();
    // Trace labels are static strings, so a dynamic name maps to "custom".
    let label = Strategy::build(obj.name()).map_or("custom", |s| s.name());
    let mut history = ConvergenceHistory::default();
    for it in 0..opts.iterations {
        ctx.check_iteration(it, timer.elapsed_s())?;
        let (j, g) = obj.cost_and_grad(&c)?;
        ctx.check_cost(it, j)?;
        let g_norm = g.norm_inf();
        trace::solve_event("control", label, it, f64::NAN, j, g_norm);
        if it % opts.log_every == 0 || it + 1 == opts.iterations {
            history.push(it, j, g_norm, timer.elapsed_s());
        }
        if second_order {
            let mut oracle = ObjectiveOracle {
                obj: &mut *obj,
                x: c.clone(),
            };
            optimizer.step_with_curvature(&mut c, j, &g, &mut oracle);
        } else {
            optimizer.step(&mut c, &g);
        }
        if c.has_non_finite() {
            break;
        }
    }
    let final_cost = obj.cost(&c)?;
    ctx.check_cost(opts.iterations, final_cost)?;
    history.push(opts.iterations, final_cost, 0.0, timer.elapsed_s());
    Ok((
        RunReport {
            method: obj.name().to_string(),
            problem: "generic".to_string(),
            iterations: opts.iterations,
            final_cost,
            wall_s: timer.elapsed_s(),
            peak_bytes: crate::metrics::peak_allocated_bytes(),
            history,
        },
        c,
    ))
}

// ---------------------------------------------------------------------------
// Built-in objective adapters
// ---------------------------------------------------------------------------

/// Laplace problem (dense or sparse build) with DP (tape) gradients.
pub struct LaplaceDpObjective<'p>(pub &'p LaplaceControlProblem);

impl ControlObjective for LaplaceDpObjective<'_> {
    fn n_controls(&self) -> usize {
        self.0.n_controls()
    }
    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
        Ok(self.0.cost(c)?)
    }
    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
        Ok(self.0.cost_and_grad_dp(c)?)
    }
    fn name(&self) -> &str {
        "DP"
    }
    /// Exact closed-form HVP: one forward and one transpose solve on the
    /// cached factorization, no finite differencing. The objective is
    /// quadratic, so the Hessian does not depend on `c`.
    fn hvp(&mut self, _c: &DVec, v: &DVec) -> Result<DVec, ControlError> {
        Ok(self.0.hvp(v)?)
    }
}

/// Laplace problem (dense or sparse build) with DAL (continuous adjoint)
/// gradients.
///
/// Under a second-order optimizer the objective steps on the
/// quadrature-weighted adjoint gradient `wᵢ·g(xᵢ)`: the discrete
/// representation of the L² gradient, on the same scale as the discrete
/// Hessian (the raw function-space gradient would overshoot a Newton step
/// by `O(n_c)`). Its curvature is the default central difference of that
/// same weighted gradient, exact here because the DAL gradient is affine
/// in the control, so the Newton system solved is `J_dal p = −g_dal`,
/// whose fixed point is the DAL stationary point. The DAL gradient's
/// boundary components differ from the discrete gradient by Runge-zone
/// discretisation error, which is why the exact DP Hessian would not do.
pub struct LaplaceDalObjective<'p> {
    problem: &'p LaplaceControlProblem,
    weighted: bool,
}

impl<'p> LaplaceDalObjective<'p> {
    /// The DAL objective for a run driven by `optimizer`: Adam steps on
    /// the raw adjoint gradient (the paper's setting), the second-order
    /// kinds on the weighted one.
    pub fn new(problem: &'p LaplaceControlProblem, optimizer: OptimizerKind) -> Self {
        LaplaceDalObjective {
            problem,
            weighted: optimizer.is_second_order(),
        }
    }

    fn weigh(&self, g: DVec) -> DVec {
        if !self.weighted {
            return g;
        }
        let w = self.problem.quad_weights();
        DVec::from_fn(g.len(), |i| w[i] * g[i])
    }
}

impl ControlObjective for LaplaceDalObjective<'_> {
    fn n_controls(&self) -> usize {
        self.problem.n_controls()
    }
    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
        Ok(self.problem.cost(c)?)
    }
    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
        let (j, g) = self.problem.cost_and_grad_dal(c)?;
        Ok((j, self.weigh(g)))
    }
    fn name(&self) -> &str {
        "DAL"
    }
    /// The default probe loop in one batch: all `2·n_c` difference points
    /// go through [`LaplaceControlProblem::cost_and_grad_dal_many`], one
    /// blocked solve pass forward and one adjoint, and the columns equal
    /// `n_c` separate [`ControlObjective::hvp`] probes bit for bit.
    fn hessian(&mut self, c: &DVec) -> Result<Vec<DVec>, ControlError> {
        let n = c.len();
        let units: Vec<DVec> = (0..n).map(|j| DVec::unit(n, j)).collect();
        let mut points = Vec::with_capacity(2 * n);
        for e in &units {
            let h = hvp_step(e);
            for step in [h, -h] {
                let mut x = c.clone();
                x.axpy(step, e);
                points.push(x);
            }
        }
        let grads: Vec<DVec> = self
            .problem
            .cost_and_grad_dal_many(&points)?
            .into_iter()
            .map(|(_, g)| self.weigh(g))
            .collect();
        Ok(grads
            .chunks(2)
            .zip(&units)
            .map(|(pair, e)| {
                let h = hvp_step(e);
                DVec::from_fn(n, |i| (pair[0][i] - pair[1][i]) / (2.0 * h))
            })
            .collect())
    }
}

/// Laplace problem (dense or sparse build) with central finite-difference
/// gradients (the paper's footnote-11 baseline) and the exact closed-form
/// HVP as curvature.
struct LaplaceFdObjective<'p>(&'p LaplaceControlProblem);

impl ControlObjective for LaplaceFdObjective<'_> {
    fn n_controls(&self) -> usize {
        self.0.n_controls()
    }
    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
        Ok(self.0.cost(c)?)
    }
    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
        Ok(self.0.cost_and_grad_fd(c, 1e-6)?)
    }
    fn name(&self) -> &str {
        "FD"
    }
    fn hvp(&mut self, _c: &DVec, v: &DVec) -> Result<DVec, ControlError> {
        Ok(self.0.hvp(v)?)
    }
}

/// Heat-equation terminal control (DP through the time march).
pub struct HeatObjective<'p>(pub &'p HeatControlProblem);

impl ControlObjective for HeatObjective<'_> {
    fn n_controls(&self) -> usize {
        self.0.n_controls()
    }
    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
        Ok(self.0.cost(c)?)
    }
    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
        let (j, g, _) = self.0.cost_and_grad_dp(c)?;
        Ok((j, g))
    }
    fn name(&self) -> &str {
        "heat-dp"
    }
}

/// Navier–Stokes inflow control (paper §3.2, Table 2) with DAL, DP or
/// finite-difference gradients.
///
/// The flow state is warm-started across optimizer iterations, which is
/// what makes small refinement counts (`k = 3` for DAL, `k = 10` for DP)
/// meaningful: the forward solution tracks the slowly-moving control.
/// Finite differences cold-start every perturbation (at least 8
/// refinements) for a consistent `J(c)`. [`ControlObjective::cost`] is the
/// converged warm-started solve (at least 12 refinements) that scores the
/// final control; its state is the run's final flow field.
struct NsObjective<'s> {
    solver: &'s NsSolver,
    strategy: Strategy,
    refinements: usize,
    initial_scale: f64,
    dp: NsDp<'s>,
    dal: NsAdjoint<'s>,
    /// One operator buffer + LU storage recycled across every Picard sweep
    /// and adjoint solve of the run (see `pde::NsWorkspace`).
    ws: NsWorkspace,
    state: Option<NsState>,
    /// Largest tape a DP gradient recorded (bytes).
    peak_tape: usize,
}

impl<'s> NsObjective<'s> {
    fn new(
        solver: &'s NsSolver,
        strategy: Strategy,
        refinements: usize,
        initial_scale: f64,
    ) -> Self {
        NsObjective {
            solver,
            strategy,
            refinements,
            initial_scale,
            dp: NsDp::new(solver),
            dal: NsAdjoint::new(solver),
            ws: solver.workspace(),
            state: None,
            peak_tape: 0,
        }
    }
}

impl ControlObjective for NsObjective<'_> {
    fn n_controls(&self) -> usize {
        self.solver.n_controls()
    }
    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
        let k = self.refinements.max(12);
        let st = self
            .solver
            .solve_with(c, k, self.state.take(), &mut self.ws)?;
        let j = self.solver.cost(&st);
        self.state = Some(st);
        Ok(j)
    }
    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
        let k = self.refinements;
        match self.strategy {
            Strategy::Dal => {
                let (j, g, st) =
                    self.dal
                        .cost_and_grad_with(c, k, self.state.take(), &mut self.ws)?;
                self.state = Some(st);
                Ok((j, g))
            }
            Strategy::FiniteDiff => Ok(self.dp.cost_and_grad_fd(c, k.max(8), 1e-6)?),
            // DP (the PINN and NeuralOp never build this objective).
            _ => {
                let (j, g, stats, st) = self.dp.run(c, k, self.state.as_ref())?;
                self.peak_tape = self.peak_tape.max(stats.tape_bytes);
                self.state = Some(st);
                Ok((j, g))
            }
        }
    }
    fn name(&self) -> &str {
        self.strategy.name()
    }
    fn initial_control(&self) -> DVec {
        crate::ns::initial_control(self.solver).scaled(self.initial_scale)
    }
}

/// A cheap analytic quadratic `J(c) = ½‖c − t‖²` used by the campaign
/// driver's tests and the CI smoke campaign.
///
/// With `poisoned = true` the objective reports NaN costs — a deterministic
/// stand-in for a diverging solve, used to exercise the driver's
/// retry-on-divergence path (the campaign driver sets `poisoned` from the
/// spec's `fail_attempts` and the current attempt index).
pub struct SyntheticObjective {
    target: DVec,
    init: DVec,
    poisoned: bool,
    label: String,
}

impl SyntheticObjective {
    /// `n`-dimensional quadratic with a seed-dependent initial control.
    pub fn new(n: usize, seed: u64, poisoned: bool) -> SyntheticObjective {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut init = vec![0.0; n];
        rng.fill_uniform(&mut init, -0.5..0.5);
        SyntheticObjective {
            target: DVec::from_fn(n, |i| (0.8 * (i as f64 + 1.0)).sin()),
            init: DVec(init),
            poisoned,
            // A dynamic name: exercises `ControlObjective::name -> &str`.
            label: format!("synthetic-n{n}-seed{seed}"),
        }
    }
}

impl ControlObjective for SyntheticObjective {
    fn n_controls(&self) -> usize {
        self.target.len()
    }
    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
        if self.poisoned {
            return Ok(f64::NAN);
        }
        Ok(0.5
            * (0..c.len())
                .map(|i| (c[i] - self.target[i]).powi(2))
                .sum::<f64>())
    }
    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
        if self.poisoned {
            return Ok((f64::NAN, DVec::zeros(c.len())));
        }
        let j = self.cost(c)?;
        let g = DVec::from_fn(c.len(), |i| c[i] - self.target[i]);
        Ok((j, g))
    }
    fn name(&self) -> &str {
        &self.label
    }
    fn initial_control(&self) -> DVec {
        self.init.clone()
    }
}

// ---------------------------------------------------------------------------
// Strategy / ProblemSpec / RunSpec
// ---------------------------------------------------------------------------

/// The paper's three control strategies, plus the finite-difference
/// baseline (footnote 11) and the amortized operator-learning surrogate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Direct-adjoint looping (optimise-then-discretise).
    Dal,
    /// Differentiable programming (discretise-then-optimise).
    Dp,
    /// Central finite differences.
    FiniteDiff,
    /// Physics-informed neural network with the two-step ω strategy.
    Pinn,
    /// Amortized surrogate: fit the affine control-to-flux map once per
    /// build, then optimize the control through the frozen fit and audit
    /// the result with one DP re-solve (see `control::surrogate`).
    NeuralOp,
}

impl Strategy {
    /// All strategies, in the paper's comparison order (surrogate last).
    pub const ALL: [Strategy; 5] = [
        Strategy::Dal,
        Strategy::Dp,
        Strategy::FiniteDiff,
        Strategy::Pinn,
        Strategy::NeuralOp,
    ];

    /// Display name (the report's `method` label; also the token embedded
    /// in derived [`RunSpec::id`]s).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Dal => "DAL",
            Strategy::Dp => "DP",
            Strategy::FiniteDiff => "FD",
            Strategy::Pinn => "PINN",
            Strategy::NeuralOp => "neural-op",
        }
    }

    /// Inverse of [`Strategy::name`] — the same lookup-by-name parity API
    /// that `OptimizerKind::build` provides, used by spec-id parsers (the
    /// serve wire, campaign tooling) instead of ad-hoc string matches.
    pub fn build(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Which PDE substrate a [`RunSpec`] targets, with its build parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSpec {
    /// Laplace boundary control (paper §3.1) on an `nx × nx` cloud.
    Laplace {
        /// Grid resolution per side.
        nx: usize,
        /// Linear-solver backend: `DenseLu` builds the global-collocation
        /// problem (the byte-identical default); `SparseGmres` builds the
        /// RBF-FD discretization, factored once by an envelope LU, which
        /// scales to node counts the dense path cannot reach. Ignored by the PINN
        /// strategy (it never calls the linear solver during training).
        backend: BackendKind,
    },
    /// Navier–Stokes inflow control (paper §3.2).
    NavierStokes {
        /// Target node spacing.
        h: f64,
        /// Reynolds number.
        re: f64,
        /// Blowing/suction slot velocity.
        slot_velocity: f64,
        /// Picard refinements per gradient evaluation.
        refinements: usize,
        /// Scale on the initial parabolic control.
        initial_scale: f64,
        /// Linear-solver backend for the coupled Picard/adjoint systems
        /// (`DenseLu` default; ignored by the PINN strategy).
        backend: BackendKind,
    },
    /// Analytic quadratic used for driver tests / smoke campaigns.
    Synthetic {
        /// Control dimension.
        n_controls: usize,
        /// Number of initial attempts that report NaN costs (fault
        /// injection for the retry path; 0 = healthy).
        fail_attempts: u32,
    },
}

impl ProblemSpec {
    /// Report name of the substrate.
    pub fn name(&self) -> &'static str {
        match self {
            ProblemSpec::Laplace { .. } => "laplace",
            ProblemSpec::NavierStokes { .. } => "navier-stokes",
            ProblemSpec::Synthetic { .. } => "synthetic",
        }
    }

    /// Deterministic cache key over the parameters that determine the
    /// *built* problem (the campaign driver shares one build across every
    /// spec with the same key). Per-run knobs (`refinements`,
    /// `initial_scale`, `fail_attempts`) are deliberately excluded.
    pub fn build_key(&self) -> String {
        // The default dense backend is deliberately suffix-free so every
        // pre-existing run identifier (and ledger key) is unchanged.
        let be = |backend: &BackendKind| match backend {
            BackendKind::DenseLu => String::new(),
            other => format!("-{}", other.name()),
        };
        match self {
            ProblemSpec::Laplace { nx, backend } => {
                format!("laplace-nx{nx}{}", be(backend))
            }
            ProblemSpec::NavierStokes {
                h,
                re,
                slot_velocity,
                backend,
                ..
            } => format!("ns-h{h:e}-re{re:e}-sv{slot_velocity:e}{}", be(backend)),
            ProblemSpec::Synthetic { n_controls, .. } => format!("synthetic-n{n_controls}"),
        }
    }

    /// The linear-solver backend the spec selects ([`BackendKind::DenseLu`]
    /// for the synthetic problem, which has no linear solve).
    pub fn backend(&self) -> BackendKind {
        match self {
            ProblemSpec::Laplace { backend, .. } | ProblemSpec::NavierStokes { backend, .. } => {
                *backend
            }
            ProblemSpec::Synthetic { .. } => BackendKind::DenseLu,
        }
    }
}

/// One declarative run: problem × strategy × seed × hyperparameters.
///
/// Construct through the builders ([`RunSpec::laplace`],
/// [`RunSpec::navier_stokes`], [`RunSpec::synthetic`]); the fields stay
/// public so the campaign driver can perturb `lr` and `seed` on retries.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The PDE substrate and its build parameters.
    pub problem: ProblemSpec,
    /// Which strategy drives the control.
    pub strategy: Strategy,
    /// Optimizer iterations (PINN: step-1 training epochs).
    pub iterations: usize,
    /// Initial learning rate.
    pub lr: f64,
    /// History recording stride.
    pub log_every: usize,
    /// RNG seed (PINN initialisation / synthetic initial control; the
    /// deterministic solver strategies ignore it).
    pub seed: u64,
    /// Optimizer driving the run (Adam is the paper-faithful default and
    /// keeps run identifiers unchanged; the second-order kinds suffix
    /// [`RunSpec::id`] with their name). Supported on the Laplace solver
    /// strategies and the synthetic problem; [`RunSpec::validate`] rejects
    /// second-order Navier–Stokes and PINN specs.
    pub optimizer: OptimizerKind,
    /// PINN cost weight ω (ignored by the solver strategies).
    pub omega: f64,
    /// Explicit run label; when unset, [`RunSpec::id`] derives one.
    pub label: Option<String>,
    /// Full PINN hyperparameters for Laplace runs. When unset, a
    /// laptop-scale config is derived from `iterations`; when set, its
    /// epochs are honoured but `seed`/`lr` are still taken from the spec
    /// (they are the retry knobs).
    pub pinn: Option<PinnConfig>,
    /// Full PINN hyperparameters for Navier–Stokes runs (same rules).
    pub ns_pinn: Option<NsPinnConfig>,
    /// Surrogate architecture / training budget / dataset source for
    /// [`Strategy::NeuralOp`] runs. When unset, [`SurrogateSpec::default`]
    /// applies; ignored by the other strategies.
    pub surrogate: Option<SurrogateSpec>,
}

impl RunSpec {
    /// Builder for a dense Laplace run (defaults: `nx = 16`, DP, 200
    /// iterations, `lr = 1e-2`).
    pub fn laplace() -> RunSpecBuilder {
        RunSpecBuilder {
            spec: RunSpec {
                problem: ProblemSpec::Laplace {
                    nx: 16,
                    backend: BackendKind::DenseLu,
                },
                strategy: Strategy::Dp,
                iterations: 200,
                lr: 1e-2,
                log_every: 10,
                seed: 0,
                optimizer: OptimizerKind::Adam,
                omega: 1.0,
                label: None,
                pinn: None,
                ns_pinn: None,
                surrogate: None,
            },
        }
    }

    /// Builder for a Navier–Stokes run (laptop-scale Table 2 defaults:
    /// `h = 0.15`, `Re = 50`, slot velocity 0.3, DP with 5 refinements, 60
    /// iterations, `lr = 1e-1`, the paper's parabolic initial control).
    pub fn navier_stokes() -> RunSpecBuilder {
        RunSpecBuilder {
            spec: RunSpec {
                problem: ProblemSpec::NavierStokes {
                    h: 0.15,
                    re: 50.0,
                    slot_velocity: 0.3,
                    refinements: 5,
                    initial_scale: 1.0,
                    backend: BackendKind::DenseLu,
                },
                strategy: Strategy::Dp,
                iterations: 60,
                lr: 1e-1,
                log_every: 5,
                seed: 0,
                optimizer: OptimizerKind::Adam,
                omega: 1.0,
                label: None,
                pinn: None,
                ns_pinn: None,
                surrogate: None,
            },
        }
    }

    /// Builder for a synthetic quadratic run (driver tests, smoke
    /// campaigns).
    pub fn synthetic(n_controls: usize) -> RunSpecBuilder {
        RunSpecBuilder {
            spec: RunSpec {
                problem: ProblemSpec::Synthetic {
                    n_controls,
                    fail_attempts: 0,
                },
                strategy: Strategy::Dp,
                iterations: 40,
                lr: 5e-2,
                log_every: 10,
                seed: 0,
                optimizer: OptimizerKind::Adam,
                omega: 1.0,
                label: None,
                pinn: None,
                ns_pinn: None,
                surrogate: None,
            },
        }
    }

    /// Stable identifier: the explicit label when set, otherwise derived
    /// from the grid coordinates. Campaign ledgers key on this.
    pub fn id(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        // Adam stays suffix-free so historical ledger keys keep resolving.
        let opt_suffix = match self.optimizer {
            OptimizerKind::Adam => String::new(),
            other => format!("-{}", other.name()),
        };
        format!(
            "{}-{}-it{}-lr{:e}-seed{}{}",
            self.problem.build_key(),
            self.strategy.name(),
            self.iterations,
            self.lr,
            self.seed,
            opt_suffix
        )
    }

    /// Checks the spec for obvious nonsense; every execution path calls
    /// this first.
    pub fn validate(&self) -> Result<(), ControlError> {
        let bad = |msg: String| Err(ControlError::BadConfig(msg));
        if self.iterations == 0 {
            return bad("iterations must be >= 1".into());
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return bad(format!("lr must be finite and positive, got {}", self.lr));
        }
        if self.log_every == 0 {
            return bad("log_every must be >= 1".into());
        }
        if !self.omega.is_finite() || self.omega < 0.0 {
            return bad(format!("omega must be finite and >= 0, got {}", self.omega));
        }
        if self.optimizer.is_second_order() {
            if matches!(self.problem, ProblemSpec::NavierStokes { .. }) {
                return bad(format!(
                    "optimizer {} is not supported on Navier-Stokes runs (Adam only)",
                    self.optimizer.name()
                ));
            }
            if self.strategy == Strategy::Pinn {
                return bad(format!(
                    "optimizer {} is not supported for the PINN strategy (Adam only)",
                    self.optimizer.name()
                ));
            }
        }
        if self.strategy == Strategy::NeuralOp
            && !matches!(self.problem, ProblemSpec::Laplace { .. })
        {
            return bad(format!(
                "strategy neural-op is only supported on Laplace runs, got {}",
                self.problem.name()
            ));
        }
        if let Some(surrogate) = &self.surrogate {
            surrogate.validate()?;
        }
        match &self.problem {
            ProblemSpec::Laplace { nx, .. } => {
                if *nx < 4 {
                    return bad(format!("laplace nx must be >= 4, got {nx}"));
                }
            }
            ProblemSpec::NavierStokes {
                h,
                re,
                refinements,
                initial_scale,
                ..
            } => {
                if !(h.is_finite() && *h > 0.0 && *h <= 0.5) {
                    return bad(format!("ns spacing h must be in (0, 0.5], got {h}"));
                }
                if !(re.is_finite() && *re > 0.0) {
                    return bad(format!("ns Reynolds number must be positive, got {re}"));
                }
                if *refinements == 0 {
                    return bad("ns refinements must be >= 1".into());
                }
                if !initial_scale.is_finite() {
                    return bad("ns initial_scale must be finite".into());
                }
            }
            ProblemSpec::Synthetic { n_controls, .. } => {
                if *n_controls == 0 {
                    return bad("synthetic n_controls must be >= 1".into());
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`RunSpec`] (obtained from the per-problem constructors).
///
/// Problem-specific setters (`nx`, `resolution`, `reynolds`, …) panic when
/// applied to the wrong problem family — that is a programming error, not a
/// runtime condition.
#[derive(Debug, Clone)]
pub struct RunSpecBuilder {
    spec: RunSpec,
}

impl RunSpecBuilder {
    /// Selects the control strategy.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.spec.strategy = s;
        self
    }
    /// Optimizer iterations (PINN: step-1 epochs).
    pub fn iterations(mut self, n: usize) -> Self {
        self.spec.iterations = n;
        self
    }
    /// Initial learning rate.
    pub fn lr(mut self, lr: f64) -> Self {
        self.spec.lr = lr;
        self
    }
    /// History recording stride.
    pub fn log_every(mut self, k: usize) -> Self {
        self.spec.log_every = k;
        self
    }
    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }
    /// Optimizer selection. The default [`OptimizerKind::Adam`] keeps run
    /// identifiers byte-identical; the second-order kinds suffix the id
    /// with their name so campaign grids can sweep
    /// `optimizer ∈ {Adam, NewtonCg, Lbfgs}` next to strategy and seed.
    pub fn optimizer(mut self, kind: OptimizerKind) -> Self {
        self.spec.optimizer = kind;
        self
    }
    /// PINN cost weight ω.
    pub fn omega(mut self, omega: f64) -> Self {
        self.spec.omega = omega;
        self
    }
    /// Explicit run label (ledger key).
    pub fn label(mut self, label: &str) -> Self {
        self.spec.label = Some(label.to_string());
        self
    }
    /// Full Laplace-PINN hyperparameters.
    pub fn pinn_config(mut self, cfg: PinnConfig) -> Self {
        self.spec.pinn = Some(cfg);
        self
    }
    /// Full NS-PINN hyperparameters.
    pub fn ns_pinn_config(mut self, cfg: NsPinnConfig) -> Self {
        self.spec.ns_pinn = Some(cfg);
        self
    }
    /// Surrogate architecture / training budget for
    /// [`Strategy::NeuralOp`] runs.
    pub fn surrogate(mut self, cfg: SurrogateSpec) -> Self {
        self.spec.surrogate = Some(cfg);
        self
    }

    /// Laplace grid resolution per side.
    pub fn nx(mut self, nx: usize) -> Self {
        match &mut self.spec.problem {
            ProblemSpec::Laplace { nx: n, .. } => *n = nx,
            p => panic!("nx applies to Laplace specs, not {}", p.name()),
        }
        self
    }
    /// Navier–Stokes node spacing.
    pub fn resolution(mut self, h: f64) -> Self {
        match &mut self.spec.problem {
            ProblemSpec::NavierStokes { h: hh, .. } => *hh = h,
            p => panic!(
                "resolution applies to Navier–Stokes specs, not {}",
                p.name()
            ),
        }
        self
    }
    /// Navier–Stokes Reynolds number.
    pub fn reynolds(mut self, re: f64) -> Self {
        match &mut self.spec.problem {
            ProblemSpec::NavierStokes { re: r, .. } => *r = re,
            p => panic!("reynolds applies to Navier–Stokes specs, not {}", p.name()),
        }
        self
    }
    /// Navier–Stokes slot velocity.
    pub fn slot_velocity(mut self, sv: f64) -> Self {
        match &mut self.spec.problem {
            ProblemSpec::NavierStokes {
                slot_velocity: s, ..
            } => *s = sv,
            p => panic!(
                "slot_velocity applies to Navier–Stokes specs, not {}",
                p.name()
            ),
        }
        self
    }
    /// Navier–Stokes Picard refinements per gradient.
    pub fn refinements(mut self, k: usize) -> Self {
        match &mut self.spec.problem {
            ProblemSpec::NavierStokes { refinements: r, .. } => *r = k,
            p => panic!(
                "refinements applies to Navier–Stokes specs, not {}",
                p.name()
            ),
        }
        self
    }
    /// Navier–Stokes initial-control scale.
    pub fn initial_scale(mut self, s: f64) -> Self {
        match &mut self.spec.problem {
            ProblemSpec::NavierStokes {
                initial_scale: sc, ..
            } => *sc = s,
            p => panic!(
                "initial_scale applies to Navier–Stokes specs, not {}",
                p.name()
            ),
        }
        self
    }
    /// Linear-solver backend (Laplace and Navier–Stokes specs). The
    /// default [`BackendKind::DenseLu`] keeps run identifiers and results
    /// byte-identical; [`BackendKind::SparseGmres`] switches to the sparse
    /// RBF-FD discretisation (Laplace: envelope LU; Navier–Stokes: band LU
    /// per sweep) and suffixes the run id with the backend
    /// name so campaign grids can sweep `backend ∈ {DenseLu, SparseGmres}`.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        match &mut self.spec.problem {
            ProblemSpec::Laplace { backend, .. } | ProblemSpec::NavierStokes { backend, .. } => {
                *backend = kind
            }
            p => panic!(
                "backend applies to Laplace / Navier–Stokes specs, not {}",
                p.name()
            ),
        }
        self
    }

    /// Synthetic fault injection: the first `k` attempts report NaN costs.
    pub fn fail_attempts(mut self, k: u32) -> Self {
        match &mut self.spec.problem {
            ProblemSpec::Synthetic {
                fail_attempts: f, ..
            } => *f = k,
            p => panic!("fail_attempts applies to synthetic specs, not {}", p.name()),
        }
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> RunSpec {
        self.spec
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Outcome of one executed [`RunSpec`].
pub struct SpecRun {
    /// [`RunSpec::id`] of the spec that produced this run.
    pub spec_id: String,
    /// Summary + convergence history.
    pub report: RunReport,
    /// The optimized control.
    pub control: DVec,
    /// Final flow state (Navier–Stokes runs only).
    pub ns_state: Option<NsState>,
}

/// A borrowed, already-built problem instance ([`execute_on`] runs specs
/// against it without rebuilding — the campaign driver's problem cache).
#[derive(Clone, Copy)]
pub enum Problem<'a> {
    /// Dense Laplace control problem.
    Laplace(&'a LaplaceControlProblem),
    /// Navier–Stokes solver.
    NavierStokes(&'a NsSolver),
    /// The synthetic quadratic (stateless; built per run).
    Synthetic,
}

/// The substrate variants a [`BuiltProblem`] can hold.
enum BuiltKind {
    /// Dense Laplace control problem.
    Laplace(Box<LaplaceControlProblem>),
    /// Navier–Stokes solver.
    NavierStokes(Box<NsSolver>),
    /// The synthetic quadratic (stateless).
    Synthetic,
}

/// An owned, built problem instance (see [`BuiltProblem::build`]) plus the
/// trained artifacts that amortize across runs: NeuralOp surrogates, keyed
/// by [`SurrogateSpec::fingerprint`] so a cached surrogate is only ever
/// reused where retraining would reproduce it bitwise — results are
/// independent of request order and worker count.
pub struct BuiltProblem {
    kind: BuiltKind,
    surrogates: Mutex<HashMap<String, Arc<LaplaceSurrogate>>>,
}

impl BuiltProblem {
    /// Builds the substrate a spec needs (the expensive part: assembly,
    /// factorization symbolics). Shareable across every spec with the same
    /// [`ProblemSpec::build_key`].
    pub fn build(spec: &ProblemSpec) -> Result<BuiltProblem, ControlError> {
        let kind = match spec {
            ProblemSpec::Laplace { nx, backend } => BuiltKind::Laplace(Box::new(
                LaplaceControlProblem::with_backend(*nx, *backend)?,
            )),
            ProblemSpec::NavierStokes {
                h,
                re,
                slot_velocity,
                backend,
                ..
            } => BuiltKind::NavierStokes(Box::new(NsSolver::new(NsConfig {
                channel: ChannelConfig {
                    h: *h,
                    ..Default::default()
                },
                re: *re,
                slot_velocity: *slot_velocity,
                backend: *backend,
                ..Default::default()
            })?)),
            ProblemSpec::Synthetic { .. } => BuiltKind::Synthetic,
        };
        Ok(BuiltProblem {
            kind,
            surrogates: Mutex::new(HashMap::new()),
        })
    }

    /// Borrows the built problem for [`execute_on`].
    pub fn as_problem(&self) -> Problem<'_> {
        match &self.kind {
            BuiltKind::Laplace(p) => Problem::Laplace(p),
            BuiltKind::NavierStokes(s) => Problem::NavierStokes(s),
            BuiltKind::Synthetic => Problem::Synthetic,
        }
    }

    /// The Laplace substrate, when this build holds one (batched cost
    /// evaluation and the surrogate lifecycle are Laplace-only).
    pub fn laplace(&self) -> Option<&LaplaceControlProblem> {
        match &self.kind {
            BuiltKind::Laplace(p) => Some(p),
            _ => None,
        }
    }

    /// The trained surrogate for a NeuralOp spec — trained on first use,
    /// then shared by every spec whose surrogate fingerprint
    /// (architecture, training budget, dataset seeds, spec seed) matches.
    /// This is the "train once per problem, optimize many times"
    /// amortization.
    pub fn surrogate_for(&self, spec: &RunSpec) -> Result<Arc<LaplaceSurrogate>, ControlError> {
        let p = self.laplace().ok_or_else(|| {
            ControlError::BadConfig(format!(
                "strategy neural-op is only supported on Laplace runs, got {}",
                spec.problem.name()
            ))
        })?;
        let cfg = spec.surrogate.clone().unwrap_or_default();
        let key = cfg.fingerprint(spec.seed);
        if let Some(s) = self.cached_surrogates().get(&key) {
            return Ok(Arc::clone(s));
        }
        // Train without holding the lock, so a training never blocks
        // another fingerprint's lookup. Training is bitwise reproducible
        // per fingerprint: when two callers race, the first insert wins
        // and the loser's identical copy is dropped.
        let trained = Arc::new(LaplaceSurrogate::train(p, &cfg, spec.seed)?);
        Ok(Arc::clone(
            self.cached_surrogates().entry(key).or_insert(trained),
        ))
    }

    /// The surrogate cache. A panic elsewhere while the lock was held
    /// cannot leave a half-inserted entry (inserts are single `HashMap`
    /// operations on finished surrogates), so a poisoned lock is taken
    /// over rather than propagated.
    fn cached_surrogates(&self) -> MutexGuard<'_, HashMap<String, Arc<LaplaceSurrogate>>> {
        self.surrogates
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Executes a spec against this build. NeuralOp runs go through the
    /// per-build surrogate cache (train once, reuse across specs and serve
    /// requests); everything else delegates to [`execute_on`].
    pub fn execute(&self, spec: &RunSpec, ctx: &RunCtx) -> Result<SpecRun, ControlError> {
        spec.validate()?;
        if spec.strategy == Strategy::NeuralOp {
            let p = self
                .laplace()
                .ok_or_else(|| mismatch(self.as_problem(), &spec.problem))?;
            let surrogate = self.surrogate_for(spec)?;
            return execute_laplace_neural_op(p, &surrogate, spec, ctx);
        }
        execute_on(self.as_problem(), spec, ctx)
    }

    /// Resident bytes this build pins while cached: the prepared linear
    /// backend and the constant tensors for Laplace
    /// ([`LaplaceControlProblem::memory_bytes`]), the assembled constant
    /// operators for Navier–Stokes, plus any trained surrogates. This is
    /// the quantity the serve daemon's `FactorCache` meters against
    /// `MESHFREE_CACHE_BYTES`.
    pub fn memory_bytes(&self) -> usize {
        let base = match &self.kind {
            BuiltKind::Laplace(p) => p.memory_bytes(),
            BuiltKind::NavierStokes(s) => s.memory_bytes(),
            BuiltKind::Synthetic => 0,
        };
        let surrogates: usize = self
            .cached_surrogates()
            .values()
            .map(|s| s.memory_bytes())
            .sum();
        base + surrogates
    }
}

/// Builds the problem and executes the spec with a fresh [`RunCtx`]
/// (divergence detection on, no deadline).
pub fn execute(spec: &RunSpec) -> Result<SpecRun, ControlError> {
    execute_ctx(spec, &RunCtx::new())
}

/// Builds the problem and executes the spec under `ctx`.
pub fn execute_ctx(spec: &RunSpec, ctx: &RunCtx) -> Result<SpecRun, ControlError> {
    spec.validate()?;
    let built = BuiltProblem::build(&spec.problem)?;
    execute_on(built.as_problem(), spec, ctx)
}

/// Executes a spec against an already-built problem (which must match the
/// spec's problem family). Every strategy but the PINN maps to one
/// [`ControlObjective`] and runs through [`optimize_ctx`].
pub fn execute_on(
    problem: Problem<'_>,
    spec: &RunSpec,
    ctx: &RunCtx,
) -> Result<SpecRun, ControlError> {
    spec.validate()?;
    match (problem, &spec.problem) {
        (Problem::Laplace(p), ProblemSpec::Laplace { .. }) => execute_laplace(p, spec, ctx),
        (
            Problem::NavierStokes(solver),
            &ProblemSpec::NavierStokes {
                refinements,
                initial_scale,
                ..
            },
        ) => {
            if spec.strategy == Strategy::Pinn {
                return execute_ns_pinn(solver, spec, ctx);
            }
            let _span = trace::span("ns_control_run");
            let mut obj = NsObjective::new(solver, spec.strategy, refinements, initial_scale);
            let (mut report, control) = optimize_ctx(&mut obj, &optimize_opts(spec), ctx)?;
            report.peak_bytes = report.peak_bytes.max(obj.peak_tape);
            Ok(spec_run(spec, report, control, obj.state))
        }
        (
            Problem::Synthetic,
            &ProblemSpec::Synthetic {
                n_controls,
                fail_attempts,
            },
        ) => {
            let poisoned = ctx.attempt < fail_attempts;
            let mut obj = SyntheticObjective::new(n_controls, spec.seed, poisoned);
            let (report, control) = optimize_ctx(&mut obj, &optimize_opts(spec), ctx)?;
            Ok(spec_run(spec, report, control, None))
        }
        _ => Err(mismatch(problem, &spec.problem)),
    }
}

fn execute_laplace(
    p: &LaplaceControlProblem,
    spec: &RunSpec,
    ctx: &RunCtx,
) -> Result<SpecRun, ControlError> {
    let mut obj: Box<dyn ControlObjective + '_> = match spec.strategy {
        Strategy::Pinn => return execute_laplace_pinn(p, spec, ctx),
        Strategy::NeuralOp => {
            // Uncached entry point: train a fresh surrogate for this run.
            // Callers holding a `BuiltProblem` should prefer
            // `BuiltProblem::execute`, which reuses trained surrogates.
            let cfg = spec.surrogate.clone().unwrap_or_default();
            let surrogate = LaplaceSurrogate::train(p, &cfg, spec.seed)?;
            return execute_laplace_neural_op(p, &surrogate, spec, ctx);
        }
        Strategy::Dal => Box::new(LaplaceDalObjective::new(p, spec.optimizer)),
        Strategy::Dp => Box::new(LaplaceDpObjective(p)),
        Strategy::FiniteDiff => Box::new(LaplaceFdObjective(p)),
    };
    let _span = trace::span("laplace_control_run");
    let (report, control) = optimize_ctx(obj.as_mut(), &optimize_opts(spec), ctx)?;
    Ok(spec_run(spec, report, control, None))
}

/// The loop options a spec selects.
fn optimize_opts(spec: &RunSpec) -> OptimizeOpts {
    OptimizeOpts {
        iterations: spec.iterations,
        lr: spec.lr,
        log_every: spec.log_every,
        optimizer: spec.optimizer,
    }
}

/// Labels a finished run's report with the spec's problem and strategy,
/// emits it to the trace (once per run) and wraps it.
fn spec_run(
    spec: &RunSpec,
    mut report: RunReport,
    control: DVec,
    ns_state: Option<NsState>,
) -> SpecRun {
    report.problem = spec.problem.name().to_string();
    report.method = spec.strategy.name().to_string();
    report.emit_trace();
    SpecRun {
        spec_id: spec.id(),
        report,
        control,
        ns_state,
    }
}

fn mismatch(problem: Problem<'_>, got: &ProblemSpec) -> ControlError {
    let expected = match problem {
        Problem::Laplace(_) => "Laplace",
        Problem::NavierStokes(_) => "NavierStokes",
        Problem::Synthetic => "Synthetic",
    };
    ControlError::BadConfig(format!(
        "problem instance is {expected} but the spec declares {}",
        got.name()
    ))
}

/// Derives the Laplace-PINN config for a spec (see [`RunSpec::pinn`]).
fn laplace_pinn_cfg(spec: &RunSpec) -> PinnConfig {
    let mut cfg = spec.pinn.clone().unwrap_or_else(|| PinnConfig {
        hidden: vec![16, 16],
        control_hidden: vec![10],
        epochs_step1: spec.iterations,
        epochs_step2: (spec.iterations / 2).max(1),
        n_interior: 200,
        n_boundary: 24,
        ..PinnConfig::default()
    });
    cfg.seed = spec.seed;
    cfg.lr = spec.lr;
    cfg
}

/// Optimizes the control through a frozen surrogate, then audits the
/// result with one DP re-solve of the true problem. The audited cost is
/// what lands in `final_cost` (and hence reports and campaign ledgers);
/// the optimizer's own surrogate cost stays as the penultimate history
/// entry, so the audit gap `|J_audit − Ĵ|` is recoverable from the record.
fn execute_laplace_neural_op(
    p: &LaplaceControlProblem,
    surrogate: &LaplaceSurrogate,
    spec: &RunSpec,
    ctx: &RunCtx,
) -> Result<SpecRun, ControlError> {
    let timer = Timer::start();
    let mut obj = SurrogateObjective::new(surrogate);
    let (mut report, control) = optimize_ctx(&mut obj, &optimize_opts(spec), ctx)?;
    // Referee: re-solve the PDE with the surrogate's control — the
    // solver-side score, independent of how well the network fit.
    let audited = p.cost(&control)?;
    ctx.check_cost(spec.iterations, audited)?;
    report
        .history
        .push(spec.iterations, audited, 0.0, timer.elapsed_s());
    report.final_cost = audited;
    report.wall_s = timer.elapsed_s();
    Ok(spec_run(spec, report, control, None))
}

fn execute_laplace_pinn(
    p: &LaplaceControlProblem,
    spec: &RunSpec,
    ctx: &RunCtx,
) -> Result<SpecRun, ControlError> {
    let timer = Timer::start();
    let cfg = laplace_pinn_cfg(spec);
    let total = cfg.epochs_step1 + cfg.epochs_step2;
    let mut pinn = LaplacePinn::new(cfg.clone());
    let mut history = pinn.train_ctx(spec.omega, cfg.epochs_step1, true, ctx)?;
    pinn.reset_solution_network(cfg.seed + 1000);
    let h2 = pinn.train_ctx(0.0, cfg.epochs_step2, false, ctx)?;
    for e in &h2.entries {
        history.push(e.iter + cfg.epochs_step1, e.cost, e.grad_norm, e.elapsed_s);
    }
    // Referee: re-solve the PDE with the learned control on the RBF
    // substrate — the budget-independent quality score.
    let control = DVec(
        p.control_x()
            .iter()
            .map(|&x| pinn.control_values(&[x])[0])
            .collect(),
    );
    let final_cost = p.cost(&control)?;
    ctx.check_cost(total, final_cost)?;
    history.push(total, final_cost, 0.0, timer.elapsed_s());
    let report = RunReport {
        method: String::new(),
        problem: String::new(),
        iterations: total,
        final_cost,
        wall_s: timer.elapsed_s(),
        peak_bytes: crate::metrics::peak_allocated_bytes(),
        history,
    };
    Ok(spec_run(spec, report, control, None))
}

/// Derives the NS-PINN config for a spec (geometry/physics come from the
/// solver so the PINN and the referee agree on the problem).
fn ns_pinn_cfg(spec: &RunSpec, solver: &NsSolver) -> Result<NsPinnConfig, ControlError> {
    let (re, slot_velocity) = match spec.problem {
        ProblemSpec::NavierStokes {
            re, slot_velocity, ..
        } => (re, slot_velocity),
        _ => return Err(mismatch(Problem::NavierStokes(solver), &spec.problem)),
    };
    let mut cfg = spec.ns_pinn.clone().unwrap_or_else(|| NsPinnConfig {
        hidden: vec![16, 16],
        control_hidden: vec![8],
        epochs_step1: spec.iterations,
        epochs_step2: (spec.iterations / 2).max(1),
        n_interior: 150,
        n_boundary: 12,
        ..NsPinnConfig::default()
    });
    cfg.channel = solver.cfg().channel.clone();
    cfg.re = re;
    cfg.slot_velocity = slot_velocity;
    cfg.seed = spec.seed;
    cfg.lr = spec.lr;
    Ok(cfg)
}

fn execute_ns_pinn(
    solver: &NsSolver,
    spec: &RunSpec,
    ctx: &RunCtx,
) -> Result<SpecRun, ControlError> {
    let timer = Timer::start();
    let cfg = ns_pinn_cfg(spec, solver)?;
    let total = cfg.epochs_step1 + cfg.epochs_step2;
    let mut pinn = NsPinn::new(cfg.clone());
    let mut history = pinn.train_ctx(spec.omega, cfg.epochs_step1, true, ctx)?;
    pinn.reset_field_network(cfg.seed + 1000);
    let h2 = pinn.train_ctx(0.0, cfg.epochs_step2, false, ctx)?;
    for e in &h2.entries {
        history.push(e.iter + cfg.epochs_step1, e.cost, e.grad_norm, e.elapsed_s);
    }
    // Referee: sample the network's fields at the solver nodes and score
    // them with the solver-side cost (fig. 1's "expense of first
    // principles" check uses the same evaluation).
    let control = pinn.control_values(solver.inflow_y());
    let pts: Vec<(f64, f64)> = (0..solver.nodes().len())
        .map(|i| {
            let pt = solver.nodes().point(i);
            (pt.x, pt.y)
        })
        .collect();
    let (u, v, pr) = pinn.fields_at(&pts);
    let state = NsState { u, v, p: pr };
    let final_cost = solver.cost(&state);
    ctx.check_cost(total, final_cost)?;
    history.push(total, final_cost, 0.0, timer.elapsed_s());
    let report = RunReport {
        method: String::new(),
        problem: String::new(),
        iterations: total,
        final_cost,
        wall_s: timer.elapsed_s(),
        peak_bytes: crate::metrics::peak_allocated_bytes(),
        history,
    };
    Ok(spec_run(spec, report, control, Some(state)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde::heat::HeatConfig;
    use std::time::Duration;

    #[test]
    fn generic_driver_matches_the_specific_laplace_driver() {
        let p = LaplaceControlProblem::new(12).unwrap();
        let opts = OptimizeOpts {
            iterations: 60,
            lr: 1e-2,
            log_every: 10,
            ..Default::default()
        };
        let (rep_gen, c_gen) = optimize(&mut LaplaceDpObjective(&p), &opts).unwrap();
        let spec = RunSpec::laplace().nx(12).iterations(60).build();
        let spec = execute_on(Problem::Laplace(&p), &spec, &RunCtx::unchecked()).unwrap();
        assert!(
            (rep_gen.final_cost - spec.report.final_cost).abs()
                < 1e-12 * (1.0 + spec.report.final_cost.abs()),
            "generic {} vs specific {}",
            rep_gen.final_cost,
            spec.report.final_cost
        );
        for i in 0..c_gen.len() {
            assert!((c_gen[i] - spec.control[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn dal_hessian_equals_the_default_probe_loop_bitwise() {
        let p = LaplaceControlProblem::new(12).unwrap();
        let n = p.n_controls();
        let mut obj = LaplaceDalObjective::new(&p, OptimizerKind::NewtonCg);
        let mut oracle = ObjectiveOracle {
            obj: &mut obj,
            x: DVec::from_fn(n, |i| 0.05 * (1.0 + i as f64).sin()),
        };
        let batched = oracle.hessian(n).unwrap();
        let looped = opt::probe_hessian(&mut oracle, n).unwrap();
        assert_eq!(batched.len(), n);
        let bits = |v: &DVec| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (j, (b, l)) in batched.iter().zip(&looped).enumerate() {
            assert_eq!(bits(b), bits(l), "column {j}");
        }
    }

    #[test]
    fn every_builtin_objective_descends() {
        let opts = OptimizeOpts::builder()
            .iterations(40)
            .lr(2e-2)
            .log_every(10)
            .build();
        // Laplace DAL.
        let lp = LaplaceControlProblem::new(10).unwrap();
        let mut dal = LaplaceDalObjective::new(&lp, OptimizerKind::Adam);
        let j0 = dal.cost(&dal.initial_control()).unwrap();
        let (rep, _) = optimize(&mut dal, &opts).unwrap();
        assert!(rep.final_cost < j0, "DAL objective failed to descend");

        // Sparse RBF-FD Laplace, DP through the sparse factor.
        let sp = LaplaceControlProblem::new_sparse(10).unwrap();
        let mut sparse = LaplaceDpObjective(&sp);
        let j0 = sparse.cost(&sparse.initial_control()).unwrap();
        let (rep, _) = optimize(&mut sparse, &opts).unwrap();
        assert!(rep.final_cost < j0, "sparse DP objective failed to descend");

        // Heat.
        let hp = HeatControlProblem::new(HeatConfig {
            nx: 9,
            n_steps: 10,
            ..Default::default()
        })
        .unwrap();
        let mut heat = HeatObjective(&hp);
        let j0 = heat.cost(&heat.initial_control()).unwrap();
        let (rep, _) = optimize(&mut heat, &opts).unwrap();
        assert!(rep.final_cost < j0, "heat objective failed to descend");
    }

    #[test]
    fn a_user_defined_objective_plugs_in() {
        // Minimal quadratic bowl as a user-defined problem, with a dynamic
        // name (the `&str` return the redesign unlocked).
        struct Bowl {
            label: String,
        }
        impl ControlObjective for Bowl {
            fn n_controls(&self) -> usize {
                3
            }
            fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
                Ok(c.iter()
                    .enumerate()
                    .map(|(i, x)| (x - i as f64).powi(2))
                    .sum())
            }
            fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
                let j = self.cost(c)?;
                let g = DVec::from_fn(3, |i| 2.0 * (c[i] - i as f64));
                Ok((j, g))
            }
            fn name(&self) -> &str {
                &self.label
            }
        }
        let mut bowl = Bowl {
            label: format!("bowl-n{}", 3),
        };
        let (rep, c) = optimize(
            &mut bowl,
            &OptimizeOpts {
                iterations: 400,
                lr: 5e-2,
                log_every: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(rep.method, "bowl-n3");
        assert!(rep.final_cost < 1e-4, "J = {}", rep.final_cost);
        for i in 0..3 {
            assert!((c[i] - i as f64).abs() < 0.05);
        }
    }

    #[test]
    fn spec_builder_produces_the_documented_defaults() {
        let spec = RunSpec::laplace()
            .strategy(Strategy::Dal)
            .iterations(200)
            .seed(7)
            .build();
        assert_eq!(spec.strategy, Strategy::Dal);
        assert_eq!(spec.iterations, 200);
        assert_eq!(spec.seed, 7);
        assert!(matches!(
            spec.problem,
            ProblemSpec::Laplace {
                nx: 16,
                backend: BackendKind::DenseLu,
            }
        ));
        assert_eq!(spec.id(), "laplace-nx16-DAL-it200-lr1e-2-seed7");

        // The sparse backend is opt-in and announces itself in the id;
        // the dense default stays suffix-free (ledger keys unchanged).
        let sparse = RunSpec::laplace()
            .nx(48)
            .backend(BackendKind::SparseGmres)
            .strategy(Strategy::Dal)
            .iterations(200)
            .seed(7)
            .build();
        assert_eq!(sparse.problem.backend(), BackendKind::SparseGmres);
        assert_eq!(
            sparse.id(),
            "laplace-nx48-sparse-gmres-DAL-it200-lr1e-2-seed7"
        );

        let ns = RunSpec::navier_stokes()
            .resolution(0.18)
            .reynolds(30.0)
            .refinements(3)
            .initial_scale(0.8)
            .lr(5e-2)
            .build();
        assert!(ns.validate().is_ok());
        match ns.problem {
            ProblemSpec::NavierStokes {
                h, re, refinements, ..
            } => {
                assert_eq!(h, 0.18);
                assert_eq!(re, 30.0);
                assert_eq!(refinements, 3);
            }
            _ => panic!("wrong problem family"),
        }
    }

    #[test]
    fn invalid_specs_are_rejected_as_bad_config() {
        let spec = RunSpec::laplace().iterations(0).build();
        match execute(&spec) {
            Err(ControlError::BadConfig(msg)) => assert!(msg.contains("iterations")),
            other => panic!("expected BadConfig, got {:?}", other.map(|_| ())),
        }
        let spec = RunSpec::synthetic(4).lr(f64::NAN).build();
        assert!(matches!(execute(&spec), Err(ControlError::BadConfig(_))));
    }

    #[test]
    fn execute_laplace_matches_the_legacy_entry_point() {
        // The legacy entry point: the generic `optimize` on a hand-built
        // problem and objective. `execute` adds only the report labels.
        let spec = RunSpec::laplace().nx(12).iterations(60).build();
        let run = execute(&spec).unwrap();
        let p = LaplaceControlProblem::new(12).unwrap();
        let opts = OptimizeOpts::builder().iterations(60).lr(1e-2).build();
        let (legacy, control) = optimize(&mut LaplaceDpObjective(&p), &opts).unwrap();
        assert_eq!(run.report.final_cost, legacy.final_cost);
        assert_eq!(run.report.method, "DP");
        assert_eq!(run.report.problem, "laplace");
        for i in 0..run.control.len() {
            assert_eq!(run.control[i], control[i]);
        }
    }

    #[test]
    fn synthetic_spec_runs_and_detects_injected_divergence() {
        // Healthy run descends.
        let spec = RunSpec::synthetic(6).seed(3).iterations(80).build();
        let run = execute(&spec).unwrap();
        assert!(
            run.report.final_cost < 1e-2,
            "J = {}",
            run.report.final_cost
        );
        assert_eq!(run.report.problem, "synthetic");

        // Poisoned run (attempt 0 < fail_attempts) errors as Diverged...
        let bad = RunSpec::synthetic(6).seed(3).fail_attempts(1).build();
        match execute(&bad) {
            Err(ControlError::Diverged { iteration, cost }) => {
                assert_eq!(iteration, 0);
                assert!(cost.is_nan());
            }
            other => panic!("expected Diverged, got {:?}", other.map(|_| ())),
        }
        // ...but a later attempt (the driver's retry) succeeds.
        let ctx = RunCtx::supervised(CancelToken::new(), 1);
        let built = BuiltProblem::build(&bad.problem).unwrap();
        assert!(execute_on(built.as_problem(), &bad, &ctx).is_ok());
    }

    #[test]
    fn expired_deadline_stops_a_run_with_timeout() {
        let cancel = CancelToken::new().with_deadline(Duration::from_secs(0));
        let ctx = RunCtx::supervised(cancel, 0);
        let spec = RunSpec::synthetic(4).build();
        match execute_ctx(&spec, &ctx) {
            Err(ControlError::Timeout { iteration, .. }) => assert_eq!(iteration, 0),
            other => panic!("expected Timeout, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn cancelled_token_stops_a_run_with_cancelled() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let ctx = RunCtx::supervised(cancel, 0);
        let spec = RunSpec::synthetic(4).build();
        assert!(matches!(
            execute_ctx(&spec, &ctx),
            Err(ControlError::Cancelled { iteration: 0 })
        ));
    }

    #[test]
    fn control_error_display_and_classification() {
        let e = ControlError::Diverged {
            iteration: 7,
            cost: f64::NAN,
        };
        assert!(e.to_string().contains("iteration 7"));
        assert!(e.is_divergence() && !e.is_fatal());

        let e = ControlError::from(LinalgError::SingularMatrix {
            pivot: 30,
            value: 0.0,
        });
        assert!(e.is_divergence());
        assert!(e.source().is_some());

        let e = ControlError::BadConfig("nope".into());
        assert!(e.is_fatal() && !e.is_divergence());
        let e = ControlError::Timeout {
            iteration: 3,
            elapsed_s: 0.5,
        };
        assert!(!e.is_fatal() && !e.is_divergence());
    }

    #[test]
    fn problem_build_key_excludes_per_run_knobs() {
        let a = RunSpec::navier_stokes().refinements(3).build();
        let b = RunSpec::navier_stokes()
            .refinements(10)
            .initial_scale(0.5)
            .build();
        assert_eq!(a.problem.build_key(), b.problem.build_key());
        let c = RunSpec::navier_stokes().reynolds(75.0).build();
        assert_ne!(a.problem.build_key(), c.problem.build_key());
    }

    #[test]
    fn strategy_name_round_trips_through_build() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::build(s.name()), Some(s));
        }
        assert_eq!(Strategy::build("bogus"), None);
    }

    #[test]
    fn neural_op_spec_ids_are_stable() {
        let spec = RunSpec::laplace()
            .nx(10)
            .strategy(Strategy::NeuralOp)
            .iterations(150)
            .seed(3)
            .build();
        assert_eq!(spec.id(), "laplace-nx10-neural-op-it150-lr1e-2-seed3");
    }

    #[test]
    fn neural_op_is_laplace_only() {
        let syn = RunSpec::synthetic(4).strategy(Strategy::NeuralOp).build();
        assert!(matches!(syn.validate(), Err(ControlError::BadConfig(_))));
        let ns = RunSpec::navier_stokes()
            .strategy(Strategy::NeuralOp)
            .build();
        assert!(ns.validate().is_err());
        let bad_surrogate = RunSpec::laplace()
            .strategy(Strategy::NeuralOp)
            .surrogate(crate::surrogate::SurrogateSpec {
                sample_amplitude: 0.0,
                ..Default::default()
            })
            .build();
        assert!(bad_surrogate.validate().is_err());
    }

    #[test]
    fn neural_op_run_ends_with_a_dp_audit() {
        let spec = RunSpec::laplace()
            .nx(10)
            .strategy(Strategy::NeuralOp)
            .iterations(150)
            .lr(2e-2)
            .build();
        let run = execute(&spec).unwrap();
        assert_eq!(run.report.method, "neural-op");
        assert_eq!(run.report.problem, "laplace");
        let h = &run.report.history.entries;
        assert!(h.len() >= 2);
        let surrogate_cost = h[h.len() - 2].cost;
        let audited = h[h.len() - 1].cost;
        // The report's final cost IS the audit re-solve, and the gap to the
        // optimizer's own surrogate cost is bounded.
        assert_eq!(audited.to_bits(), run.report.final_cost.to_bits());
        let p = LaplaceControlProblem::new(10).unwrap();
        let resolved = p.cost(&run.control).unwrap();
        assert_eq!(audited.to_bits(), resolved.to_bits());
        let gap = (audited - surrogate_cost).abs();
        assert!(
            gap < 0.2 * (1.0 + audited),
            "audit gap {gap:.3e} too large (J_audit {audited:.3e}, Ĵ {surrogate_cost:.3e})"
        );
        // The surrogate optimum should land near the solver optimum.
        let dp = execute(&RunSpec::laplace().nx(10).iterations(150).lr(2e-2).build()).unwrap();
        assert!(
            audited < 5.0 * dp.report.final_cost.max(1e-3) + 0.1,
            "audited neural-op cost {audited:.3e} far from DP {:.3e}",
            dp.report.final_cost
        );
    }

    #[test]
    fn surrogate_cache_survives_a_poisoned_lock() {
        let spec = RunSpec::laplace()
            .nx(8)
            .strategy(Strategy::NeuralOp)
            .iterations(40)
            .build();
        let built = BuiltProblem::build(&spec.problem).unwrap();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = built.surrogates.lock().unwrap();
                panic!("poisoning the surrogate cache on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(built.surrogates.is_poisoned());
        let s1 = built.surrogate_for(&spec).unwrap();
        let s2 = built.surrogate_for(&spec).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "the poisoned cache still caches");
        assert!(built.memory_bytes() >= s1.memory_bytes());
    }

    #[test]
    fn built_problem_caches_surrogates_by_fingerprint() {
        let spec = RunSpec::laplace()
            .nx(8)
            .strategy(Strategy::NeuralOp)
            .iterations(40)
            .build();
        let built = BuiltProblem::build(&spec.problem).unwrap();
        let bytes_before = built.memory_bytes();
        let s1 = built.surrogate_for(&spec).unwrap();
        let s2 = built.surrogate_for(&spec).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "same fingerprint must share");
        let other_seed = RunSpec::laplace()
            .nx(8)
            .strategy(Strategy::NeuralOp)
            .iterations(40)
            .seed(9)
            .build();
        let s3 = built.surrogate_for(&other_seed).unwrap();
        assert!(!Arc::ptr_eq(&s1, &s3), "different seed must retrain");
        assert!(built.memory_bytes() > bytes_before);

        // The cached path and the uncached execute_on path agree bitwise.
        let via_built = built.execute(&spec, &RunCtx::new()).unwrap();
        let via_execute = execute(&spec).unwrap();
        assert_eq!(
            via_built.report.final_cost.to_bits(),
            via_execute.report.final_cost.to_bits()
        );
    }
}
