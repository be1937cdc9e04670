//! Timed replays of the optimisation loops, through the public objective
//! and optimizer APIs. Each replay performs exactly the floating-point
//! operations of `BuiltProblem::execute` for the same spec, so it must
//! end at the same final cost bit for bit; the timers around each layer
//! call give the per-layer split that the end-to-end run cannot see.

use crate::bench::secs;
use linalg::{DVec, LinalgError};
use opt::{Adam, CurvatureOracle, OptimizerKind, Schedule};
use pde::ns_adjoint::NsAdjoint;
use pde::ns_dp::NsDp;
use pde::{LaplaceControlProblem, NsSolver, NsState};
use std::time::Instant;

/// Gradient flavour of a solver-in-the-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grad {
    Dal,
    Dp,
}

/// Where one replayed run spent its time.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub final_cost: f64,
    /// Cost at the start of every iteration.
    pub costs: Vec<f64>,
    pub wall_s: f64,
    pub grad_s: f64,
    pub grad_calls: usize,
    pub hvp_s: f64,
    pub hvp_calls: usize,
    pub cost_s: f64,
    pub cost_calls: usize,
    /// Optimizer update time, excluding the objective and curvature calls
    /// it makes.
    pub step_s: f64,
    pub steps: usize,
    /// Largest tape reported by a Navier–Stokes DP gradient (bytes).
    pub tape_bytes: usize,
}

impl Replay {
    /// Share of the wall time not covered by the timed calls.
    pub fn unattributed_s(&self) -> f64 {
        (self.wall_s - self.grad_s - self.hvp_s - self.cost_s - self.step_s).max(0.0)
    }

    /// First iteration whose starting cost is at or below `target`
    /// (`iterations` itself when only the final cost gets there).
    pub fn iters_to(&self, target: f64) -> Option<usize> {
        self.costs
            .iter()
            .position(|&j| j <= target)
            .or((self.final_cost <= target).then_some(self.costs.len()))
    }
}

/// The curvature oracle `control::laplace` builds, with timers and a
/// call counter around it.
struct TimedOracle<'a> {
    problem: &'a LaplaceControlProblem,
    grad: Grad,
    x: DVec,
    hvp_s: f64,
    hvp_calls: usize,
    cost_s: f64,
    cost_calls: usize,
}

impl TimedOracle<'_> {
    fn dal_weighted_grad(&self, c: &DVec) -> Option<DVec> {
        let (_, g) = self.problem.cost_and_grad_dal(c).ok()?;
        let w = self.problem.quad_weights();
        Some(DVec::from_fn(g.len(), |i| w[i] * g[i]))
    }
}

impl CurvatureOracle for TimedOracle<'_> {
    fn hvp(&mut self, v: &DVec) -> Option<DVec> {
        let t = Instant::now();
        self.hvp_calls += 1;
        let hv = match self.grad {
            Grad::Dal => {
                let h = 1e-5 / (1.0 + v.norm_inf()).max(1.0);
                let mut cp = self.x.clone();
                cp.axpy(h, v);
                let mut cm = self.x.clone();
                cm.axpy(-h, v);
                let gp = self.dal_weighted_grad(&cp);
                let gm = self.dal_weighted_grad(&cm);
                gp.zip(gm)
                    .map(|(gp, gm)| DVec::from_fn(gp.len(), |i| (gp[i] - gm[i]) / (2.0 * h)))
            }
            Grad::Dp => self.problem.cost_grad_hvp(&self.x, v).ok().map(|r| r.2),
        };
        self.hvp_s += secs(t);
        hv.filter(|hv| !hv.has_non_finite())
    }

    fn cost_at(&mut self, c: &DVec) -> Option<f64> {
        let t = Instant::now();
        self.cost_calls += 1;
        let j = self.problem.cost(c).ok().filter(|j| j.is_finite());
        self.cost_s += secs(t);
        j
    }
}

/// Replays `control::laplace::run_ctx` for `(grad, optimizer)`.
pub fn laplace(
    p: &LaplaceControlProblem,
    grad: Grad,
    kind: OptimizerKind,
    iterations: usize,
    lr: f64,
) -> Result<Replay, LinalgError> {
    let start = Instant::now();
    let n = p.n_controls();
    let mut c = DVec::zeros(n);
    let mut optimizer = kind.build(n, lr, iterations);
    let second_order = optimizer.uses_curvature();
    let mut oracle = TimedOracle {
        problem: p,
        grad,
        x: DVec::zeros(n),
        hvp_s: 0.0,
        hvp_calls: 0,
        cost_s: 0.0,
        cost_calls: 0,
    };
    let mut r = Replay::default();
    for _ in 0..iterations {
        let t = Instant::now();
        let (j, g) = match grad {
            Grad::Dal => {
                let (j, g) = p.cost_and_grad_dal(&c)?;
                if second_order {
                    let w = p.quad_weights();
                    (j, DVec::from_fn(n, |i| w[i] * g[i]))
                } else {
                    (j, g)
                }
            }
            Grad::Dp => p.cost_and_grad_dp(&c)?,
        };
        r.grad_s += secs(t);
        r.grad_calls += 1;
        r.costs.push(j);
        let inner = oracle.hvp_s + oracle.cost_s;
        let t = Instant::now();
        if second_order {
            oracle.x.clone_from(&c);
            optimizer.step_with_curvature(&mut c, j, &g, &mut oracle);
        } else {
            optimizer.step(&mut c, &g);
        }
        r.step_s += (secs(t) - (oracle.hvp_s + oracle.cost_s - inner)).max(0.0);
        r.steps += 1;
    }
    let t = Instant::now();
    r.final_cost = p.cost(&c)?;
    oracle.cost_s += secs(t);
    oracle.cost_calls += 1;
    r.hvp_s = oracle.hvp_s;
    r.hvp_calls = oracle.hvp_calls;
    r.cost_s = oracle.cost_s;
    r.cost_calls = oracle.cost_calls;
    r.wall_s = secs(start);
    Ok(r)
}

/// Replays `control::ns::run_ctx` (Adam with the paper's schedule,
/// warm-started flow state, converged final evaluation).
pub fn navier_stokes(
    solver: &NsSolver,
    grad: Grad,
    refinements: usize,
    iterations: usize,
    lr: f64,
    initial_scale: f64,
) -> Result<Replay, LinalgError> {
    let start = Instant::now();
    let n = solver.n_controls();
    let mut c = control::ns::initial_control(solver).scaled(initial_scale);
    let mut adam = Adam::new(n, Schedule::paper_decay(lr, iterations));
    let mut state: Option<NsState> = None;
    let dp = NsDp::new(solver);
    let dal = NsAdjoint::new(solver);
    let mut ws = solver.workspace();
    let mut r = Replay::default();
    for _ in 0..iterations {
        let t = Instant::now();
        let (j, g) = match grad {
            Grad::Dp => {
                let (j, g, stats, st) = dp.run(&c, refinements, state.as_ref())?;
                r.tape_bytes = r.tape_bytes.max(stats.tape_bytes);
                state = Some(st);
                (j, g)
            }
            Grad::Dal => {
                let (j, g, st) = dal.cost_and_grad_with(&c, refinements, state.take(), &mut ws)?;
                state = Some(st);
                (j, g)
            }
        };
        r.grad_s += secs(t);
        r.grad_calls += 1;
        r.costs.push(j);
        let t = Instant::now();
        opt::Optimizer::step(&mut adam, &mut c, &g);
        r.step_s += secs(t);
        r.steps += 1;
        if c.has_non_finite() {
            break;
        }
    }
    let t = Instant::now();
    let final_state = solver.solve_with(&c, refinements.max(12), state, &mut ws)?;
    r.final_cost = solver.cost(&final_state);
    r.cost_s += secs(t);
    r.cost_calls += 1;
    r.wall_s = secs(start);
    Ok(r)
}
