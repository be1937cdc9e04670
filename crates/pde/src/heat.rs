//! Time-dependent extension: optimal control of the heat equation.
//!
//! The paper's stated future work is to "incorporate time" into the
//! framework. This module does exactly that for the parabolic model
//! problem: `u_t = κ∇²u` on the unit square, zero initial condition,
//! boundary control `u(x, 1, t) = c(x)` on the top wall (zero data
//! elsewhere), and a terminal-state tracking cost
//! `J(c) = Σ wᵢ (u(xᵢ, T) − u_target(xᵢ))²` over the interior nodes.
//!
//! Discretisation: nodal RBF differentiation matrices + implicit Euler.
//! The time-step matrix `I/Δt − κ∇²` (with BC rows) is **constant**, so it
//! is factored once and every step is a cached-LU `solve_const` on the
//! tape. DP differentiates through the entire time loop; unlike the
//! Navier–Stokes case the tape memory grows only with the (cheap) state
//! vectors, not with per-step factorizations — demonstrating that DP's
//! memory pain in the paper is specifically the *state-dependent-matrix*
//! regime.

use autodiff::tensor::{self, Tensor};
use autodiff::Tape;
use geometry::generators::unit_square_grid;
use geometry::{NodeKind, NodeSet, Point2};
use linalg::{DMat, DVec, LinalgError, Lu};
use rbf::{GlobalCollocation, RbfKernel};
use std::sync::Arc;

use crate::laplace::tags;

/// Heat-control configuration.
#[derive(Debug, Clone)]
pub struct HeatConfig {
    /// Grid resolution per side.
    pub nx: usize,
    /// Diffusivity `κ`.
    pub kappa: f64,
    /// Time step.
    pub dt: f64,
    /// Number of implicit-Euler steps (horizon `T = n_steps·dt`).
    pub n_steps: usize,
}

impl Default for HeatConfig {
    fn default() -> Self {
        HeatConfig {
            nx: 14,
            kappa: 1.0,
            dt: 0.05,
            n_steps: 20,
        }
    }
}

/// The assembled heat-control problem.
pub struct HeatControlProblem {
    cfg: HeatConfig,
    nodes: NodeSet,
    /// Factored time-step matrix `I/Δt − κ∇²` + BC rows.
    step_lu: Arc<Lu>,
    /// Factored steady matrix `−κ∇²` + BC rows (the `T → ∞` limit).
    steady_lu: Arc<Lu>,
    /// Interior-masked `I/Δt` (maps the previous state into the RHS).
    mass: Arc<Tensor>,
    /// `N × n_c` placement of the control into boundary rows.
    placement: Arc<Tensor>,
    /// Top-wall node indices sorted by `x`, and coordinates.
    top_idx: Vec<usize>,
    top_x: Vec<f64>,
    /// Interior tracking weights (uniform mean) and target values.
    interior_idx: Vec<usize>,
    target: DVec,
}

impl HeatControlProblem {
    /// Assembles the problem; the tracking target is the steady solution
    /// for the reference control `c_ref(x) = sin πx`, so the optimal
    /// control is known by construction (for large `T`).
    pub fn new(cfg: HeatConfig) -> Result<Self, LinalgError> {
        let nodes = unit_square_grid(cfg.nx, cfg.nx, |p| {
            if p.y == 1.0 {
                (NodeKind::Dirichlet, tags::TOP, Point2::new(0.0, 1.0))
            } else if p.y == 0.0 {
                (NodeKind::Dirichlet, tags::BOTTOM, Point2::new(0.0, -1.0))
            } else if p.x == 0.0 {
                (NodeKind::Dirichlet, tags::LEFT, Point2::new(-1.0, 0.0))
            } else {
                (NodeKind::Dirichlet, tags::RIGHT, Point2::new(1.0, 0.0))
            }
        });
        let ctx = GlobalCollocation::new(&nodes, RbfKernel::Phs3, 1);
        let dm = ctx.diff_matrices()?;
        let n = nodes.len();

        let mut step = DMat::zeros(n, n);
        let mut steady = DMat::zeros(n, n);
        let mut mass = DMat::zeros(n, n);
        for i in nodes.interior_range() {
            for j in 0..n {
                step[(i, j)] = -cfg.kappa * dm.lap[(i, j)];
                steady[(i, j)] = -cfg.kappa * dm.lap[(i, j)];
            }
            step[(i, i)] += 1.0 / cfg.dt;
            mass[(i, i)] = 1.0 / cfg.dt;
        }
        for i in nodes.boundary_indices() {
            step[(i, i)] = 1.0;
            steady[(i, i)] = 1.0;
        }
        let step_lu = Arc::new(Lu::factor(&step)?);
        let steady_lu = Arc::new(Lu::factor(&steady)?);

        let (top_idx, top_x) =
            geometry::quadrature::sort_along(&nodes.indices_with_tag(tags::TOP), |i| {
                nodes.point(i).x
            });
        let mut placement = DMat::zeros(n, top_idx.len());
        for (j, &i) in top_idx.iter().enumerate() {
            placement[(i, j)] = 1.0;
        }
        let interior_idx: Vec<usize> = nodes.interior_range().collect();

        // Target: steady state under the reference control sin πx.
        let mut b_ref = DVec::zeros(n);
        for &i in &top_idx {
            b_ref[i] = (std::f64::consts::PI * nodes.point(i).x).sin();
        }
        let u_ref = steady_lu.solve(&b_ref)?;
        let target = DVec(interior_idx.iter().map(|&i| u_ref[i]).collect());

        Ok(HeatControlProblem {
            cfg,
            nodes,
            step_lu,
            steady_lu,
            mass: Arc::new(mass),
            placement: Arc::new(placement),
            top_idx,
            top_x,
            interior_idx,
            target,
        })
    }

    /// Configuration.
    pub fn cfg(&self) -> &HeatConfig {
        &self.cfg
    }

    /// Number of control degrees of freedom.
    pub fn n_controls(&self) -> usize {
        self.top_idx.len()
    }

    /// Control abscissae.
    pub fn control_x(&self) -> &[f64] {
        &self.top_x
    }

    /// The node set.
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// Reference control whose steady state is the tracking target.
    pub fn reference_control(&self) -> DVec {
        DVec(
            self.top_x
                .iter()
                .map(|&x| (std::f64::consts::PI * x).sin())
                .collect(),
        )
    }

    /// Plain forward march: the state at `T` for control `c`.
    pub fn solve_terminal(&self, c: &DVec) -> Result<DVec, LinalgError> {
        assert_eq!(c.len(), self.n_controls());
        let n = self.nodes.len();
        let mut u = DVec::zeros(n);
        for _ in 0..self.cfg.n_steps {
            let mut b = self.mass.matvec(&u)?;
            for (j, &i) in self.top_idx.iter().enumerate() {
                b[i] = c[j];
            }
            u = self.step_lu.solve(&b)?;
        }
        Ok(u)
    }

    /// Steady solution (the `T → ∞` limit) for control `c`.
    pub fn solve_steady(&self, c: &DVec) -> Result<DVec, LinalgError> {
        let n = self.nodes.len();
        let mut b = DVec::zeros(n);
        for (j, &i) in self.top_idx.iter().enumerate() {
            b[i] = c[j];
        }
        self.steady_lu.solve(&b)
    }

    /// Terminal-tracking cost.
    pub fn cost(&self, c: &DVec) -> Result<f64, LinalgError> {
        let u = self.solve_terminal(c)?;
        let mut j = 0.0;
        for (k, &i) in self.interior_idx.iter().enumerate() {
            let d = u[i] - self.target[k];
            j += d * d;
        }
        Ok(j / self.interior_idx.len() as f64)
    }

    /// DP: records the full implicit-Euler march on the tape (one cached-LU
    /// `solve_const` per step) and returns `(J, dJ/dc, tape_bytes)`.
    pub fn cost_and_grad_dp(&self, c: &DVec) -> Result<(f64, DVec, usize), LinalgError> {
        let tape = Tape::new();
        let cv = tape.var_col(c);
        let n = self.nodes.len();
        let mut u = tape.var_col(&vec![0.0; n]);
        let bc = cv.matmul_const_l(&self.placement);
        for _ in 0..self.cfg.n_steps {
            // RHS: interior mass term + boundary control rows. The mass
            // matrix has zero boundary rows and the placement has zero
            // interior rows, so a plain add composes them.
            let b = u.matmul_const_l(&self.mass).add(bc);
            u = tape.solve_const(&self.step_lu, b)?;
        }
        let u_int = u.gather_rows(&self.interior_idx);
        let neg_t = DMat::from_fn(self.target.len(), 1, |i, _| -self.target[i]);
        let j = u_int.add_const(&neg_t).sq().mean();
        let jval = j.scalar_value();
        let bytes = tape.memory_bytes();
        let grads = tape.backward(j);
        Ok((jval, tensor::to_dvec(&grads.wrt(cv)), bytes))
    }

    /// Central finite differences over [`Self::cost`] — the footnote-11
    /// baseline, re-marching the full horizon twice per control component.
    pub fn cost_and_grad_fd(&self, c: &DVec, h: f64) -> Result<(f64, DVec), LinalgError> {
        let j = self.cost(c)?;
        let mut g = DVec::zeros(c.len());
        let mut cp = c.clone();
        for i in 0..c.len() {
            let orig = cp[i];
            cp[i] = orig + h;
            let jp = self.cost(&cp)?;
            cp[i] = orig - h;
            let jm = self.cost(&cp)?;
            cp[i] = orig;
            g[i] = (jp - jm) / (2.0 * h);
        }
        Ok((j, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodiff::gradcheck::rel_error;

    fn problem(n_steps: usize) -> HeatControlProblem {
        HeatControlProblem::new(HeatConfig {
            nx: 10,
            n_steps,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn march_approaches_the_steady_state() {
        let p = problem(80);
        let c = p.reference_control();
        let u_t = p.solve_terminal(&c).unwrap();
        let u_s = p.solve_steady(&c).unwrap();
        let diff = (&u_t - &u_s).norm_inf();
        assert!(diff < 1e-3, "terminal vs steady gap {diff}");
    }

    #[test]
    fn short_horizon_stays_far_from_steady() {
        let p = problem(2);
        let c = p.reference_control();
        let u_t = p.solve_terminal(&c).unwrap();
        let u_s = p.solve_steady(&c).unwrap();
        assert!((&u_t - &u_s).norm_inf() > 1e-2, "diffusion too fast?");
    }

    #[test]
    fn cost_vanishes_at_the_reference_control_for_long_horizons() {
        let p = problem(80);
        let j_ref = p.cost(&p.reference_control()).unwrap();
        let j_zero = p.cost(&DVec::zeros(p.n_controls())).unwrap();
        assert!(j_ref < 1e-6, "J(c_ref) = {j_ref:.3e}");
        assert!(j_zero > 1e-3, "J(0) = {j_zero:.3e}");
    }

    #[test]
    fn dp_gradient_through_time_matches_finite_differences() {
        let p = problem(10);
        let c = DVec::from_fn(p.n_controls(), |i| 0.3 * (i as f64 * 0.9).cos());
        let (j, g, _) = p.cost_and_grad_dp(&c).unwrap();
        assert!((j - p.cost(&c).unwrap()).abs() < 1e-14);
        let h = 1e-6;
        let mut g_fd = DVec::zeros(c.len());
        let mut cp = c.clone();
        for i in 0..c.len() {
            let o = cp[i];
            cp[i] = o + h;
            let jp = p.cost(&cp).unwrap();
            cp[i] = o - h;
            let jm = p.cost(&cp).unwrap();
            cp[i] = o;
            g_fd[i] = (jp - jm) / (2.0 * h);
        }
        let err = rel_error(g.as_slice(), g_fd.as_slice());
        assert!(err < 1e-5, "DP-through-time vs FD rel error {err:.3e}");
    }

    #[test]
    fn optimization_recovers_the_reference_control() {
        use opt::{Adam, Optimizer, Schedule};
        let p = problem(40);
        let mut c = DVec::zeros(p.n_controls());
        let iters = 150;
        let mut adam = Adam::new(c.len(), Schedule::paper_decay(5e-2, iters));
        for _ in 0..iters {
            let (_, g, _) = p.cost_and_grad_dp(&c).unwrap();
            adam.step(&mut c, &g);
        }
        let j = p.cost(&c).unwrap();
        let j0 = p.cost(&DVec::zeros(p.n_controls())).unwrap();
        assert!(j < 1e-3 * j0, "no deep descent: {j0:.3e} -> {j:.3e}");
        // Mid-wall recovery of sin πx.
        let c_ref = p.reference_control();
        let n = c.len();
        for i in n / 4..3 * n / 4 {
            assert!(
                (c[i] - c_ref[i]).abs() < 0.05,
                "control at x={}: {} vs {}",
                p.control_x()[i],
                c[i],
                c_ref[i]
            );
        }
    }

    #[test]
    fn tape_memory_grows_only_linearly_with_cheap_states() {
        // One LU is shared across all steps: doubling the horizon must far
        // less than double the tape bytes once the LU dominates.
        let p10 = problem(10);
        let p40 = problem(40);
        let c = DVec::zeros(p10.n_controls());
        let (_, _, b10) = p10.cost_and_grad_dp(&c).unwrap();
        let (_, _, b40) = p40.cost_and_grad_dp(&c).unwrap();
        assert!(b40 > b10, "more steps must record more state");
        assert!(
            (b40 as f64) < 3.0 * b10 as f64,
            "unexpected super-linear growth: {b10} -> {b40}"
        );
    }
}
