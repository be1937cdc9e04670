//! Direct-adjoint looping (DAL) for the Navier–Stokes control problem.
//!
//! The continuous adjoint of the steady incompressible Navier–Stokes
//! equations with the outflow-tracking cost (derived via the Lagrangian, as
//! in Mowlavi & Nabi and the paper's §2.2):
//!
//! ```text
//!   −(u·∇)ξ − ν∇²ξ + (∇u)ᵀξ + ∇q = 0,   ∇·ξ = 0       in Ω
//!   ξ = 0                          on Γ_i, walls, slots
//!   ν ∂ξ_u/∂n + (u·n)ξ_u = −(u − u_target)             on Γ_o
//!   ξ_v = 0                                            on Γ_o
//!   dJ/dc(y) = q − ν ∂ξ_u/∂x                           on Γ_i
//! ```
//!
//! discretised with the *same* coupled saddle-point machinery as the
//! forward problem: one row recipe on either discretisation, a CSR
//! operator over a pattern fixed at build and refilled per state, factored
//! by the forward solver's backend (reversed advection plus the `(∇u)ᵀξ`
//! production terms; the `q·n` contribution to the outflow condition is
//! dropped — a standard simplification). This is an
//! optimise-then-discretise scheme: its
//! gradient is *not* the exact gradient of the discrete cost, and the RBF
//! inaccuracies in the adjoint advection at higher `Re` are exactly the
//! failure mode the paper reports for DAL on this problem (§3.2, fig. 4b).

use crate::ns::{NsSolver, NsState, NsWorkspace};
use linalg::{Csr, DVec, LinalgError};

/// Adjoint fields at the nodes.
#[derive(Debug, Clone)]
pub struct AdjointState {
    /// Adjoint of `u`.
    pub xi_u: DVec,
    /// Adjoint of `v`.
    pub xi_v: DVec,
    /// Adjoint pressure.
    pub q: DVec,
}

/// DAL driver bound to a forward solver.
pub struct NsAdjoint<'s> {
    solver: &'s NsSolver,
}

impl<'s> NsAdjoint<'s> {
    /// Creates the driver.
    pub fn new(solver: &'s NsSolver) -> Self {
        NsAdjoint { solver }
    }

    /// The coupled adjoint operator for the (frozen) forward `state`,
    /// assembled in `ws` over its fixed pattern by the same row recipe as
    /// the forward operator: diffusion, pressure-gradient, continuity and
    /// pressure-BC rows copied from the constant part, the reversed
    /// advection `−(u·∇)` and the diagonal `(∇u)ᵀξ` production couplings
    /// on the interior momentum rows, and the Robin `ν∂x + u·e` rows for
    /// `ξ_u` at the outflow. Block ordering is `ξ_u | ξ_v | q`.
    pub fn adjoint_operator<'w>(&self, state: &NsState, ws: &'w mut NsWorkspace) -> &'w Csr {
        let s = self.solver;
        let n = s.nodes().len();
        let op = &mut ws.op;
        op.clone_from(&s.ops().adjoint);
        s.refill_advected(op, |i, a, x, y| {
            let (su, sv) = (-state.u[i], -state.v[i]);
            for ((a, &x), &y) in a.iter_mut().zip(x).zip(y) {
                *a = (*a + su * x) + sv * y;
            }
        });

        // Production terms (∇u)ᵀξ — diagonal couplings frozen at the state.
        // Rows i of C_x·[u; v; p] hold ∂u/∂x, rows n + i hold ∂v/∂x (C_y
        // likewise ∂/∂y).
        let x = state.stack();
        let [cx, cy] = &s.ops().adv;
        let (gx, gy) = (cx.matvec(&x), cy.matvec(&x));
        let mut add = |r: usize, c: usize, v: f64| {
            let a = op
                .get(r, c)
                .expect("position reserved by the adjoint pattern");
            op.set(r, c, a + v);
        };
        for i in s.nodes().interior_range() {
            add(i, i, gx[i]);
            add(i, n + i, gx[n + i]);
            add(n + i, i, gy[i]);
            add(n + i, n + i, gy[n + i]);
        }
        // The u·e term of the outflow Robin rows.
        for &i in s.outflow_idx() {
            add(i, i, state.u[i]);
        }
        &ws.op
    }

    /// Solves the coupled adjoint system for the given forward state.
    ///
    /// Allocates a throwaway workspace; DAL optimization loops should hold
    /// an [`NsWorkspace`] and call [`NsAdjoint::solve_adjoint_with`].
    pub fn solve_adjoint(&self, state: &NsState) -> Result<AdjointState, LinalgError> {
        let mut ws = self.solver.workspace();
        self.solve_adjoint_with(state, &mut ws)
    }

    /// [`NsAdjoint::solve_adjoint`] against a reusable workspace. The
    /// adjoint operator shares the forward system's shape and storage
    /// needs, so the *same* [`NsWorkspace`] serves the Picard sweeps and
    /// the adjoint solve, factored by the same backend dispatch. Produces
    /// the same adjoint fields as the allocating path.
    pub fn solve_adjoint_with(
        &self,
        state: &NsState,
        ws: &mut NsWorkspace,
    ) -> Result<AdjointState, LinalgError> {
        let s = self.solver;
        let n = s.nodes().len();
        // RHS: outflow mismatch on the ξ_u rows; zero elsewhere.
        let (u_out, _) = s.outflow_profile(state);
        let mut b = DVec::zeros(3 * n);
        for (j, &i) in s.outflow_idx().iter().enumerate() {
            b[i] = -(u_out[j] - s.target_u()[j]);
        }
        self.adjoint_operator(state, ws);
        let x = s.factor(ws)?.solve(&b)?;
        Ok(AdjointState {
            xi_u: DVec(x.as_slice()[..n].to_vec()),
            xi_v: DVec(x.as_slice()[n..2 * n].to_vec()),
            q: DVec(x.as_slice()[2 * n..].to_vec()),
        })
    }

    /// The DAL gradient at the inflow nodes (function-space, sorted by `y`):
    /// `g(y) = q − ν ∂ξ_u/∂x` (the sign fixed by our adjoint-variable
    /// convention; validated against the exact DP gradient in the tests).
    pub fn gradient(&self, adj: &AdjointState) -> Result<DVec, LinalgError> {
        let s = self.solver;
        let dx_xi = s.ops().dx_inflow.matvec(&adj.xi_u);
        let nu = s.nu_eff();
        Ok(DVec(
            s.inflow_idx()
                .iter()
                .zip(dx_xi.iter())
                .map(|(&i, &d)| adj.q[i] - nu * d)
                .collect(),
        ))
    }

    /// Full DAL step: forward `k_fwd` Picard refinements (warm-startable),
    /// one coupled adjoint solve, gradient. Returns `(J, gradient, state)`.
    ///
    /// Allocates a throwaway workspace; optimization loops should hold an
    /// [`NsWorkspace`] and call [`NsAdjoint::cost_and_grad_with`].
    pub fn cost_and_grad(
        &self,
        c: &DVec,
        k_fwd: usize,
        init: Option<NsState>,
    ) -> Result<(f64, DVec, NsState), LinalgError> {
        let mut ws = self.solver.workspace();
        self.cost_and_grad_with(c, k_fwd, init, &mut ws)
    }

    /// [`NsAdjoint::cost_and_grad`] against a reusable workspace: every
    /// Picard sweep *and* the adjoint solve recycle the workspace's operator
    /// and factor storage, so an Adam run performs no `(3N)²` allocation
    /// after its first gradient evaluation.
    pub fn cost_and_grad_with(
        &self,
        c: &DVec,
        k_fwd: usize,
        init: Option<NsState>,
        ws: &mut NsWorkspace,
    ) -> Result<(f64, DVec, NsState), LinalgError> {
        let state = self.solver.solve_with(c, k_fwd, init, ws)?;
        let j = self.solver.cost(&state);
        let adj = self.solve_adjoint_with(&state, ws)?;
        let g = self.gradient(&adj)?;
        Ok((j, g, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::poiseuille;
    use crate::ns::NsConfig;
    use crate::ns_dp::NsDp;
    use geometry::generators::ChannelConfig;
    use geometry::quadrature;

    fn solver(re: f64) -> NsSolver {
        NsSolver::new(NsConfig {
            channel: ChannelConfig {
                h: 0.16,
                ..Default::default()
            },
            re,
            slot_velocity: 0.2,
            ..Default::default()
        })
        .unwrap()
    }

    fn cosine(a: &DVec, b: &DVec) -> f64 {
        a.dot(b) / (a.norm2() * b.norm2()).max(1e-300)
    }

    #[test]
    fn adjoint_fields_are_finite_and_nontrivial() {
        let s = solver(10.0);
        let c = DVec(
            s.inflow_y()
                .iter()
                .map(|&y| 0.7 * poiseuille(y, 1.0))
                .collect(),
        );
        let state = s.solve(&c, 10, None).unwrap();
        let dal = NsAdjoint::new(&s);
        let adj = dal.solve_adjoint(&state).unwrap();
        assert!(!adj.xi_u.has_non_finite());
        assert!(!adj.xi_v.has_non_finite());
        assert!(!adj.q.has_non_finite());
        assert!(adj.xi_u.norm2() > 1e-10, "adjoint is identically zero");
        // ξ = 0 on the inflow/wall Dirichlet rows.
        for &i in s.inflow_idx() {
            assert!(adj.xi_u[i].abs() < 1e-9);
            assert!(adj.xi_v[i].abs() < 1e-9);
        }
    }

    #[test]
    fn dal_gradient_points_roughly_like_the_discrete_gradient_at_low_re() {
        // The paper: DAL works at Re = 10 but fails at Re = 100. At low Re
        // the OTD gradient, weighted by the inflow quadrature, should at
        // least agree in direction with the exact DP gradient.
        let s = solver(10.0);
        let c = DVec(
            s.inflow_y()
                .iter()
                .map(|&y| 0.6 * poiseuille(y, 1.0) + 0.05)
                .collect(),
        );
        let k = 12;
        let dal = NsAdjoint::new(&s);
        let (_, g_dal, _) = dal.cost_and_grad(&c, k, None).unwrap();
        let dp = NsDp::new(&s);
        let (_, g_dp, _) = dp.cost_and_grad(&c, k, None).unwrap();
        // Weight the function-space DAL gradient.
        let wq = quadrature::trapezoid_weights(s.inflow_y());
        let g_dal_w = DVec::from_fn(g_dal.len(), |i| g_dal[i] * wq[i]);
        let cos = cosine(&g_dal_w, &g_dp);
        assert!(
            cos > 0.3,
            "DAL gradient not aligned with DP gradient: cos = {cos:.3}"
        );
    }

    #[test]
    fn dal_step_decreases_cost_at_low_re() {
        let s = solver(10.0);
        let c0 = DVec(
            s.inflow_y()
                .iter()
                .map(|&y| 0.5 * poiseuille(y, 1.0))
                .collect(),
        );
        let dal = NsAdjoint::new(&s);
        let (j0, g, state) = dal.cost_and_grad(&c0, 12, None).unwrap();
        let step = 0.05 / g.norm_inf().max(1e-12);
        let c1 = &c0 - &g.scaled(step);
        let st1 = s.solve(&c1, 12, Some(state)).unwrap();
        let j1 = s.cost(&st1);
        assert!(j1 < j0, "DAL step did not descend: {j0:.3e} -> {j1:.3e}");
    }
}
