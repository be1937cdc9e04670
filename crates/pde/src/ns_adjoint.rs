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
//! forward problem (reversed advection plus the `(∇u)ᵀξ` production terms;
//! the `q·n` contribution to the outflow condition is dropped — a standard
//! simplification). This is an optimise-then-discretise scheme: its
//! gradient is *not* the exact gradient of the discrete cost, and the RBF
//! inaccuracies in the adjoint advection at higher `Re` are exactly the
//! failure mode the paper reports for DAL on this problem (§3.2, fig. 4b).

use crate::ns::{NsSolver, NsState, NsWorkspace};
use geometry::generators::channel_tags;
use linalg::{BlockCsr, DMat, DVec, LinalgError, Triplets};

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

    /// Assembles the coupled adjoint matrix for the (frozen) forward state
    /// into a caller-owned `(3N)²` matrix.
    fn adjoint_matrix_into(&self, state: &NsState, a: &mut DMat) -> Result<(), LinalgError> {
        let s = self.solver;
        let nodes = s.nodes();
        let n = nodes.len();
        let nu = s.nu_eff();
        assert_eq!(a.shape(), (3 * n, 3 * n), "adjoint_matrix_into: shape");

        // Start from the forward base (diffusion, pressure gradient,
        // continuity, BC rows) and add the adjoint-specific pieces.
        a.as_mut_slice().copy_from_slice(s.base().as_slice());

        // Reversed advection −(u·∇) on the momentum interior rows, added
        // in place over its fixed sparsity pattern (interior momentum rows
        // × velocity blocks) — the same fused form as the forward
        // `picard_matrix_into`, avoiding two `(3N)²` scale_rows temporaries.
        let dx_int = s.dx_int();
        let dy_int = s.dy_int();
        for i in nodes.interior_range() {
            let su = -state.u[i];
            let sv = -state.v[i];
            let dxr = dx_int.row(i);
            let dyr = dy_int.row(i);
            let row = &mut a.row_mut(i)[..n];
            for j in 0..n {
                row[j] = (row[j] + su * dxr[j]) + sv * dyr[j];
            }
            let row = &mut a.row_mut(n + i)[n..2 * n];
            for j in 0..n {
                row[j] = (row[j] + su * dxr[j]) + sv * dyr[j];
            }
        }

        // Production terms (∇u)ᵀξ — diagonal couplings frozen at the state.
        let dxu = s.dm().dx.matvec(&state.u)?;
        let dxv = s.dm().dx.matvec(&state.v)?;
        let dyu = s.dm().dy.matvec(&state.u)?;
        let dyv = s.dm().dy.matvec(&state.v)?;
        for i in nodes.interior_range() {
            a[(i, i)] += dxu[i];
            a[(i, n + i)] += dxv[i];
            a[(n + i, i)] += dyu[i];
            a[(n + i, n + i)] += dyv[i];
        }

        // Adjoint outflow Robin rows for ξ_u: ν ∂/∂x + u·e.
        for &i in s.outflow_idx() {
            for j in 0..n {
                a[(i, j)] = nu * s.dm().dx[(i, j)];
            }
            a[(i, i)] += state.u[i];
            // Clear any pressure-gradient coupling on this boundary row.
            for j in 0..n {
                a[(i, 2 * n + j)] = 0.0;
            }
        }
        Ok(())
    }

    /// Assembles the coupled adjoint operator as a `3 × 3` block-CSR
    /// matrix (sparse mode only) — the same equations as the dense
    /// [`NsAdjoint::solve_adjoint`] assembly, built from the RBF-FD
    /// stencil operators without any `O(N²)` storage. Block ordering is
    /// `ξ_u | ξ_v | q`: reversed advection `−(u·∇)` plus the diagonal
    /// `(∇u)ᵀξ` production couplings on the interior momentum rows, the
    /// Robin `ν∂x + u·e` rows for `ξ_u` at the outflow, and the forward
    /// problem's pressure-gradient / continuity / pressure-BC blocks.
    ///
    /// # Panics
    /// Panics under [`linalg::BackendKind::DenseLu`].
    pub fn adjoint_blocks(&self, state: &NsState) -> BlockCsr {
        let s = self.solver;
        let ops = s
            .sparse_ops()
            .expect("adjoint_blocks requires BackendKind::SparseGmres");
        let nodes = s.nodes();
        let n = nodes.len();
        let nu = s.nu_eff();

        // Production terms (∇u)ᵀξ — diagonal couplings frozen at the state.
        let dxu = ops.dx.matvec(&state.u);
        let dxv = ops.dx.matvec(&state.v);
        let dyu = ops.dy.matvec(&state.u);
        let dyv = ops.dy.matvec(&state.v);

        let push_row = |t: &mut Triplets, i: usize, cols: &[usize], vals: &[f64], scale: f64| {
            for (&j, &v) in cols.iter().zip(vals) {
                t.push(i, j, scale * v);
            }
        };

        let mut t_uu = Triplets::new(n, n);
        let mut t_uv = Triplets::new(n, n);
        let mut t_vu = Triplets::new(n, n);
        let mut t_vv = Triplets::new(n, n);
        for i in nodes.interior_range() {
            // Diffusion −ν∇²: a_u0's interior rows hold exactly that.
            let (ca, va) = ops.a_u0.row(i);
            push_row(&mut t_uu, i, ca, va, 1.0);
            push_row(&mut t_vv, i, ca, va, 1.0);
            // Reversed advection −(u·∇) on both momentum blocks.
            let (cx, vx) = ops.dx_int.row(i);
            push_row(&mut t_uu, i, cx, vx, -state.u[i]);
            push_row(&mut t_vv, i, cx, vx, -state.u[i]);
            let (cy, vy) = ops.dy_int.row(i);
            push_row(&mut t_uu, i, cy, vy, -state.v[i]);
            push_row(&mut t_vv, i, cy, vy, -state.v[i]);
            // Production couplings.
            t_uu.push(i, i, dxu[i]);
            t_uv.push(i, i, dxv[i]);
            t_vu.push(i, i, dyu[i]);
            t_vv.push(i, i, dyv[i]);
        }
        for i in nodes.boundary_indices() {
            if nodes.tag(i) == channel_tags::OUTFLOW {
                // Robin row for ξ_u: ν ∂x + u·e; no pressure coupling
                // (the (ξ_u, q) block has empty boundary rows already).
                let (cx, vx) = ops.dx.row(i);
                push_row(&mut t_uu, i, cx, vx, nu);
                t_uu.push(i, i, state.u[i]);
            } else {
                t_uu.push(i, i, 1.0); // ξ_u = 0
            }
            t_vv.push(i, i, 1.0); // ξ_v = 0
        }

        let mut blocks = BlockCsr::new(3, n);
        blocks.set_block(0, 0, t_uu.to_csr());
        blocks.set_block(0, 1, t_uv.to_csr());
        blocks.set_block(1, 0, t_vu.to_csr());
        blocks.set_block(1, 1, t_vv.to_csr());
        blocks.set_block(0, 2, ops.dx_int.clone());
        blocks.set_block(1, 2, ops.dy_int.clone());
        blocks.set_block(2, 0, ops.dx_int.clone());
        blocks.set_block(2, 1, ops.dy_int.clone());
        blocks.set_block(2, 2, ops.a_p.clone());
        blocks
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
    /// adjoint matrix shares the forward system's shape and storage needs, so
    /// the *same* [`NsWorkspace`] serves the Picard sweeps and the adjoint
    /// solve: dense mode assembles over the matrix buffer and refactors the
    /// LU in place; sparse mode factors the flattened block operator with
    /// [`linalg::BandLu`]. Produces the same adjoint fields as the
    /// allocating path.
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
        if s.sparse_ops().is_some() {
            let blocks = self.adjoint_blocks(state);
            s.solve_saddle(ws, &blocks, &b)?;
        } else {
            self.adjoint_matrix_into(state, &mut ws.a)?;
            s.solve_assembled(ws, &b)?;
        }
        let x = &ws.x;
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
        let dx_xi = match s.sparse_ops() {
            Some(ops) => ops.dx.matvec(&adj.xi_u),
            None => s.dm().dx.matvec(&adj.xi_u)?,
        };
        let nu = s.nu_eff();
        Ok(DVec(
            s.inflow_idx()
                .iter()
                .map(|&i| adj.q[i] - nu * dx_xi[i])
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
    /// Picard sweep *and* the adjoint solve recycle one `(3N)²` matrix and
    /// one LU factor storage, so an Adam run performs zero large allocations
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
