//! Differentiable programming through the Navier–Stokes Picard solver.
//!
//! The *entire* forward iteration of [`crate::ns::NsSolver`] — `k` coupled
//! Picard refinements, each with a state-dependent `(3N)²` system matrix —
//! is re-expressed in tensor-tape operations. One reverse sweep then yields
//! the exact discrete gradient `dJ/dc` of the outflow-tracking cost with
//! respect to the inflow control.
//!
//! Every refinement records one [`Tape::solve_scaled`] node on either
//! backend. The coupled operator is the fixed decomposition
//! `A₀ + diag(s_u)·C_x + diag(s_v)·C_y` (CSR structure matrices from
//! [`NsSolver::advection_structs`]); it is assembled *untaped* for the
//! current iterate by the plain solver's own [`NsSolver::picard_operator`]
//! and factored by the same backend dispatch — a dense LU under
//! [`linalg::BackendKind::DenseLu`], a [`linalg::BandLu`] under
//! [`linalg::BackendKind::SparseGmres`]. The reverse sweep does one
//! transpose solve per refinement and contracts `Ā = −s xᵀ` against `C_x`,
//! `C_y` without forming it.
//!
//! Under `DenseLu` the node keeps only its `(3N)²` LU factor, so tape
//! memory grows linearly in `k` (one factor per refinement) while the
//! factorization *work* grows with `k` too — together this is the
//! cost-vs-`k` behaviour the paper reports for DP in Table 3 and §4 ("DP
//! as conceived in this study can be memory inefficient due to storage …
//! of a computational graph"). No `(3N)²` intermediate or adjoint is
//! recorded beyond the factors. Under `SparseGmres` the node keeps one band
//! factor per refinement instead, so sparse tape memory is linear in `k`
//! as well, at a fraction of the dense factor's size.

use crate::ns::{NsSolver, NsState};
use autodiff::tensor::{self, Tensor};
use autodiff::Tape;
use linalg::{DMat, DVec, LinalgError};
use std::sync::Arc;

/// Statistics captured from the DP tape — feeds the Table 3 reproduction.
#[derive(Debug, Clone, Copy)]
pub struct DpStats {
    /// Nodes recorded on the tape.
    pub tape_nodes: usize,
    /// Approximate tape memory (values + cached LU factors), in bytes.
    pub tape_bytes: usize,
}

/// Differentiable wrapper around an [`NsSolver`].
pub struct NsDp<'s> {
    solver: &'s NsSolver,
    /// `3N × n_c` placement of inflow control values into the stacked RHS.
    placement_in: Arc<Tensor>,
    /// `3N × n_c` placement of the cold-start state: rows `0..N` carry
    /// [`NsSolver::initial_placement`] (the `u` transport of the control),
    /// the `v`/`p` rows are zero. Recording `x₀ = P₀·c` keeps the
    /// `∂x₀/∂c` path on the tape.
    placement_init: Arc<Tensor>,
    /// Constant stacked RHS (slot data), `3N × 1`.
    rhs0: Tensor,
    /// `−target` at the outflow nodes.
    neg_target: Tensor,
    /// `½ wᵢ` outflow quadrature (applied to both `u` and `v` mismatches).
    half_weights: Tensor,
    /// Stacked indices of the outflow `u` values.
    u_out_rows: Vec<usize>,
    /// Stacked indices of the outflow `v` values.
    v_out_rows: Vec<usize>,
}

impl<'s> NsDp<'s> {
    /// Prepares the constant tensors shared across iterations.
    pub fn new(solver: &'s NsSolver) -> Self {
        let n = solver.nodes().len();
        let n_c = solver.n_controls();
        let mut placement = DMat::zeros(3 * n, n_c);
        for (j, &i) in solver.inflow_idx().iter().enumerate() {
            placement[(i, j)] = 1.0;
        }
        let p0 = solver.initial_placement();
        let mut placement_init = DMat::zeros(3 * n, n_c);
        for i in 0..n {
            for j in 0..n_c {
                placement_init[(i, j)] = p0[(i, j)];
            }
        }
        let rhs0 = tensor::from_dvec(solver.rhs0());
        let t = solver.target_u();
        let neg_target = DMat::from_fn(t.len(), 1, |i, _| -t[i]);
        let w = solver.outflow_weights();
        let half_weights = DMat::from_fn(w.len(), 1, |i, _| 0.5 * w[i]);
        let u_out_rows = solver.outflow_idx().to_vec();
        let v_out_rows: Vec<usize> = solver.outflow_idx().iter().map(|&i| n + i).collect();
        NsDp {
            solver,
            placement_in: Arc::new(placement),
            placement_init: Arc::new(placement_init),
            rhs0,
            neg_target,
            half_weights,
            u_out_rows,
            v_out_rows,
        }
    }

    /// Runs `k` taped refinements and returns `(J, dJ/dc, stats)`.
    ///
    /// `init` warm-starts the iteration (the optimization loop passes the
    /// previous state, mirroring the plain solver).
    pub fn cost_and_grad(
        &self,
        c: &DVec,
        k: usize,
        init: Option<&NsState>,
    ) -> Result<(f64, DVec, DpStats), LinalgError> {
        let (j, g, stats, _) = self.run(c, k, init)?;
        Ok((j, g, stats))
    }

    /// Like [`NsDp::cost_and_grad`] but also returns the final flow state
    /// (for warm-starting the next optimization iteration).
    pub fn run(
        &self,
        c: &DVec,
        k: usize,
        init: Option<&NsState>,
    ) -> Result<(f64, DVec, DpStats, NsState), LinalgError> {
        let s = self.solver;
        let n = s.nodes().len();
        let tape = Tape::new();
        let cv = tape.var_col(c);
        // A warm start is a constant of the map; a cold start is `P₀·c`
        // and must stay differentiable (see `placement_init`).
        let mut x = match init {
            Some(st) => tape.var_col(&st.stack()),
            None => cv.matmul_const_l(&self.placement_init),
        };
        let zeros_n = tape.var_col(&vec![0.0; n]);
        let rhs = cv.matmul_const_l(&self.placement_in).add_const(&self.rhs0);
        let w = s.cfg().picard_damping;
        let structs = s.advection_structs();
        // Every sweep refills this workspace's operator (and, under
        // DenseLu, its dense image).
        let mut ws = s.workspace();

        for _ in 0..k {
            let u_slice = x.slice_rows(0, n);
            let v_slice = x.slice_rows(n, n);
            let su = tape.concat_rows(&[u_slice, u_slice, zeros_n]);
            let sv = tape.concat_rows(&[v_slice, v_slice, zeros_n]);
            // The operator for the current iterate is assembled untaped:
            // it is A₀ + diag(su)·C_x + diag(sv)·C_y, and `solve_scaled`
            // differentiates through exactly that decomposition.
            let state_now = NsState::unstack(&tensor::to_dvec(&x.value()));
            s.picard_operator(&state_now, &mut ws);
            let be = s.factor(&mut ws)?;
            let x_new = tape.solve_scaled(&be, &[su, sv], &structs, rhs)?;
            x = x.scale(1.0 - w).add(x_new.scale(w));
        }

        // J = Σ ½wᵢ [(u_out − target)² + v_out²].
        let u_out = x.gather_rows(&self.u_out_rows);
        let v_out = x.gather_rows(&self.v_out_rows);
        let du = u_out.add_const(&self.neg_target);
        let j = du.sq().add(v_out.sq()).dot_const(&self.half_weights);
        let jval = j.scalar_value();
        let stats = DpStats {
            tape_nodes: tape.len(),
            tape_bytes: tape.memory_bytes(),
        };
        let final_state = NsState::unstack(&tensor::to_dvec(&x.value()));
        let grads = tape.backward(j);
        Ok((jval, tensor::to_dvec(&grads.wrt(cv)), stats, final_state))
    }

    /// Plain (no-gradient) evaluation of `J` after `k` refinements — used by
    /// the finite-difference baseline. Delegates to the plain solver.
    pub fn cost_only(&self, c: &DVec, k: usize, init: Option<NsState>) -> Result<f64, LinalgError> {
        let st = self.solver.solve(c, k, init)?;
        Ok(self.solver.cost(&st))
    }

    /// Central finite-difference gradient of `J(c)` (the paper's footnote-11
    /// baseline: accurate for this problem at a fraction of DP's memory).
    pub fn cost_and_grad_fd(&self, c: &DVec, k: usize, h: f64) -> Result<(f64, DVec), LinalgError> {
        let j0 = self.cost_only(c, k, None)?;
        let mut g = DVec::zeros(c.len());
        let mut cp = c.clone();
        for i in 0..c.len() {
            let orig = cp[i];
            cp[i] = orig + h;
            let jp = self.cost_only(&cp, k, None)?;
            cp[i] = orig - h;
            let jm = self.cost_only(&cp, k, None)?;
            cp[i] = orig;
            g[i] = (jp - jm) / (2.0 * h);
        }
        Ok((j0, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::poiseuille;
    use crate::ns::NsConfig;
    use autodiff::gradcheck::rel_error;
    use geometry::generators::ChannelConfig;
    use linalg::{LinearBackend, Lu};

    fn tiny_solver(re: f64) -> NsSolver {
        NsSolver::new(NsConfig {
            channel: ChannelConfig {
                h: 0.18,
                ..Default::default()
            },
            re,
            slot_velocity: 0.2,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn taped_forward_matches_plain_solver() {
        let s = tiny_solver(30.0);
        let c = DVec(s.inflow_y().iter().map(|&y| poiseuille(y, 1.0)).collect());
        let k = 4;
        let plain = s.solve(&c, k, None).unwrap();
        let j_plain = s.cost(&plain);
        let dp = NsDp::new(&s);
        let (j_dp, _, _) = dp.cost_and_grad(&c, k, None).unwrap();
        assert!(
            (j_dp - j_plain).abs() < 1e-10 * (1.0 + j_plain.abs()),
            "taped J {j_dp} vs plain {j_plain}"
        );
    }

    #[test]
    fn dp_gradient_matches_finite_differences() {
        let s = tiny_solver(30.0);
        let c = DVec(
            s.inflow_y()
                .iter()
                .map(|&y| 0.8 * poiseuille(y, 1.0) + 0.05)
                .collect(),
        );
        let k = 3;
        let dp = NsDp::new(&s);
        let (_, g_dp, _) = dp.cost_and_grad(&c, k, None).unwrap();
        let (_, g_fd) = dp.cost_and_grad_fd(&c, k, 1e-6).unwrap();
        let err = rel_error(g_dp.as_slice(), g_fd.as_slice());
        assert!(
            err < 1e-4,
            "DP vs FD rel error {err:.3e}\n{g_dp:?}\n{g_fd:?}"
        );
    }

    #[test]
    fn tape_memory_grows_with_refinements() {
        let s = tiny_solver(30.0);
        let c = DVec(s.inflow_y().iter().map(|&y| poiseuille(y, 1.0)).collect());
        let dp = NsDp::new(&s);
        let (_, _, st2) = dp.cost_and_grad(&c, 2, None).unwrap();
        let (_, _, st8) = dp.cost_and_grad(&c, 8, None).unwrap();
        assert!(
            st8.tape_bytes > 3 * st2.tape_bytes,
            "memory did not grow with k: {} vs {}",
            st2.tape_bytes,
            st8.tape_bytes
        );
        assert!(st8.tape_nodes > st2.tape_nodes);
    }

    #[test]
    fn dense_tape_holds_one_lu_factor_per_refinement_and_no_dense_intermediates() {
        // Each refinement keeps its (3N)² LU factor; everything else on the
        // tape is O(N) node values. One (3N)² intermediate or adjoint
        // (72·N² bytes) would blow the O(N) allowance.
        let s = tiny_solver(30.0);
        let n = s.nodes().len();
        let c = DVec(s.inflow_y().iter().map(|&y| poiseuille(y, 1.0)).collect());
        let k = 4;
        let (_, _, st) = NsDp::new(&s).cost_and_grad(&c, k, None).unwrap();
        let mut ws = s.workspace();
        let a = s.picard_operator(&s.initial_state(&c), &mut ws).to_dense();
        let lu = Lu::factor(&a).unwrap();
        let bound = k * LinearBackend::memory_bytes(&lu) + 1024 * n;
        assert!(
            st.tape_bytes <= bound,
            "tape {} B exceeds {k} LU factors + O(N) = {bound} B (N = {n})",
            st.tape_bytes
        );
        assert!(72 * n * n > 1024 * n, "cloud too small to tell");
    }

    #[test]
    fn descent_direction_reduces_cost() {
        let s = tiny_solver(30.0);
        let c0 = DVec(
            s.inflow_y()
                .iter()
                .map(|&y| 0.5 * poiseuille(y, 1.0))
                .collect(),
        );
        let dp = NsDp::new(&s);
        let k = 4;
        let (j0, g, _) = dp.cost_and_grad(&c0, k, None).unwrap();
        let step = 0.05 / g.norm_inf().max(1e-9);
        let c1 = &c0 - &g.scaled(step);
        let j1 = dp.cost_only(&c1, k, None).unwrap();
        assert!(j1 < j0, "no descent: {j0:.3e} -> {j1:.3e}");
    }
}
