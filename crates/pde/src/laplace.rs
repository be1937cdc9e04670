//! The Laplace optimal-control substrate (paper §3.1).
//!
//! Problem (7): `∇²u = 0` on the unit square; `u(x,0) = sin πx`; zero side
//! walls; control `u(x,1) = c(x)` on the top wall; cost
//! `J(c) = ∫₀¹ |∂u/∂y(x,1) − cos πx|² dx`.
//!
//! The system matrix does not depend on the control (only the RHS does),
//! so its [`linalg::LinearBackend`] is prepared **once** at construction and
//! reused for every forward solve, every DAL adjoint solve, and — through
//! the tape's [`autodiff::Tape::solve_backend`] — every DP gradient. This is
//! the "factor once" fast path that makes 300+ optimization iterations
//! cheap.
//!
//! Two discretizations share one code path for the cost, DAL, and DP
//! gradients, selected via [`linalg::BackendKind`]:
//!
//! * **`DenseLu`** (the default) — global RBF collocation, unknowns are the
//!   `N + M` coefficients `[λ; γ]`, solved by the cached dense [`Lu`].
//! * **`SparseGmres`** (the sparse RBF-FD discretisation; the name is
//!   kept for spec ids and ledgers) — RBF-FD local stencils, unknowns are
//!   the `N` nodal values, factored once by [`linalg::EnvelopeLu`]: the
//!   Dirichlet identity rows are split off and the interior block gets an
//!   RCM-ordered envelope LU without row interchanges. Memory grows with
//!   the envelope (`O(nx)` entries per row) instead of the dense
//!   `O((N+M)²)`, and every solve reports on the `"linsolve"` trace layer.

use autodiff::tensor;
use autodiff::{Tape, Tensor};
use geometry::generators::unit_square_grid;
use geometry::{quadrature, NodeKind, Point2};
use linalg::{BackendKind, DMat, DVec, EnvelopeLu, LinalgError, LinearBackend, Lu, Triplets};
use rbf::fd::{fd_matrices_multi, FdConfig, StencilSet};
use rbf::{DiffOp, GlobalCollocation, RbfKernel};
use std::f64::consts::PI;
use std::sync::Arc;

/// Boundary tags for the unit-square Laplace domain.
pub mod tags {
    /// Bottom wall `y = 0` (`u = sin πx`).
    pub const BOTTOM: usize = 1;
    /// Top wall `y = 1` (the control).
    pub const TOP: usize = 2;
    /// Left wall `x = 0` (`u = 0`).
    pub const LEFT: usize = 3;
    /// Right wall `x = 1` (`u = 0`).
    pub const RIGHT: usize = 4;
}

/// Dense-only machinery: the global collocation context and the cached LU
/// factor (kept typed for diagnostics the trait hides, e.g. the 1-norm
/// condition estimate).
struct DenseParts {
    ctx: GlobalCollocation,
    lu: Arc<Lu>,
}

/// The assembled, factored Laplace control problem.
pub struct LaplaceControlProblem {
    /// The linear engine behind every forward, adjoint, and tape solve.
    backend: Arc<dyn LinearBackend>,
    /// `Some` on the dense (global collocation) discretization; `None` on
    /// the sparse RBF-FD one.
    dense: Option<DenseParts>,
    /// Unknown count: `N + M` coefficients (dense) or `N` nodal values
    /// (sparse).
    size: usize,
    /// Top-wall node indices, sorted by `x`.
    top_idx: Vec<usize>,
    /// Top-wall `x` coordinates (sorted).
    top_x: Vec<f64>,
    /// Trapezoid quadrature weights over `top_x`.
    weights: DVec,
    /// Constant RHS part (bottom `sin πx`; zero elsewhere).
    rhs0: Tensor,
    /// `n_c × (N+M)` rows of `∂/∂y` at the top nodes.
    dy_top: Arc<Tensor>,
    /// Target flux `cos πx` at the top nodes (`n_c × 1`).
    target: Tensor,
}

impl LaplaceControlProblem {
    /// Builds the problem on an `nx × nx` regular grid (the paper uses
    /// 100 × 100; see DESIGN.md §5 for the scale-down rationale) with the
    /// PHS3 kernel and degree-1 augmentation, exactly as in the paper.
    pub fn new(nx: usize) -> Result<Self, LinalgError> {
        Self::with_kernel(nx, RbfKernel::Phs3, 1)
    }

    /// Builds with an explicit linear-solver backend: [`BackendKind::DenseLu`]
    /// is the byte-identical default ([`LaplaceControlProblem::new`]);
    /// [`BackendKind::SparseGmres`] selects the sparse RBF-FD discretization
    /// ([`LaplaceControlProblem::new_sparse`]).
    pub fn with_backend(nx: usize, kind: BackendKind) -> Result<Self, LinalgError> {
        match kind {
            BackendKind::DenseLu => Self::new(nx),
            BackendKind::SparseGmres => Self::new_sparse(nx),
        }
    }

    /// Builds the **sparse RBF-FD** variant on an `nx × nx` grid: local
    /// stencils assemble a `Csr` operator (interior rows the RBF-FD
    /// Laplacian, boundary rows identity), factored once by
    /// [`EnvelopeLu`]. Same control problem and gradient code paths as the
    /// dense form; the unknowns are the `N` nodal values instead of RBF
    /// coefficients, so memory scales with the envelope rather than `N²`.
    pub fn new_sparse(nx: usize) -> Result<Self, LinalgError> {
        let nodes = unit_square_grid(nx, nx, Self::classifier);
        let fd = FdConfig {
            stencil_size: 13,
            degree: 2,
        };
        // One stencil search and one local factorisation per node serve
        // both operators (each bitwise equal to its own `fd_matrix`).
        let stencils = StencilSet::build(&nodes, fd.stencil_size);
        let mats = fd_matrices_multi(
            &nodes,
            &stencils,
            RbfKernel::Phs3,
            fd.degree,
            &[DiffOp::Lap, DiffOp::Dy],
        )?;
        let mut it = mats.into_iter();
        let lap = it.next().expect("two ops requested");
        let dy = it.next().expect("two ops requested");
        let n = nodes.len();
        let mut t = Triplets::new(n, n);
        for i in nodes.interior_range() {
            let (cols, vals) = lap.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                t.push(i, j, v);
            }
        }
        for i in nodes.boundary_indices() {
            t.push(i, i, 1.0);
        }
        let backend: Arc<dyn LinearBackend> = Arc::new(EnvelopeLu::factor(&t.to_csr())?);

        let (top_idx, top_x) =
            quadrature::sort_along(&nodes.indices_with_tag(tags::TOP), |i| nodes.point(i).x);
        let weights = DVec(quadrature::trapezoid_weights(&top_x));
        let n_c = top_idx.len();
        let mut rhs0 = DMat::zeros(n, 1);
        for i in nodes.indices_with_tag(tags::BOTTOM) {
            rhs0[(i, 0)] = (PI * nodes.point(i).x).sin();
        }
        // Densified `∂/∂y` rows at the top nodes (`n_c × N`, a thin strip)
        // so the flux and tape code paths are shared with the dense form.
        let mut dy_top = DMat::zeros(n_c, n);
        for (k, &i) in top_idx.iter().enumerate() {
            let (cols, vals) = dy.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                dy_top[(k, j)] = v;
            }
        }
        let target = DMat::from_fn(n_c, 1, |i, _| (PI * top_x[i]).cos());

        Ok(LaplaceControlProblem {
            backend,
            dense: None,
            size: n,
            top_idx,
            top_x,
            weights,
            rhs0,
            dy_top: Arc::new(dy_top),
            target,
        })
    }

    /// The unit-square boundary classifier shared by all node layouts.
    pub fn classifier(p: Point2) -> (NodeKind, usize, Point2) {
        if p.y == 0.0 {
            (NodeKind::Dirichlet, tags::BOTTOM, Point2::new(0.0, -1.0))
        } else if p.y == 1.0 {
            (NodeKind::Dirichlet, tags::TOP, Point2::new(0.0, 1.0))
        } else if p.x == 0.0 {
            (NodeKind::Dirichlet, tags::LEFT, Point2::new(-1.0, 0.0))
        } else {
            (NodeKind::Dirichlet, tags::RIGHT, Point2::new(1.0, 0.0))
        }
    }

    /// Builds on a **scattered** point cloud (Halton interior + uniform
    /// boundary) — the layout the paper tried and rejected for its worse
    /// conditioning ("the regular grid resulted in better conditioned
    /// collocation matrices compared with a scattered point cloud of the
    /// same size", §3.1).
    pub fn new_scattered(n_interior: usize, n_per_side: usize) -> Result<Self, LinalgError> {
        let nodes =
            geometry::generators::unit_square_scattered(n_interior, n_per_side, Self::classifier);
        Self::from_nodes(&nodes, RbfKernel::Phs3, 1)
    }

    /// Builds with an explicit kernel and augmentation degree (used by the
    /// kernel-choice ablation).
    pub fn with_kernel(nx: usize, kernel: RbfKernel, degree: i32) -> Result<Self, LinalgError> {
        let nodes = unit_square_grid(nx, nx, Self::classifier);
        Self::from_nodes(&nodes, kernel, degree)
    }

    /// Builds over an arbitrary classified node set (tags per
    /// [`tags`]; all boundary nodes Dirichlet).
    pub fn from_nodes(
        nodes: &geometry::NodeSet,
        kernel: RbfKernel,
        degree: i32,
    ) -> Result<Self, LinalgError> {
        let ctx = GlobalCollocation::new(nodes, kernel, degree);
        let a = ctx.assemble_with_bcs(|_, p| ctx.row(DiffOp::Lap, p), 0.0);
        let lu = Arc::new(Lu::factor(&a)?);

        let (top_idx, top_x) =
            quadrature::sort_along(&ctx.nodes().indices_with_tag(tags::TOP), |i| {
                ctx.nodes().point(i).x
            });
        let weights = DVec(quadrature::trapezoid_weights(&top_x));

        let size = ctx.size();
        let n_c = top_idx.len();
        let mut rhs0 = DMat::zeros(size, 1);
        for i in ctx.nodes().indices_with_tag(tags::BOTTOM) {
            rhs0[(i, 0)] = (PI * ctx.nodes().point(i).x).sin();
        }
        let top_points: Vec<Point2> = top_idx.iter().map(|&i| ctx.nodes().point(i)).collect();
        let dy_top = ctx.op_matrix(DiffOp::Dy, &top_points);
        let target = DMat::from_fn(n_c, 1, |i, _| (PI * top_x[i]).cos());

        Ok(LaplaceControlProblem {
            backend: Arc::clone(&lu) as Arc<dyn LinearBackend>,
            dense: Some(DenseParts { ctx, lu }),
            size,
            top_idx,
            top_x,
            weights,
            rhs0,
            dy_top: Arc::new(dy_top),
            target,
        })
    }

    /// Dense-only internals, with a clear panic for the sparse variant.
    fn dense_parts(&self) -> &DenseParts {
        self.dense.as_ref().expect(
            "dense-only operation on a sparse (RBF-FD) Laplace problem; \
             construct with BackendKind::DenseLu",
        )
    }

    /// Number of control degrees of freedom (top-wall nodes).
    pub fn n_controls(&self) -> usize {
        self.top_idx.len()
    }

    /// Sorted `x` coordinates of the control nodes.
    pub fn control_x(&self) -> &[f64] {
        &self.top_x
    }

    /// Quadrature weights of the cost integral.
    pub fn quad_weights(&self) -> &DVec {
        &self.weights
    }

    /// Target flux profile `cos πxᵢ` at the control nodes — the reference
    /// the cost integral penalises deviations from. Exposed so surrogate
    /// objectives can reproduce the exact discrete cost without a solve.
    pub fn flux_target(&self) -> DVec {
        DVec(
            (0..self.target.nrows())
                .map(|i| self.target[(i, 0)])
                .collect(),
        )
    }

    /// The underlying collocation context (dense discretization only;
    /// panics on the sparse RBF-FD variant, which has no global context).
    pub fn ctx(&self) -> &GlobalCollocation {
        &self.dense_parts().ctx
    }

    /// Which linear-solver backend drives every solve.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The shared linear backend (forward, adjoint, and tape solves).
    pub fn backend(&self) -> &Arc<dyn LinearBackend> {
        &self.backend
    }

    /// Total unknowns: `N + M` RBF coefficients (dense) or `N` nodal
    /// values (sparse).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes this build keeps resident: the prepared backend (dense LU
    /// factor, or the sparse envelope factor) plus the constant tensors
    /// every cost and gradient evaluation shares, chiefly the
    /// `n_c × size` `∂/∂y` rows.
    pub fn memory_bytes(&self) -> usize {
        let floats = self.dy_top.as_slice().len()
            + self.rhs0.as_slice().len()
            + self.target.as_slice().len()
            + self.weights.len()
            + self.top_x.len();
        self.backend.memory_bytes()
            + floats * std::mem::size_of::<f64>()
            + self.top_idx.len() * std::mem::size_of::<usize>()
    }

    /// Condition-number estimate of the collocation matrix (diagnostics; the
    /// paper compares grid vs scattered conditioning). Dense only.
    pub fn condition_estimate(&self) -> f64 {
        // ‖A‖₁ is not retained; the estimate with norm 1.0 still exposes
        // ‖A⁻¹‖₁, which is the varying factor between node layouts.
        self.dense_parts().lu.cond_1_estimate(1.0)
    }

    /// Assembles the (control-dependent) RHS for boundary data `c`.
    fn rhs(&self, c: &DVec) -> DVec {
        assert_eq!(c.len(), self.n_controls(), "rhs: control length");
        let mut b = DVec(self.rhs0.col(0).as_slice().to_vec());
        for (j, &i) in self.top_idx.iter().enumerate() {
            b[i] += c[j];
        }
        b
    }

    /// Solves the forward problem, returning RBF coefficients `[λ; γ]`
    /// (dense) or nodal values (sparse).
    pub fn solve_coeffs(&self, c: &DVec) -> Result<DVec, LinalgError> {
        self.backend.solve(&self.rhs(c))
    }

    /// Solves a *generic* Dirichlet problem with the same operator: boundary
    /// values given per boundary node index. Used by the DAL adjoint solve.
    pub fn solve_dirichlet(&self, boundary_values: &[(usize, f64)]) -> Result<DVec, LinalgError> {
        let mut b = DVec::zeros(self.size);
        for &(i, v) in boundary_values {
            b[i] = v;
        }
        self.backend.solve(&b)
    }

    /// Top-wall flux `∂u/∂y(x_i, 1)` for a coefficient vector.
    pub fn flux_top(&self, coeffs: &DVec) -> DVec {
        self.dy_top
            .matvec(&coeffs.clone())
            .expect("flux_top: shape")
    }

    /// The discrete cost `J(c) = Σ wᵢ (flux(xᵢ) − cos πxᵢ)²`.
    pub fn cost(&self, c: &DVec) -> Result<f64, LinalgError> {
        Ok(self.flux_cost(&self.flux_top(&self.solve_coeffs(c)?)))
    }

    /// The cost integral `Σ wᵢ (fluxᵢ − cos πxᵢ)²` of a top-wall flux
    /// profile — the quadrature every cost in this module ends with.
    pub fn flux_cost(&self, flux: &DVec) -> f64 {
        let mut j = 0.0;
        for i in 0..flux.len() {
            let d = flux[i] - self.target[(i, 0)];
            j += self.weights[i] * d * d;
        }
        j
    }

    /// Batched forward map: the top-wall flux profile of each control,
    /// from one [`LinearBackend::solve_many`] over all of them. Each
    /// profile equals `flux_top(&solve_coeffs(c))` bit for bit (the
    /// backend's batched contract).
    pub fn flux_top_many(&self, controls: &[DVec]) -> Result<Vec<DVec>, LinalgError> {
        let rhs: Vec<DVec> = controls.iter().map(|c| self.rhs(c)).collect();
        let coeffs = self.backend.solve_many(&rhs)?;
        Ok(coeffs.iter().map(|co| self.flux_top(co)).collect())
    }

    /// Batched [`LaplaceControlProblem::cost`]: one objective value per
    /// control vector, all sharing the cached operator.
    ///
    /// The forward solves go through [`LaplaceControlProblem::flux_top_many`],
    /// so on the dense backend a batch of controls costs one blocked
    /// multi-RHS substitution pass instead of `k` separate solves — the
    /// kernel under the serve daemon's request batcher. Guaranteed to
    /// return exactly the bits of `k` standalone `cost` calls.
    pub fn cost_many(&self, controls: &[DVec]) -> Result<Vec<f64>, LinalgError> {
        Ok(self
            .flux_top_many(controls)?
            .iter()
            .map(|f| self.flux_cost(f))
            .collect())
    }

    /// Reassembles the collocation matrix and factors it from scratch — the
    /// per-call cost that the construction-time factorisation (the cached
    /// [`Lu`] shared by every forward, adjoint, and tape solve) avoids.
    ///
    /// Exposed for the perf suite and the cache-equivalence tests: the fresh
    /// factor is bit-for-bit the construction-time factor, so the
    /// `*_uncached` gradient paths must reproduce the cached results exactly
    /// while paying an extra `O(N³)` per call.
    pub fn refactored_lu(&self) -> Result<Lu, LinalgError> {
        let d = self.dense_parts();
        let a = d
            .ctx
            .assemble_with_bcs(|_, p| d.ctx.row(DiffOp::Lap, p), 0.0);
        Lu::factor(&a)
    }

    /// **DP gradient**: records the entire discrete solve on the tensor tape
    /// and returns `(J, dJ/dc)` by one reverse sweep — the
    /// discretise-then-optimise gradient of the paper's best method.
    pub fn cost_and_grad_dp(&self, c: &DVec) -> Result<(f64, DVec), LinalgError> {
        self.dp_with(c, &self.backend)
    }

    /// [`LaplaceControlProblem::cost_and_grad_dp`] with the factorisation
    /// cache disabled: the operator is reassembled and refactored on every
    /// call (the "factor every iteration" baseline in `BENCH_perf.json`).
    /// Returns exactly the cached result. Dense only.
    pub fn cost_and_grad_dp_uncached(&self, c: &DVec) -> Result<(f64, DVec), LinalgError> {
        let fresh: Arc<dyn LinearBackend> = Arc::new(self.refactored_lu()?);
        self.dp_with(c, &fresh)
    }

    /// DP gradient against an explicit backend. The tape's
    /// [`autodiff::Tape::solve_backend`] node holds the backend so the
    /// reverse sweep reuses the same factorisation (dense) or
    /// preconditioned operator (sparse) for the transpose solve.
    fn dp_with(&self, c: &DVec, be: &Arc<dyn LinearBackend>) -> Result<(f64, DVec), LinalgError> {
        let tape = Tape::new();
        let cv = tape.var_col(c);
        let rhs = cv
            .scatter_rows(&self.top_idx, self.size)
            .add_const(&self.rhs0);
        let coeffs = tape.solve_backend(be, rhs)?;
        let flux = coeffs.matmul_const_l(&self.dy_top);
        let diff = flux.add_const(&(&self.target * -1.0));
        let j = diff.sq().dot_const(&tensor::from_dvec(&self.weights));
        let jval = j.scalar_value();
        let grads = tape.backward(j);
        Ok((jval, tensor::to_dvec(&grads.wrt(cv))))
    }

    /// Cost, DP gradient and Hessian-vector product in one call:
    /// [`LaplaceControlProblem::cost_and_grad_dp`] at `c` plus
    /// [`LaplaceControlProblem::hvp`] along `v`, so cost and gradient are
    /// the DP path's bits. perfbench's timed optimiser replay calls it.
    pub fn cost_grad_hvp(&self, c: &DVec, v: &DVec) -> Result<(f64, DVec, DVec), LinalgError> {
        let (j, g) = self.cost_and_grad_dp(c)?;
        Ok((j, g, self.hvp(v)?))
    }

    /// **Exact Hessian-vector product** `H·v`. The problem is
    /// linear-quadratic (the PDE is linear in the control, the cost a
    /// weighted square of the flux), so the DP Hessian is the constant
    /// `H = 2 Pᵀ A⁻ᵀ Dᵀ W D A⁻¹ P` and needs no control argument: one
    /// forward solve for the flux tangent `D A⁻¹ P v`, one transpose solve
    /// for its adjoint, both on the cached backend. This is the curvature
    /// oracle behind the Newton-CG DP runs.
    pub fn hvp(&self, v: &DVec) -> Result<DVec, LinalgError> {
        assert_eq!(v.len(), self.n_controls(), "hvp: direction length");
        // The operation order (column `matmul` through the flux rows,
        // `matvec_t` for its transpose) is part of the result: Newton-CG DP
        // trajectories and their golden snapshot depend on these exact
        // bits. The control enters and leaves through `top_idx`.
        let mut dc = DVec::zeros(self.size);
        for (j, &i) in self.top_idx.iter().enumerate() {
            dc[i] = v[j];
        }
        let du = self.backend.solve(&dc)?;
        let dflux = self
            .dy_top
            .matmul(&tensor::from_dvec(&du))
            .expect("hvp: shape");
        let fbar = DVec::from_fn(dflux.nrows(), |i| self.weights[i] * (dflux[(i, 0)] * 2.0));
        let ubar = self.dy_top.matvec_t(&fbar).expect("hvp: shape");
        let bbar = self.backend.solve_transpose(&ubar)?;
        Ok(DVec(self.top_idx.iter().map(|&i| bbar[i]).collect()))
    }

    /// **DAL gradient**: solves the hand-derived continuous adjoint problem
    /// (`∇²λ = 0`, `λ(x,1) = 2(∂u/∂y(x,1) − cos πx)`, `λ = 0` on the other
    /// walls) and returns `(J, ∂λ/∂y(·,1))` — the optimise-then-discretise
    /// gradient *as an L² function* sampled at the control nodes. Multiply
    /// by the quadrature weights to compare against the DP gradient.
    pub fn cost_and_grad_dal(&self, c: &DVec) -> Result<(f64, DVec), LinalgError> {
        self.dal_with(c, self.backend.as_ref())
    }

    /// [`LaplaceControlProblem::cost_and_grad_dal`] with the factorisation
    /// cache disabled (fresh reassembly + factor per call). Returns exactly
    /// the cached result; exists as the measured baseline for the
    /// `dal_laplace_factor_reuse_speedup` scalar in `BENCH_perf.json`.
    pub fn cost_and_grad_dal_uncached(&self, c: &DVec) -> Result<(f64, DVec), LinalgError> {
        self.dal_with(c, &self.refactored_lu()?)
    }

    /// Batched [`LaplaceControlProblem::cost_and_grad_dal`]: one `(J, ∂λ/∂y)`
    /// pair per control vector, from one [`LinearBackend::solve_many`] for
    /// the forward solves and one for the adjoint solves — the kernel
    /// behind a DAL Newton step's Hessian probes, the way
    /// [`LaplaceControlProblem::cost_many`] is for the served evals.
    /// Returns exactly the bits of `k` standalone `cost_and_grad_dal`
    /// calls (the backend's batched contract).
    pub fn cost_and_grad_dal_many(
        &self,
        controls: &[DVec],
    ) -> Result<Vec<(f64, DVec)>, LinalgError> {
        self.dal_many_with(controls, self.backend.as_ref())
    }

    /// DAL forward + adjoint solves against an explicit backend (the
    /// continuous adjoint of the Laplacian is the Laplacian itself, so the
    /// same operator serves both solves — no transpose needed). The
    /// single-control gradient is the one-column case.
    fn dal_many_with(
        &self,
        controls: &[DVec],
        be: &dyn LinearBackend,
    ) -> Result<Vec<(f64, DVec)>, LinalgError> {
        let rhs: Vec<DVec> = controls.iter().map(|c| self.rhs(c)).collect();
        let coeffs = be.solve_many(&rhs)?;
        let mut costs = Vec::with_capacity(coeffs.len());
        let adjoint_rhs: Vec<DVec> = coeffs
            .iter()
            .map(|co| {
                let flux = self.flux_top(co);
                let mut b = DVec::zeros(self.size);
                for i in 0..flux.len() {
                    b[self.top_idx[i]] = 2.0 * (flux[i] - self.target[(i, 0)]);
                }
                costs.push(self.flux_cost(&flux));
                b
            })
            .collect();
        let lambdas = be.solve_many(&adjoint_rhs)?;
        Ok(costs
            .into_iter()
            .zip(&lambdas)
            .map(|(j, lambda)| (j, self.flux_top(lambda)))
            .collect())
    }

    fn dal_with(&self, c: &DVec, be: &dyn LinearBackend) -> Result<(f64, DVec), LinalgError> {
        let mut one = self.dal_many_with(std::slice::from_ref(c), be)?;
        Ok(one.pop().expect("one control, one gradient"))
    }

    /// **Finite-difference gradient** (central), the paper's footnote-11
    /// baseline. `O(n_c)` forward solves; exact up to `O(h²)`.
    pub fn cost_and_grad_fd(&self, c: &DVec, h: f64) -> Result<(f64, DVec), LinalgError> {
        let j0 = self.cost(c)?;
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
        Ok((j0, g))
    }

    /// Nodal field values `u` at all nodes for a solve result (the sparse
    /// discretization's unknowns are already nodal).
    pub fn nodal_values(&self, coeffs: &DVec) -> DVec {
        match &self.dense {
            Some(d) => d.ctx.eval_op(DiffOp::Eval, coeffs, d.ctx.nodes().points()),
            None => coeffs.clone(),
        }
    }

    /// Evaluates the state at arbitrary points (dense only: the sparse
    /// nodal discretization carries no off-node interpolant).
    pub fn eval_state(&self, coeffs: &DVec, points: &[Point2]) -> DVec {
        self.dense_parts().ctx.eval_op(DiffOp::Eval, coeffs, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use autodiff::gradcheck::rel_error;

    fn problem() -> LaplaceControlProblem {
        LaplaceControlProblem::new(12).unwrap()
    }

    fn bits(v: &DVec) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn cost_many_matches_standalone_costs_bitwise() {
        let p = problem();
        let controls: Vec<DVec> = (0..10)
            .map(|k| DVec::from_fn(p.n_controls(), |i| 0.1 * (i as f64 + 1.3 * k as f64).sin()))
            .collect();
        let batched = p.cost_many(&controls).unwrap();
        assert_eq!(batched.len(), controls.len());
        for (c, &j) in controls.iter().zip(&batched) {
            assert_eq!(j.to_bits(), p.cost(c).unwrap().to_bits());
        }
    }

    #[test]
    fn flux_top_many_matches_standalone_solves_bitwise_on_both_backends() {
        for p in [problem(), LaplaceControlProblem::new_sparse(12).unwrap()] {
            let n = p.n_controls();
            for width in [1, 3, 9, 2 * n] {
                let controls: Vec<DVec> = (0..width)
                    .map(|k| DVec::from_fn(n, |i| 0.2 * (i as f64 - 0.9 * k as f64).sin()))
                    .collect();
                let batched = p.flux_top_many(&controls).unwrap();
                assert_eq!(batched.len(), width);
                for (k, (c, f)) in controls.iter().zip(&batched).enumerate() {
                    let one = p.flux_top(&p.solve_coeffs(c).unwrap());
                    assert_eq!(bits(f), bits(&one), "width {width}, flux {k}");
                }
            }
        }
    }

    #[test]
    fn dal_many_matches_standalone_dal_bitwise_on_both_backends() {
        for p in [problem(), LaplaceControlProblem::new_sparse(12).unwrap()] {
            let n = p.n_controls();
            for width in [1, 2, 3, 8, 9, 2 * n] {
                let controls: Vec<DVec> = (0..width)
                    .map(|k| DVec::from_fn(n, |i| 0.1 * (i as f64 + 0.7 * k as f64).cos()))
                    .collect();
                let batched = p.cost_and_grad_dal_many(&controls).unwrap();
                assert_eq!(batched.len(), width);
                for (k, (c, (j, g))) in controls.iter().zip(&batched).enumerate() {
                    let (j1, g1) = p.cost_and_grad_dal(c).unwrap();
                    assert_eq!(j.to_bits(), j1.to_bits(), "width {width}, cost {k}");
                    assert_eq!(bits(g), bits(&g1), "width {width}, gradient {k}");
                }
            }
        }
    }

    #[test]
    fn forward_solve_satisfies_boundary_conditions() {
        let p = problem();
        let c = DVec::from_fn(p.n_controls(), |i| (p.control_x()[i] * PI).sin() * 0.3);
        let coeffs = p.solve_coeffs(&c).unwrap();
        let nodal = p.nodal_values(&coeffs);
        let ns = p.ctx().nodes();
        for i in ns.indices_with_tag(tags::BOTTOM) {
            assert!(
                (nodal[i] - (PI * ns.point(i).x).sin()).abs() < 1e-8,
                "bottom BC at {i}"
            );
        }
        for i in ns.indices_with_tag(tags::LEFT) {
            assert!(nodal[i].abs() < 1e-8);
        }
        // Top equals the control.
        let (top_idx, _) =
            quadrature::sort_along(&ns.indices_with_tag(tags::TOP), |i| ns.point(i).x);
        for (j, &i) in top_idx.iter().enumerate() {
            assert!((nodal[i] - c[j]).abs() < 1e-8, "top BC at {i}");
        }
    }

    #[test]
    fn forward_solution_matches_analytic_harmonic() {
        // With c = series_c_star the state should match series_u_star.
        let p = LaplaceControlProblem::new(16).unwrap();
        let c = DVec::from_fn(p.n_controls(), |i| {
            analytic::series_c_star(p.control_x()[i])
        });
        let coeffs = p.solve_coeffs(&c).unwrap();
        let probes = [
            Point2::new(0.3, 0.4),
            Point2::new(0.7, 0.7),
            Point2::new(0.5, 0.15),
        ];
        let vals = p.eval_state(&coeffs, &probes);
        for (v, q) in vals.iter().zip(&probes) {
            let exact = analytic::series_u_star(q.x, q.y);
            assert!((v - exact).abs() < 1e-2, "at {q:?}: {v} vs {exact}");
        }
    }

    #[test]
    fn cost_at_analytic_minimiser_improves_and_converges_with_h() {
        // The continuum minimiser is not the *discrete* minimiser: the cost
        // it attains is pure discretization error, dominated by boundary
        // flux degradation (the Runge phenomenon, §2.1/§3 of the paper). It
        // must (a) beat the zero control and (b) shrink under refinement;
        // the discrete optimizers later drive J far lower (≈1e-9, fig. 3b).
        let j_at = |nx: usize| {
            let p = LaplaceControlProblem::new(nx).unwrap();
            let c_star = DVec::from_fn(p.n_controls(), |i| {
                analytic::series_c_star(p.control_x()[i])
            });
            (
                p.cost(&c_star).unwrap(),
                p.cost(&DVec::zeros(p.n_controls())).unwrap(),
            )
        };
        let (j12, j12_zero) = j_at(12);
        let (j24, _) = j_at(24);
        assert!(
            j12 < 0.5 * j12_zero,
            "J(c*)={j12:.3e} vs J(0)={j12_zero:.3e}"
        );
        assert!(j24 < 0.7 * j12, "no h-convergence: {j12:.3e} -> {j24:.3e}");
    }

    #[test]
    fn mid_wall_flux_matches_target_at_analytic_minimiser() {
        let p = LaplaceControlProblem::new(20).unwrap();
        let c_star = DVec::from_fn(p.n_controls(), |i| {
            analytic::series_c_star(p.control_x()[i])
        });
        let coeffs = p.solve_coeffs(&c_star).unwrap();
        let flux = p.flux_top(&coeffs);
        let n = p.n_controls();
        for i in n / 3..2 * n / 3 {
            let exact = (PI * p.control_x()[i]).cos();
            assert!(
                (flux[i] - exact).abs() < 0.15,
                "flux at x={}: {} vs {exact}",
                p.control_x()[i],
                flux[i]
            );
        }
    }

    #[test]
    fn dp_gradient_matches_finite_differences() {
        let p = problem();
        let c = DVec::from_fn(p.n_controls(), |i| 0.1 * (i as f64 * 0.7).sin());
        let (j_dp, g_dp) = p.cost_and_grad_dp(&c).unwrap();
        let (j_fd, g_fd) = p.cost_and_grad_fd(&c, 1e-6).unwrap();
        assert!((j_dp - j_fd).abs() < 1e-12 * (1.0 + j_fd.abs()));
        let err = rel_error(g_dp.as_slice(), g_fd.as_slice());
        assert!(err < 1e-6, "DP vs FD gradient rel error {err:.3e}");
    }

    #[test]
    fn hvp_matches_fd_of_dp_gradient_and_is_symmetric() {
        let p = problem();
        let c = DVec::from_fn(p.n_controls(), |i| 0.1 * (i as f64 * 0.7).sin());
        let v = DVec::from_fn(p.n_controls(), |i| (0.3 + i as f64 * 0.41).cos());
        let (j, g, hv) = p.cost_grad_hvp(&c, &v).unwrap();

        // Cost and gradient are the DP path's, bit for bit.
        let (j_dp, g_dp) = p.cost_and_grad_dp(&c).unwrap();
        assert_eq!(j.to_bits(), j_dp.to_bits(), "cost: {j:e} vs DP {j_dp:e}");
        assert_eq!(bits(&g), bits(&g_dp), "gradient differs from DP");

        // Exact HVP vs central FD of the DP gradient. The objective is
        // quadratic in c, so the FD secant is exact up to rounding.
        let h = 1e-6;
        let mut cp = c.clone();
        let mut cm = c.clone();
        for i in 0..c.len() {
            cp[i] += h * v[i];
            cm[i] -= h * v[i];
        }
        let (_, gp) = p.cost_and_grad_dp(&cp).unwrap();
        let (_, gm) = p.cost_and_grad_dp(&cm).unwrap();
        let fd = DVec::from_fn(c.len(), |i| (gp[i] - gm[i]) / (2.0 * h));
        let herr = rel_error(hv.as_slice(), fd.as_slice());
        assert!(herr < 1e-6, "HVP vs FD-of-gradient rel error {herr:.3e}");

        // Symmetry of the bilinear form: v·H(w) == w·H(v).
        let w = DVec::from_fn(p.n_controls(), |i| 0.5 * (i as f64 * 1.3).sin() - 0.2);
        let (_, _, hw) = p.cost_grad_hvp(&c, &w).unwrap();
        let vhw = v.dot(&hw);
        let whv = w.dot(&hv);
        assert!(
            (vhw - whv).abs() < 1e-9 * (1.0 + vhw.abs()),
            "Hessian symmetry gap: v·Hw = {vhw:.6e}, w·Hv = {whv:.6e}"
        );
    }

    #[test]
    fn hvp_reuses_factorization_on_sparse_backend_too() {
        // The HVP's two solves run on the same Arc<dyn LinearBackend> as
        // the tape, so the sparse path gets exact HVPs as well.
        let p = LaplaceControlProblem::new_sparse(12).unwrap();
        let c = DVec::from_fn(p.n_controls(), |i| 0.1 * (i as f64 * 0.7).sin());
        let v = DVec::from_fn(p.n_controls(), |i| (i as f64 * 0.29).sin() + 0.4);
        let (_, g, hv) = p.cost_grad_hvp(&c, &v).unwrap();
        let (_, g_dp) = p.cost_and_grad_dp(&c).unwrap();
        assert_eq!(bits(&g), bits(&g_dp), "gradient differs from DP");
        let h = 1e-6;
        let mut cp = c.clone();
        let mut cm = c.clone();
        for i in 0..c.len() {
            cp[i] += h * v[i];
            cm[i] -= h * v[i];
        }
        let (_, gp) = p.cost_and_grad_dp(&cp).unwrap();
        let (_, gm) = p.cost_and_grad_dp(&cm).unwrap();
        let fd = DVec::from_fn(c.len(), |i| (gp[i] - gm[i]) / (2.0 * h));
        // Same rung as the adjoint-vs-fd ladder step; FD truncation on
        // the RBF-FD flux limits agreement.
        let herr = rel_error(hv.as_slice(), fd.as_slice());
        assert!(herr < 1e-4, "sparse HVP vs FD rel error {herr:.3e}");
    }

    #[test]
    fn dal_gradient_approximates_weighted_dp_gradient() {
        // DAL returns the L² (function-space) gradient g(x); DP returns the
        // discrete gradient dJ/dc_i ≈ w_i g(x_i). Away from the wall ends
        // (Runge zone) they must agree after weighting.
        let p = LaplaceControlProblem::new(16).unwrap();
        let c = DVec::from_fn(p.n_controls(), |i| 0.2 * (p.control_x()[i] * PI).sin());
        let (_, g_dal) = p.cost_and_grad_dal(&c).unwrap();
        let (_, g_dp) = p.cost_and_grad_dp(&c).unwrap();
        let w = p.quad_weights();
        let n = p.n_controls();
        let mut num = 0.0;
        let mut den = 0.0;
        let mut dot = 0.0;
        let mut na = 0.0;
        for i in n / 4..3 * n / 4 {
            let dal_i = w[i] * g_dal[i];
            num += (dal_i - g_dp[i]) * (dal_i - g_dp[i]);
            den += g_dp[i] * g_dp[i];
            dot += dal_i * g_dp[i];
            na += dal_i * dal_i;
        }
        let rel = (num / den).sqrt();
        let cos = dot / (na.sqrt() * den.sqrt());
        // OTD (DAL) and DTO (DP) gradients agree only up to discretization
        // error — that gap IS the paper's point (fig. 3b: DAL converges far
        // less deeply). Direction must agree well; magnitude only roughly.
        assert!(cos > 0.9, "DAL/DP gradient misaligned: cos = {cos:.3}");
        assert!(rel < 0.6, "DAL vs DP mid-wall rel error {rel:.3e}");
    }

    #[test]
    fn gradient_descent_step_decreases_cost() {
        let p = problem();
        let c0 = DVec::zeros(p.n_controls());
        let (j0, g) = p.cost_and_grad_dp(&c0).unwrap();
        let c1 = &c0 - &g.scaled(1e-2 / g.norm_inf().max(1e-12));
        let j1 = p.cost(&c1).unwrap();
        assert!(j1 < j0, "no descent: {j0} -> {j1}");
    }

    #[test]
    fn scattered_layout_solves_the_same_problem() {
        // The paper's §3.1 alternative: scattered interior + uniform
        // boundary. Same physics, worse conditioning, same optimum shape.
        let p = LaplaceControlProblem::new_scattered(120, 14).unwrap();
        assert_eq!(p.n_controls(), 14);
        let j0 = p.cost(&DVec::zeros(p.n_controls())).unwrap();
        let (_, g) = p.cost_and_grad_dp(&DVec::zeros(p.n_controls())).unwrap();
        let c1 = DVec::from_fn(p.n_controls(), |i| -1e-2 * g[i] / g.norm_inf());
        let j1 = p.cost(&c1).unwrap();
        assert!(j1 < j0, "no descent on the scattered layout");
        // The scattered fit matrix is worse conditioned than the grid's,
        // per the paper.
        let grid = LaplaceControlProblem::new(14).unwrap();
        assert!(
            p.condition_estimate() > grid.condition_estimate(),
            "scattered {:.3e} should exceed grid {:.3e}",
            p.condition_estimate(),
            grid.condition_estimate()
        );
    }

    #[test]
    fn quadrature_weights_sum_to_one() {
        let p = problem();
        assert!((p.quad_weights().sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn control_nodes_span_unit_interval() {
        let p = problem();
        let x = p.control_x();
        assert_eq!(x[0], 0.0);
        assert_eq!(x[x.len() - 1], 1.0);
        for w in x.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn with_backend_dense_matches_new_bitwise() {
        let a = LaplaceControlProblem::new(12).unwrap();
        let b = LaplaceControlProblem::with_backend(12, BackendKind::DenseLu).unwrap();
        assert_eq!(a.backend_kind(), BackendKind::DenseLu);
        let c = DVec::from_fn(a.n_controls(), |i| 0.1 * (i as f64 * 0.9).sin());
        let (ja, ga) = a.cost_and_grad_dp(&c).unwrap();
        let (jb, gb) = b.cost_and_grad_dp(&c).unwrap();
        assert_eq!(ja, jb, "dense default must be bitwise-stable");
        assert_eq!(ga.as_slice(), gb.as_slice());
    }

    #[test]
    fn sparse_backend_solves_the_same_control_problem() {
        let p = LaplaceControlProblem::with_backend(14, BackendKind::SparseGmres).unwrap();
        assert_eq!(p.backend_kind(), BackendKind::SparseGmres);
        let c = DVec::from_fn(p.n_controls(), |i| 0.3 * (PI * p.control_x()[i]).sin());
        let u = p.solve_coeffs(&c).unwrap();
        let nodal = p.nodal_values(&u);
        // Boundary rows are identity: the top wall carries the control.
        for (j, &i) in p.top_idx.iter().enumerate() {
            assert!((nodal[i] - c[j]).abs() < 1e-8, "top BC at node {i}");
        }
        // Both discretizations approximate the same continuum cost.
        let dense = LaplaceControlProblem::new(14).unwrap();
        let j_sparse = p.cost(&c).unwrap();
        let j_dense = dense.cost(&c).unwrap();
        assert!(
            (j_sparse - j_dense).abs() < 0.25 * (j_dense.abs() + 1e-3),
            "sparse J {j_sparse:.4e} vs dense J {j_dense:.4e}"
        );
    }

    #[test]
    fn sparse_dp_gradient_matches_finite_differences() {
        let p = LaplaceControlProblem::new_sparse(12).unwrap();
        let c = DVec::from_fn(p.n_controls(), |i| 0.1 * (i as f64 * 0.7).sin());
        let (j_dp, g_dp) = p.cost_and_grad_dp(&c).unwrap();
        let (j_fd, g_fd) = p.cost_and_grad_fd(&c, 1e-6).unwrap();
        assert!((j_dp - j_fd).abs() < 1e-10 * (1.0 + j_fd.abs()));
        let err = rel_error(g_dp.as_slice(), g_fd.as_slice());
        assert!(err < 1e-4, "sparse DP vs FD gradient rel error {err:.3e}");
    }

    #[test]
    fn sparse_discrete_adjoint_gradient_matches_finite_differences() {
        // The reverse sweep through the envelope factor is the discrete
        // adjoint of the sparse build: on a finer grid and a smooth control
        // it must agree with central differences of the cost.
        let p = LaplaceControlProblem::new_sparse(14).unwrap();
        let c = DVec::from_fn(p.n_controls(), |i| 0.1 * (p.control_x()[i] * 2.0).sin());
        let (_, g) = p.cost_and_grad_dp(&c).unwrap();
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
        assert!(err < 1e-4, "adjoint vs FD rel error {err:.3e}");
    }

    #[test]
    fn sparse_forward_solve_holds_its_boundary_data() {
        // The identity rows are split off the factor, so the Dirichlet
        // data comes back exactly: the control on the top wall and
        // `sin πx` on the bottom.
        let nx = 14;
        let p = LaplaceControlProblem::new_sparse(nx).unwrap();
        let nodes = unit_square_grid(nx, nx, LaplaceControlProblem::classifier);
        let c = DVec::from_fn(p.n_controls(), |i| 0.3 * p.control_x()[i]);
        let u = p.solve_coeffs(&c).unwrap();
        for (j, &i) in p.top_idx.iter().enumerate() {
            assert_eq!(u[i], c[j], "top row {i}");
        }
        for i in nodes.indices_with_tag(tags::BOTTOM) {
            assert_eq!(u[i], (PI * nodes.point(i).x).sin(), "bottom row {i}");
        }
    }

    #[test]
    fn sparse_state_matches_analytic_harmonic_interior() {
        let nx = 20;
        let p = LaplaceControlProblem::new_sparse(nx).unwrap();
        let nodes = unit_square_grid(nx, nx, LaplaceControlProblem::classifier);
        let c = DVec::from_fn(p.n_controls(), |i| {
            analytic::series_c_star(p.control_x()[i])
        });
        let u = p.nodal_values(&p.solve_coeffs(&c).unwrap());
        for i in nodes.interior_range() {
            let q = nodes.point(i);
            let margin = q.x.min(q.y).min(1.0 - q.x).min(1.0 - q.y);
            if margin < 0.15 {
                continue;
            }
            let exact = analytic::series_u_star(q.x, q.y);
            assert!((u[i] - exact).abs() < 2e-2, "at {q:?}: {} vs {exact}", u[i]);
        }
    }

    #[test]
    fn sparse_gradient_descent_reduces_the_cost() {
        let p = LaplaceControlProblem::new_sparse(14).unwrap();
        let mut c = DVec::zeros(p.n_controls());
        let j0 = p.cost(&c).unwrap();
        for _ in 0..30 {
            let (_, g) = p.cost_and_grad_dp(&c).unwrap();
            c.axpy(-2e-2 / g.norm_inf().max(1e-12), &g);
        }
        let j1 = p.cost(&c).unwrap();
        assert!(j1 < 0.3 * j0, "no descent: {j0:.3e} -> {j1:.3e}");
    }

    #[test]
    fn sparse_footprint_is_far_below_dense() {
        // The factor's envelope, not the square: at nx = 32 the sparse
        // backend holds under a fifth of one dense n × n matrix.
        let nx = 32;
        let p = LaplaceControlProblem::new_sparse(nx).unwrap();
        let n = p.size();
        let bytes = p.backend().memory_bytes();
        assert!(
            bytes < n * n * 8 / 5,
            "{bytes} bytes vs dense {}",
            n * n * 8
        );
    }

    #[test]
    fn sparse_dal_step_decreases_cost() {
        let p = LaplaceControlProblem::new_sparse(12).unwrap();
        let c0 = DVec::zeros(p.n_controls());
        let (j0, g) = p.cost_and_grad_dal(&c0).unwrap();
        let c1 = &c0 - &g.scaled(1e-2 / g.norm_inf().max(1e-12));
        let j1 = p.cost(&c1).unwrap();
        assert!(j1 < j0, "no sparse DAL descent: {j0:.3e} -> {j1:.3e}");
    }
}
