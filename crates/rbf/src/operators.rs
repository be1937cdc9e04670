//! Global RBF collocation: operator rows, fit systems, differentiation
//! matrices and PDE-matrix assembly.
//!
//! A field is expanded as (paper eq. 2)
//! `û(x) = Σ_j λ_j φ(‖x − x_j‖) + Σ_j γ_j P_j(x)`,
//! so every linear functional `L` (point evaluation, `∂x`, `∂y`, `∇²`,
//! `n·∇`) becomes a *row* `[L φ_1(x) … L φ_N(x) | L P_1(x) … L P_M(x)]`
//! acting on the coefficient vector `[λ; γ]`. Assembly = stacking rows.
//!
//! The assembly leans on two workspace-wide conventions:
//!
//! * **Node ordering** ([`geometry::NodeSet`]): nodes are stored interior
//!   first, then boundary nodes grouped by kind (Dirichlet → Neumann →
//!   Robin). Row `i` of an assembled PDE matrix therefore *is* node `i`'s
//!   equation — interior rows carry the PDE operator, boundary rows the BC
//!   functional — with no index indirection anywhere downstream.
//! * **Row-major dense storage** ([`linalg::DMat`]): a collocation row is a
//!   contiguous slice, so row construction writes straight into the target
//!   matrix (see [`GlobalCollocation::assemble`]) and parallel assembly
//!   splits over disjoint row blocks with a thread-count-invariant chunk
//!   decomposition (bitwise-reproducible at any `MESHFREE_THREADS`).

use crate::kernel::RbfKernel;
use crate::poly::PolyBasis;
use geometry::{NodeKind, NodeSet, Point2};
use linalg::{DMat, DVec, LinalgError, Lu};
use meshfree_runtime::par;

/// Linear differential operators supported as collocation rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiffOp {
    /// Point evaluation.
    Eval,
    /// `∂/∂x`.
    Dx,
    /// `∂/∂y`.
    Dy,
    /// 2-D Laplacian.
    Lap,
}

/// Nodal differentiation matrices: map field values *at nodes* to operator
/// values *at nodes* (`N × N` dense).
///
/// Built once per node set as `D_op = B_op · A_fit⁻¹ [I; 0]`; the
/// Navier–Stokes solver uses these as constant building blocks of its
/// (state-dependent) system matrices.
#[derive(Debug, Clone)]
pub struct DiffMatrices {
    /// `∂/∂x` at the nodes.
    pub dx: DMat,
    /// `∂/∂y` at the nodes.
    pub dy: DMat,
    /// `∇²` at the nodes.
    pub lap: DMat,
}

/// Global collocation context over a [`NodeSet`]: kernel + appended
/// polynomial basis.
///
/// The context holds no factorisation. PDE solvers factor the collocation
/// matrix they [`assemble`](GlobalCollocation::assemble); the `(N+M)²` fit
/// system `[Φ P; Pᵀ 0]` is assembled and factored only by the two methods
/// that solve with it ([`GlobalCollocation::fit_values`] and
/// [`GlobalCollocation::diff_matrices`]), and dropped when they return.
pub struct GlobalCollocation {
    nodes: NodeSet,
    kernel: RbfKernel,
    basis: PolyBasis,
}

impl GlobalCollocation {
    /// Builds the context: the nodes, the kernel and the degree-`degree`
    /// monomial basis. Nothing is assembled or factored here, so a node set
    /// with a singular fit matrix (e.g. a duplicated node) surfaces as
    /// [`LinalgError::SingularMatrix`] from the methods that solve with it.
    pub fn new(nodes: &NodeSet, kernel: RbfKernel, degree: i32) -> Self {
        GlobalCollocation {
            nodes: nodes.clone(),
            kernel,
            basis: PolyBasis::new(degree),
        }
    }

    /// Number of RBF centres `N`.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Number of appended monomials `M`.
    pub fn m(&self) -> usize {
        self.basis.len()
    }

    /// Total system size `N + M`.
    pub fn size(&self) -> usize {
        self.n() + self.m()
    }

    /// The node set this context was built over.
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// The kernel in use.
    pub fn kernel(&self) -> RbfKernel {
        self.kernel
    }

    /// Collocation row of `op` evaluated at an arbitrary point `x`.
    pub fn row(&self, op: DiffOp, x: Point2) -> Vec<f64> {
        let mut row = Vec::new();
        self.row_into(op, x, &mut row);
        row
    }

    /// [`GlobalCollocation::row`] into a caller-owned buffer, cleared first.
    /// Batched evaluation loops reuse one buffer across points instead of
    /// allocating a length-`N+M` row per point.
    pub fn row_into(&self, op: DiffOp, x: Point2, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.size());
        match op {
            DiffOp::Eval => {
                for c in self.nodes.points() {
                    out.push(self.kernel.eval(x.dist(c)));
                }
                out.extend(self.basis.eval(x));
            }
            DiffOp::Dx => {
                for c in self.nodes.points() {
                    let r = x.dist(c);
                    out.push((x.x - c.x) * self.kernel.d1_over_r(r));
                }
                out.extend(self.basis.eval_dx(x));
            }
            DiffOp::Dy => {
                for c in self.nodes.points() {
                    let r = x.dist(c);
                    out.push((x.y - c.y) * self.kernel.d1_over_r(r));
                }
                out.extend(self.basis.eval_dy(x));
            }
            DiffOp::Lap => {
                for c in self.nodes.points() {
                    out.push(self.kernel.laplacian2d(x.dist(c)));
                }
                out.extend(self.basis.eval_lap(x));
            }
        }
    }

    /// Normal-derivative row `n·∇` at `x`.
    pub fn normal_row(&self, x: Point2, normal: Point2) -> Vec<f64> {
        let dx = self.row(DiffOp::Dx, x);
        let dy = self.row(DiffOp::Dy, x);
        dx.iter()
            .zip(&dy)
            .map(|(a, b)| normal.x * a + normal.y * b)
            .collect()
    }

    /// Operator matrix with one row per point in `points`
    /// (`points.len() × (N+M)`), built in parallel. Rows are written
    /// straight into the output storage with one row buffer per pool chunk
    /// (no intermediate `Vec<Vec<f64>>`).
    pub fn op_matrix(&self, op: DiffOp, points: &[Point2]) -> DMat {
        let size = self.size();
        let np = points.len();
        let mut out = DMat::zeros(np, size);
        if np == 0 {
            return out;
        }
        // Fixed row-block decomposition (at most PAR_BLOCKS blocks),
        // independent of the thread count.
        let block = np.div_ceil(linalg::blocking::PAR_BLOCKS).max(1);
        par::par_chunks_mut(out.as_mut_slice(), block * size, |c, piece| {
            let mut buf = Vec::with_capacity(size);
            let base = c * block;
            for (r, row) in piece.chunks_mut(size).enumerate() {
                self.row_into(op, points[base + r], &mut buf);
                row.copy_from_slice(&buf);
            }
        });
        out
    }

    /// Operator matrix evaluated at this context's own nodes
    /// (`N × (N+M)`).
    pub fn op_matrix_at_nodes(&self, op: DiffOp) -> DMat {
        self.op_matrix(op, self.nodes.points())
    }

    /// The `M × (N+M)` polynomial-constraint rows `[Pᵀ | 0]`.
    pub fn poly_constraint_rows(&self) -> DMat {
        let n = self.n();
        let m = self.m();
        let mut rows = DMat::zeros(m, n + m);
        for (i, p) in self.nodes.points().iter().enumerate() {
            for (j, v) in self.basis.eval(*p).into_iter().enumerate() {
                rows[(j, i)] = v;
            }
        }
        rows
    }

    /// Assembles and factors the `(N+M)²` fit matrix `[Φ P; Pᵀ 0]`.
    fn factor_fit(&self) -> Result<Lu, LinalgError> {
        Lu::factor(&fit_matrix(&self.nodes, self.kernel, self.basis))
    }

    /// Fits coefficients `[λ; γ]` to nodal values (length `N`), padding the
    /// constraint block with zeros. Factors the fit matrix for this call.
    pub fn fit_values(&self, nodal: &DVec) -> Result<DVec, LinalgError> {
        assert_eq!(nodal.len(), self.n(), "fit_values: wrong length");
        let mut rhs = DVec::zeros(self.size());
        rhs.as_mut_slice()[..self.n()].copy_from_slice(nodal);
        self.factor_fit()?.solve(&rhs)
    }

    /// Evaluates `op` of the fitted field (coefficients) at `points`.
    pub fn eval_op(&self, op: DiffOp, coeffs: &DVec, points: &[Point2]) -> DVec {
        assert_eq!(
            coeffs.len(),
            self.size(),
            "eval_op: wrong coefficient length"
        );
        // One row buffer per pool chunk instead of one allocation per point.
        let vals: Vec<f64> = par::par_map_collect_with(points.len(), Vec::new, |buf, i| {
            self.row_into(op, points[i], buf);
            buf.iter().zip(coeffs.as_slice()).map(|(r, c)| r * c).sum()
        });
        DVec(vals)
    }

    /// Builds the nodal differentiation matrices `Dx`, `Dy`, `∇²`
    /// (`N × N` each): `D_op = B_op · A_fit⁻¹ [I; 0]`. Factors the fit
    /// matrix for this call.
    pub fn diff_matrices(&self) -> Result<DiffMatrices, LinalgError> {
        let n = self.n();
        let size = self.size();
        // G = A_fit⁻¹ [I; 0]  (size × n)
        let mut rhs = DMat::zeros(size, n);
        for i in 0..n {
            rhs[(i, i)] = 1.0;
        }
        let g = self.factor_fit()?.solve_mat(&rhs)?;
        let dx = self.op_matrix_at_nodes(DiffOp::Dx).matmul(&g)?;
        let dy = self.op_matrix_at_nodes(DiffOp::Dy).matmul(&g)?;
        let lap = self.op_matrix_at_nodes(DiffOp::Lap).matmul(&g)?;
        Ok(DiffMatrices { dx, dy, lap })
    }

    /// Assembles a PDE collocation matrix `(N+M)²`: one row per node
    /// supplied by `row_for_node(i, point)` (typically built from
    /// [`GlobalCollocation::row`] / [`GlobalCollocation::normal_row`]),
    /// followed by the polynomial constraint rows.
    pub fn assemble(&self, row_for_node: impl Fn(usize, Point2) -> Vec<f64> + Sync) -> DMat {
        let size = self.size();
        let n = self.n();
        let mut full = DMat::zeros(size, size);
        if n > 0 {
            // Rows land straight in the output storage (no Vec<Vec> +
            // block-copy round trip); fixed row-block decomposition.
            let block = n.div_ceil(linalg::blocking::PAR_BLOCKS).max(1);
            par::par_chunks_mut(
                &mut full.as_mut_slice()[..n * size],
                block * size,
                |c, piece| {
                    let base = c * block;
                    for (r, row) in piece.chunks_mut(size).enumerate() {
                        let i = base + r;
                        let v = row_for_node(i, self.nodes.point(i));
                        assert_eq!(v.len(), size, "assemble: row {i} has wrong length");
                        row.copy_from_slice(&v);
                    }
                },
            );
        }
        let cons = self.poly_constraint_rows();
        full.set_block(n, 0, &cons);
        full
    }

    /// Convenience: the standard boundary-aware assembly where interior
    /// nodes get `interior_row(i, p)` and boundary nodes get the row implied
    /// by their [`NodeKind`] (Dirichlet → evaluation, Neumann → `n·∇`,
    /// Robin → `n·∇ + β·eval`).
    pub fn assemble_with_bcs(
        &self,
        interior_row: impl Fn(usize, Point2) -> Vec<f64> + Sync,
        robin_beta: f64,
    ) -> DMat {
        self.assemble(|i, p| match self.nodes.kind(i) {
            NodeKind::Interior => interior_row(i, p),
            NodeKind::Dirichlet => self.row(DiffOp::Eval, p),
            NodeKind::Neumann => self.normal_row(p, self.nodes.normal(i).unwrap()),
            NodeKind::Robin => {
                let mut row = self.normal_row(p, self.nodes.normal(i).unwrap());
                for (r, e) in row.iter_mut().zip(self.row(DiffOp::Eval, p)) {
                    *r += robin_beta * e;
                }
                row
            }
        })
    }
}

/// The `(N+M)²` interpolation (fit) matrix `[Φ P; Pᵀ 0]`.
pub fn fit_matrix(nodes: &NodeSet, kernel: RbfKernel, basis: PolyBasis) -> DMat {
    let n = nodes.len();
    let m = basis.len();
    let mut a = DMat::zeros(n + m, n + m);
    for i in 0..n {
        let pi = nodes.point(i);
        for j in 0..n {
            a[(i, j)] = kernel.eval(pi.dist(&nodes.point(j)));
        }
        for (j, v) in basis.eval(pi).into_iter().enumerate() {
            a[(i, n + j)] = v;
            a[(n + j, i)] = v;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::generators::{unit_square_grid, unit_square_scattered, BoundaryClass};
    use geometry::RawNode;

    fn all_dirichlet(p: Point2) -> BoundaryClass {
        let normal = if p.y == 0.0 {
            Point2::new(0.0, -1.0)
        } else if p.y == 1.0 {
            Point2::new(0.0, 1.0)
        } else if p.x == 0.0 {
            Point2::new(-1.0, 0.0)
        } else {
            Point2::new(1.0, 0.0)
        };
        (NodeKind::Dirichlet, 1, normal)
    }

    fn ctx(nx: usize) -> GlobalCollocation {
        let ns = unit_square_grid(nx, nx, all_dirichlet);
        GlobalCollocation::new(&ns, RbfKernel::Phs3, 1)
    }

    #[test]
    fn sizes() {
        let c = ctx(5);
        assert_eq!(c.n(), 25);
        assert_eq!(c.m(), 3);
        assert_eq!(c.size(), 28);
    }

    #[test]
    fn fit_matrix_is_symmetric() {
        let ns = unit_square_grid(4, 4, all_dirichlet);
        let a = fit_matrix(&ns, RbfKernel::Phs3, PolyBasis::new(1));
        let at = a.transpose();
        assert!((&a - &at).norm_fro() < 1e-12);
    }

    #[test]
    fn interpolation_reproduces_linear_fields_exactly() {
        // With degree-1 augmentation, linear fields are reproduced exactly.
        let c = ctx(6);
        let f = |p: Point2| 2.0 + 3.0 * p.x - 1.5 * p.y;
        let nodal = DVec::from_fn(c.n(), |i| f(c.nodes().point(i)));
        let coeffs = c.fit_values(&nodal).unwrap();
        let probes = [
            Point2::new(0.33, 0.77),
            Point2::new(0.5, 0.5),
            Point2::new(0.91, 0.08),
        ];
        let vals = c.eval_op(DiffOp::Eval, &coeffs, &probes);
        for (v, p) in vals.iter().zip(&probes) {
            assert!((v - f(*p)).abs() < 1e-9, "at {p:?}: {v} vs {}", f(*p));
        }
        // Derivatives of a linear field are its slopes.
        let dx = c.eval_op(DiffOp::Dx, &coeffs, &probes);
        let dy = c.eval_op(DiffOp::Dy, &coeffs, &probes);
        for i in 0..probes.len() {
            assert!((dx[i] - 3.0).abs() < 1e-8);
            assert!((dy[i] + 1.5).abs() < 1e-8);
        }
    }

    #[test]
    fn derivatives_of_smooth_field_are_accurate() {
        let c = ctx(12);
        let f = |p: Point2| (p.x * std::f64::consts::PI).sin() * p.y;
        let nodal = DVec::from_fn(c.n(), |i| f(c.nodes().point(i)));
        let coeffs = c.fit_values(&nodal).unwrap();
        let probe = [Point2::new(0.43, 0.57)];
        let pi = std::f64::consts::PI;
        let dx = c.eval_op(DiffOp::Dx, &coeffs, &probe)[0];
        let dy = c.eval_op(DiffOp::Dy, &coeffs, &probe)[0];
        let expect_dx = pi * (0.43 * pi).cos() * 0.57;
        let expect_dy = (0.43 * pi).sin();
        assert!((dx - expect_dx).abs() < 0.02, "dx {dx} vs {expect_dx}");
        assert!((dy - expect_dy).abs() < 0.02, "dy {dy} vs {expect_dy}");
    }

    #[test]
    fn diff_matrices_differentiate_nodal_fields() {
        // Degree-2 augmentation reproduces the quadratic test field exactly
        // up to conditioning; degree 1 (the paper's choice) is only O(h)
        // accurate on quadratics, which the convergence tests cover instead.
        let ns = unit_square_grid(10, 10, all_dirichlet);
        let c = GlobalCollocation::new(&ns, RbfKernel::Phs3, 2);
        let dm = c.diff_matrices().unwrap();
        let f = |p: Point2| p.x * p.x + 2.0 * p.y;
        let nodal = DVec::from_fn(c.n(), |i| f(c.nodes().point(i)));
        let dx = dm.dx.matvec(&nodal).unwrap();
        let lap = dm.lap.matvec(&nodal).unwrap();
        // Check well inside the domain: accuracy degrades towards the
        // boundary (the Runge phenomenon the paper discusses in §2.1/§3).
        for i in c.nodes().interior_range() {
            let p = c.nodes().point(i);
            let margin = p.x.min(p.y).min(1.0 - p.x).min(1.0 - p.y);
            if margin < 0.2 {
                continue;
            }
            assert!(
                (dx[i] - 2.0 * p.x).abs() < 5e-2,
                "dx at {p:?}: {} vs {}",
                dx[i],
                2.0 * p.x
            );
            assert!((lap[i] - 2.0).abs() < 0.1, "lap at {p:?}: {}", lap[i]);
        }
    }

    #[test]
    fn singular_fit_errors_at_the_solve_not_at_construction() {
        // A duplicated node makes two rows (and columns) of the fit matrix
        // equal. The context still builds; the methods that factor the fit
        // matrix report it.
        let grid = unit_square_grid(5, 5, all_dirichlet);
        let mut raw: Vec<RawNode> = (0..grid.len())
            .map(|i| RawNode {
                p: grid.point(i),
                kind: grid.kind(i),
                tag: grid.tag(i),
                normal: grid.normal(i),
            })
            .collect();
        raw.push(raw[0]);
        let ns = NodeSet::from_unordered(raw);
        let c = GlobalCollocation::new(&ns, RbfKernel::Phs3, 1);
        assert_eq!(c.n(), 26);
        let fit = c.fit_values(&DVec::zeros(c.n()));
        assert!(
            matches!(fit, Err(LinalgError::SingularMatrix { .. })),
            "fit_values: {fit:?}"
        );
        let dm = c.diff_matrices().map(|_| ());
        assert!(
            matches!(dm, Err(LinalgError::SingularMatrix { .. })),
            "diff_matrices: {dm:?}"
        );
    }

    #[test]
    fn normal_row_equals_directional_combination() {
        let c = ctx(5);
        let x = Point2::new(0.5, 1.0);
        let nrow = c.normal_row(x, Point2::new(0.0, 1.0));
        let dyrow = c.row(DiffOp::Dy, x);
        for (a, b) in nrow.iter().zip(&dyrow) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn assemble_with_bcs_solves_laplace_on_linear_data() {
        // u = x + y is harmonic; imposing it on the boundary must recover it
        // everywhere (the collocation solve is exact for linear fields).
        let c = ctx(8);
        let lap_rows = |_i: usize, p: Point2| c.row(DiffOp::Lap, p);
        let a = c.assemble_with_bcs(lap_rows, 0.0);
        let mut rhs = DVec::zeros(c.size());
        for i in c.nodes().dirichlet_range() {
            let p = c.nodes().point(i);
            rhs[i] = p.x + p.y;
        }
        let coeffs = Lu::factor(&a).unwrap().solve(&rhs).unwrap();
        let nodal = c.eval_op(DiffOp::Eval, &coeffs, c.nodes().points());
        for i in 0..c.n() {
            let p = c.nodes().point(i);
            assert!(
                (nodal[i] - (p.x + p.y)).abs() < 1e-7,
                "at {p:?}: {} vs {}",
                nodal[i],
                p.x + p.y
            );
        }
    }

    #[test]
    fn scattered_cloud_also_works() {
        let ns = unit_square_scattered(60, 9, all_dirichlet);
        let c = GlobalCollocation::new(&ns, RbfKernel::Phs3, 1);
        let f = |p: Point2| 1.0 - 0.5 * p.x + 0.25 * p.y;
        let nodal = DVec::from_fn(c.n(), |i| f(c.nodes().point(i)));
        let coeffs = c.fit_values(&nodal).unwrap();
        let v = c.eval_op(DiffOp::Eval, &coeffs, &[Point2::new(0.4, 0.6)])[0];
        assert!((v - f(Point2::new(0.4, 0.6))).abs() < 1e-8);
    }

    #[test]
    fn conditioning_grid_vs_reported_in_paper() {
        // The paper notes the regular grid gave better-conditioned matrices
        // than a scattered cloud of the same size; surface the estimate.
        let grid = unit_square_grid(7, 7, all_dirichlet);
        let a_grid = fit_matrix(&grid, RbfKernel::Phs3, PolyBasis::new(1));
        let lu = Lu::factor(&a_grid).unwrap();
        let cond = lu.cond_1_estimate(a_grid.norm_1());
        assert!(cond.is_finite() && cond > 1.0);
    }
}
