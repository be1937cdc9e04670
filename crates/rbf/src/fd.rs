//! RBF-FD: local stencil weights and sparse global operators.
//!
//! Instead of one global `(N+M)²` dense system, RBF-FD (Tolstykh's framework,
//! cited as \[44\] in the paper) computes, for each node, a small set of
//! finite-difference-like weights over its `k` nearest neighbours by solving
//! a local RBF fit system. The global operator is then sparse (`k` nonzeros
//! per row) — the memory-friendly alternative the paper's Table 3 discussion
//! motivates. Per-node solves are embarrassingly parallel (runtime pool).

use crate::kernel::RbfKernel;
use crate::operators::DiffOp;
use crate::poly::PolyBasis;
use geometry::{KdTree, NodeSet, Point2};
use linalg::{Csr, DMat, DVec, LinalgError, Lu, Triplets};
use meshfree_runtime::par;

/// RBF-FD configuration.
#[derive(Debug, Clone, Copy)]
pub struct FdConfig {
    /// Stencil size `k` (nearest neighbours, including the node itself).
    pub stencil_size: usize,
    /// Appended polynomial degree.
    pub degree: i32,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            stencil_size: 13,
            degree: 1,
        }
    }
}

impl FdConfig {
    /// A configuration whose stencil comfortably supports the requested
    /// polynomial degree: roughly twice the number of monomials (the usual
    /// RBF-FD sizing rule), never below the default 13-point stencil.
    pub fn for_degree(degree: i32) -> FdConfig {
        let m = PolyBasis::new(degree).len();
        FdConfig {
            stencil_size: (2 * m + 1).max(13),
            degree,
        }
    }
}

/// Reusable scratch for stencil-weight solves.
///
/// One local fit system `[Φ P; Pᵀ 0]` (size `(k+m)²`), its LU factors, the
/// right-hand side and the solution buffer are allocated once and recycled
/// across every stencil of an assembly sweep — the parallel loops hand one
/// workspace to each pool chunk instead of allocating per node.
#[derive(Debug)]
pub struct FdWorkspace {
    /// Local fit matrix `[Φ P; Pᵀ 0]`, resized on stencil-shape change.
    a: DMat,
    /// LU storage, refactored in place per stencil ([`Lu::refactor`]).
    lu: Option<Lu>,
    rhs: DVec,
    sol: DVec,
    local: Vec<Point2>,
}

impl FdWorkspace {
    /// An empty workspace; buffers size themselves on first use.
    pub fn new() -> FdWorkspace {
        FdWorkspace {
            a: DMat::zeros(0, 0),
            lu: None,
            rhs: DVec::zeros(0),
            sol: DVec::zeros(0),
            local: Vec::new(),
        }
    }
}

impl Default for FdWorkspace {
    fn default() -> Self {
        FdWorkspace::new()
    }
}

/// Computes RBF-FD weights for `op` at `center` over the given neighbour
/// points. Coordinates are shifted to the stencil centre for conditioning.
///
/// Convenience wrapper over [`fd_weights_into`] with a throwaway workspace;
/// assembly loops should hold an [`FdWorkspace`] and call the `_into` form.
pub fn fd_weights(
    center: Point2,
    neighbours: &[Point2],
    kernel: RbfKernel,
    degree: i32,
    op: DiffOp,
) -> Result<Vec<f64>, LinalgError> {
    let mut ws = FdWorkspace::new();
    let mut out = Vec::new();
    fd_weights_into(center, neighbours, kernel, degree, op, &mut ws, &mut out)?;
    Ok(out)
}

/// [`fd_weights`] into caller-owned buffers: the local system is assembled,
/// factored and solved inside `ws`, and the `k` stencil weights are written
/// to `out`. Produces the same bits as [`fd_weights`] for any workspace
/// history — every reused entry is overwritten or re-zeroed before use.
pub fn fd_weights_into(
    center: Point2,
    neighbours: &[Point2],
    kernel: RbfKernel,
    degree: i32,
    op: DiffOp,
    ws: &mut FdWorkspace,
    out: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    let mut outs = [std::mem::take(out)];
    let res = fd_weights_multi_into(center, neighbours, kernel, degree, &[op], ws, &mut outs);
    *out = std::mem::take(&mut outs[0]);
    res
}

/// Multi-operator form of [`fd_weights_into`]: one local fit system
/// `[Φ P; Pᵀ 0]`, assembled and factored **once**, then back-solved for
/// every operator in `ops` (`outs[q]` receives the `k` weights of
/// `ops[q]`). The factorisation depends only on the stencil geometry, so
/// each weight set is bitwise identical to a standalone [`fd_weights_into`]
/// call for that operator — this is the cost lever for saddle-point
/// assembly, which needs `∂x`, `∂y` and `∇²` on every stencil.
pub fn fd_weights_multi_into(
    center: Point2,
    neighbours: &[Point2],
    kernel: RbfKernel,
    degree: i32,
    ops: &[DiffOp],
    ws: &mut FdWorkspace,
    outs: &mut [Vec<f64>],
) -> Result<(), LinalgError> {
    assert_eq!(ops.len(), outs.len(), "one output buffer per operator");
    let k = neighbours.len();
    let basis = PolyBasis::new(degree);
    let m = basis.len();
    assert!(
        k >= m,
        "stencil of {k} points cannot support {m} polynomial constraints"
    );
    let size = k + m;
    // Local (shifted) coordinates.
    ws.local.clear();
    ws.local.extend(neighbours.iter().map(|&p| p - center));
    let local = &ws.local[..];
    let origin = Point2::new(0.0, 0.0);
    // Local fit matrix [Φ P; Pᵀ 0].
    if ws.a.shape() != (size, size) {
        ws.a = DMat::zeros(size, size);
    } else {
        // The fill below overwrites everything except the m×m zero block.
        for i in k..size {
            for j in k..size {
                ws.a[(i, j)] = 0.0;
            }
        }
    }
    let exps = basis.exponents();
    for i in 0..k {
        for j in 0..k {
            ws.a[(i, j)] = kernel.eval(local[i].dist(&local[j]));
        }
        for (j, &(ea, eb)) in exps.iter().enumerate() {
            // Inlined `basis.eval(local[i])[j]` — same expression, no
            // per-point Vec.
            let v = local[i].x.powi(ea) * local[i].y.powi(eb);
            ws.a[(i, k + j)] = v;
            ws.a[(k + j, i)] = v;
        }
    }
    match &mut ws.lu {
        Some(lu) if lu.dim() == size => lu.refactor(&ws.a)?,
        slot => *slot = Some(Lu::factor(&ws.a)?),
    }
    let lu = ws.lu.as_ref().expect("lu populated above");
    // One back-solve per operator against the shared factors.
    ws.rhs.0.resize(size, 0.0);
    for (&op, out) in ops.iter().zip(outs.iter_mut()) {
        // RHS: the operator applied to each basis function at the centre.
        for (j, p) in local.iter().enumerate().take(k) {
            let r = origin.dist(p);
            ws.rhs[j] = match op {
                DiffOp::Eval => kernel.eval(r),
                DiffOp::Dx => (origin.x - p.x) * kernel.d1_over_r(r),
                DiffOp::Dy => (origin.y - p.y) * kernel.d1_over_r(r),
                DiffOp::Lap => kernel.laplacian2d(r),
            };
        }
        let poly_rhs = match op {
            DiffOp::Eval => basis.eval(origin),
            DiffOp::Dx => basis.eval_dx(origin),
            DiffOp::Dy => basis.eval_dy(origin),
            DiffOp::Lap => basis.eval_lap(origin),
        };
        for (j, v) in poly_rhs.into_iter().enumerate() {
            ws.rhs[k + j] = v;
        }
        lu.solve_into(&ws.rhs, &mut ws.sol)?;
        out.clear();
        out.extend_from_slice(&ws.sol.as_slice()[..k]);
    }
    Ok(())
}

/// Precomputed k-nearest-neighbour stencils over a fixed node set.
///
/// Building the kd-tree and querying every node's stencil is pure geometry —
/// it depends only on the node coordinates, not on the operator being
/// assembled. Build a `StencilSet` once per node set and reuse it across
/// every [`fd_matrix_from_stencils`] call (`∂x`, `∂y`, `∇²`, repeated
/// assemblies in optimization loops) instead of re-querying the tree.
#[derive(Debug, Clone)]
pub struct StencilSet {
    /// Flattened neighbour indices, `k` per node, closest-first.
    idx: Vec<usize>,
    /// Stencil size (clamped to the cloud size).
    k: usize,
    /// Number of nodes.
    n: usize,
}

impl StencilSet {
    /// Builds the stencils of `nodes` with a fresh kd-tree.
    pub fn build(nodes: &NodeSet, stencil_size: usize) -> StencilSet {
        let tree = KdTree::build(nodes.points());
        StencilSet::from_tree(nodes, &tree, stencil_size)
    }

    /// Builds the stencils from an existing tree over the same points.
    /// Queries run in parallel with per-chunk scratch buffers.
    pub fn from_tree(nodes: &NodeSet, tree: &KdTree, stencil_size: usize) -> StencilSet {
        let n = nodes.len();
        let k = stencil_size.min(n);
        let mut idx = vec![0usize; n * k];
        if k > 0 {
            // Fixed node-block decomposition (at most PAR_BLOCKS blocks),
            // so chunk boundaries never depend on the thread count.
            let block = n.div_ceil(linalg::blocking::PAR_BLOCKS).max(1);
            par::par_chunks_mut(&mut idx, block * k, |c, piece| {
                let mut scratch = Vec::new();
                let mut out = Vec::new();
                let base = c * block;
                for (r, row) in piece.chunks_mut(k).enumerate() {
                    tree.knn_into(nodes.point(base + r), k, &mut scratch, &mut out);
                    row.copy_from_slice(&out);
                }
            });
        }
        StencilSet { idx, k, n }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the set covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Stencil size `k` (after clamping to the cloud size).
    pub fn stencil_size(&self) -> usize {
        self.k
    }

    /// Neighbour indices of node `i`, closest-first (`i` itself leads).
    pub fn neighbours(&self, i: usize) -> &[usize] {
        &self.idx[i * self.k..(i + 1) * self.k]
    }
}

/// Builds the sparse global operator for `op`: row `i` holds the RBF-FD
/// weights of node `i`'s stencil. Rows are computed in parallel.
///
/// Builds a throwaway [`StencilSet`]; callers assembling several operators
/// on the same nodes should build one and use [`fd_matrix_from_stencils`].
pub fn fd_matrix(
    nodes: &NodeSet,
    kernel: RbfKernel,
    cfg: FdConfig,
    op: DiffOp,
) -> Result<Csr, LinalgError> {
    let stencils = StencilSet::build(nodes, cfg.stencil_size);
    fd_matrix_from_stencils(nodes, &stencils, kernel, cfg.degree, op)
}

/// [`fd_matrix`] over precomputed stencils: the kd-tree neighbour lists are
/// reused, and each pool chunk recycles one [`FdWorkspace`] across its rows.
pub fn fd_matrix_from_stencils(
    nodes: &NodeSet,
    stencils: &StencilSet,
    kernel: RbfKernel,
    degree: i32,
    op: DiffOp,
) -> Result<Csr, LinalgError> {
    assert_eq!(
        stencils.len(),
        nodes.len(),
        "stencils built for other nodes"
    );
    let n = nodes.len();
    let per_row: Vec<Result<Vec<f64>, LinalgError>> = par::par_map_collect_with(
        n,
        || (FdWorkspace::new(), Vec::new()),
        |(ws, pts), i| {
            let center = nodes.point(i);
            pts.clear();
            pts.extend(stencils.neighbours(i).iter().map(|&j| nodes.point(j)));
            let mut w = Vec::with_capacity(pts.len());
            fd_weights_into(center, pts, kernel, degree, op, ws, &mut w)?;
            Ok(w)
        },
    );
    let mut t = Triplets::new(n, n);
    for (i, row) in per_row.into_iter().enumerate() {
        let w = row?;
        for (&j, wj) in stencils.neighbours(i).iter().zip(w) {
            t.push(i, j, wj);
        }
    }
    Ok(t.to_csr())
}

/// Assembles several sparse global operators in one parallel sweep over the
/// stencils: each node's local fit system is factored **once** and
/// back-solved for every operator in `ops`, so assembling `{∂x, ∂y, ∇²}`
/// costs one factorisation pass instead of three.
///
/// Returns one CSR per operator, in the order of `ops`. Each returned
/// matrix is bitwise identical to the corresponding
/// [`fd_matrix_from_stencils`] call (the local factors depend only on the
/// stencil geometry), and the assembly is deterministic across pool widths
/// (fixed per-node work decomposition, same as the single-operator path).
/// This is the saddle-point assembly primitive: the Navier–Stokes block
/// operator needs all three derivatives on every stencil.
pub fn fd_matrices_multi(
    nodes: &NodeSet,
    stencils: &StencilSet,
    kernel: RbfKernel,
    degree: i32,
    ops: &[DiffOp],
) -> Result<Vec<Csr>, LinalgError> {
    assert_eq!(
        stencils.len(),
        nodes.len(),
        "stencils built for other nodes"
    );
    let n = nodes.len();
    let nops = ops.len();
    let per_row: Vec<Result<Vec<Vec<f64>>, LinalgError>> = par::par_map_collect_with(
        n,
        || (FdWorkspace::new(), Vec::new()),
        |(ws, pts), i| {
            let center = nodes.point(i);
            pts.clear();
            pts.extend(stencils.neighbours(i).iter().map(|&j| nodes.point(j)));
            let mut outs = vec![Vec::with_capacity(pts.len()); nops];
            fd_weights_multi_into(center, pts, kernel, degree, ops, ws, &mut outs)?;
            Ok(outs)
        },
    );
    let mut triplets: Vec<Triplets> = (0..nops).map(|_| Triplets::new(n, n)).collect();
    for (i, row) in per_row.into_iter().enumerate() {
        let weight_sets = row?;
        for (t, w) in triplets.iter_mut().zip(weight_sets) {
            for (&j, wj) in stencils.neighbours(i).iter().zip(w) {
                t.push(i, j, wj);
            }
        }
    }
    Ok(triplets.into_iter().map(|t| t.to_csr()).collect())
}

/// Normal-derivative sparse operator (`n·∇`) using each boundary node's
/// outward normal; interior rows are zero. The `∂x` and `∂y` assemblies
/// share one [`StencilSet`] (one kd-tree build, one neighbour sweep).
pub fn fd_normal_matrix(
    nodes: &NodeSet,
    kernel: RbfKernel,
    cfg: FdConfig,
) -> Result<Csr, LinalgError> {
    let stencils = StencilSet::build(nodes, cfg.stencil_size);
    let dx = fd_matrix_from_stencils(nodes, &stencils, kernel, cfg.degree, DiffOp::Dx)?;
    let dy = fd_matrix_from_stencils(nodes, &stencils, kernel, cfg.degree, DiffOp::Dy)?;
    let n = nodes.len();
    let mut t = Triplets::new(n, n);
    for i in nodes.boundary_indices() {
        if let Some(nrm) = nodes.normal(i) {
            let (cols, vals) = dx.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                t.push(i, j, nrm.x * v);
            }
            let (cols, vals) = dy.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                t.push(i, j, nrm.y * v);
            }
        }
    }
    Ok(t.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::generators::{unit_square_grid, unit_square_scattered, BoundaryClass};
    use geometry::NodeKind;
    use linalg::{EnvelopeLu, LinearBackend};

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

    #[test]
    fn for_degree_sizes_stencils_to_support_the_basis() {
        for degree in 0..=4 {
            let cfg = FdConfig::for_degree(degree);
            assert_eq!(cfg.degree, degree);
            assert!(
                cfg.stencil_size >= PolyBasis::new(degree).len(),
                "degree {degree}: stencil {} below basis size",
                cfg.stencil_size
            );
            assert!(cfg.stencil_size >= 13);
        }
        // Degree 4 has 15 monomials → a 13-point stencil would be singular.
        assert!(FdConfig::for_degree(4).stencil_size >= 31);
    }

    #[test]
    fn weights_reproduce_polynomial_derivatives_exactly() {
        // Degree-2 augmentation: Laplacian of x² + y² must be exactly 4.
        let center = Point2::new(0.4, 0.6);
        let mut pts = vec![center];
        for k in 0..12 {
            let a = k as f64 * std::f64::consts::TAU / 12.0;
            pts.push(center + Point2::new(a.cos(), a.sin()) * 0.08);
        }
        let w = fd_weights(center, &pts, RbfKernel::Phs3, 2, DiffOp::Lap).unwrap();
        let lap: f64 = w
            .iter()
            .zip(&pts)
            .map(|(wi, p)| wi * (p.x * p.x + p.y * p.y))
            .sum();
        assert!((lap - 4.0).abs() < 1e-8, "lap = {lap}");
        // Dx of a linear field.
        let w = fd_weights(center, &pts, RbfKernel::Phs3, 2, DiffOp::Dx).unwrap();
        let dx: f64 = w
            .iter()
            .zip(&pts)
            .map(|(wi, p)| wi * (3.0 * p.x - p.y))
            .sum();
        assert!((dx - 3.0).abs() < 1e-8, "dx = {dx}");
    }

    #[test]
    fn eval_weights_are_a_delta() {
        let center = Point2::new(0.0, 0.0);
        let pts = vec![
            center,
            Point2::new(0.1, 0.0),
            Point2::new(0.0, 0.1),
            Point2::new(-0.1, 0.0),
            Point2::new(0.0, -0.1),
        ];
        let w = fd_weights(center, &pts, RbfKernel::Phs3, 1, DiffOp::Eval).unwrap();
        assert!((w[0] - 1.0).abs() < 1e-10);
        for wi in &w[1..] {
            assert!(wi.abs() < 1e-10);
        }
    }

    #[test]
    fn fd_matrix_differentiates_smooth_fields() {
        let ns = unit_square_grid(15, 15, all_dirichlet);
        let cfg = FdConfig {
            stencil_size: 12,
            degree: 2,
        };
        let lap = fd_matrix(&ns, RbfKernel::Phs3, cfg, DiffOp::Lap).unwrap();
        let f = DVec::from_fn(ns.len(), |i| {
            let p = ns.point(i);
            p.x * p.x * p.y + p.y * p.y
        });
        let lf = lap.matvec(&f);
        for i in ns.interior_range() {
            let p = ns.point(i);
            let exact = 2.0 * p.y + 2.0;
            assert!(
                (lf[i] - exact).abs() < 5e-2,
                "lap at {p:?}: {} vs {exact}",
                lf[i]
            );
        }
    }

    #[test]
    fn fd_laplacian_convergence_under_refinement() {
        let err_for = |n: usize| {
            let ns = unit_square_grid(n, n, all_dirichlet);
            let cfg = FdConfig {
                stencil_size: 12,
                degree: 2,
            };
            let lap = fd_matrix(&ns, RbfKernel::Phs3, cfg, DiffOp::Lap).unwrap();
            let pi = std::f64::consts::PI;
            let f = DVec::from_fn(ns.len(), |i| {
                let p = ns.point(i);
                (pi * p.x).sin() * (pi * p.y).sin()
            });
            let lf = lap.matvec(&f);
            let mut emax: f64 = 0.0;
            for i in ns.interior_range() {
                let p = ns.point(i);
                let exact = -2.0 * pi * pi * (pi * p.x).sin() * (pi * p.y).sin();
                emax = emax.max((lf[i] - exact).abs());
            }
            emax
        };
        let e1 = err_for(11);
        let e2 = err_for(21);
        assert!(
            e2 < 0.55 * e1,
            "no convergence: e(h)={e1:.3e}, e(h/2)={e2:.3e}"
        );
    }

    #[test]
    fn sparse_laplace_solve_matches_analytic_linear() {
        // Assemble: interior rows = FD Laplacian, boundary rows = identity.
        let ns = unit_square_scattered(120, 13, all_dirichlet);
        let cfg = FdConfig::default();
        let lap = fd_matrix(&ns, RbfKernel::Phs3, cfg, DiffOp::Lap).unwrap();
        let n = ns.len();
        let mut t = Triplets::new(n, n);
        for i in ns.interior_range() {
            let (cols, vals) = lap.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                t.push(i, j, v);
            }
        }
        for i in ns.boundary_indices() {
            t.push(i, i, 1.0);
        }
        let a = t.to_csr();
        let g = |p: Point2| 1.0 + 2.0 * p.x - 0.7 * p.y; // harmonic
        let mut b = DVec::zeros(n);
        for i in ns.boundary_indices() {
            b[i] = g(ns.point(i));
        }
        let x = EnvelopeLu::factor(&a).unwrap().solve(&b).unwrap();
        for i in 0..n {
            assert!(
                (x[i] - g(ns.point(i))).abs() < 1e-6,
                "node {i}: {} vs {}",
                x[i],
                g(ns.point(i))
            );
        }
    }

    #[test]
    fn normal_matrix_matches_directional_derivative() {
        let ns = unit_square_grid(10, 10, all_dirichlet);
        let cfg = FdConfig {
            stencil_size: 12,
            degree: 2,
        };
        let dn = fd_normal_matrix(&ns, RbfKernel::Phs3, cfg).unwrap();
        let f = DVec::from_fn(ns.len(), |i| {
            let p = ns.point(i);
            p.x + 2.0 * p.y
        });
        let df = dn.matvec(&f);
        for i in ns.boundary_indices() {
            let nrm = ns.normal(i).unwrap();
            let exact = nrm.x + 2.0 * nrm.y;
            assert!(
                (df[i] - exact).abs() < 1e-6,
                "node {i}: {} vs {exact}",
                df[i]
            );
        }
    }

    #[test]
    fn fd_matrix_is_deterministic_across_thread_counts() {
        // Per-node stencil solves are independent; the assembled operator
        // must be identical with any pool size.
        let ns = unit_square_grid(9, 9, all_dirichlet);
        let cfg = FdConfig::default();
        // serial_scope pins the shared runtime pool to its inline path —
        // no per-call pool construction (the old rayon ThreadPoolBuilder).
        let par = fd_matrix(&ns, RbfKernel::Phs3, cfg, DiffOp::Lap).unwrap();
        let seq = par::serial_scope(|| fd_matrix(&ns, RbfKernel::Phs3, cfg, DiffOp::Lap).unwrap());
        assert_eq!(par.to_dense(), seq.to_dense());
    }

    #[test]
    fn stencil_set_matches_fresh_kdtree_queries_exactly() {
        let ns = unit_square_scattered(90, 13, all_dirichlet);
        let stencils = StencilSet::build(&ns, 13);
        let tree = KdTree::build(ns.points());
        assert_eq!(stencils.len(), ns.len());
        assert_eq!(stencils.stencil_size(), 13);
        for i in 0..ns.len() {
            assert_eq!(
                stencils.neighbours(i),
                tree.knn(ns.point(i), 13).as_slice(),
                "node {i} neighbour list diverged"
            );
        }
    }

    #[test]
    fn assembly_from_reused_stencils_matches_fd_matrix_bitwise() {
        let ns = unit_square_scattered(90, 13, all_dirichlet);
        let cfg = FdConfig::default();
        let stencils = StencilSet::build(&ns, cfg.stencil_size);
        for op in [DiffOp::Lap, DiffOp::Dx, DiffOp::Dy] {
            let fresh = fd_matrix(&ns, RbfKernel::Phs3, cfg, op).unwrap();
            let reused =
                fd_matrix_from_stencils(&ns, &stencils, RbfKernel::Phs3, cfg.degree, op).unwrap();
            assert_eq!(fresh.to_dense(), reused.to_dense(), "{op:?} diverged");
        }
    }

    #[test]
    fn multi_op_assembly_is_bitwise_identical_to_single_op_assemblies() {
        let ns = unit_square_scattered(90, 13, all_dirichlet);
        let cfg = FdConfig::default();
        let stencils = StencilSet::build(&ns, cfg.stencil_size);
        let ops = [DiffOp::Dx, DiffOp::Dy, DiffOp::Lap];
        let multi = fd_matrices_multi(&ns, &stencils, RbfKernel::Phs3, cfg.degree, &ops).unwrap();
        assert_eq!(multi.len(), 3);
        for (op, m) in ops.iter().zip(&multi) {
            let single =
                fd_matrix_from_stencils(&ns, &stencils, RbfKernel::Phs3, cfg.degree, *op).unwrap();
            assert_eq!(m.to_dense(), single.to_dense(), "{op:?} diverged");
        }
    }

    #[test]
    fn multi_op_assembly_is_deterministic_across_thread_counts() {
        let ns = unit_square_grid(9, 9, all_dirichlet);
        let cfg = FdConfig::default();
        let stencils = StencilSet::build(&ns, cfg.stencil_size);
        let ops = [DiffOp::Dx, DiffOp::Lap];
        let par_run = fd_matrices_multi(&ns, &stencils, RbfKernel::Phs3, cfg.degree, &ops).unwrap();
        let seq = par::serial_scope(|| {
            fd_matrices_multi(&ns, &stencils, RbfKernel::Phs3, cfg.degree, &ops).unwrap()
        });
        for (a, b) in par_run.iter().zip(&seq) {
            assert_eq!(a.to_dense(), b.to_dense());
        }
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical_to_fresh_workspaces() {
        let center = Point2::new(0.3, 0.7);
        let mut pts = vec![center];
        for k in 0..12 {
            let a = k as f64 * std::f64::consts::TAU / 12.0;
            pts.push(center + Point2::new(a.cos(), a.sin()) * 0.05);
        }
        let mut ws = FdWorkspace::new();
        let mut out = Vec::new();
        // Cycle through ops and stencil shapes with one dirty workspace.
        for op in [DiffOp::Lap, DiffOp::Dx, DiffOp::Eval, DiffOp::Dy] {
            for hi in [pts.len(), pts.len() - 3] {
                let fresh = fd_weights(center, &pts[..hi], RbfKernel::Phs3, 1, op).unwrap();
                fd_weights_into(
                    center,
                    &pts[..hi],
                    RbfKernel::Phs3,
                    1,
                    op,
                    &mut ws,
                    &mut out,
                )
                .unwrap();
                assert_eq!(out, fresh, "{op:?} with k={hi} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "polynomial constraints")]
    fn tiny_stencil_with_big_degree_panics() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.1, 0.0)];
        let _ = fd_weights(pts[0], &pts, RbfKernel::Phs3, 2, DiffOp::Lap);
    }
}
