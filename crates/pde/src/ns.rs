//! Steady incompressible Navier–Stokes in the channel (paper §3.2).
//!
//! Two discretisations share one solver interface, selected by
//! [`NsConfig::backend`]:
//!
//! * **Dense** ([`BackendKind::DenseLu`], the default): nodal RBF
//!   differentiation matrices (`Dx`, `Dy`, `∇²`) from global collocation,
//!   assembled into a fully coupled dense `(3N)²` matrix and LU-factored.
//! * **Sparse** ([`BackendKind::SparseGmres`]): RBF-FD local-stencil
//!   operators assembled **directly into per-block CSR matrices** — the
//!   dense `(3N)²` matrix is never materialised. The blocks compose into a
//!   [`BlockCsr`] saddle-point operator, flattened and factored once per
//!   sweep by [`BandLu`] (RCM ordering, partial pivoting inside the band).
//!
//! Both assemble the same coupled (u, v, p) saddle-point structure,
//! re-linearised around the current state (Picard iteration on the
//! advection term):
//!
//! ```text
//!   [ C(u,v) − ν∇²      0          ∂x ] [u]   [bc_u]
//!   [     0         C(u,v) − ν∇²   ∂y ] [v] = [bc_v]
//!   [    ∂x             ∂y      p-BCs ] [p]   [ 0  ]
//! ```
//!
//! with `C(u,v) = u∂x + v∂y` frozen at the previous iterate. Each Picard
//! step is one "refinement" — the paper's `k` (3 for DAL, 10 for DP), the
//! quantity whose growth drives DP's memory super-linearity (every
//! refinement caches a `(3N)²` LU on the DP tape; the sparse path caches
//! one band factor of the RCM-ordered operator instead).
//!
//! Boundary conditions: Dirichlet `u = c(y)` at the inflow (the control),
//! no-slip walls, blowing/suction slot profiles for `v`, and fully
//! developed outflow — `∂u/∂x = 0` but `v = 0` (the components are
//! *decoupled* at the outflow, as the paper notes), `p = 0` at the outflow
//! and `∂p/∂n = 0` elsewhere.
//!
//! Stabilisation: the default cloud is coarser than the paper's 1385-node
//! GMSH cloud, so an artificial (upwind-equivalent) viscosity `stab·h` is
//! added to `1/Re` (see `NsConfig::stab` and DESIGN.md §5).

use geometry::generators::{channel_cloud, channel_tags, ChannelConfig};
use geometry::{quadrature, NodeSet};
use linalg::{
    BackendKind, BandLu, BlockCsr, Csr, DMat, DVec, LinalgError, LinearBackend, Lu, Triplets,
};
use meshfree_runtime::trace;
use rbf::fd::{fd_matrices_multi, FdConfig, StencilSet};
use rbf::{DiffMatrices, DiffOp, GlobalCollocation, RbfKernel};
use std::sync::Arc;

use crate::analytic::poiseuille;

/// Navier–Stokes problem configuration.
#[derive(Debug, Clone)]
pub struct NsConfig {
    /// Channel geometry.
    pub channel: ChannelConfig,
    /// Reynolds number (paper: 100; 10 for the DAL-friendly ablation).
    pub re: f64,
    /// Picard damping factor (1 = undamped).
    pub picard_damping: f64,
    /// Blowing/suction slot velocity magnitude.
    pub slot_velocity: f64,
    /// Artificial (upwind-equivalent) viscosity coefficient: effective
    /// viscosity is `1/Re + stab·h`. Central RBF advection at cell Péclet
    /// `u·h/ν > 2` is unstable without it on coarse clouds.
    pub stab: f64,
    /// RBF kernel.
    pub kernel: RbfKernel,
    /// Appended polynomial degree.
    pub degree: i32,
    /// Discretisation and linear-solver selection for the coupled Picard
    /// and adjoint systems. [`BackendKind::DenseLu`] (the default) keeps
    /// the byte-identical global-collocation + dense-LU path;
    /// [`BackendKind::SparseGmres`] switches the *discretisation* to
    /// RBF-FD local stencils, assembles per-block CSR operators (the dense
    /// `(3N)²` matrix is never built) and factors each saddle system with
    /// [`BandLu`], reporting its solves on the `"linsolve"` trace layer
    /// under the `band_lu` / `band_lu_t` labels.
    pub backend: BackendKind,
}

impl Default for NsConfig {
    fn default() -> Self {
        NsConfig {
            channel: ChannelConfig::default(),
            re: 100.0,
            picard_damping: 1.0,
            slot_velocity: 0.3,
            stab: 0.4,
            kernel: RbfKernel::Phs3,
            degree: 1,
            backend: BackendKind::DenseLu,
        }
    }
}

/// Nodal flow state.
#[derive(Debug, Clone)]
pub struct NsState {
    /// Horizontal velocity at the nodes.
    pub u: DVec,
    /// Vertical velocity at the nodes.
    pub v: DVec,
    /// Pressure at the nodes.
    pub p: DVec,
}

impl NsState {
    /// Stacks into a `3N` vector `[u; v; p]`.
    pub fn stack(&self) -> DVec {
        let n = self.u.len();
        let mut x = DVec::zeros(3 * n);
        x.as_mut_slice()[..n].copy_from_slice(&self.u);
        x.as_mut_slice()[n..2 * n].copy_from_slice(&self.v);
        x.as_mut_slice()[2 * n..].copy_from_slice(&self.p);
        x
    }

    /// Splits a stacked `3N` vector back into fields.
    pub fn unstack(x: &DVec) -> NsState {
        let n = x.len() / 3;
        NsState {
            u: DVec(x.as_slice()[..n].to_vec()),
            v: DVec(x.as_slice()[n..2 * n].to_vec()),
            p: DVec(x.as_slice()[2 * n..].to_vec()),
        }
    }
}

/// Reusable scratch for repeated Picard sweeps: the coupled `(3N)²` matrix
/// (dense mode only — the sparse mode keeps it `0 × 0`), its LU
/// factorisation storage (dense mode only), and the linear-solve output
/// buffer.
///
/// Created by [`NsSolver::workspace`]; consumed by [`NsSolver::refine_with`]
/// and [`NsSolver::solve_with`]. Reuse across sweeps (and across optimizer
/// iterations) eliminates every per-sweep `(3N)²` allocation — the matrix
/// sparsity pattern is control-independent, only the advection coefficients
/// change, so [`Lu::refactor`] recycles the factor storage in place.
pub struct NsWorkspace {
    pub(crate) a: DMat,
    pub(crate) lu: Option<Lu>,
    pub(crate) x: DVec,
}

/// RBF-FD sparse operators for the Navier–Stokes saddle-point system,
/// built when the backend is [`BackendKind::SparseGmres`].
///
/// Block ordering is `u | v | p`: global row/column `b·N + i` addresses
/// field `b ∈ {0: u, 1: v, 2: p}` at node `i`. Every operator is a genuine
/// local-stencil CSR matrix (~stencil-size nonzeros per row); nothing here
/// is `O(N²)`.
pub struct NsSparseOps {
    /// Full RBF-FD `∂x` over the cloud (`N × N`).
    pub dx: Csr,
    /// Full RBF-FD `∂y` over the cloud (`N × N`).
    pub dy: Csr,
    /// `∂x` restricted to interior rows (boundary rows empty). This single
    /// operator serves as both the pressure-gradient block `G_u` (momentum
    /// rows) and the continuity block `D_u` (pressure rows) — in this
    /// discretisation they are the *same* matrix.
    pub dx_int: Csr,
    /// `∂y` restricted to interior rows (`G_v = D_v`).
    pub dy_int: Csr,
    /// Constant part of the `(u,u)` block: `−ν∇²` at interior rows, `∂x`
    /// rows at the outflow (fully developed), identity at the other
    /// boundary rows (Dirichlet data).
    pub a_u0: Csr,
    /// Constant part of the `(v,v)` block: `−ν∇²` at interior rows,
    /// identity on every boundary row.
    pub a_v0: Csr,
    /// The `(p,p)` block: identity at the outflow (`p = 0`), `n·∇` rows on
    /// the other boundaries (`∂p/∂n = 0`), structurally **empty** interior
    /// rows — which is why the saddle systems need row interchanges
    /// ([`BandLu`]).
    pub a_p: Csr,
    /// `3N × 3N` advection structure matrix for the taped DP path:
    /// `dx_int` embedded in the `(u,u)` and `(v,v)` blocks (see
    /// [`NsSolver::advection_structs`]).
    pub adv3_x: Arc<Csr>,
    /// `3N × 3N` advection structure matrix: `dy_int` in the same blocks.
    pub adv3_y: Arc<Csr>,
}

/// Bytes held by a CSR matrix (values + index arrays).
fn csr_bytes(m: &Csr) -> usize {
    m.nnz() * (8 + std::mem::size_of::<usize>()) + (m.nrows() + 1) * std::mem::size_of::<usize>()
}

/// `3N × 3N` advection structure matrix: the interior rows of a
/// derivative operator (`row(i)` yields row `i`'s `(column, value)`
/// pairs) embedded in the `(u,u)` and `(v,v)` blocks. Row-scaling it by
/// the stacked `[u; u; 0]` (`[v; v; 0]`) vector gives the Picard advection
/// contribution `u∂x` (`v∂y`).
fn advection_embedding<R>(nodes: &NodeSet, row: impl Fn(usize) -> R) -> Arc<Csr>
where
    R: Iterator<Item = (usize, f64)>,
{
    let n = nodes.len();
    let mut t = Triplets::new(3 * n, 3 * n);
    // Block by block, so the triplets arrive already in CSR order.
    for off in [0, n] {
        for i in nodes.interior_range() {
            for (j, v) in row(i) {
                t.push(off + i, off + j, v);
            }
        }
    }
    Arc::new(t.to_csr())
}

impl NsSparseOps {
    /// Bytes held by the stored CSR operators (values + index arrays).
    pub fn memory_bytes(&self) -> usize {
        csr_bytes(&self.dx)
            + csr_bytes(&self.dy)
            + csr_bytes(&self.dx_int)
            + csr_bytes(&self.dy_int)
            + csr_bytes(&self.a_u0)
            + csr_bytes(&self.a_v0)
            + csr_bytes(&self.a_p)
            + csr_bytes(&self.adv3_x)
            + csr_bytes(&self.adv3_y)
    }
}

/// Dense global-collocation operators (the original discretisation).
struct DenseOps {
    /// Full nodal differentiation matrices.
    dm: DiffMatrices,
    /// `Dx`/`Dy` with all non-interior rows zeroed (`N × N`).
    dx_int: Arc<DMat>,
    dy_int: Arc<DMat>,
    /// Constant part of the coupled matrix (`3N × 3N`): diffusion, pressure
    /// gradient, BC rows, continuity rows, pressure-BC rows.
    base: Arc<DMat>,
    /// Advection structure matrices for the taped DP path: `Dxᵢₙₜ` and
    /// `Dyᵢₙₜ` in the (u,u) and (v,v) blocks, as CSR — the same values the
    /// coupled matrix carries, at `O(N_int·N)` instead of `(3N)²` storage.
    adv3_x: Arc<Csr>,
    adv3_y: Arc<Csr>,
}

/// The discretisation actually built, decided by [`NsConfig::backend`].
enum Disc {
    Dense(Box<DenseOps>),
    Sparse(Box<NsSparseOps>),
}

/// The assembled channel-flow solver.
pub struct NsSolver {
    nodes: NodeSet,
    cfg: NsConfig,
    disc: Disc,
    /// Constant RHS (slot boundary data), `3N`.
    rhs0: DVec,
    /// Inflow node indices sorted by `y`, and their `y` coordinates.
    inflow_idx: Vec<usize>,
    inflow_y: Vec<f64>,
    /// Outflow node indices sorted by `y`, `y` coordinates, quadrature.
    outflow_idx: Vec<usize>,
    outflow_y: Vec<f64>,
    outflow_w: DVec,
    /// Slot boundary data for `v` (per node).
    v_bc: DVec,
    /// Target outflow profile at the outflow nodes.
    target_u: DVec,
}

/// Builds the dense global-collocation operators (byte-identical to the
/// original single-discretisation assembly).
fn build_dense_ops(nodes: &NodeSet, cfg: &NsConfig, nu: f64) -> Result<DenseOps, LinalgError> {
    let ctx = GlobalCollocation::new(nodes, cfg.kernel, cfg.degree);
    let dm = ctx.diff_matrices()?;
    let n = nodes.len();

    let mask_interior = |m: &DMat| -> DMat {
        let mut out = m.clone();
        for i in nodes.boundary_indices() {
            out.row_mut(i).fill(0.0);
        }
        out
    };
    let dx_int = mask_interior(&dm.dx);
    let dy_int = mask_interior(&dm.dy);
    let lap_int = mask_interior(&dm.lap);

    // ---- Constant 3N × 3N base matrix ----
    let mut base = DMat::zeros(3 * n, 3 * n);
    // u-momentum rows [0, n): −ν∇² (u-block) + ∂x (p-block) interior.
    // v-momentum rows [n, 2n): −ν∇² (v-block) + ∂y (p-block) interior.
    // Continuity rows [2n, 3n): ∂x u + ∂y v = 0 at interior nodes
    // (full derivative rows — boundary u, v values participate).
    for i in nodes.interior_range() {
        for j in 0..n {
            base[(i, j)] = -nu * lap_int[(i, j)];
            base[(i, 2 * n + j)] = dx_int[(i, j)];
            base[(n + i, n + j)] = -nu * lap_int[(i, j)];
            base[(n + i, 2 * n + j)] = dy_int[(i, j)];
            base[(2 * n + i, j)] = dm.dx[(i, j)];
            base[(2 * n + i, n + j)] = dm.dy[(i, j)];
        }
    }
    // Boundary rows.
    for i in nodes.boundary_indices() {
        // u-momentum: fully-developed outflow or Dirichlet data.
        if nodes.tag(i) == channel_tags::OUTFLOW {
            for j in 0..n {
                base[(i, j)] = dm.dx[(i, j)]; // ∂u/∂x = 0
            }
        } else {
            base[(i, i)] = 1.0; // u = data
        }
        // v-momentum: always Dirichlet.
        base[(n + i, n + i)] = 1.0;
        // Pressure rows.
        if nodes.tag(i) == channel_tags::OUTFLOW {
            base[(2 * n + i, 2 * n + i)] = 1.0; // p = 0
        } else {
            let nrm = nodes.normal(i).unwrap();
            for j in 0..n {
                base[(2 * n + i, 2 * n + j)] = nrm.x * dm.dx[(i, j)] + nrm.y * dm.dy[(i, j)];
            }
        }
    }

    let adv3_x = advection_embedding(nodes, |i| dx_int.row(i).iter().copied().enumerate());
    let adv3_y = advection_embedding(nodes, |i| dy_int.row(i).iter().copied().enumerate());
    Ok(DenseOps {
        dm,
        dx_int: Arc::new(dx_int),
        dy_int: Arc::new(dy_int),
        base: Arc::new(base),
        adv3_x,
        adv3_y,
    })
}

/// Builds the RBF-FD sparse operators: one stencil sweep assembles
/// `{∂x, ∂y, ∇²}` via [`fd_matrices_multi`] (one local factorisation per
/// node), then the constant saddle blocks are formed row by row following
/// exactly the dense assembly's recipe — same equations, local stencils
/// instead of global collocation rows.
fn build_sparse_ops(nodes: &NodeSet, cfg: &NsConfig, nu: f64) -> Result<NsSparseOps, LinalgError> {
    let n = nodes.len();
    // RBF-FD needs degree ≥ 2 stencil polynomials for a consistent
    // Laplacian; `for_degree` also sizes the stencil accordingly.
    let fd_cfg = FdConfig::for_degree(cfg.degree.max(2));
    let stencils = StencilSet::build(nodes, fd_cfg.stencil_size);
    let mats = fd_matrices_multi(
        nodes,
        &stencils,
        cfg.kernel,
        fd_cfg.degree,
        &[DiffOp::Dx, DiffOp::Dy, DiffOp::Lap],
    )?;
    let mut it = mats.into_iter();
    let dx = it.next().expect("three ops requested");
    let dy = it.next().expect("three ops requested");
    let lap = it.next().expect("three ops requested");

    let push_row = |t: &mut Triplets, i: usize, cols: &[usize], vals: &[f64], scale: f64| {
        for (&j, &v) in cols.iter().zip(vals) {
            t.push(i, j, scale * v);
        }
    };

    let mut t_dxi = Triplets::new(n, n);
    let mut t_dyi = Triplets::new(n, n);
    let mut t_au = Triplets::new(n, n);
    let mut t_av = Triplets::new(n, n);
    let mut t_ap = Triplets::new(n, n);
    for i in nodes.interior_range() {
        let (cx, vx) = dx.row(i);
        let (cy, vy) = dy.row(i);
        let (cl, vl) = lap.row(i);
        push_row(&mut t_dxi, i, cx, vx, 1.0);
        push_row(&mut t_dyi, i, cy, vy, 1.0);
        push_row(&mut t_au, i, cl, vl, -nu);
        push_row(&mut t_av, i, cl, vl, -nu);
    }
    for i in nodes.boundary_indices() {
        if nodes.tag(i) == channel_tags::OUTFLOW {
            let (cx, vx) = dx.row(i);
            push_row(&mut t_au, i, cx, vx, 1.0); // ∂u/∂x = 0
            t_ap.push(i, i, 1.0); // p = 0
        } else {
            t_au.push(i, i, 1.0); // u = data
            let nrm = nodes.normal(i).unwrap();
            let (cx, vx) = dx.row(i);
            let (cy, vy) = dy.row(i);
            push_row(&mut t_ap, i, cx, vx, nrm.x);
            push_row(&mut t_ap, i, cy, vy, nrm.y); // ∂p/∂n = 0
        }
        t_av.push(i, i, 1.0); // v = data
    }
    let dx_int = t_dxi.to_csr();
    let dy_int = t_dyi.to_csr();
    fn csr_row(m: &Csr, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = m.row(i);
        cols.iter().copied().zip(vals.iter().copied())
    }
    let adv3_x = advection_embedding(nodes, |i| csr_row(&dx_int, i));
    let adv3_y = advection_embedding(nodes, |i| csr_row(&dy_int, i));

    Ok(NsSparseOps {
        dx,
        dy,
        dx_int,
        dy_int,
        a_u0: t_au.to_csr(),
        a_v0: t_av.to_csr(),
        a_p: t_ap.to_csr(),
        adv3_x,
        adv3_y,
    })
}

impl NsSolver {
    /// Builds the solver: generates the cloud and the discretisation
    /// selected by [`NsConfig::backend`] — dense global-collocation
    /// operators under [`BackendKind::DenseLu`], per-block RBF-FD CSR
    /// operators under [`BackendKind::SparseGmres`] (no `O(N²)` storage is
    /// allocated on that path).
    pub fn new(cfg: NsConfig) -> Result<Self, LinalgError> {
        let nodes = channel_cloud(&cfg.channel);
        let n = nodes.len();
        let nu = 1.0 / cfg.re + cfg.stab * cfg.channel.h;

        let disc = match cfg.backend {
            BackendKind::DenseLu => Disc::Dense(Box::new(build_dense_ops(&nodes, &cfg, nu)?)),
            BackendKind::SparseGmres => Disc::Sparse(Box::new(build_sparse_ops(&nodes, &cfg, nu)?)),
        };

        let (inflow_idx, inflow_y) =
            quadrature::sort_along(&nodes.indices_with_tag(channel_tags::INFLOW), |i| {
                nodes.point(i).y
            });
        let (outflow_idx, outflow_y) =
            quadrature::sort_along(&nodes.indices_with_tag(channel_tags::OUTFLOW), |i| {
                nodes.point(i).y
            });
        let outflow_w = DVec(quadrature::trapezoid_weights(&outflow_y));

        // Slot boundary data for v: blowing (bottom, +v into the domain) and
        // suction (top, +v out of the domain), smooth bumps over each slot.
        let mut v_bc = DVec::zeros(n);
        let bump = |x: f64, (x0, x1): (f64, f64)| -> f64 {
            if x <= x0 || x >= x1 {
                0.0
            } else {
                let t = (x - x0) / (x1 - x0);
                4.0 * t * (1.0 - t)
            }
        };
        for i in nodes.indices_with_tag(channel_tags::BLOW) {
            v_bc[i] = cfg.slot_velocity * bump(nodes.point(i).x, cfg.channel.blow);
        }
        for i in nodes.indices_with_tag(channel_tags::SUCTION) {
            v_bc[i] = cfg.slot_velocity * bump(nodes.point(i).x, cfg.channel.suction);
        }
        let mut rhs0 = DVec::zeros(3 * n);
        for i in nodes.boundary_indices() {
            rhs0[n + i] = v_bc[i];
        }

        let ly = cfg.channel.ly;
        let target_u = DVec(outflow_y.iter().map(|&y| poiseuille(y, ly)).collect());

        Ok(NsSolver {
            nodes,
            cfg,
            disc,
            rhs0,
            inflow_idx,
            inflow_y,
            outflow_idx,
            outflow_y,
            outflow_w,
            v_bc,
            target_u,
        })
    }

    /// The dense operators, for paths that require them.
    ///
    /// Panics in sparse mode — dense `(3N)²` operators are exactly what
    /// [`BackendKind::SparseGmres`] promises never to build.
    fn dense_ops(&self) -> &DenseOps {
        match &self.disc {
            Disc::Dense(d) => d,
            Disc::Sparse(_) => {
                panic!("dense NS operators are not built under BackendKind::SparseGmres")
            }
        }
    }

    /// The node cloud.
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// The configuration.
    pub fn cfg(&self) -> &NsConfig {
        &self.cfg
    }

    /// Effective viscosity `1/Re + stab·h` (physical + artificial).
    pub fn nu_eff(&self) -> f64 {
        1.0 / self.cfg.re + self.cfg.stab * self.cfg.channel.h
    }

    /// Number of control degrees of freedom (inflow nodes).
    pub fn n_controls(&self) -> usize {
        self.inflow_idx.len()
    }

    /// `y` coordinates of the inflow (control) nodes, sorted.
    pub fn inflow_y(&self) -> &[f64] {
        &self.inflow_y
    }

    /// `y` coordinates of the outflow nodes, sorted.
    pub fn outflow_y(&self) -> &[f64] {
        &self.outflow_y
    }

    /// Outflow quadrature weights.
    pub fn outflow_weights(&self) -> &DVec {
        &self.outflow_w
    }

    /// Inflow node indices (sorted by `y`).
    pub fn inflow_idx(&self) -> &[usize] {
        &self.inflow_idx
    }

    /// Outflow node indices (sorted by `y`).
    pub fn outflow_idx(&self) -> &[usize] {
        &self.outflow_idx
    }

    /// Target outflow profile at the outflow nodes.
    pub fn target_u(&self) -> &DVec {
        &self.target_u
    }

    /// Full nodal differentiation matrices (dense mode only).
    ///
    /// # Panics
    /// Panics under [`BackendKind::SparseGmres`] — use
    /// [`NsSolver::sparse_ops`] there.
    pub fn dm(&self) -> &DiffMatrices {
        &self.dense_ops().dm
    }

    /// Masked `∂x` (interior rows only, `N × N`; dense mode only).
    ///
    /// # Panics
    /// Panics under [`BackendKind::SparseGmres`].
    pub fn dx_int(&self) -> &Arc<DMat> {
        &self.dense_ops().dx_int
    }

    /// Masked `∂y` (interior rows only, `N × N`; dense mode only).
    ///
    /// # Panics
    /// Panics under [`BackendKind::SparseGmres`].
    pub fn dy_int(&self) -> &Arc<DMat> {
        &self.dense_ops().dy_int
    }

    /// Constant block of the coupled matrix (`3N × 3N`; dense mode only).
    ///
    /// # Panics
    /// Panics under [`BackendKind::SparseGmres`].
    pub fn base(&self) -> &Arc<DMat> {
        &self.dense_ops().base
    }

    /// The `3N × 3N` advection structure matrices `[C_x, C_y]` of either
    /// backend: the coupled Picard matrix is `A₀ + diag(s_u)·C_x +
    /// diag(s_v)·C_y` with `s_u = [u; u; 0]`, `s_v = [v; v; 0]`, which is
    /// the decomposition [`autodiff::Tape::solve_scaled`] differentiates.
    pub fn advection_structs(&self) -> [Arc<Csr>; 2] {
        let (x, y) = match &self.disc {
            Disc::Dense(d) => (&d.adv3_x, &d.adv3_y),
            Disc::Sparse(o) => (&o.adv3_x, &o.adv3_y),
        };
        [Arc::clone(x), Arc::clone(y)]
    }

    /// The RBF-FD sparse operators (`Some` only under
    /// [`BackendKind::SparseGmres`]).
    pub fn sparse_ops(&self) -> Option<&NsSparseOps> {
        match &self.disc {
            Disc::Sparse(o) => Some(o),
            Disc::Dense(_) => None,
        }
    }

    /// Constant RHS (slot data), length `3N`.
    pub fn rhs0(&self) -> &DVec {
        &self.rhs0
    }

    /// Slot boundary data for the `v` component (per node).
    pub fn v_bc(&self) -> &DVec {
        &self.v_bc
    }

    /// The full RHS for inflow control `c`.
    pub fn rhs(&self, c: &DVec) -> DVec {
        assert_eq!(c.len(), self.n_controls(), "rhs: control length");
        let mut b = self.rhs0.clone();
        for (j, &i) in self.inflow_idx.iter().enumerate() {
            b[i] = c[j];
        }
        b
    }

    /// The 0/1 matrix `P` with `initial_state(c).u = P·c`: row `i` selects
    /// the inflow control nearest in `y` to node `i`, except no-slip rows
    /// (walls, blow/suction slots), which are zero.
    ///
    /// The cold-start state is *linear* in the control, and the DP tape
    /// records it through this map so the reverse sweep picks up the
    /// `∂x₀/∂c` contribution — without it the taped gradient of a
    /// cold-started run disagrees with finite differences at small `k`.
    pub fn initial_placement(&self) -> DMat {
        let n = self.nodes.len();
        let mut p = DMat::zeros(n, self.n_controls());
        for i in 0..n {
            let y = self.nodes.point(i).y;
            let mut best = 0;
            let mut bd = f64::INFINITY;
            for (j, &iy) in self.inflow_y.iter().enumerate() {
                let d = (iy - y).abs();
                if d < bd {
                    bd = d;
                    best = j;
                }
            }
            p[(i, best)] = 1.0;
        }
        for i in self.nodes.boundary_indices() {
            match self.nodes.tag(i) {
                channel_tags::WALL | channel_tags::BLOW | channel_tags::SUCTION => {
                    for j in 0..self.n_controls() {
                        p[(i, j)] = 0.0;
                    }
                }
                _ => {}
            }
        }
        p
    }

    /// An initial state: the control profile transported through the
    /// channel, `v = p = 0`. Equals `u = P·c` for `P` from
    /// [`NsSolver::initial_placement`].
    pub fn initial_state(&self, c: &DVec) -> NsState {
        assert_eq!(c.len(), self.n_controls(), "initial_state: control length");
        let n = self.nodes.len();
        let u = self
            .initial_placement()
            .matvec(c)
            .expect("initial_state: placement matvec");
        NsState {
            u,
            v: DVec::zeros(n),
            p: DVec::zeros(n),
        }
    }

    /// Bytes held by the assembled constant operators. Dense mode: the
    /// `(3N)²` base matrix, the `N²` differentiation matrices and the CSR
    /// advection structure matrices. Sparse mode: the CSR operator set, which
    /// is `O(k·N)` (stencil size `k`), not `O(N²)`. This is what a
    /// cross-request cache pays to keep an NS problem build resident (the
    /// per-sweep factor lives in the [`NsWorkspace`], not here).
    pub fn memory_bytes(&self) -> usize {
        match &self.disc {
            Disc::Dense(d) => {
                let mat = |m: &DMat| m.as_slice().len() * 8;
                mat(&d.base)
                    + csr_bytes(&d.adv3_x)
                    + csr_bytes(&d.adv3_y)
                    + mat(&d.dx_int)
                    + mat(&d.dy_int)
                    + mat(&d.dm.dx)
                    + mat(&d.dm.dy)
                    + mat(&d.dm.lap)
            }
            Disc::Sparse(o) => o.memory_bytes(),
        }
    }

    /// Creates a reusable workspace for repeated Picard sweeps. Dense
    /// mode: the `(3N)²` coupled matrix, its LU storage and the solution
    /// buffer are allocated once and recycled by [`NsSolver::refine_with`]
    /// / [`NsSolver::solve_with`] — the Jacobian sparsity *pattern* is
    /// fixed even though the advection entries change every sweep. Sparse
    /// mode: the matrix buffer stays `0 × 0`; each sweep factors its own
    /// [`BandLu`].
    pub fn workspace(&self) -> NsWorkspace {
        let n3 = match &self.disc {
            Disc::Dense(_) => 3 * self.nodes.len(),
            Disc::Sparse(_) => 0,
        };
        NsWorkspace {
            a: DMat::zeros(n3, n3),
            lu: None,
            x: DVec::zeros(0),
        }
    }

    /// Solves the assembled dense coupled system `ws.a · x = b` into
    /// `ws.x` via the refactor-in-place LU path (byte-identical to the
    /// original single-backend code). Sparse-mode solves never assemble
    /// `ws.a` and go through [`NsSolver::solve_saddle`] instead.
    pub(crate) fn solve_assembled(
        &self,
        ws: &mut NsWorkspace,
        b: &DVec,
    ) -> Result<(), LinalgError> {
        match &mut ws.lu {
            Some(lu) => lu.refactor(&ws.a)?,
            slot => {
                *slot = Some(Lu::factor(&ws.a)?);
            }
        }
        let lu = ws.lu.as_ref().expect("lu populated above");
        lu.solve_into(b, &mut ws.x)
    }

    /// Solves the block-CSR saddle system `blocks · x = b` into `ws.x`
    /// with one [`BandLu`] factor of the flattened operator. The factor
    /// traces as the `band_lu_factor` span, the solve as a `band_lu` event
    /// on the `"linsolve"` layer.
    pub(crate) fn solve_saddle(
        &self,
        ws: &mut NsWorkspace,
        blocks: &BlockCsr,
        b: &DVec,
    ) -> Result<(), LinalgError> {
        ws.x = BandLu::factor(&blocks.flatten())?.solve(b)?;
        Ok(())
    }

    /// Assembles the coupled Picard matrix for the advecting field taken
    /// from `state` (dense mode only).
    ///
    /// # Panics
    /// Panics under [`BackendKind::SparseGmres`] — use
    /// [`NsSolver::picard_blocks`] there.
    pub fn picard_matrix(&self, state: &NsState) -> DMat {
        let n3 = 3 * self.nodes.len();
        let mut a = DMat::zeros(n3, n3);
        self.picard_matrix_into(state, &mut a);
        a
    }

    /// [`NsSolver::picard_matrix`] into a caller-owned matrix. The constant
    /// base is copied once and the advection terms are added in place over
    /// their fixed sparsity pattern (interior momentum rows × velocity
    /// blocks) — replacing the two full `(3N)²` `scale_rows` temporaries and
    /// three full-matrix passes of the naive assembly.
    ///
    /// # Panics
    /// Panics under [`BackendKind::SparseGmres`].
    pub fn picard_matrix_into(&self, state: &NsState, a: &mut DMat) {
        let d = self.dense_ops();
        let n = self.nodes.len();
        assert_eq!(a.shape(), (3 * n, 3 * n), "picard_matrix_into: shape");
        a.as_mut_slice().copy_from_slice(d.base.as_slice());
        for i in self.nodes.interior_range() {
            let su = state.u[i];
            let sv = state.v[i];
            let dxr = d.dx_int.row(i);
            let dyr = d.dy_int.row(i);
            // u-momentum row i advects the u-block; v-momentum row n+i
            // advects the v-block, both with C(u,v) = u∂x + v∂y.
            let row = &mut a.row_mut(i)[..n];
            for j in 0..n {
                row[j] += su * dxr[j] + sv * dyr[j];
            }
            let row = &mut a.row_mut(n + i)[n..2 * n];
            for j in 0..n {
                row[j] += su * dxr[j] + sv * dyr[j];
            }
        }
    }

    /// Assembles the `3 × 3` block-CSR Picard operator for the advecting
    /// field taken from `state` (sparse mode only). Block ordering is
    /// `u | v | p`; the advection `C(u,v) = u∂x + v∂y` is added to the
    /// constant `(u,u)` / `(v,v)` blocks by row-scaling `dx_int` / `dy_int`
    /// — every step stays `O(k·N)`.
    ///
    /// # Panics
    /// Panics under [`BackendKind::DenseLu`] — use
    /// [`NsSolver::picard_matrix`] there.
    pub fn picard_blocks(&self, state: &NsState) -> BlockCsr {
        let ops = self
            .sparse_ops()
            .expect("picard_blocks requires BackendKind::SparseGmres");
        let n = self.nodes.len();
        let mut cu = ops.dx_int.clone();
        cu.scale_rows_mut(state.u.as_slice());
        let mut cv = ops.dy_int.clone();
        cv.scale_rows_mut(state.v.as_slice());
        let conv = cu.add_scaled(1.0, &cv, 1.0);
        let mut blocks = BlockCsr::new(3, n);
        blocks.set_block(0, 0, ops.a_u0.add_scaled(1.0, &conv, 1.0));
        blocks.set_block(0, 2, ops.dx_int.clone());
        blocks.set_block(1, 1, ops.a_v0.add_scaled(1.0, &conv, 1.0));
        blocks.set_block(1, 2, ops.dy_int.clone());
        blocks.set_block(2, 0, ops.dx_int.clone());
        blocks.set_block(2, 1, ops.dy_int.clone());
        blocks.set_block(2, 2, ops.a_p.clone());
        blocks
    }

    /// One Picard refinement from `state` with inflow control `c`.
    ///
    /// Allocates a throwaway workspace; sweep loops should hold an
    /// [`NsWorkspace`] and call [`NsSolver::refine_with`].
    pub fn refine(&self, state: &NsState, c: &DVec) -> Result<NsState, LinalgError> {
        let mut ws = self.workspace();
        self.refine_with(state, c, &mut ws)
    }

    /// [`NsSolver::refine`] against a reusable workspace: dense mode
    /// assembles into `ws` and refactors in place ([`Lu::refactor`]), so a
    /// sweep of `k` refinements performs zero `(3N)²` allocations after the
    /// first; sparse mode assembles the block-CSR operator and factors it
    /// with [`BandLu`]. Produces the same result as
    /// [`NsSolver::refine`].
    pub fn refine_with(
        &self,
        state: &NsState,
        c: &DVec,
        ws: &mut NsWorkspace,
    ) -> Result<NsState, LinalgError> {
        let b = self.rhs(c);
        match &self.disc {
            Disc::Dense(_) => {
                self.picard_matrix_into(state, &mut ws.a);
                self.solve_assembled(ws, &b)?;
            }
            Disc::Sparse(_) => {
                let blocks = self.picard_blocks(state);
                self.solve_saddle(ws, &blocks, &b)?;
            }
        }
        let w = self.cfg.picard_damping;
        let mut x = state.stack().scaled(1.0 - w);
        x.axpy(w, &ws.x);
        Ok(NsState::unstack(&x))
    }

    /// Runs `k` refinements from an initial state.
    pub fn solve(&self, c: &DVec, k: usize, init: Option<NsState>) -> Result<NsState, LinalgError> {
        let mut ws = self.workspace();
        self.solve_with(c, k, init, &mut ws)
    }

    /// [`NsSolver::solve`] against a reusable workspace. Optimizer loops
    /// that solve once per iteration (DAL, finite differences) should hold
    /// one [`NsWorkspace`] across iterations so the matrix and factor
    /// storage are allocated exactly once per run.
    pub fn solve_with(
        &self,
        c: &DVec,
        k: usize,
        init: Option<NsState>,
        ws: &mut NsWorkspace,
    ) -> Result<NsState, LinalgError> {
        let _span = trace::span("ns_solve");
        let mut state = init.unwrap_or_else(|| self.initial_state(c));
        for it in 0..k {
            let next = self.refine_with(&state, c, ws)?;
            if trace::enabled() {
                // Picard increment ‖x_{k+1} − x_k‖∞: a cheap convergence
                // proxy (the full momentum residual costs a 3N matvec).
                let inc = (&next.stack() - &state.stack()).norm_inf();
                trace::solve_event("pde", "ns_picard", it, inc, f64::NAN, f64::NAN);
            }
            state = next;
        }
        Ok(state)
    }

    /// Interior divergence RMS `‖∇·u‖`, the incompressibility residual,
    /// measured with the discretisation's own derivative operators.
    pub fn divergence_norm(&self, state: &NsState) -> f64 {
        let div = match &self.disc {
            Disc::Dense(d) => {
                let mut t = d.dm.dx.matvec(&state.u).expect("shape");
                t += &d.dm.dy.matvec(&state.v).expect("shape");
                t
            }
            Disc::Sparse(o) => {
                let mut t = o.dx.matvec(&state.u);
                t += &o.dy.matvec(&state.v);
                t
            }
        };
        let ni = self.nodes.n_interior().max(1);
        let mut s = 0.0;
        for i in self.nodes.interior_range() {
            s += div[i] * div[i];
        }
        (s / ni as f64).sqrt()
    }

    /// Nonlinear (steady) momentum residual RMS at the interior nodes — the
    /// Picard convergence indicator.
    pub fn momentum_residual(&self, state: &NsState, c: &DVec) -> f64 {
        let r = match &self.disc {
            Disc::Dense(_) => {
                let a = self.picard_matrix(state);
                &a.matvec(&state.stack()).expect("shape") - &self.rhs(c)
            }
            Disc::Sparse(_) => {
                let a = self.picard_blocks(state).flatten();
                &a.matvec(&state.stack()) - &self.rhs(c)
            }
        };
        let n = self.nodes.len();
        let mut s = 0.0;
        let mut cnt = 0;
        for i in self.nodes.interior_range() {
            s += r[i] * r[i] + r[n + i] * r[n + i];
            cnt += 2;
        }
        (s / cnt.max(1) as f64).sqrt()
    }

    /// The paper's cost:
    /// `J = ½ ∫ (u(Lx,y) − 4y(L−y)/L²)² + v(Lx,y)² dy`.
    pub fn cost(&self, state: &NsState) -> f64 {
        let mut j = 0.0;
        for (k, &i) in self.outflow_idx.iter().enumerate() {
            let du = state.u[i] - self.target_u[k];
            let dv = state.v[i];
            j += 0.5 * self.outflow_w[k] * (du * du + dv * dv);
        }
        j
    }

    /// Outflow `(u, v)` profiles sampled at the outflow nodes.
    pub fn outflow_profile(&self, state: &NsState) -> (DVec, DVec) {
        let u = DVec(self.outflow_idx.iter().map(|&i| state.u[i]).collect());
        let v = DVec(self.outflow_idx.iter().map(|&i| state.v[i]).collect());
        (u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(re: f64) -> NsConfig {
        NsConfig {
            channel: ChannelConfig {
                h: 0.11,
                ..Default::default()
            },
            re,
            slot_velocity: 0.0,
            ..Default::default()
        }
    }

    fn parabola_control(s: &NsSolver) -> DVec {
        DVec(
            s.inflow_y()
                .iter()
                .map(|&y| poiseuille(y, s.cfg().channel.ly))
                .collect(),
        )
    }

    #[test]
    fn sparse_solver_reaches_poiseuille_without_dense_operators() {
        // The sparse path is a *different discretisation* (RBF-FD local
        // stencils), so it is checked against the physics, not against the
        // dense solution: a parabolic inflow with no slots must come out
        // near-Poiseuille, with interior divergence at solver tolerance.
        let mut cfg = small_cfg(50.0);
        cfg.channel.h = 0.15;
        cfg.backend = BackendKind::SparseGmres;
        let s = NsSolver::new(cfg).unwrap();
        assert!(s.sparse_ops().is_some(), "sparse ops not built");
        let c = parabola_control(&s);
        let st = s.solve(&c, 10, None).unwrap();
        let (u_out, v_out) = s.outflow_profile(&st);
        let mut max_err: f64 = 0.0;
        for (k, &y) in s.outflow_y().iter().enumerate() {
            max_err = max_err.max((u_out[k] - poiseuille(y, 1.0)).abs());
        }
        assert!(
            max_err < 0.15,
            "outflow deviates from parabola by {max_err}"
        );
        assert!(v_out.norm_inf() < 0.05, "cross-flow {}", v_out.norm_inf());
        assert!(
            s.divergence_norm(&st) < 1e-6,
            "div = {}",
            s.divergence_norm(&st)
        );
    }

    #[test]
    fn saddle_engine_matches_dense_lu_on_the_same_sparse_system() {
        // Same-system backend equivalence: flatten the block operator the
        // sparse engine solves and hand it to dense LU — the two solutions
        // of the *identical* matrix must agree to ≤1e-12 relative, as two
        // direct solves do. (The (3N)² densification happens only here, in
        // the test.)
        let mut cfg = small_cfg(50.0);
        cfg.channel.h = 0.2;
        cfg.backend = BackendKind::SparseGmres;
        let s = NsSolver::new(cfg).unwrap();
        let c = parabola_control(&s);
        let state = s.initial_state(&c);
        let blocks = s.picard_blocks(&state);
        let b = s.rhs(&c);
        let xd = Lu::factor(&blocks.flatten().to_dense())
            .unwrap()
            .solve(&b)
            .unwrap();
        let mut ws = s.workspace();
        let st1 = s.refine_with(&state, &c, &mut ws).unwrap();
        // Default damping is 1, so the refined state is the raw solution.
        let rel = (&st1.stack() - &xd).norm2() / xd.norm2().max(1e-300);
        assert!(rel < 1e-12, "saddle band LU vs dense LU: rel = {rel:.3e}");
    }

    #[test]
    fn band_lu_matches_dense_lu_on_the_saddle_system_that_needs_interchanges() {
        // The h = 0.18 Picard operator: its interior continuity rows have
        // no pressure diagonal, so the unpivoted envelope factor refuses
        // it and the band factor must pivot.
        let s = NsSolver::new(NsConfig {
            channel: ChannelConfig {
                h: 0.18,
                ..Default::default()
            },
            re: 40.0,
            slot_velocity: 0.2,
            backend: BackendKind::SparseGmres,
            ..Default::default()
        })
        .unwrap();
        let c = DVec::from_fn(s.n_controls(), |i| 0.1 + 0.02 * i as f64);
        let a = s.picard_blocks(&s.initial_state(&c)).flatten();
        assert!(matches!(
            linalg::EnvelopeLu::factor(&a),
            Err(LinalgError::UnstablePivot { .. })
        ));
        let band = BandLu::factor(&a).unwrap();
        let lu = Lu::factor(&a.to_dense()).unwrap();
        let b = s.rhs(&c);
        let rel = |x: DVec, y: DVec| (&x - &y).norm_inf() / y.norm_inf();
        let fwd = rel(band.solve(&b).unwrap(), lu.solve(&b).unwrap());
        let adj = rel(
            band.solve_transpose(&b).unwrap(),
            lu.solve_transpose(&b).unwrap(),
        );
        assert!(
            fwd <= 1e-12 && adj <= 1e-12,
            "forward {fwd:.2e}, transpose {adj:.2e}"
        );
    }

    #[test]
    fn sparse_mode_never_builds_dense_operators() {
        let mut cfg = small_cfg(50.0);
        cfg.channel.h = 0.2;
        cfg.backend = BackendKind::SparseGmres;
        let s = NsSolver::new(cfg).unwrap();
        let n = s.nodes().len();
        // The resident operator set is O(k·N), far below the (3N)² coupled
        // matrix the dense path would have to allocate.
        assert!(
            s.memory_bytes() < 3 * n * 3 * n * 8,
            "sparse ops hold {} bytes ≥ one dense (3N)² matrix",
            s.memory_bytes()
        );
        // And the workspace carries no (3N)² buffer.
        let ws = s.workspace();
        assert_eq!(ws.a.shape(), (0, 0));
    }

    #[test]
    fn poiseuille_is_a_near_fixed_point() {
        // With no slots and a parabolic inflow the flow is near-Poiseuille
        // (the artificial viscosity slightly thickens the profile).
        let s = NsSolver::new(small_cfg(50.0)).unwrap();
        let c = parabola_control(&s);
        let state = s.solve(&c, 12, None).unwrap();
        let (u_out, v_out) = s.outflow_profile(&state);
        let mut max_err: f64 = 0.0;
        for (k, &y) in s.outflow_y().iter().enumerate() {
            max_err = max_err.max((u_out[k] - poiseuille(y, 1.0)).abs());
        }
        assert!(
            max_err < 0.15,
            "outflow deviates from parabola by {max_err}"
        );
        assert!(v_out.norm_inf() < 0.05, "cross-flow {}", v_out.norm_inf());
    }

    #[test]
    fn picard_iteration_converges() {
        let s = NsSolver::new(small_cfg(50.0)).unwrap();
        let c = parabola_control(&s);
        let st2 = s.solve(&c, 2, None).unwrap();
        let st10 = s.solve(&c, 10, None).unwrap();
        let r2 = s.momentum_residual(&st2, &c);
        let r10 = s.momentum_residual(&st10, &c);
        assert!(
            r10 < 0.5 * r2 || r10 < 1e-10,
            "Picard not converging: {r2:.3e} -> {r10:.3e}"
        );
        assert!(
            s.divergence_norm(&st10) < 1e-8,
            "div = {}",
            s.divergence_norm(&st10)
        );
    }

    #[test]
    fn divergence_is_machine_zero_after_one_step() {
        // Continuity is enforced exactly by the coupled solve.
        let s = NsSolver::new(small_cfg(50.0)).unwrap();
        let c = parabola_control(&s);
        let st = s.solve(&c, 1, None).unwrap();
        assert!(
            s.divergence_norm(&st) < 1e-8,
            "div = {}",
            s.divergence_norm(&st)
        );
    }

    #[test]
    fn boundary_conditions_hold_after_solve() {
        let s = NsSolver::new(small_cfg(50.0)).unwrap();
        let c = parabola_control(&s);
        let st = s.solve(&c, 6, None).unwrap();
        for (j, &i) in s.inflow_idx().iter().enumerate() {
            assert!((st.u[i] - c[j]).abs() < 1e-9, "inflow u at {i}");
            assert!(st.v[i].abs() < 1e-9, "inflow v at {i}");
        }
        for i in s.nodes().indices_with_tag(channel_tags::WALL) {
            assert!(st.u[i].abs() < 1e-9, "wall u at {i}");
            assert!(st.v[i].abs() < 1e-9, "wall v at {i}");
        }
        // Outflow: v = 0 (Dirichlet), p = 0.
        for &i in s.outflow_idx() {
            assert!(st.v[i].abs() < 1e-9, "outflow v at {i}");
            assert!(st.p[i].abs() < 1e-9, "outflow p at {i}");
        }
    }

    #[test]
    fn slots_deflect_the_flow() {
        let mut cfg = small_cfg(50.0);
        cfg.slot_velocity = 0.4;
        let s = NsSolver::new(cfg).unwrap();
        let c = parabola_control(&s);
        let st = s.solve(&c, 10, None).unwrap();
        // The blowing/suction column should produce upward flow mid-channel.
        let mut vmax: f64 = 0.0;
        for i in s.nodes().interior_range() {
            let p = s.nodes().point(i);
            if p.x > 0.6 && p.x < 0.9 {
                vmax = vmax.max(st.v[i]);
            }
        }
        assert!(vmax > 0.05, "no cross-flow detected: vmax = {vmax}");
        // And the cost against a parabolic target should now be worse.
        let s0 = NsSolver::new(small_cfg(50.0)).unwrap();
        let st0 = s0.solve(&parabola_control(&s0), 10, None).unwrap();
        assert!(s.cost(&st) > s0.cost(&st0));
    }

    #[test]
    fn warm_start_reaches_the_same_fixed_point() {
        let s = NsSolver::new(small_cfg(50.0)).unwrap();
        let c = parabola_control(&s);
        let st_cold = s.solve(&c, 12, None).unwrap();
        let st_half = s.solve(&c, 6, None).unwrap();
        let st_warm = s.solve(&c, 6, Some(st_half)).unwrap();
        let du = (&st_cold.u - &st_warm.u).norm_inf();
        assert!(du < 1e-6, "warm/cold mismatch {du}");
    }

    #[test]
    fn cost_of_perfect_parabola_is_small() {
        let s = NsSolver::new(small_cfg(20.0)).unwrap();
        let c = parabola_control(&s);
        let st = s.solve(&c, 12, None).unwrap();
        let j = s.cost(&st);
        assert!(j < 5e-3, "J = {j:.3e}");
    }

    #[test]
    fn reynolds_number_changes_solution() {
        let s10 = NsSolver::new(small_cfg(10.0)).unwrap();
        let s100 = NsSolver::new(small_cfg(100.0)).unwrap();
        let c10 = parabola_control(&s10);
        let c100 = parabola_control(&s100);
        let st10 = s10.solve(&c10, 10, None).unwrap();
        let st100 = s100.solve(&c100, 10, None).unwrap();
        let dp = (&st10.p - &st100.p).norm2();
        assert!(dp > 1e-6);
    }

    #[test]
    fn stack_unstack_roundtrip() {
        let st = NsState {
            u: DVec(vec![1.0, 2.0]),
            v: DVec(vec![3.0, 4.0]),
            p: DVec(vec![5.0, 6.0]),
        };
        let x = st.stack();
        assert_eq!(x.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let st2 = NsState::unstack(&x);
        assert_eq!(st2.u.as_slice(), st.u.as_slice());
        assert_eq!(st2.p.as_slice(), st.p.as_slice());
    }
}
