//! Steady incompressible Navier–Stokes in the channel (paper §3.2).
//!
//! One solver serves both discretisations. [`NsConfig::backend`] picks two
//! things and nothing else:
//!
//! * **The derivative operators**, at build: nodal RBF differentiation
//!   rows (`∂x`, `∂y`, `∇²`) from global collocation under
//!   [`BackendKind::DenseLu`] (the default), RBF-FD local-stencil rows
//!   under [`BackendKind::SparseGmres`].
//! * **The factor**, per solve: a dense LU of the operator's `(3N)²`
//!   image, or a [`BandLu`] of the CSR operator itself (RCM ordering,
//!   partial pivoting inside the band).
//!
//! Between the two, one row recipe assembles the same coupled (u, v, p)
//! saddle-point operators from whichever rows were built, as `3N × 3N`
//! [`Csr`] matrices whose patterns are fixed at build. The Picard operator
//! is re-linearised around the current state (Picard iteration on the
//! advection term):
//!
//! ```text
//!   [ C(u,v) − ν∇²      0          ∂x ] [u]   [bc_u]
//!   [     0         C(u,v) − ν∇²   ∂y ] [v] = [bc_v]
//!   [    ∂x             ∂y      p-BCs ] [p]   [ 0  ]
//! ```
//!
//! with `C(u,v) = u∂x + v∂y` frozen at the previous iterate; each sweep
//! refills only its values, in place. Each Picard step is one
//! "refinement" — the paper's `k` (3 for DAL, 10 for DP), the quantity
//! whose growth drives DP's memory super-linearity (every refinement caches
//! one factor on the DP tape: a `(3N)²` LU, or a band factor of the
//! RCM-ordered operator).
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
use linalg::{BackendKind, BandLu, Csr, DMat, DVec, LinalgError, LinearBackend, Lu};
use meshfree_runtime::trace;
use rbf::fd::{fd_matrices_multi, FdConfig, StencilSet};
use rbf::{DiffOp, GlobalCollocation, RbfKernel};
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
    /// Discretisation and factor of the coupled Picard and adjoint
    /// systems. [`BackendKind::DenseLu`] (the default) builds
    /// global-collocation operators and LU-factors each system's dense
    /// image; [`BackendKind::SparseGmres`] builds RBF-FD local stencils
    /// (no `O(N²)` storage) and factors each system with [`BandLu`],
    /// reporting its solves on the `"linsolve"` trace layer under the
    /// `band_lu` / `band_lu_t` labels.
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

/// Reusable scratch for the Picard sweeps and adjoint solves of a run: the
/// operator last assembled (refilled in place over its fixed pattern) and,
/// under [`BackendKind::DenseLu`], the `(3N)²` LU storage its dense image
/// is factored in.
///
/// Created empty by [`NsSolver::workspace`]; every buffer is sized on first
/// use by [`NsSolver::refine_with`], [`NsSolver::solve_with`] or the DAL
/// adjoint solve. Reuse across sweeps (and across optimizer iterations)
/// makes every later assembly and dense refactorisation allocation-free:
/// the operator patterns are control-independent, only their values
/// change, so the CSR refill and [`Lu::refactor`] recycle their storage.
pub struct NsWorkspace {
    pub(crate) op: Csr,
    lu: Option<Arc<Lu>>,
}

/// Bytes held by a CSR matrix (values + index arrays).
fn csr_bytes(m: &Csr) -> usize {
    m.nnz() * (8 + std::mem::size_of::<usize>()) + (m.nrows() + 1) * std::mem::size_of::<usize>()
}

/// Appends row `i` of `m`, scaled, with columns shifted by `c0`. Zero
/// products are skipped, so explicit zeros mark reserved positions only.
fn push_row(row: &mut Vec<(usize, f64)>, c0: usize, m: &Csr, i: usize, scale: f64) {
    let (cols, vals) = m.row(i);
    let entries = cols.iter().zip(vals).map(|(&j, &v)| (c0 + j, scale * v));
    row.extend(entries.filter(|e| e.1 != 0.0));
}

/// The Navier–Stokes operator set, one layout for both discretisations.
///
/// Block ordering is `u | v | p`: row/column `b·N + i` addresses field
/// `b ∈ {0: u, 1: v, 2: p}` at node `i`. Every matrix is CSR; the dense
/// build stores its global-collocation rows as full CSR rows, the sparse
/// build stencil rows, so nothing is `O(N²)` on the sparse build.
pub(crate) struct NsOps {
    /// `∂x` rows at the inflow nodes (in [`NsSolver::inflow_idx`] order):
    /// the `∂ξ_u/∂x` of the DAL gradient.
    pub(crate) dx_inflow: Csr,
    /// The advection structure matrices `[C_x, C_y]` (`3N × 3N`): the
    /// interior `∂x` (`∂y`) rows embedded in the `(u,u)` and `(v,v)`
    /// blocks, both on the same pattern.
    pub(crate) adv: [Arc<Csr>; 2],
    /// The constant part `A₀` of the Picard operator over its fixed
    /// pattern, which holds every position of `C_x` and `C_y`.
    pub(crate) picard: Csr,
    /// The constant part of the adjoint operator over its fixed pattern:
    /// `A₀` with Robin `ν∂x` rows for `ξ_u` at the outflow, plus the
    /// positions of the `(∇u)ᵀξ` production couplings.
    pub(crate) adjoint: Csr,
}

impl NsOps {
    /// Builds the derivative rows `{∂x, ∂y, ∇²}` of the configured
    /// discretisation, then the operator set from them with one row recipe.
    fn new(
        nodes: &NodeSet,
        cfg: &NsConfig,
        nu: f64,
        inflow_idx: &[usize],
    ) -> Result<NsOps, LinalgError> {
        let [dx, dy, lap]: [Csr; 3] = match cfg.backend {
            BackendKind::DenseLu => {
                let dm = GlobalCollocation::new(nodes, cfg.kernel, cfg.degree).diff_matrices()?;
                [&dm.dx, &dm.dy, &dm.lap].map(Csr::from_dense)
            }
            BackendKind::SparseGmres => {
                // RBF-FD needs degree ≥ 2 stencil polynomials for a
                // consistent Laplacian; `for_degree` also sizes the stencil
                // accordingly. One stencil sweep, one local factorisation
                // per node.
                let fd = FdConfig::for_degree(cfg.degree.max(2));
                let stencils = StencilSet::build(nodes, fd.stencil_size);
                let ops = [DiffOp::Dx, DiffOp::Dy, DiffOp::Lap];
                fd_matrices_multi(nodes, &stencils, cfg.kernel, fd.degree, &ops)?
                    .try_into()
                    .expect("three operators requested")
            }
        };

        let n = nodes.len();
        let n3 = 3 * n;
        let n_int = nodes.n_interior();
        // The columns of interior node i's momentum rows that the advection
        // refill writes — the union of the three operators' columns and the
        // diagonal — reserved as zeros in every matrix of the set.
        let advected: Vec<Vec<usize>> = nodes
            .interior_range()
            .map(|i| {
                let rows = [&lap, &dx, &dy].map(|m| m.row(i).0);
                let mut cols: Vec<usize> = rows.concat();
                cols.push(i);
                cols.sort_unstable();
                cols.dedup();
                cols
            })
            .collect();
        let reserve_advected = |row: &mut Vec<(usize, f64)>, off: usize, i: usize| {
            row.extend(advected[i].iter().map(|&j| (off + j, 0.0)));
        };
        // The one row recipe, for the Picard constant part A₀ and for the
        // adjoint's; row r is field r / n at node r % n.
        let recipe = |adjoint: bool| {
            Csr::from_row_fn(n3, n3, |r, row| {
                let (b, i) = (r / n, r % n);
                if i < n_int && b == 2 {
                    // Continuity ∂x u + ∂y v = 0 (full derivative rows:
                    // boundary u, v values participate).
                    push_row(row, 0, &dx, i, 1.0);
                    push_row(row, n, &dy, i, 1.0);
                } else if i < n_int {
                    // Momentum: −ν∇², the pressure gradient ∂x (u row) or
                    // ∂y (v row) and, in the adjoint, the cross (∇u)ᵀξ
                    // production coupling, filled per state.
                    push_row(row, b * n, &lap, i, -nu);
                    reserve_advected(row, b * n, i);
                    push_row(row, 2 * n, [&dx, &dy][b], i, 1.0);
                    if adjoint {
                        row.push(([n + i, i][b], 0.0));
                    }
                } else if nodes.tag(i) == channel_tags::OUTFLOW && b == 0 {
                    // Fully developed outflow ∂u/∂x = 0; the adjoint's
                    // Robin row ν∂x + u·e for ξ_u (u·e filled per state).
                    push_row(row, 0, &dx, i, if adjoint { nu } else { 1.0 });
                    if adjoint {
                        row.push((i, 0.0));
                    }
                } else if nodes.tag(i) != channel_tags::OUTFLOW && b == 2 {
                    let nrm = nodes.normal(i).unwrap();
                    push_row(row, 2 * n, &dx, i, nrm.x);
                    push_row(row, 2 * n, &dy, i, nrm.y); // ∂p/∂n = 0
                } else {
                    // u, v = data (ξ = 0); p = 0 at the outflow.
                    row.push((r, 1.0));
                }
            })
        };
        let adv = [&dx, &dy].map(|g| {
            Arc::new(Csr::from_row_fn(n3, n3, |r, row| {
                let (b, i) = (r / n, r % n);
                if b < 2 && i < n_int {
                    push_row(row, b * n, g, i, 1.0);
                    reserve_advected(row, b * n, i);
                }
            }))
        });
        Ok(NsOps {
            dx_inflow: Csr::from_row_fn(inflow_idx.len(), n, |k, row| {
                push_row(row, 0, &dx, inflow_idx[k], 1.0)
            }),
            adv,
            picard: recipe(false),
            adjoint: recipe(true),
        })
    }
}

/// The assembled channel-flow solver.
pub struct NsSolver {
    nodes: NodeSet,
    cfg: NsConfig,
    ops: NsOps,
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

impl NsSolver {
    /// Builds the solver: generates the cloud and the operator set of the
    /// discretisation selected by [`NsConfig::backend`] (no `O(N²)` storage
    /// on the [`BackendKind::SparseGmres`] build).
    pub fn new(cfg: NsConfig) -> Result<Self, LinalgError> {
        let nodes = channel_cloud(&cfg.channel);
        let n = nodes.len();
        let nu = 1.0 / cfg.re + cfg.stab * cfg.channel.h;

        let (inflow_idx, inflow_y) =
            quadrature::sort_along(&nodes.indices_with_tag(channel_tags::INFLOW), |i| {
                nodes.point(i).y
            });
        let (outflow_idx, outflow_y) =
            quadrature::sort_along(&nodes.indices_with_tag(channel_tags::OUTFLOW), |i| {
                nodes.point(i).y
            });
        let outflow_w = DVec(quadrature::trapezoid_weights(&outflow_y));
        let ops = NsOps::new(&nodes, &cfg, nu, &inflow_idx)?;

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
            ops,
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

    /// The node cloud.
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// The configuration.
    pub fn cfg(&self) -> &NsConfig {
        &self.cfg
    }

    /// The operator set.
    pub(crate) fn ops(&self) -> &NsOps {
        &self.ops
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

    /// The `3N × 3N` advection structure matrices `[C_x, C_y]`: the Picard
    /// operator is `A₀ + diag(s_u)·C_x + diag(s_v)·C_y` with
    /// `s_u = [u; u; 0]`, `s_v = [v; v; 0]`, which is the decomposition
    /// [`autodiff::Tape::solve_scaled`] differentiates.
    pub fn advection_structs(&self) -> [Arc<Csr>; 2] {
        self.ops.adv.clone()
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

    /// Bytes held by the operator set: the Picard and adjoint constant
    /// parts, the advection structure matrices and the inflow `∂x` rows —
    /// `O(k·N)` for stencil size `k` on the sparse build, `O(N²)` on the
    /// dense one. This is what a cross-request cache pays to keep an NS
    /// problem build resident (the per-sweep operator and factor live in
    /// the [`NsWorkspace`], not here).
    pub fn memory_bytes(&self) -> usize {
        let o = &self.ops;
        csr_bytes(&o.dx_inflow)
            + o.adv.iter().map(|m| csr_bytes(m)).sum::<usize>()
            + csr_bytes(&o.picard)
            + csr_bytes(&o.adjoint)
    }

    /// Creates an empty reusable workspace for repeated Picard sweeps and
    /// adjoint solves (see [`NsWorkspace`]).
    pub fn workspace(&self) -> NsWorkspace {
        NsWorkspace {
            op: Csr::eye(0),
            lu: None,
        }
    }

    /// Calls `f(i, values, cx, cy)` for each advected row of `op` — the
    /// `u` and `v` momentum rows of interior node `i` — with `values` the
    /// row's entries on the columns of `C_x`'s row, whose values are `cx`
    /// (and `C_y`'s, on the same columns, `cy`). `op`'s pattern must hold
    /// those positions, as both operator patterns do.
    pub(crate) fn refill_advected(
        &self,
        op: &mut Csr,
        mut f: impl FnMut(usize, &mut [f64], &[f64], &[f64]),
    ) {
        let [cx, cy] = &self.ops.adv;
        for off in [0, self.nodes.len()] {
            for i in self.nodes.interior_range() {
                let (cols, x) = cx.row(off + i);
                let y = cy.row(off + i).1;
                let (op_cols, vals) = op.row_mut(off + i);
                let start = op_cols.partition_point(|&c| c < cols[0]);
                debug_assert_eq!(&op_cols[start..start + cols.len()], cols);
                f(i, &mut vals[start..start + cols.len()], x, y);
            }
        }
    }

    /// The Picard operator for the advecting field of `state`, assembled in
    /// `ws`: `A₀` copied over the fixed pattern, then
    /// `diag(s_u)·C_x + diag(s_v)·C_y` added on the advected entries (see
    /// [`NsSolver::advection_structs`]). Every step is `O(nnz)`.
    pub fn picard_operator<'w>(&self, state: &NsState, ws: &'w mut NsWorkspace) -> &'w Csr {
        ws.op.clone_from(&self.ops.picard);
        self.refill_advected(&mut ws.op, |i, a, x, y| {
            let (su, sv) = (state.u[i], state.v[i]);
            for ((a, &x), &y) in a.iter_mut().zip(x).zip(y) {
                *a += su * x + sv * y;
            }
        });
        &ws.op
    }

    /// Factors the operator last assembled in `ws` with the configured
    /// backend — after the build, the one place the two discretisations
    /// differ. [`BackendKind::DenseLu`] scatters its dense image into the
    /// workspace's LU storage and refactors it in place, or into a fresh
    /// factor while a caller (the DP tape) still holds the last.
    /// [`BackendKind::SparseGmres`] factors the CSR operator itself with
    /// [`BandLu`]: a `band_lu_factor` span, then `band_lu` / `band_lu_t`
    /// solve events on the `"linsolve"` layer.
    pub(crate) fn factor(
        &self,
        ws: &mut NsWorkspace,
    ) -> Result<Arc<dyn LinearBackend>, LinalgError> {
        match self.cfg.backend {
            BackendKind::DenseLu => {
                match ws.lu.as_mut().and_then(Arc::get_mut) {
                    Some(lu) => lu.refactor_csr(&ws.op)?,
                    None => ws.lu = Some(Arc::new(Lu::factor_csr(&ws.op)?)),
                }
                let lu: Arc<dyn LinearBackend> = ws.lu.clone().expect("factored above");
                Ok(lu)
            }
            BackendKind::SparseGmres => Ok(Arc::new(BandLu::factor(&ws.op)?)),
        }
    }

    /// One Picard refinement from `state` with inflow control `c`.
    ///
    /// Allocates a throwaway workspace; sweep loops should hold an
    /// [`NsWorkspace`] and call [`NsSolver::refine_with`].
    pub fn refine(&self, state: &NsState, c: &DVec) -> Result<NsState, LinalgError> {
        let mut ws = self.workspace();
        self.refine_with(state, c, &mut ws)
    }

    /// [`NsSolver::refine`] against a reusable workspace: the Picard
    /// operator is refilled in `ws` and factored by
    /// `NsSolver::factor`'s backend, so a sweep of `k` refinements
    /// performs no `(3N)²` allocation after the first. Produces the same
    /// result as [`NsSolver::refine`].
    pub fn refine_with(
        &self,
        state: &NsState,
        c: &DVec,
        ws: &mut NsWorkspace,
    ) -> Result<NsState, LinalgError> {
        let b = self.rhs(c);
        self.picard_operator(state, ws);
        let x_new = self.factor(ws)?.solve(&b)?;
        let w = self.cfg.picard_damping;
        let mut x = state.stack().scaled(1.0 - w);
        x.axpy(w, &x_new);
        Ok(NsState::unstack(&x))
    }

    /// Runs `k` refinements from an initial state.
    pub fn solve(&self, c: &DVec, k: usize, init: Option<NsState>) -> Result<NsState, LinalgError> {
        let mut ws = self.workspace();
        self.solve_with(c, k, init, &mut ws)
    }

    /// [`NsSolver::solve`] against a reusable workspace. Optimizer loops
    /// that solve once per iteration (DAL, finite differences) should hold
    /// one [`NsWorkspace`] across iterations so the operator and factor
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
    /// measured with the discretisation's own derivative operators (rows
    /// `i` of `C_x·[u; v; p]` hold `∂u/∂x`, rows `N + i` of `C_y·[u; v; p]`
    /// hold `∂v/∂y`).
    pub fn divergence_norm(&self, state: &NsState) -> f64 {
        let x = state.stack();
        let [cx, cy] = &self.ops.adv;
        let (gx, gy) = (cx.matvec(&x), cy.matvec(&x));
        let n = self.nodes.len();
        let ni = self.nodes.n_interior().max(1);
        let mut s = 0.0;
        for i in self.nodes.interior_range() {
            let div = gx[i] + gy[n + i];
            s += div * div;
        }
        (s / ni as f64).sqrt()
    }

    /// Nonlinear (steady) momentum residual RMS at the interior nodes — the
    /// Picard convergence indicator.
    pub fn momentum_residual(&self, state: &NsState, c: &DVec) -> f64 {
        let mut ws = self.workspace();
        let a = self.picard_operator(state, &mut ws);
        let r = &a.matvec(&state.stack()) - &self.rhs(c);
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
        // Same-system backend equivalence: hand the CSR operator the sparse
        // engine solves to dense LU — the two solutions of the *identical*
        // matrix must agree to ≤1e-12 relative, as two direct solves do.
        // (The (3N)² densification happens only here, in the test.)
        let mut cfg = small_cfg(50.0);
        cfg.channel.h = 0.2;
        cfg.backend = BackendKind::SparseGmres;
        let s = NsSolver::new(cfg).unwrap();
        let c = parabola_control(&s);
        let state = s.initial_state(&c);
        let mut ws = s.workspace();
        let a = s.picard_operator(&state, &mut ws).to_dense();
        let b = s.rhs(&c);
        let xd = Lu::factor(&a).unwrap().solve(&b).unwrap();
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
        let mut ws = s.workspace();
        let a = s.picard_operator(&s.initial_state(&c), &mut ws);
        assert!(matches!(
            linalg::EnvelopeLu::factor(a),
            Err(LinalgError::UnstablePivot { .. })
        ));
        let band = BandLu::factor(a).unwrap();
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
        // And a workspace that has run a sweep carries no (3N)² LU.
        let mut ws = s.workspace();
        let c = DVec::from_fn(s.n_controls(), |i| 0.1 + 0.02 * i as f64);
        s.refine_with(&s.initial_state(&c), &c, &mut ws).unwrap();
        assert!(ws.lu.is_none());
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
