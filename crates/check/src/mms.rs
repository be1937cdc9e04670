//! Method-of-manufactured-solutions (MMS) convergence engine.
//!
//! Pick a smooth closed-form field `u*`, derive the forcing and boundary
//! data it implies for a given PDE operator, solve the discrete problem on
//! a sweep of node counts, and fit the observed convergence order on the
//! log–log error curve. Mowlavi & Nabi (2023) run exactly such sweeps
//! before trusting any PINN control; this module makes the same gate
//! mechanical for both discretisation paths of this repo:
//!
//! * **dense** — nodal differentiation matrices from the global RBF
//!   collocation context (the paper's main path), direct LU solve;
//! * **RBF-FD** — sparse local-stencil operators assembled with
//!   [`rbf::fd::fd_matrix`], sparse direct solve ([`linalg::BandLu`]).
//!
//! The same [`ManufacturedSolution`] drives four PDE operators (Laplace,
//! Poisson, advection–diffusion, implicit-Euler heat) on both paths, plus
//! raw differential-operator approximation sweeps (`Dx`, `Dy`, `Lap`).
//! For the heat march the manufactured field is extended in time as
//! `u(p, t) = (α + βt)·u*(p)`: linear-in-time fields are reproduced
//! *exactly* by implicit Euler (with the forcing evaluated at `t^{n+1}`),
//! so the sweep isolates the spatial order.

use geometry::generators::unit_square_grid;
use geometry::{NodeKind, NodeSet, Point2};
use linalg::{BandLu, Csr, DVec, LinalgError, LinearBackend, Lu, Triplets};
use meshfree_runtime::trace;
use rbf::fd::{fd_matrix, FdConfig};
use rbf::{DiffOp, GlobalCollocation, RbfKernel};

/// A smooth closed-form field with its first derivatives and Laplacian —
/// everything the MMS engine needs to derive forcings and boundary data.
pub trait ManufacturedSolution: Sync {
    /// Short label used in study reports.
    fn name(&self) -> &'static str;
    /// The exact field `u*(p)`.
    fn u(&self, p: Point2) -> f64;
    /// `(∂u*/∂x, ∂u*/∂y)`.
    fn grad(&self, p: Point2) -> (f64, f64);
    /// `∇²u*`.
    fn lap(&self, p: Point2) -> f64;
}

/// `u = sin(kπx)·cos(kπy)` — the classic trigonometric MMS field.
pub struct TrigTrig {
    /// Wavenumber multiplier `k`.
    pub k: f64,
}

impl ManufacturedSolution for TrigTrig {
    fn name(&self) -> &'static str {
        "trig"
    }
    fn u(&self, p: Point2) -> f64 {
        let w = self.k * std::f64::consts::PI;
        (w * p.x).sin() * (w * p.y).cos()
    }
    fn grad(&self, p: Point2) -> (f64, f64) {
        let w = self.k * std::f64::consts::PI;
        (
            w * (w * p.x).cos() * (w * p.y).cos(),
            -w * (w * p.x).sin() * (w * p.y).sin(),
        )
    }
    fn lap(&self, p: Point2) -> f64 {
        let w = self.k * std::f64::consts::PI;
        -2.0 * w * w * self.u(p)
    }
}

/// `u = x³ − 3xy²` — a *harmonic* cubic (`∇²u ≡ 0`), the natural Laplace
/// manufactured solution.
pub struct HarmonicCubic;

impl ManufacturedSolution for HarmonicCubic {
    fn name(&self) -> &'static str {
        "harmonic-cubic"
    }
    fn u(&self, p: Point2) -> f64 {
        p.x * p.x * p.x - 3.0 * p.x * p.y * p.y
    }
    fn grad(&self, p: Point2) -> (f64, f64) {
        (3.0 * p.x * p.x - 3.0 * p.y * p.y, -6.0 * p.x * p.y)
    }
    fn lap(&self, _p: Point2) -> f64 {
        0.0
    }
}

/// `u = exp(x)·sin(πy)` — mixes exponential and trigonometric behaviour so
/// no polynomial augmentation reproduces it exactly.
pub struct ExpSine;

impl ManufacturedSolution for ExpSine {
    fn name(&self) -> &'static str {
        "exp-sine"
    }
    fn u(&self, p: Point2) -> f64 {
        p.x.exp() * (std::f64::consts::PI * p.y).sin()
    }
    fn grad(&self, p: Point2) -> (f64, f64) {
        let pi = std::f64::consts::PI;
        (
            p.x.exp() * (pi * p.y).sin(),
            pi * p.x.exp() * (pi * p.y).cos(),
        )
    }
    fn lap(&self, p: Point2) -> f64 {
        let pi = std::f64::consts::PI;
        (1.0 - pi * pi) * self.u(p)
    }
}

/// The PDE operator an MMS study discretises.
#[derive(Debug, Clone, Copy)]
pub enum Operator {
    /// `∇²u = f`, Dirichlet boundary (`f = ∇²u*`, zero for harmonic `u*`).
    Laplace,
    /// `−∇²u = f`, Dirichlet boundary.
    Poisson,
    /// `a·∇u − ν∇²u = f`, Dirichlet boundary.
    AdvDiff {
        /// Constant advecting velocity `a`.
        velocity: Point2,
        /// Diffusivity `ν`.
        nu: f64,
    },
    /// `u_t = κ∇²u + f` marched with implicit Euler from `u(·, 0)`,
    /// manufactured as `(1 + t)·u*` so the time discretisation is exact.
    Heat {
        /// Diffusivity `κ`.
        kappa: f64,
        /// Time step.
        dt: f64,
        /// Number of implicit-Euler steps.
        n_steps: usize,
    },
}

impl Operator {
    /// Study label.
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Laplace => "laplace",
            Operator::Poisson => "poisson",
            Operator::AdvDiff { .. } => "advdiff",
            Operator::Heat { .. } => "heat",
        }
    }

    /// Interior-row operator coefficients `(c_dx, c_dy, c_lap, c_id)` for
    /// the steady combination `c_dx·Dx + c_dy·Dy + c_lap·L + c_id·I`.
    fn coeffs(&self) -> (f64, f64, f64, f64) {
        match *self {
            Operator::Laplace => (0.0, 0.0, 1.0, 0.0),
            Operator::Poisson => (0.0, 0.0, -1.0, 0.0),
            Operator::AdvDiff { velocity, nu } => (velocity.x, velocity.y, -nu, 0.0),
            Operator::Heat { kappa, dt, .. } => (0.0, 0.0, -kappa, 1.0 / dt),
        }
    }

    /// The steady forcing `D(u*)` at `p` (heat uses [`Operator::heat_forcing`]).
    fn forcing(&self, ms: &dyn ManufacturedSolution, p: Point2) -> f64 {
        let (cx, cy, cl, _) = self.coeffs();
        let (gx, gy) = ms.grad(p);
        cx * gx + cy * gy + cl * ms.lap(p)
    }

    /// Heat forcing `f = u_t − κ∇²u` for the extended field `(1 + t)·u*`.
    fn heat_forcing(&self, ms: &dyn ManufacturedSolution, p: Point2, t: f64) -> f64 {
        match *self {
            Operator::Heat { kappa, .. } => ms.u(p) - kappa * (1.0 + t) * ms.lap(p),
            _ => unreachable!("heat_forcing on a steady operator"),
        }
    }
}

/// Which discretisation substrate solves the problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Dense nodal differentiation matrices from global collocation + LU.
    Dense,
    /// Sparse RBF-FD stencils + band LU.
    RbfFd,
}

impl Path {
    /// Study label.
    pub fn name(&self) -> &'static str {
        match self {
            Path::Dense => "dense",
            Path::RbfFd => "rbf-fd",
        }
    }
}

fn all_dirichlet(p: Point2) -> (NodeKind, usize, Point2) {
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

/// The discrete `Dx`/`Dy`/`Lap` triple on either path, as row-access
/// closures over a common storage.
enum OpMatrices {
    Dense(rbf::DiffMatrices),
    Sparse { dx: Csr, dy: Csr, lap: Csr },
}

fn build_ops(nodes: &NodeSet, path: Path, degree: i32) -> Result<OpMatrices, LinalgError> {
    match path {
        Path::Dense => {
            let ctx = GlobalCollocation::new(nodes, RbfKernel::Phs3, degree);
            Ok(OpMatrices::Dense(ctx.diff_matrices()?))
        }
        Path::RbfFd => {
            let cfg = FdConfig::for_degree(degree);
            Ok(OpMatrices::Sparse {
                dx: fd_matrix(nodes, RbfKernel::Phs3, cfg, DiffOp::Dx)?,
                dy: fd_matrix(nodes, RbfKernel::Phs3, cfg, DiffOp::Dy)?,
                lap: fd_matrix(nodes, RbfKernel::Phs3, cfg, DiffOp::Lap)?,
            })
        }
    }
}

impl OpMatrices {
    /// `(columns, values)` of row `i` of the requested operator, as owned
    /// vectors so both storage layouts serve the same assembly loop.
    fn row(&self, op: DiffOp, i: usize) -> (Vec<usize>, Vec<f64>) {
        match self {
            OpMatrices::Dense(dm) => {
                let m = match op {
                    DiffOp::Dx => &dm.dx,
                    DiffOp::Dy => &dm.dy,
                    DiffOp::Lap => &dm.lap,
                    DiffOp::Eval => unreachable!("Eval rows are identity"),
                };
                let n = m.ncols();
                ((0..n).collect(), (0..n).map(|j| m[(i, j)]).collect())
            }
            OpMatrices::Sparse { dx, dy, lap } => {
                let m = match op {
                    DiffOp::Dx => dx,
                    DiffOp::Dy => dy,
                    DiffOp::Lap => lap,
                    DiffOp::Eval => unreachable!("Eval rows are identity"),
                };
                let (c, v) = m.row(i);
                (c.to_vec(), v.to_vec())
            }
        }
    }
}

/// Assembles the steady system `c_dx·Dx + c_dy·Dy + c_lap·L + c_id·I` on
/// interior rows and identity on boundary rows, and factors it: dense LU
/// on the dense path, [`BandLu`] on the RBF-FD path.
fn assemble(
    nodes: &NodeSet,
    ops: &OpMatrices,
    co: (f64, f64, f64, f64),
) -> Result<Box<dyn LinearBackend>, LinalgError> {
    let (cx, cy, cl, cid) = co;
    let n = nodes.len();
    let mut t = Triplets::new(n, n);
    for i in nodes.interior_range() {
        for (op, c) in [(DiffOp::Dx, cx), (DiffOp::Dy, cy), (DiffOp::Lap, cl)] {
            if c == 0.0 {
                continue;
            }
            let (cols, vals) = ops.row(op, i);
            for (j, v) in cols.into_iter().zip(vals) {
                t.push(i, j, c * v);
            }
        }
        if cid != 0.0 {
            t.push(i, i, cid);
        }
    }
    for i in nodes.boundary_indices() {
        t.push(i, i, 1.0);
    }
    let a = t.to_csr();
    Ok(match ops {
        OpMatrices::Dense(_) => Box::new(Lu::factor(&a.to_dense())?),
        OpMatrices::Sparse { .. } => Box::new(BandLu::factor(&a)?),
    })
}

/// Solves the manufactured problem on an `nx × nx` grid and returns the
/// RMS nodal error against `u*` (at `t = T` for the heat march).
pub fn solve_error(
    ms: &dyn ManufacturedSolution,
    op: Operator,
    path: Path,
    degree: i32,
    nx: usize,
) -> Result<f64, LinalgError> {
    let nodes = unit_square_grid(nx, nx, all_dirichlet);
    let ops = build_ops(&nodes, path, degree)?;
    let sys = assemble(&nodes, &ops, op.coeffs())?;
    let n = nodes.len();
    let u_num = match op {
        Operator::Heat { dt, n_steps, .. } => {
            // March (1 + t)·u* from t = 0; forcing and BC data at t^{n+1}.
            let mut u = DVec::from_fn(n, |i| ms.u(nodes.point(i)));
            for step in 0..n_steps {
                let t1 = (step + 1) as f64 * dt;
                let mut b = DVec::zeros(n);
                for i in nodes.interior_range() {
                    b[i] = u[i] / dt + op.heat_forcing(ms, nodes.point(i), t1);
                }
                for i in nodes.boundary_indices() {
                    b[i] = (1.0 + t1) * ms.u(nodes.point(i));
                }
                u = sys.solve(&b)?;
            }
            u
        }
        _ => {
            let mut b = DVec::zeros(n);
            for i in nodes.interior_range() {
                b[i] = op.forcing(ms, nodes.point(i));
            }
            for i in nodes.boundary_indices() {
                b[i] = ms.u(nodes.point(i));
            }
            sys.solve(&b)?
        }
    };
    let scale = match op {
        Operator::Heat { dt, n_steps, .. } => 1.0 + dt * n_steps as f64,
        _ => 1.0,
    };
    let mut rms = 0.0;
    for i in 0..n {
        let d = u_num[i] - scale * ms.u(nodes.point(i));
        rms += d * d;
    }
    Ok((rms / n as f64).sqrt())
}

/// Applies the discrete differential operator to exact nodal values and
/// returns the RMS interior error against the exact operator — the raw
/// operator-approximation accuracy, independent of any solve.
pub fn operator_error(
    ms: &dyn ManufacturedSolution,
    op: DiffOp,
    path: Path,
    degree: i32,
    nx: usize,
) -> Result<f64, LinalgError> {
    let nodes = unit_square_grid(nx, nx, all_dirichlet);
    let ops = build_ops(&nodes, path, degree)?;
    let u = DVec::from_fn(nodes.len(), |i| ms.u(nodes.point(i)));
    let mut rms = 0.0;
    let mut count = 0usize;
    for i in nodes.interior_range() {
        let (cols, vals) = ops.row(op, i);
        let mut applied = 0.0;
        for (j, v) in cols.into_iter().zip(vals) {
            applied += v * u[j];
        }
        let p = nodes.point(i);
        let exact = match op {
            DiffOp::Dx => ms.grad(p).0,
            DiffOp::Dy => ms.grad(p).1,
            DiffOp::Lap => ms.lap(p),
            DiffOp::Eval => ms.u(p),
        };
        rms += (applied - exact) * (applied - exact);
        count += 1;
    }
    Ok((rms / count as f64).sqrt())
}

/// One resolution of a convergence sweep.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Grid resolution per side.
    pub nx: usize,
    /// Nominal spacing `h = 1/(nx − 1)`.
    pub h: f64,
    /// RMS error at this resolution.
    pub error: f64,
}

/// A completed convergence study: errors over a resolution sweep plus the
/// least-squares observed order.
#[derive(Debug, Clone)]
pub struct ConvergenceStudy {
    /// Human-readable label (`operator/path/solution`).
    pub label: String,
    /// Per-resolution samples, finest last.
    pub samples: Vec<Sample>,
}

impl ConvergenceStudy {
    /// Runs `error_at(nx)` over the sweep and records `(h, error)` pairs.
    pub fn run(
        label: impl Into<String>,
        resolutions: &[usize],
        mut error_at: impl FnMut(usize) -> Result<f64, LinalgError>,
    ) -> Result<ConvergenceStudy, LinalgError> {
        let label = label.into();
        let mut samples = Vec::with_capacity(resolutions.len());
        for &nx in resolutions {
            let error = error_at(nx)?;
            samples.push(Sample {
                nx,
                h: 1.0 / (nx - 1) as f64,
                error,
            });
            trace::counter("mms.error", error);
        }
        Ok(ConvergenceStudy { label, samples })
    }

    /// Least-squares slope of `log error` against `log h` — the observed
    /// convergence order.
    pub fn observed_order(&self) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter(|s| s.error > 0.0 && s.error.is_finite())
            .map(|s| (s.h.ln(), s.error.ln()))
            .collect();
        assert!(pts.len() >= 2, "{}: need ≥ 2 finite samples", self.label);
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    }

    /// Asserts `observed_order ≥ expected − slack`, with the full sweep in
    /// the panic diagnostic.
    pub fn assert_order(&self, expected: f64, slack: f64) {
        let got = self.observed_order();
        assert!(
            got >= expected - slack,
            "{}: observed order {got:.2} < expected {expected:.1} − slack {slack:.1}\n  sweep: {}",
            self.label,
            self.describe()
        );
    }

    /// `(nx, error)` pairs as a compact diagnostic string.
    pub fn describe(&self) -> String {
        self.samples
            .iter()
            .map(|s| format!("({}, {:.3e})", s.nx, s.error))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Convenience: run a full solver-level MMS study for one operator on one
/// path and return the study.
pub fn study(
    ms: &dyn ManufacturedSolution,
    op: Operator,
    path: Path,
    degree: i32,
    resolutions: &[usize],
) -> Result<ConvergenceStudy, LinalgError> {
    ConvergenceStudy::run(
        format!("{}/{}/{}", op.name(), path.name(), ms.name()),
        resolutions,
        |nx| solve_error(ms, op, path, degree, nx),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_order_recovers_a_synthetic_slope() {
        // error = 3·h^2.5 exactly → slope 2.5.
        let mut fake = ConvergenceStudy {
            label: "synthetic".into(),
            samples: Vec::new(),
        };
        for &nx in &[9, 17, 33] {
            let h = 1.0 / (nx - 1) as f64;
            fake.samples.push(Sample {
                nx,
                h,
                error: 3.0 * h.powf(2.5),
            });
        }
        assert!((fake.observed_order() - 2.5).abs() < 1e-12);
        fake.assert_order(2.5, 0.01);
    }

    #[test]
    #[should_panic(expected = "observed order")]
    fn assert_order_panics_on_stalled_error() {
        let fake = ConvergenceStudy {
            label: "stalled".into(),
            samples: vec![
                Sample {
                    nx: 9,
                    h: 0.125,
                    error: 1e-3,
                },
                Sample {
                    nx: 17,
                    h: 0.0625,
                    error: 1e-3,
                },
            ],
        };
        fake.assert_order(2.0, 0.5);
    }

    #[test]
    fn manufactured_solutions_satisfy_their_own_calculus() {
        // Spot-check grad/lap of each stock instance by finite differences.
        let h = 1e-5;
        let pts = [Point2::new(0.3, 0.7), Point2::new(0.62, 0.41)];
        let solutions: [&dyn ManufacturedSolution; 3] =
            [&TrigTrig { k: 1.0 }, &HarmonicCubic, &ExpSine];
        for ms in solutions {
            for &p in &pts {
                let (gx, gy) = ms.grad(p);
                let fdx =
                    (ms.u(Point2::new(p.x + h, p.y)) - ms.u(Point2::new(p.x - h, p.y))) / (2.0 * h);
                let fdy =
                    (ms.u(Point2::new(p.x, p.y + h)) - ms.u(Point2::new(p.x, p.y - h))) / (2.0 * h);
                assert!((gx - fdx).abs() < 1e-6, "{} dx", ms.name());
                assert!((gy - fdy).abs() < 1e-6, "{} dy", ms.name());
                let flap = (ms.u(Point2::new(p.x + h, p.y))
                    + ms.u(Point2::new(p.x - h, p.y))
                    + ms.u(Point2::new(p.x, p.y + h))
                    + ms.u(Point2::new(p.x, p.y - h))
                    - 4.0 * ms.u(p))
                    / (h * h);
                assert!((ms.lap(p) - flap).abs() < 1e-4, "{} lap", ms.name());
            }
        }
    }

    #[test]
    fn harmonic_solution_is_reproduced_almost_exactly_by_both_paths() {
        // x³ − 3xy² lies in the span of the degree-3 augmentation, so both
        // paths reproduce it to solver precision at a single resolution.
        for path in [Path::Dense, Path::RbfFd] {
            let e = solve_error(&HarmonicCubic, Operator::Laplace, path, 3, 10).unwrap();
            assert!(e < 1e-7, "{}: {e:.3e}", path.name());
        }
    }
}
