//! Steady advection–diffusion: the scalar-transport building block of the
//! Navier–Stokes momentum equations, exposed standalone.
//!
//! `a·∇u − ν∇²u = f` in Ω, Dirichlet boundary.
//!
//! This module exists for two reasons. First, it is the natural template
//! for posing transport problems on the substrate. Second, its tests
//! *quantify* the stabilisation story documented in DESIGN.md §5: central
//! (RBF) discretisations of advection become oscillatory once the cell
//! Péclet number `|a| h / ν` exceeds ~2, and the artificial upwind-
//! equivalent viscosity `ν += stab·h·|a|` restores monotonicity — the same
//! mechanism `NsConfig::stab` applies to the channel flow.

use geometry::{NodeSet, Point2};
use linalg::{DMat, DVec, LinalgError, Lu};
use rbf::{GlobalCollocation, RbfKernel};

/// A steady advection–diffusion problem with a constant advecting velocity.
pub struct AdvDiffProblem {
    nodes: NodeSet,
    lu: Lu,
    /// Evaluation matrix rows at the nodes are the identity in the nodal
    /// formulation, so solutions come back as nodal values directly.
    _marker: (),
}

impl AdvDiffProblem {
    /// Assembles `a·∇ − ν∇²` with Dirichlet boundary rows over the nodal
    /// differentiation matrices.
    pub fn new(
        nodes: &NodeSet,
        velocity: Point2,
        nu: f64,
        kernel: RbfKernel,
        degree: i32,
    ) -> Result<Self, LinalgError> {
        let ctx = GlobalCollocation::new(nodes, kernel, degree);
        let dm = ctx.diff_matrices()?;
        let n = nodes.len();
        let mut a = DMat::zeros(n, n);
        for i in nodes.interior_range() {
            for j in 0..n {
                a[(i, j)] =
                    velocity.x * dm.dx[(i, j)] + velocity.y * dm.dy[(i, j)] - nu * dm.lap[(i, j)];
            }
        }
        for i in nodes.boundary_indices() {
            a[(i, i)] = 1.0;
        }
        let lu = Lu::factor(&a)?;
        Ok(AdvDiffProblem {
            nodes: nodes.clone(),
            lu,
            _marker: (),
        })
    }

    /// The node set.
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// Solves with interior source `f` and Dirichlet data `g`.
    pub fn solve(
        &self,
        f: impl Fn(Point2) -> f64,
        g: impl Fn(Point2) -> f64,
    ) -> Result<DVec, LinalgError> {
        let n = self.nodes.len();
        let mut b = DVec::zeros(n);
        for i in self.nodes.interior_range() {
            b[i] = f(self.nodes.point(i));
        }
        for i in self.nodes.boundary_indices() {
            b[i] = g(self.nodes.point(i));
        }
        self.lu.solve(&b)
    }
}

/// Cell Péclet number `|a| h / ν` — the stability indicator for central
/// discretisations of advection.
pub fn cell_peclet(speed: f64, h: f64, nu: f64) -> f64 {
    speed * h / nu
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::generators::{unit_square_grid, BoundaryClass};
    use geometry::NodeKind;

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

    /// 1-D boundary-layer exact solution for `a u_x − ν u_xx = 0`,
    /// `u(0) = 0`, `u(1) = 1`: `(e^{ax/ν} − 1)/(e^{a/ν} − 1)`.
    fn boundary_layer(x: f64, a: f64, nu: f64) -> f64 {
        ((a * x / nu).exp() - 1.0) / ((a / nu).exp() - 1.0)
    }

    #[test]
    fn low_peclet_solution_matches_the_boundary_layer_profile() {
        let n = 16;
        let h = 1.0 / (n - 1) as f64;
        let (a, nu) = (1.0, 0.5); // Pe_h = h/0.5 = 0.13 — safely stable
        assert!(cell_peclet(a, h, nu) < 2.0);
        let nodes = unit_square_grid(n, n, all_dirichlet);
        let p = AdvDiffProblem::new(&nodes, Point2::new(a, 0.0), nu, RbfKernel::Phs3, 2).unwrap();
        let u = p.solve(|_| 0.0, |q| boundary_layer(q.x, a, nu)).unwrap();
        for i in p.nodes().interior_range() {
            let q = p.nodes().point(i);
            let exact = boundary_layer(q.x, a, nu);
            assert!((u[i] - exact).abs() < 2e-2, "at {q:?}: {} vs {exact}", u[i]);
        }
    }

    /// Measures the worst overshoot/undershoot outside the exact solution's
    /// [0, 1] range — the oscillation fingerprint.
    fn overshoot(u: &DVec) -> f64 {
        u.iter()
            .map(|&v| (v - 1.0).max(0.0).max(-v))
            .fold(0.0, f64::max)
    }

    #[test]
    fn high_peclet_oscillates_and_artificial_viscosity_suppresses_it() {
        // The DESIGN.md §5 claim, quantified: at Pe_h ≈ 14 the central
        // discretisation violates the maximum principle; adding stab·h·|a|
        // to ν restores it (to within discretisation noise).
        let n = 15;
        let h = 1.0 / (n - 1) as f64;
        let (a, nu) = (1.0, 0.005);
        assert!(cell_peclet(a, h, nu) > 10.0);
        let nodes = unit_square_grid(n, n, all_dirichlet);
        let raw = AdvDiffProblem::new(&nodes, Point2::new(a, 0.0), nu, RbfKernel::Phs3, 2)
            .unwrap()
            .solve(|_| 0.0, |q| boundary_layer(q.x, a, nu))
            .unwrap();
        let nu_stab = nu + 0.5 * h * a;
        let stab = AdvDiffProblem::new(&nodes, Point2::new(a, 0.0), nu_stab, RbfKernel::Phs3, 2)
            .unwrap()
            .solve(|_| 0.0, |q| boundary_layer(q.x, a, nu))
            .unwrap();
        let over_raw = overshoot(&raw);
        let over_stab = overshoot(&stab);
        assert!(
            over_raw > 0.05,
            "expected visible oscillations at high Péclet, got {over_raw:.3}"
        );
        assert!(
            over_stab < 0.5 * over_raw,
            "stabilisation did not help: {over_raw:.3} -> {over_stab:.3}"
        );
    }

    #[test]
    fn pure_diffusion_limit_reduces_to_poisson() {
        // velocity = 0: the operator is −ν∇²; a harmonic Dirichlet extension
        // must be reproduced.
        let nodes = unit_square_grid(12, 12, all_dirichlet);
        let p =
            AdvDiffProblem::new(&nodes, Point2::new(0.0, 0.0), 1.0, RbfKernel::Phs3, 1).unwrap();
        let u = p.solve(|_| 0.0, |q| q.x - 2.0 * q.y).unwrap();
        for i in 0..p.nodes().len() {
            let q = p.nodes().point(i);
            assert!((u[i] - (q.x - 2.0 * q.y)).abs() < 1e-8);
        }
    }

    #[test]
    fn transport_skews_the_solution_downstream() {
        // With strong x-advection of a hot left wall, mid-domain values
        // should exceed the pure-diffusion ones (heat carried downstream).
        let nodes = unit_square_grid(14, 14, all_dirichlet);
        let hot_left = |q: Point2| if q.x == 0.0 { 1.0 } else { 0.0 };
        let adv = AdvDiffProblem::new(&nodes, Point2::new(2.0, 0.0), 0.3, RbfKernel::Phs3, 2)
            .unwrap()
            .solve(|_| 0.0, hot_left)
            .unwrap();
        let dif = AdvDiffProblem::new(&nodes, Point2::new(0.0, 0.0), 0.3, RbfKernel::Phs3, 2)
            .unwrap()
            .solve(|_| 0.0, hot_left)
            .unwrap();
        // Compare at the domain centre.
        let mut centre = 0;
        let mut best = f64::INFINITY;
        for i in nodes.interior_range() {
            let d = nodes.point(i).dist(&Point2::new(0.5, 0.5));
            if d < best {
                best = d;
                centre = i;
            }
        }
        assert!(
            adv[centre] > dif[centre] + 0.05,
            "advection {} vs diffusion {}",
            adv[centre],
            dif[centre]
        );
    }
}
