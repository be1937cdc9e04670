//! General Poisson solver with the paper's full boundary-condition menu.
//!
//! The paper's eq. (1) states the generic problem the RBF substrate must
//! handle: `D(u) = q` in Ω with **Dirichlet** (`u = q_d`), **Neumann**
//! (`∂u/∂n = q_n`) and **Robin** (`∂u/∂n + βu = q_r`) boundaries, handled
//! "by careful (re)ordering of the nodes". The control experiments only
//! exercise Dirichlet and Neumann rows; this module closes the loop on the
//! full menu with a manufactured-solution Poisson problem, and doubles as
//! the simplest template for posing new problems on the substrate.

use geometry::{NodeSet, Point2};
use linalg::{DVec, LinalgError, Lu};
use rbf::{DiffOp, GlobalCollocation, RbfKernel};

/// Boundary data for a Poisson problem: per boundary node, the right-hand
/// value of its condition (`q_d`, `q_n` or `q_r` depending on the node's
/// [`geometry::NodeKind`]).
pub type BoundaryData<'a> = &'a dyn Fn(usize, Point2) -> f64;

/// A general Poisson problem `−∇²u = f` over a classified node set.
pub struct PoissonProblem {
    ctx: GlobalCollocation,
    lu: Lu,
    robin_beta: f64,
}

impl PoissonProblem {
    /// Assembles and factors the collocation system. `robin_beta` is the
    /// coefficient `β` in `∂u/∂n + βu = q_r` (shared by all Robin nodes).
    pub fn new(
        nodes: &NodeSet,
        kernel: RbfKernel,
        degree: i32,
        robin_beta: f64,
    ) -> Result<Self, LinalgError> {
        let ctx = GlobalCollocation::new(nodes, kernel, degree);
        // Interior rows: −∇² (so `f` enters the RHS with its natural sign).
        let a = ctx.assemble_with_bcs(
            |_, p| {
                let mut row = ctx.row(DiffOp::Lap, p);
                for v in &mut row {
                    *v = -*v;
                }
                row
            },
            robin_beta,
        );
        let lu = Lu::factor(&a)?;
        Ok(PoissonProblem {
            ctx,
            lu,
            robin_beta,
        })
    }

    /// The collocation context.
    pub fn ctx(&self) -> &GlobalCollocation {
        &self.ctx
    }

    /// The Robin coefficient.
    pub fn robin_beta(&self) -> f64 {
        self.robin_beta
    }

    /// Solves with source `f` (evaluated at interior nodes) and boundary
    /// data `g` (evaluated at boundary nodes per their condition type).
    /// Returns the nodal solution values.
    pub fn solve(
        &self,
        f: impl Fn(Point2) -> f64,
        g: impl Fn(usize, Point2) -> f64,
    ) -> Result<DVec, LinalgError> {
        let nodes = self.ctx.nodes();
        let mut b = DVec::zeros(self.ctx.size());
        for i in nodes.interior_range() {
            b[i] = f(nodes.point(i));
        }
        for i in nodes.boundary_indices() {
            b[i] = g(i, nodes.point(i));
        }
        let coeffs = self.lu.solve(&b)?;
        Ok(self.ctx.eval_op(DiffOp::Eval, &coeffs, nodes.points()))
    }

    /// Solves and evaluates at arbitrary points.
    pub fn solve_at(
        &self,
        f: impl Fn(Point2) -> f64,
        g: impl Fn(usize, Point2) -> f64,
        points: &[Point2],
    ) -> Result<DVec, LinalgError> {
        let nodes = self.ctx.nodes();
        let mut b = DVec::zeros(self.ctx.size());
        for i in nodes.interior_range() {
            b[i] = f(nodes.point(i));
        }
        for i in nodes.boundary_indices() {
            b[i] = g(i, nodes.point(i));
        }
        let coeffs = self.lu.solve(&b)?;
        Ok(self.ctx.eval_op(DiffOp::Eval, &coeffs, points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::generators::unit_square_grid;
    use geometry::NodeKind;

    /// Manufactured solution `u = sin πx · cos πy` with
    /// `f = −∇²u = 2π² sin πx cos πy`.
    fn u_exact(p: Point2) -> f64 {
        let pi = std::f64::consts::PI;
        (pi * p.x).sin() * (pi * p.y).cos()
    }

    fn f_source(p: Point2) -> f64 {
        let pi = std::f64::consts::PI;
        2.0 * pi * pi * u_exact(p)
    }

    /// Gradient of the manufactured solution.
    fn grad_exact(p: Point2) -> (f64, f64) {
        let pi = std::f64::consts::PI;
        (
            pi * (pi * p.x).cos() * (pi * p.y).cos(),
            -pi * (pi * p.x).sin() * (pi * p.y).sin(),
        )
    }

    /// Classifier assigning a different BC type per wall: bottom Dirichlet,
    /// top Neumann, left Dirichlet, right Robin — all three of eq. (1).
    fn mixed_classifier(p: Point2) -> (NodeKind, usize, Point2) {
        if p.y == 0.0 {
            (NodeKind::Dirichlet, 1, Point2::new(0.0, -1.0))
        } else if p.y == 1.0 {
            (NodeKind::Neumann, 2, Point2::new(0.0, 1.0))
        } else if p.x == 0.0 {
            (NodeKind::Dirichlet, 3, Point2::new(-1.0, 0.0))
        } else {
            (NodeKind::Robin, 4, Point2::new(1.0, 0.0))
        }
    }

    /// Boundary data generator consistent with the manufactured solution.
    fn boundary_data(nodes: &NodeSet, beta: f64) -> impl Fn(usize, Point2) -> f64 + '_ {
        move |i: usize, p: Point2| {
            let n = nodes.normal(i).expect("boundary node");
            let (gx, gy) = grad_exact(p);
            match nodes.kind(i) {
                NodeKind::Dirichlet => u_exact(p),
                NodeKind::Neumann => n.x * gx + n.y * gy,
                NodeKind::Robin => n.x * gx + n.y * gy + beta * u_exact(p),
                NodeKind::Interior => unreachable!(),
            }
        }
    }

    #[test]
    fn mixed_bc_problem_reproduces_the_manufactured_solution() {
        let beta = 2.0;
        let nodes = unit_square_grid(14, 14, mixed_classifier);
        assert!(nodes.n_neumann() > 0 && nodes.n_robin() > 0);
        let p = PoissonProblem::new(&nodes, RbfKernel::Phs3, 2, beta).unwrap();
        let g = boundary_data(p.ctx().nodes(), beta);
        let u = p.solve(f_source, &g).unwrap();
        let mut worst = 0.0f64;
        for i in 0..p.ctx().nodes().len() {
            let q = p.ctx().nodes().point(i);
            worst = worst.max((u[i] - u_exact(q)).abs());
        }
        assert!(worst < 0.1, "max nodal error {worst}");
    }

    #[test]
    fn error_decreases_under_refinement() {
        let beta = 1.0;
        let err_at = |n: usize| {
            let nodes = unit_square_grid(n, n, mixed_classifier);
            let p = PoissonProblem::new(&nodes, RbfKernel::Phs3, 2, beta).unwrap();
            let g = boundary_data(p.ctx().nodes(), beta);
            let u = p.solve(f_source, &g).unwrap();
            let mut rms = 0.0;
            for i in 0..p.ctx().nodes().len() {
                let q = p.ctx().nodes().point(i);
                rms += (u[i] - u_exact(q)).powi(2);
            }
            (rms / p.ctx().nodes().len() as f64).sqrt()
        };
        let e1 = err_at(10);
        let e2 = err_at(20);
        assert!(e2 < 0.6 * e1, "no convergence: {e1:.3e} -> {e2:.3e}");
    }

    #[test]
    fn robin_beta_actually_matters() {
        // Solving with the wrong β while feeding data for the right β must
        // visibly change the solution — guards against the Robin term being
        // silently dropped from the assembly.
        let nodes = unit_square_grid(12, 12, mixed_classifier);
        let p_right = PoissonProblem::new(&nodes, RbfKernel::Phs3, 2, 2.0).unwrap();
        let p_wrong = PoissonProblem::new(&nodes, RbfKernel::Phs3, 2, 0.0).unwrap();
        let g = boundary_data(p_right.ctx().nodes(), 2.0);
        let u_right = p_right.solve(f_source, &g).unwrap();
        let u_wrong = p_wrong.solve(f_source, &g).unwrap();
        let diff = (&u_right - &u_wrong).norm_inf();
        assert!(diff > 1e-2, "Robin coefficient had no effect: {diff}");
    }

    #[test]
    fn zero_source_zero_data_gives_zero_solution() {
        let nodes = unit_square_grid(10, 10, mixed_classifier);
        let p = PoissonProblem::new(&nodes, RbfKernel::Phs3, 1, 1.0).unwrap();
        let u = p.solve(|_| 0.0, |_, _| 0.0).unwrap();
        assert!(u.norm_inf() < 1e-9, "nontrivial kernel: {}", u.norm_inf());
    }

    #[test]
    fn l_shaped_domain_solves_mesh_free() {
        // The "complex geometry" selling point: same solver, non-convex
        // domain, no mesh. Harmonic field u = x² − y² with matching
        // Dirichlet data must be reproduced everywhere, including near the
        // re-entrant corner.
        use geometry::generators::l_shape_cloud;
        let nodes = l_shape_cloud(0.08);
        assert!(nodes.n_interior() > 30);
        let p = PoissonProblem::new(&nodes, RbfKernel::Phs3, 2, 0.0).unwrap();
        let u = p.solve(|_| 0.0, |_, q| q.x * q.x - q.y * q.y).unwrap();
        for i in 0..p.ctx().nodes().len() {
            let q = p.ctx().nodes().point(i);
            let exact = q.x * q.x - q.y * q.y;
            assert!((u[i] - exact).abs() < 5e-3, "at {q:?}: {} vs {exact}", u[i]);
        }
    }

    #[test]
    fn solve_at_interpolates_off_node_points() {
        let beta = 1.5;
        let nodes = unit_square_grid(16, 16, mixed_classifier);
        let p = PoissonProblem::new(&nodes, RbfKernel::Phs3, 2, beta).unwrap();
        let g = boundary_data(p.ctx().nodes(), beta);
        let probes = [Point2::new(0.33, 0.47), Point2::new(0.71, 0.52)];
        let u = p.solve_at(f_source, &g, &probes).unwrap();
        for (k, q) in probes.iter().enumerate() {
            assert!(
                (u[k] - u_exact(*q)).abs() < 0.03,
                "at {q:?}: {} vs {}",
                u[k],
                u_exact(*q)
            );
        }
    }
}
