//! Integration tests for the extension modules: the sparse RBF-FD control
//! path, the time-dependent heat control, the mixed-BC Poisson solver, and
//! the generic control API — all crossing crate boundaries.

use meshfree_oc::control::api::{optimize, LaplaceDpObjective, OptimizeOpts};
use meshfree_oc::control::validate::validate_laplace_control;
use meshfree_oc::geometry::generators::unit_square_grid;
use meshfree_oc::geometry::{io as geo_io, NodeKind, Point2};
use meshfree_oc::linalg::DVec;
use meshfree_oc::pde::heat::{HeatConfig, HeatControlProblem};
use meshfree_oc::pde::poisson::PoissonProblem;
use meshfree_oc::pde::LaplaceControlProblem;
use meshfree_oc::rbf::RbfKernel;

#[test]
fn sparse_and_dense_laplace_agree_on_the_problem_they_solve() {
    // Same PDE, two discretisations: their optimized controls must agree
    // mid-wall, and each other's control must validate well on the dense
    // referee.
    let dense = LaplaceControlProblem::new(14).unwrap();
    let sparse = LaplaceControlProblem::new_sparse(14).unwrap();
    let opts = OptimizeOpts {
        iterations: 120,
        lr: 1e-2,
        log_every: 40,
        ..Default::default()
    };
    let (_, c_sparse) = optimize(&mut LaplaceDpObjective(&sparse), &opts).unwrap();
    let verdict = validate_laplace_control(&dense, &c_sparse).unwrap();
    assert!(
        verdict.improvement < 0.05,
        "sparse-optimized control scored {} on the dense referee",
        verdict.improvement
    );
}

#[test]
fn heat_control_converges_to_the_laplace_limit() {
    // As the horizon grows, the heat terminal state approaches the steady
    // (Laplace) solution, so the optimal heat control approaches the
    // steady problem's reference control.
    let p = HeatControlProblem::new(HeatConfig {
        nx: 10,
        n_steps: 60,
        ..Default::default()
    })
    .unwrap();
    let j_ref = p.cost(&p.reference_control()).unwrap();
    assert!(j_ref < 1e-6, "long-horizon J(c_ref) = {j_ref:.3e}");
}

#[test]
fn poisson_handles_all_three_bc_types_in_one_problem() {
    let classify = |p: Point2| {
        if p.y == 0.0 {
            (NodeKind::Dirichlet, 1, Point2::new(0.0, -1.0))
        } else if p.y == 1.0 {
            (NodeKind::Neumann, 2, Point2::new(0.0, 1.0))
        } else if p.x == 0.0 {
            (NodeKind::Dirichlet, 3, Point2::new(-1.0, 0.0))
        } else {
            (NodeKind::Robin, 4, Point2::new(1.0, 0.0))
        }
    };
    let nodes = unit_square_grid(12, 12, classify);
    assert!(nodes.n_robin() > 0 && nodes.n_neumann() > 0);
    let beta = 1.0;
    let problem = PoissonProblem::new(&nodes, RbfKernel::Phs3, 2, beta).unwrap();
    // u = x + 2y is harmonic with f = 0; feed the matching data.
    let g = |i: usize, p: Point2| {
        let nodes = problem.ctx().nodes();
        let n = nodes.normal(i).unwrap();
        match nodes.kind(i) {
            NodeKind::Dirichlet => p.x + 2.0 * p.y,
            NodeKind::Neumann => n.x + 2.0 * n.y,
            NodeKind::Robin => n.x + 2.0 * n.y + beta * (p.x + 2.0 * p.y),
            NodeKind::Interior => unreachable!(),
        }
    };
    let u = problem.solve(|_| 0.0, g).unwrap();
    for i in 0..nodes.len() {
        let p = nodes.point(i);
        assert!(
            (u[i] - (p.x + 2.0 * p.y)).abs() < 1e-7,
            "at {p:?}: {}",
            u[i]
        );
    }
}

#[test]
fn node_cloud_csv_roundtrip_supports_external_meshers() {
    // The io seam lets a real GMSH cloud be dropped in: write, read, solve.
    let classify = |p: Point2| {
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
    };
    let nodes = unit_square_grid(9, 9, classify);
    let text = geo_io::to_csv(&nodes);
    let back = geo_io::from_csv(&text).unwrap();
    let p = PoissonProblem::new(&back, RbfKernel::Phs3, 1, 0.0).unwrap();
    let u = p.solve(|_| 0.0, |_, q| 1.0 + q.x - 0.5 * q.y).unwrap();
    for i in 0..back.len() {
        let q = back.point(i);
        assert!((u[i] - (1.0 + q.x - 0.5 * q.y)).abs() < 1e-7);
    }
}

#[test]
fn heat_gradient_is_exact_for_the_time_dependent_problem_too() {
    let p = HeatControlProblem::new(HeatConfig {
        nx: 9,
        n_steps: 8,
        ..Default::default()
    })
    .unwrap();
    let c = DVec::from_fn(p.n_controls(), |i| 0.4 * (i as f64).sin());
    let (_, g, _) = p.cost_and_grad_dp(&c).unwrap();
    let h = 1e-6;
    let mut cp = c.clone();
    for i in (0..c.len()).step_by(3) {
        let o = cp[i];
        cp[i] = o + h;
        let jp = p.cost(&cp).unwrap();
        cp[i] = o - h;
        let jm = p.cost(&cp).unwrap();
        cp[i] = o;
        let fd = (jp - jm) / (2.0 * h);
        assert!(
            (g[i] - fd).abs() < 1e-6 * (1.0 + fd.abs()),
            "coordinate {i}: {} vs {fd}",
            g[i]
        );
    }
}
