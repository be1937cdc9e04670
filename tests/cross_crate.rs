//! Cross-crate consistency checks: the same mathematical objects computed
//! through different subsystems must agree.

use meshfree_oc::autodiff::gradcheck::rel_error;
use meshfree_oc::autodiff::{derivative, derivative2, Dual, Dual2, Scalar, Tape};
use meshfree_oc::geometry::generators::{unit_square_grid, BoundaryClass};
use meshfree_oc::geometry::{NodeKind, Point2};
use meshfree_oc::linalg::{DMat, DVec, Lu};
use meshfree_oc::nn::{Activation, Mlp};
use meshfree_oc::rbf::{DiffOp, GlobalCollocation, RbfKernel};
use std::sync::Arc;

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
fn forward_dual_and_tensor_tape_agree_on_a_shared_program() {
    // f(a, b) = Σᵢ tanh(aᵢ bᵢ) + aᵢ², written once over `Scalar`: forward
    // mode seeds one component of `a` at a time, the tensor tape gets the
    // whole gradient from one reverse sweep.
    fn f<S: Scalar>(a: &[S], b: &[S]) -> S {
        a.iter().zip(b).fold(S::from_f64(0.0), |acc, (&x, &y)| {
            acc + (x * y).tanh() + x * x
        })
    }
    let a0 = [0.3, -0.7, 1.1];
    let b0 = [0.9, 0.4, -0.2];

    let tt = Tape::new();
    let a = tt.var_col(&a0);
    let b = tt.var_col(&b0);
    let out = a.mul(b).tanh().add(a.mul(a)).sum();
    assert!((out.scalar_value() - f(&a0, &b0)).abs() < 1e-14);
    let ga = tt.backward(out).wrt(a);

    let b_const = b0.map(Dual::constant);
    for k in 0..3 {
        let (_, dfk) = derivative(
            |x| {
                let mut ad = a0.map(Dual::constant);
                ad[k] = x;
                f(&ad, &b_const)
            },
            a0[k],
        );
        assert!((ga[(k, 0)] - dfk).abs() < 1e-13, "engines disagree at {k}");
    }
}

#[test]
fn dual2_kernel_derivatives_match_collocation_rows() {
    // The ∂x row entries of the collocation context must equal the chain
    // rule applied to Dual2 kernel derivatives, independently recomputed.
    let ns = unit_square_grid(5, 5, all_dirichlet);
    let ctx = GlobalCollocation::new(&ns, RbfKernel::Phs3, 1);
    let x = Point2::new(0.37, 0.61);
    let row = ctx.row(DiffOp::Dx, x);
    for (j, c) in ns.points().iter().enumerate() {
        let r = x.dist(c);
        let (_, d1, _) = derivative2(|rr: Dual2| rr.powi(3), r);
        let expect = if r > 1e-12 { (x.x - c.x) * d1 / r } else { 0.0 };
        assert!((row[j] - expect).abs() < 1e-12, "entry {j}");
    }
}

#[test]
fn taped_linear_solve_matches_direct_lu_solve() {
    let a = DMat::from_fn(6, 6, |i, j| {
        if i == j {
            4.0
        } else {
            1.0 / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    let b = DVec::from_fn(6, |i| (i as f64).cos());
    let lu = Arc::new(Lu::factor(&a).unwrap());
    let direct = lu.solve(&b).unwrap();
    let tape = Tape::new();
    let bv = tape.var_col(&b);
    let x = tape.solve_const(&lu, bv).unwrap();
    for i in 0..6 {
        assert!((x.value()[(i, 0)] - direct[i]).abs() < 1e-14);
    }
}

#[test]
fn mlp_taylor_laplacian_matches_scalar_dual_arithmetic() {
    // Compute u_xx of a small MLP two ways: the batched tensor-tape Taylor
    // mode, and plain f64 finite differences of Mlp::eval.
    let m = Mlp::new(&[2, 7, 7, 1], Activation::Tanh, 21);
    let (x0, y0) = (0.4, 0.6);
    let tape = Tape::new();
    let p = m.params_on_tape(&tape);
    let xin = DMat::from_rows(&[vec![x0, y0]]);
    let tb = m.forward_taylor(&tape, &p, &xin, &[0, 1]);
    let lap_taylor = tb.dd[0].value()[(0, 0)] + tb.dd[1].value()[(0, 0)];
    let h = 1e-4;
    let f = |x: f64, y: f64| m.eval(&DMat::from_rows(&[vec![x, y]]))[(0, 0)];
    let lap_fd =
        (f(x0 + h, y0) + f(x0 - h, y0) + f(x0, y0 + h) + f(x0, y0 - h) - 4.0 * f(x0, y0)) / (h * h);
    assert!(
        (lap_taylor - lap_fd).abs() < 1e-4 * (1.0 + lap_fd.abs()),
        "{lap_taylor} vs {lap_fd}"
    );
}

#[test]
fn gradcheck_utilities_validate_a_cross_crate_composition() {
    // J(theta) = || A^{-1} P(theta) ||² where P maps two parameters into a
    // RHS — spans linalg + autodiff, checked by the gradcheck module.
    let a = DMat::from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]);
    let lu = Arc::new(Lu::factor(&a).unwrap());
    let f = |t: &[f64]| -> f64 {
        let tape = Tape::new();
        let v = tape.var_col(t);
        tape.solve_const(&lu, v).unwrap().sum_sq().scalar_value()
    };
    let t0 = [0.7, -0.3];
    let tape = Tape::new();
    let v = tape.var_col(&t0);
    let j = tape.solve_const(&lu, v).unwrap().sum_sq();
    let g = tape.backward(j).wrt(v);
    let g_vec: Vec<f64> = g.as_slice().to_vec();
    let fd = meshfree_oc::autodiff::gradcheck::fd_gradient(f, &t0, 1e-6);
    assert!(rel_error(&g_vec, &fd) < 1e-8);
}

#[test]
fn laplace_pinn_smoke_end_to_end() {
    // The data-driven strategy wired through the facade: seeded init,
    // a short residual-only training burst, and a callable control — the
    // integration surface fig. 3's PINN column rests on.
    use meshfree_oc::control::pinn::{LaplacePinn, PinnConfig};
    let mut pinn = LaplacePinn::new(PinnConfig {
        hidden: vec![8, 8],
        control_hidden: vec![6],
        lr: 3e-3,
        epochs_step1: 60,
        epochs_step2: 30,
        n_interior: 60,
        n_boundary: 10,
        seed: 3,
        bc_weight: 20.0,
        control_envelope: true,
    });
    let w = pinn.cfg().bc_weight;
    let before = pinn.loss_parts();
    let history = pinn.train(0.0, 120, false);
    let after = pinn.loss_parts();
    assert!(!history.entries.is_empty(), "training recorded no history");
    assert!(
        after.l_pde + w * after.l_bc < before.l_pde + w * before.l_bc,
        "training objective did not move: {:.3e} -> {:.3e}",
        before.l_pde + w * before.l_bc,
        after.l_pde + w * after.l_bc
    );
    // The learned control is finite everywhere and pinned at the corners
    // by the envelope.
    let c = pinn.control_values(&[0.0, 0.25, 0.5, 0.75, 1.0]);
    assert!(c.as_slice().iter().all(|v| v.is_finite()));
    assert!(c[0].abs() < 1e-12 && c[4].abs() < 1e-12, "envelope broken");
}

#[test]
fn ns_pinn_smoke_end_to_end() {
    use meshfree_oc::control::pinn_ns::{NsPinn, NsPinnConfig};
    let mut pinn = NsPinn::new(NsPinnConfig {
        hidden: vec![10, 10],
        control_hidden: vec![6],
        lr: 3e-3,
        epochs_step1: 40,
        epochs_step2: 20,
        n_interior: 80,
        n_boundary: 10,
        re: 20.0,
        seed: 11,
        ..Default::default()
    });
    let before = pinn.loss_parts();
    pinn.train(0.0, 100, false);
    let after = pinn.loss_parts();
    assert!(after.l_pde.is_finite() && after.l_bc.is_finite() && after.j.is_finite());
    assert!(
        after.l_pde + after.l_bc < before.l_pde + before.l_bc,
        "NS residual training did not move: {:.3e} -> {:.3e}",
        before.l_pde + before.l_bc,
        after.l_pde + after.l_bc
    );
    // The field network answers pointwise queries (u, v, p) at arbitrary
    // channel locations — the mesh-free sampling the paper contrasts with
    // the collocation solvers.
    let (u, v, p) = pinn.fields_at(&[(0.5, 0.5), (1.0, 0.25)]);
    assert_eq!(u.len(), 2);
    for i in 0..2 {
        assert!(u[i].is_finite() && v[i].is_finite() && p[i].is_finite());
    }
}

#[test]
fn facade_reexports_are_usable() {
    assert!(!meshfree_oc::VERSION.is_empty());
    // One symbol from each re-exported crate.
    let _ = meshfree_oc::linalg::DVec::zeros(1);
    let _ = meshfree_oc::geometry::Point2::new(0.0, 0.0);
    let _ = meshfree_oc::rbf::RbfKernel::Phs3;
    let _ = meshfree_oc::opt::Schedule::Constant(1.0);
    let _ = meshfree_oc::pde::analytic::poiseuille(0.5, 1.0);
    let _ = meshfree_oc::control::metrics::ConvergenceHistory::default();
    let _ = meshfree_oc::nn::Activation::Tanh;
    let _ = f64::from_f64(1.0);
}
