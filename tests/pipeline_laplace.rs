//! End-to-end integration: the full Laplace control pipeline across all
//! crates — geometry → rbf → pde → autodiff → opt → control.

use meshfree_oc::control::{execute_on, Problem, RunCtx, RunSpec, SpecRun, Strategy};
use meshfree_oc::linalg::DVec;
use meshfree_oc::pde::{analytic, LaplaceControlProblem};

fn problem() -> LaplaceControlProblem {
    LaplaceControlProblem::new(14).expect("assembly")
}

/// A Table 1 run (`lr = 1e-2`) of `strategy` on `p`, history every 10
/// iterations.
fn run(p: &LaplaceControlProblem, strategy: Strategy, iterations: usize) -> SpecRun {
    let spec = RunSpec::laplace()
        .nx(14)
        .strategy(strategy)
        .iterations(iterations)
        .lr(1e-2)
        .log_every(10)
        .build();
    execute_on(Problem::Laplace(p), &spec, &RunCtx::unchecked()).unwrap()
}

#[test]
fn dp_reaches_deep_minimum_and_beats_dal_which_beats_zero() {
    let p = problem();
    let j0 = p.cost(&DVec::zeros(p.n_controls())).unwrap();
    let dp = run(&p, Strategy::Dp, 200);
    let dal = run(&p, Strategy::Dal, 200);
    // The paper's cost ordering at matched iteration counts.
    assert!(dp.report.final_cost < 1e-3 * j0, "DP failed to dive");
    assert!(dal.report.final_cost < j0, "DAL failed to descend");
    assert!(
        dp.report.final_cost <= dal.report.final_cost * 2.0,
        "DP {:.3e} should not lose to DAL {:.3e}",
        dp.report.final_cost,
        dal.report.final_cost
    );
}

#[test]
fn all_three_gradient_sources_agree_at_the_start() {
    // At c = 0 the DP and FD gradients must agree to FD accuracy and the
    // quadrature-weighted DAL gradient must point the same way.
    let p = problem();
    let c = DVec::zeros(p.n_controls());
    let (_, g_dp) = p.cost_and_grad_dp(&c).unwrap();
    let (_, g_fd) = p.cost_and_grad_fd(&c, 1e-6).unwrap();
    let (_, g_dal) = p.cost_and_grad_dal(&c).unwrap();
    let w = p.quad_weights();
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    let n = c.len();
    for i in 0..n {
        assert!(
            (g_dp[i] - g_fd[i]).abs() < 1e-5 * (1.0 + g_fd[i].abs()),
            "DP vs FD at {i}"
        );
        // DAL alignment is only expected away from the wall ends (the Runge
        // zone corrupts the endpoint flux — the paper's own caveat).
        if (n / 4..3 * n / 4).contains(&i) {
            let a = g_dal[i] * w[i];
            dot += a * g_dp[i];
            na += a * a;
            nb += g_dp[i] * g_dp[i];
        }
    }
    assert!(
        dot / (na.sqrt() * nb.sqrt()) > 0.85,
        "DAL misaligned at c = 0: cos = {}",
        dot / (na.sqrt() * nb.sqrt())
    );
}

#[test]
fn recovered_control_tracks_the_series_minimiser_mid_wall() {
    let p = LaplaceControlProblem::new(16).unwrap();
    let spec = RunSpec::laplace()
        .nx(16)
        .iterations(300)
        .lr(1e-2)
        .log_every(50)
        .build();
    let result = execute_on(Problem::Laplace(&p), &spec, &RunCtx::unchecked()).unwrap();
    let n = p.n_controls();
    for i in n / 3..2 * n / 3 {
        let exact = analytic::series_c_star(p.control_x()[i]);
        assert!(
            (result.control[i] - exact).abs() < 0.06,
            "control at x={}: {} vs {exact}",
            p.control_x()[i],
            result.control[i]
        );
    }
}

#[test]
fn optimized_state_is_harmonic_and_matches_its_boundary_data() {
    // The *solver* guarantees these by construction; this test closes the
    // loop through the optimizer output.
    let p = problem();
    let result = run(&p, Strategy::Dp, 100);
    let coeffs = p.solve_coeffs(&result.control).unwrap();
    let nodal = p.nodal_values(&coeffs);
    let ns = p.ctx().nodes();
    // Interior Laplacian ≈ 0 via the collocation rows it was solved with.
    for i in ns.indices_with_tag(meshfree_oc::pde::laplace::tags::LEFT) {
        assert!(nodal[i].abs() < 1e-8);
    }
    for i in ns.indices_with_tag(meshfree_oc::pde::laplace::tags::BOTTOM) {
        let x = ns.point(i).x;
        assert!((nodal[i] - (std::f64::consts::PI * x).sin()).abs() < 1e-8);
    }
}

#[test]
fn histories_are_complete_and_costs_finite() {
    let p = problem();
    for strategy in [Strategy::Dal, Strategy::Dp, Strategy::FiniteDiff] {
        let r = run(&p, strategy, 40);
        assert!(r.report.final_cost.is_finite());
        assert!(!r.report.history.entries.is_empty());
        assert!(r.report.wall_s > 0.0);
        assert!(!r.control.has_non_finite());
    }
}
