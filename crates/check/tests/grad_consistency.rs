//! Tier-1 cross-strategy gradient consistency: for every control problem,
//! the DP tape, the DAL adjoint and central finite differences must agree
//! under the tolerance ladder (tight DP-vs-FD, loose DAL-vs-DP).

use check::grad::{
    check_heat, check_laplace_dense, check_laplace_hvp, check_laplace_neural_op,
    check_laplace_sparse, check_ns, GradReport, ToleranceLadder,
};
use control::surrogate::{LaplaceSurrogate, SurrogateSpec};
use linalg::DVec;
use pde::heat::{HeatConfig, HeatControlProblem};
use pde::ns::NsConfig;
use pde::{LaplaceControlProblem, NsSolver};

/// A non-trivial control away from both `c ≡ 0` and the optimum.
fn bump(x: &[f64]) -> DVec {
    DVec(
        x.iter()
            .map(|&xi| 0.4 * (std::f64::consts::PI * xi).sin() + 0.1 * xi)
            .collect(),
    )
}

#[test]
fn laplace_dense_ladder_holds() {
    // nx = 16 matches the pde crate's own DAL benchmark: the OTD-vs-DTO
    // gap shrinks with h, and the loose rung is calibrated at this scale.
    let p = LaplaceControlProblem::new(16).unwrap();
    let c = bump(p.control_x());
    let reports = check_laplace_dense(&p, &c, &ToleranceLadder::default());
    assert_eq!(reports.len(), 2);
    // The acceptance bar: DP and FD differentiate the same discrete map.
    let dp_fd = &reports[0];
    assert!(dp_fd.rel_err <= 1e-6, "dp-vs-fd {:.3e}", dp_fd.rel_err);
}

#[test]
fn laplace_sparse_adjoint_matches_fd() {
    let p = LaplaceControlProblem::new_sparse(14).unwrap();
    let c = bump(p.control_x());
    check_laplace_sparse(&p, &c, &ToleranceLadder::default());
}

#[test]
fn heat_dp_through_time_matches_fd() {
    let p = HeatControlProblem::new(HeatConfig {
        nx: 10,
        n_steps: 6,
        ..Default::default()
    })
    .unwrap();
    let c = bump(p.control_x());
    check_heat(&p, &c, &ToleranceLadder::default());
}

#[test]
fn ns_picard_tape_matches_fd_and_aligns_with_dal() {
    let solver = NsSolver::new(NsConfig {
        channel: geometry::generators::ChannelConfig {
            h: 0.18,
            ..Default::default()
        },
        re: 30.0,
        slot_velocity: 0.2,
        ..Default::default()
    })
    .unwrap();
    let c = DVec(
        solver
            .inflow_y()
            .iter()
            .map(|&y| 0.8 * pde::analytic::poiseuille(y, 1.0) + 0.05)
            .collect(),
    );
    check_ns(&solver, &c, 3, &ToleranceLadder::default());
}

#[test]
fn laplace_hvp_ladder_holds() {
    // The second-order rungs: exact closed-form HVP vs central FD
    // of the tape gradient (≤ 1e-6 rel; the quadratic objective makes FD
    // exact to rounding), plus the bilinear symmetry identity.
    let p = LaplaceControlProblem::new(14).unwrap();
    let c = bump(p.control_x());
    let v = DVec::from_fn(c.len(), |i| 0.6 * ((i as f64) * 0.9).cos() - 0.2);
    let report = check_laplace_hvp(&p, &c, &v, &ToleranceLadder::default());
    assert!(
        report.hvp_vs_fd.rel_err <= 1e-6,
        "hvp-vs-fd {:.3e}",
        report.hvp_vs_fd.rel_err
    );
    assert!(
        report.symmetry_gap <= 1e-9,
        "symmetry {:.3e}",
        report.symmetry_gap
    );
}

#[test]
fn laplace_neural_op_ladder_holds() {
    // The amortized-control rung: a surrogate trained once on the default
    // dataset must (1) differentiate its own cost to FD accuracy and
    // (2) point its gradient along the true DP gradient — otherwise
    // optimizing through the frozen surrogate would descend the wrong
    // objective and the post-run audit could not rescue it.
    let p = LaplaceControlProblem::new(10).unwrap();
    let surrogate = LaplaceSurrogate::train(&p, &SurrogateSpec::default(), 0).unwrap();
    let c = bump(p.control_x());
    let reports = check_laplace_neural_op(&p, &surrogate, &c, &ToleranceLadder::default());
    assert_eq!(reports.len(), 2);
    assert!(
        reports[1].cosine >= 0.99,
        "surrogate-vs-dp cos {:.3}",
        reports[1].cosine
    );
}

#[test]
#[should_panic(expected = "hvp-symmetry")]
fn hvp_ladder_rejects_an_asymmetric_form() {
    // Feed assert_ladder a report whose symmetry defect is far above the
    // rung; the panic message must name the failing identity.
    let fake = check::grad::HvpReport {
        hvp_vs_fd: GradReport::compare("laplace", "hvp-vs-fd", &[1.0, 2.0], &[1.0, 2.0]),
        symmetry_gap: 1e-3,
    };
    fake.assert_ladder(&ToleranceLadder::default());
}

#[test]
fn ladder_catches_a_scaled_gradient() {
    // A gradient off by 2× must not sneak through the tight rung even
    // though it is perfectly aligned (cos = 1).
    let g = [0.1, -0.3, 0.7];
    let scaled: Vec<f64> = g.iter().map(|v| 2.0 * v).collect();
    let r = GradReport::compare("unit", "scaled", &scaled, &g);
    assert!(r.cosine > 0.999);
    assert!(r.rel_err > 0.5);
}
