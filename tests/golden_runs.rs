//! Golden-run regression gate: deterministic, seeded, laptop-scale versions
//! of the paper's fig. 3 (Laplace control) and fig. 4 (Navier–Stokes
//! control) experiments plus a seeded PINN training run, compared against
//! blessed JSON snapshots under `tests/golden/`.
//!
//! On drift the comparator names the offending field; after an intentional
//! numerical change, re-bless with
//!
//! ```text
//! MESHFREE_BLESS=1 cargo test --test golden_runs
//! ```
//!
//! and commit the snapshot diff so review sees exactly what moved.

use std::path::PathBuf;

use meshfree_oc::check::golden::{check_or_bless, GoldenPolicy, GoldenSnapshot};
use meshfree_oc::control::metrics::RunReport;
use meshfree_oc::control::pinn::{LaplacePinn, PinnConfig};
use meshfree_oc::control::{execute_on, OptimizerKind, Problem, RunCtx, RunSpec, Strategy};
use meshfree_oc::geometry::generators::ChannelConfig;
use meshfree_oc::pde::{LaplaceControlProblem, NsConfig, NsSolver};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// The shared tolerance policy: runs are scheduling-deterministic, so the
/// default band is tight; gradient norms pass through slightly more
/// iterative noise and get their own rung.
fn policy() -> GoldenPolicy {
    GoldenPolicy::default()
        .field("grad_history", 1e-7, 1e-12)
        .field("cost_history", 1e-8, 1e-14)
        .field("final_cost", 1e-8, 1e-14)
}

/// Folds a run report + control into a snapshot (wall-clock fields are
/// deliberately excluded — they are not reproducible).
fn report_snapshot(name: &str, report: &RunReport, control: &[f64]) -> GoldenSnapshot {
    GoldenSnapshot::new(name)
        .scalar("iterations", report.iterations as f64)
        .scalar("final_cost", report.final_cost)
        .with_series(
            "cost_history",
            report.history.entries.iter().map(|e| e.cost).collect(),
        )
        .with_series(
            "grad_history",
            report.history.entries.iter().map(|e| e.grad_norm).collect(),
        )
        .with_series("control", control.to_vec())
}

fn laplace_golden_with(
    strategy: Strategy,
    optimizer: OptimizerKind,
    iterations: usize,
    name: &str,
) {
    let spec = RunSpec::laplace()
        .nx(12)
        .strategy(strategy)
        .optimizer(optimizer)
        .iterations(iterations)
        .lr(1e-2)
        .log_every(5)
        .build();
    let problem = LaplaceControlProblem::new(12).unwrap();
    let run = execute_on(Problem::Laplace(&problem), &spec, &RunCtx::unchecked()).unwrap();
    let snap = report_snapshot(name, &run.report, run.control.as_slice());
    check_or_bless(&golden_path(name), &snap, &policy()).unwrap();
}

fn laplace_golden(strategy: Strategy, name: &str) {
    laplace_golden_with(strategy, OptimizerKind::Adam, 30, name);
}

#[test]
fn fig3_laplace_dal_matches_golden() {
    laplace_golden(Strategy::Dal, "fig3_laplace_dal");
}

#[test]
fn fig3_laplace_dp_matches_golden() {
    laplace_golden(Strategy::Dp, "fig3_laplace_dp");
}

#[test]
fn fig3_laplace_fd_matches_golden() {
    laplace_golden(Strategy::FiniteDiff, "fig3_laplace_fd");
}

#[test]
fn laplace_newton_cg_dal_matches_golden() {
    // Second-order DAL: Newton-CG on the weighted-adjoint gradient reaches
    // its floor in a handful of iterations; the snapshot pins the whole
    // (deterministic) trajectory, not just the endpoint.
    laplace_golden_with(
        Strategy::Dal,
        OptimizerKind::NewtonCg,
        10,
        "laplace_newton_cg_dal",
    );
}

#[test]
fn laplace_newton_cg_dp_matches_golden() {
    // Second-order DP: Newton-CG on the exact discrete gradient and its
    // exact HVP. The objective is quadratic, so one step on the explicit
    // Hessian lands on the minimiser; a second step would only record
    // rounding noise. The snapshot pins that step's control, which every
    // Hessian column feeds.
    laplace_golden_with(
        Strategy::Dp,
        OptimizerKind::NewtonCg,
        1,
        "laplace_newton_cg_dp",
    );
}

#[test]
fn laplace_lbfgs_dp_matches_golden() {
    laplace_golden_with(Strategy::Dp, OptimizerKind::Lbfgs, 25, "laplace_lbfgs_dp");
}

fn ns_golden(strategy: Strategy, name: &str) {
    let solver = NsSolver::new(NsConfig {
        channel: ChannelConfig {
            h: 0.18,
            ..Default::default()
        },
        re: 30.0,
        slot_velocity: 0.2,
        ..Default::default()
    })
    .unwrap();
    let spec = RunSpec::navier_stokes()
        .resolution(0.18)
        .reynolds(30.0)
        .slot_velocity(0.2)
        .strategy(strategy)
        .iterations(6)
        .refinements(3)
        .lr(5e-2)
        .log_every(2)
        .initial_scale(0.8)
        .build();
    let run = execute_on(Problem::NavierStokes(&solver), &spec, &RunCtx::unchecked()).unwrap();
    let (u_out, _) = solver.outflow_profile(run.ns_state.as_ref().unwrap());
    let snap = report_snapshot(name, &run.report, run.control.as_slice())
        .with_series("outflow_u", u_out.as_slice().to_vec());
    check_or_bless(&golden_path(name), &snap, &policy()).unwrap();
}

#[test]
fn fig4_ns_dp_matches_golden() {
    ns_golden(Strategy::Dp, "fig4_ns_dp");
}

#[test]
fn fig4_ns_dal_matches_golden() {
    ns_golden(Strategy::Dal, "fig4_ns_dal");
}

#[test]
fn pinn_laplace_seeded_matches_golden() {
    // Brings the seeded-RNG path (runtime::rng through nn::Mlp init and
    // collocation sampling) under the golden gate.
    let mut pinn = LaplacePinn::new(PinnConfig {
        hidden: vec![10, 10],
        control_hidden: vec![6],
        lr: 3e-3,
        epochs_step1: 120,
        epochs_step2: 60,
        n_interior: 80,
        n_boundary: 12,
        seed: 42,
        bc_weight: 20.0,
        control_envelope: true,
    });
    let history = pinn.train(0.0, 120, false);
    let after = pinn.loss_parts();
    let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
    let control = pinn.control_values(&xs);
    let snap = GoldenSnapshot::new("pinn_laplace_seeded")
        .scalar("epochs", history.entries.len() as f64)
        .scalar("l_pde", after.l_pde)
        .scalar("l_bc", after.l_bc)
        .scalar("j", after.j)
        .with_series(
            "loss_history",
            history.entries.iter().map(|e| e.cost).collect(),
        )
        .with_series("control", control.as_slice().to_vec());
    // Losses sit on a long tape of f64 sums; keep the default band but
    // give the trained-network outputs a touch more room.
    let policy = policy().field("l_", 1e-7, 1e-12).field("j", 1e-7, 1e-12);
    check_or_bless(&golden_path("pinn_laplace_seeded"), &snap, &policy).unwrap();
}
