//! Regenerates figure 4 (b, c, d): the Navier–Stokes control problem.
//!
//! * fig 4b — cost `J` versus iteration for DAL (k = 3), DP (k = 10) and
//!   the PINN (epoch-strided, as in the paper's footnote about "strided").
//! * fig 4c — the inflow controls found by each method.
//! * fig 4d — the outflow profiles against the parabolic target.
//!
//! Usage: `fig4_ns [h] [iterations] [re] [pinn_epochs]`
//! (defaults 0.09, 80, 100, 3000).

use bench::write_csv;
use control::ns::initial_control;
use control::pinn_ns::{NsPinn, NsPinnConfig};
use control::{execute_on, Problem, RunCtx, RunSpec, Strategy};
use geometry::generators::ChannelConfig;
use pde::analytic::poiseuille;
use pde::{NsConfig, NsSolver};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let h: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.09);
    let iterations: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(80);
    let re: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(100.0);
    let pinn_epochs: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(3000);
    println!("== fig 4 (Navier-Stokes control): h = {h}, Re = {re}, {iterations} iterations ==\n");

    let solver = NsSolver::new(NsConfig {
        channel: ChannelConfig {
            h,
            ..Default::default()
        },
        re,
        ..Default::default()
    })
    .expect("solver assembly");
    println!(
        "cloud: {} nodes ({} interior, {} inflow controls)   [paper: 1385 GMSH nodes]\n",
        solver.nodes().len(),
        solver.nodes().n_interior(),
        solver.n_controls()
    );

    // DAL with k = 3 and DP with k = 10 refinements, per Table 2.
    let run = |strategy: Strategy, refinements: usize| {
        let spec = RunSpec::navier_stokes()
            .resolution(h)
            .reynolds(re)
            .slot_velocity(solver.cfg().slot_velocity)
            .strategy(strategy)
            .iterations(iterations)
            .refinements(refinements)
            .lr(1e-1) // Table 2
            .log_every((iterations / 40).max(1))
            .build();
        execute_on(Problem::NavierStokes(&solver), &spec, &RunCtx::unchecked())
            .unwrap_or_else(|e| panic!("{} run: {e}", strategy.name()))
    };
    let dal = run(Strategy::Dal, 3);
    let dp = run(Strategy::Dp, 10);
    let dal_state = dal.ns_state.as_ref().expect("NS runs return their state");
    let dp_state = dp.ns_state.as_ref().expect("NS runs return their state");

    // PINN with the two-step search reduced to the paper's winning ω* = 1.
    let mut pinn = NsPinn::new(NsPinnConfig {
        channel: solver.cfg().channel.clone(),
        re,
        slot_velocity: solver.cfg().slot_velocity,
        epochs_step1: pinn_epochs,
        epochs_step2: pinn_epochs / 2,
        ..Default::default()
    });
    let pinn_hist = pinn.train(1.0, pinn_epochs, true);
    let pinn_step1 = pinn.loss_parts();
    pinn.reset_field_network(7);
    pinn.train(0.0, pinn_epochs / 2, false);
    let pinn_parts = pinn.loss_parts();

    // ---- fig 4b ----
    println!("-- fig 4b: J vs iteration --");
    for r in [&dal.report, &dp.report] {
        let series: Vec<String> = r
            .history
            .entries
            .iter()
            .step_by((r.history.entries.len() / 8).max(1))
            .map(|e| format!("({}, {:.2e})", e.iter, e.cost))
            .collect();
        println!("{:5}: {}", r.method, series.join(" "));
    }
    let pinn_series: Vec<String> = pinn_hist
        .entries
        .iter()
        .step_by((pinn_hist.entries.len() / 8).max(1))
        .map(|e| format!("({}, {:.2e})", e.iter, e.cost))
        .collect();
    println!("PINN : {}", pinn_series.join(" "));
    println!(
        "\nfinal J:   DAL {:.3e}   DP {:.3e}   PINN {:.3e} (step-1 network: {:.3e})",
        dal.report.final_cost, dp.report.final_cost, pinn_parts.j, pinn_step1.j
    );
    println!("paper (1385 nodes / Table 3): DAL 8.2e-2 (fails), PINN 1.0e-3, DP 2.6e-4\n");
    let rows_b: Vec<Vec<f64>> = dp
        .report
        .history
        .entries
        .iter()
        .zip(dal.report.history.entries.iter())
        .map(|(d, a)| vec![d.iter as f64, d.cost, a.cost])
        .collect();
    write_csv(
        "results/fig4b_convergence.csv",
        &["iter", "J_dp", "J_dal"],
        &rows_b,
    )
    .expect("csv");

    // ---- fig 4c: inflow controls ----
    let ys = solver.inflow_y();
    let c0 = initial_control(&solver);
    let pinn_c = pinn.control_values(ys);
    let rows_c: Vec<Vec<f64>> = (0..ys.len())
        .map(|i| vec![ys[i], c0[i], dp.control[i], dal.control[i], pinn_c[i]])
        .collect();
    println!("-- fig 4c: inflow controls c(y) [y, initial, DP, DAL, PINN] --");
    for r in &rows_c {
        println!(
            "y={:.3}  init={:+.3}  dp={:+.3}  dal={:+.3}  pinn={:+.3}",
            r[0], r[1], r[2], r[3], r[4]
        );
    }
    write_csv(
        "results/fig4c_controls.csv",
        &["y", "c_init", "c_dp", "c_dal", "c_pinn"],
        &rows_c,
    )
    .expect("csv");

    // ---- fig 4d: outflow profiles ----
    let (u_dp, v_dp) = solver.outflow_profile(dp_state);
    let (u_dal, v_dal) = solver.outflow_profile(dal_state);
    let lx = solver.cfg().channel.lx;
    let out_pts: Vec<(f64, f64)> = solver.outflow_y().iter().map(|&y| (lx, y)).collect();
    let (u_pinn, v_pinn, _) = pinn.fields_at(&out_pts);
    println!("\n-- fig 4d: outflow profiles u(Lx, y) vs parabolic target --");
    let mut rows_d = Vec::new();
    for (k, &y) in solver.outflow_y().iter().enumerate() {
        let t = poiseuille(y, solver.cfg().channel.ly);
        println!(
            "y={:.3}  target={:.3}  dp={:.3}  dal={:.3}  pinn={:.3}  (v: dp={:+.3} pinn={:+.3})",
            y, t, u_dp[k], u_dal[k], u_pinn[k], v_dp[k], v_pinn[k]
        );
        rows_d.push(vec![
            y, t, u_dp[k], u_dal[k], u_pinn[k], v_dp[k], v_dal[k], v_pinn[k],
        ]);
    }
    write_csv(
        "results/fig4d_outflow.csv",
        &[
            "y", "target", "u_dp", "u_dal", "u_pinn", "v_dp", "v_dal", "v_pinn",
        ],
        &rows_d,
    )
    .expect("csv");
    println!("\nwrote results/fig4b_convergence.csv, fig4c_controls.csv, fig4d_outflow.csv");
}
