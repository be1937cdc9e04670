//! Regenerates figure 1: qualitative flow fields for the three methods'
//! optimized controls.
//!
//! The paper's fig. 1 shows streamline plots for DP, DAL and PINN; here the
//! velocity fields are evaluated on a regular grid and written to CSV (for
//! plotting), and the figure's *caption claim* — "PINN achieves good
//! control at the expense of first principles" — is quantified by
//! evaluating the PINN's fields through the RBF solver's momentum and
//! continuity residuals, compared with the DP solution's residuals.
//!
//! Usage: `fig1_flowfields [h] [iterations] [pinn_epochs]`
//! (defaults 0.12, 50, 1200).

use bench::write_csv;
use control::pinn_ns::{NsPinn, NsPinnConfig};
use control::{execute_on, Problem, RunCtx, RunSpec, Strategy};
use geometry::generators::ChannelConfig;
use linalg::DVec;
use pde::{NsConfig, NsSolver, NsState};

/// Interpolates nodal values to the nearest node of each grid point (the
/// fields are for qualitative plots only).
fn sample_nearest(solver: &NsSolver, f: &DVec, pts: &[(f64, f64)]) -> Vec<f64> {
    pts.iter()
        .map(|&(x, y)| {
            let mut best = 0;
            let mut bd = f64::INFINITY;
            for i in 0..solver.nodes().len() {
                let p = solver.nodes().point(i);
                let d = (p.x - x) * (p.x - x) + (p.y - y) * (p.y - y);
                if d < bd {
                    bd = d;
                    best = i;
                }
            }
            f[best]
        })
        .collect()
}

/// Momentum + continuity residual RMS of arbitrary nodal fields, evaluated
/// with the RBF solver's *physical-first-principles* operators.
fn first_principles_residual(solver: &NsSolver, state: &NsState, c: &DVec) -> (f64, f64) {
    (
        solver.momentum_residual(state, c),
        solver.divergence_norm(state),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let h: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.12);
    let iterations: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(50);
    let pinn_epochs: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1200);
    println!("== fig 1 (qualitative flow fields): h = {h} ==\n");

    let solver = NsSolver::new(NsConfig {
        channel: ChannelConfig {
            h,
            ..Default::default()
        },
        re: 100.0,
        ..Default::default()
    })
    .expect("solver");

    let run = |strategy: Strategy, refinements: usize| {
        let spec = RunSpec::navier_stokes()
            .resolution(h)
            .reynolds(100.0)
            .slot_velocity(solver.cfg().slot_velocity)
            .strategy(strategy)
            .iterations(iterations)
            .refinements(refinements)
            .lr(1e-1)
            .log_every(10)
            .build();
        execute_on(Problem::NavierStokes(&solver), &spec, &RunCtx::unchecked())
            .unwrap_or_else(|e| panic!("{}: {e}", strategy.name()))
    };
    let dp = run(Strategy::Dp, 10);
    let dal = run(Strategy::Dal, 3);
    let dp_state = dp.ns_state.as_ref().expect("NS runs return their state");
    let dal_state = dal.ns_state.as_ref().expect("NS runs return their state");

    let mut pinn = NsPinn::new(NsPinnConfig {
        channel: solver.cfg().channel.clone(),
        re: 100.0,
        slot_velocity: solver.cfg().slot_velocity,
        epochs_step1: pinn_epochs,
        ..Default::default()
    });
    pinn.train(1.0, pinn_epochs, true);

    // Velocity fields on a plotting grid.
    let (nx, ny) = (45, 30);
    let lx = solver.cfg().channel.lx;
    let ly = solver.cfg().channel.ly;
    let mut pts = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            pts.push((
                lx * (i as f64 + 0.5) / nx as f64,
                ly * (j as f64 + 0.5) / ny as f64,
            ));
        }
    }
    let u_dp = sample_nearest(&solver, &dp_state.u, &pts);
    let v_dp = sample_nearest(&solver, &dp_state.v, &pts);
    let u_dal = sample_nearest(&solver, &dal_state.u, &pts);
    let v_dal = sample_nearest(&solver, &dal_state.v, &pts);
    let (u_pinn, v_pinn, _) = pinn.fields_at(&pts);
    let rows: Vec<Vec<f64>> = (0..pts.len())
        .map(|k| {
            vec![
                pts[k].0, pts[k].1, u_dp[k], v_dp[k], u_dal[k], v_dal[k], u_pinn[k], v_pinn[k],
            ]
        })
        .collect();
    let p = write_csv(
        "results/fig1_flowfields.csv",
        &[
            "x", "y", "u_dp", "v_dp", "u_dal", "v_dal", "u_pinn", "v_pinn",
        ],
        &rows,
    )
    .expect("csv");
    println!("wrote {p}\n");

    // First-principles check: plug the PINN's own fields into the RBF
    // solver's residuals and compare with the DP state.
    let pinn_nodal_pts: Vec<(f64, f64)> =
        solver.nodes().points().iter().map(|p| (p.x, p.y)).collect();
    let (pu, pv, pp) = pinn.fields_at(&pinn_nodal_pts);
    let pinn_state = NsState {
        u: pu,
        v: pv,
        p: pp,
    };
    let (mom_dp, div_dp) = first_principles_residual(&solver, dp_state, &dp.control);
    let pinn_c = pinn.control_values(solver.inflow_y());
    let (mom_pinn, div_pinn) = first_principles_residual(&solver, &pinn_state, &pinn_c);
    println!("-- first principles (RBF residuals of each method's fields) --");
    println!("DP  : momentum RMS {mom_dp:.3e}   divergence RMS {div_dp:.3e}");
    println!("PINN: momentum RMS {mom_pinn:.3e}   divergence RMS {div_pinn:.3e}");
    println!(
        "\npaper fig. 1 caption: \"PINN achieves good control at the expense of first \
         principles\" — reproduced iff the PINN rows are orders of magnitude larger. \
         Ratio: momentum x{:.1}, divergence x{:.1}",
        mom_pinn / mom_dp.max(1e-300),
        div_pinn / div_dp.max(1e-300)
    );
    println!(
        "\nfinal J:   DP {:.3e}   DAL {:.3e}",
        dp.report.final_cost, dal.report.final_cost
    );
}
