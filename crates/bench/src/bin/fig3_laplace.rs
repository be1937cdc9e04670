//! Regenerates figure 3 (a, b, f, g): the Laplace control problem.
//!
//! * fig 3a — the optimal controls found by DAL and DP against the
//!   analytic minimisers (the paper's printed formula *and* the
//!   self-consistent series minimiser — see `pde::analytic`).
//! * fig 3b — the cost `J` versus iteration for both methods (+ the FD
//!   baseline).
//! * fig 3f/3g — the optimized state versus the analytic state, reported as
//!   L2/L∞ error norms on an evaluation grid.
//!
//! Usage: `fig3_laplace [nx] [iterations]` (defaults 32, 400).
//! CSV output lands in `results/`.

use bench::{print_series, write_csv};
use control::{execute_on, Problem, RunCtx, RunSpec, Strategy};
use geometry::Point2;
use linalg::DVec;
use pde::{analytic, LaplaceControlProblem};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nx: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let iterations: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(400);
    println!("== fig 3 (Laplace control): nx = {nx}, iterations = {iterations} ==\n");

    let problem = LaplaceControlProblem::new(nx).expect("problem assembly");
    let run = |strategy: Strategy, n: usize| {
        let spec = RunSpec::laplace()
            .nx(nx)
            .strategy(strategy)
            .iterations(n)
            .lr(1e-2) // Table 1
            .log_every((iterations / 60).max(1))
            .build();
        execute_on(Problem::Laplace(&problem), &spec, &RunCtx::unchecked())
            .unwrap_or_else(|e| panic!("{} run: {e}", strategy.name()))
    };

    let dp = run(Strategy::Dp, iterations);
    let dal = run(Strategy::Dal, iterations);
    let fd = run(Strategy::FiniteDiff, iterations.min(100));

    // ---- fig 3b: convergence curves ----
    println!("-- fig 3b: J vs iteration --");
    for r in [&dal.report, &dp.report, &fd.report] {
        let series: Vec<String> = r
            .history
            .entries
            .iter()
            .step_by((r.history.entries.len() / 8).max(1))
            .map(|e| format!("({}, {:.2e})", e.iter, e.cost))
            .collect();
        println!("{:4}: {}", r.method, series.join(" "));
    }
    println!(
        "\nfinal J:   DAL {:.3e}   DP {:.3e}   FD {:.3e}",
        dal.report.final_cost, dp.report.final_cost, fd.report.final_cost
    );
    println!("paper (100x100, 500 iters / Table 3): DAL 4.6e-3, DP 2.2e-9\n");
    let rows_b: Vec<Vec<f64>> = dp
        .report
        .history
        .entries
        .iter()
        .zip(dal.report.history.entries.iter())
        .map(|(d, a)| vec![d.iter as f64, d.cost, a.cost])
        .collect();
    let p = write_csv(
        "results/fig3b_convergence.csv",
        &["iter", "J_dp", "J_dal"],
        &rows_b,
    )
    .expect("csv");
    println!("wrote {p}\n");

    // ---- fig 3a: control profiles ----
    let xs = problem.control_x();
    let rows_a: Vec<Vec<f64>> = (0..xs.len())
        .map(|i| {
            vec![
                xs[i],
                dp.control[i],
                dal.control[i],
                analytic::series_c_star(xs[i]),
                analytic::paper_c_star(xs[i]),
            ]
        })
        .collect();
    print_series(
        "fig 3a: controls c(x) [x, DP, DAL, series c*, paper printed c*]",
        &["x", "c_dp", "c_dal", "c_series", "c_paper"],
        &rows_a
            .iter()
            .step_by((xs.len() / 12).max(1))
            .cloned()
            .collect::<Vec<_>>(),
    );
    let p = write_csv(
        "results/fig3a_controls.csv",
        &["x", "c_dp", "c_dal", "c_series", "c_paper"],
        &rows_a,
    )
    .expect("csv");
    println!("wrote {p}\n");

    // ---- fig 3f/3g: state error vs the analytic state ----
    let ne = 40;
    let mut pts = Vec::new();
    for i in 0..ne {
        for j in 0..ne {
            pts.push(Point2::new(
                (i as f64 + 0.5) / ne as f64,
                (j as f64 + 0.5) / ne as f64,
            ));
        }
    }
    let coeffs = problem.solve_coeffs(&dp.control).expect("solve");
    let state = problem.eval_state(&coeffs, &pts);
    let exact = DVec::from_fn(pts.len(), |k| analytic::series_u_star(pts[k].x, pts[k].y));
    let err = &state - &exact;
    println!("-- fig 3f/3g: DP state vs analytic state --");
    println!(
        "L2 error = {:.3e}   Linf error = {:.3e}   (field L2 norm {:.3e})",
        err.rms(),
        err.norm_inf(),
        exact.rms()
    );
    let rows_fg: Vec<Vec<f64>> = pts
        .iter()
        .enumerate()
        .map(|(k, q)| vec![q.x, q.y, state[k], exact[k], err[k].abs()])
        .collect();
    let p = write_csv(
        "results/fig3fg_state_error.csv",
        &["x", "y", "u_dp", "u_exact", "abs_err"],
        &rows_fg,
    )
    .expect("csv");
    println!("wrote {p}");
}
