//! Prints Tables 1 and 2 — the hyperparameter summaries — side by side:
//! the paper's values and this reproduction's defaults.
//!
//! The reproduction rows are read from the code's own defaults
//! ([`RunSpec::laplace`], [`RunSpec::navier_stokes`], [`NsConfig`],
//! [`PinnConfig`], [`NsPinnConfig`]), so they follow any change there.
//! (These tables are configuration, not measurements; `table3_perf`
//! regenerates the performance table.)

use control::api::{ProblemSpec, RunSpec};
use control::pinn::PinnConfig;
use control::pinn_ns::NsPinnConfig;
use pde::NsConfig;
use rbf::RbfKernel;

fn row(name: &str, dal: &str, pinn: &str, dp: &str) {
    println!("{name:<28} {dal:>14} {pinn:>14} {dp:>14}");
}

/// A row whose DAL and DP entries are the same (the RBF strategies share
/// one spec).
fn row_rbf(name: &str, rbf: &str, pinn: &str) {
    row(name, rbf, pinn, rbf);
}

/// Hidden widths as `depth x width`, or `w1-w2-…` when they differ.
fn widths(hidden: &[usize]) -> String {
    match hidden {
        [w, rest @ ..] if rest.iter().all(|x| x == w) => format!("{} x {w}", hidden.len()),
        _ => hidden
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("-"),
    }
}

/// An epoch or iteration count, in thousands from 1000 up.
fn count(n: usize) -> String {
    if n >= 1000 {
        format!("{}k", n as f64 / 1000.0)
    } else {
        n.to_string()
    }
}

fn kernel(k: RbfKernel) -> String {
    match k {
        RbfKernel::Phs3 => "PHS r^3".into(),
        other => format!("{other:?}"),
    }
}

fn main() {
    let schedule = "/10 @50,75%"; // `opt::Schedule::paper_decay`, every strategy

    println!("== Table 1: Laplace problem hyperparameters ==\n");
    println!("{:<28} {:>14} {:>14} {:>14}", "", "DAL", "PINN", "DP");
    println!("--- paper (100 x 100 grid) ---");
    row("init. learning rate", "1e-2", "1e-3", "1e-2");
    row("epochs", "-", "20k", "-");
    row("network architecture", "-", "3 x 30", "-");
    row("iterations", "500", "-", "500");
    row("point cloud size", "1e4", "1e4", "1e4");
    row("max poly degree n", "1", "-", "1");
    println!("--- this reproduction (defaults; all sizes are parameters) ---");
    let lap = RunSpec::laplace().build();
    let ProblemSpec::Laplace { nx, .. } = lap.problem else {
        unreachable!("RunSpec::laplace builds a Laplace spec")
    };
    let pinn = PinnConfig::default();
    row_rbf(
        "init. learning rate",
        &format!("{:e}", lap.lr),
        &format!("{:e}", pinn.lr),
    );
    row_rbf("epochs", "-", &count(pinn.epochs_step1 + pinn.epochs_step2));
    row_rbf("network architecture", "-", &widths(&pinn.hidden));
    row_rbf("iterations", &count(lap.iterations), "-");
    // The PINN samples four walls of `n_boundary` points each.
    row_rbf(
        "point cloud size",
        &format!("{nx}x{nx}"),
        &format!("{}+4x{}", pinn.n_interior, pinn.n_boundary),
    );
    // `LaplaceControlProblem::new` fixes the paper's kernel and degree.
    row_rbf("max poly degree n", "1", "-");
    row_rbf("kernel", &kernel(RbfKernel::Phs3), "-");
    row_rbf("schedule", schedule, schedule);

    println!("\n== Table 2: Navier-Stokes problem hyperparameters ==\n");
    println!("{:<28} {:>14} {:>14} {:>14}", "", "DAL", "PINN", "DP");
    println!("--- paper (1385-node GMSH cloud, Re = 100) ---");
    row("init. learning rate", "1e-1", "1e-3", "1e-1");
    row("network architecture", "-", "5 x 50", "-");
    row("epochs", "-", "100k", "-");
    row("iterations", "350", "-", "350");
    row("refinements k", "3", "-", "10");
    row("point cloud size", "1385", "1385", "1385");
    row("max poly degree n", "1", "-", "1");
    println!("--- this reproduction (defaults) ---");
    let ns = RunSpec::navier_stokes().build();
    let ProblemSpec::NavierStokes {
        h, re, refinements, ..
    } = ns.problem
    else {
        unreachable!("RunSpec::navier_stokes builds a Navier-Stokes spec")
    };
    let ns_cfg = NsConfig::default();
    let ns_pinn = NsPinnConfig::default();
    row_rbf(
        "init. learning rate",
        &format!("{:e}", ns.lr),
        &format!("{:e}", ns_pinn.lr),
    );
    row_rbf("network architecture", "-", &widths(&ns_pinn.hidden));
    row_rbf(
        "epochs",
        "-",
        &count(ns_pinn.epochs_step1 + ns_pinn.epochs_step2),
    );
    row_rbf("iterations", &count(ns.iterations), "-");
    row_rbf("refinements k", &refinements.to_string(), "-");
    row_rbf(
        "Reynolds number",
        &format!("{re}"),
        &format!("{}", ns_pinn.re),
    );
    // The NS PINN samples inflow, outflow and both walls (slots included).
    row_rbf(
        "point cloud size",
        &format!("~h={h}"),
        &format!("{}+4x{}", ns_pinn.n_interior, ns_pinn.n_boundary),
    );
    row_rbf("max poly degree n", &ns_cfg.degree.to_string(), "-");
    row_rbf("kernel", &kernel(ns_cfg.kernel), "-");
    row(
        "stabilisation",
        &format!("nu+={}h", ns_cfg.stab),
        "none",
        &format!("nu+={}h", ns_cfg.stab),
    );
    println!(
        "\nNote: the PINN solves the physical PDE (nu = 1/Re); the RBF solvers add the\n\
         artificial upwind viscosity documented in DESIGN.md section 5 (coarse-cloud\n\
         stabilisation). The figure binaries override some defaults per run (e.g.\n\
         fig4_ns runs DAL with k = 3 and DP with k = 10 at Re = 100)."
    );
}
