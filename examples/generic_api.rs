//! The pluggable control API: run four different problems — dense Laplace
//! (DP), sparse RBF-FD Laplace (DP), heat-equation terminal control and a
//! user-defined toy objective — through one generic Adam driver.
//!
//! ```sh
//! cargo run --release --example generic_api
//! ```

use meshfree_oc::control::api::{
    optimize, ControlError, ControlObjective, HeatObjective, LaplaceDpObjective, OptimizeOpts,
};
use meshfree_oc::linalg::DVec;
use meshfree_oc::pde::heat::{HeatConfig, HeatControlProblem};
use meshfree_oc::pde::LaplaceControlProblem;

/// A user-defined objective: fit a control to a fixed profile under an L2
/// penalty — three lines of glue and it runs on the same driver.
struct Ridge {
    target: DVec,
}

impl ControlObjective for Ridge {
    fn n_controls(&self) -> usize {
        self.target.len()
    }
    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
        Ok((c - &self.target).norm2().powi(2) + 0.1 * c.norm2().powi(2))
    }
    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
        let j = self.cost(c)?;
        let g = DVec::from_fn(c.len(), |i| 2.0 * (c[i] - self.target[i]) + 0.2 * c[i]);
        Ok((j, g))
    }
    fn name(&self) -> &str {
        "ridge-toy"
    }
}

fn main() {
    let opts = OptimizeOpts {
        iterations: 150,
        lr: 2e-2,
        log_every: 30,
        ..Default::default()
    };

    println!(
        "{:<18} {:>12} {:>12} {:>9}",
        "objective", "J_initial", "J_final", "time(s)"
    );

    // 1. Dense Laplace, DP gradients.
    let lp = LaplaceControlProblem::new(16).expect("laplace");
    let mut obj = LaplaceDpObjective(&lp);
    let j0 = obj.cost(&obj.initial_control()).expect("cost");
    let (rep, _) = optimize(&mut obj, &opts).expect("run");
    println!(
        "{:<18} {j0:>12.3e} {:>12.3e} {:>9.2}",
        rep.method, rep.final_cost, rep.wall_s
    );

    // 2. Sparse RBF-FD Laplace, DP gradients through the sparse factor.
    let sp = LaplaceControlProblem::new_sparse(16).expect("sparse laplace");
    let mut obj = LaplaceDpObjective(&sp);
    let j0 = obj.cost(&obj.initial_control()).expect("cost");
    let (rep, _) = optimize(&mut obj, &opts).expect("run");
    println!(
        "{:<18} {j0:>12.3e} {:>12.3e} {:>9.2}   ({} solver bytes vs {} dense)",
        format!("{} sparse", rep.method),
        rep.final_cost,
        rep.wall_s,
        sp.backend().memory_bytes(),
        16 * 16 * 16 * 16 * 8
    );

    // 3. Heat-equation terminal control, DP through time.
    let hp = HeatControlProblem::new(HeatConfig {
        nx: 12,
        n_steps: 25,
        ..Default::default()
    })
    .expect("heat");
    let mut obj = HeatObjective(&hp);
    let j0 = obj.cost(&obj.initial_control()).expect("cost");
    let (rep, _) = optimize(&mut obj, &opts).expect("run");
    println!(
        "{:<18} {j0:>12.3e} {:>12.3e} {:>9.2}",
        rep.method, rep.final_cost, rep.wall_s
    );

    // 4. A user-defined objective.
    let mut obj = Ridge {
        target: DVec::from_fn(8, |i| (i as f64 * 0.8).sin()),
    };
    let j0 = obj.cost(&obj.initial_control()).expect("cost");
    let (rep, _) = optimize(&mut obj, &opts).expect("run");
    println!(
        "{:<18} {j0:>12.3e} {:>12.3e} {:>9.2}",
        rep.method, rep.final_cost, rep.wall_s
    );
}
