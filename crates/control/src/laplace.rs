//! End-to-end Laplace control runs (paper §3.1, figs. 3a/3b, Table 1)
//! through [`crate::api::execute_on`]: DAL, DP and finite differences
//! under Adam with the paper's schedule, and the second-order optimizers.

#[cfg(test)]
mod tests {
    use crate::api::{execute_on, OptimizerKind, Problem, RunCtx, RunSpec, SpecRun, Strategy};
    use linalg::DVec;
    use pde::{analytic, LaplaceControlProblem};

    /// A Laplace run at Table 1's `lr = 1e-2`, history every 5 iterations.
    fn quick_spec(strategy: Strategy, iterations: usize) -> RunSpec {
        RunSpec::laplace()
            .strategy(strategy)
            .iterations(iterations)
            .lr(1e-2)
            .log_every(5)
            .build()
    }

    fn run_on(p: &LaplaceControlProblem, spec: &RunSpec) -> SpecRun {
        execute_on(Problem::Laplace(p), spec, &RunCtx::unchecked()).unwrap()
    }

    fn with_optimizer(mut spec: RunSpec, optimizer: OptimizerKind) -> RunSpec {
        spec.optimizer = optimizer;
        spec
    }

    #[test]
    fn dp_drives_cost_down_by_orders_of_magnitude() {
        let p = LaplaceControlProblem::new(14).unwrap();
        let j0 = p.cost(&DVec::zeros(p.n_controls())).unwrap();
        let run = run_on(&p, &quick_spec(Strategy::Dp, 200));
        assert!(
            run.report.final_cost < 1e-3 * j0,
            "DP: J0 = {j0:.3e} -> {:.3e}",
            run.report.final_cost
        );
    }

    #[test]
    fn method_ranking_matches_paper_fig3b() {
        // Paper fig. 3b / Table 3: DP reaches a far lower cost than DAL at
        // the same iteration count (2.2e-9 vs 4.6e-3 at paper scale).
        let p = LaplaceControlProblem::new(14).unwrap();
        let dp = run_on(&p, &quick_spec(Strategy::Dp, 150));
        let dal = run_on(&p, &quick_spec(Strategy::Dal, 150));
        assert!(
            dp.report.final_cost < 0.5 * dal.report.final_cost,
            "DP {:.3e} not clearly below DAL {:.3e}",
            dp.report.final_cost,
            dal.report.final_cost
        );
        // DAL still descends from the zero-control cost.
        let j0 = p.cost(&DVec::zeros(p.n_controls())).unwrap();
        assert!(dal.report.final_cost < j0);
    }

    #[test]
    fn fd_gradient_run_matches_dp_run_closely() {
        // FD approximates the same discrete gradient as DP; trajectories
        // should end at nearly the same cost.
        let p = LaplaceControlProblem::new(12).unwrap();
        let dp = run_on(&p, &quick_spec(Strategy::Dp, 80));
        let fd = run_on(&p, &quick_spec(Strategy::FiniteDiff, 80));
        let ratio = fd.report.final_cost / dp.report.final_cost.max(1e-300);
        assert!(
            (0.2..5.0).contains(&ratio),
            "FD {:.3e} vs DP {:.3e}",
            fd.report.final_cost,
            dp.report.final_cost
        );
    }

    #[test]
    fn dp_recovers_the_analytic_minimiser_shape() {
        let p = LaplaceControlProblem::new(16).unwrap();
        let spec = RunSpec::laplace()
            .nx(16)
            .iterations(400)
            .lr(1e-2)
            .log_every(50)
            .build();
        let result = run_on(&p, &spec);
        // Compare mid-wall control values against the series minimiser
        // (endpoints are polluted by the Runge zone).
        let n = p.n_controls();
        let mut err = 0.0;
        let mut norm = 0.0;
        for i in n / 4..3 * n / 4 {
            let exact = analytic::series_c_star(p.control_x()[i]);
            err += (result.control[i] - exact) * (result.control[i] - exact);
            norm += exact * exact;
        }
        let rel = (err / norm).sqrt();
        assert!(rel < 0.25, "control shape error {rel:.3}");
    }

    #[test]
    fn newton_cg_dp_matches_adam_cost_in_far_fewer_iterations() {
        let p = LaplaceControlProblem::new(14).unwrap();
        let adam = run_on(&p, &quick_spec(Strategy::Dp, 200));
        let spec = with_optimizer(quick_spec(Strategy::Dp, 10), OptimizerKind::NewtonCg);
        let newton = run_on(&p, &spec);
        assert!(
            newton.report.final_cost <= adam.report.final_cost,
            "Newton-CG at 10 iters ({:.3e}) should beat Adam at 200 ({:.3e})",
            newton.report.final_cost,
            adam.report.final_cost
        );
    }

    #[test]
    fn newton_cg_dal_reaches_adam_dal_cost_quickly() {
        // The fig-3 DAL comparison: weighted-adjoint gradient + exact
        // discrete curvature reaches the Adam-DAL cost floor in a handful
        // of outer iterations.
        let p = LaplaceControlProblem::new(14).unwrap();
        let adam = run_on(&p, &quick_spec(Strategy::Dal, 150));
        let spec = with_optimizer(quick_spec(Strategy::Dal, 10), OptimizerKind::NewtonCg);
        let newton = run_on(&p, &spec);
        assert!(
            newton.report.final_cost <= adam.report.final_cost,
            "Newton-CG DAL at 10 iters ({:.3e}) vs Adam DAL at 150 ({:.3e})",
            newton.report.final_cost,
            adam.report.final_cost
        );
    }

    #[test]
    fn lbfgs_dp_descends_orders_of_magnitude() {
        let p = LaplaceControlProblem::new(14).unwrap();
        let j0 = p.cost(&DVec::zeros(p.n_controls())).unwrap();
        let spec = with_optimizer(quick_spec(Strategy::Dp, 40), OptimizerKind::Lbfgs);
        let run = run_on(&p, &spec);
        assert!(
            run.report.final_cost < 1e-3 * j0,
            "L-BFGS: J0 = {j0:.3e} -> {:.3e}",
            run.report.final_cost
        );
    }

    #[test]
    fn second_order_history_never_increases() {
        // Both safeguarded methods only accept non-increasing trial costs.
        // The absolute 1e-18 slack covers machine-zero wobble: once the
        // cost hits the ~1e-27 floor, trust-region trials are rejected by
        // rounding noise and the lr-fallback step can move the recorded
        // cost by a few 1e-28 — far below the ~1e-15 convergence plateau
        // this test is meant to protect.
        let p = LaplaceControlProblem::new(12).unwrap();
        for kind in [OptimizerKind::NewtonCg, OptimizerKind::Lbfgs] {
            let mut spec = with_optimizer(quick_spec(Strategy::Dp, 15), kind);
            spec.log_every = 1;
            let run = run_on(&p, &spec);
            let h = &run.report.history.entries;
            for pair in h.windows(2) {
                assert!(
                    pair[1].cost <= pair[0].cost * (1.0 + 1e-12) + 1e-18,
                    "{}: cost rose {:.6e} -> {:.6e}",
                    kind.name(),
                    pair[0].cost,
                    pair[1].cost
                );
            }
        }
    }

    #[test]
    fn history_is_recorded_and_monotone_enough() {
        let p = LaplaceControlProblem::new(12).unwrap();
        let result = run_on(&p, &quick_spec(Strategy::Dp, 60));
        let h = &result.report.history;
        assert!(h.entries.len() >= 10);
        // Final entries should be far below the first.
        assert!(h.final_cost() < 0.1 * h.entries[0].cost);
    }
}
