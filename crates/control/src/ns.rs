//! Navier–Stokes optimal control (paper §3.2, fig. 4, Table 2).
//!
//! Runs go through [`crate::api::execute_on`]: Adam (Table 2: initial rate
//! `1e-1`, 350 iterations at paper scale) on a warm-started flow state,
//! starting from the paper's parabolic inflow profile `4y(L−y)/L²`.

use linalg::DVec;
use pde::analytic::poiseuille;
use pde::NsSolver;

/// The paper's initial control: the parabolic profile.
pub fn initial_control(solver: &NsSolver) -> DVec {
    let ly = solver.cfg().channel.ly;
    DVec(
        solver
            .inflow_y()
            .iter()
            .map(|&y| poiseuille(y, ly))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{execute_on, Problem, RunCtx, RunSpec, SpecRun, Strategy};
    use geometry::generators::ChannelConfig;
    use pde::NsConfig;

    fn solver(re: f64) -> NsSolver {
        NsSolver::new(NsConfig {
            channel: ChannelConfig {
                h: 0.15,
                ..Default::default()
            },
            re,
            slot_velocity: 0.3,
            ..Default::default()
        })
        .unwrap()
    }

    /// 25 Adam iterations at `lr = 5e-2`, 4 refinements per gradient.
    fn quick(s: &NsSolver, strategy: Strategy, initial_scale: f64) -> SpecRun {
        let spec = RunSpec::navier_stokes()
            .resolution(0.15)
            .reynolds(s.cfg().re)
            .strategy(strategy)
            .iterations(25)
            .refinements(4)
            .lr(5e-2)
            .log_every(5)
            .initial_scale(initial_scale)
            .build();
        execute_on(Problem::NavierStokes(s), &spec, &RunCtx::unchecked()).unwrap()
    }

    #[test]
    fn dp_improves_over_initial_parabola() {
        let s = solver(50.0);
        let c0 = initial_control(&s);
        let st0 = s.solve(&c0, 12, None).unwrap();
        let j0 = s.cost(&st0);
        let result = quick(&s, Strategy::Dp, 1.0);
        assert!(
            result.report.final_cost < 0.6 * j0,
            "DP did not improve: {j0:.3e} -> {:.3e}",
            result.report.final_cost
        );
    }

    #[test]
    fn dal_descends_from_a_poor_control_at_low_re() {
        // Away from the optimum the OTD gradient aligns with the true
        // gradient (cos ≈ +0.8 at Re = 10) and DAL makes real progress; near
        // the optimum it stalls/drifts — the paper's fig. 4b failure mode.
        let s = solver(10.0);
        let c0 = initial_control(&s).scaled(0.3);
        let st0 = s.solve(&c0, 12, None).unwrap();
        let j0 = s.cost(&st0);
        let result = quick(&s, Strategy::Dal, 0.3);
        assert!(
            result.report.final_cost < 0.7 * j0,
            "DAL did not descend from a poor control: {j0:.3e} -> {:.3e}",
            result.report.final_cost
        );
    }

    #[test]
    fn dal_stalls_near_the_optimum_while_dp_does_not() {
        // Starting at the near-optimal parabola, DAL's biased gradient
        // cannot reduce J further (it typically increases it slightly),
        // while DP keeps descending — the headline fig. 4b contrast.
        let s = solver(10.0);
        let c0 = initial_control(&s);
        let st0 = s.solve(&c0, 12, None).unwrap();
        let j0 = s.cost(&st0);
        let dal = quick(&s, Strategy::Dal, 1.0);
        let dp = quick(&s, Strategy::Dp, 1.0);
        assert!(dp.report.final_cost < j0, "DP failed to improve");
        assert!(
            dp.report.final_cost < dal.report.final_cost,
            "DP {:.3e} should beat DAL {:.3e}",
            dp.report.final_cost,
            dal.report.final_cost
        );
    }

    #[test]
    fn dp_beats_dal_as_in_fig4b() {
        let s = solver(50.0);
        let dp = quick(&s, Strategy::Dp, 1.0);
        let dal = quick(&s, Strategy::Dal, 1.0);
        assert!(
            dp.report.final_cost <= dal.report.final_cost * 1.01,
            "DP {:.3e} vs DAL {:.3e}",
            dp.report.final_cost,
            dal.report.final_cost
        );
    }

    #[test]
    fn optimized_outflow_closer_to_parabola_than_uncontrolled() {
        let s = solver(50.0);
        let result = quick(&s, Strategy::Dp, 1.0);
        let (u_out, _) = s.outflow_profile(result.ns_state.as_ref().unwrap());
        let mut err_opt = 0.0f64;
        for (k, &y) in s.outflow_y().iter().enumerate() {
            err_opt = err_opt.max((u_out[k] - poiseuille(y, 1.0)).abs());
        }
        // Uncontrolled (initial parabola, slots on).
        let st0 = s.solve(&initial_control(&s), 12, None).unwrap();
        let (u0, _) = s.outflow_profile(&st0);
        let mut err0 = 0.0f64;
        for (k, &y) in s.outflow_y().iter().enumerate() {
            err0 = err0.max((u0[k] - poiseuille(y, 1.0)).abs());
        }
        assert!(
            err_opt < err0,
            "outflow error not reduced: {err0:.3} -> {err_opt:.3}"
        );
    }
}
