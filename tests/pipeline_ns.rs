//! End-to-end integration: the Navier–Stokes control pipeline — channel
//! cloud generation, coupled Picard solver, DP tape, DAL adjoint, drivers.

use meshfree_oc::control::ns::initial_control;
use meshfree_oc::control::{execute_on, Problem, RunCtx, RunSpec, SpecRun, Strategy};
use meshfree_oc::geometry::generators::ChannelConfig;
use meshfree_oc::pde::analytic::poiseuille;
use meshfree_oc::pde::ns_dp::NsDp;
use meshfree_oc::pde::{NsConfig, NsSolver};

fn solver(re: f64, slots: f64) -> NsSolver {
    NsSolver::new(NsConfig {
        channel: ChannelConfig {
            h: 0.16,
            ..Default::default()
        },
        re,
        slot_velocity: slots,
        ..Default::default()
    })
    .expect("assembly")
}

/// An Adam run of `strategy` on `s` at `lr = 5e-2`, history every
/// `log_every` iterations.
fn run(
    s: &NsSolver,
    strategy: Strategy,
    iterations: usize,
    refinements: usize,
    log_every: usize,
    initial_scale: f64,
) -> SpecRun {
    let spec = RunSpec::navier_stokes()
        .resolution(0.16)
        .reynolds(s.cfg().re)
        .slot_velocity(s.cfg().slot_velocity)
        .strategy(strategy)
        .iterations(iterations)
        .refinements(refinements)
        .lr(5e-2)
        .log_every(log_every)
        .initial_scale(initial_scale)
        .build();
    execute_on(Problem::NavierStokes(s), &spec, &RunCtx::unchecked()).unwrap()
}

#[test]
fn dp_gradient_is_the_discrete_truth_end_to_end() {
    let s = solver(30.0, 0.25);
    let dp = NsDp::new(&s);
    let c = initial_control(&s).scaled(0.7);
    let k = 3;
    let (j, g, _) = dp.cost_and_grad(&c, k, None).unwrap();
    let (j_fd, g_fd) = dp.cost_and_grad_fd(&c, k, 1e-6).unwrap();
    assert!((j - j_fd).abs() < 1e-12 * (1.0 + j_fd.abs()));
    for i in 0..g.len() {
        assert!(
            (g[i] - g_fd[i]).abs() < 1e-5 * (1.0 + g_fd[i].abs()),
            "coordinate {i}: {} vs {}",
            g[i],
            g_fd[i]
        );
    }
}

#[test]
fn dp_optimization_reduces_cost_and_keeps_flow_divergence_free() {
    let s = solver(50.0, 0.3);
    let st0 = s.solve(&initial_control(&s), 10, None).unwrap();
    let j0 = s.cost(&st0);
    let result = run(&s, Strategy::Dp, 20, 4, 5, 1.0);
    assert!(
        result.report.final_cost < j0,
        "no improvement: {j0:.3e} -> {:.3e}",
        result.report.final_cost
    );
    let state = result.ns_state.as_ref().unwrap();
    assert!(s.divergence_norm(state) < 1e-8);
    // Boundary conditions still hold on the optimized state.
    for (j, &i) in s.inflow_idx().iter().enumerate() {
        assert!((state.u[i] - result.control[j]).abs() < 1e-9);
    }
}

#[test]
fn higher_re_makes_the_control_problem_harder_for_dal() {
    // The paper's §3.2 narrative, in miniature: DAL's gap to DP widens
    // with Re (comparing final costs at matched budgets).
    let mut gaps = Vec::new();
    for re in [10.0, 100.0] {
        let s = solver(re, 0.25);
        let dal = run(&s, Strategy::Dal, 15, 4, 5, 0.5);
        let dp = run(&s, Strategy::Dp, 15, 4, 5, 0.5);
        gaps.push(dal.report.final_cost / dp.report.final_cost.max(1e-300));
    }
    assert!(
        gaps[1] > gaps[0] * 0.5,
        "unexpected DAL/DP gap shrinkage: {gaps:?}"
    );
    // DP never loses badly at either Re.
    assert!(gaps.iter().all(|&g| g > 0.2), "gaps: {gaps:?}");
}

#[test]
fn outflow_tracks_target_after_optimization() {
    let s = solver(50.0, 0.3);
    let result = run(&s, Strategy::Dp, 25, 4, 5, 1.0);
    let (u_out, v_out) = s.outflow_profile(result.ns_state.as_ref().unwrap());
    let mut worst: f64 = 0.0;
    for (k, &y) in s.outflow_y().iter().enumerate() {
        worst = worst.max((u_out[k] - poiseuille(y, 1.0)).abs());
    }
    assert!(worst < 0.25, "outflow mismatch {worst}");
    assert!(v_out.norm_inf() < 1e-8, "outflow v should be pinned to 0");
}

#[test]
fn picard_solve_is_deterministic_across_thread_counts() {
    // The `MESHFREE_THREADS ∈ {1, N}` equivalence: the pool size is fixed
    // at first use, so the in-process proxy is `par::serial_scope`, which
    // forces every `par_*` call through the inline serial path — exactly
    // what `MESHFREE_THREADS=1` runs. Chunk boundaries in the runtime are
    // thread-count-invariant, so the full nonlinear solve (assembly,
    // LU factor, Picard updates) must be bit-identical.
    let s = solver(40.0, 0.25);
    let c = initial_control(&s).scaled(0.9);
    let pooled = s.solve(&c, 5, None).unwrap().stack();
    let serial = meshfree_oc::runtime::par::serial_scope(|| s.solve(&c, 5, None).unwrap().stack());
    assert_eq!(pooled.len(), serial.len());
    for i in 0..pooled.len() {
        assert!(
            pooled[i].to_bits() == serial[i].to_bits(),
            "thread count changed state bit {i}: {} vs {}",
            pooled[i],
            serial[i]
        );
    }
}

#[test]
fn warm_started_optimization_is_deterministic() {
    let s = solver(30.0, 0.2);
    let a = run(&s, Strategy::Dp, 8, 3, 2, 1.0);
    let b = run(&s, Strategy::Dp, 8, 3, 2, 1.0);
    for i in 0..a.control.len() {
        assert_eq!(a.control[i], b.control[i], "nondeterminism at {i}");
    }
}
