//! API-surface gate: the supported entry points — `RunSpec` + `execute`,
//! the per-problem `run_ctx` drivers, and the `IterOpts` builder — must
//! agree with each other bitwise, so callers can move between layers
//! without changing results.

use meshfree_oc::control::laplace::{self, GradMethod, LaplaceRunConfig};
use meshfree_oc::control::ns::{self, NsRunConfig};
use meshfree_oc::control::{execute, RunCtx, RunSpec};
use meshfree_oc::geometry::generators::ChannelConfig;
use meshfree_oc::linalg::{gmres, DVec, IterOpts, Preconditioner, Triplets};
use meshfree_oc::pde::{LaplaceControlProblem, NsConfig, NsSolver};

#[test]
fn laplace_run_ctx_matches_spec_execution_bitwise() {
    let problem = LaplaceControlProblem::new(10).unwrap();
    let cfg = LaplaceRunConfig {
        nx: 10,
        iterations: 12,
        lr: 1e-2,
        log_every: 4,
        ..Default::default()
    };
    let direct = laplace::run_ctx(&problem, &cfg, GradMethod::Dp, &RunCtx::unchecked()).unwrap();
    let spec = RunSpec::laplace()
        .nx(10)
        .iterations(12)
        .lr(1e-2)
        .log_every(4)
        .build();
    let via_spec = execute(&spec).unwrap();
    assert_eq!(
        direct.report.final_cost.to_bits(),
        via_spec.report.final_cost.to_bits()
    );
    for i in 0..direct.control.len() {
        assert_eq!(direct.control[i].to_bits(), via_spec.control[i].to_bits());
    }
}

#[test]
fn iter_opts_builder_round_trips_through_readers() {
    let opts = IterOpts::gmres().max_iter(500).tol(1e-9).restart(25);
    assert_eq!(opts.iteration_limit(), 500);
    assert_eq!(opts.tolerance().to_bits(), 1e-9f64.to_bits());
    assert_eq!(opts.restart_len(), 25);

    // The GMRES constructor and `Default` carry the documented defaults.
    for defaults in [IterOpts::gmres(), IterOpts::default()] {
        assert_eq!(defaults.iteration_limit(), 2000);
        assert_eq!(defaults.tolerance().to_bits(), 1e-10f64.to_bits());
        assert_eq!(defaults.restart_len(), 50);
    }

    // 1-D advection–diffusion: a small nonsymmetric system. Equal options
    // must drive the solver to bitwise-equal results.
    let n = 60;
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.4);
        if i > 0 {
            t.push(i, i - 1, -1.3);
        }
        if i + 1 < n {
            t.push(i, i + 1, -0.7);
        }
    }
    let a = t.to_csr();
    let b = DVec::from_fn(n, |i| 1.0 + (i as f64 * 0.2).sin());
    let m = Preconditioner::ilu0_from(&a);
    let xo = gmres(&a, &b, &m, &opts).unwrap();
    let xn = gmres(&a, &b, &m, &opts.clone()).unwrap();
    assert_eq!(xo.iterations, xn.iterations);
    for i in 0..n {
        assert_eq!(xo.x[i].to_bits(), xn.x[i].to_bits());
    }
}

#[test]
fn ns_run_ctx_matches_spec_execution_bitwise() {
    let solver = NsSolver::new(NsConfig {
        channel: ChannelConfig {
            h: 0.2,
            ..Default::default()
        },
        re: 20.0,
        slot_velocity: 0.2,
        ..Default::default()
    })
    .unwrap();
    let cfg = NsRunConfig {
        iterations: 3,
        refinements: 2,
        lr: 5e-2,
        log_every: 1,
        initial_scale: 0.8,
    };
    let direct = ns::run_ctx(&solver, &cfg, GradMethod::Dp, &RunCtx::unchecked()).unwrap();
    let spec = RunSpec::navier_stokes()
        .resolution(0.2)
        .reynolds(20.0)
        .slot_velocity(0.2)
        .iterations(3)
        .refinements(2)
        .lr(5e-2)
        .log_every(1)
        .initial_scale(0.8)
        .build();
    let via_spec = execute(&spec).unwrap();
    assert_eq!(
        direct.report.final_cost.to_bits(),
        via_spec.report.final_cost.to_bits()
    );
    for i in 0..direct.control.len() {
        assert_eq!(direct.control[i].to_bits(), via_spec.control[i].to_bits());
    }
}
