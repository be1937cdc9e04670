//! Bitwise determinism of the second-order machinery.
//!
//! The exact Hessian-vector product and the optimizers that
//! consume it (Newton-CG, L-BFGS) are built from fixed-order scalar
//! reductions and the fixed-block parallel kernels, so their results must
//! be `==` on every `f64` across thread-pool widths — the same contract
//! `cache_equivalence.rs` enforces for the first-order paths. Anything less
//! would break golden-run replay and the campaign ledger's dedup-by-id.

use meshfree_oc::control::{execute_on, OptimizerKind, Problem, RunCtx, RunSpec, Strategy};
use meshfree_oc::linalg::DVec;
use meshfree_oc::pde::LaplaceControlProblem;
use meshfree_oc::runtime::{with_pool, ThreadPool};
use std::f64::consts::PI;
use std::sync::Arc;

/// Pool widths the equivalence must hold at (serial, small, oversubscribed).
const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn assert_identical(a: &DVec, b: &DVec, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for i in 0..a.len() {
        assert!(
            a[i].to_bits() == b[i].to_bits(),
            "{what}: entry {i} diverged: {:e} vs {:e}",
            a[i],
            b[i]
        );
    }
}

#[test]
fn forward_over_reverse_hvp_is_pool_width_invariant() {
    let problem = LaplaceControlProblem::new(12).unwrap();
    let n = problem.n_controls();
    let c = DVec::from_fn(n, |i| 0.3 * (PI * problem.control_x()[i]).sin());
    let v = DVec::from_fn(n, |i| 0.5 * ((i as f64) * 0.7).cos() - 0.1);
    let (j_ref, g_ref, hv_ref) = problem.cost_grad_hvp(&c, &v).unwrap();
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let (j, g, hv) = with_pool(&pool, || problem.cost_grad_hvp(&c, &v).unwrap());
        assert!(
            j.to_bits() == j_ref.to_bits(),
            "HVP cost drifted at {threads} threads"
        );
        assert_identical(&g, &g_ref, "DP gradient");
        assert_identical(&hv, &hv_ref, "Hessian-vector product");
    }
}

#[test]
fn newton_cg_dal_run_is_pool_width_invariant() {
    // A full second-order DAL run: weighted adjoint gradients, Steihaug-CG
    // on adjoint-consistent HVPs, trust-region accept/reject — every
    // reduction fixed-order, so whole trajectories replay bitwise.
    let problem = LaplaceControlProblem::new(12).unwrap();
    let spec = RunSpec::laplace()
        .nx(12)
        .strategy(Strategy::Dal)
        .optimizer(OptimizerKind::NewtonCg)
        .iterations(8)
        .lr(1e-2)
        .log_every(1)
        .build();
    let run_once = || execute_on(Problem::Laplace(&problem), &spec, &RunCtx::unchecked()).unwrap();
    let reference = run_once();
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let run = with_pool(&pool, run_once);
        assert!(
            run.report.final_cost.to_bits() == reference.report.final_cost.to_bits(),
            "Newton-CG DAL final cost drifted at {threads} threads: {:e} vs {:e}",
            run.report.final_cost,
            reference.report.final_cost
        );
        assert_identical(&run.control, &reference.control, "Newton-CG DAL control");
        assert_eq!(
            run.report.history.entries.len(),
            reference.report.history.entries.len(),
            "history length at {threads} threads"
        );
        for (a, b) in run
            .report
            .history
            .entries
            .iter()
            .zip(&reference.report.history.entries)
        {
            assert!(
                a.cost.to_bits() == b.cost.to_bits(),
                "history cost at iter {} drifted at {threads} threads",
                a.iter
            );
        }
    }
}

#[test]
fn lbfgs_dp_run_is_pool_width_invariant() {
    let problem = LaplaceControlProblem::new(12).unwrap();
    let spec = RunSpec::laplace()
        .nx(12)
        .strategy(Strategy::Dp)
        .optimizer(OptimizerKind::Lbfgs)
        .iterations(12)
        .lr(1e-2)
        .log_every(1)
        .build();
    let run_once = || execute_on(Problem::Laplace(&problem), &spec, &RunCtx::unchecked()).unwrap();
    let reference = run_once();
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let run = with_pool(&pool, run_once);
        assert!(
            run.report.final_cost.to_bits() == reference.report.final_cost.to_bits(),
            "L-BFGS DP final cost drifted at {threads} threads"
        );
        assert_identical(&run.control, &reference.control, "L-BFGS DP control");
    }
}
