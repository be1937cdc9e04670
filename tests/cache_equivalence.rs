//! Cache-equivalence gates for the hot-path performance pass.
//!
//! Every reuse layer introduced for `BENCH_perf.json` — the cached Laplace
//! factorisation, the NS Picard workspace (`Lu::refactor_csr` + buffer reuse),
//! and the shared RBF-FD stencil sets — must be a pure optimisation: the
//! results have to match the allocating/uncached paths **exactly** (`==` on
//! every `f64`), and they have to do so at every thread-pool width, because
//! the parallel kernels promise a fixed block decomposition independent of
//! thread count.

use meshfree_oc::control;
use meshfree_oc::geometry::{self, KdTree};
use meshfree_oc::linalg::DVec;
use meshfree_oc::pde::{self, LaplaceControlProblem, NsConfig, NsSolver};
use meshfree_oc::rbf::fd::StencilSet;
use meshfree_oc::runtime::{with_pool, ThreadPool};
use std::f64::consts::PI;
use std::sync::Arc;

/// Pool widths the equivalence must hold at (serial, small, oversubscribed).
const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn assert_identical(a: &DVec, b: &DVec, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for i in 0..a.len() {
        assert!(
            a[i] == b[i],
            "{what}: entry {i} diverged: {:e} vs {:e}",
            a[i],
            b[i]
        );
    }
}

#[test]
fn dal_laplace_cached_factor_matches_uncached_at_every_pool_size() {
    let problem = LaplaceControlProblem::new(12).unwrap();
    let c = DVec::from_fn(problem.n_controls(), |i| {
        0.3 * (PI * problem.control_x()[i]).sin()
    });
    let (j_ref, g_ref) = problem.cost_and_grad_dal(&c).unwrap();
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let ((j_cached, g_cached), (j_fresh, g_fresh)) = with_pool(&pool, || {
            (
                problem.cost_and_grad_dal(&c).unwrap(),
                problem.cost_and_grad_dal_uncached(&c).unwrap(),
            )
        });
        assert!(j_cached == j_ref, "DAL cost drifted at {threads} threads");
        assert!(j_fresh == j_ref, "uncached DAL cost at {threads} threads");
        assert_identical(&g_cached, &g_ref, "cached DAL gradient");
        assert_identical(&g_fresh, &g_ref, "uncached DAL gradient");
    }
}

#[test]
fn dp_laplace_cached_factor_matches_uncached_at_every_pool_size() {
    let problem = LaplaceControlProblem::new(12).unwrap();
    let c = DVec::from_fn(problem.n_controls(), |i| 0.1 * (i as f64 * 0.7).sin());
    let (j_ref, g_ref) = problem.cost_and_grad_dp(&c).unwrap();
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let ((j_cached, g_cached), (j_fresh, g_fresh)) = with_pool(&pool, || {
            (
                problem.cost_and_grad_dp(&c).unwrap(),
                problem.cost_and_grad_dp_uncached(&c).unwrap(),
            )
        });
        assert!(j_cached == j_ref, "DP cost drifted at {threads} threads");
        assert!(j_fresh == j_ref, "uncached DP cost at {threads} threads");
        assert_identical(&g_cached, &g_ref, "cached DP gradient");
        assert_identical(&g_fresh, &g_ref, "uncached DP gradient");
    }
}

#[test]
fn ns_workspace_sweep_matches_per_call_refinement_exactly() {
    let solver = NsSolver::new(NsConfig {
        channel: geometry::generators::ChannelConfig {
            h: 0.2,
            ..Default::default()
        },
        re: 30.0,
        slot_velocity: 0.2,
        ..Default::default()
    })
    .unwrap();
    let c = control::ns::initial_control(&solver);
    let k = 5;

    // Reference: throwaway workspace per refinement (the allocating path).
    let mut state = solver.initial_state(&c);
    for _ in 0..k {
        state = solver.refine(&state, &c).unwrap();
    }

    // Workspace path, at several pool widths.
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let got = with_pool(&pool, || {
            let mut ws = solver.workspace();
            solver.solve_with(&c, k, None, &mut ws).unwrap()
        });
        assert_identical(&got.u, &state.u, "NS u");
        assert_identical(&got.v, &state.v, "NS v");
        assert_identical(&got.p, &state.p, "NS p");
    }
}

#[test]
fn ns_adjoint_reuses_the_forward_workspace_without_drift() {
    let solver = NsSolver::new(NsConfig {
        channel: geometry::generators::ChannelConfig {
            h: 0.2,
            ..Default::default()
        },
        re: 30.0,
        slot_velocity: 0.2,
        ..Default::default()
    })
    .unwrap();
    let c = control::ns::initial_control(&solver);
    let dal = pde::ns_adjoint::NsAdjoint::new(&solver);

    // Allocating path.
    let (j_ref, g_ref, st_ref) = dal.cost_and_grad(&c, 4, None).unwrap();

    // One workspace shared by the Picard sweeps and the adjoint solve, used
    // twice in a row (second call exercises the dirty-reuse path).
    let mut ws = solver.workspace();
    let _ = dal.cost_and_grad_with(&c, 4, None, &mut ws).unwrap();
    let (j, g, st) = dal.cost_and_grad_with(&c, 4, None, &mut ws).unwrap();
    assert!(j == j_ref, "DAL NS cost drifted under workspace reuse");
    assert_identical(&g, &g_ref, "DAL NS gradient");
    assert_identical(&st.u, &st_ref.u, "DAL NS final u");
}

#[test]
fn stencil_set_reuse_matches_fresh_kdtree_queries() {
    let nodes = geometry::generators::unit_square_grid(
        15,
        15,
        pde::laplace::LaplaceControlProblem::classifier,
    );
    let k = 13;
    let tree = KdTree::build(nodes.points());
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let stencils = with_pool(&pool, || StencilSet::from_tree(&nodes, &tree, k));
        assert_eq!(stencils.len(), nodes.len());
        for i in 0..nodes.len() {
            assert_eq!(
                stencils.neighbours(i),
                tree.knn(nodes.point(i), k).as_slice(),
                "stencil {i} diverged at {threads} threads"
            );
        }
    }
}
