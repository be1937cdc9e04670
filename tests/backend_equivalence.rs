//! Backend-equivalence gate for the linear-solver redesign.
//!
//! Three claims, tested end-to-end through the public façade:
//!
//! 1. On the *same* linear system, the sparse factors reproduce the dense
//!    LU answer to ≤ 1e-8 relative — judged by the golden-run tolerance
//!    policy ([`check::golden::GoldenPolicy`]), not ad-hoc comparisons, on
//!    the RBF-FD Laplace system (the envelope factor of the Laplace build
//!    to ≤ 1e-12 at nx ∈ {12, 24, 48}, and the band factor) and on every
//!    saddle system of a full Navier–Stokes DAL run (forward Picard sweep
//!    *and* coupled adjoint) at h = 0.18 and at fig. 4's h = 0.09.
//! 2. Full control runs complete on the sparse backend beyond the dense
//!    path's perf-suite ceilings — Laplace at `nx = 48` (4× the dense
//!    `laplace_nx = 24` node count) and Navier–Stokes at ≥ 2× the dense
//!    `ns_h = 0.14` node count — while reporting every solve on the
//!    `"linsolve"` trace layer (`envelope_lu` for Laplace, `band_lu` for
//!    the saddle systems, each factored under a `band_lu_factor` span).
//! 3. The NS saddle assembly of both discretisations is exact (its action
//!    matches its own densified image and the taped-DP
//!    `A₀ + Σ diag(sₖ)Cₖ` decomposition to ≤ 1e-10) and bitwise
//!    deterministic across pool widths.

use meshfree_oc::autodiff::gradcheck::rel_error;
use meshfree_oc::check::golden::{compare, GoldenPolicy, GoldenSnapshot};
use meshfree_oc::control::api::{execute, BackendKind, RunSpec, Strategy};
use meshfree_oc::geometry::generators::{channel_cloud, unit_square_grid, ChannelConfig};
use meshfree_oc::linalg::{BandLu, Csr, DVec, EnvelopeLu, LinearBackend, Lu, Triplets};
use meshfree_oc::pde::ns_adjoint::NsAdjoint;
use meshfree_oc::pde::ns_dp::NsDp;
use meshfree_oc::pde::{LaplaceControlProblem, NsConfig, NsSolver, NsState};
use meshfree_oc::rbf::fd::{fd_matrix, FdConfig};
use meshfree_oc::rbf::{DiffOp, RbfKernel};
use meshfree_oc::runtime::par;
use meshfree_oc::runtime::trace::{self, MemorySink, TraceEvent};
use std::f64::consts::PI;

/// The golden tolerance policy of the equivalence gate: ≤ 1e-8 relative
/// (with a tiny absolute floor for near-zero entries) on every compared
/// series.
fn equivalence_policy() -> GoldenPolicy {
    GoldenPolicy::default().field("", 1e-8, 1e-12)
}

fn assert_equivalent(name: &str, dense: &DVec, sparse: &DVec) {
    let expected = GoldenSnapshot::new(name).with_series("solution", dense.as_slice().to_vec());
    let actual = GoldenSnapshot::new(name).with_series("solution", sparse.as_slice().to_vec());
    let violations = compare(&expected, &actual, &equivalence_policy());
    assert!(
        violations.is_empty(),
        "{name}: sparse backend drifted from dense LU:\n{}",
        violations.join("\n")
    );
}

/// The RBF-FD nodal Laplace system (interior Laplacian rows, identity
/// boundary rows) and a smooth right-hand side.
fn laplace_fd_system(nx: usize) -> (Csr, DVec) {
    let nodes = unit_square_grid(nx, nx, LaplaceControlProblem::classifier);
    let fd = FdConfig {
        stencil_size: 13,
        degree: 2,
    };
    let lap = fd_matrix(&nodes, RbfKernel::Phs3, fd, DiffOp::Lap).unwrap();
    let n = nodes.len();
    let mut t = Triplets::new(n, n);
    for i in nodes.interior_range() {
        let (cols, vals) = lap.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            t.push(i, j, v);
        }
    }
    for i in nodes.boundary_indices() {
        t.push(i, i, 1.0);
    }
    let b = DVec::from_fn(n, |i| {
        let p = nodes.point(i);
        (PI * p.x).sin() * (0.5 + 0.3 * p.y)
    });
    (t.to_csr(), b)
}

#[test]
fn sparse_backend_matches_dense_lu_on_the_rbf_fd_laplace_system() {
    let (a, b) = laplace_fd_system(16);
    let lu = Lu::factor(&a.to_dense()).unwrap();
    let x_dense = lu.solve(&b).unwrap();
    let engine = BandLu::factor(&a).unwrap();
    let x_sparse = engine.solve(&b).unwrap();
    assert_equivalent("laplace-fd-backend-equivalence", &x_dense, &x_sparse);

    // Same gate for the transpose solve (the discrete-adjoint path).
    let xt_dense = lu.solve_transpose(&b).unwrap();
    let xt_sparse = engine.solve_transpose(&b).unwrap();
    assert_equivalent("laplace-fd-adjoint-equivalence", &xt_dense, &xt_sparse);
}

/// The factor behind the sparse Laplace build is a direct solve: forward
/// and transpose solves match dense partial-pivoting LU to ≤ 1e-12
/// relative (max norm) on the RBF-FD Laplace system up to fig. 3's sparse
/// grid.
#[test]
fn envelope_factor_matches_dense_lu_on_the_rbf_fd_laplace_system() {
    for nx in [12, 24, 48] {
        let (a, b) = laplace_fd_system(nx);
        let lu = Lu::factor(&a.to_dense()).unwrap();
        let env = EnvelopeLu::factor(&a).unwrap();
        assert_eq!(env.dirichlet_rows(), 4 * (nx - 1));
        for (what, x_env, x_lu) in [
            ("solve", env.solve(&b), lu.solve(&b)),
            (
                "solve_transpose",
                env.solve_transpose(&b),
                lu.solve_transpose(&b),
            ),
        ] {
            let (x_env, x_lu) = (x_env.unwrap(), x_lu.unwrap());
            let rel = (&x_env - &x_lu).norm_inf() / x_lu.norm_inf();
            assert!(rel <= 1e-12, "nx = {nx}: {what} is {rel:.2e} from dense LU");
        }
    }
}

/// `solve_many` must be invisible in the answers: the serve batcher
/// coalesces concurrent same-operator requests into one blocked solve, and
/// a client may not receive different bits depending on who else was
/// connected. Asserted bitwise (not via the golden policy) on the blocked
/// dense-LU override and on the sparse factors' default loop.
#[test]
fn solve_many_is_bitwise_identical_to_one_at_a_time_on_both_backends() {
    let (a, b) = laplace_fd_system(12);
    let n = b.len();
    // A batch wider than the dense blocking width, so chunking is exercised.
    let rhs: Vec<DVec> = (0..Lu::MULTI_RHS_BLOCK + 2)
        .map(|k| DVec::from_fn(n, |i| (0.3 * (i as f64) + 1.7 * k as f64).sin()))
        .collect();

    let dense: Box<dyn LinearBackend> = Box::new(Lu::factor(&a.to_dense()).unwrap());
    let envelope: Box<dyn LinearBackend> = Box::new(EnvelopeLu::factor(&a).unwrap());
    let band: Box<dyn LinearBackend> = Box::new(BandLu::factor(&a).unwrap());
    for backend in [&dense, &envelope, &band] {
        let batched = backend.solve_many(&rhs).unwrap();
        assert_eq!(batched.len(), rhs.len());
        for (k, (b, x)) in rhs.iter().zip(&batched).enumerate() {
            let one = backend.solve(b).unwrap();
            assert_eq!(
                x.as_slice(),
                one.as_slice(),
                "{:?} rhs {k}: solve_many drifted from the one-at-a-time path",
                backend.kind()
            );
        }
    }
}

/// A Navier–Stokes solver on either discretisation.
fn ns_solver(h: f64, backend: BackendKind) -> NsSolver {
    NsSolver::new(NsConfig {
        channel: ChannelConfig {
            h,
            ..Default::default()
        },
        re: 40.0,
        slot_velocity: 0.2,
        backend,
        ..Default::default()
    })
    .unwrap()
}

/// A genuinely sparse (RBF-FD saddle-point) Navier–Stokes solver.
fn sparse_ns_solver(h: f64) -> NsSolver {
    ns_solver(h, BackendKind::SparseGmres)
}

/// Both Navier–Stokes builds at `h`: the dense global-collocation one and
/// the RBF-FD one.
fn both_ns_solvers(h: f64) -> [NsSolver; 2] {
    [BackendKind::DenseLu, BackendKind::SparseGmres].map(|b| ns_solver(h, b))
}

fn test_control(s: &NsSolver) -> DVec {
    DVec::from_fn(s.n_controls(), |i| 0.1 + 0.02 * i as f64)
}

#[test]
fn ns_saddle_assembly_matches_its_dense_image_and_the_dp_decomposition() {
    for s in both_ns_solvers(0.18) {
        saddle_assembly_matches_its_dense_image_and_the_dp_decomposition(&s);
    }
}

fn saddle_assembly_matches_its_dense_image_and_the_dp_decomposition(s: &NsSolver) {
    let backend = s.cfg().backend;
    let n = s.nodes().len();
    let c = test_control(s);
    let state = s.initial_state(&c);
    let mut ws = s.workspace();
    let a = s.picard_operator(&state, &mut ws).clone();
    let x = DVec::from_fn(3 * n, |i| (0.17 * i as f64).sin());

    // Sparse-assembled vs dense-assembled action of the same operator.
    let y_sparse = a.matvec(&x);
    let y_dense = a.to_dense().matvec(&x).unwrap();
    for i in 0..3 * n {
        assert!(
            (y_sparse[i] - y_dense[i]).abs() <= 1e-10 * (1.0 + y_dense[i].abs()),
            "{backend:?}: operator action drifts at row {i}: {} vs {}",
            y_sparse[i],
            y_dense[i]
        );
    }

    // The taped-DP decomposition A = A₀ + diag(s_u)·C_x + diag(s_v)·C_y
    // must reproduce the Picard assembly exactly (this identity is what
    // makes the DP gradient exact on either build).
    let zero = NsState {
        u: DVec::zeros(n),
        v: DVec::zeros(n),
        p: DVec::zeros(n),
    };
    let base = s.picard_operator(&zero, &mut ws);
    let [adv_x, adv_y] = s.advection_structs();
    let cx = adv_x.matvec(&x);
    let cy = adv_y.matvec(&x);
    let mut y_dec = base.matvec(&x);
    for i in 0..n {
        // s_u = [u; u; 0] and s_v = [v; v; 0] in the u|v|p block ordering.
        y_dec[i] += state.u[i] * cx[i] + state.v[i] * cy[i];
        y_dec[n + i] += state.u[i] * cx[n + i] + state.v[i] * cy[n + i];
    }
    for i in 0..3 * n {
        assert!(
            (y_sparse[i] - y_dec[i]).abs() <= 1e-10 * (1.0 + y_sparse[i].abs()),
            "{backend:?}: DP decomposition drifts at row {i}: {} vs {}",
            y_dec[i],
            y_sparse[i]
        );
    }
}

#[test]
fn sparse_ns_dal_run_matches_dense_lu_of_the_same_saddle_systems() {
    // Same-system equivalence through a full DAL evaluation: every saddle
    // system the sparse engine solves (k Picard refinements + the coupled
    // adjoint) is densified and LU-solved as the reference. ≤ 1e-8
    // relative under the golden policy — this is the backend contract, not
    // a discretisation comparison — at h = 0.18 and at fig. 4's h = 0.09.
    for h in [0.18, 0.09] {
        dal_run_matches_dense_lu_of_the_same_saddle_systems(h);
    }
}

fn dal_run_matches_dense_lu_of_the_same_saddle_systems(h: f64) {
    let s = sparse_ns_solver(h);
    let n = s.nodes().len();
    let c = test_control(&s);
    let k = 4;

    let b = s.rhs(&c);
    let mut ref_state = s.initial_state(&c);
    let mut ws = s.workspace();
    for _ in 0..k {
        let a = s.picard_operator(&ref_state, &mut ws).to_dense();
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        ref_state = NsState::unstack(&x); // picard_damping = 1
    }
    let st = s.solve(&c, k, None).unwrap();
    assert_equivalent(
        &format!("ns-saddle-forward-equivalence-h{h}"),
        &ref_state.stack(),
        &st.stack(),
    );

    let dal = NsAdjoint::new(&s);
    let adj = dal.solve_adjoint(&st).unwrap();
    let adj_stack = NsState {
        u: adj.xi_u.clone(),
        v: adj.xi_v.clone(),
        p: adj.q.clone(),
    }
    .stack();
    let at = dal.adjoint_operator(&st, &mut ws).to_dense();
    let (u_out, _) = s.outflow_profile(&st);
    let mut ba = DVec::zeros(3 * n);
    for (j, &i) in s.outflow_idx().iter().enumerate() {
        ba[i] = -(u_out[j] - s.target_u()[j]);
    }
    let xa = Lu::factor(&at).unwrap().solve(&ba).unwrap();
    assert_equivalent(
        &format!("ns-saddle-adjoint-equivalence-h{h}"),
        &xa,
        &adj_stack,
    );
}

#[test]
fn sparse_ns_dp_run_is_consistent_and_its_gradient_is_exact() {
    let s = sparse_ns_solver(0.2);
    let c = test_control(&s);
    let k = 3;
    let dp = NsDp::new(&s);
    let (j_dp, g_dp, _) = dp.cost_and_grad(&c, k, None).unwrap();
    // The taped forward performs the same saddle solves as the plain
    // sparse solver.
    let j_plain = s.cost(&s.solve(&c, k, None).unwrap());
    assert!(
        (j_dp - j_plain).abs() <= 1e-10 * (1.0 + j_plain.abs()),
        "taped sparse J {j_dp} vs plain {j_plain}"
    );
    // And the reverse sweep (transpose saddle solves through
    // `solve_scaled`) reproduces finite differences of the same discrete
    // cost.
    let (_, g_fd) = dp.cost_and_grad_fd(&c, k, 1e-6).unwrap();
    let err = rel_error(g_dp.as_slice(), g_fd.as_slice());
    assert!(err < 1e-4, "sparse DP vs FD rel error {err:.3e}");
}

#[test]
fn sparse_ns_assembly_is_bitwise_deterministic_across_pool_widths() {
    for backend in [BackendKind::DenseLu, BackendKind::SparseGmres] {
        let build = || {
            let s = ns_solver(0.2, backend);
            let c = test_control(&s);
            let state = s.initial_state(&c);
            let mut ws = s.workspace();
            s.picard_operator(&state, &mut ws).clone()
        };
        let wide = build();
        let narrow = par::serial_scope(build);
        assert_eq!(
            wide.nnz(),
            narrow.nnz(),
            "{backend:?}: nnz differs across pool widths"
        );
        assert_eq!(
            wide.to_dense().as_slice(),
            narrow.to_dense().as_slice(),
            "{backend:?}: NS assembly is not bitwise deterministic across pool widths"
        );
    }
}

#[test]
fn sparse_ns_control_runs_complete_at_twice_the_dense_ceiling() {
    // The dense NS perf-suite ceiling is ns_h = 0.14; at h = 0.09 the
    // channel cloud carries ≥ 2× those nodes and the dense (3N)² matrix is
    // never allocated. Full DAL and DP control runs must complete there,
    // every saddle system factored under a band_lu_factor span and solved
    // on the "linsolve" layer as band_lu (forward) and band_lu_t (the DP
    // reverse sweep).
    let ceiling = channel_cloud(&ChannelConfig {
        h: 0.14,
        ..Default::default()
    })
    .len();
    let h = 0.09;
    let nodes = channel_cloud(&ChannelConfig {
        h,
        ..Default::default()
    })
    .len();
    assert!(
        nodes >= 2 * ceiling,
        "h = {h} carries only {nodes} nodes (< 2 × {ceiling})"
    );

    let (sink, events) = MemorySink::new();
    trace::set_sink(Box::new(sink));
    for strategy in [Strategy::Dal, Strategy::Dp] {
        let spec = RunSpec::navier_stokes()
            .resolution(h)
            .reynolds(40.0)
            .refinements(3)
            .backend(BackendKind::SparseGmres)
            .strategy(strategy)
            .iterations(2)
            .lr(5e-2)
            .seed(7)
            .build();
        let run =
            execute(&spec).unwrap_or_else(|e| panic!("{:?} sparse NS run failed: {e}", strategy));
        assert!(
            run.report.final_cost.is_finite(),
            "{strategy:?}: non-finite final cost"
        );
        assert!(
            run.spec_id.contains("sparse-gmres"),
            "sparse run id must carry the backend suffix: {}",
            run.spec_id
        );
    }
    trace::clear_sink();

    // The sink is process-global and other tests may interleave, so
    // assert on presence, not exact counts.
    let events = events.lock().unwrap();
    let solvers: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Solve { layer, solver, .. } if *layer == "linsolve" => Some(*solver),
            _ => None,
        })
        .collect();
    for label in ["band_lu", "band_lu_t"] {
        assert!(
            solvers.contains(&label),
            "sparse NS control runs emitted no {label} linsolve events: {solvers:?}"
        );
    }
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::Span {
                name: "band_lu_factor",
                ..
            }
        )),
        "sparse NS control runs emitted no band_lu_factor span"
    );
}

#[test]
fn sparse_backend_completes_control_runs_at_4x_the_dense_ceiling() {
    // nx = 48 → 2304 nodes: 4× the dense path's perf-suite ceiling
    // (laplace_nx = 24 → 576 nodes), where the global-collocation matrix
    // alone would hold (N+M)² ≈ 5.6M doubles.
    let (sink, events) = MemorySink::new();
    trace::set_sink(Box::new(sink));
    for strategy in [Strategy::Dal, Strategy::Dp] {
        let spec = RunSpec::laplace()
            .nx(48)
            .backend(BackendKind::SparseGmres)
            .strategy(strategy)
            .iterations(3)
            .lr(1e-2)
            .seed(7)
            .build();
        let run = execute(&spec)
            .unwrap_or_else(|e| panic!("{:?} run on the sparse backend failed: {e}", strategy));
        assert!(
            run.report.final_cost.is_finite(),
            "{strategy:?}: non-finite final cost"
        );
        assert!(
            run.spec_id.contains("sparse-gmres"),
            "sparse run id must carry the backend suffix: {}",
            run.spec_id
        );
    }
    trace::clear_sink();

    // Every sparse solve runs on the envelope factor and reports on the
    // "linsolve" layer: forward solves as `envelope_lu`, the DP reverse
    // sweep's transpose solves as `envelope_lu_t`. The sink is
    // process-global and other tests may interleave, so assert on
    // presence, not exact counts.
    let events = events.lock().unwrap();
    let solvers: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Solve { layer, solver, .. } if *layer == "linsolve" => Some(*solver),
            _ => None,
        })
        .collect();
    for label in ["envelope_lu", "envelope_lu_t"] {
        assert!(
            solvers.contains(&label),
            "sparse control runs emitted no {label} linsolve events: {solvers:?}"
        );
    }
}
