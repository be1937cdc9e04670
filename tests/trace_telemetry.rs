//! End-to-end telemetry: a Laplace DAL-vs-DP comparison run, a sparse
//! Laplace DP gradient and a sparse Navier–Stokes solve traced to a JSONL
//! file must contain span timings and solve events from every instrumented
//! layer — `linsolve` (one event per sparse backend solve), `pde`
//! (mesh-free solve loops) and `control` (optimizer iterations).
//!
//! One `#[test]` only: the trace sink is process-global, and this file
//! compiles to its own test binary, so nothing else can race it.

use meshfree_oc::control::api::BackendKind;
use meshfree_oc::control::{execute_on, Problem, RunCtx, RunSpec, Strategy};
use meshfree_oc::geometry::generators::ChannelConfig;
use meshfree_oc::linalg::DVec;
use meshfree_oc::pde::{LaplaceControlProblem, NsConfig, NsSolver};
use meshfree_oc::runtime::trace::{self, ParsedEvent};

#[test]
fn laplace_run_traces_all_three_layers() {
    let path =
        std::env::temp_dir().join(format!("meshfree_trace_test_{}.jsonl", std::process::id()));
    trace::set_sink(Box::new(trace::JsonlSink::create(&path).unwrap()));

    // Control layer: the dense DAL-vs-DP comparison (the paper's
    // fig. 3b setup at test scale). Dense LU factorizations inside emit
    // `lu_factor` spans.
    let problem = LaplaceControlProblem::new(12).unwrap();
    let (iterations, log_every) = (40, 10);
    let run = |strategy: Strategy| {
        let spec = RunSpec::laplace()
            .nx(12)
            .strategy(strategy)
            .iterations(iterations)
            .lr(1e-2)
            .log_every(log_every)
            .build();
        execute_on(Problem::Laplace(&problem), &spec, &RunCtx::unchecked()).unwrap()
    };
    let dal = run(Strategy::Dal);
    let dp = run(Strategy::Dp);
    assert!(dal.report.final_cost.is_finite());
    assert!(dp.report.final_cost.is_finite());

    // Linsolve layer: the sparse RBF-FD Laplace build factors its operator
    // once (`envelope_lu_factor`); a DP gradient is one forward and one
    // transpose solve on that factor.
    let sparse = LaplaceControlProblem::new_sparse(12).unwrap();
    let c = DVec::from_fn(sparse.n_controls(), |i| 0.1 * sparse.control_x()[i]);
    sparse.cost_and_grad_dp(&c).unwrap();

    // Linsolve + pde layers: a sparse Navier–Stokes solve runs Picard
    // sweeps whose saddle systems are each factored once (`band_lu_factor`)
    // and solved (`band_lu`).
    let ns = NsSolver::new(NsConfig {
        channel: ChannelConfig {
            h: 0.2,
            ..Default::default()
        },
        re: 40.0,
        slot_velocity: 0.2,
        backend: BackendKind::SparseGmres,
        ..Default::default()
    })
    .unwrap();
    let inflow = DVec::from_fn(ns.n_controls(), |i| 0.1 + 0.02 * i as f64);
    ns.solve(&inflow, 2, None).unwrap();

    trace::clear_sink();
    let events = trace::read_jsonl(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(!events.is_empty(), "trace file is empty");

    // Every layer must appear, with per-iteration solve events.
    let mut layers: Vec<&str> = Vec::new();
    let mut solvers: Vec<&str> = Vec::new();
    let mut spans: Vec<&str> = Vec::new();
    let mut counters: Vec<&str> = Vec::new();
    for e in &events {
        match e {
            ParsedEvent::Solve { layer, solver, .. } => {
                if !layers.contains(&layer.as_str()) {
                    layers.push(layer);
                }
                if !solvers.contains(&solver.as_str()) {
                    solvers.push(solver);
                }
            }
            ParsedEvent::Span { name, .. } => {
                if !spans.contains(&name.as_str()) {
                    spans.push(name);
                }
            }
            ParsedEvent::Counter { name, .. } => {
                if !counters.contains(&name.as_str()) {
                    counters.push(name);
                }
            }
        }
    }
    for layer in ["linsolve", "pde", "control"] {
        assert!(layers.contains(&layer), "no solve events at layer {layer}");
    }
    for solver in ["envelope_lu", "envelope_lu_t", "band_lu", "ns_picard"] {
        assert!(solvers.contains(&solver), "no solve events from {solver}");
    }
    for span in [
        "laplace_control_run",
        "lu_factor",
        "envelope_lu_factor",
        "band_lu_factor",
        "ns_solve",
    ] {
        assert!(spans.contains(&span), "missing span {span}");
    }
    // RunReport::emit_trace folds the Table-3 summary into the stream.
    for counter in ["run_wall_s", "run_peak_bytes", "run_final_cost"] {
        assert!(counters.contains(&counter), "missing counter {counter}");
    }

    // The DP cost trajectory must descend monotonically at the logging
    // cadence (individual Adam steps wiggle a few percent, so the
    // per-iteration sequence is smoothed by sampling every `log_every`).
    let dp_costs: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            ParsedEvent::Solve {
                layer,
                solver,
                event,
            } if layer == "control" && solver == "DP" => Some(event.cost),
            _ => None,
        })
        .collect();
    assert_eq!(dp_costs.len(), iterations, "one DP event per iteration");
    let sampled: Vec<f64> = dp_costs.iter().copied().step_by(log_every).collect();
    for w in sampled.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-6) + 1e-300,
            "DP cost increased across a logging window: {} -> {}",
            w[0],
            w[1]
        );
    }
    assert!(
        *dp_costs.last().unwrap() < 0.5 * dp_costs[0],
        "DP cost barely moved: {} -> {}",
        dp_costs[0],
        dp_costs.last().unwrap()
    );

    // Picard events carry their increment as the residual; control events
    // carry costs.
    let has_picard_residual = events.iter().any(|e| {
        matches!(e, ParsedEvent::Solve { layer, solver, event }
            if layer == "pde" && solver == "ns_picard" && event.residual.is_finite())
    });
    assert!(has_picard_residual, "ns_picard events lack residuals");
}
