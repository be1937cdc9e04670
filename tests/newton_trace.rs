//! Newton-CG internals as trace events: every step records its Hessian
//! probes, CG iterations, trust-region rejects and fallback as counters,
//! and recording them leaves the run's bits untouched.
//!
//! The trace sink is process-global and this file compiles to its own
//! test binary; the two tests share a lock so neither sees the other's
//! sink.

use meshfree_oc::control::{execute_on, Problem, RunCtx, RunSpec, SpecRun, Strategy};
use meshfree_oc::opt::OptimizerKind;
use meshfree_oc::pde::LaplaceControlProblem;
use meshfree_oc::runtime::trace::{self, TraceEvent};
use std::sync::Mutex;

static SINK_LOCK: Mutex<()> = Mutex::new(());

const ITERATIONS: usize = 6;

fn newton_dal_run(problem: &LaplaceControlProblem) -> SpecRun {
    let spec = RunSpec::laplace()
        .nx(12)
        .strategy(Strategy::Dal)
        .optimizer(OptimizerKind::NewtonCg)
        .iterations(ITERATIONS)
        .lr(1e-2)
        .log_every(1)
        .build();
    execute_on(Problem::Laplace(problem), &spec, &RunCtx::unchecked()).unwrap()
}

/// Runs with a memory sink installed and returns the run and its events.
fn traced_run(problem: &LaplaceControlProblem) -> (SpecRun, Vec<TraceEvent>) {
    let (sink, events) = trace::MemorySink::new();
    trace::set_sink(Box::new(sink));
    let run = newton_dal_run(problem);
    trace::clear_sink();
    let events = events.lock().unwrap().clone();
    (run, events)
}

fn counters(events: &[TraceEvent], wanted: &str) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Counter { name, value } if *name == wanted => Some(*value),
            _ => None,
        })
        .collect()
}

#[test]
fn newton_dal_records_n_c_hessian_probes_per_step() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let problem = LaplaceControlProblem::new(12).unwrap();
    let n_c = problem.n_controls() as f64;
    let (_, events) = traced_run(&problem);

    let probes = counters(&events, "newton_hessian_probes");
    assert_eq!(
        probes,
        vec![n_c; ITERATIONS],
        "one explicit Hessian per step"
    );
    for name in ["newton_cg_iters", "newton_tr_rejects", "newton_fallback"] {
        assert_eq!(
            counters(&events, name).len(),
            ITERATIONS,
            "{name}: one per step"
        );
    }
    let cg = counters(&events, "newton_cg_iters");
    assert!(
        cg[0] >= 1.0,
        "the first step runs CG on the explicit matrix"
    );
    assert!(counters(&events, "newton_fallback")
        .iter()
        .all(|&f| f == 0.0 || f == 1.0));
}

#[test]
fn tracing_newton_internals_leaves_the_run_bitwise_unchanged() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let problem = LaplaceControlProblem::new(12).unwrap();
    let plain = newton_dal_run(&problem);
    let (traced, events) = traced_run(&problem);
    assert!(!counters(&events, "newton_hessian_probes").is_empty());

    assert_eq!(
        plain.report.final_cost.to_bits(),
        traced.report.final_cost.to_bits()
    );
    let bits = |r: &SpecRun| r.control.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&plain), bits(&traced));
    let history = |r: &SpecRun| {
        r.report
            .history
            .entries
            .iter()
            .map(|e| e.cost.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(history(&plain), history(&traced));
}
