//! Replay the paper's Table 3 comparison grid as one fault-tolerant
//! campaign: every strategy on both substrates, executed concurrently with
//! retries, per-run deadlines and a resumable JSONL ledger.
//!
//! ```sh
//! cargo run --release --example campaign            # the Table 3 grid
//! cargo run --release --example campaign -- --smoke # 8-spec CI smoke
//! ```
//!
//! Kill it mid-flight and run it again: completed specs are skipped, and
//! the final ledger is byte-identical to an uninterrupted run.

use meshfree_oc::driver::{BackendKind, Campaign, Ledger, OptimizerKind, RunSpec, Strategy};
use std::path::Path;
use std::time::Duration;

/// Largest relative audit gap the smoke run accepts for its neural-op spec.
const MAX_AUDIT_GAP: f64 = 0.05;

/// The neural-op record's audit gap `|J_audit − Ĵ| / J_audit`: the final
/// history entry is the DP audit re-solve, the penultimate one the
/// surrogate's own estimate of the same control.
fn neural_op_audit_gap(ledger: &Path, spec_id: &str) -> f64 {
    let (_, records) = Ledger::open(ledger, "smoke").expect("smoke ledger");
    let rec = records
        .iter()
        .find(|r| r.spec_id == spec_id)
        .expect("the neural-op spec has a ledger record");
    let [.., estimate, audited] = rec.cost_history[..] else {
        panic!("neural-op record {spec_id} lacks the estimate and the audit");
    };
    (audited - estimate).abs() / audited
}

/// An 8-spec campaign — three synthetic, one injected NaN-diverging spec,
/// one real Laplace run on the sparse RBF-FD backend, one sparse-NS
/// run on the RBF-FD saddle + band LU path, one second-order
/// (Newton-CG) Laplace DAL run, and one amortized (neural-op) Laplace
/// run; used by CI to prove the retry path, the non-default backend
/// plumbing (for both PDEs), the optimizer selection and the surrogate
/// train/freeze/optimize lifecycle end-to-end. Panics (non-zero exit) if
/// the faulty spec is not retried exactly once, any spec is lost, or the
/// neural-op record's audit gap exceeds [`MAX_AUDIT_GAP`].
fn run_smoke() {
    let path = std::env::temp_dir().join(format!(
        "meshfree-campaign-smoke-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut campaign = Campaign::new("smoke", &path).workers(2);
    for seed in 0..3 {
        campaign = campaign.spec(RunSpec::synthetic(8).seed(seed).iterations(25).build());
    }
    // Fault injection: the first attempt reports a NaN cost, the retry
    // (damped lr, perturbed seed) is healthy.
    campaign = campaign.spec(
        RunSpec::synthetic(8)
            .fail_attempts(1)
            .seed(99)
            .iterations(25)
            .label("smoke-faulty")
            .build(),
    );
    // One real-PDE spec on the sparse backend: proves the campaign path
    // (spec → backend-suffixed run id → ledger) off the dense default. Kept
    // tiny — the smoke gate is about plumbing, not physics.
    campaign = campaign.spec(
        RunSpec::laplace()
            .nx(12)
            .backend(BackendKind::SparseGmres)
            .strategy(Strategy::Dal)
            .iterations(5)
            .lr(1e-2)
            .seed(7)
            .label("smoke-sparse-laplace")
            .build(),
    );
    // One sparse Navier–Stokes spec: the RBF-FD saddle assembly and the
    // per-sweep band LU behind `BackendKind::SparseGmres` on the coupled
    // problem, again sized for plumbing rather than physics.
    campaign = campaign.spec(
        RunSpec::navier_stokes()
            .resolution(0.2)
            .reynolds(40.0)
            .refinements(2)
            .backend(BackendKind::SparseGmres)
            .strategy(Strategy::Dal)
            .iterations(2)
            .lr(5e-2)
            .seed(7)
            .label("smoke-sparse-ns")
            .build(),
    );
    // One second-order spec: Newton-CG on the weighted-adjoint DAL
    // gradient, exercising the optimizer selection (spec → `-newton-cg`
    // run id → curvature oracle) through the campaign path. A handful of
    // outer iterations suffices — Newton's floor is below Adam's here.
    campaign = campaign.spec(
        RunSpec::laplace()
            .nx(12)
            .strategy(Strategy::Dal)
            .optimizer(OptimizerKind::NewtonCg)
            .iterations(5)
            .lr(1e-2)
            .seed(7)
            .label("smoke-newton-cg-dal")
            .build(),
    );
    // One amortized spec: fit the affine surrogate to one batched forward
    // solve, optimize through it, audit with one real solve — the
    // `-neural-op` run id through the campaign path.
    campaign = campaign.spec(
        RunSpec::laplace()
            .nx(12)
            .strategy(Strategy::NeuralOp)
            .iterations(60)
            .lr(1e-2)
            .seed(7)
            .label("smoke-neural-op")
            .build(),
    );
    let summary = campaign.run().expect("smoke campaign");
    print!("{}", summary.table());
    assert!(summary.all_done(), "smoke campaign left unfinished specs");
    assert_eq!(summary.retried, 1, "the injected NaN spec must retry once");
    assert_eq!(summary.lost, 0, "no spec may be lost");
    let gap = neural_op_audit_gap(&path, "smoke-neural-op");
    let _ = std::fs::remove_file(&path);
    assert!(
        gap <= MAX_AUDIT_GAP,
        "neural-op audit gap {gap:.3e} exceeds {MAX_AUDIT_GAP}"
    );
    println!(
        "smoke campaign OK: {} done, 1 retried, 0 lost, neural-op audit gap {gap:.2e}",
        summary.done
    );
}

fn table3_grid() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    // Laplace §3.1: all four strategies at matched laptop-scale budgets.
    for strategy in Strategy::ALL {
        let iterations = match strategy {
            Strategy::FiniteDiff => 100, // FD gradients are ~2n solves each
            Strategy::Pinn => 400,
            _ => 200,
        };
        specs.push(
            RunSpec::laplace()
                .nx(16)
                .strategy(strategy)
                .iterations(iterations)
                .lr(1e-2)
                .log_every(20)
                .seed(42)
                .label(&format!("table3-laplace-{}", strategy.name()))
                .build(),
        );
    }
    // Navier–Stokes §3.2: DAL with k = 3 refinements, DP with k = 10
    // (Table 2), plus the PINN.
    for (strategy, refinements, iterations) in [
        (Strategy::Dal, 3, 40),
        (Strategy::Dp, 10, 40),
        (Strategy::Pinn, 5, 300),
    ] {
        specs.push(
            RunSpec::navier_stokes()
                .resolution(0.15)
                .reynolds(50.0)
                .refinements(refinements)
                .strategy(strategy)
                .iterations(iterations)
                .lr(if strategy == Strategy::Pinn {
                    1e-2
                } else {
                    1e-1
                })
                .log_every(5)
                .seed(42)
                .label(&format!("table3-ns-{}", strategy.name()))
                .build(),
        );
    }
    specs
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }

    std::fs::create_dir_all("results").expect("results dir");
    let summary = Campaign::new("table3", "results/campaign_table3.jsonl")
        .extend(table3_grid())
        .run_timeout(Duration::from_secs(1800))
        .run()
        .expect("campaign");

    print!("{}", summary.table());
    println!(
        "\nledger: results/campaign_table3.jsonl ({} skipped as already done)",
        summary.skipped
    );
    if !summary.all_done() {
        println!("some specs did not finish — rerun to retry lost specs, or inspect the ledger");
    }
}
