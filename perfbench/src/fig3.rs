//! `fig3-laplace`: Table 3 / fig. 3 Laplace control on the dense nx = 32
//! build — DAL and DP with Adam, DP and DAL with Newton-CG, DP with
//! L-BFGS, a short PINN, NeuralOp (train → optimise → audit), and DP on
//! the sparse RBF-FD backend at nx = 48.

use crate::bench::{self, secs, timed, Capture, Opts, Outcome};
use crate::replay::{self, Grad, Replay};
use crate::{reference, stats};
use control::api::{
    execute_on, BackendKind, BuiltProblem, OptimizeOpts, OptimizerKind, ProblemSpec, RunCtx,
    RunSpec, SpecRun, Strategy,
};
use control::{LaplaceSurrogate, SurrogateObjective, SurrogateSpec};
use linalg::DVec;
use meshfree_runtime::Rng64;
use std::time::Instant;

/// Dense build resolution.
pub const NX: usize = 32;
/// Sparse RBF-FD build resolution.
pub const NX_SPARSE: usize = 48;
/// Nominal length of one round on the reference host (2 vCPUs); a run
/// makes `seconds / ROUND_S` rounds, rounded, at least one.
pub const ROUND_S: f64 = 9.0;
/// Cost target of the dense solver-in-the-loop runs.
pub const TARGET: f64 = 1e-3;
/// Cost target of the sparse DP run, as a share of its own `J(0)`.
pub const SPARSE_TARGET_SHARE: f64 = 0.05;
/// Max-norm distance allowed between a converged dense control and the
/// Fourier-series minimiser (the discrete optimum itself sits 0.025 away).
pub const MINIMISER_TOL: f64 = 0.05;
/// Allowed relative gap between the solver's `J(0)` and the closed form.
pub const J0_TOL: f64 = 0.01;
/// Allowed max-norm gap between the solver's zero-control top-wall flux
/// and the closed form, relative to the flux's peak `π / sinh π`.
pub const FLUX_TOL: f64 = 0.1;
/// Allowed relative gap between NeuralOp's audit and its own estimate.
pub const AUDIT_GAP_TOL: f64 = 0.25;
/// NeuralOp's surrogate seed. Fixed, not drawn from `--seed`: the
/// surrogate's misfit fails the audit check on every seed tried, and a
/// fixed seed keeps that failure the same in every run.
pub const NEURAL_OP_SEED: u64 = 0;

/// One run of the round.
struct Def {
    key: &'static str,
    spec: RunSpec,
    sparse: bool,
    /// `Some(grad)` for the solver-in-the-loop runs with a cost target.
    grad: Option<Grad>,
}

fn defs(seed: u64) -> Vec<Def> {
    let dense = |s: Strategy, o: OptimizerKind, it: usize| {
        RunSpec::laplace()
            .nx(NX)
            .strategy(s)
            .optimizer(o)
            .iterations(it)
            .log_every(1)
            .build()
    };
    let def = |key, spec, sparse, grad| Def {
        key,
        spec,
        sparse,
        grad,
    };
    use OptimizerKind::*;
    use Strategy::*;
    vec![
        def("dal", dense(Dal, Adam, 200), false, Some(Grad::Dal)),
        def("dp", dense(Dp, Adam, 200), false, Some(Grad::Dp)),
        def("newton_dp", dense(Dp, NewtonCg, 5), false, Some(Grad::Dp)),
        def(
            "newton_dal",
            dense(Dal, NewtonCg, 6),
            false,
            Some(Grad::Dal),
        ),
        def("lbfgs", dense(Dp, Lbfgs, 40), false, Some(Grad::Dp)),
        def(
            "sparse_dp",
            RunSpec::laplace()
                .nx(NX_SPARSE)
                .backend(BackendKind::SparseGmres)
                .strategy(Dp)
                .iterations(40)
                .lr(2e-2)
                .log_every(1)
                .build(),
            true,
            Some(Grad::Dp),
        ),
        def(
            "pinn",
            RunSpec::laplace()
                .nx(NX)
                .strategy(Pinn)
                .iterations(600)
                .seed(seed)
                .build(),
            false,
            None,
        ),
        def(
            "neural_op",
            RunSpec::laplace()
                .nx(NX)
                .strategy(NeuralOp)
                .iterations(400)
                .seed(NEURAL_OP_SEED)
                .build(),
            false,
            None,
        ),
    ]
}

struct Builds {
    dense: BuiltProblem,
    sparse: BuiltProblem,
}

fn build() -> Builds {
    let b = |nx, backend| {
        BuiltProblem::build(&ProblemSpec::Laplace { nx, backend }).expect("Laplace build")
    };
    Builds {
        dense: b(NX, BackendKind::DenseLu),
        sparse: b(NX_SPARSE, BackendKind::SparseGmres),
    }
}

impl Builds {
    fn of(&self, d: &Def) -> &BuiltProblem {
        if d.sparse {
            &self.sparse
        } else {
            &self.dense
        }
    }
}

/// What one round produced.
struct Round {
    wall_s: f64,
    peak_mb: f64,
    /// Per run: outer wall time and the run (or its error).
    runs: Vec<(f64, Result<SpecRun, String>)>,
}

fn execute(b: &Builds, d: &Def) -> Result<SpecRun, String> {
    let ctx = RunCtx::new();
    let r = if d.spec.strategy == Strategy::NeuralOp {
        // The uncached entry point trains a fresh surrogate, so every
        // round pays the whole train → optimise → audit lifecycle.
        execute_on(b.dense.as_problem(), &d.spec, &ctx)
    } else {
        b.of(d).execute(&d.spec, &ctx)
    };
    r.map_err(|e| format!("{}: {e}", d.key))
}

fn round(b: &Builds, defs: &[Def]) -> Round {
    control::metrics::reset_peak();
    let t = Instant::now();
    let runs = defs
        .iter()
        .map(|d| timed(|| execute(b, d)))
        .map(|(r, s)| (s, r))
        .collect();
    Round {
        wall_s: secs(t),
        peak_mb: bench::peak_mb(),
        runs,
    }
}

/// Cost target of a run, given the sparse problem's `J(0)`.
fn target(d: &Def, j0_sparse: f64) -> f64 {
    if d.sparse {
        SPARSE_TARGET_SHARE * j0_sparse
    } else {
        TARGET
    }
}

/// Seconds into a run at which its cost first reached `target`.
fn time_to(run: &SpecRun, target: f64) -> Option<f64> {
    let h = &run.report.history.entries;
    h.iter().find(|e| e.cost <= target).map(|e| e.elapsed_s)
}

/// NeuralOp's surrogate estimate of its final control (the history entry
/// before the audit) and the audited cost.
fn audit_pair(run: &SpecRun) -> (f64, f64) {
    let h = &run.report.history.entries;
    (h[h.len() - 2].cost, run.report.final_cost)
}

pub fn run(opts: &Opts, out: &mut Outcome) {
    let defs = defs(opts.seed);
    let (builds, setup_s) = bench::median_setup(3, build);
    let p = builds.dense.laplace().expect("dense Laplace build");
    let ps = builds.sparse.laplace().expect("sparse Laplace build");
    let j0 = p.cost(&DVec::zeros(p.n_controls())).expect("J(0) solve");
    let j0_sparse = ps
        .cost(&DVec::zeros(ps.n_controls()))
        .expect("sparse J(0) solve");

    let rounds = if opts.trace {
        vec![round(&builds, &defs)]
    } else {
        bench::rounds(opts.seconds, ROUND_S, |_| round(&builds, &defs))
    };
    verify(opts, &builds, &defs, &rounds, j0, j0_sparse, out);

    if opts.trace {
        traced(opts, &builds, &defs, &rounds[0], out);
        return;
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_mb).collect();
    let tts: Vec<f64> = rounds
        .iter()
        .map(|r| {
            defs.iter()
                .zip(&r.runs)
                .filter(|(d, _)| d.grad.is_some())
                .map(|(d, (s, run))| {
                    // A run that misses its target (a failed check) is
                    // charged its whole run time.
                    run.as_ref()
                        .ok()
                        .and_then(|run| time_to(run, target(d, j0_sparse)))
                        .unwrap_or(*s)
                })
                .sum()
        })
        .collect();
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.runs.iter().map(|(s, _)| s * 1e3))
        .collect();
    out.set("setup_s", setup_s);
    bench::print_rounds(&walls);
    out.set("wall_s", stats::median(&walls));
    out.set("tts_s", stats::median(&tts));
    out.set("peak_mb", stats::median(&peaks));
    out.set("latency_ms.p50", stats::median(&lat));
    out.set("latency_ms.p99", stats::percentile(&lat, 99));
}

fn verify(
    opts: &Opts,
    b: &Builds,
    defs: &[Def],
    rounds: &[Round],
    j0: f64,
    j0_sparse: f64,
    out: &mut Outcome,
) {
    let p = b.dense.laplace().expect("dense Laplace build");
    let jz = reference::j_zero();
    out.check((j0 - jz).abs() <= J0_TOL * jz, || {
        format!("solver J(0) = {j0} is not within 1% of the closed form {jz}")
    });
    // Top-wall flux of the zero control against the closed form.
    let xs = p.control_x();
    let flux = p.flux_top(&p.solve_coeffs(&DVec::zeros(xs.len())).expect("solve"));
    let flux_err = (0..xs.len())
        .map(|i| (flux[i] - reference::flux_zero(xs[i])).abs())
        .fold(0.0, f64::max);
    let flux_scale = std::f64::consts::PI / std::f64::consts::PI.sinh();
    out.check(flux_err <= FLUX_TOL * flux_scale, || {
        format!("zero-control flux is {flux_err:e} from the closed form")
    });
    // DP gradient at c = 0 against central differences of `cost` along
    // seeded directions (J is quadratic in c, so the difference is exact
    // up to rounding).
    let n = p.n_controls();
    let zero = DVec::zeros(n);
    let (_, g) = p.cost_and_grad_dp(&zero).expect("DP gradient");
    let mut rng = Rng64::seed_from_u64(opts.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 3);
    for _ in 0..2 {
        let mut d = vec![0.0; n];
        rng.fill_uniform(&mut d, -1.0..1.0);
        let d = DVec(d);
        let eps = 1e-3;
        let jp = p.cost(&d.scaled(eps)).expect("cost");
        let jm = p.cost(&d.scaled(-eps)).expect("cost");
        let fd = (jp - jm) / (2.0 * eps);
        let an = g.dot(&d);
        // Scaled by ‖g‖‖d‖, not |g·d|: a direction nearly orthogonal to
        // the gradient leaves only the solve's rounding noise, amplified
        // by 1/eps, in the difference.
        out.check((fd - an).abs() <= 1e-6 * g.norm2() * d.norm2(), || {
            format!("DP directional derivative {an:e} vs central difference {fd:e}")
        });
    }

    let first = &rounds[0];
    for (k, r) in rounds.iter().enumerate() {
        out.attempted += r.runs.len() as u64;
        for (i, (d, (_, run))) in defs.iter().zip(&r.runs).enumerate() {
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(e.clone());
                    continue;
                }
            };
            if k > 0 {
                // Later rounds repeat the first bit for bit.
                let ok = first.runs[i].1.as_ref().is_ok_and(|r0| {
                    r0.report.final_cost.to_bits() == run.report.final_cost.to_bits()
                });
                out.check(ok, || format!("{}: round {k} differs from round 0", d.key));
                if d.key == "neural_op" && !neural_op_ok(run, j0) {
                    out.failed += 1;
                }
                continue;
            }
            let j = run.report.final_cost;
            match (d.key, d.grad) {
                (_, Some(_)) => {
                    let tgt = target(d, j0_sparse);
                    out.check(j <= tgt, || {
                        format!("{}: final cost {j:e} misses target {tgt:e}", d.key)
                    });
                    if !d.sparse {
                        let err = (0..n)
                            .map(|i| (run.control[i] - reference::minimiser(xs[i])).abs())
                            .fold(0.0, f64::max);
                        out.check(err <= MINIMISER_TOL, || {
                            format!("{}: control is {err:.4} from the series minimiser", d.key)
                        });
                    }
                }
                ("pinn", _) => out.check(j < j0, || {
                    format!("PINN re-solved cost {j} is not below J(0) = {j0}")
                }),
                ("neural_op", _) => {
                    if !neural_op_ok(run, j0) {
                        let (est, audit) = audit_pair(run);
                        eprintln!(
                            "perfbench: neural_op fails its audit (known fault): audited {audit:.4}, \
                             surrogate estimate {est:.4}, J(0) {j0:.4}"
                        );
                        out.failed += 1;
                    }
                }
                _ => unreachable!("every run has a check"),
            }
        }
    }
}

/// NeuralOp passes when its audited cost is below the solver's `J(0)` and
/// within [`AUDIT_GAP_TOL`] of the surrogate's own final estimate.
fn neural_op_ok(run: &SpecRun, j0: f64) -> bool {
    let (est, audit) = audit_pair(run);
    audit < j0 && (audit - est).abs() <= AUDIT_GAP_TOL * audit
}

/// The traced mode: the same round once more with the trace sink on and
/// every optimiser loop replayed under the benchmark's timers.
fn traced(opts: &Opts, b: &Builds, defs: &[Def], untraced: &Round, out: &mut Outcome) {
    let (_, dense_build, lu_dense, lu_n_dense) = bench::traced_build(|| {
        BuiltProblem::build(&ProblemSpec::Laplace {
            nx: NX,
            backend: BackendKind::DenseLu,
        })
    });
    let (_, sparse_build, _, _) = bench::traced_build(|| {
        BuiltProblem::build(&ProblemSpec::Laplace {
            nx: NX_SPARSE,
            backend: BackendKind::SparseGmres,
        })
    });
    let cap = Capture::start();
    let t = Instant::now();
    let p = b.dense.laplace().expect("dense Laplace build");
    let mut replays: Vec<(&str, Replay)> = Vec::new();
    for (d, (_, run)) in defs.iter().zip(&untraced.runs) {
        let Some(grad) = d.grad else { continue };
        let problem = b.of(d).laplace().expect("Laplace build");
        match replay::laplace(
            problem,
            grad,
            d.spec.optimizer,
            d.spec.iterations,
            d.spec.lr,
        ) {
            Ok(r) => {
                let same = run
                    .as_ref()
                    .is_ok_and(|run| run.report.final_cost.to_bits() == r.final_cost.to_bits());
                out.check(same, || {
                    format!("{}: replay does not end at execute's final cost", d.key)
                });
                replays.push((d.key, r));
            }
            Err(e) => out.problems.push(format!("{}: replay failed: {e}", d.key)),
        }
    }
    let pinn = defs.iter().find(|d| d.key == "pinn").expect("pinn run");
    let (pinn_run, pinn_s) = timed(|| execute(b, pinn));
    out.check(pinn_run.is_ok(), || "traced PINN run failed".into());
    // NeuralOp, split into training and the surrogate-driven optimisation.
    let neural = defs
        .iter()
        .find(|d| d.key == "neural_op")
        .expect("neural-op run");
    let cfg = SurrogateSpec::default();
    let (surrogate, train_s) = timed(|| LaplaceSurrogate::train(p, &cfg, NEURAL_OP_SEED));
    let surrogate = surrogate.expect("surrogate training");
    let opts_n = OptimizeOpts::builder()
        .iterations(neural.spec.iterations)
        .lr(neural.spec.lr)
        .log_every(neural.spec.log_every)
        .build();
    let (_, control) = control::api::optimize(&mut SurrogateObjective::new(&surrogate), &opts_n)
        .expect("surrogate optimisation");
    let audited = p.cost(&control).expect("audit solve");
    let untraced_neural = untraced
        .runs
        .iter()
        .zip(defs)
        .find(|(_, d)| d.key == "neural_op")
        .and_then(|((_, r), _)| r.as_ref().ok())
        .expect("untraced neural-op run");
    out.check(
        audited.to_bits() == untraced_neural.report.final_cost.to_bits(),
        || "NeuralOp replay does not end at execute's audited cost".into(),
    );
    let traced_wall = secs(t);
    let events = cap.finish();

    // Per-call surrogate cost.
    let mut rng = Rng64::seed_from_u64(opts.seed);
    let probes: Vec<DVec> = (0..256)
        .map(|_| {
            let mut c = vec![0.0; p.n_controls()];
            rng.fill_uniform(&mut c, -0.5..0.5);
            DVec(c)
        })
        .collect();
    let (sum, cost_s) = timed(|| probes.iter().map(|c| surrogate.cost(c)).sum::<f64>());
    std::hint::black_box(sum);

    let (est, audit) = audit_pair(untraced_neural);
    let sum_of = |keys: &[&str], f: fn(&Replay) -> (f64, usize)| {
        let (s, n) = replays
            .iter()
            .filter(|(k, _)| keys.contains(k))
            .map(|(_, r)| f(r))
            .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        s * 1e3 / n.max(1) as f64
    };
    let dense_keys = ["dal", "dp", "newton_dp", "newton_dal", "lbfgs"];
    let find = |k: &str| replays.iter().find(|(key, _)| *key == k).map(|(_, r)| r);
    let iters = |k: &str, tgt: f64| find(k).and_then(|r| r.iters_to(tgt)).unwrap_or(0) as f64;
    let (gmres_s, _) = bench::spans(&events, &["gmres_solve"]);
    let gmres_iters: usize = ["gmres_ilu0", "gmres_ilu0_t"]
        .iter()
        .map(|s| bench::solves(&events, "linsolve", s).1)
        .sum();
    let (lu_s, lu_n) = bench::spans(&events, &["lu_factor", "lu_refactor"]);
    let wall: f64 = replays.iter().map(|(_, r)| r.wall_s).sum();
    let unattributed: f64 = replays.iter().map(|(_, r)| r.unattributed_s()).sum();

    out.set("rbf.build_s", dense_build + sparse_build);
    out.set("linalg.lu_factor_s", lu_dense + lu_s);
    out.set("linalg.lu_factor_count", (lu_n_dense + lu_n) as f64);
    out.set("linalg.gmres_s", gmres_s);
    out.set("linalg.gmres_iters", gmres_iters as f64);
    out.set(
        "linalg.ilu0_fallbacks",
        bench::counters(&events, "ilu0_jacobi_fallback") as f64,
    );
    out.set(
        "pde.laplace_cost_ms",
        sum_of(&dense_keys, |r| (r.cost_s, r.cost_calls)),
    );
    out.set(
        "pde.laplace_grad_ms.dal",
        sum_of(&["dal", "newton_dal"], |r| (r.grad_s, r.grad_calls)),
    );
    out.set(
        "pde.laplace_grad_ms.dp",
        sum_of(&["dp", "newton_dp", "lbfgs"], |r| (r.grad_s, r.grad_calls)),
    );
    out.set(
        "pde.laplace_hvp_ms",
        sum_of(&["newton_dp", "newton_dal"], |r| (r.hvp_s, r.hvp_calls)),
    );
    out.set("opt.step_ms", sum_of(&dense_keys, |r| (r.step_s, r.steps)));
    out.set(
        "opt.hvp_calls.newton_dal",
        find("newton_dal").map_or(0, |r| r.hvp_calls) as f64,
    );
    out.set(
        "opt.hvp_calls.newton_dp",
        find("newton_dp").map_or(0, |r| r.hvp_calls) as f64,
    );
    out.set("opt.iters_to_target.dal", iters("dal", TARGET));
    out.set("opt.iters_to_target.dp", iters("dp", TARGET));
    out.set(
        "opt.iters_to_target.newton_dal",
        iters("newton_dal", TARGET),
    );
    out.set("opt.iters_to_target.newton_dp", iters("newton_dp", TARGET));
    out.set("opt.iters_to_target.lbfgs", iters("lbfgs", TARGET));
    out.set("nn.surrogate_train_s", train_s);
    out.set("nn.pinn_train_s", pinn_s);
    out.set("nn.surrogate_cost_us", cost_s * 1e6 / probes.len() as f64);
    out.set("control.audit_gap", (audit - est).abs() / audit);
    out.set("control.unattributed_share", unattributed / wall.max(1e-12));
    let dense_speedup = bench::pool_speedup(&b.dense, &defs[1].spec, 40, out);
    let sparse_speedup = bench::pool_speedup(&b.sparse, &defs[5].spec, 15, out);
    out.set("runtime.pool_speedup.dense_laplace", dense_speedup);
    out.set("runtime.pool_speedup.sparse_laplace", sparse_speedup);
    out.set("trace.overhead", traced_wall / untraced.wall_s);
}
