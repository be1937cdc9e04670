//! `campaign-grid`: a Table 3-style grid through `driver::Campaign` with
//! one worker per core — strategies × optimizers × backends × seeds on
//! small Laplace and Navier–Stokes specs, plus one fault-injected
//! synthetic spec that must retry — followed by a resume pass over the
//! finished ledger.

use crate::bench::{self, secs, timed, Opts, Outcome};
use crate::stats;
use control::api::{BackendKind, BuiltProblem, OptimizerKind, RunCtx, RunSpec, SpecRun, Strategy};
use driver::{Campaign, CampaignSummary, LedgerRecord, RunStatus};
use meshfree_runtime::{par, CancelToken};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Nominal length of one round on the reference host (2 vCPUs).
pub const ROUND_S: f64 = 2.1;
/// Control dimension of the synthetic specs.
pub const SYNTHETIC_N: usize = 8;
/// Poisoned attempts of the fault-injected spec.
pub const FAIL_ATTEMPTS: u32 = 1;
/// Label of the fault-injected spec.
const FAULTY: &str = "synthetic-fault-injected";

fn grid(seed: u64) -> Vec<RunSpec> {
    use OptimizerKind::*;
    use Strategy::*;
    let mut specs = Vec::new();
    for s in [2 * seed, 2 * seed + 1] {
        for (strategy, optimizer, iterations) in [
            (Dal, Adam, 200),
            (Dp, Adam, 200),
            (Dp, NewtonCg, 5),
            (Dp, Lbfgs, 30),
        ] {
            specs.push(
                RunSpec::laplace()
                    .nx(24)
                    .strategy(strategy)
                    .optimizer(optimizer)
                    .iterations(iterations)
                    .seed(s)
                    .build(),
            );
        }
        for strategy in [Dal, Dp] {
            specs.push(
                RunSpec::laplace()
                    .nx(32)
                    .backend(BackendKind::SparseGmres)
                    .strategy(strategy)
                    .iterations(30)
                    .lr(2e-2)
                    .seed(s)
                    .build(),
            );
        }
        for (strategy, backend, k) in [
            (Dal, BackendKind::DenseLu, 3),
            (Dp, BackendKind::DenseLu, 5),
            (Dp, BackendKind::SparseGmres, 3),
        ] {
            specs.push(
                RunSpec::navier_stokes()
                    .resolution(0.14)
                    .reynolds(100.0)
                    .backend(backend)
                    .strategy(strategy)
                    .refinements(k)
                    .iterations(10)
                    .initial_scale(0.5)
                    .seed(s)
                    .build(),
            );
        }
        specs.push(
            RunSpec::synthetic(SYNTHETIC_N)
                .optimizer(NewtonCg)
                .iterations(10)
                .seed(s)
                .build(),
        );
    }
    specs.push(
        RunSpec::synthetic(SYNTHETIC_N)
            .optimizer(NewtonCg)
            .iterations(10)
            .fail_attempts(FAIL_ATTEMPTS)
            .seed(2 * seed)
            .label(FAULTY)
            .build(),
    );
    specs
}

/// One build per distinct build key (the references direct execution
/// runs against).
fn reference_builds(specs: &[RunSpec]) -> HashMap<String, BuiltProblem> {
    let mut builds = HashMap::new();
    for s in specs {
        builds
            .entry(s.problem.build_key())
            .or_insert_with(|| BuiltProblem::build(&s.problem).expect("reference build"));
    }
    builds
}

struct Round {
    first_s: f64,
    resume_s: f64,
    peak_mb: f64,
    /// Seconds from the campaign's start until each ledger record appeared.
    appeared: Vec<f64>,
    summary: Result<CampaignSummary, String>,
    resumed: Result<CampaignSummary, String>,
    ledger: Vec<u8>,
    resumed_ledger: Vec<u8>,
}

/// Counts ledger records as they are appended, stamping each with the
/// seconds since `start`, until `stop` is set.
fn watch(path: PathBuf, start: Instant, stop: Arc<AtomicBool>) -> thread::JoinHandle<Vec<f64>> {
    thread::spawn(move || {
        let mut stamps = Vec::new();
        loop {
            let done = stop.load(Ordering::SeqCst);
            let records = std::fs::read_to_string(&path)
                .map(|t| t.lines().filter(|l| l.contains("\"status\"")).count())
                .unwrap_or(0);
            while stamps.len() < records {
                stamps.push(secs(start));
            }
            if done {
                return stamps;
            }
            thread::sleep(Duration::from_millis(2));
        }
    })
}

fn round(specs: &[RunSpec], workers: usize, k: usize) -> Round {
    std::fs::create_dir_all(bench::SCRATCH).expect("scratch directory");
    let path = PathBuf::from(format!(
        "{}/campaign-{}-{k}.jsonl",
        bench::SCRATCH,
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let campaign = Campaign::new("perfbench-grid", &path)
        .extend(specs.iter().cloned())
        .workers(workers);
    control::metrics::reset_peak();
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let watcher = watch(path.clone(), start, Arc::clone(&stop));
    let summary = campaign.run().map_err(|e| e.to_string());
    let first_s = secs(start);
    stop.store(true, Ordering::SeqCst);
    let appeared = watcher.join().expect("ledger watcher");
    let peak_mb = bench::peak_mb();
    let ledger = read(&path);
    let (resumed, resume_s) = timed(|| campaign.run().map_err(|e| e.to_string()));
    let resumed_ledger = read(&path);
    let _ = std::fs::remove_file(&path);
    Round {
        first_s,
        resume_s,
        peak_mb,
        appeared,
        summary,
        resumed,
        ledger,
        resumed_ledger,
    }
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_default()
}

pub fn run(opts: &Opts, out: &mut Outcome) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let specs = grid(opts.seed);
    let (builds, setup_s) = bench::median_setup(5, || reference_builds(&specs));
    let rounds = if opts.trace {
        vec![round(&specs, workers, 0)]
    } else {
        bench::rounds(opts.seconds, ROUND_S, |k| round(&specs, workers, k))
    };
    verify(&specs, &builds, &rounds, out);
    let first: Vec<f64> = rounds.iter().map(|r| r.first_s).collect();
    if opts.trace {
        let r = &rounds[0];
        let bytes = r.ledger.len() as f64;
        let retries = r.summary.as_ref().map_or(0, |s| {
            s.records
                .iter()
                .map(|x| x.attempts.saturating_sub(1))
                .sum::<u32>()
        });
        // A traced first pass, for the tracing overhead.
        let cap = bench::Capture::start();
        let traced = round(&specs, workers, 1);
        drop(cap.finish());
        out.set("driver.ledger_bytes", bytes);
        out.set("driver.resume_s", r.resume_s);
        out.set("driver.builds", builds.len() as f64);
        out.set("driver.retries", f64::from(retries));
        out.set("trace.overhead", traced.first_s / r.first_s);
        return;
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.first_s + r.resume_s).collect();
    let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_mb).collect();
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.appeared.iter().map(|s| s * 1e3))
        .collect();
    out.set("setup_s", setup_s);
    bench::print_rounds(&walls);
    out.set("wall_s", stats::median(&walls));
    out.set("tts_s", stats::median(&first));
    out.set("peak_mb", stats::median(&peaks));
    out.set("latency_ms.p50", stats::median(&lat));
    out.set("latency_ms.p99", stats::percentile(&lat, 99));
}

/// Direct execution of the spec a record ran (with the record's retried
/// seed and learning rate, at its final attempt) on a one-thread pool.
fn direct(
    spec: &RunSpec,
    rec: &LedgerRecord,
    builds: &HashMap<String, BuiltProblem>,
) -> Result<SpecRun, String> {
    let mut spec = spec.clone();
    spec.seed = rec.seed;
    spec.lr = rec.lr;
    let ctx = RunCtx::supervised(CancelToken::new(), rec.attempts.saturating_sub(1));
    let pool = Arc::new(par::ThreadPool::new(1));
    par::with_pool(&pool, || {
        builds[&spec.problem.build_key()].execute(&spec, &ctx)
    })
    .map_err(|e| e.to_string())
}

fn verify(
    specs: &[RunSpec],
    builds: &HashMap<String, BuiltProblem>,
    rounds: &[Round],
    out: &mut Outcome,
) {
    let first = &rounds[0];
    for (k, r) in rounds.iter().enumerate() {
        out.attempted += specs.len() as u64;
        let summary = match &r.summary {
            Ok(s) => s,
            Err(e) => {
                out.failed += specs.len() as u64;
                out.problems
                    .push(format!("round {k}: campaign failed: {e}"));
                continue;
            }
        };
        let done = summary
            .records
            .iter()
            .filter(|x| x.status == RunStatus::Done)
            .count();
        out.failed += (specs.len() - done) as u64;
        out.check(done == specs.len(), || {
            format!(
                "round {k}: {done} of {} specs ended done:\n{}",
                specs.len(),
                summary.table()
            )
        });
        out.check(r.appeared.len() == specs.len(), || {
            format!(
                "round {k}: watched {} ledger appends for {} specs",
                r.appeared.len(),
                specs.len()
            )
        });
        match &r.resumed {
            Ok(s) => out.check(s.skipped == specs.len() && s.executed == 0, || {
                format!(
                    "round {k}: resume skipped {} and re-ran {}",
                    s.skipped, s.executed
                )
            }),
            Err(e) => out.problems.push(format!("round {k}: resume failed: {e}")),
        }
        out.check(r.resumed_ledger == r.ledger, || {
            format!("round {k}: resume changed the ledger bytes")
        });
        if k > 0 {
            out.check(r.ledger == first.ledger, || {
                format!("round {k}: ledger differs from round 0")
            });
            continue;
        }
        for (spec, rec) in specs.iter().zip(&summary.records) {
            let id = spec.id();
            out.check(rec.spec_id == id, || {
                format!("ledger order: {} where {id} was expected", rec.spec_id)
            });
            if rec.spec_id == FAULTY {
                out.check(rec.attempts == FAIL_ATTEMPTS + 1, || {
                    format!(
                        "{FAULTY}: {} attempts, expected {}",
                        rec.attempts,
                        FAIL_ATTEMPTS + 1
                    )
                });
            }
            let Some(cost) = rec.final_cost else { continue };
            match direct(spec, rec, builds) {
                Ok(run) => {
                    out.check(run.report.final_cost.to_bits() == cost.to_bits(), || {
                        format!(
                            "{id}: campaign cost {cost:e}, direct one-thread run {:e}",
                            run.report.final_cost
                        )
                    });
                    if matches!(spec.problem, control::ProblemSpec::Synthetic { .. }) {
                        // J = ½‖c − t‖² with t_i = sin(0.8 (i+1)).
                        let err = (0..SYNTHETIC_N)
                            .map(|i| (run.control[i] - (0.8 * (i as f64 + 1.0)).sin()).abs())
                            .fold(0.0, f64::max);
                        out.check(err <= 1e-6, || {
                            format!("{id}: control is {err:e} from the minimiser")
                        });
                    }
                }
                Err(e) => out.problems.push(format!("{id}: direct run failed: {e}")),
            }
        }
    }
}
