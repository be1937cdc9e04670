//! What every workload shares: the command line, the metric catalogue,
//! the round loop, outcome bookkeeping and trace capture.

use control::api::{BuiltProblem, RunCtx, RunSpec};
use meshfree_runtime::par;
use meshfree_runtime::trace::{self, MemorySink, TraceEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Directory, relative to the checkout, for the benchmark's sockets and
/// ledgers.
pub const SCRATCH: &str = ".perfbench";

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tts_s", "s"),
    ("peak_mb", "MB"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p99", "ms"),
];

/// Per-layer metrics, reported by the traced mode. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rbf.build_s", "s"),
    ("linalg.lu_factor_s", "s"),
    ("linalg.lu_factor_count", "count"),
    ("linalg.solve_ms", "ms"),
    ("linalg.solve_many_ms.w1", "ms"),
    ("linalg.solve_many_ms.w8", "ms"),
    ("linalg.gmres_s", "s"),
    ("linalg.gmres_iters", "count"),
    ("linalg.ilu0_fallbacks", "count"),
    ("runtime.pool_speedup.dense_laplace", "ratio"),
    ("runtime.pool_speedup.sparse_laplace", "ratio"),
    ("runtime.pool_speedup.ns_sparse", "ratio"),
    ("pde.laplace_cost_ms", "ms"),
    ("pde.laplace_grad_ms.dal", "ms"),
    ("pde.laplace_grad_ms.dp", "ms"),
    ("pde.laplace_hvp_ms", "ms"),
    ("pde.ns_grad_ms.dal", "ms"),
    ("pde.ns_grad_ms.dp", "ms"),
    ("pde.ns_picard_sweeps", "count"),
    ("autodiff.tape_mb", "MB"),
    ("opt.step_ms", "ms"),
    ("opt.hvp_calls.newton_dal", "count"),
    ("opt.hvp_calls.newton_dp", "count"),
    ("opt.iters_to_target.dal", "count"),
    ("opt.iters_to_target.dp", "count"),
    ("opt.iters_to_target.newton_dal", "count"),
    ("opt.iters_to_target.newton_dp", "count"),
    ("opt.iters_to_target.lbfgs", "count"),
    ("opt.iters_to_target.ns_dal", "count"),
    ("opt.iters_to_target.ns_dp", "count"),
    ("nn.surrogate_train_s", "s"),
    ("nn.pinn_train_s", "s"),
    ("nn.surrogate_cost_us", "us"),
    ("control.audit_gap", "ratio"),
    ("control.unattributed_share", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.lookup_ms.p99", "ms"),
    ("serve.batch_wait_ms.p50", "ms"),
    ("serve.batch_width.mean", "count"),
    ("serve.generator_late_ms.p99", "ms"),
    ("driver.ledger_bytes", "bytes"),
    ("driver.resume_s", "s"),
    ("driver.builds", "count"),
    ("driver.retries", "count"),
    ("trace.overhead", "ratio"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig3,
    Fig4,
    ServeMix,
    Campaign,
}

impl Workload {
    pub const NAMES: [&'static str; 4] = ["fig3-laplace", "fig4-ns", "serve-mix", "campaign-grid"];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3 => Self::NAMES[0],
            Workload::Fig4 => Self::NAMES[1],
            Workload::ServeMix => Self::NAMES[2],
            Workload::Campaign => Self::NAMES[3],
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        [
            Workload::Fig3,
            Workload::Fig4,
            Workload::ServeMix,
            Workload::Campaign,
        ]
        .into_iter()
        .find(|w| w.name() == s)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// serve-mix only: send each connection's next request as soon as the
    /// previous one is answered, to measure the mix's saturation rate.
    pub closed_loop: bool,
}

impl Opts {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut closed_loop = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                    })
                }
                "--closed-loop" => {
                    closed_loop = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("closed-loop must be 0 or 1, got {value:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let opts = Opts {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
            closed_loop,
        };
        if opts.closed_loop && (opts.workload != Workload::ServeMix || opts.trace) {
            return Err("--closed-loop 1 needs --workload serve-mix and --trace 0".into());
        }
        Ok(opts)
    }
}

/// Removes every inherited `MESHFREE_*` variable (pool width, cache
/// budget, batch window, trace sink, bless flag) so the workloads run at
/// the program's defaults plus the settings the benchmark passes
/// explicitly. Returns what was removed. Must run before any thread
/// starts.
pub fn pin_environment() -> Vec<String> {
    let inherited: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MESHFREE_"))
        .collect();
    for (k, _) in &inherited {
        std::env::remove_var(k);
    }
    inherited
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect()
}

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers: any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a correctness condition.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Prints the result line (last line of standard output).
    pub fn emit(&self, traced: bool) -> Result<(), String> {
        for p in &self.problems {
            eprintln!("perfbench: WRONG: {p}");
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                // Layers a workload does not exercise read 0.
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f`, returning its result and its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Runs `seconds / round_s` whole rounds (rounded, at least one), where
/// `round_s` is a round's nominal length on the reference host. A fixed
/// count, not a deadline, keeps the work of every run the same.
pub fn rounds<T>(seconds: f64, round_s: f64, round: impl FnMut(usize) -> T) -> Vec<T> {
    let n = ((seconds / round_s).round() as usize).max(1);
    (0..n).map(round).collect()
}

/// Prints each round's wall time as a comment line, for reading the
/// spread within a run.
pub fn print_rounds(walls: &[f64]) {
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("# round_wall_s={}", list.join(","));
}

/// Median of a set-up step repeated `reps` times; returns the last
/// result with it, and prints every repetition's time as a comment line.
pub fn median_setup<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (r, s) = timed(&mut f);
        times.push(s);
        last = Some(r);
    }
    let list: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    println!("# setup_each_s={}", list.join(","));
    (
        last.expect("at least one repetition"),
        crate::stats::median(&times),
    )
}

/// Wall time of `spec` (cut to `iterations`) on a one-thread pool divided
/// by its wall time at the default width; both results must agree bit for
/// bit.
pub fn pool_speedup(b: &BuiltProblem, spec: &RunSpec, iterations: usize, out: &mut Outcome) -> f64 {
    let mut spec = spec.clone();
    spec.iterations = iterations;
    let run = || {
        b.execute(&spec, &RunCtx::new())
            .map(|r| r.report.final_cost)
    };
    let (wide, t_wide) = timed(run);
    let one = Arc::new(par::ThreadPool::new(1));
    let (narrow, t_one) = timed(|| par::with_pool(&one, run));
    let same = matches!((&wide, &narrow), (Ok(a), Ok(b)) if a.to_bits() == b.to_bits());
    out.check(same, || {
        format!("{}: result depends on the pool width", spec.id())
    });
    t_one / t_wide
}

/// Peak tracked heap (MB) since the last [`control::metrics::reset_peak`].
pub fn peak_mb() -> f64 {
    control::metrics::peak_allocated_bytes() as f64 / 1e6
}

/// An in-memory trace capture: the program's own spans, counters and
/// solve events, recorded while it is alive.
pub struct Capture {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl Capture {
    pub fn start() -> Capture {
        let (sink, events) = MemorySink::new();
        trace::set_sink(Box::new(sink));
        Capture { events }
    }

    /// Events recorded so far, leaving the capture running.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace capture poisoned"))
    }

    /// Stops tracing and returns what is left.
    pub fn finish(self) -> Vec<TraceEvent> {
        trace::clear_sink();
        self.take()
    }
}

/// Summed duration (s) and count of spans called `name`.
pub fn spans(events: &[TraceEvent], names: &[&str]) -> (f64, usize) {
    let mut total = 0.0;
    let mut count = 0;
    for e in events {
        if let TraceEvent::Span { name, micros } = e {
            if names.contains(name) {
                total += *micros as f64 * 1e-6;
                count += 1;
            }
        }
    }
    (total, count)
}

/// Number of counter events called `name`.
pub fn counters(events: &[TraceEvent], name: &str) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Counter { name: n, .. } if *n == name))
        .count()
}

/// Solve events of `(layer, solver)`: their number and the sum of their
/// `iter` fields.
pub fn solves(events: &[TraceEvent], layer: &str, solver: &str) -> (usize, usize) {
    let mut count = 0;
    let mut iters = 0;
    for e in events {
        if let TraceEvent::Solve {
            layer: l,
            solver: s,
            event,
        } = e
        {
            if *l == layer && *s == solver {
                count += 1;
                iters += event.iter;
            }
        }
    }
    (count, iters)
}

/// Builds a problem under a trace capture and splits its time into RBF
/// assembly and LU factorisation: returns `(result, build_s, lu_s,
/// lu_count)` where `build_s` excludes the factorisation spans.
pub fn traced_build<R>(f: impl FnOnce() -> R) -> (R, f64, f64, usize) {
    let cap = Capture::start();
    let (r, wall) = timed(f);
    let events = cap.finish();
    let (lu_s, lu_count) = spans(&events, &["lu_factor", "lu_refactor"]);
    (r, (wall - lu_s).max(0.0), lu_s, lu_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogues above are the ones `BENCHMARK.json` declares.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let declared: Vec<&str> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("name closes")])
                .collect();
            let ours: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            assert_eq!(declared, ours, "{section}");
            for &(name, unit) in catalogue {
                let entry = &body[body.find(&format!("\"{name}\"")).expect("declared")..];
                assert!(
                    entry[..entry.find('}').expect("entry closes")]
                        .contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} unit"
                );
            }
        }
        for w in Workload::NAMES {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn options_parse_and_reject_nonsense() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o =
            Opts::parse(args("--workload fig4-ns --seed 3 --seconds 2.5 --trace 1").into_iter())
                .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace, o.closed_loop),
            (Workload::Fig4, 3, 2.5, true, false)
        );
        let o = Opts::parse(
            args("--workload serve-mix --seed 1 --seconds 4 --trace 0 --closed-loop 1").into_iter(),
        )
        .unwrap();
        assert!(o.closed_loop);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fig4-ns --seed x --seconds 1 --trace 0",
            "--workload fig4-ns --seed 1 --seconds 0 --trace 0",
            "--workload fig4-ns --seed 1 --seconds 1 --trace 2",
            "--workload fig4-ns --seconds 1",
            "--workload fig4-ns --seed 1 --seconds 1 --trace 0 --closed-loop 1",
            "--workload serve-mix --seed 1 --seconds 1 --trace 1 --closed-loop 1",
        ] {
            assert!(Opts::parse(args(bad).into_iter()).is_err(), "{bad}");
        }
    }
}
