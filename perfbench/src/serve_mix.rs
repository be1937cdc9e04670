//! `serve-mix`: the daemon (`serve::Server`) served from this process over
//! one Unix-socket connection per core, with an open-loop request
//! schedule (see [`crate::schedule`]): warm Laplace `eval`s from every
//! connection, which the batcher coalesces into multi-RHS solves, and on
//! connection 0 `neural-eval`s on a surrogate, short `run`s and `eval`s on
//! a rotating set of cold keys that forces misses and evictions under an
//! explicit byte budget.

use crate::bench::{self, timed, Capture, Opts, Outcome};
use crate::schedule::{self, Ask, Due};
use crate::{reference, stats};
use control::api::{BackendKind, BuiltProblem, ProblemSpec, RunCtx, RunSpec, Strategy};
use control::{LaplaceSurrogate, SurrogateSpec};
use linalg::DVec;
use serve::wire::{self, Response};
use serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Warm key: the dense nx = 32 Laplace build of the `eval`s.
pub const NX_WARM: usize = 32;
/// Surrogate key: the dense nx = 24 build whose surrogate answers the
/// `neural-eval`s. A key of its own, used only by connection 0, so that
/// whether the cold burst evicts it does not depend on the timing of the
/// other connections' warm evals.
pub const NX_SURROGATE: usize = 24;
/// Cold keys, visited in rotation; more than the budget holds.
pub const NX_COLD: [usize; 5] = [16, 17, 18, 19, 20];
/// Build of the short `run` requests.
pub const NX_RUN: usize = 12;
/// Offered load in ticks per second; every connection has one request
/// due per tick. About a third of this mix's saturation rate on the
/// reference host (88–97 ticks per second with 2 vCPUs and two
/// connections, measured with `--closed-loop 1`); see the README.
pub const TICK_RATE: f64 = 30.0;
/// Batching window passed to the daemon (the program's default).
pub const BATCH_WINDOW: Duration = Duration::from_millis(2);

fn laplace(nx: usize) -> ProblemSpec {
    ProblemSpec::Laplace {
        nx,
        backend: BackendKind::DenseLu,
    }
}

/// The short `run` variants, taken in turn.
fn run_specs() -> [RunSpec; 2] {
    let r = |s| {
        RunSpec::laplace()
            .nx(NX_RUN)
            .strategy(s)
            .iterations(60)
            .build()
    };
    [r(Strategy::Dp), r(Strategy::Dal)]
}

fn neural_spec(seed: u64) -> RunSpec {
    RunSpec::laplace()
        .nx(NX_SURROGATE)
        .strategy(Strategy::NeuralOp)
        .seed(seed)
        .build()
}

/// Client connections: one per core, as many as the pool's width.
pub fn connections() -> usize {
    meshfree_runtime::num_threads().max(1)
}

/// Keys of the cache model: the warm, surrogate and run keys, then the
/// cold keys in rotation order.
const KEY_WARM: usize = 0;
const KEY_SURROGATE: usize = 1;
const KEY_RUN: usize = 2;
const KEY_COLD: usize = 3;

/// The benchmark's own builds: answers are checked against these.
struct References {
    warm: BuiltProblem,
    surrogate_key: BuiltProblem,
    cold: Vec<BuiltProblem>,
    run: BuiltProblem,
    surrogate: LaplaceSurrogate,
    surrogate_train_s: f64,
    run_costs: Vec<f64>,
}

impl References {
    fn build(seed: u64) -> References {
        let b = |nx| BuiltProblem::build(&laplace(nx)).expect("Laplace build");
        let warm = b(NX_WARM);
        let run = b(NX_RUN);
        let run_costs = run_specs()
            .iter()
            .map(|s| {
                run.execute(s, &RunCtx::new())
                    .expect("direct run")
                    .report
                    .final_cost
            })
            .collect();
        let surrogate_key = b(NX_SURROGATE);
        let (surrogate, surrogate_train_s) = timed(|| {
            LaplaceSurrogate::train(
                surrogate_key.laplace().expect("Laplace build"),
                &SurrogateSpec::default(),
                seed,
            )
            .expect("surrogate training")
        });
        References {
            cold: NX_COLD.iter().map(|&nx| b(nx)).collect(),
            warm,
            surrogate_key,
            run,
            surrogate,
            surrogate_train_s,
            run_costs,
        }
    }

    /// Bytes of each key of the cache model, as the daemon meters them
    /// (at insertion, before any surrogate is trained).
    fn key_bytes(&self) -> Vec<usize> {
        [&self.warm, &self.surrogate_key, &self.run]
            .into_iter()
            .chain(&self.cold)
            .map(BuiltProblem::memory_bytes)
            .collect()
    }

    /// Byte budget: the steady builds plus room for the two largest cold
    /// builds. The rotation visits more cold keys than that, so cold
    /// requests miss and evict, and the burst of five evicts the
    /// surrogate key too.
    fn budget(&self) -> usize {
        let bytes = self.key_bytes();
        let mut cold = bytes[KEY_COLD..].to_vec();
        cold.sort_unstable();
        bytes[..KEY_COLD].iter().sum::<usize>() + cold.iter().rev().take(2).sum::<usize>()
    }
}

/// Cache key that request `d` looks up.
fn key_of(d: &Due) -> usize {
    match d.ask {
        Ask::Eval(_) => KEY_WARM,
        Ask::NeuralEval(_) => KEY_SURROGATE,
        Ask::Run(_) => KEY_RUN,
        Ask::ColdEval(turn, _) => KEY_COLD + turn % NX_COLD.len(),
    }
}

/// Predicted hit (true) or miss of each request's lookup. The daemon's
/// cache is strict LRU in lookup order. Connection 0 makes every lookup
/// but those of warm evals on the other connections, and those only make
/// the warm key more recent; so as long as the model of connection 0's
/// lookups alone never evicts the warm key, every other connection's
/// lookups hit and connection 0's hits and misses are the model's,
/// whatever the timing.
fn predict_hits(sched: &[Due], refs: &References, budget: usize) -> Vec<bool> {
    // The daemon warms the warm, run and surrogate keys in that order.
    let mut seq = vec![KEY_WARM, KEY_RUN, KEY_SURROGATE];
    seq.extend(sched.iter().filter(|d| d.conn == 0).map(key_of));
    let steps = schedule::lru_model(&seq, &refs.key_bytes(), budget);
    assert!(
        steps.iter().all(|s| !s.evicted.contains(&KEY_WARM)),
        "the serve-mix layout lets LRU evict the warm key; its hits would depend on timing"
    );
    let mut conn0 = steps[3..].iter().map(|s| s.hit);
    sched
        .iter()
        .map(|d| d.conn != 0 || conn0.next().expect("one step per lookup"))
        .collect()
}

/// The daemon, and once it listens, its socket in the checkout with one
/// session thread per accepted connection.
struct Daemon {
    server: Arc<Server>,
    path: PathBuf,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon and warms its steady keys and surrogate.
    fn start(budget: usize, seed: u64) -> Daemon {
        let server = Arc::new(Server::new(&ServeConfig {
            cache_bytes: budget,
            batch_window: BATCH_WINDOW,
        }));
        for nx in [NX_WARM, NX_RUN] {
            server
                .cache()
                .get_or_build(&laplace(nx))
                .expect("warm build");
        }
        let spec = neural_spec(seed);
        let (warm, _) = server
            .cache()
            .get_or_build(&spec.problem)
            .expect("warm build");
        warm.surrogate_for(&spec).expect("warm surrogate");
        Daemon {
            server,
            path: PathBuf::new(),
            acceptor: None,
        }
    }

    /// Binds the socket and serves exactly `conns` connections.
    fn listen(&mut self, conns: usize) {
        std::fs::create_dir_all(bench::SCRATCH).expect("scratch directory");
        self.path = PathBuf::from(format!(
            "{}/serve-{}.sock",
            bench::SCRATCH,
            std::process::id()
        ));
        let _ = std::fs::remove_file(&self.path);
        let listener = UnixListener::bind(&self.path).expect("bind the daemon socket");
        let srv = Arc::clone(&self.server);
        self.acceptor = Some(thread::spawn(move || {
            let sessions: Vec<_> = (0..conns)
                .map(|_| {
                    let (stream, _) = listener.accept().expect("accept a client");
                    let writer = stream.try_clone().expect("clone the client stream");
                    let srv = Arc::clone(&srv);
                    thread::spawn(move || {
                        srv.serve_stream(stream, writer, false);
                    })
                })
                .collect();
            for s in sessions {
                s.join().expect("session thread");
            }
        }));
    }

    /// Waits for every session to end and removes the socket.
    fn stop(mut self) {
        if let Some(a) = self.acceptor.take() {
            a.join().expect("acceptor thread");
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What the client saw of one request.
#[derive(Default, Clone)]
struct Obs {
    sent: Option<Instant>,
    event: Option<(Instant, String, f64)>,
    terminal: Vec<(Instant, Response)>,
}

/// Plays `sched` against a started daemon over `conns` connections and
/// returns what each request saw, with the schedule's start instant. In
/// a closed loop each connection sends its next request as soon as the
/// previous one is answered, ignoring the due times.
fn play(
    daemon: &Daemon,
    sched: &[Due],
    conns: usize,
    refs: &References,
    seed: u64,
    closed_loop: bool,
) -> (Instant, Vec<Obs>) {
    let specs = run_specs();
    let xs = |b: &BuiltProblem| b.laplace().expect("Laplace build").control_x().to_vec();
    let (warm_xs, surrogate_xs) = (xs(&refs.warm), xs(&refs.surrogate_key));
    let cold_xs: Vec<Vec<f64>> = refs.cold.iter().map(xs).collect();
    let lines: Vec<String> = sched
        .iter()
        .enumerate()
        .map(|(k, d)| {
            let id = format!("r{k}");
            match &d.ask {
                Ask::Eval(sh) => wire::eval_request_line(
                    &id,
                    NX_WARM,
                    BackendKind::DenseLu,
                    &schedule::control(sh, &warm_xs),
                ),
                Ask::NeuralEval(sh) => wire::neural_eval_request_line(
                    &id,
                    NX_SURROGATE,
                    BackendKind::DenseLu,
                    seed,
                    &schedule::control(sh, &surrogate_xs),
                ),
                Ask::Run(v) => wire::run_request_line(&id, &specs[*v]),
                Ask::ColdEval(turn, sh) => {
                    let i = turn % NX_COLD.len();
                    wire::eval_request_line(
                        &id,
                        NX_COLD[i],
                        BackendKind::DenseLu,
                        &schedule::control(sh, &cold_xs[i]),
                    )
                }
            }
        })
        .collect();
    let streams: Vec<UnixStream> = (0..conns)
        .map(|_| UnixStream::connect(&daemon.path).expect("connect to the daemon"))
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut handles = Vec::new();
    for (c, stream) in streams.into_iter().enumerate() {
        let mine: Vec<(usize, f64, String)> = sched
            .iter()
            .enumerate()
            .filter(|(_, d)| d.conn == c)
            .map(|(k, d)| (k, d.at_s, lines[k].clone()))
            .collect();
        let reader = stream.try_clone().expect("clone the client stream");
        let ids: HashMap<String, usize> =
            mine.iter().map(|(k, _, _)| (format!("r{k}"), *k)).collect();
        // The reader tells a closed-loop sender of every terminal answer.
        let (answered, next) = mpsc::channel::<()>();
        let read = thread::spawn(move || {
            let mut seen: HashMap<usize, Obs> = HashMap::new();
            let mut unknown = 0usize;
            for line in BufReader::new(reader).lines() {
                let Ok(line) = line else { break };
                let now = Instant::now();
                let Ok(resp) = wire::parse_response(&line) else {
                    unknown += 1;
                    continue;
                };
                let id = match &resp {
                    Response::Record(r) => r.spec_id.clone(),
                    Response::Event { id, .. }
                    | Response::Cost { id, .. }
                    | Response::Error { id, .. }
                    | Response::Done { id } => id.clone(),
                };
                if matches!(resp, Response::Done { .. }) {
                    break;
                }
                let Some(&k) = ids.get(&id) else {
                    unknown += 1;
                    continue;
                };
                let o = seen.entry(k).or_default();
                match resp {
                    Response::Event {
                        event, cache_bytes, ..
                    } => o.event = Some((now, event, cache_bytes)),
                    other => {
                        o.terminal.push((now, other));
                        let _ = answered.send(());
                    }
                }
            }
            (seen, unknown)
        });
        let mut writer = stream;
        let write = thread::spawn(move || {
            let mut sent = Vec::with_capacity(mine.len());
            for (k, at, line) in mine {
                let at = if closed_loop { 0.0 } else { at };
                let due = start + Duration::from_secs_f64(at);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                writeln!(writer, "{line}").expect("send a request");
                writer.flush().expect("send a request");
                sent.push((k, Instant::now()));
                if closed_loop {
                    // A request left unanswered shows in the checks.
                    let _ = next.recv_timeout(Duration::from_secs(30));
                }
            }
            writeln!(writer, "{}", wire::done_request_line("bench-done")).expect("send done");
            writer.flush().expect("send done");
            sent
        });
        handles.push((write, read));
    }
    let mut obs = vec![Obs::default(); sched.len()];
    for (write, read) in handles {
        let sent = write.join().expect("writer thread");
        let (seen, unknown) = read.join().expect("reader thread");
        for (k, t) in sent {
            obs[k].sent = Some(t);
        }
        for (k, o) in seen {
            obs[k].event = o.event;
            obs[k].terminal = o.terminal;
        }
        if unknown > 0 {
            eprintln!("perfbench: {unknown} response lines matched no request");
        }
    }
    (start, obs)
}

/// Checks every answer; returns the per-request latency (ms) of the
/// requests that were answered, timed from when each was due (from when
/// it was sent, in a closed loop).
#[allow(clippy::too_many_arguments)]
fn verify(
    sched: &[Due],
    obs: &[Obs],
    start: Instant,
    refs: &References,
    budget: usize,
    hits: &[bool],
    closed_loop: bool,
    out: &mut Outcome,
) -> Vec<f64> {
    let p = refs.warm.laplace().expect("Laplace build");
    let xs = p.control_x();
    let sx = refs
        .surrogate_key
        .laplace()
        .expect("Laplace build")
        .control_x();
    let jz = reference::j_zero();
    let mut lat = Vec::with_capacity(sched.len());
    out.attempted += sched.len() as u64;
    for (k, (d, o)) in sched.iter().zip(obs).enumerate() {
        match &o.event {
            Some((_, event, bytes)) => {
                out.check(*bytes <= budget as f64, || {
                    format!("r{k}: resident cache bytes {bytes} exceed the budget {budget}")
                });
                let want = if hits[k] { "cache_hit" } else { "cache_miss" };
                out.check(event == want, || {
                    format!("r{k}: the cache answered {event}, strict LRU gives {want}")
                });
            }
            None => out.problems.push(format!("r{k}: no cache event line")),
        }
        if o.terminal.len() != 1 {
            out.failed += 1;
            out.problems
                .push(format!("r{k}: {} terminal answers", o.terminal.len()));
            continue;
        }
        let (t, resp) = &o.terminal[0];
        let from = match (closed_loop, o.sent) {
            (true, Some(sent)) => sent,
            _ => start + Duration::from_secs_f64(d.at_s),
        };
        lat.push(t.saturating_duration_since(from).as_secs_f64() * 1e3);
        let got = match resp {
            Response::Cost { cost, .. } => *cost,
            Response::Record(r) => r.final_cost.unwrap_or(f64::NAN),
            other => {
                out.failed += 1;
                out.problems.push(format!("r{k}: answered {other:?}"));
                continue;
            }
        };
        let (want, what) = match &d.ask {
            Ask::Eval(sh) => (p.cost(&schedule::control(sh, xs)).expect("cost"), "eval"),
            Ask::NeuralEval(sh) => (
                refs.surrogate.cost(&schedule::control(sh, sx)),
                "neural-eval",
            ),
            Ask::Run(v) => (refs.run_costs[*v], "run"),
            Ask::ColdEval(turn, sh) => {
                let c = refs.cold[turn % NX_COLD.len()]
                    .laplace()
                    .expect("Laplace build");
                (
                    c.cost(&schedule::control(sh, c.control_x())).expect("cost"),
                    "cold eval",
                )
            }
        };
        if got.to_bits() != want.to_bits() {
            out.failed += 1;
            out.problems.push(format!(
                "r{k}: {what} answered {got:e}, direct call gives {want:e}"
            ));
        }
        if matches!(d.ask, Ask::Eval(sh) if sh == [0.0; 3]) {
            out.check((got - jz).abs() <= 0.01 * jz, || {
                format!("r{k}: zero-control eval {got} is not within 1% of J(0) = {jz}")
            });
        }
    }
    lat
}

/// Time from the schedule's start to its last answer (s).
fn drain_s(obs: &[Obs], start: Instant) -> f64 {
    obs.iter()
        .filter_map(|o| {
            o.terminal
                .first()
                .map(|(t, _)| t.saturating_duration_since(start).as_secs_f64())
        })
        .fold(0.0, f64::max)
}

/// Whole rounds that fill `seconds` at the tick rate, at least one.
fn rounds_in(seconds: f64) -> usize {
    ((seconds * TICK_RATE / schedule::TICKS as f64).floor() as usize).max(1)
}

pub fn run(opts: &Opts, out: &mut Outcome) {
    let conns = connections();
    let refs = References::build(opts.seed);
    let budget = refs.budget();
    let (mut daemon, setup_s) = bench::median_setup(5, || Daemon::start(budget, opts.seed));
    daemon.listen(conns);
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let sched = schedule::build(
        opts.seed,
        rounds_in(seconds),
        TICK_RATE,
        conns,
        run_specs().len(),
    );
    let hits = predict_hits(&sched, &refs, budget);
    let misses = |key: usize| {
        sched
            .iter()
            .zip(&hits)
            .filter(|(d, h)| !**h && (key == usize::MAX || key_of(d) == key))
            .count()
    };
    println!(
        "# connections={conns} requests={} budget_bytes={budget} predicted_misses={} \
         surrogate_key_misses={}",
        sched.len(),
        misses(usize::MAX),
        misses(KEY_SURROGATE)
    );

    control::metrics::reset_peak();
    let (start, obs) = play(&daemon, &sched, conns, &refs, opts.seed, opts.closed_loop);
    let peak = bench::peak_mb();
    daemon.stop();
    let lat = verify(
        &sched,
        &obs,
        start,
        &refs,
        budget,
        &hits,
        opts.closed_loop,
        out,
    );
    let drain = drain_s(&obs, start);
    if opts.closed_loop {
        println!(
            "# closed_loop connections={conns} requests={} wall_s={drain:.3} \
             requests_per_s={:.1} ticks_per_s={:.1}",
            sched.len(),
            sched.len() as f64 / drain,
            sched.iter().filter(|d| d.conn == 0).count() as f64 / drain
        );
    }
    if stats::tail_percentile(lat.len(), 10).is_none_or(|p| p < 99) {
        eprintln!(
            "perfbench: {} requests are too few for a p99 with ten samples beyond it",
            lat.len()
        );
    }
    if !opts.trace {
        // Time to solution: the median latency of each `run` variant,
        // summed over the variants. A median over both variants together
        // would sit at the border between the faster and the slower one.
        let run_s = |v: usize| {
            let lat: Vec<f64> = sched
                .iter()
                .zip(&obs)
                .filter(|(d, _)| d.ask == Ask::Run(v))
                .filter_map(|(d, o)| {
                    let (t, _) = o.terminal.first()?;
                    let from = match (opts.closed_loop, o.sent) {
                        (true, Some(sent)) => sent,
                        _ => start + Duration::from_secs_f64(d.at_s),
                    };
                    Some(t.saturating_duration_since(from).as_secs_f64())
                })
                .collect();
            stats::median(&lat)
        };
        out.set("setup_s", setup_s);
        out.set("wall_s", drain);
        out.set("tts_s", (0..run_specs().len()).map(run_s).sum());
        out.set("peak_mb", peak);
        out.set("latency_ms.p50", stats::median(&lat));
        out.set("latency_ms.p99", stats::percentile(&lat, 99));
        return;
    }
    traced(opts, &refs, budget, conns, drain, out);
}

fn traced(
    opts: &Opts,
    refs: &References,
    budget: usize,
    conns: usize,
    untraced_drain: f64,
    out: &mut Outcome,
) {
    let mut daemon = Daemon::start(budget, opts.seed);
    daemon.listen(conns);
    let sched = schedule::build(
        opts.seed,
        rounds_in(opts.seconds / 2.0),
        TICK_RATE,
        conns,
        run_specs().len(),
    );
    let hits = predict_hits(&sched, refs, budget);
    let cap = Capture::start();
    let (start, obs) = play(&daemon, &sched, conns, refs, opts.seed, false);
    let events = cap.finish();
    daemon.stop();
    verify(&sched, &obs, start, refs, budget, &hits, false, out);
    let drain = drain_s(&obs, start);
    let xs = refs.warm.laplace().expect("Laplace build").control_x();

    // Single-layer timings on the warm build.
    let p = refs.warm.laplace().expect("Laplace build");
    let controls: Vec<DVec> = sched
        .iter()
        .filter_map(|d| match &d.ask {
            Ask::Eval(sh) => Some(schedule::control(sh, xs)),
            _ => None,
        })
        .take(64)
        .collect();
    let be = p.backend();
    let rhs: Vec<DVec> = (0..8)
        .map(|k| DVec::from_fn(p.size(), |i| ((i + k) as f64).sin()))
        .collect();
    let per = |reps: usize, f: &mut dyn FnMut()| {
        let (_, s) = timed(|| (0..reps).for_each(|_| f()));
        s / reps as f64
    };
    let solve_ms = per(32, &mut || {
        std::hint::black_box(be.solve(&rhs[0]).expect("solve"));
    }) * 1e3;
    // Per right-hand side, for every batch width up to eight.
    let many_ms: Vec<f64> = (1..=rhs.len())
        .map(|w| {
            per(16, &mut || {
                std::hint::black_box(be.solve_many(&rhs[..w]).expect("solve_many"));
            }) * 1e3
                / w as f64
        })
        .collect();
    let mut k = 0;
    let cost_ms = per(controls.len(), &mut || {
        std::hint::black_box(p.cost(&controls[k % controls.len()]).expect("cost"));
        k += 1;
    }) * 1e3;
    let sx = refs
        .surrogate_key
        .laplace()
        .expect("Laplace build")
        .control_x();
    let neural: Vec<DVec> = sched
        .iter()
        .filter_map(|d| match &d.ask {
            Ask::NeuralEval(sh) => Some(schedule::control(sh, sx)),
            _ => None,
        })
        .take(64)
        .collect();
    let mut k = 0;
    let surrogate_us = per(neural.len() * 8, &mut || {
        std::hint::black_box(refs.surrogate.cost(&neural[k % neural.len()]));
        k += 1;
    }) * 1e6;
    // Cold-key builds split into RBF assembly and factorisation.
    let (mut build_s, mut lu_s, mut lu_n) = (0.0, 0.0, 0);
    for nx in NX_COLD {
        let (_, b, l, n) = bench::traced_build(|| BuiltProblem::build(&laplace(nx)));
        build_s += b;
        lu_s += l;
        lu_n += n;
    }

    let mut lookup = Vec::new();
    let mut wait = Vec::new();
    let mut widths = Vec::new();
    let mut late = Vec::new();
    for (d, o) in sched.iter().zip(&obs) {
        let due = start + Duration::from_secs_f64(d.at_s);
        if let Some(sent) = o.sent {
            late.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            if let Some((t, _, _)) = &o.event {
                lookup.push(t.saturating_duration_since(sent).as_secs_f64() * 1e3);
            }
        }
        if let (Ask::Eval(_), Some((te, _, _)), Some((tc, Response::Cost { batch, .. }))) =
            (&d.ask, &o.event, o.terminal.first())
        {
            widths.push(*batch as f64);
            let w = (*batch).clamp(1, many_ms.len());
            let solve = many_ms[w - 1] * *batch as f64;
            wait.push((tc.saturating_duration_since(*te).as_secs_f64() * 1e3 - solve).max(0.0));
        }
    }
    out.set(
        "serve.cache_hits",
        bench::counters(&events, "serve_cache_hit") as f64,
    );
    out.set(
        "serve.cache_misses",
        bench::counters(&events, "serve_cache_miss") as f64,
    );
    out.set(
        "serve.cache_evictions",
        bench::counters(&events, "serve_cache_evict") as f64,
    );
    out.set("serve.lookup_ms.p99", stats::percentile(&lookup, 99));
    out.set("serve.batch_wait_ms.p50", stats::percentile(&wait, 50));
    out.set("serve.batch_width.mean", stats::mean(&widths));
    out.set("serve.generator_late_ms.p99", stats::percentile(&late, 99));
    out.set("linalg.solve_ms", solve_ms);
    out.set("linalg.solve_many_ms.w1", many_ms[0]);
    out.set("linalg.solve_many_ms.w8", many_ms[7]);
    out.set("pde.laplace_cost_ms", cost_ms);
    out.set("nn.surrogate_cost_us", surrogate_us);
    out.set("nn.surrogate_train_s", refs.surrogate_train_s);
    out.set("rbf.build_s", build_s);
    out.set("linalg.lu_factor_s", lu_s);
    out.set("linalg.lu_factor_count", lu_n as f64);
    out.set("trace.overhead", drain / untraced_drain);
}
