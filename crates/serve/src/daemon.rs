//! The long-lived serve loop: clients in, [`LedgerRecord`] lines out.
//!
//! One [`Server`] owns the process-wide [`FactorCache`] and [`Batcher`];
//! each connected client gets a [`Server::serve_stream`] session — a
//! reader thread that frames and parses request lines, and an executor
//! that dispatches them:
//!
//! * `run` requests execute on the `runtime::par` pool under a
//!   [`RunCtx`] supervised by a per-client [`CancelToken`]; the terminal
//!   outcome streams back as a ledger-schema record line.
//! * `eval` requests go through the [`Batcher`], which may coalesce them
//!   with other clients' same-operator evaluations.
//! * `neural-eval` requests (protocol v2) answer with the frozen
//!   surrogate's predicted cost — the surrogate is trained on first use
//!   and cached on the built problem, so steady-state answers never
//!   touch the PDE solver.
//! * malformed lines are answered with a structured error line — the
//!   daemon never disconnects over a bad request.
//!
//! # End-of-stream semantics
//!
//! The reader applies the framing torn-tail contract: a final line with
//! no newline is a torn write from a killed peer and is dropped. What
//! EOF itself means depends on the transport, via `graceful_eof`:
//!
//! * stdin mode (`true`): EOF is the natural end of a piped request
//!   file — queued requests finish and the session closes cleanly.
//! * socket mode (`false`): a client is expected to send `done`; EOF
//!   without it means the client died, so the session's [`CancelToken`]
//!   fires and an in-flight run stops at its next supervision check
//!   (cached builds are shared and survive the client).
//!
//! Determinism: runs execute the same kernels as direct
//! [`control::api::execute`], on the same pool with its thread-count
//! invariant chunk decomposition — results returned over the wire are
//! bitwise identical to local execution, however many clients are
//! connected.

use crate::batch::Batcher;
use crate::cache::{FactorCache, Lookup};
use crate::wire::{self, Request};
use control::api::{
    BackendKind, BuiltProblem, ControlError, ProblemSpec, RunCtx, RunSpec, SpecRun, Strategy,
};
use driver::{LedgerRecord, RunStatus};
use linalg::DVec;
use meshfree_runtime::CancelToken;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Server construction knobs (see [`FactorCache`] and [`Batcher`] for
/// the corresponding environment variables).
pub struct ServeConfig {
    /// Cache budget in bytes.
    pub cache_bytes: usize,
    /// Batching window for `eval` requests.
    pub batch_window: Duration,
}

impl ServeConfig {
    /// Snapshot of the process-wide
    /// [`RuntimeConfig`](meshfree_runtime::RuntimeConfig) — the resolved
    /// `MESHFREE_CACHE_BYTES` / `MESHFREE_BATCH_WINDOW_MS` values.
    pub fn from_env() -> ServeConfig {
        let cfg = meshfree_runtime::RuntimeConfig::global();
        ServeConfig {
            cache_bytes: cfg.cache_bytes,
            batch_window: cfg.batch_window,
        }
    }
}

/// What one client session did — returned by [`Server::serve_stream`]
/// for logging and tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClientSummary {
    /// `run` requests answered with a terminal record.
    pub runs: usize,
    /// `eval` requests answered with a cost line.
    pub evals: usize,
    /// Cache hits across the session's lookups.
    pub hits: usize,
    /// Cache misses (fresh builds) across the session's lookups.
    pub misses: usize,
    /// Malformed or failed requests answered with an error line.
    pub errors: usize,
    /// Whether the session ended by cancellation (client died without
    /// sending `done` in socket mode).
    pub cancelled: bool,
}

/// The daemon: a shared factorization cache, a shared batcher, and a
/// serve loop per client.
pub struct Server {
    cache: Arc<FactorCache>,
    batcher: Arc<Batcher>,
}

impl Server {
    /// Builds a server from explicit knobs.
    pub fn new(cfg: &ServeConfig) -> Server {
        Server {
            cache: Arc::new(FactorCache::new(cfg.cache_bytes)),
            batcher: Arc::new(Batcher::new(cfg.batch_window)),
        }
    }

    /// Builds a server configured from the environment.
    pub fn from_env() -> Server {
        Server::new(&ServeConfig::from_env())
    }

    /// The shared cross-request cache (tests assert on its counters).
    pub fn cache(&self) -> &Arc<FactorCache> {
        &self.cache
    }

    /// Serves one client session over an arbitrary byte stream.
    ///
    /// Spawns a framing/parsing reader thread over `reader` and runs the
    /// executor loop on the calling thread, writing response lines to
    /// `writer`. Returns when the client sends `done`, the stream ends,
    /// or the writer fails (client gone).
    pub fn serve_stream<R, W>(&self, reader: R, mut writer: W, graceful_eof: bool) -> ClientSummary
    where
        R: Read + Send + 'static,
        W: Write,
    {
        let client = CancelToken::new();
        let (tx, rx) = channel::<Result<Request, String>>();
        let reader_cancel = client.clone();
        let reader_thread = std::thread::Builder::new()
            .name("serve-client-reader".into())
            .spawn(move || read_requests(reader, &tx, &reader_cancel, graceful_eof))
            .expect("spawn client reader");

        let mut summary = ClientSummary::default();
        for msg in rx {
            let outcome = match msg {
                Err(detail) => {
                    summary.errors += 1;
                    writeln!(writer, "{}", wire::error_line(wire::PROTOCOL_ID, &detail))
                }
                Ok(Request::Done { id }) => {
                    let r = writeln!(writer, "{}", wire::done_line(&id));
                    let _ = writer.flush();
                    let _ = r;
                    break;
                }
                Ok(Request::Run { id, spec }) => {
                    self.handle_run(&id, &spec, &client, &mut writer, &mut summary)
                }
                Ok(Request::Eval {
                    id,
                    nx,
                    backend,
                    control,
                }) => self.handle_eval(&id, nx, backend, control, &mut writer, &mut summary),
                Ok(Request::NeuralEval {
                    id,
                    nx,
                    backend,
                    seed,
                    control,
                }) => {
                    // Wire neural evals always use the default surrogate
                    // architecture; the (nx, backend, seed) triple plus the
                    // default fingerprint fully determines the network, so
                    // every client hitting the same triple shares one
                    // trained-and-frozen surrogate from the build's cache.
                    let spec = RunSpec::laplace()
                        .nx(nx)
                        .backend(backend)
                        .strategy(Strategy::NeuralOp)
                        .seed(seed)
                        .build();
                    self.handle_neural_eval(&id, &spec, control, &mut writer, &mut summary)
                }
            };
            if outcome.and_then(|()| writer.flush()).is_err() {
                // The client is gone mid-session: stop accepting work.
                client.cancel();
                break;
            }
        }
        summary.cancelled = client.is_cancelled();
        let _ = reader_thread.join();
        summary
    }

    fn handle_run<W: Write>(
        &self,
        id: &str,
        spec: &RunSpec,
        client: &CancelToken,
        writer: &mut W,
        summary: &mut ClientSummary,
    ) -> std::io::Result<()> {
        let built = match self.cache.get_or_build(&spec.problem) {
            Ok((built, lookup)) => {
                self.note_lookup(id, lookup, writer, summary)?;
                built
            }
            Err(e) => {
                summary.errors += 1;
                let record = terminal_record(id, spec, RunStatus::Failed, &e);
                return writeln!(writer, "{}", record.to_line());
            }
        };
        let ctx = RunCtx::supervised(client.child(), 1);
        let record = match built.execute(spec, &ctx) {
            Ok(run) => {
                summary.runs += 1;
                done_record(id, spec, &run)
            }
            Err(e) => {
                summary.errors += 1;
                let status = match &e {
                    ControlError::Timeout { .. } => RunStatus::TimedOut,
                    _ => RunStatus::Failed,
                };
                terminal_record(id, spec, status, &e)
            }
        };
        writeln!(writer, "{}", record.to_line())
    }

    fn handle_eval<W: Write>(
        &self,
        id: &str,
        nx: usize,
        backend: BackendKind,
        control: DVec,
        writer: &mut W,
        summary: &mut ClientSummary,
    ) -> std::io::Result<()> {
        let spec = ProblemSpec::Laplace { nx, backend };
        let answer = match self.cache.get_or_build(&spec) {
            Ok((built, lookup)) => {
                self.note_lookup(id, lookup, writer, summary)?;
                check_control(&built, &control).and_then(|()| {
                    self.batcher
                        .submit(spec.build_key(), built, control)
                        .recv()
                        .unwrap_or_else(|_| Err("batcher worker gone".to_string()))
                })
            }
            Err(e) => Err(e.to_string()),
        };
        match answer {
            Ok((cost, batch)) => {
                summary.evals += 1;
                writeln!(writer, "{}", wire::cost_line(id, cost, batch))
            }
            Err(detail) => {
                summary.errors += 1;
                writeln!(writer, "{}", wire::error_line(id, &detail))
            }
        }
    }

    fn handle_neural_eval<W: Write>(
        &self,
        id: &str,
        spec: &RunSpec,
        control: DVec,
        writer: &mut W,
        summary: &mut ClientSummary,
    ) -> std::io::Result<()> {
        let answer = match self.cache.get_or_build(&spec.problem) {
            Ok((built, lookup)) => {
                self.note_lookup(id, lookup, writer, summary)?;
                check_control(&built, &control).and_then(|()| {
                    built
                        .surrogate_for(spec)
                        .map(|surrogate| surrogate.cost(&control))
                        .map_err(|e| e.to_string())
                })
            }
            Err(e) => Err(e.to_string()),
        };
        match answer {
            Ok(cost) => {
                summary.evals += 1;
                writeln!(writer, "{}", wire::cost_line(id, cost, 1))
            }
            Err(detail) => {
                summary.errors += 1;
                writeln!(writer, "{}", wire::error_line(id, &detail))
            }
        }
    }

    fn note_lookup<W: Write>(
        &self,
        id: &str,
        lookup: Lookup,
        writer: &mut W,
        summary: &mut ClientSummary,
    ) -> std::io::Result<()> {
        let event = match lookup {
            Lookup::Hit => {
                summary.hits += 1;
                "cache_hit"
            }
            Lookup::Miss => {
                summary.misses += 1;
                "cache_miss"
            }
        };
        writeln!(
            writer,
            "{}",
            wire::event_line(id, event, self.cache.bytes() as f64)
        )
    }

    /// Binds a Unix socket and serves clients forever, one session
    /// thread per connection (socket EOF semantics: `graceful_eof =
    /// false`).
    pub fn serve_unix(self: &Arc<Self>, path: &Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        for stream in listener.incoming() {
            let stream = stream?;
            let writer = stream.try_clone()?;
            let server = Arc::clone(self);
            std::thread::Builder::new()
                .name("serve-client".into())
                .spawn(move || {
                    let _ = server.serve_stream(stream, writer, false);
                })?;
        }
        Ok(())
    }
}

/// Reader side of one session: frames lines (torn-tail tolerant),
/// parses them, and forwards results to the executor. Cancels the
/// session token if a socket client vanishes without `done`.
fn read_requests<R: Read>(
    reader: R,
    tx: &Sender<Result<Request, String>>,
    client: &CancelToken,
    graceful_eof: bool,
) {
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    let mut finished = false;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !line.ends_with('\n') {
                    // Torn tail: the peer died mid-write. Same contract as
                    // the ledger — drop the fragment, treat as end of
                    // stream.
                    break;
                }
                if line.trim().is_empty() {
                    continue;
                }
                let parsed = wire::parse_request(line.trim_end());
                let done = matches!(parsed, Ok(Request::Done { .. }));
                if tx.send(parsed).is_err() {
                    return; // executor ended the session first
                }
                if done {
                    finished = true;
                    break;
                }
            }
            Err(_) => break,
        }
    }
    if !finished && !graceful_eof {
        client.cancel();
    }
}

fn done_record(id: &str, spec: &RunSpec, run: &SpecRun) -> LedgerRecord {
    LedgerRecord {
        spec_id: id.to_string(),
        status: RunStatus::Done,
        method: run.report.method.clone(),
        problem: run.report.problem.clone(),
        attempts: 1,
        seed: spec.seed,
        lr: spec.lr,
        iterations: run.report.iterations,
        final_cost: Some(run.report.final_cost).filter(|c| c.is_finite()),
        error: None,
        cost_history: run.report.history.entries.iter().map(|e| e.cost).collect(),
        iter_history: run
            .report
            .history
            .entries
            .iter()
            .map(|e| e.iter as f64)
            .collect(),
    }
}

/// Refuses an `eval` / `neural-eval` control whose length is not the
/// build's control dimension. Past this check the solver and the surrogate
/// assert the length: on the batcher thread that kills the worker and
/// stalls every later eval, in the surrogate it ends the daemon.
fn check_control(built: &BuiltProblem, control: &DVec) -> Result<(), String> {
    let expected = built.laplace().map_or(0, |p| p.n_controls());
    if control.len() == expected {
        Ok(())
    } else {
        Err(format!(
            "control has {} values; this build takes {expected}",
            control.len()
        ))
    }
}

fn terminal_record(
    id: &str,
    spec: &RunSpec,
    status: RunStatus,
    err: &ControlError,
) -> LedgerRecord {
    LedgerRecord {
        spec_id: id.to_string(),
        status,
        method: spec.strategy.name().to_string(),
        problem: spec.problem.name().to_string(),
        attempts: 1,
        seed: spec.seed,
        lr: spec.lr,
        iterations: 0,
        final_cost: None,
        error: Some(err.to_string()),
        cost_history: Vec::new(),
        iter_history: Vec::new(),
    }
}
