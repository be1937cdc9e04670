//! Daemon lifecycle gates for `meshfree-serve`: concurrent clients
//! sharing one cached build must get bitwise-identical results to direct
//! execution, a client dying mid-request must cancel its run without
//! poisoning the shared cache, and malformed request lines must be
//! answered with structured errors rather than disconnects.

use meshfree_oc::control::{
    execute, BackendKind, LaplaceSurrogate, RunSpec, Strategy, SurrogateSpec,
};
use meshfree_oc::linalg::DVec;
use meshfree_oc::pde::LaplaceControlProblem;
use meshfree_oc::serve::wire::{self, Response, PROTOCOL_ID};
use meshfree_oc::serve::{ClientSummary, ServeConfig, Server};
use std::io::{Cursor, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

fn test_server() -> Arc<Server> {
    Arc::new(Server::new(&ServeConfig {
        cache_bytes: 256 * 1024 * 1024,
        batch_window: Duration::ZERO,
    }))
}

fn parse_lines(bytes: &[u8]) -> Vec<Response> {
    String::from_utf8(bytes.to_vec())
        .expect("daemon output is UTF-8")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| wire::parse_response(l).expect("daemon wrote an unparseable line"))
        .collect()
}

/// Runs one piped (stdin-mode) session against `server` and returns the
/// parsed responses plus the session summary.
fn piped_session(server: &Server, requests: String) -> (Vec<Response>, ClientSummary) {
    let mut out = Vec::new();
    let summary = server.serve_stream(Cursor::new(requests.into_bytes()), &mut out, true);
    (parse_lines(&out), summary)
}

/// The ISSUE's serve smoke: four concurrent socket clients share one
/// Laplace geometry (one build, three cache hits across the fleet) and
/// every record that comes back over the wire is bitwise identical to
/// executing the same spec directly in-process.
#[test]
fn four_concurrent_clients_share_one_build_and_match_direct_execution() {
    let server = test_server();
    let specs: Vec<RunSpec> = [
        (Strategy::Dal, 1e-2, 1u64),
        (Strategy::Dp, 1e-2, 2),
        (Strategy::FiniteDiff, 5e-3, 3),
        (Strategy::Dal, 2e-2, 4),
    ]
    .into_iter()
    .map(|(s, lr, seed)| {
        RunSpec::laplace()
            .nx(10)
            .strategy(s)
            .iterations(25)
            .lr(lr)
            .seed(seed)
            .build()
    })
    .collect();

    let mut daemons = Vec::new();
    let mut clients = Vec::new();
    for (i, spec) in specs.iter().cloned().enumerate() {
        let (daemon_end, client_end) = UnixStream::pair().expect("socketpair");
        let writer = daemon_end.try_clone().expect("clone socket");
        let server = Arc::clone(&server);
        daemons.push(std::thread::spawn(move || {
            server.serve_stream(daemon_end, writer, false)
        }));
        clients.push(std::thread::spawn(move || {
            let id = format!("client-{i}");
            let mut stream = client_end;
            writeln!(stream, "{}", wire::run_request_line(&id, &spec)).expect("send run");
            writeln!(stream, "{}", wire::done_request_line(&id)).expect("send done");
            let mut buf = Vec::new();
            stream.read_to_end(&mut buf).expect("read responses");
            (id, spec, parse_lines(&buf))
        }));
    }

    let summaries: Vec<ClientSummary> = daemons
        .into_iter()
        .map(|h| h.join().expect("daemon thread"))
        .collect();
    let total_misses: usize = summaries.iter().map(|s| s.misses).sum();
    let total_hits: usize = summaries.iter().map(|s| s.hits).sum();
    assert_eq!(
        (total_misses, total_hits),
        (1, 3),
        "four clients on one geometry must pay exactly one build: {summaries:?}"
    );
    assert!(summaries.iter().all(|s| !s.cancelled && s.errors == 0));

    for handle in clients {
        let (id, spec, responses) = handle.join().expect("client thread");
        let record = responses
            .iter()
            .find_map(|r| match r {
                Response::Record(rec) => Some(rec.as_ref().clone()),
                _ => None,
            })
            .expect("every client gets a terminal record");
        assert_eq!(record.spec_id, id);
        assert!(matches!(responses.last(), Some(Response::Done { .. })));

        let direct = execute(&spec).expect("direct execution");
        let served = record.final_cost.expect("served cost is finite");
        assert_eq!(
            served.to_bits(),
            direct.report.final_cost.to_bits(),
            "served final cost must be bitwise identical to direct execution"
        );
        let direct_history: Vec<u64> = direct
            .report
            .history
            .entries
            .iter()
            .map(|e| e.cost.to_bits())
            .collect();
        let served_history: Vec<u64> = record.cost_history.iter().map(|c| c.to_bits()).collect();
        assert_eq!(served_history, direct_history);
        assert_eq!(record.iterations, direct.report.iterations);
    }
}

/// A socket client that vanishes without `done` mid-request: the
/// session's cancel token fires, the in-flight run stops, and the cached
/// build survives for the next client.
#[test]
fn killed_client_cancels_the_run_but_the_cache_survives() {
    let server = test_server();
    let (daemon_end, client_end) = UnixStream::pair().expect("socketpair");
    let writer = daemon_end.try_clone().expect("clone socket");
    let s = Arc::clone(&server);
    let daemon = std::thread::spawn(move || s.serve_stream(daemon_end, writer, false));

    // An effectively unbounded run: only cancellation can end it quickly.
    let doomed = RunSpec::laplace()
        .nx(12)
        .strategy(Strategy::Dal)
        .iterations(5_000_000)
        .build();
    {
        let mut stream = client_end;
        writeln!(stream, "{}", wire::run_request_line("doomed", &doomed)).expect("send run");
        // Dropped here without `done`: the daemon must read EOF as death.
    }
    let summary = daemon.join().expect("daemon thread");
    assert!(
        summary.cancelled,
        "EOF without done in socket mode must cancel the session: {summary:?}"
    );
    assert_eq!(summary.runs, 0, "the doomed run must not complete");
    assert!(
        server
            .cache()
            .keys_lru_first()
            .contains(&"laplace-nx12".to_string()),
        "the build belongs to the server, not the dead client"
    );

    // The next client reuses the dead client's build.
    let follow_up = RunSpec::laplace().nx(12).iterations(3).build();
    let requests = format!(
        "{}\n{}\n",
        wire::run_request_line("after", &follow_up),
        wire::done_request_line("after")
    );
    let (responses, summary) = piped_session(&server, requests);
    assert_eq!((summary.hits, summary.misses), (1, 0), "{summary:?}");
    assert!(!summary.cancelled && summary.runs == 1);
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Event { event, .. } if event == "cache_hit")));
}

/// Malformed complete lines are answered with structured error lines and
/// the session keeps serving; requests after the bad ones still work.
#[test]
fn malformed_lines_get_structured_errors_and_the_session_continues() {
    let server = test_server();
    let n_controls = LaplaceControlProblem::new(8)
        .expect("reference problem")
        .n_controls();
    let control = DVec::from_fn(n_controls, |i| 0.01 * i as f64);
    let requests = format!(
        "this is not a request\n{}\n{{\"name\": \"x\", \"strings\": {{\"kind\": \"warp\"}}}}\n{}\n",
        wire::eval_request_line("e1", 8, BackendKind::DenseLu, &control),
        wire::done_request_line("bye")
    );
    let (responses, summary) = piped_session(&server, requests);
    assert_eq!(summary.errors, 2, "{summary:?}");
    assert_eq!(summary.evals, 1);
    assert!(!summary.cancelled);

    let errors: Vec<&str> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Error { id, .. } => Some(id.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(errors, vec![PROTOCOL_ID, PROTOCOL_ID]);
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Cost { id, cost, .. } if id == "e1" && cost.is_finite())));
    assert!(matches!(
        responses.last(),
        Some(Response::Done { id }) if id == "bye"
    ));
}

/// A control of the wrong length is a request error like any other: the
/// `neural-eval` and the `eval` each get one `error` line, and the session
/// — the batcher worker included — still answers the next well-formed
/// `eval`. (The length would otherwise reach the surrogate's and the
/// solver's asserts: the first ends the daemon, the second kills the
/// batcher worker so later evals never answer.)
#[test]
fn wrong_length_controls_get_errors_and_the_next_eval_its_cost() {
    let server = test_server();
    let n_controls = LaplaceControlProblem::new(8)
        .expect("reference problem")
        .n_controls();
    let short = DVec::from_fn(2, |i| 0.1 * i as f64);
    assert_ne!(short.len(), n_controls);
    let control = DVec::from_fn(n_controls, |i| 0.01 * i as f64);
    let requests = format!(
        "{}\n{}\n{}\n{}\n",
        wire::neural_eval_request_line("ne-short", 8, BackendKind::DenseLu, 1, &short),
        wire::eval_request_line("e-short", 8, BackendKind::DenseLu, &short),
        wire::eval_request_line("e-ok", 8, BackendKind::DenseLu, &control),
        wire::done_request_line("bye")
    );
    let (responses, summary) = piped_session(&server, requests);
    assert_eq!((summary.errors, summary.evals), (2, 1), "{summary:?}");
    for id in ["ne-short", "e-short"] {
        let errors = responses
            .iter()
            .filter(|r| matches!(r, Response::Error { id: rid, .. } if rid == id))
            .count();
        assert_eq!(errors, 1, "{id}: {responses:?}");
    }
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Cost { id, cost, .. } if id == "e-ok" && cost.is_finite())));
    assert!(matches!(
        responses.last(),
        Some(Response::Done { id }) if id == "bye"
    ));
}

/// Protocol v2 over the wire: a `neural-op` run and a `neural-eval` in
/// one session both answer bitwise identically to running the same
/// train/freeze/optimize lifecycle locally — the daemon adds caching,
/// never different numbers.
#[test]
fn neural_op_runs_and_neural_evals_match_local_surrogate_execution() {
    let server = test_server();
    let spec = RunSpec::laplace()
        .nx(10)
        .strategy(Strategy::NeuralOp)
        .iterations(40)
        .seed(3)
        .build();
    let problem = LaplaceControlProblem::new(10).expect("reference problem");
    let control = DVec::from_fn(problem.n_controls(), |i| 0.3 * (i as f64 * 0.7).sin());
    let requests = format!(
        "{}\n{}\n{}\n",
        wire::run_request_line("nop", &spec),
        wire::neural_eval_request_line("ne", 10, BackendKind::DenseLu, 3, &control),
        wire::done_request_line("bye")
    );
    let (responses, summary) = piped_session(&server, requests);
    assert_eq!(
        (summary.runs, summary.evals, summary.errors),
        (1, 1, 0),
        "{summary:?}"
    );

    let record = responses
        .iter()
        .find_map(|r| match r {
            Response::Record(rec) => Some(rec.as_ref().clone()),
            _ => None,
        })
        .expect("the run answers with a terminal record");
    let direct = execute(&spec).expect("direct neural-op execution");
    assert_eq!(
        record.final_cost.expect("audited cost is finite").to_bits(),
        direct.report.final_cost.to_bits(),
        "served neural-op audit must be bitwise identical to local execution"
    );

    let surrogate =
        LaplaceSurrogate::train(&problem, &SurrogateSpec::default(), 3).expect("local training");
    let (cost, batch) = responses
        .iter()
        .find_map(|r| match r {
            Response::Cost { id, cost, batch } if id == "ne" => Some((*cost, *batch)),
            _ => None,
        })
        .expect("the neural-eval answers with a cost line");
    assert_eq!(batch, 1, "neural evals do not ride the solve batcher");
    assert_eq!(
        cost.to_bits(),
        surrogate.cost(&control).to_bits(),
        "served surrogate cost must be bitwise identical to a local frozen net"
    );
}

/// stdin mode: EOF without `done` is the graceful end of a piped request
/// file, and a torn final line (no newline) is dropped per the framing
/// contract rather than reported as an error.
#[test]
fn stdin_eof_is_graceful_and_torn_tails_are_dropped() {
    let server = test_server();
    let spec = RunSpec::laplace().nx(8).iterations(4).build();
    let requests = format!(
        "{}\n{{\"name\": \"torn-mid-wri",
        wire::run_request_line("only", &spec)
    );
    let (responses, summary) = piped_session(&server, requests);
    assert_eq!((summary.runs, summary.errors), (1, 0), "{summary:?}");
    assert!(!summary.cancelled);
    assert!(matches!(responses.last(), Some(Response::Record(_))));
}
