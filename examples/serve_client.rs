//! Drive a live `meshfree-serve` daemon over its stdin JSONL protocol.
//!
//! Spawns the daemon binary, streams several `run` requests that share
//! one Laplace geometry, and checks the cache amortization end-to-end:
//! the fleet pays exactly one build, every later request is a cache hit,
//! and the served records are bitwise identical to direct in-process
//! execution. Then it sends `eval`s one at a time to a daemon started
//! with a 2 s batching window: as the only live session, each eval is
//! its whole batch, so each must answer well inside the window, with the
//! bits of an in-process `cost`.
//!
//! ```sh
//! cargo run --release --example serve_client            # demo
//! cargo run --release --example serve_client -- --smoke # the CI gate
//! ```
//!
//! The daemon binary must already be built (`cargo build --release`
//! builds every workspace binary; CI runs that first).

use meshfree_oc::control::{execute, BackendKind, RunSpec, Strategy};
use meshfree_oc::driver::RunStatus;
use meshfree_oc::linalg::DVec;
use meshfree_oc::pde::LaplaceControlProblem;
use meshfree_oc::runtime::config::BATCH_WINDOW_ENV;
use meshfree_oc::serve::wire::{self, Response};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The daemon's batching window: far longer than an eval may take.
const WINDOW_MS: u64 = 2000;

/// The examples of the root package build to `target/<profile>/examples/`;
/// the daemon binary sits one directory up.
fn daemon_path() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent()
        .and_then(|p| p.parent())
        .expect("examples dir has a parent")
        .join("meshfree-serve")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let specs: Vec<RunSpec> = (0..6u64)
        .map(|i| {
            RunSpec::laplace()
                .nx(10)
                .strategy(if i % 2 == 0 {
                    Strategy::Dal
                } else {
                    Strategy::Dp
                })
                .iterations(8)
                .lr(1e-2)
                .seed(i)
                .build()
        })
        .collect();

    let path = daemon_path();
    if !path.exists() {
        eprintln!(
            "serve_client: daemon binary not found at {} — run `cargo build --release` first",
            path.display()
        );
        std::process::exit(2);
    }
    let mut child = Command::new(&path)
        .env(BATCH_WINDOW_ENV, WINDOW_MS.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn meshfree-serve");
    let mut stdin = child.stdin.take().expect("daemon stdin");
    let mut responses = BufReader::new(child.stdout.take().expect("daemon stdout"))
        .lines()
        .map(|line| line.expect("read response"))
        .filter(|line| !line.trim().is_empty())
        .map(|line| wire::parse_response(&line).expect("daemon wrote an unparseable line"));
    let mut send = |line: String| {
        writeln!(stdin, "{line}").expect("send request");
        stdin.flush().expect("flush request");
    };

    for (i, spec) in specs.iter().enumerate() {
        send(wire::run_request_line(&format!("req-{i}"), spec));
    }
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut records = Vec::new();
    while records.len() < specs.len() {
        match responses.next().expect("daemon closed before every record") {
            Response::Event { event, .. } => match event.as_str() {
                "cache_hit" => hits += 1,
                "cache_miss" => misses += 1,
                _ => {}
            },
            Response::Record(rec) => records.push(*rec),
            Response::Error { id, detail } => panic!("request {id} failed: {detail}"),
            other => panic!("unexpected response {other:?}"),
        }
    }

    let problem = LaplaceControlProblem::new(10).expect("reference problem");
    let mut eval_ms = Vec::new();
    for k in 0..4 {
        let control = DVec::from_fn(problem.n_controls(), |i| 0.1 * ((i + k) as f64).cos());
        let sent = Instant::now();
        send(wire::eval_request_line(
            &format!("eval-{k}"),
            10,
            BackendKind::DenseLu,
            &control,
        ));
        let (cost, batch) = loop {
            match responses
                .next()
                .expect("daemon closed before the eval answered")
            {
                Response::Event { .. } => {}
                Response::Cost { cost, batch, .. } => break (cost, batch),
                other => panic!("unexpected response {other:?}"),
            }
        };
        let waited = sent.elapsed();
        eval_ms.push(waited.as_secs_f64() * 1e3);
        assert!(
            waited < Duration::from_millis(WINDOW_MS / 4),
            "eval-{k} took {waited:?}: a lone session must not wait out the {WINDOW_MS} ms window"
        );
        assert_eq!(batch, 1, "a lone session's eval is its own batch");
        assert_eq!(
            cost.to_bits(),
            problem.cost(&control).expect("in-process cost").to_bits(),
            "served eval must match in-process cost bit for bit"
        );
    }

    send(wire::done_request_line("client"));
    // Closing stdin ends the input: the daemon acknowledges `done` and exits.
    drop(stdin);
    let acked = responses.any(|r| matches!(r, Response::Done { .. }));
    let status = child.wait().expect("daemon exit status");

    println!(
        "serve_client: {} records back, {misses} build(s), {hits} cache hit(s)",
        records.len()
    );
    println!(
        "serve_client: 4 evals under a {WINDOW_MS} ms window answered in {:.1?} ms",
        eval_ms
    );
    for rec in &records {
        println!(
            "  {:>6}  {:<4}  final cost {:.6e}",
            rec.spec_id,
            rec.method,
            rec.final_cost.unwrap_or(f64::NAN)
        );
    }
    assert!(status.success(), "daemon exited with {status}");
    assert!(acked, "daemon must acknowledge `done` before closing");
    assert_eq!(records.len(), specs.len(), "one record per request");
    assert_eq!(misses, 1, "six requests on one geometry pay one build");
    assert!(hits >= 1, "shared geometry must produce cache hits");
    assert!(records.iter().all(|r| r.status == RunStatus::Done));

    // The serving layer must be invisible in the numbers: the record that
    // came back over the wire is bitwise identical to running the same
    // spec directly in this process.
    let direct = execute(&specs[0]).expect("direct execution");
    let served = records[0].final_cost.expect("finite served cost");
    assert_eq!(records[0].spec_id, "req-0");
    assert_eq!(
        served.to_bits(),
        direct.report.final_cost.to_bits(),
        "served cost must match direct execution bit for bit"
    );
    if smoke {
        println!("serve_client --smoke OK");
    }
}
