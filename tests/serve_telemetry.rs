//! Serve-layer telemetry: a request sequence that overflows the
//! factorization-cache budget must emit `serve_cache_hit` / `_miss` /
//! `_evict` counters, and the `serve_cache_bytes` gauge must never
//! exceed the configured budget — the ISSUE's never-exceeds-
//! `MESHFREE_CACHE_BYTES` acceptance gate, asserted from the trace
//! stream rather than from cache internals. Evals after the runs must
//! report each batched solve's width and queue wait
//! (`serve_batch_width`, `serve_batch_wait_ms`), so a trace alone
//! separates serve queue time from solve time.
//!
//! One `#[test]` only: the trace sink is process-global, and this file
//! compiles to its own test binary, so nothing else can race it.

use meshfree_oc::control::{BackendKind, RunSpec};
use meshfree_oc::linalg::DVec;
use meshfree_oc::pde::LaplaceControlProblem;
use meshfree_oc::runtime::trace::{self, TraceEvent};
use meshfree_oc::serve::wire;
use meshfree_oc::serve::{FactorCache, ServeConfig, Server};
use std::io::Cursor;
use std::time::Duration;

#[test]
fn cache_counters_stream_and_the_bytes_gauge_never_exceeds_the_budget() {
    // Size the budget from measured builds, before the sink is armed:
    // room for the nx=8 and nx=10 operators together, so nx=9 + nx=10
    // after them forces evictions.
    let probe = FactorCache::new(usize::MAX);
    let measure = |nx: usize| {
        probe
            .get_or_build(&RunSpec::laplace().nx(nx).build().problem)
            .expect("probe build")
            .0
            .memory_bytes()
    };
    let budget = measure(8) + measure(10);
    let n_controls = LaplaceControlProblem::new(8)
        .expect("reference problem")
        .n_controls();

    let (sink, events) = trace::MemorySink::new();
    trace::set_sink(Box::new(sink));

    let server = Server::new(&ServeConfig {
        cache_bytes: budget,
        batch_window: Duration::ZERO,
    });
    // nx: miss, miss, miss (evicts until within budget), miss, hit.
    let sequence = [8usize, 9, 10, 8, 8];
    let mut requests = String::new();
    for (i, &nx) in sequence.iter().enumerate() {
        let spec = RunSpec::laplace().nx(nx).iterations(2).build();
        requests.push_str(&wire::run_request_line(&format!("req-{i}"), &spec));
        requests.push('\n');
    }
    let evals = 2;
    for k in 0..evals {
        let control = DVec::from_fn(n_controls, |i| 0.01 * (i + k) as f64);
        requests.push_str(&wire::eval_request_line(
            &format!("eval-{k}"),
            8,
            BackendKind::DenseLu,
            &control,
        ));
        requests.push('\n');
    }
    requests.push_str(&wire::done_request_line("bye"));
    requests.push('\n');
    let mut out = Vec::new();
    let summary = server.serve_stream(Cursor::new(requests.into_bytes()), &mut out, true);
    trace::clear_sink();

    assert_eq!(summary.runs, sequence.len(), "{summary:?}");
    assert_eq!(summary.evals, evals, "{summary:?}");
    assert!(summary.hits >= 1 && summary.misses >= 3, "{summary:?}");

    let events = events.lock().expect("sink events");
    let counter = |wanted: &str| -> Vec<f64> {
        events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { name, value } if *name == wanted => Some(*value),
                _ => None,
            })
            .collect()
    };
    let bytes_gauge = counter("serve_cache_bytes");
    assert!(!bytes_gauge.is_empty(), "no serve_cache_bytes samples");
    assert!(
        bytes_gauge.iter().all(|&b| b <= budget as f64),
        "resident bytes must never exceed the budget {budget}: {bytes_gauge:?}"
    );
    assert!(!counter("serve_cache_hit").is_empty());
    assert!(!counter("serve_cache_miss").is_empty());
    assert!(
        !counter("serve_cache_evict").is_empty(),
        "the sequence overflows the budget, so evictions must be reported"
    );
    assert!(server.cache().bytes() <= budget);

    // One session and a zero window: every eval is its own batch, and
    // each batch reports its queue wait.
    assert_eq!(counter("serve_batch_width"), vec![1.0; evals]);
    let waits = counter("serve_batch_wait_ms");
    assert_eq!(waits.len(), evals, "{waits:?}");
    assert!(
        waits.iter().all(|w| w.is_finite() && *w >= 0.0),
        "{waits:?}"
    );
}
