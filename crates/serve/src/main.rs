//! The `meshfree-serve` daemon binary.
//!
//! ```sh
//! # stdin mode: JSONL requests on stdin, responses on stdout.
//! meshfree-serve < requests.jsonl
//!
//! # socket mode: serve clients forever on a Unix socket.
//! meshfree-serve --socket /tmp/meshfree.sock
//! ```
//!
//! Knobs (environment, resolved once at startup through
//! `meshfree_runtime::RuntimeConfig`): `MESHFREE_CACHE_BYTES`
//! (factorization-cache budget, default 256 MiB),
//! `MESHFREE_BATCH_WINDOW_MS` (the longest an eval waits for company,
//! default 2 ms; the window closes early once every live session has an
//! eval queued),
//! `MESHFREE_THREADS` (solver pool width). Environment values override
//! builder-supplied defaults; `--cache-bytes N` overrides the cache
//! budget from the command line (strongest, being explicit per-process).

use serve::{ServeConfig, Server};
use std::sync::Arc;

fn main() {
    let mut cfg = ServeConfig::from_env();
    let mut socket: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                socket = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--socket needs a path")),
                );
            }
            "--cache-bytes" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--cache-bytes needs a value"));
                cfg.cache_bytes = v
                    .parse()
                    .unwrap_or_else(|_| usage("--cache-bytes must be an integer"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let server = Arc::new(Server::new(&cfg));
    match socket {
        Some(path) => {
            eprintln!("meshfree-serve: listening on {path}");
            if let Err(e) = server.serve_unix(path.as_ref()) {
                eprintln!("meshfree-serve: socket error: {e}");
                std::process::exit(1);
            }
        }
        None => {
            // stdin mode: one session, EOF is a graceful end of input.
            let summary = server.serve_stream(std::io::stdin(), std::io::stdout(), true);
            eprintln!(
                "meshfree-serve: session closed ({} runs, {} evals, {} hits, {} misses, {} errors)",
                summary.runs, summary.evals, summary.hits, summary.misses, summary.errors
            );
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("meshfree-serve: {err}");
    }
    eprintln!(
        "usage: meshfree-serve [--socket <path>] [--cache-bytes <n>]\n\
         stdin mode (default): JSONL requests on stdin, responses on stdout"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
