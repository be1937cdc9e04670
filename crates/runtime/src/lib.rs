//! Execution substrate for the meshfree-oc workspace: a persistent scoped
//! thread pool, a seedable RNG, structured solver telemetry, and kernel
//! timing — all std-only, so the default-feature build graph resolves with
//! no network and no registry.
//!
//! The modules mirror the external crates they replace:
//!
//! * [`par`] replaces rayon for the data-parallel kernels (dense matmul,
//!   SpMV, collocation assembly, RBF-FD stencils).
//! * [`rng`] replaces rand for seeded initialisation (Xavier weights,
//!   scattered-node jitter, property-test inputs).
//! * [`trace`] is the observability layer the paper's Table 3 numbers and
//!   every convergence figure are regenerated from: span timers, counters,
//!   and per-iteration [`trace::SolveEvent`]s flowing to pluggable sinks.
//! * [`stats`] replaces criterion for the committed perf trajectory:
//!   warmup + median-of-N kernel timing behind `BENCH_perf.json`.
//! * [`cancel`] is the cooperative stop signal (explicit, deadline, or
//!   inherited from a parent token) that the campaign driver threads
//!   through every optimizer loop.
//! * [`framing`] is the JSONL framing contract (append-and-flush writes,
//!   torn-tail-tolerant reads) shared by the campaign ledger and the serve
//!   daemon's wire protocol.
//! * [`config`] is the unified [`RuntimeConfig`]: one builder-style struct
//!   resolved once at startup behind every `MESHFREE_*` environment knob
//!   (pool width, serve cache budget and batch window, trace sink, golden
//!   blessing), with the historical variable names kept as an override
//!   layer.

#![warn(missing_docs)]

pub mod cancel;
pub mod config;
pub mod framing;
pub mod par;
pub mod rng;
pub mod stats;
pub mod trace;

pub use cancel::CancelToken;
pub use config::RuntimeConfig;
pub use framing::{JsonlAppender, LineFault};
pub use par::{
    num_threads, par_chunks_mut, par_for, par_map_collect, par_map_collect_with, serial_scope,
    with_pool, ThreadPool,
};
pub use rng::Rng64;
pub use stats::{time_kernel, SpanStats};
pub use trace::{SolveEvent, TraceEvent};
