//! `meshfree-serve`: control-as-a-service for the meshfree-oc workspace.
//!
//! A long-lived daemon that accepts [`control::api::RunSpec`] requests
//! over stdin or a Unix socket as a JSONL protocol — the
//! `driver::ledger` line format, framed by the shared
//! [`meshfree_runtime::framing`] torn-tail contract — executes them on
//! the `runtime::par` pool under `RunCtx` supervision, and streams
//! per-client events plus terminal ledger-schema record lines back.
//!
//! The subsystem exists because of the paper's central cost asymmetry:
//! building a problem (RBF collocation assembly + `O(N³)` LU
//! factorization, or the Navier–Stokes constant-block assembly) dwarfs
//! evaluating objectives against the prepared operator. PR 3 amortized
//! the factorization across the iterations of *one* run; the serve
//! daemon amortizes it across *requests and clients*:
//!
//! * [`cache::FactorCache`] — the cross-request LRU of built problems,
//!   keyed by `ProblemSpec::build_key()`, metered against
//!   `MESHFREE_CACHE_BYTES` with deterministic (logical-clock) eviction
//!   and `serve_cache_*` trace counters.
//! * [`batch::Batcher`] — coalesces same-operator Laplace `eval`
//!   requests arriving within a window into one blocked multi-RHS
//!   `Lu` solve (`LinearBackend::solve_many`), bitwise-invisible to the
//!   clients. The window is the longest an eval waits for company: it
//!   closes early once every live client session has an eval queued.
//! * [`daemon::Server`] — the per-client serve loop with `CancelToken`
//!   cleanup when a socket client dies mid-request.
//! * [`wire`] — the request/response line codec.
//!
//! See DESIGN.md §12 for the protocol grammar and the eviction and
//! batching-window semantics.

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod daemon;
pub mod wire;

pub use batch::Batcher;
pub use cache::{FactorCache, Lookup};
pub use daemon::{ClientSummary, ServeConfig, Server};
pub use wire::{Request, Response};
