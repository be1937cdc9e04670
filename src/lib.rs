//! # meshfree-oc
//!
//! A from-scratch Rust reproduction of *"A comparison of mesh-free
//! differentiable programming and data-driven strategies for optimal
//! control under PDE constraints"* (Nzoyem Ngueguin, Barton & Deakin,
//! SC-W 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`linalg`] — dense/sparse linear algebra (LU, QR, Cholesky, CSR,
//!   sparse envelope and band LU) built without BLAS.
//! * [`autodiff`] — forward-mode duals and the reverse-mode tensor tape
//!   with a differentiable linear solve (the JAX substitute).
//! * [`geometry`] — node clouds, generators (incl. the GMSH-substitute
//!   channel cloud), k-d trees, boundary quadrature.
//! * [`rbf`] — RBF kernels, global collocation, RBF-FD stencils (the
//!   Updec substitute).
//! * [`pde`] — the Laplace and Navier–Stokes control substrates with
//!   plain, taped (DP) and adjoint (DAL) solvers.
//! * [`nn`] — tape-native MLPs with Taylor-mode input derivatives (PINNs).
//! * [`opt`] — Adam/SGD with the paper's learning-rate schedule.
//! * [`control`] — the DAL/DP/PINN drivers, the two-step ω line search,
//!   the unified `RunSpec`/`Strategy` front door (including the
//!   `Strategy::NeuralOp` affine surrogate with its
//!   train/freeze/optimize/audit lifecycle), and the Table 3
//!   instrumentation.
//! * [`driver`] — the fault-tolerant batch campaign engine: concurrent
//!   grids, deadlines, damped retries, and a JSONL resume ledger.
//! * [`serve`] — the control-as-a-service daemon: JSONL requests over
//!   stdin/Unix-socket, a cross-request factorization + surrogate cache
//!   (`MESHFREE_CACHE_BYTES`), multi-RHS request batching, and
//!   microsecond `neural-eval` answers (wire protocol v2).
//! * [`runtime`] — the std-only substrate: persistent thread pool
//!   (`MESHFREE_THREADS`), seeded RNG, and solver telemetry
//!   (`MESHFREE_TRACE`).
//! * [`check`] — the verification harness: MMS convergence studies,
//!   cross-strategy gradient consistency, and golden-run regression
//!   snapshots (`MESHFREE_BLESS`).
//!
//! ## Quickstart
//!
//! ```
//! use meshfree_oc::control::{execute, RunSpec, Strategy};
//!
//! let spec = RunSpec::laplace()
//!     .nx(12)
//!     .strategy(Strategy::Dp)
//!     .iterations(40)
//!     .build();
//! let run = execute(&spec).unwrap();
//! assert!(run.report.final_cost.is_finite());
//! ```

pub use autodiff;
pub use check;
pub use control;
pub use driver;
pub use geometry;
pub use linalg;
pub use meshfree_runtime as runtime;
pub use nn;
pub use opt;
pub use pde;
pub use rbf;
pub use serve;

/// Workspace version, for reporting in experiment outputs.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
