#![warn(missing_docs)]

//! # meshfree-linalg
//!
//! Self-contained dense and sparse linear algebra for the `meshfree-oc`
//! workspace. No BLAS/LAPACK: the point of the reproduction is to own the
//! whole substrate, so everything from `axpy` to restarted GMRES lives here.
//!
//! Contents:
//!
//! * [`DVec`] — owned dense vector with the usual BLAS-1 operations.
//! * [`DMat`] — row-major dense matrix with pool-parallel BLAS-2/3 kernels.
//! * [`Lu`] — LU factorization with partial pivoting, forward/transpose
//!   solves, multi-RHS solves and a 1-norm condition estimate. This is the
//!   workhorse behind both the RBF collocation solves and the custom
//!   linear-solve adjoint in `meshfree-autodiff`.
//! * [`Cholesky`] — for symmetric positive definite systems.
//! * [`Qr`] — Householder QR and least-squares solves.
//! * [`Csr`] — compressed sparse row matrices with parallel SpMV, used by the
//!   RBF-FD local-stencil path.
//! * [`iterative`] — restarted GMRES with simple preconditioners,
//!   reporting a uniform [`SolveReport`].
//! * [`envelope`] — [`EnvelopeLu`], the factor-once sparse direct solver:
//!   identity rows split off, reverse Cuthill–McKee ordering, unpivoted
//!   envelope LU with a pivot check and a residual check.
//! * [`backend`] — the [`LinearBackend`] abstraction unifying dense LU,
//!   [`EnvelopeLu`] and [`SparseIterative`] (GMRES+ILU0 or the Schur
//!   saddle preconditioner) behind one solve/transpose-solve contract.
//! * [`blocking`] — the unified blocking constants (LU tile, SIMD lane
//!   count, multi-RHS block, fixed parallel block count) and the
//!   chunks-of-8 dot kernel shared by every dense hot loop.
//!
//! All storage is `f64`; the solvers in this workspace are double precision
//! throughout (RBF collocation matrices are notoriously ill-conditioned and
//! single precision is not viable).

pub mod backend;
pub mod blocking;
pub mod dense;
pub mod envelope;
pub mod error;
pub mod factor;
pub mod iterative;
pub mod saddle;
pub mod sparse;
pub mod vector;

pub use backend::{BackendKind, LinearBackend, SparseIterative};
pub use dense::DMat;
pub use envelope::EnvelopeLu;
pub use error::{LinalgError, Result};
pub use factor::{Cholesky, Lu, Qr};
pub use iterative::{gmres, IterOpts, Preconditioner, SolveReport};
pub use saddle::{BlockCsr, SaddlePrecond};
pub use sparse::{Csr, Ilu0, Triplets};
pub use vector::DVec;

/// Tolerance used by the crate's own tests when comparing against
/// analytically-known results.
pub const TEST_TOL: f64 = 1e-10;
