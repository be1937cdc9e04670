#![warn(missing_docs)]

//! # meshfree-linalg
//!
//! Self-contained dense and sparse linear algebra for the `meshfree-oc`
//! workspace. No BLAS/LAPACK: the point of the reproduction is to own the
//! whole substrate, so everything from `axpy` to the sparse direct factors
//! lives here.
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
//!   RBF-FD local-stencil path and, over a pattern fixed at build and
//!   refilled in place, by the Navier–Stokes saddle systems.
//! * [`envelope`] — [`EnvelopeLu`], the sparse direct factor without row
//!   interchanges (sparse Laplace): identity rows split off, reverse
//!   Cuthill–McKee ordering, envelope LU with a pivot check and a residual
//!   check.
//! * [`band`] — [`BandLu`], the sparse direct factor with partial pivoting
//!   inside the band (the Navier–Stokes saddle systems): the same split,
//!   ordering and residual check, then a `gbtrf`-style band LU.
//! * [`backend`] — the [`LinearBackend`] abstraction unifying dense LU,
//!   [`EnvelopeLu`] and [`BandLu`] behind one solve/transpose-solve
//!   contract.
//! * [`blocking`] — the unified blocking constants (LU tile, SIMD lane
//!   count, multi-RHS block, fixed parallel block count) and the
//!   chunks-of-8 dot kernel shared by every dense hot loop.
//!
//! All storage is `f64`; the solvers in this workspace are double precision
//! throughout (RBF collocation matrices are notoriously ill-conditioned and
//! single precision is not viable).

pub mod backend;
pub mod band;
pub mod blocking;
pub mod dense;
pub mod envelope;
pub mod error;
pub mod factor;
pub mod sparse;
mod split;
pub mod vector;

pub use backend::{BackendKind, LinearBackend};
pub use band::BandLu;
pub use dense::DMat;
pub use envelope::EnvelopeLu;
pub use error::{LinalgError, Result};
pub use factor::{Cholesky, Lu, Qr};
pub use sparse::{Csr, Triplets};
pub use vector::DVec;

/// Tolerance used by the crate's own tests when comparing against
/// analytically-known results.
pub const TEST_TOL: f64 = 1e-10;
