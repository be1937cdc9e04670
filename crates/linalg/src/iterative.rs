//! Iterative Krylov solver: restarted GMRES.
//!
//! It backs the sparse RBF-FD path. The dense global-collocation path uses
//! [`crate::Lu`] directly; the sparse path pairs GMRES with the simple
//! preconditioners below. GMRES handles the nonsymmetric
//! advection-dominated operators that appear in the Navier–Stokes momentum
//! equations as well as the RBF-FD Laplacian.
//!
//! The solver is allocation-free in its inner loop apart from the Krylov
//! basis (one stored vector per inner iteration, inherent to the method):
//! every operator application goes through [`LinOp::apply_into`] /
//! [`Preconditioner::apply_into`] against buffers allocated once per
//! solve. It returns a uniform [`SolveReport`] on success;
//! non-convergence surfaces as [`LinalgError::NotConverged`], which the
//! control layer maps onto its divergence taxonomy.

use crate::error::{LinalgError, Result};
use crate::sparse::Csr;
use crate::vector::DVec;
use meshfree_runtime::trace;

/// Anything that can act as `y = A x` for an iterative solver.
pub trait LinOp {
    /// Applies the operator.
    fn apply(&self, x: &DVec) -> DVec;
    /// Applies the operator into a caller-owned buffer of length
    /// [`LinOp::dim`]. Implementations should override this when they can
    /// avoid the allocation (the CSR implementation does); the default
    /// delegates to [`LinOp::apply`] and copies.
    fn apply_into(&self, x: &DVec, out: &mut DVec) {
        let y = self.apply(x);
        out.as_mut_slice().copy_from_slice(&y);
    }
    /// Problem dimension.
    fn dim(&self) -> usize;
}

impl LinOp for Csr {
    fn apply(&self, x: &DVec) -> DVec {
        self.matvec(x)
    }
    fn apply_into(&self, x: &DVec, out: &mut DVec) {
        self.matvec_into(x, out);
    }
    fn dim(&self) -> usize {
        self.nrows()
    }
}

impl LinOp for crate::dense::DMat {
    fn apply(&self, x: &DVec) -> DVec {
        self.matvec(x).expect("LinOp: shape mismatch")
    }
    fn dim(&self) -> usize {
        self.nrows()
    }
}

/// Left preconditioners `z = M⁻¹ r`.
#[derive(Debug, Clone)]
pub enum Preconditioner {
    /// No preconditioning.
    Identity,
    /// Diagonal (Jacobi) scaling; entries with zero diagonal pass through.
    Jacobi(DVec),
    /// Incomplete LU with zero fill-in, on the matrix's own sparsity.
    Ilu0(crate::sparse::Ilu0),
    /// Block lower-triangular sweep with a Schur-complement approximation
    /// for 3×3 `u|v|p` saddle-point systems ([`crate::saddle::SaddlePrecond`]).
    Saddle(Box<crate::saddle::SaddlePrecond>),
}

impl Preconditioner {
    /// Builds a Jacobi preconditioner from a sparse matrix's diagonal.
    pub fn jacobi_from(a: &Csr) -> Self {
        Preconditioner::Jacobi(a.diagonal())
    }

    /// Builds an ILU(0) preconditioner, falling back to Jacobi if the
    /// incomplete factorization hits a vanishing pivot. This is *the*
    /// construction path for ILU(0) in solver code — [`crate::Ilu0::factor`]
    /// is the raw factorization and reports the failing pivot instead of
    /// falling back.
    /// The fallback is *observable*: it emits an `ilu0_jacobi_fallback`
    /// counter and a `"linsolve"`-layer solve event, so campaign telemetry
    /// shows when a solve silently ran on the weaker preconditioner.
    pub fn ilu0_from(a: &Csr) -> Self {
        match crate::sparse::Ilu0::factor(a) {
            Ok(f) => Preconditioner::Ilu0(f),
            Err(_) => {
                trace::counter("ilu0_jacobi_fallback", 1.0);
                trace::solve_event(
                    "linsolve",
                    "ilu0_fallback_jacobi",
                    0,
                    f64::NAN,
                    f64::NAN,
                    f64::NAN,
                );
                Preconditioner::jacobi_from(a)
            }
        }
    }

    /// Short name of the preconditioner variant, for [`SolveReport`] and
    /// trace output.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Preconditioner::Identity => "identity",
            Preconditioner::Jacobi(_) => "jacobi",
            Preconditioner::Ilu0(_) => "ilu0",
            Preconditioner::Saddle(_) => "schur-ilu0",
        }
    }

    /// Applies the preconditioner.
    pub fn apply(&self, r: &DVec) -> DVec {
        let mut z = DVec::zeros(r.len());
        self.apply_into(r, &mut z);
        z
    }

    /// Applies the preconditioner into a caller-owned buffer (`out` must
    /// have the same length as `r`; the solvers preallocate it once).
    pub fn apply_into(&self, r: &DVec, out: &mut DVec) {
        match self {
            Preconditioner::Identity => out.as_mut_slice().copy_from_slice(r),
            Preconditioner::Jacobi(d) => {
                for i in 0..r.len() {
                    out[i] = if d[i].abs() > 1e-300 {
                        r[i] / d[i]
                    } else {
                        r[i]
                    };
                }
            }
            Preconditioner::Ilu0(f) => f.solve_into(r, out),
            Preconditioner::Saddle(s) => s.apply_into(r, out),
        }
    }
}

/// Options for [`gmres`].
///
/// Construct through the builder: [`IterOpts::gmres`] with the documented
/// defaults, then chained setters —
///
/// ```
/// use linalg::IterOpts;
/// let opts = IterOpts::gmres().tol(1e-10).restart(50);
/// let tight = IterOpts::gmres().max_iter(10_000).tol(1e-12);
/// assert_eq!(tight.iteration_limit(), 10_000);
/// assert_eq!(opts.restart_len(), 50);
/// ```
///
/// Defaults: `max_iter = 2000` total inner iterations, `rel_tol = 1e-10`,
/// `restart = 50`. Read back through [`IterOpts::iteration_limit`] /
/// [`IterOpts::tolerance`] / [`IterOpts::restart_len`].
#[derive(Debug, Clone)]
pub struct IterOpts {
    /// Maximum iterations (for GMRES: total inner iterations).
    max_iter: usize,
    /// Relative residual tolerance `‖r‖/‖b‖`.
    rel_tol: f64,
    /// GMRES restart length.
    restart: usize,
}

impl IterOpts {
    /// Options for [`gmres`]: `max_iter = 2000` total inner iterations,
    /// `rel_tol = 1e-10`, `restart = 50`.
    pub fn gmres() -> Self {
        IterOpts {
            max_iter: 2000,
            rel_tol: 1e-10,
            restart: 50,
        }
    }

    /// Sets the iteration cap (for GMRES: total inner iterations).
    pub fn max_iter(mut self, n: usize) -> Self {
        self.max_iter = n;
        self
    }

    /// Sets the relative residual tolerance `‖r‖/‖b‖`.
    pub fn tol(mut self, t: f64) -> Self {
        self.rel_tol = t;
        self
    }

    /// Sets the GMRES restart length.
    pub fn restart(mut self, m: usize) -> Self {
        self.restart = m;
        self
    }

    /// Iteration cap.
    pub fn iteration_limit(&self) -> usize {
        self.max_iter
    }

    /// Relative residual tolerance.
    pub fn tolerance(&self) -> f64 {
        self.rel_tol
    }

    /// GMRES restart length.
    pub fn restart_len(&self) -> usize {
        self.restart
    }
}

impl Default for IterOpts {
    fn default() -> Self {
        Self::gmres()
    }
}

/// Uniform outcome of a successful iterative solve.
///
/// Failures (tolerance not reached) are *not* encoded here — they surface
/// as [`LinalgError::NotConverged`] so the control layer's divergence
/// taxonomy (`ControlError::is_divergence`) applies uniformly. The `breakdown` field
/// records a *benign* early termination such as GMRES finding the exact
/// solution inside the Krylov space.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Solution vector.
    pub x: DVec,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
    /// Solver name (`"gmres"`).
    pub solver: &'static str,
    /// Preconditioner kind (`"identity"`, `"jacobi"`, `"ilu0"`,
    /// `"schur-ilu0"`).
    pub precond: &'static str,
    /// Benign early-termination reason, if any (e.g. a lucky GMRES
    /// breakdown). `None` for a plain tolerance-reached exit.
    pub breakdown: Option<&'static str>,
}

/// Restarted GMRES(m) with Givens rotations, left-preconditioned.
///
/// The Arnoldi inner loop is pool-parallel end to end: the operator
/// application goes through the CSR SpMV's fixed row blocks, and every
/// orthogonalization reduction (the `h[i][j] = ⟨w, vᵢ⟩` dots and the
/// basis/residual norms) runs through [`DVec::par_dot`] /
/// [`DVec::par_norm2`], whose fixed-block summation keeps the iteration —
/// and therefore the returned solution — bitwise invariant to the pool
/// width.
pub fn gmres(a: &dyn LinOp, b: &DVec, m: &Preconditioner, opts: &IterOpts) -> Result<SolveReport> {
    let _span = trace::span("gmres_solve");
    let n = a.dim();
    assert_eq!(b.len(), n, "gmres: rhs length mismatch");
    let (max_iter, rel_tol) = (opts.iteration_limit(), opts.tolerance());
    let restart = opts.restart_len().min(n).max(1);
    let mut x = DVec::zeros(n);
    let mut total_iters = 0usize;
    let mut breakdown: Option<&'static str> = None;
    // Buffers recycled across all restarts and inner iterations.
    let mut scratch = DVec::zeros(n); // holds A x, then b - A x
    let mut r = DVec::zeros(n); // preconditioned residual
    let mut aw = DVec::zeros(n); // A v_j
    m.apply_into(b, &mut r);
    let bnorm = r.par_norm2().max(1e-300);
    let report = |x: DVec, iterations: usize, residual: f64, breakdown| SolveReport {
        x,
        iterations,
        residual,
        solver: "gmres",
        precond: m.kind_name(),
        breakdown,
    };

    while total_iters < max_iter {
        // r = M^{-1}(b - A x)
        a.apply_into(&x, &mut scratch);
        scratch.scale_mut(-1.0);
        scratch += b;
        m.apply_into(&scratch, &mut r);
        let beta = r.par_norm2();
        let rel0 = beta / bnorm;
        if rel0 <= rel_tol {
            return Ok(report(x, total_iters, rel0, breakdown));
        }
        // Arnoldi with modified Gram-Schmidt.
        let mut v: Vec<DVec> = vec![r.scaled(1.0 / beta)];
        let mut h = vec![vec![0.0f64; restart]; restart + 1]; // h[i][j]
        let mut cs = vec![0.0f64; restart];
        let mut sn = vec![0.0f64; restart];
        let mut g = vec![0.0f64; restart + 1];
        g[0] = beta;
        let mut k_used = 0;
        for j in 0..restart {
            if total_iters >= max_iter {
                break;
            }
            total_iters += 1;
            a.apply_into(&v[j], &mut aw);
            let mut w = DVec::zeros(n);
            m.apply_into(&aw, &mut w);
            for (i, vi) in v.iter().enumerate() {
                h[i][j] = w.par_dot(vi);
                w.axpy(-h[i][j], vi);
            }
            h[j + 1][j] = w.par_norm2();
            // Apply the accumulated Givens rotations to column j.
            for i in 0..j {
                let tmp = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = tmp;
            }
            // New rotation to zero h[j+1][j].
            let (c, s) = givens(h[j][j], h[j + 1][j]);
            cs[j] = c;
            sn[j] = s;
            h[j][j] = c * h[j][j] + s * h[j + 1][j];
            h[j + 1][j] = 0.0;
            g[j + 1] = -s * g[j];
            g[j] *= c;
            k_used = j + 1;
            let rel = g[j + 1].abs() / bnorm;
            trace::solve_event("linear", "gmres", total_iters, rel, f64::NAN, f64::NAN);
            if rel <= rel_tol {
                break;
            }
            let norm = w.par_norm2();
            if norm < 1e-300 {
                // Lucky breakdown: exact solution in the Krylov space.
                breakdown = Some("lucky breakdown: Krylov space contains the solution");
                break;
            }
            w.scale_mut(1.0 / norm);
            v.push(w);
        }
        // Solve the small triangular system and update x.
        let mut y = vec![0.0f64; k_used];
        for i in (0..k_used).rev() {
            let mut s = g[i];
            for j in i + 1..k_used {
                s -= h[i][j] * y[j];
            }
            y[i] = s / h[i][i];
        }
        for (j, &yj) in y.iter().enumerate() {
            x.axpy(yj, &v[j]);
        }
        // Check the true residual after the restart block.
        a.apply_into(&x, &mut scratch);
        scratch.scale_mut(-1.0);
        scratch += b;
        m.apply_into(&scratch, &mut r);
        let rel = r.par_norm2() / bnorm;
        if rel <= rel_tol {
            return Ok(report(x, total_iters, rel, breakdown));
        }
    }
    a.apply_into(&x, &mut scratch);
    scratch.scale_mut(-1.0);
    scratch += b;
    m.apply_into(&scratch, &mut r);
    let rel = r.par_norm2() / bnorm;
    Err(LinalgError::NotConverged {
        solver: "gmres",
        iterations: total_iters,
        residual: rel,
    })
}

/// Returns `(c, s)` with `c·a + s·b = r` and `−s·a + c·b = 0`.
fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() > b.abs() {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c, c * t)
    } else {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DMat;
    use crate::sparse::Triplets;

    /// 1-D Poisson matrix (tridiagonal [-1, 2, -1]): SPD, well understood.
    fn poisson_1d(n: usize) -> Csr {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        t.to_csr()
    }

    /// Nonsymmetric advection-diffusion matrix.
    fn advdiff_1d(n: usize, peclet: f64) -> Csr {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + 0.1);
            if i > 0 {
                t.push(i, i - 1, -1.0 - peclet);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0 + peclet);
            }
        }
        t.to_csr()
    }

    #[test]
    fn gmres_solves_nonsymmetric() {
        let n = 80;
        let a = advdiff_1d(n, 0.7);
        let b = DVec::from_fn(n, |i| (i as f64 * 0.05).cos());
        let res = gmres(&a, &b, &Preconditioner::Identity, &IterOpts::gmres()).unwrap();
        let rel = (&a.matvec(&res.x) - &b).norm2() / b.norm2();
        assert!(rel < 1e-8, "relative residual {rel}");
    }

    #[test]
    fn gmres_with_restart_and_jacobi() {
        let n = 120;
        let a = advdiff_1d(n, 0.3);
        let b = DVec::full(n, 1.0);
        let m = Preconditioner::jacobi_from(&a);
        let opts = IterOpts::gmres().restart(15);
        let res = gmres(&a, &b, &m, &opts).unwrap();
        assert!((&a.matvec(&res.x) - &b).norm2() / b.norm2() < 1e-8);
    }

    #[test]
    fn gmres_matches_dense_lu() {
        let n = 30;
        let a = advdiff_1d(n, 0.5);
        let ad = a.to_dense();
        let b = DVec::from_fn(n, |i| (i as f64) - 10.0);
        let xg = gmres(&a, &b, &Preconditioner::Identity, &IterOpts::gmres())
            .unwrap()
            .x;
        let xl = crate::Lu::factor(&ad).unwrap().solve(&b).unwrap();
        assert!((&xg - &xl).norm2() < 1e-7 * xl.norm2().max(1.0));
    }

    #[test]
    fn gmres_on_dense_linop() {
        let a = DMat::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let b = DVec(vec![1.0, 2.0]);
        let res = gmres(&a, &b, &Preconditioner::Identity, &IterOpts::gmres()).unwrap();
        assert!((&a.matvec(&res.x).unwrap() - &b).norm2() < 1e-10);
    }

    #[test]
    fn not_converged_is_reported() {
        let n = 60;
        let a = poisson_1d(n);
        let b = DVec::full(n, 1.0);
        let opts = IterOpts::gmres().max_iter(2).tol(1e-14).restart(2);
        assert!(matches!(
            gmres(&a, &b, &Preconditioner::Identity, &opts),
            Err(LinalgError::NotConverged { .. })
        ));
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = poisson_1d(10);
        let b = DVec::zeros(10);
        let res = gmres(&a, &b, &Preconditioner::Identity, &IterOpts::gmres()).unwrap();
        assert_eq!(res.iterations, 0);
        assert!(res.x.norm2() < 1e-14);
    }

    #[test]
    fn builder_defaults_match_the_documented_values() {
        for opts in [IterOpts::gmres(), IterOpts::default()] {
            assert_eq!(opts.iteration_limit(), 2000);
            assert_eq!(opts.tolerance(), 1e-10);
            assert_eq!(opts.restart_len(), 50);
        }
        let o = IterOpts::gmres().max_iter(7).tol(1e-3).restart(4);
        assert_eq!(o.iteration_limit(), 7);
        assert_eq!(o.tolerance(), 1e-3);
        assert_eq!(o.restart_len(), 4);
    }

    #[test]
    fn solve_report_carries_solver_and_preconditioner_names() {
        let n = 40;
        let a = poisson_1d(n);
        let b = DVec::full(n, 1.0);
        let m = Preconditioner::jacobi_from(&a);
        let rep = gmres(&a, &b, &m, &IterOpts::gmres()).unwrap();
        assert_eq!(rep.solver, "gmres");
        assert_eq!(rep.precond, "jacobi");
        assert!(rep.breakdown.is_none());
        assert!(rep.iterations > 0);
        assert!(rep.residual <= 1e-10);
        let rep = gmres(&a, &b, &Preconditioner::Identity, &IterOpts::gmres()).unwrap();
        assert_eq!((rep.solver, rep.precond), ("gmres", "identity"));
    }

    #[test]
    fn ilu0_fallback_to_jacobi_on_singular_pivot() {
        // Zero diagonal in the pattern: ILU(0) must fail, and the documented
        // construction path falls back to Jacobi rather than erroring.
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csr();
        assert!(crate::sparse::Ilu0::factor(&a).is_err());
        let m = Preconditioner::ilu0_from(&a);
        assert!(matches!(m, Preconditioner::Jacobi(_)));
        assert_eq!(m.kind_name(), "jacobi");
        // GMRES still solves the (perfectly regular) permutation system.
        let b = DVec(vec![2.0, 3.0]);
        let res = gmres(&a, &b, &m, &IterOpts::gmres()).unwrap();
        assert!((res.x[0] - 3.0).abs() < 1e-10 && (res.x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn ilu0_fallback_is_surfaced_on_the_trace_layer() {
        use meshfree_runtime::trace::{self, MemorySink, TraceEvent};
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csr();
        let (sink, events) = MemorySink::new();
        trace::set_sink(Box::new(sink));
        let m = Preconditioner::ilu0_from(&a);
        trace::clear_sink();
        assert!(matches!(m, Preconditioner::Jacobi(_)));
        let events = events.lock().unwrap();
        assert!(
            events.iter().any(|e| matches!(e,
                TraceEvent::Counter { name, value }
                    if *name == "ilu0_jacobi_fallback" && *value == 1.0)),
            "fallback must bump the counter: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e,
                TraceEvent::Solve { layer, solver, .. }
                    if *layer == "linsolve" && *solver == "ilu0_fallback_jacobi")),
            "fallback must emit a linsolve event: {events:?}"
        );
    }

    #[test]
    fn gmres_is_bitwise_invariant_to_pool_width() {
        use meshfree_runtime::par::{serial_scope, with_pool, ThreadPool};
        use std::sync::Arc;
        // Large enough that the par_dot/par_norm2 reductions span several
        // REDUCE_BLOCK blocks and the SpMV crosses its parallel threshold.
        let n = 3000;
        let a = advdiff_1d(n, 0.3);
        let b = DVec::from_fn(n, |i| (i as f64 * 0.01).sin() + 0.5);
        let m = Preconditioner::ilu0_from(&a);
        let opts = IterOpts::gmres().restart(30).tol(1e-9);
        let want = serial_scope(|| gmres(&a, &b, &m, &opts).unwrap());
        for threads in [1usize, 2, 8] {
            let pool = Arc::new(ThreadPool::new(threads));
            let got = with_pool(&pool, || gmres(&a, &b, &m, &opts).unwrap());
            assert_eq!(got.iterations, want.iterations, "pool {threads}");
            assert_eq!(
                got.residual.to_bits(),
                want.residual.to_bits(),
                "pool {threads} changed the residual bits"
            );
            for i in 0..n {
                assert_eq!(
                    got.x[i].to_bits(),
                    want.x[i].to_bits(),
                    "pool {threads} diverged at entry {i}"
                );
            }
        }
    }

    #[test]
    fn apply_into_matches_apply_for_all_preconditioners() {
        let a = poisson_1d(12);
        let r = DVec::from_fn(12, |i| (i as f64 * 0.7).sin());
        for m in [
            Preconditioner::Identity,
            Preconditioner::jacobi_from(&a),
            Preconditioner::ilu0_from(&a),
        ] {
            let z = m.apply(&r);
            let mut z2 = DVec::zeros(12);
            m.apply_into(&r, &mut z2);
            assert_eq!(z.as_slice(), z2.as_slice(), "{}", m.kind_name());
        }
    }
}
