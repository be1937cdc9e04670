//! Pluggable linear-solver backends.
//!
//! The paper's DAL and DP strategies spend essentially all of their
//! wall-clock in repeated solves of the same collocation operator (forward
//! states and transposed/adjoint systems). [`LinearBackend`] abstracts that
//! contract so the PDE and control layers are generic over *how* the solve
//! happens:
//!
//! * [`crate::Lu`] — dense factor-once/solve-many with partial pivoting.
//!   The default: bitwise-identical to the historical direct path, optimal
//!   for the dense global-collocation operators (which have no sparsity to
//!   exploit).
//! * [`crate::EnvelopeLu`] — the sparse factor-once/solve-many direct
//!   solver: identity (Dirichlet) rows split off, the rest RCM-ordered and
//!   LU-factored in envelope form without row interchanges. It backs the
//!   sparse RBF-FD Laplace system, whose operator does not depend on the
//!   control: an RBF-FD discretisation stores `O(k·N)` entries and its
//!   factor `O(N·nx)`, so node counts far beyond the dense ceiling become
//!   tractable.
//! * [`SparseIterative`] — CSR + restarted GMRES, with an ILU(0) or a
//!   SIMPLE-style Schur preconditioner, for operators that change between
//!   solves (the Navier–Stokes Picard saddle systems and taped solves with
//!   a variable matrix), where a factorisation would not be reused.
//!
//! All of them satisfy the same four operations: `solve`,
//! `solve_transpose` (adjoints), `dim` and `memory_bytes`. Every sparse
//! solve reports through the `"linsolve"` trace layer (GMRES with its
//! iteration count and final residual), so a campaign sweep over
//! `backend ∈ {DenseLu, SparseGmres}` records solver effort alongside cost
//! histories.

use crate::error::Result;
use crate::factor::Lu;
use crate::iterative::{gmres, IterOpts, Preconditioner};
use crate::saddle::{BlockCsr, SaddlePrecond};
use crate::sparse::Csr;
use crate::vector::DVec;
use meshfree_runtime::trace;

/// Which linear-solver backend a problem should use. This is the value that
/// flows through `RunSpec`/`ProblemSpec` builders — a campaign hyperparameter
/// like the learning rate or node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Dense LU with partial pivoting (factor once, solve many). The
    /// default; bitwise-identical to the historical direct path.
    #[default]
    DenseLu,
    /// The sparse RBF-FD discretisation. The name is historical and kept
    /// because it appears in spec ids, ledgers and wire lines: the Laplace
    /// build factors its operator once with [`crate::EnvelopeLu`], and the
    /// Navier–Stokes build solves its saddle systems with
    /// Schur-preconditioned GMRES ([`SparseIterative::gmres_saddle`]).
    SparseGmres,
}

impl BackendKind {
    /// Stable lowercase name, used in run identifiers and ledgers.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::DenseLu => "dense-lu",
            BackendKind::SparseGmres => "sparse-gmres",
        }
    }
}

/// A linear solver prepared for one operator: forward and transpose solves
/// against a fixed `A`, reusable across many right-hand sides.
///
/// Object-safe on purpose — the autodiff tape stores
/// `Arc<dyn LinearBackend>` inside its solve nodes so the backward pass can
/// replay `Aᵀx̄` through whichever backend produced the forward solve.
pub trait LinearBackend: Send + Sync {
    /// Operator dimension `n` (the backend solves `n × n` systems).
    fn dim(&self) -> usize;
    /// Which backend this is.
    fn kind(&self) -> BackendKind;
    /// Solves `A x = b`.
    fn solve(&self, b: &DVec) -> Result<DVec>;
    /// Solves `A xₖ = bₖ` for a batch of right-hand sides sharing the
    /// prepared operator.
    ///
    /// The default loops [`LinearBackend::solve`] once per column, so every
    /// backend gets the batched entry point; backends with a genuinely
    /// blocked path (dense LU) override it. Contract: the result must be
    /// bitwise identical to the one-at-a-time loop — callers (the serve
    /// batcher) rely on coalescing being invisible in the answers.
    fn solve_many(&self, rhs: &[DVec]) -> Result<Vec<DVec>> {
        rhs.iter().map(|b| self.solve(b)).collect()
    }
    /// Solves `Aᵀ x = b` (the adjoint/backward solve).
    fn solve_transpose(&self, b: &DVec) -> Result<DVec>;
    /// Bytes held by the prepared operator (factors, sparse pattern,
    /// preconditioner) — what the DP tape charges per retained solve node.
    fn memory_bytes(&self) -> usize;
}

impl LinearBackend for Lu {
    fn dim(&self) -> usize {
        Lu::dim(self)
    }
    fn kind(&self) -> BackendKind {
        BackendKind::DenseLu
    }
    fn solve(&self, b: &DVec) -> Result<DVec> {
        Lu::solve(self, b)
    }
    fn solve_many(&self, rhs: &[DVec]) -> Result<Vec<DVec>> {
        Lu::solve_many(self, rhs)
    }
    fn solve_transpose(&self, b: &DVec) -> Result<DVec> {
        Lu::solve_transpose(self, b)
    }
    fn memory_bytes(&self) -> usize {
        let n = Lu::dim(self);
        n * n * 8 + n * std::mem::size_of::<usize>()
    }
}

/// The iterative sparse backend: a CSR operator, its explicit transpose,
/// and preconditioners for both (ILU(0) or the Schur saddle
/// preconditioner), solved by restarted GMRES.
///
/// "Factorisation" here is the preconditioner setup;
/// [`SparseIterative::refactor_saddle`] recycles the struct for the next
/// Picard linearisation (the analogue of [`Lu::refactor`]). Solves are
/// allocation-free inside the Krylov loop ([`Csr::matvec_into`] +
/// preallocated buffers) and emit one `"linsolve"` trace event each with
/// the iteration count and final relative residual.
#[derive(Debug, Clone)]
pub struct SparseIterative {
    a: Csr,
    at: Csr,
    m: Preconditioner,
    mt: Preconditioner,
    opts: IterOpts,
}

impl SparseIterative {
    /// Prepares GMRES+ILU(0) for `a` with the given options. Builds the
    /// explicit transpose and both preconditioners up front so forward and
    /// adjoint solves are symmetric in cost.
    pub fn gmres_ilu0(a: Csr, opts: IterOpts) -> Self {
        let at = a.transpose();
        let m = Preconditioner::ilu0_from(&a);
        let mt = Preconditioner::ilu0_from(&at);
        SparseIterative { a, at, m, mt, opts }
    }

    /// Prepares GMRES with the SIMPLE-style Schur preconditioner
    /// ([`SaddlePrecond`]) for a 3×3 `u|v|p` saddle-point system.
    ///
    /// The Krylov operator is the flattened block matrix
    /// ([`BlockCsr::flatten`], still `O(k·N)` storage); the preconditioner
    /// works block-wise. The transpose side builds the same preconditioner
    /// from the block transpose, so adjoint solves converge identically.
    /// Solves emit `gmres_schur` / `gmres_schur_t` events on the
    /// `"linsolve"` trace layer.
    pub fn gmres_saddle(blocks: &BlockCsr, opts: IterOpts) -> Self {
        let a = blocks.flatten();
        let at = a.transpose();
        let m = Preconditioner::Saddle(Box::new(SaddlePrecond::build(blocks)));
        let mt = Preconditioner::Saddle(Box::new(SaddlePrecond::build(&blocks.transpose())));
        SparseIterative { a, at, m, mt, opts }
    }

    /// Re-prepares the saddle path for the next Picard linearisation:
    /// rebuilds the flattened operator, its transpose and both Schur
    /// preconditioners, keeping the solver options.
    pub fn refactor_saddle(&mut self, blocks: &BlockCsr) {
        self.a = blocks.flatten();
        self.at = self.a.transpose();
        self.m = Preconditioner::Saddle(Box::new(SaddlePrecond::build(blocks)));
        self.mt = Preconditioner::Saddle(Box::new(SaddlePrecond::build(&blocks.transpose())));
    }

    /// The prepared operator.
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// The solver options in effect.
    pub fn opts(&self) -> &IterOpts {
        &self.opts
    }

    fn run(&self, a: &Csr, m: &Preconditioner, b: &DVec, solver: &'static str) -> Result<DVec> {
        let report = gmres(a, b, m, &self.opts)?;
        trace::solve_event(
            "linsolve",
            solver,
            report.iterations,
            report.residual,
            f64::NAN,
            f64::NAN,
        );
        Ok(report.x)
    }
}

impl LinearBackend for SparseIterative {
    fn dim(&self) -> usize {
        self.a.nrows()
    }
    fn kind(&self) -> BackendKind {
        BackendKind::SparseGmres
    }
    fn solve(&self, b: &DVec) -> Result<DVec> {
        let label = match self.m {
            Preconditioner::Saddle(_) => "gmres_schur",
            _ => "gmres_ilu0",
        };
        self.run(&self.a, &self.m, b, label)
    }
    fn solve_transpose(&self, b: &DVec) -> Result<DVec> {
        let label = match self.mt {
            Preconditioner::Saddle(_) => "gmres_schur_t",
            _ => "gmres_ilu0_t",
        };
        self.run(&self.at, &self.mt, b, label)
    }
    fn memory_bytes(&self) -> usize {
        let csr = |c: &Csr| {
            c.nnz() * (8 + std::mem::size_of::<usize>())
                + (c.nrows() + 1) * std::mem::size_of::<usize>()
        };
        let pre = |p: &Preconditioner| match p {
            Preconditioner::Identity => 0,
            Preconditioner::Jacobi(d) => d.len() * 8,
            Preconditioner::Ilu0(f) => f.memory_bytes(),
            Preconditioner::Saddle(s) => s.memory_bytes(),
        };
        csr(&self.a) + csr(&self.at) + pre(&self.m) + pre(&self.mt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use std::sync::Arc;

    fn advdiff_1d(n: usize, peclet: f64) -> Csr {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.1);
            if i > 0 {
                t.push(i, i - 1, -1.0 - peclet);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0 + peclet);
            }
        }
        t.to_csr()
    }

    fn dense_backend(a: &Csr) -> Lu {
        Lu::factor(&a.to_dense()).unwrap()
    }

    #[test]
    fn kinds_and_names_are_stable() {
        assert_eq!(BackendKind::default(), BackendKind::DenseLu);
        assert_eq!(BackendKind::DenseLu.name(), "dense-lu");
        assert_eq!(BackendKind::SparseGmres.name(), "sparse-gmres");
    }

    #[test]
    fn both_backends_solve_the_same_system() {
        let n = 60;
        let a = advdiff_1d(n, 0.3);
        let b = DVec::from_fn(n, |i| (i as f64 * 0.2).sin());
        let dense = dense_backend(&a);
        let sparse = SparseIterative::gmres_ilu0(a, IterOpts::gmres().tol(1e-12));
        let xd = LinearBackend::solve(&dense, &b).unwrap();
        let xs = sparse.solve(&b).unwrap();
        assert!((&xd - &xs).norm2() < 1e-8 * xd.norm2().max(1.0));
        assert_eq!(LinearBackend::dim(&dense), n);
        assert_eq!(sparse.dim(), n);
        assert_eq!(LinearBackend::kind(&dense), BackendKind::DenseLu);
        assert_eq!(sparse.kind(), BackendKind::SparseGmres);
    }

    #[test]
    fn transpose_solves_agree_across_backends() {
        let n = 40;
        let a = advdiff_1d(n, 0.5);
        let b = DVec::from_fn(n, |i| 1.0 - 0.03 * i as f64);
        let dense = dense_backend(&a);
        let sparse = SparseIterative::gmres_ilu0(a.clone(), IterOpts::gmres().tol(1e-12));
        let xd = LinearBackend::solve_transpose(&dense, &b).unwrap();
        let xs = sparse.solve_transpose(&b).unwrap();
        assert!((&xd - &xs).norm2() < 1e-8 * xd.norm2().max(1.0));
        // And it genuinely solves Aᵀx = b.
        let r = &a.matvec_t(&xs) - &b;
        assert!(r.norm2() < 1e-8 * b.norm2());
    }

    #[test]
    fn trait_objects_unify_both_backends() {
        let n = 25;
        let a = advdiff_1d(n, 0.4);
        let b = DVec::from_fn(n, |i| (i % 3) as f64 - 1.0);
        let backends: Vec<Arc<dyn LinearBackend>> = vec![
            Arc::new(dense_backend(&a)),
            Arc::new(SparseIterative::gmres_ilu0(
                a.clone(),
                IterOpts::gmres().tol(1e-12),
            )),
        ];
        let mut xs = Vec::new();
        for be in &backends {
            assert_eq!(be.dim(), n);
            assert!(be.memory_bytes() > 0);
            xs.push(be.solve(&b).unwrap());
        }
        assert!((&xs[0] - &xs[1]).norm2() < 1e-8 * xs[0].norm2().max(1.0));
    }

    #[test]
    fn sparse_backend_uses_far_less_memory_at_scale() {
        let n = 800;
        let a = advdiff_1d(n, 0.1);
        let sparse = SparseIterative::gmres_ilu0(a, IterOpts::gmres());
        // Dense would hold n² doubles; the tridiagonal CSR holds ~3n.
        assert!(sparse.memory_bytes() < n * n * 8 / 10);
    }

    #[test]
    fn sparse_solves_emit_linsolve_trace_events() {
        use meshfree_runtime::trace::{self, MemorySink, TraceEvent};
        let n = 50;
        let a = advdiff_1d(n, 0.3);
        let b = DVec::full(n, 1.0);
        let sparse = SparseIterative::gmres_ilu0(a, IterOpts::gmres());
        let (sink, events) = MemorySink::new();
        trace::set_sink(Box::new(sink));
        let _ = sparse.solve(&b).unwrap();
        let _ = sparse.solve_transpose(&b).unwrap();
        trace::clear_sink();
        let events = events.lock().unwrap();
        let solves: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Solve {
                    layer,
                    solver,
                    event,
                } if *layer == "linsolve" => Some((*solver, event.iter)),
                _ => None,
            })
            .collect();
        // Other concurrently-running tests may add linsolve events of their
        // own (the sink is process-global), so assert on presence, not count.
        assert!(
            solves.iter().any(|(s, it)| *s == "gmres_ilu0" && *it > 0),
            "forward solve must report its iteration count: {solves:?}"
        );
        assert!(
            solves.iter().any(|(s, _)| *s == "gmres_ilu0_t"),
            "transpose solve must be traced: {solves:?}"
        );
    }

    #[test]
    fn dense_fallback_when_ilu0_is_singular_still_solves() {
        // Permutation pattern: ILU(0) fails, backend falls back to Jacobi
        // internally and GMRES still converges.
        let mut t = Triplets::new(3, 3);
        t.push(0, 2, 1.0);
        t.push(1, 0, 1.0);
        t.push(2, 1, 1.0);
        let a = t.to_csr();
        let sparse = SparseIterative::gmres_ilu0(a, IterOpts::gmres());
        let b = DVec(vec![1.0, 2.0, 3.0]);
        let x = sparse.solve(&b).unwrap();
        assert!((x[2] - 1.0).abs() < 1e-9);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }
}
