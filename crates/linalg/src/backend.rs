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
//!   solver without row interchanges: identity (Dirichlet) rows split off,
//!   the rest RCM-ordered and LU-factored in envelope form. It backs the
//!   sparse RBF-FD Laplace system, whose operator does not depend on the
//!   control: an RBF-FD discretisation stores `O(k·N)` entries and its
//!   factor `O(N·nx)`, so node counts far beyond the dense ceiling become
//!   tractable.
//! * [`crate::BandLu`] — the same split and ordering, then a band LU with
//!   partial pivoting inside the band. It backs the Navier–Stokes Picard
//!   and adjoint saddle systems, which need row interchanges and change
//!   every sweep: one factor per sweep, one solve or transpose solve
//!   against it.
//!
//! All of them satisfy the same four operations: `solve`,
//! `solve_transpose` (adjoints), `dim` and `memory_bytes`. Both sparse
//! factors check their residual at factor time, so a returned factor is
//! known to solve its operator; every sparse solve reports through the
//! `"linsolve"` trace layer, so a campaign sweep over
//! `backend ∈ {DenseLu, SparseGmres}` records solver effort alongside cost
//! histories.

use crate::error::Result;
use crate::factor::Lu;
use crate::vector::DVec;

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
    /// because it appears in spec ids, ledgers and wire lines; no solve on
    /// it is iterative. The Laplace build factors its operator once with
    /// [`crate::EnvelopeLu`], and the Navier–Stokes build factors each
    /// saddle system with [`crate::BandLu`].
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
    /// Bytes held by the prepared operator (factors and ordering) — what
    /// the DP tape charges per retained solve node.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::BandLu;
    use crate::sparse::{Csr, Triplets};
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
        let sparse = BandLu::factor(&a).unwrap();
        let xd = LinearBackend::solve(&dense, &b).unwrap();
        let xs = sparse.solve(&b).unwrap();
        assert!((&xd - &xs).norm2() < 1e-12 * xd.norm2().max(1.0));
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
        let sparse = BandLu::factor(&a).unwrap();
        let xd = LinearBackend::solve_transpose(&dense, &b).unwrap();
        let xs = sparse.solve_transpose(&b).unwrap();
        assert!((&xd - &xs).norm2() < 1e-12 * xd.norm2().max(1.0));
        // And it genuinely solves Aᵀx = b.
        let r = &a.matvec_t(&xs) - &b;
        assert!(r.norm2() < 1e-12 * b.norm2());
    }

    #[test]
    fn trait_objects_unify_both_backends() {
        let n = 25;
        let a = advdiff_1d(n, 0.4);
        let b = DVec::from_fn(n, |i| (i % 3) as f64 - 1.0);
        let backends: Vec<Arc<dyn LinearBackend>> = vec![
            Arc::new(dense_backend(&a)),
            Arc::new(BandLu::factor(&a).unwrap()),
        ];
        let mut xs = Vec::new();
        for be in &backends {
            assert_eq!(be.dim(), n);
            assert!(be.memory_bytes() > 0);
            xs.push(be.solve(&b).unwrap());
        }
        assert!((&xs[0] - &xs[1]).norm2() < 1e-12 * xs[0].norm2().max(1.0));
    }

    #[test]
    fn sparse_backend_uses_far_less_memory_at_scale() {
        let n = 800;
        let a = advdiff_1d(n, 0.1);
        let sparse = BandLu::factor(&a).unwrap();
        // Dense would hold n² doubles; the tridiagonal band holds ~4n.
        assert!(sparse.memory_bytes() < n * n * 8 / 10);
    }

    #[test]
    fn sparse_solves_emit_linsolve_trace_events() {
        use meshfree_runtime::trace::{self, MemorySink, TraceEvent};
        let n = 50;
        let a = advdiff_1d(n, 0.3);
        let b = DVec::full(n, 1.0);
        let sparse = BandLu::factor(&a).unwrap();
        let (sink, events) = MemorySink::new();
        trace::set_sink(Box::new(sink));
        let _ = sparse.solve(&b).unwrap();
        let _ = sparse.solve_transpose(&b).unwrap();
        trace::clear_sink();
        let events = events.lock().unwrap();
        let solvers: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Solve { layer, solver, .. } if *layer == "linsolve" => Some(*solver),
                _ => None,
            })
            .collect();
        // Other concurrently-running tests may add linsolve events of their
        // own (the sink is process-global), so assert on presence, not count.
        for label in ["band_lu", "band_lu_t"] {
            assert!(solvers.contains(&label), "no {label} event: {solvers:?}");
        }
    }

    #[test]
    fn pivoting_solves_a_permutation_matrix() {
        // Zero diagonal: only row interchanges can factor it.
        let mut t = Triplets::new(3, 3);
        t.push(0, 2, 1.0);
        t.push(1, 0, 1.0);
        t.push(2, 1, 1.0);
        let sparse = BandLu::factor(&t.to_csr()).unwrap();
        let b = DVec(vec![1.0, 2.0, 3.0]);
        let x = sparse.solve(&b).unwrap();
        assert_eq!(x.as_slice(), &[2.0, 3.0, 1.0]);
    }
}
