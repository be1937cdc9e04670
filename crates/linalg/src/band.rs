//! Band LU with partial pivoting for sparse operators that need row
//! interchanges.
//!
//! [`BandLu`] is the direct solver behind the sparse Navier–Stokes saddle
//! systems: one factor per Picard sweep and per adjoint solve. The
//! interior continuity rows of those systems have no pressure diagonal,
//! so an unpivoted factor ([`crate::EnvelopeLu`]) refuses them. It is
//! prepared in four steps.
//!
//! 1. **Dirichlet split** and 2. **RCM ordering**, shared with
//!    [`crate::EnvelopeLu`]: identity rows are split off and the rest is
//!    ordered by reverse Cuthill–McKee, which bounds the lower and upper
//!    bandwidths `kl`, `ku` of the factored block `A_II`.
//! 3. **Factor.** LAPACK `gbtrf`-style LU with partial pivoting inside the
//!    band, `P A_II = L U`. Storage is column-major band storage with
//!    `2·kl + ku + 1` rows per column: row interchanges widen `U` to upper
//!    bandwidth `kl + ku`, and `L` keeps `kl` multipliers per column below
//!    the diagonal. The pivot search, the multipliers and every update of
//!    a trailing column are contiguous runs of one stored column.
//! 4. **Checks.** A zero or non-finite pivot returns
//!    [`LinalgError::SingularMatrix`]. After factoring, one solve for a
//!    known answer must reach a normwise relative residual below
//!    [`crate::envelope::RESIDUAL_BOUND`] (shared), or the factor returns
//!    [`LinalgError::InaccurateFactor`].
//!
//! Work is `O(m·kl·(kl + ku))` and storage `O(m·(2·kl + ku))` for an
//! `m`-row block. Nothing runs on the pool, so every result is the same at
//! every pool width, and [`LinearBackend::solve_many`]'s default loop
//! equals `solve` bit for bit per column.

use crate::backend::{BackendKind, LinearBackend};
use crate::blocking::dot8;
use crate::error::{LinalgError, Result};
use crate::sparse::Csr;
use crate::split::{self, Split};
use crate::vector::DVec;
use meshfree_runtime::trace;

/// A factored sparse operator: the Dirichlet split, the RCM ordering and
/// the pivoted band LU of the remaining block. See the module docs.
#[derive(Debug, Clone)]
pub struct BandLu {
    split: Split,
    /// Lower bandwidth of the ordered block.
    kl: usize,
    /// Upper bandwidth of the ordered block; `U` reaches `kl + ku`.
    ku: usize,
    /// Column-major band storage, `2·kl + ku + 1` entries per column:
    /// entry `(i, j)` of the factors is `ab[j·ldab + kl + ku + i − j]`.
    ab: Vec<f64>,
    /// Step `j` swapped rows `j` and `piv[j]` (`piv[j] ≥ j`).
    piv: Vec<usize>,
}

impl BandLu {
    /// Splits, orders, factors and checks `a`. See the module docs for
    /// the errors.
    pub fn factor(a: &Csr) -> Result<BandLu> {
        let _span = trace::span("band_lu_factor");
        let split = Split::new(a, "band_lu")?;
        let pos = split.positions();
        let m = split.interior.len();
        let (mut kl, mut ku) = (0, 0);
        for (p, &i) in split.interior.iter().enumerate() {
            for &j in a.row(i).0 {
                let q = pos[j];
                if q != usize::MAX {
                    kl = kl.max(p.saturating_sub(q));
                    ku = ku.max(q.saturating_sub(p));
                }
            }
        }
        let kv = kl + ku;
        let ldab = kv + kl + 1;
        let mut ab = vec![0.0; ldab * m];
        for (p, &i) in split.interior.iter().enumerate() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let q = pos[j];
                if q != usize::MAX {
                    ab[q * ldab + kv + p - q] = v;
                }
            }
        }

        let mut piv = Vec::with_capacity(m);
        // Last column that step j's pivot row can reach.
        let mut ju = 0;
        for j in 0..m {
            let km = kl.min(m - 1 - j);
            let d = j * ldab + kv;
            let (mut off, mut big) = (0, ab[d].abs());
            for (r, v) in ab[d + 1..=d + km].iter().enumerate() {
                if v.abs() > big {
                    (off, big) = (r + 1, v.abs());
                }
            }
            let pivot = ab[d + off];
            if pivot == 0.0 || !pivot.is_finite() {
                return Err(LinalgError::SingularMatrix {
                    pivot: split.interior[j],
                    value: pivot,
                });
            }
            piv.push(j + off);
            ju = ju.max((j + ku + off).min(m - 1));
            if off != 0 {
                for c in j..=ju {
                    ab.swap(c * ldab + kv + j - c, c * ldab + kv + j + off - c);
                }
            }
            for l in &mut ab[d + 1..=d + km] {
                *l /= pivot;
            }
            // Rank-1 update of the trailing columns the pivot row reaches.
            let (head, tail) = ab.split_at_mut((j + 1) * ldab);
            let mult = &head[d + 1..=d + km];
            for c in j + 1..=ju {
                let col = &mut tail[(c - j - 1) * ldab..(c - j) * ldab];
                let r = kv + j - c;
                let t = col[r];
                if t != 0.0 {
                    for (x, &l) in col[r + 1..=r + km].iter_mut().zip(mult) {
                        *x -= t * l;
                    }
                }
            }
        }

        let lu = BandLu {
            split,
            kl,
            ku,
            ab,
            piv,
        };
        split::ensure_accurate(a, |b| lu.solve_untraced(b))?;
        Ok(lu)
    }

    fn ldab(&self) -> usize {
        2 * self.kl + self.ku + 1
    }

    fn solve_untraced(&self, b: &DVec) -> DVec {
        let (kl, kv, ldab) = (self.kl, self.kl + self.ku, self.ldab());
        self.split.solve(b, |z| {
            let m = z.len();
            // L z' = P z: interchange, then an axpy down column j of L.
            for (j, &p) in self.piv.iter().enumerate() {
                z.swap(j, p);
                let km = kl.min(m - 1 - j);
                let d = j * ldab + kv;
                let (head, tail) = z.split_at_mut(j + 1);
                let zj = head[j];
                for (zi, &l) in tail[..km].iter_mut().zip(&self.ab[d + 1..=d + km]) {
                    *zi -= l * zj;
                }
            }
            // U x = z', an axpy up each column once its entry is final.
            for j in (0..m).rev() {
                let d = j * ldab + kv;
                let lo = j.saturating_sub(kv);
                let (head, tail) = z.split_at_mut(j);
                tail[0] /= self.ab[d];
                let zj = tail[0];
                for (zi, &u) in head[lo..].iter_mut().zip(&self.ab[d - (j - lo)..d]) {
                    *zi -= u * zj;
                }
            }
        })
    }

    fn solve_transpose_untraced(&self, b: &DVec) -> DVec {
        let (kl, kv, ldab) = (self.kl, self.kl + self.ku, self.ldab());
        self.split.solve_transpose(b, |z| {
            let m = z.len();
            // Uᵀ z' = z: column j of U is row j of Uᵀ, one dot8 per row.
            for j in 0..m {
                let d = j * ldab + kv;
                let lo = j.saturating_sub(kv);
                let (head, tail) = z.split_at_mut(j);
                tail[0] = (tail[0] - dot8(&self.ab[d - (j - lo)..d], &head[lo..])) / self.ab[d];
            }
            // Lᵀ, last column first: one dot8 down column j of L, then
            // undo step j's interchange.
            for (j, &p) in self.piv.iter().enumerate().rev() {
                let km = kl.min(m - 1 - j);
                let d = j * ldab + kv;
                let (head, tail) = z.split_at_mut(j + 1);
                head[j] -= dot8(&self.ab[d + 1..=d + km], &tail[..km]);
                z.swap(j, p);
            }
        })
    }
}

impl LinearBackend for BandLu {
    fn dim(&self) -> usize {
        self.split.dim()
    }
    fn kind(&self) -> BackendKind {
        BackendKind::SparseGmres
    }
    fn solve(&self, b: &DVec) -> Result<DVec> {
        self.split.check_len(b, "band_lu_solve")?;
        let x = self.solve_untraced(b);
        trace::solve_event("linsolve", "band_lu", 0, f64::NAN, f64::NAN, f64::NAN);
        Ok(x)
    }
    fn solve_transpose(&self, b: &DVec) -> Result<DVec> {
        self.split.check_len(b, "band_lu_solve_t")?;
        let x = self.solve_transpose_untraced(b);
        trace::solve_event("linsolve", "band_lu_t", 0, f64::NAN, f64::NAN, f64::NAN);
        Ok(x)
    }
    fn memory_bytes(&self) -> usize {
        self.ab.len() * 8
            + self.piv.len() * std::mem::size_of::<usize>()
            + self.split.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::Lu;
    use crate::sparse::Triplets;
    use crate::EnvelopeLu;
    use meshfree_runtime::par::{with_pool, ThreadPool};
    use std::sync::Arc;

    /// An Oseen-like saddle system on a 1-D chain: convection-dominated
    /// tridiagonal blocks for u and v (a small diagonal beside unit
    /// off-diagonals, so an unpivoted factor meets multipliers far above
    /// 1 / PIVOT_TAU), a forward difference for the gradient and the
    /// divergence, a zero interior pressure block with one pinned pressure
    /// row (an identity row the split takes off).
    fn chain_saddle(n: usize) -> Csr {
        let mut t = Triplets::new(3 * n, 3 * n);
        for (off, diag) in [(0, 0.03), (n, 0.07)] {
            for i in 0..n {
                t.push(off + i, off + i, diag);
                if i > 0 {
                    t.push(off + i, off + i - 1, -1.0 - diag);
                }
                if i + 1 < n {
                    t.push(off + i, off + i + 1, 1.0);
                }
            }
        }
        // The forward difference in the gradient blocks (rows of u and v,
        // columns of p) and the divergence blocks (rows of p).
        for (r, c) in [(0, 2 * n), (n, 2 * n), (2 * n, 0), (2 * n, n)] {
            for i in 0..n - 1 {
                t.push(r + i, c + i, -1.0);
                t.push(r + i, c + i + 1, 1.0);
            }
        }
        t.push(3 * n - 1, 3 * n - 1, 1.0);
        t.to_csr()
    }

    fn rhs(n: usize) -> DVec {
        DVec::from_fn(n, |i| (0.37 * i as f64).sin() + 0.2)
    }

    fn rel(a: &DVec, b: &DVec) -> f64 {
        (a - b).norm_inf() / b.norm_inf()
    }

    #[test]
    fn solves_match_dense_lu_on_a_saddle_system_that_needs_interchanges() {
        let a = chain_saddle(24);
        assert!(
            matches!(
                EnvelopeLu::factor(&a),
                Err(LinalgError::UnstablePivot { .. })
            ),
            "the unpivoted factor must refuse this operator"
        );
        let band = BandLu::factor(&a).unwrap();
        assert!(band.piv.iter().enumerate().any(|(j, &p)| p != j));
        let lu = Lu::factor(&a.to_dense()).unwrap();
        let b = rhs(a.nrows());
        let x = band.solve(&b).unwrap();
        assert!(rel(&x, &lu.solve(&b).unwrap()) <= 1e-12);
        // The pinned pressure row is split off and carries its data.
        assert_eq!(x[a.nrows() - 1], b[a.nrows() - 1]);
    }

    #[test]
    fn the_transpose_solve_solves_the_transposed_system() {
        let a = chain_saddle(18);
        let band = BandLu::factor(&a).unwrap();
        let b = rhs(a.nrows());
        let xt = band.solve_transpose(&b).unwrap();
        let lu = Lu::factor(&a.to_dense()).unwrap();
        assert!(rel(&xt, &lu.solve_transpose(&b).unwrap()) <= 1e-12);
        let r = &a.matvec_t(&xt) - &b;
        assert!(r.norm_inf() <= 1e-12 * b.norm_inf());
    }

    #[test]
    fn solve_many_equals_solve_bitwise() {
        let a = chain_saddle(15);
        let band = BandLu::factor(&a).unwrap();
        let rhs: Vec<DVec> = (0..11)
            .map(|k| DVec::from_fn(a.nrows(), |i| (0.3 * i as f64 + 1.7 * k as f64).sin()))
            .collect();
        let many = band.solve_many(&rhs).unwrap();
        for (b, x) in rhs.iter().zip(&many) {
            assert_eq!(x.as_slice(), band.solve(b).unwrap().as_slice());
        }
    }

    #[test]
    fn results_are_bitwise_equal_at_pool_widths_one_and_two() {
        let run = || {
            let a = chain_saddle(20);
            let band = BandLu::factor(&a).unwrap();
            let b = rhs(a.nrows());
            (band.solve(&b).unwrap(), band.solve_transpose(&b).unwrap())
        };
        let (x1, xt1) = with_pool(&Arc::new(ThreadPool::new(1)), run);
        let (x2, xt2) = with_pool(&Arc::new(ThreadPool::new(2)), run);
        assert_eq!(x1.as_slice(), x2.as_slice());
        assert_eq!(xt1.as_slice(), xt2.as_slice());
    }

    #[test]
    fn a_singular_operator_is_refused() {
        // Column 1 is empty: elimination meets a zero pivot column.
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 0, 1.0);
        t.push(2, 2, 2.0);
        let err = BandLu::factor(&t.to_csr()).unwrap_err();
        assert!(
            matches!(err, LinalgError::SingularMatrix { value, .. } if value == 0.0),
            "{err:?}"
        );
        let err = BandLu::factor(&Triplets::new(2, 3).to_csr()).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn the_residual_check_flags_an_inaccurate_factor() {
        let a = chain_saddle(10);
        let mut band = BandLu::factor(&a).unwrap();
        let check = |band: &BandLu| split::check_residual(&a, |b| band.solve_untraced(b));
        assert!(check(&band) < 1e-14);
        // One wrong multiplier.
        let kv = band.kl + band.ku;
        band.ab[kv + 1] += 0.01;
        assert!(check(&band) > split::RESIDUAL_BOUND);
    }

    #[test]
    fn solves_emit_one_linsolve_event_each_and_the_factor_a_span() {
        use meshfree_runtime::trace::{MemorySink, TraceEvent};
        let a = chain_saddle(6);
        let (sink, events) = MemorySink::new();
        trace::set_sink(Box::new(sink));
        let band = BandLu::factor(&a).unwrap();
        let b = rhs(a.nrows());
        band.solve(&b).unwrap();
        band.solve_transpose(&b).unwrap();
        trace::clear_sink();
        let events = events.lock().unwrap();
        // Other tests may trace concurrently: assert presence only.
        for label in ["band_lu", "band_lu_t"] {
            assert!(
                events.iter().any(|e| matches!(e,
                    TraceEvent::Solve { layer: "linsolve", solver, .. } if *solver == label)),
                "no {label} event"
            );
        }
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::Span {
                    name: "band_lu_factor",
                    ..
                }
            )),
            "no band_lu_factor span"
        );
    }

    #[test]
    fn memory_is_the_band_not_the_square() {
        let n = 200;
        let a = chain_saddle(n);
        let band = BandLu::factor(&a).unwrap();
        assert!(band.kl + band.ku < n, "bandwidths {}, {}", band.kl, band.ku);
        assert!(band.memory_bytes() < (3 * n) * (3 * n) * 8 / 8);
        assert_eq!(band.dim(), 3 * n);
        assert_eq!(band.kind(), BackendKind::SparseGmres);
    }
}
