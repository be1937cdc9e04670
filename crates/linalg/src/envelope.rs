//! Envelope (skyline) LU for sparse operators that are factored once.
//!
//! [`EnvelopeLu`] is the direct solver behind the sparse RBF-FD Laplace
//! system: a control-independent operator that one run solves thousands of
//! times. It is prepared in four steps.
//!
//! 1. **Dirichlet split** (shared with [`crate::BandLu`]). Identity rows
//!    are split off and only the remaining block `A_II` is factored. On
//!    the full matrix the unit rows sit beside Laplacian rows of magnitude
//!    `~1/h²`, and an unpivoted factor of it is not stable; on `A_II` the
//!    diagonal dominates its column.
//! 2. **Ordering** (shared). Reverse Cuthill–McKee on the pattern of
//!    `A_II + A_IIᵀ`. On the row-by-row interior numbering of the
//!    unit-square grid the envelope is ~30 % smaller than the natural
//!    order's.
//! 3. **Factor.** LU in Crout order (step `j` forms row `j` of `L`, then
//!    column `j` of `U`) without row interchanges, `A_II = L U` with unit
//!    lower `L`, in envelope form: `L` by rows, `U` by columns,
//!    each row of `L` from its first stored column to the diagonal and
//!    each column of `U` from its first stored row to the diagonal. An
//!    unpivoted LU fills in only inside this envelope, so the storage is
//!    fixed before any arithmetic. Every update is one [`dot8`] of two
//!    contiguous runs.
//! 4. **Checks.** Each multiplier is checked as it is formed: the pivot
//!    must be at least [`PIVOT_TAU`] times every entry below it in its
//!    column, or the factor returns [`LinalgError::UnstablePivot`]. After
//!    factoring, one solve for a known answer must reach a normwise
//!    relative residual below [`RESIDUAL_BOUND`] (shared), or the factor
//!    returns [`LinalgError::InaccurateFactor`]. A factor that would need
//!    row interchanges is refused, never returned inaccurate; operators
//!    that need them go to [`crate::BandLu`].
//!
//! The solves read only contiguous runs: the `L` sweep of `solve` and the
//! `Uᵀ` sweep of `solve_transpose` are one [`dot8`] per row, the other
//! sweep an axpy down one stored column or row. Nothing runs on the pool,
//! so every result is the same at every pool width, and
//! [`LinearBackend::solve_many`]'s default loop equals `solve` bit for bit
//! per column.

use crate::backend::{BackendKind, LinearBackend};
use crate::blocking::dot8;
use crate::error::{LinalgError, Result};
use crate::sparse::Csr;
use crate::split::{self, Split};
use crate::vector::DVec;
use meshfree_runtime::trace;

pub use crate::split::RESIDUAL_BOUND;

/// Threshold of the pivot check: a pivot must be at least `PIVOT_TAU`
/// times the magnitude of every entry below it in its column, i.e. no
/// multiplier of `L` may exceed `1 / PIVOT_TAU = 10` in magnitude. 0.1 is
/// the customary threshold-pivoting value; on the RBF-FD Laplace block
/// the diagonal is the column maximum at every step (ratio 1.0), so the
/// check only fires on operators that need row interchanges.
pub const PIVOT_TAU: f64 = 0.1;

/// A factored sparse operator: the Dirichlet split, the RCM ordering and
/// the envelope LU of the remaining block. See the module docs.
#[derive(Debug, Clone)]
pub struct EnvelopeLu {
    split: Split,
    /// Row `i` of `L` is `l_val[l_ptr[i]..l_ptr[i + 1]]`, the strictly
    /// lower part from its first stored column up to column `i − 1`.
    l_ptr: Vec<usize>,
    l_val: Vec<f64>,
    /// Column `j` of `U` is `u_val[u_ptr[j]..u_ptr[j + 1]]`, from its first
    /// stored row down to the diagonal, which is its last entry.
    u_ptr: Vec<usize>,
    u_val: Vec<f64>,
}

impl EnvelopeLu {
    /// Splits, orders, factors and checks `a`. See the module docs for
    /// the errors.
    pub fn factor(a: &Csr) -> Result<EnvelopeLu> {
        let _span = trace::span("envelope_lu_factor");
        let split = Split::new(a, "envelope_lu")?;
        let interior = &split.interior;
        let pos = split.positions();
        let m = interior.len();

        // Envelope extents, then the scattered values.
        let mut l_first: Vec<usize> = (0..m).collect();
        let mut u_first: Vec<usize> = (0..m).collect();
        for (p, &i) in interior.iter().enumerate() {
            for &j in a.row(i).0 {
                let q = pos[j];
                if q == usize::MAX {
                    continue;
                }
                if q < p {
                    l_first[p] = l_first[p].min(q);
                } else {
                    u_first[q] = u_first[q].min(p);
                }
            }
        }
        let l_ptr = offsets((0..m).map(|i| i - l_first[i]));
        let u_ptr = offsets((0..m).map(|j| j + 1 - u_first[j]));
        let mut l_val = vec![0.0; l_ptr[m]];
        let mut u_val = vec![0.0; u_ptr[m]];
        for (p, &i) in interior.iter().enumerate() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let q = pos[j];
                if q == usize::MAX {
                    continue;
                }
                if q < p {
                    l_val[l_ptr[p] + q - l_first[p]] = v;
                } else {
                    u_val[u_ptr[q] + p - u_first[q]] = v;
                }
            }
        }

        // Left-looking Crout sweep: step j forms row j of L, then column
        // j of U. Entry (i, k) is A(i, k) less one dot of row i of L and
        // column k of U over their common range, both contiguous.
        for j in 0..m {
            let (lj, lf) = (l_ptr[j], l_first[j]);
            for k in lf..j {
                let (uk, uf) = (u_ptr[k], u_first[k]);
                let lo = lf.max(uf);
                let s = l_val[lj + k - lf]
                    - dot8(
                        &l_val[lj + lo - lf..lj + k - lf],
                        &u_val[uk + lo - uf..uk + k - uf],
                    );
                let pivot = u_val[u_ptr[k + 1] - 1];
                // False for a NaN too.
                let stable = s.abs() * PIVOT_TAU <= pivot.abs();
                if !stable {
                    return Err(LinalgError::UnstablePivot {
                        pivot: interior[k],
                        ratio: pivot.abs() / s.abs(),
                    });
                }
                l_val[lj + k - lf] = if s == 0.0 { 0.0 } else { s / pivot };
            }
            let (uj, uf) = (u_ptr[j], u_first[j]);
            for i in uf..=j {
                let (li, lf) = (l_ptr[i], l_first[i]);
                let lo = lf.max(uf);
                u_val[uj + i - uf] -= dot8(
                    &l_val[li + lo - lf..li + i - lf],
                    &u_val[uj + lo - uf..uj + i - uf],
                );
            }
        }
        for j in 0..m {
            let d = u_val[u_ptr[j + 1] - 1];
            if d == 0.0 || !d.is_finite() {
                return Err(LinalgError::SingularMatrix {
                    pivot: interior[j],
                    value: d,
                });
            }
        }

        let lu = EnvelopeLu {
            split,
            l_ptr,
            l_val,
            u_ptr,
            u_val,
        };
        split::ensure_accurate(a, |b| lu.solve_untraced(b))?;
        Ok(lu)
    }

    /// Number of identity rows split off before factoring.
    pub fn dirichlet_rows(&self) -> usize {
        self.split.dim() - self.split.interior.len()
    }

    fn solve_untraced(&self, b: &DVec) -> DVec {
        self.split.solve(b, |z| {
            // L z' = z, one dot8 per row.
            for i in 1..z.len() {
                let row = &self.l_val[self.l_ptr[i]..self.l_ptr[i + 1]];
                let (head, tail) = z.split_at_mut(i);
                tail[0] -= dot8(row, &head[i - row.len()..]);
            }
            // U x = z', an axpy up each column once its entry is final.
            for j in (0..z.len()).rev() {
                let col = &self.u_val[self.u_ptr[j]..self.u_ptr[j + 1]];
                let (&d, above) = col.split_last().expect("a U column holds its diagonal");
                let (head, tail) = z.split_at_mut(j);
                tail[0] /= d;
                let zj = tail[0];
                for (zi, &u) in head[j - above.len()..].iter_mut().zip(above) {
                    *zi -= u * zj;
                }
            }
        })
    }

    fn solve_transpose_untraced(&self, b: &DVec) -> DVec {
        self.split.solve_transpose(b, |z| {
            // Uᵀ z' = b_I: column i of U is row i of Uᵀ, one dot8 per row.
            for i in 0..z.len() {
                let col = &self.u_val[self.u_ptr[i]..self.u_ptr[i + 1]];
                let (&d, above) = col.split_last().expect("a U column holds its diagonal");
                let (head, tail) = z.split_at_mut(i);
                tail[0] = (tail[0] - dot8(above, &head[i - above.len()..])) / d;
            }
            // Lᵀ x_I = z': row i of L is column i of Lᵀ, an axpy once z[i]
            // is final.
            for i in (1..z.len()).rev() {
                let row = &self.l_val[self.l_ptr[i]..self.l_ptr[i + 1]];
                let (head, tail) = z.split_at_mut(i);
                let zi = tail[0];
                for (zk, &l) in head[i - row.len()..].iter_mut().zip(row) {
                    *zk -= l * zi;
                }
            }
        })
    }
}

impl LinearBackend for EnvelopeLu {
    fn dim(&self) -> usize {
        self.split.dim()
    }
    fn kind(&self) -> BackendKind {
        BackendKind::SparseGmres
    }
    fn solve(&self, b: &DVec) -> Result<DVec> {
        self.split.check_len(b, "envelope_lu_solve")?;
        let x = self.solve_untraced(b);
        trace::solve_event("linsolve", "envelope_lu", 0, f64::NAN, f64::NAN, f64::NAN);
        Ok(x)
    }
    fn solve_transpose(&self, b: &DVec) -> Result<DVec> {
        self.split.check_len(b, "envelope_lu_solve_t")?;
        let x = self.solve_transpose_untraced(b);
        trace::solve_event("linsolve", "envelope_lu_t", 0, f64::NAN, f64::NAN, f64::NAN);
        Ok(x)
    }
    fn memory_bytes(&self) -> usize {
        (self.l_val.len() + self.u_val.len()) * 8
            + (self.l_ptr.len() + self.u_ptr.len()) * std::mem::size_of::<usize>()
            + self.split.memory_bytes()
    }
}

/// Start offsets of consecutive runs of the given lengths, plus the total.
fn offsets(lens: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut ptr = vec![0];
    for len in lens {
        ptr.push(ptr[ptr.len() - 1] + len);
    }
    ptr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::Lu;
    use crate::sparse::Triplets;
    use crate::split::reverse_cuthill_mckee;
    use meshfree_runtime::par;

    /// A 9-point Laplacian with a first-order advection skew on an
    /// `nx × nx` grid, identity rows on the boundary, numbered boundary
    /// last (the node order of the RBF-FD Laplace build).
    fn grid_operator(nx: usize) -> Csr {
        let h = 1.0 / (nx - 1) as f64;
        let on_edge = |x: usize, y: usize| x == 0 || y == 0 || x == nx - 1 || y == nx - 1;
        let mut index = vec![0; nx * nx];
        let mut next = 0;
        for pass in [false, true] {
            for y in 0..nx {
                for x in 0..nx {
                    if on_edge(x, y) == pass {
                        index[y * nx + x] = next;
                        next += 1;
                    }
                }
            }
        }
        let mut t = Triplets::new(nx * nx, nx * nx);
        for y in 0..nx {
            for x in 0..nx {
                let i = index[y * nx + x];
                if on_edge(x, y) {
                    t.push(i, i, 1.0);
                    continue;
                }
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let j = index[(y as i64 + dy) as usize * nx + (x as i64 + dx) as usize];
                        let w = match (dx.abs(), dy.abs()) {
                            (0, 0) => -20.0 / 6.0,
                            (1, 1) => 1.0 / 6.0,
                            _ => 4.0 / 6.0 + 0.05 * (dx + 2 * dy) as f64,
                        };
                        t.push(i, j, w / (h * h));
                    }
                }
            }
        }
        t.to_csr()
    }

    fn rhs(n: usize) -> DVec {
        DVec::from_fn(n, |i| (0.37 * i as f64).sin() + 0.2)
    }

    fn rel(a: &DVec, b: &DVec) -> f64 {
        (a - b).norm_inf() / b.norm_inf()
    }

    #[test]
    fn solves_match_dense_lu_and_split_the_identity_rows() {
        for nx in [5, 12, 20] {
            let a = grid_operator(nx);
            let env = EnvelopeLu::factor(&a).unwrap();
            assert_eq!(env.dirichlet_rows(), 4 * (nx - 1));
            let lu = Lu::factor(&a.to_dense()).unwrap();
            let b = rhs(a.nrows());
            let x = env.solve(&b).unwrap();
            let xt = env.solve_transpose(&b).unwrap();
            assert!(rel(&x, &lu.solve(&b).unwrap()) <= 1e-12, "nx {nx}: solve");
            assert!(
                rel(&xt, &lu.solve_transpose(&b).unwrap()) <= 1e-12,
                "nx {nx}: solve_transpose"
            );
            // Identity rows carry their right-hand side through.
            assert_eq!(x[a.nrows() - 1], b[a.nrows() - 1]);
        }
    }

    #[test]
    fn solve_many_equals_solve_bitwise() {
        let a = grid_operator(14);
        let env = EnvelopeLu::factor(&a).unwrap();
        let rhs: Vec<DVec> = (0..11)
            .map(|k| DVec::from_fn(a.nrows(), |i| (0.3 * i as f64 + 1.7 * k as f64).sin()))
            .collect();
        let many = env.solve_many(&rhs).unwrap();
        for (b, x) in rhs.iter().zip(&many) {
            assert_eq!(x.as_slice(), env.solve(b).unwrap().as_slice());
        }
    }

    #[test]
    fn results_are_bitwise_equal_across_pool_widths() {
        let run = || {
            let a = grid_operator(16);
            let env = EnvelopeLu::factor(&a).unwrap();
            let b = rhs(a.nrows());
            (env.solve(&b).unwrap(), env.solve_transpose(&b).unwrap())
        };
        let (x_wide, xt_wide) = run();
        let (x_one, xt_one) = par::serial_scope(run);
        assert_eq!(x_wide.as_slice(), x_one.as_slice());
        assert_eq!(xt_wide.as_slice(), xt_one.as_slice());
    }

    #[test]
    fn rcm_returns_a_permutation_and_narrows_the_profile() {
        let a = grid_operator(12);
        let n = a.nrows();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for &j in a.row(i).0 {
                if i != j {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for nb in &mut adj {
            nb.sort_unstable();
            nb.dedup();
        }
        let order = reverse_cuthill_mckee(&adj);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        // Isolated nodes and several components are numbered too.
        let order = reverse_cuthill_mckee(&[vec![2], vec![], vec![0], vec![]]);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // Scramble the numbering (i → 37·i mod n): unordered, the 10 × 10
        // interior block's envelope would fill most of the square; RCM
        // brings it back to a band.
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                t.push(37 * i % n, 37 * j % n, v);
            }
        }
        let scrambled = t.to_csr();
        let env = EnvelopeLu::factor(&scrambled).unwrap();
        let m = 10 * 10;
        assert!(env.memory_bytes() < m * m * 8 / 2, "{}", env.memory_bytes());
        let b = rhs(n);
        let lu = Lu::factor(&scrambled.to_dense()).unwrap();
        assert!(rel(&env.solve(&b).unwrap(), &lu.solve(&b).unwrap()) <= 1e-12);
    }

    #[test]
    fn a_matrix_that_needs_interchanges_is_refused() {
        // A cyclic permutation: zero diagonal, so an unpivoted factor
        // would divide by zero.
        let mut t = Triplets::new(3, 3);
        t.push(0, 2, 1.0);
        t.push(1, 0, 1.0);
        t.push(2, 1, 1.0);
        let err = EnvelopeLu::factor(&t.to_csr()).unwrap_err();
        assert!(
            matches!(err, LinalgError::UnstablePivot { ratio, .. } if ratio == 0.0),
            "{err:?}"
        );
        // Small but nonzero pivots with large entries below them, in
        // either symmetric ordering.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1e-3);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1e-3);
        let err = EnvelopeLu::factor(&t.to_csr()).unwrap_err();
        assert!(
            matches!(err, LinalgError::UnstablePivot { ratio, .. } if ratio == 1e-3),
            "{err:?}"
        );
    }

    #[test]
    fn the_residual_check_flags_an_inaccurate_factor() {
        let a = grid_operator(8);
        let mut env = EnvelopeLu::factor(&a).unwrap();
        let check = |env: &EnvelopeLu| split::check_residual(&a, |b| env.solve_untraced(b));
        assert!(check(&env) < 1e-14);
        // One wrong multiplier, well inside the pivot check's bound.
        env.l_val[0] += 0.01;
        assert!(check(&env) > RESIDUAL_BOUND);
    }

    #[test]
    fn a_singular_block_is_refused() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 0, 1.0);
        t.push(2, 2, 1.0);
        let err = EnvelopeLu::factor(&t.to_csr()).unwrap_err();
        assert!(
            matches!(err, LinalgError::SingularMatrix { pivot: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn solves_emit_one_linsolve_event_each() {
        use meshfree_runtime::trace::{MemorySink, TraceEvent};
        let a = grid_operator(6);
        let env = EnvelopeLu::factor(&a).unwrap();
        let b = rhs(a.nrows());
        let (sink, events) = MemorySink::new();
        trace::set_sink(Box::new(sink));
        env.solve(&b).unwrap();
        env.solve_transpose(&b).unwrap();
        trace::clear_sink();
        let events = events.lock().unwrap();
        // Other tests may trace concurrently: assert presence only.
        for label in ["envelope_lu", "envelope_lu_t"] {
            assert!(
                events.iter().any(|e| matches!(e,
                    TraceEvent::Solve { layer: "linsolve", solver, .. } if *solver == label)),
                "no {label} event"
            );
        }
    }

    #[test]
    fn memory_is_the_envelope_not_the_square() {
        let a = grid_operator(20);
        let env = EnvelopeLu::factor(&a).unwrap();
        let n = a.nrows();
        assert!(env.memory_bytes() < n * n * 8 / 8);
        assert_eq!(env.dim(), n);
        assert_eq!(env.kind(), BackendKind::SparseGmres);
    }
}
