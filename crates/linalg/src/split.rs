//! The steps the sparse direct factors ([`crate::EnvelopeLu`],
//! [`crate::BandLu`]) share around their elimination.
//!
//! 1. **Dirichlet split.** Rows that are exactly the identity (one stored
//!    entry, `1.0` on the diagonal) are split off, and only the remaining
//!    block `A_II` is factored. With `A = [A_II A_IB; 0 I]`,
//!    `A x = b` is `x_B = b_B`, `x_I = A_II⁻¹ (b_I − A_IB b_B)` and
//!    `Aᵀ x = b` is `x_I = A_II⁻ᵀ b_I`, `x_B = b_B − A_IBᵀ x_I`.
//! 2. **Ordering.** Reverse Cuthill–McKee on the pattern of
//!    `A_II + A_IIᵀ`, started from a George–Liu pseudo-peripheral node of
//!    each connected component. The profile and the bandwidth then depend
//!    on the operator's graph, not on how its nodes happen to be numbered.
//! 3. **Residual check.** After factoring, one solve for a known answer
//!    must reach a normwise relative residual below [`RESIDUAL_BOUND`], or
//!    the factor is refused with [`LinalgError::InaccurateFactor`].

use crate::error::{LinalgError, Result};
use crate::sparse::Csr;
use crate::vector::DVec;

/// Bound on the normwise relative residual
/// `‖b − A x̂‖∞ / (‖A‖∞ ‖x̂‖∞ + ‖b‖∞)` of the factor-time check solve. A
/// stable factor reads ~1e-16; an inaccurate one reads many orders above
/// this bound.
pub const RESIDUAL_BOUND: f64 = 1e-10;

/// The Dirichlet split and RCM ordering of a square sparse operator: which
/// rows are factored, in which order, and the `A_IB` coupling of the
/// factored rows to the split-off identity rows.
#[derive(Debug, Clone)]
pub(crate) struct Split {
    /// Full dimension `n`.
    n: usize,
    /// `interior[p]` is the original index of the row and column at
    /// position `p` of the factored block (RCM order).
    pub(crate) interior: Vec<usize>,
    /// `A_IB` by factored row: offsets into `ib_col`/`ib_val`.
    ib_ptr: Vec<usize>,
    /// `A_IB` column indices (original indices of identity rows).
    ib_col: Vec<usize>,
    /// `A_IB` values.
    ib_val: Vec<f64>,
}

impl Split {
    /// Splits off the identity rows of `a` and orders the rest; `op` names
    /// the factor in a shape error.
    pub(crate) fn new(a: &Csr, op: &'static str) -> Result<Split> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(LinalgError::ShapeMismatch {
                op,
                got: (n, a.ncols()),
                expected: (n, n),
            });
        }
        let is_unit_row = |i: usize| a.row(i) == (&[i][..], &[1.0][..]);
        let old_interior: Vec<usize> = (0..n).filter(|&i| !is_unit_row(i)).collect();
        let mut local = vec![usize::MAX; n];
        for (k, &i) in old_interior.iter().enumerate() {
            local[i] = k;
        }

        // RCM on the pattern of A_II + A_IIᵀ.
        let m = old_interior.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (k, &i) in old_interior.iter().enumerate() {
            for &j in a.row(i).0 {
                let q = local[j];
                if q != usize::MAX && q != k {
                    adj[k].push(q);
                    adj[q].push(k);
                }
            }
        }
        for nb in &mut adj {
            nb.sort_unstable();
            nb.dedup();
        }
        let interior: Vec<usize> = reverse_cuthill_mckee(&adj)
            .into_iter()
            .map(|k| old_interior[k])
            .collect();

        let mut split = Split {
            n,
            interior,
            ib_ptr: Vec::with_capacity(m + 1),
            ib_col: Vec::new(),
            ib_val: Vec::new(),
        };
        let pos = split.positions();
        split.ib_ptr.push(0);
        for &i in &split.interior {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if pos[j] == usize::MAX {
                    split.ib_col.push(j);
                    split.ib_val.push(v);
                }
            }
            split.ib_ptr.push(split.ib_col.len());
        }
        Ok(split)
    }

    /// Full dimension `n`.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// `pos[i]` is the factored position of original index `i`, or
    /// `usize::MAX` for a split-off identity row.
    pub(crate) fn positions(&self) -> Vec<usize> {
        let mut pos = vec![usize::MAX; self.n];
        for (p, &i) in self.interior.iter().enumerate() {
            pos[i] = p;
        }
        pos
    }

    /// Errors unless `b` has length `n`.
    pub(crate) fn check_len(&self, b: &DVec, op: &'static str) -> Result<()> {
        if b.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                op,
                got: (b.len(), 1),
                expected: (self.n, 1),
            });
        }
        Ok(())
    }

    /// Solves `A x = b`, given `solve_ii`, which overwrites a right-hand
    /// side of the factored block (in factored order) with its solution.
    pub(crate) fn solve(&self, b: &DVec, solve_ii: impl FnOnce(&mut [f64])) -> DVec {
        // z = b_I − A_IB b_B, in factored order.
        let mut z: Vec<f64> = self
            .interior
            .iter()
            .enumerate()
            .map(|(p, &i)| {
                let mut s = b[i];
                for k in self.ib_ptr[p]..self.ib_ptr[p + 1] {
                    s -= self.ib_val[k] * b[self.ib_col[k]];
                }
                s
            })
            .collect();
        solve_ii(&mut z);
        let mut x = b.clone();
        for (&i, &zi) in self.interior.iter().zip(&z) {
            x[i] = zi;
        }
        x
    }

    /// Solves `Aᵀ x = b`, given `solve_ii_t`, which overwrites a
    /// right-hand side of the transposed factored block with its solution.
    pub(crate) fn solve_transpose(&self, b: &DVec, solve_ii_t: impl FnOnce(&mut [f64])) -> DVec {
        let mut z: Vec<f64> = self.interior.iter().map(|&i| b[i]).collect();
        solve_ii_t(&mut z);
        // x_B = b_B − A_IBᵀ x_I.
        let mut x = b.clone();
        for (p, (&i, &zi)) in self.interior.iter().zip(&z).enumerate() {
            x[i] = zi;
            for k in self.ib_ptr[p]..self.ib_ptr[p + 1] {
                x[self.ib_col[k]] -= self.ib_val[k] * zi;
            }
        }
        x
    }

    /// Bytes held by the ordering and the `A_IB` block.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.ib_val.len() * 8
            + (self.interior.len() + self.ib_ptr.len() + self.ib_col.len())
                * std::mem::size_of::<usize>()
    }
}

/// Normwise relative residual of one `solve` for a known answer of `a`.
pub(crate) fn check_residual(a: &Csr, solve: impl FnOnce(&DVec) -> DVec) -> f64 {
    let x_true = DVec::from_fn(a.nrows(), |i| 1.0 + (i % 7) as f64 / 7.0);
    let b = a.matvec(&x_true);
    let x = solve(&b);
    let r = &b - &a.matvec(&x);
    let a_norm = (0..a.nrows())
        .map(|i| a.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    r.norm_inf() / (a_norm * x.norm_inf() + b.norm_inf())
}

/// Refuses a factor whose [`check_residual`] misses [`RESIDUAL_BOUND`].
pub(crate) fn ensure_accurate(a: &Csr, solve: impl FnOnce(&DVec) -> DVec) -> Result<()> {
    let residual = check_residual(a, solve);
    let accurate = residual <= RESIDUAL_BOUND; // false for a NaN too
    if !accurate {
        return Err(LinalgError::InaccurateFactor {
            residual,
            bound: RESIDUAL_BOUND,
        });
    }
    Ok(())
}

/// Reverse Cuthill–McKee ordering of a symmetric adjacency structure
/// (`adj[i]` sorted, without `i` itself): `order[p]` is the node placed at
/// position `p`. Each connected component is numbered from a
/// pseudo-peripheral node of lowest degree, neighbours in order of
/// increasing degree (ties by index), and the whole sequence reversed.
pub(crate) fn reverse_cuthill_mckee(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let degree = |v: usize| adj[v].len();
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let seed = (0..n)
            .filter(|&v| !placed[v])
            .min_by_key(|&v| (degree(v), v))
            .expect("an unplaced node remains");
        let start = pseudo_peripheral(adj, seed);
        let head0 = order.len();
        order.push(start);
        placed[start] = true;
        let mut head = head0;
        let mut next: Vec<usize> = Vec::new();
        while head < order.len() {
            let v = order[head];
            head += 1;
            next.clear();
            next.extend(adj[v].iter().copied().filter(|&w| !placed[w]));
            next.sort_unstable_by_key(|&w| (degree(w), w));
            for &w in &next {
                placed[w] = true;
                order.push(w);
            }
        }
    }
    order.reverse();
    order
}

/// George–Liu pseudo-peripheral node of `seed`'s component: repeatedly
/// move to the lowest-degree node of the deepest BFS level while the
/// eccentricity grows.
fn pseudo_peripheral(adj: &[Vec<usize>], seed: usize) -> usize {
    let mut root = seed;
    let (mut depth, mut last) = bfs_last_level(adj, root);
    loop {
        let cand = *last
            .iter()
            .min_by_key(|&&v| (adj[v].len(), v))
            .expect("the last BFS level is not empty");
        let (d, l) = bfs_last_level(adj, cand);
        if d <= depth {
            return root;
        }
        root = cand;
        depth = d;
        last = l;
    }
}

/// Depth of the BFS level structure rooted at `root` and its last level.
fn bfs_last_level(adj: &[Vec<usize>], root: usize) -> (usize, Vec<usize>) {
    let mut seen = vec![false; adj.len()];
    seen[root] = true;
    let mut level = vec![root];
    let mut depth = 0;
    loop {
        let mut next = Vec::new();
        for &v in &level {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            return (depth, level);
        }
        level = next;
        depth += 1;
    }
}
