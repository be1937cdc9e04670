//! Dense factorizations: LU with partial pivoting, Cholesky, Householder QR.

use crate::blocking::{
    dot8, dot8_cols, fused_axpy4, LU_TILE, MULAD_UNROLL, MULTI_RHS_BLOCK, PAR_BLOCKS,
};
use crate::dense::DMat;
use crate::error::{LinalgError, Result};
use crate::sparse::Csr;
use crate::vector::DVec;

/// LU factorization with partial (row) pivoting: `P A = L U`.
///
/// `Lu` is the backbone of the whole workspace: RBF collocation systems are
/// solved with it, and the differentiable-programming path in
/// `meshfree-autodiff` caches an `Lu` during the forward pass so the reverse
/// pass can run the adjoint solve `Aᵀ λ = x̄` via [`Lu::solve_transpose`]
/// without refactorizing.
///
/// Factor once, solve many: the collocation matrix of the Laplace control
/// problem is control-independent, so the optimal-control drivers factor it a
/// single time per run and reuse the factors across every optimizer
/// iteration (forward solves) and every adjoint solve (transpose solves).
/// State-dependent systems (Navier–Stokes Picard sweeps) instead reuse the
/// *storage* via [`Lu::refactor_csr`].
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper incl. diagonal).
    lu: DMat,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (±1), for determinants.
    sign: f64,
}

impl Lu {
    /// Factors a square matrix. Returns [`LinalgError::SingularMatrix`] if a
    /// pivot is smaller than `1e-300` in magnitude.
    pub fn factor(a: &DMat) -> Result<Lu> {
        Lu::factor_owned(a.clone())
    }

    /// [`Lu::factor`] of a sparse matrix's dense image, scattered straight
    /// into the factor storage (no intermediate dense copy).
    pub fn factor_csr(a: &Csr) -> Result<Lu> {
        Lu::factor_owned(a.to_dense())
    }

    /// Factors `lu` in place; the shared body of the constructors.
    fn factor_owned(mut lu: DMat) -> Result<Lu> {
        let n = lu.nrows();
        if lu.ncols() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu",
                got: lu.shape(),
                expected: (n, n),
            });
        }
        // Span only the system-sized factorizations; RBF-FD factors
        // thousands of tiny per-stencil matrices that would flood a trace.
        let _span = (n >= 64).then(|| meshfree_runtime::trace::span("lu_factor"));
        let mut perm: Vec<usize> = (0..n).collect();
        let sign = factor_in_place(&mut lu, &mut perm)?;
        Ok(Lu { lu, perm, sign })
    }

    /// Refactors a new matrix of the same dimension **in place**, reusing the
    /// packed storage and permutation buffer of this factorization.
    ///
    /// The coupled Navier–Stokes matrix changes every sweep (it depends on
    /// the current state), so its factor cannot be cached — but the `(3N)²`
    /// storage can ([`Lu::refactor_csr`]). Produces bit-identical factors
    /// to a fresh [`Lu::factor`] of the same matrix.
    pub fn refactor(&mut self, a: &DMat) -> Result<()> {
        self.refactor_from(a.shape(), |lu| {
            lu.as_mut_slice().copy_from_slice(a.as_slice())
        })
    }

    /// [`Lu::refactor`] of a sparse matrix's dense image, scattered
    /// straight into this factorization's storage.
    pub fn refactor_csr(&mut self, a: &Csr) -> Result<()> {
        self.refactor_from((a.nrows(), a.ncols()), |lu| a.to_dense_into(lu))
    }

    /// Checks the shape, lets `load` overwrite the storage with the new
    /// matrix, then factors it in place.
    fn refactor_from(&mut self, shape: (usize, usize), load: impl FnOnce(&mut DMat)) -> Result<()> {
        let n = self.dim();
        if shape != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_refactor",
                got: shape,
                expected: (n, n),
            });
        }
        let _span = (n >= 64).then(|| meshfree_runtime::trace::span("lu_refactor"));
        load(&mut self.lu);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.sign = factor_in_place(&mut self.lu, &mut self.perm)?;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &DVec) -> Result<DVec> {
        let mut x = DVec::zeros(0);
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b`, writing the solution into a caller-owned buffer.
    ///
    /// `x` is resized to the system dimension; its previous contents are
    /// overwritten. Use this inside iteration loops (Picard sweeps, per-column
    /// multi-RHS solves) to avoid a fresh allocation per solve. Produces the
    /// same bits as [`Lu::solve`].
    ///
    /// Each row of the forward (L) and back (U) sweeps is one [`dot8`] over
    /// the row prefix or suffix: eight independent multiply-add lanes
    /// instead of one dependent chain, with the rounding a function of the
    /// row length alone.
    pub fn solve_into(&self, b: &DVec, x: &mut DVec) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                got: (b.len(), 1),
                expected: (n, 1),
            });
        }
        // Apply permutation, then forward (L, unit diag) and back (U) subs.
        x.0.clear();
        x.0.extend(self.perm.iter().map(|&p| b[p]));
        let x = x.as_mut_slice();
        for i in 1..n {
            let (head, tail) = x.split_at_mut(i);
            tail[0] -= dot8(&self.lu.row(i)[..i], head);
        }
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let (head, tail) = x.split_at_mut(i + 1);
            head[i] = (head[i] - dot8(&row[i + 1..], tail)) / row[i];
        }
        Ok(())
    }

    /// Solves `Aᵀ x = b` using the same factors (`Aᵀ = Uᵀ Lᵀ P`).
    ///
    /// This is the adjoint path: DAL's adjoint equation and the
    /// differentiable-programming reverse pass both solve with the transpose
    /// of the already-factored forward operator, so a run never pays for a
    /// second factorization.
    ///
    /// Both sweeps are row-oriented, so the factor is read row by row and
    /// never down a column: `Uᵀ` is a forward sweep that, once `y[j]` is
    /// final, subtracts `y[j]` times row `j` of `U` from the entries after
    /// it (the same operation order as a column-wise dot), and `Lᵀ` is the
    /// backward twin over row `j` of `L`.
    pub fn solve_transpose(&self, b: &DVec) -> Result<DVec> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_t",
                got: (b.len(), 1),
                expected: (n, 1),
            });
        }
        let mut y = b.clone();
        let ys = y.as_mut_slice();
        // Forward substitution with Uᵀ (lower triangular, non-unit diag):
        // column j of Uᵀ is row j of U.
        for j in 0..n {
            let row = self.lu.row(j);
            let yj = ys[j] / row[j];
            ys[j] = yj;
            for (yi, &u) in ys[j + 1..].iter_mut().zip(&row[j + 1..]) {
                *yi -= u * yj;
            }
        }
        // Back substitution with Lᵀ (upper triangular, unit diag): column j
        // of Lᵀ is the strictly-lower part of row j of L.
        for j in (1..n).rev() {
            let yj = ys[j];
            for (yi, &l) in ys[..j].iter_mut().zip(&self.lu.row(j)[..j]) {
                *yi -= l * yj;
            }
        }
        // Undo the permutation: x[perm[i]] = y[i].
        let mut x = DVec::zeros(n);
        for (&p, &yi) in self.perm.iter().zip(ys.iter()) {
            x[p] = yi;
        }
        Ok(x)
    }

    /// Solves `A xₖ = bₖ` for a batch of right-hand sides with blocked
    /// forward/back substitution: the factors stream through cache once
    /// per block of [`Lu::MULTI_RHS_BLOCK`] columns instead of once per
    /// column, which is where the serve batcher's coalesced same-operator
    /// requests win their throughput. A block of one column goes straight
    /// to [`Lu::solve`], so a lone right-hand side costs what a plain solve
    /// costs.
    ///
    /// Bitwise contract: every column's floating-point operation sequence
    /// is identical to a standalone [`Lu::solve`] of that column. Each
    /// row runs [`dot8_cols`], which is `dot8`'s lane structure evaluated
    /// for every column of the block at once (columns are data-independent;
    /// blocking only interleaves *between* columns), so batched and
    /// one-at-a-time answers match exactly.
    pub fn solve_many(&self, rhs: &[DVec]) -> Result<Vec<DVec>> {
        let n = self.dim();
        for b in rhs {
            if b.len() != n {
                return Err(LinalgError::ShapeMismatch {
                    op: "lu_solve_many",
                    got: (b.len(), 1),
                    expected: (n, 1),
                });
            }
        }
        // Three kernel widths cover every block: 3..=8 columns run the next
        // wider kernel on zero-padded columns.
        const _: () = assert!(MULTI_RHS_BLOCK == 8);
        let mut out = Vec::with_capacity(rhs.len());
        for block in rhs.chunks(Lu::MULTI_RHS_BLOCK) {
            match block.len() {
                1 => out.push(self.solve(&block[0])?),
                2 => self.solve_block::<2>(block, &mut out),
                3 | 4 => self.solve_block::<4>(block, &mut out),
                _ => self.solve_block::<MULTI_RHS_BLOCK>(block, &mut out),
            }
        }
        Ok(out)
    }

    /// One block of [`Lu::solve_many`]: the substitutions of
    /// [`Lu::solve_into`] with every row's `dot8` widened to `W` columns.
    /// Columns past `block.len()` are zero padding, solved and dropped.
    fn solve_block<const W: usize>(&self, block: &[DVec], out: &mut Vec<DVec>) {
        let n = self.dim();
        // Row-major n×W working block: x[i][c] is row i of column c.
        let mut x = vec![[0.0; W]; n];
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            for (v, b) in xi.iter_mut().zip(block) {
                *v = b[p];
            }
        }
        for i in 1..n {
            let (head, tail) = x.split_at_mut(i);
            let s = dot8_cols(&self.lu.row(i)[..i], head);
            for (v, s) in tail[0].iter_mut().zip(s) {
                *v -= s;
            }
        }
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let (head, tail) = x.split_at_mut(i + 1);
            let s = dot8_cols(&row[i + 1..], tail);
            for (v, s) in head[i].iter_mut().zip(s) {
                *v = (*v - s) / row[i];
            }
        }
        out.extend((0..block.len()).map(|c| DVec::from_fn(n, |i| x[i][c])));
    }

    /// Column-block width of [`Lu::solve_many`]; see
    /// [`blocking::MULTI_RHS_BLOCK`](crate::blocking::MULTI_RHS_BLOCK),
    /// where all dense blocking constants now live.
    pub const MULTI_RHS_BLOCK: usize = MULTI_RHS_BLOCK;

    /// Solves `A X = B` column by column.
    ///
    /// One right-hand-side buffer and one solution buffer are reused across
    /// all columns (previously each column allocated both).
    pub fn solve_mat(&self, b: &DMat) -> Result<DMat> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_mat",
                got: b.shape(),
                expected: (n, b.ncols()),
            });
        }
        let mut out = DMat::zeros(n, b.ncols());
        let mut col = DVec::zeros(n);
        let mut x = DVec::zeros(n);
        for j in 0..b.ncols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            self.solve_into(&col, &mut x)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Inverse of the factored matrix (use sparingly; solves are cheaper).
    pub fn inverse(&self) -> Result<DMat> {
        self.solve_mat(&DMat::eye(self.dim()))
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Estimates the 1-norm condition number `κ₁(A) ≈ ‖A‖₁ ‖A⁻¹‖₁` using a
    /// few rounds of Hager's power iteration on `A⁻¹` (via the factors).
    ///
    /// RBF collocation matrices with polyharmonic splines are famously
    /// ill-conditioned; this estimate is surfaced to users for diagnostics
    /// (the paper notes the regular grid "resulted in better conditioned
    /// collocation matrices compared with a scattered point cloud").
    pub fn cond_1_estimate(&self, norm1_a: f64) -> f64 {
        let n = self.dim();
        if n == 0 {
            return 0.0;
        }
        let mut x = DVec::full(n, 1.0 / n as f64);
        let mut est = 0.0;
        for _ in 0..5 {
            let y = match self.solve(&x) {
                Ok(y) => y,
                Err(_) => return f64::INFINITY,
            };
            est = y.norm1();
            let xi = y.map(|v| if v >= 0.0 { 1.0 } else { -1.0 });
            let z = match self.solve_transpose(&xi) {
                Ok(z) => z,
                Err(_) => return f64::INFINITY,
            };
            // Hager: move mass to the coordinate with the largest |z|.
            let mut jmax = 0;
            for j in 1..n {
                if z[j].abs() > z[jmax].abs() {
                    jmax = j;
                }
            }
            if z.norm_inf() <= z.dot(&x) {
                break;
            }
            x = DVec::zeros(n);
            x[jmax] = 1.0;
        }
        norm1_a * est
    }
}

/// Trailing-update work (rows × columns) above which the elimination step
/// goes through the shared pool. Mirrors [`DMat::PAR_THRESHOLD`].
const LU_PAR_THRESHOLD: usize = DMat::PAR_THRESHOLD;

/// Tiled right-looking Gaussian elimination with partial pivoting on packed
/// storage (the LAPACK `getrf` shape, grown here without BLAS). Shared by
/// [`Lu::factor`] (fresh storage) and [`Lu::refactor`] (reused storage);
/// returns the permutation sign.
///
/// Each outer step processes one [`LU_TILE`]-wide panel:
///
/// 1. **Panel** — unblocked elimination of the panel columns over the full
///    remaining row range (pivot search, row swap, multipliers, rank-1
///    update restricted to the panel), exactly as the classic algorithm
///    but touching only `kb` columns per row.
/// 2. **U₁₂** — triangular update of the panel rows' trailing columns by
///    the unit-lower panel factor.
/// 3. **Trailing GEMM** — `A₂₂ -= L₂₁ · U₁₂` in one blocked pass with
///    [`MULAD_UNROLL`]-wide fused multiplier chains ([`fused_axpy4`]),
///    so the trailing matrix streams through cache once per panel instead
///    of once per column.
///
/// The trailing update is row-partitioned across the pool into at most
/// [`PAR_BLOCKS`] fixed blocks once the remaining work is large enough.
/// Each row's arithmetic is independent of the partitioning, so the
/// factors are bit-identical for any pool width.
fn factor_in_place(lu: &mut DMat, perm: &mut [usize]) -> Result<f64> {
    let n = lu.nrows();
    let mut sign = 1.0;
    let a = lu.as_mut_slice();
    for ks in (0..n).step_by(LU_TILE) {
        let kb = LU_TILE.min(n - ks);
        let ke = ks + kb;
        // --- 1. Panel factorization: columns ks..ke, rows ks..n. ---
        for k in ks..ke {
            // Partial pivoting: largest magnitude in column k at or below
            // the diagonal.
            let mut p = k;
            let mut pmax = a[k * n + k].abs();
            for i in k + 1..n {
                let v = a[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < 1e-300 {
                return Err(LinalgError::SingularMatrix {
                    pivot: k,
                    value: pmax,
                });
            }
            if p != k {
                perm.swap(k, p);
                sign = -sign;
                let (lo, hi) = a.split_at_mut(p * n);
                lo[k * n..(k + 1) * n].swap_with_slice(&mut hi[..n]);
            }
            let pivot = a[k * n + k];
            // Multipliers: column k below the diagonal.
            for i in k + 1..n {
                a[i * n + k] /= pivot;
            }
            // Rank-1 update restricted to the remaining panel columns; the
            // columns right of the panel wait for the blocked step 3.
            if k + 1 < ke && k + 1 < n {
                let (top, bot) = a.split_at_mut((k + 1) * n);
                let krow = &top[k * n + k + 1..k * n + ke];
                for row in bot[..(n - k - 1) * n].chunks_exact_mut(n) {
                    let m = row[k];
                    if m != 0.0 {
                        for (u, x) in krow.iter().zip(&mut row[k + 1..ke]) {
                            *x -= m * u;
                        }
                    }
                }
            }
        }
        if ke == n {
            break;
        }
        // --- 2. U₁₂ update: rows ks+1..ke, columns ke..n, by the unit
        // lower triangle of the panel (row i accumulates rows ks..i). ---
        for i in ks + 1..ke {
            let (head, tail) = a.split_at_mut(i * n);
            let (li, ui) = tail[..n].split_at_mut(ke);
            for j in ks..i {
                let m = li[j];
                if m != 0.0 {
                    let uj = &head[j * n + ke..(j + 1) * n];
                    for (x, u) in ui.iter_mut().zip(uj) {
                        *x -= m * u;
                    }
                }
            }
        }
        // --- 3. Trailing GEMM: rows ke..n, columns ke..n get
        // `A₂₂ -= L₂₁ · U₁₂` with fused 4-wide multiplier chains. ---
        let m_rows = n - ke;
        let (top, bot) = a.split_at_mut(ke * n);
        let panel_rows: &[f64] = top;
        let trailing = &mut bot[..m_rows * n];
        let update_row = |row: &mut [f64]| {
            let (l, out) = row.split_at_mut(ke);
            let l = &l[ks..];
            let mut p = 0;
            while p + MULAD_UNROLL <= kb {
                let m = [l[p], l[p + 1], l[p + 2], l[p + 3]];
                let r0 = &panel_rows[(ks + p) * n + ke..(ks + p + 1) * n];
                let r1 = &panel_rows[(ks + p + 1) * n + ke..(ks + p + 2) * n];
                let r2 = &panel_rows[(ks + p + 2) * n + ke..(ks + p + 3) * n];
                let r3 = &panel_rows[(ks + p + 3) * n + ke..(ks + p + 4) * n];
                fused_axpy4(out, m, r0, r1, r2, r3);
                p += MULAD_UNROLL;
            }
            while p < kb {
                let m = l[p];
                if m != 0.0 {
                    let rp = &panel_rows[(ks + p) * n + ke..(ks + p + 1) * n];
                    for (x, u) in out.iter_mut().zip(rp) {
                        *x -= m * u;
                    }
                }
                p += 1;
            }
        };
        if m_rows * (n - ke) * kb >= LU_PAR_THRESHOLD {
            // Fixed row-block decomposition (at most PAR_BLOCKS blocks),
            // independent of the thread count.
            let block = m_rows.div_ceil(PAR_BLOCKS).max(1) * n;
            meshfree_runtime::par::par_chunks_mut(trailing, block, |_, piece| {
                for row in piece.chunks_exact_mut(n) {
                    update_row(row);
                }
            });
        } else {
            for row in trailing.chunks_exact_mut(n) {
                update_row(row);
            }
        }
    }
    Ok(sign)
}

/// Cholesky factorization `A = L Lᵀ` for symmetric positive definite systems.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMat,
}

impl Cholesky {
    /// Factors an SPD matrix; only the lower triangle of `a` is read.
    pub fn factor(a: &DMat) -> Result<Cholesky> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                got: a.shape(),
                expected: (n, n),
            });
        }
        let mut l = DMat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { row: i });
                    }
                    l[(i, i)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solves `A x = b` via two triangular solves, both reading `L` row by
    /// row: the forward sweep runs each row as one [`dot8`], the `Lᵀ` back
    /// sweep subtracts `x[j]` times row `j` of `L` once `x[j]` is final.
    pub fn solve(&self, b: &DVec) -> Result<DVec> {
        let n = self.l.nrows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                got: (b.len(), 1),
                expected: (n, 1),
            });
        }
        let mut y = b.clone();
        let ys = y.as_mut_slice();
        for i in 0..n {
            let row = self.l.row(i);
            let (head, tail) = ys.split_at_mut(i);
            tail[0] = (tail[0] - dot8(&row[..i], head)) / row[i];
        }
        for j in (0..n).rev() {
            let row = self.l.row(j);
            let yj = ys[j] / row[j];
            ys[j] = yj;
            for (yi, &l) in ys[..j].iter_mut().zip(&row[..j]) {
                *yi -= l * yj;
            }
        }
        Ok(y)
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &DMat {
        &self.l
    }
}

/// Householder QR factorization, usable for least squares (`m >= n`).
///
/// The RBF-FD stencil-weight computation solves many small, possibly
/// rank-deficient-ish local systems; QR is the numerically safe option there.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed Householder vectors (below diagonal) and R (upper triangle).
    qr: DMat,
    /// Householder scalars `beta_k`.
    beta: Vec<f64>,
}

impl Qr {
    /// Factors an `m x n` matrix with `m >= n`.
    pub fn factor(a: &DMat) -> Result<Qr> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                op: "qr",
                got: (m, n),
                expected: (n, n),
            });
        }
        let mut qr = a.clone();
        let mut beta = vec![0.0; n];
        for k in 0..n {
            // Build the Householder reflector annihilating below (k,k).
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                return Err(LinalgError::SingularMatrix {
                    pivot: k,
                    value: norm,
                });
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            qr[(k, k)] = alpha;
            // Store v (with v0 implicit scaling) below the diagonal.
            for i in k + 1..m {
                qr[(i, k)] /= v0;
            }
            beta[k] = -v0 / alpha;
            // Apply the reflector to the trailing columns.
            for j in k + 1..n {
                let mut s = qr[(k, j)];
                for i in k + 1..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= beta[k];
                qr[(k, j)] -= s;
                for i in k + 1..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Ok(Qr { qr, beta })
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂`.
    pub fn solve_least_squares(&self, b: &DVec) -> Result<DVec> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr_solve",
                got: (b.len(), 1),
                expected: (m, 1),
            });
        }
        // y = Qᵀ b by applying each reflector.
        let mut y = b.clone();
        for k in 0..n {
            let mut s = y[k];
            for i in k + 1..m {
                s += self.qr[(i, k)] * y[i];
            }
            s *= self.beta[k];
            y[k] -= s;
            for i in k + 1..m {
                let vik = self.qr[(i, k)];
                y[i] -= s * vik;
            }
        }
        // Back substitution with R.
        let mut x = DVec::zeros(n);
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in i + 1..n {
                s -= self.qr[(i, j)] * x[j];
            }
            x[i] = s / self.qr[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_like_matrix(n: usize, seed: u64) -> DMat {
        // Deterministic, well-scaled, diagonally nudged test matrix.
        DMat::from_fn(n, n, |i, j| {
            let v = (((seed as usize + 1) * (i * 131 + j * 31 + 7)) % 997) as f64 / 997.0 - 0.5;
            if i == j {
                v + 2.0
            } else {
                v
            }
        })
    }

    #[test]
    fn lu_reconstruction_small() {
        let a = DMat::from_rows(&[
            vec![2.0, 1.0, 1.0],
            vec![4.0, -6.0, 0.0],
            vec![-2.0, 7.0, 2.0],
        ]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&DVec(vec![5.0, -2.0, 9.0])).unwrap();
        let r = &a.matvec(&x).unwrap() - &DVec(vec![5.0, -2.0, 9.0]);
        assert!(r.norm2() < 1e-12);
    }

    #[test]
    fn lu_solve_transpose_matches_explicit_transpose() {
        let a = random_like_matrix(12, 3);
        let at = a.transpose();
        let b = DVec::from_fn(12, |i| (i as f64).cos());
        let lu = Lu::factor(&a).unwrap();
        let lut = Lu::factor(&at).unwrap();
        let x1 = lu.solve_transpose(&b).unwrap();
        let x2 = lut.solve(&b).unwrap();
        assert!((&x1 - &x2).norm2() < 1e-10);
    }

    #[test]
    fn lu_det_known() {
        let a = DMat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-12);
        // Permutation sign: swapping rows flips the determinant's sign.
        let b = DMat::from_rows(&[vec![3.0, 4.0], vec![1.0, 2.0]]);
        assert!((Lu::factor(&b).unwrap().det() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_singular_detection() {
        let a = DMat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(
            Lu::factor(&a),
            Err(LinalgError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn lu_inverse_roundtrip() {
        let a = random_like_matrix(6, 11);
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let id = a.matmul(&inv).unwrap();
        assert!((&id - &DMat::eye(6)).norm_fro() < 1e-10);
    }

    #[test]
    fn lu_multi_rhs() {
        let a = random_like_matrix(5, 2);
        let b = DMat::from_fn(5, 3, |i, j| (i + j) as f64);
        let x = Lu::factor(&a).unwrap().solve_mat(&b).unwrap();
        let r = &a.matmul(&x).unwrap() - &b;
        assert!(r.norm_fro() < 1e-10);
    }

    #[test]
    fn refactor_matches_fresh_factor_bitwise() {
        let a = random_like_matrix(20, 3);
        let b = random_like_matrix(20, 9);
        let mut lu = Lu::factor(&a).unwrap();
        lu.refactor(&b).unwrap();
        let fresh = Lu::factor(&b).unwrap();
        let rhs = DVec::from_fn(20, |i| (i as f64).sin());
        assert_eq!(
            lu.solve(&rhs).unwrap().as_slice(),
            fresh.solve(&rhs).unwrap().as_slice()
        );
        assert_eq!(lu.det(), fresh.det());
    }

    #[test]
    fn csr_factors_match_the_dense_image_bitwise() {
        let b = random_like_matrix(20, 9);
        let sparse = Csr::from_dense(&b);
        let fresh = Lu::factor(&b).unwrap();
        let mut lu = Lu::factor(&random_like_matrix(20, 3)).unwrap();
        lu.refactor_csr(&sparse).unwrap();
        let rhs = DVec::from_fn(20, |i| (i as f64).sin());
        for f in [&lu, &Lu::factor_csr(&sparse).unwrap()] {
            assert_eq!(
                f.solve(&rhs).unwrap().as_slice(),
                fresh.solve(&rhs).unwrap().as_slice()
            );
            assert_eq!(f.det(), fresh.det());
        }
        assert!(lu.refactor_csr(&Csr::eye(5)).is_err());
    }

    #[test]
    fn refactor_rejects_wrong_shape() {
        let mut lu = Lu::factor(&random_like_matrix(4, 1)).unwrap();
        assert!(lu.refactor(&DMat::zeros(5, 5)).is_err());
    }

    #[test]
    fn solve_many_is_bitwise_identical_to_column_loop() {
        // Every width up to two full blocks plus one, so each block
        // width's kernel, the one-column path and the chunking all run, on
        // a system large enough that pivoting genuinely permutes rows.
        let n = 60;
        let a = random_like_matrix(n, 13);
        let lu = Lu::factor(&a).unwrap();
        let bits = |v: &DVec| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for w in 1..=2 * Lu::MULTI_RHS_BLOCK + 1 {
            let rhs: Vec<DVec> = (0..w)
                .map(|k| DVec::from_fn(n, |i| ((i * 7 + k * 13) % 23) as f64 * 0.4 - 3.0))
                .collect();
            let batched = lu.solve_many(&rhs).unwrap();
            assert_eq!(batched.len(), rhs.len());
            for (k, (b, x)) in rhs.iter().zip(&batched).enumerate() {
                let single = lu.solve(b).unwrap();
                assert_eq!(bits(x), bits(&single), "width {w}, column {k}");
            }
        }
    }

    #[test]
    fn solve_many_rejects_wrong_length_rhs() {
        let lu = Lu::factor(&random_like_matrix(6, 1)).unwrap();
        let rhs = [DVec::zeros(6), DVec::zeros(5)];
        assert!(lu.solve_many(&rhs).is_err());
    }

    #[test]
    fn solve_into_matches_solve_and_reuses_buffer() {
        let a = random_like_matrix(9, 7);
        let lu = Lu::factor(&a).unwrap();
        let mut x = DVec::zeros(0);
        for s in 0..3 {
            let b = DVec::from_fn(9, |i| (i + s) as f64 * 0.3 - 1.0);
            lu.solve_into(&b, &mut x).unwrap();
            assert_eq!(x.as_slice(), lu.solve(&b).unwrap().as_slice());
        }
    }

    /// Classic unblocked Gaussian elimination with partial pivoting — the
    /// reference the tiled implementation is checked against.
    fn naive_lu_solve(a: &DMat, b: &DVec) -> DVec {
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            for i in k + 1..n {
                if lu[(i, k)].abs() > lu[(p, k)].abs() {
                    p = i;
                }
            }
            assert!(lu[(p, k)].abs() >= 1e-300, "reference hit a zero pivot");
            if p != k {
                perm.swap(k, p);
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                lu[(i, k)] /= pivot;
                let m = lu[(i, k)];
                for j in k + 1..n {
                    lu[(i, j)] -= m * lu[(k, j)];
                }
            }
        }
        let mut x = DVec::from_fn(n, |i| b[perm[i]]);
        for i in 1..n {
            for j in 0..i {
                let m = lu[(i, j)] * x[j];
                x[i] -= m;
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                let m = lu[(i, j)] * x[j];
                x[i] -= m;
            }
            x[i] /= lu[(i, i)];
        }
        x
    }

    #[test]
    fn tiled_lu_matches_naive_reference() {
        // Sizes straddling the panel width: sub-tile, exact multiples,
        // ragged final panels, and a multi-panel system.
        for n in [3, 47, 48, 49, 96, 131] {
            for seed in [1u64, 4, 9] {
                let a = random_like_matrix(n, seed);
                let b = DVec::from_fn(n, |i| ((i * 5 + 3) % 11) as f64 - 4.0);
                let x_tiled = Lu::factor(&a).unwrap().solve(&b).unwrap();
                let x_naive = naive_lu_solve(&a, &b);
                let rel = (&x_tiled - &x_naive).norm2() / x_naive.norm2().max(1e-300);
                assert!(rel <= 1e-13, "n={n} seed={seed}: rel diff {rel}");
            }
        }
    }

    fn rel_diff(x: &DVec, reference: &DVec) -> f64 {
        (x - reference).norm2() / reference.norm2().max(1e-300)
    }

    #[test]
    fn triangular_solves_match_naive_reference() {
        // Sizes around dot8's eight lanes: a tail-only row, an exact
        // chunk, ragged tails, and the empty prefix/suffix of the first
        // and last rows.
        for n in [1, 2, 7, 8, 9, 17, 131] {
            for seed in [2u64, 6] {
                let a = random_like_matrix(n, seed);
                let at = a.transpose();
                let b = DVec::from_fn(n, |i| ((i * 5 + 3) % 11) as f64 - 4.0 + 0.5);
                let lu = Lu::factor(&a).unwrap();
                let rel = rel_diff(&lu.solve(&b).unwrap(), &naive_lu_solve(&a, &b));
                assert!(rel <= 1e-13, "solve n={n} seed={seed}: rel diff {rel}");
                let xt = lu.solve_transpose(&b).unwrap();
                let rel = rel_diff(&xt, &naive_lu_solve(&at, &b));
                assert!(
                    rel <= 1e-13,
                    "solve_transpose n={n} seed={seed}: rel diff {rel}"
                );
                let rel = rel_diff(&xt, &Lu::factor(&at).unwrap().solve(&b).unwrap());
                assert!(
                    rel <= 1e-13,
                    "solve_transpose vs factored Aᵀ n={n} seed={seed}: {rel}"
                );
            }
        }
    }

    #[test]
    fn parallel_trailing_update_matches_serial_bitwise() {
        // n large enough that the first elimination steps cross
        // LU_PAR_THRESHOLD and run through the pool.
        let n = 300;
        let a = random_like_matrix(n, 5);
        let b = DVec::from_fn(n, |i| (i as f64 * 0.11).cos());
        let x_par = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let x_ser =
            meshfree_runtime::par::serial_scope(|| Lu::factor(&a).unwrap().solve(&b).unwrap());
        assert_eq!(x_par.as_slice(), x_ser.as_slice());
    }

    #[test]
    fn lu_condition_estimate_identity_is_order_one() {
        let id = DMat::eye(8);
        let lu = Lu::factor(&id).unwrap();
        let c = lu.cond_1_estimate(id.norm_1());
        assert!((0.9..=1.5).contains(&c), "cond(I) estimate was {c}");
    }

    #[test]
    fn lu_condition_estimate_detects_ill_conditioning() {
        // diag(1, eps): condition = 1/eps.
        let a = DMat::from_diag(&[1.0, 1e-8]);
        let lu = Lu::factor(&a).unwrap();
        let c = lu.cond_1_estimate(a.norm_1());
        assert!(c > 1e7, "estimate {c} should be ~1e8");
    }

    #[test]
    fn cholesky_solves_spd() {
        // A = M^T M + I is SPD.
        let m = random_like_matrix(7, 5);
        let a = &m.transpose().matmul(&m).unwrap() + &DMat::eye(7);
        let chol = Cholesky::factor(&a).unwrap();
        let b = DVec::from_fn(7, |i| i as f64 - 3.0);
        let x = chol.solve(&b).unwrap();
        assert!((&a.matvec(&x).unwrap() - &b).norm2() < 1e-9);
        // L L^T reconstructs A.
        let rec = chol.l().matmul(&chol.l().transpose()).unwrap();
        assert!((&rec - &a).norm_fro() < 1e-8 * a.norm_fro());
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DMat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn qr_solves_square_system() {
        let a = random_like_matrix(9, 4);
        let b = DVec::from_fn(9, |i| (i as f64 * 0.7).sin());
        let x = Qr::factor(&a).unwrap().solve_least_squares(&b).unwrap();
        assert!((&a.matvec(&x).unwrap() - &b).norm2() < 1e-9);
    }

    #[test]
    fn qr_least_squares_matches_normal_equations() {
        // Overdetermined fit: line through noisy-ish points.
        let m = 20;
        let a = DMat::from_fn(m, 2, |i, j| if j == 0 { 1.0 } else { i as f64 });
        let b = DVec::from_fn(m, |i| 3.0 + 2.0 * i as f64);
        let x = Qr::factor(&a).unwrap().solve_least_squares(&b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn qr_rejects_underdetermined() {
        assert!(Qr::factor(&DMat::zeros(2, 3)).is_err());
    }

    /// Property tests need the proptest engine; enable with
    /// `--features proptest`.
    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn prop_lu_solve_residual_small(seed in 0u64..5000, n in 2usize..24) {
                let a = random_like_matrix(n, seed);
                let b = DVec::from_fn(n, |i| ((seed as usize + i) % 17) as f64 - 8.0);
                let lu = Lu::factor(&a).unwrap();
                let x = lu.solve(&b).unwrap();
                let r = &a.matvec(&x).unwrap() - &b;
                prop_assert!(r.norm2() < 1e-8 * (1.0 + b.norm2()));
            }

            #[test]
            fn prop_lu_transpose_adjoint_identity(seed in 0u64..5000, n in 2usize..16) {
                // <A^{-1} b, c> == <b, A^{-T} c> — exactly the identity the
                // autodiff solve-adjoint relies on.
                let a = random_like_matrix(n, seed);
                let b = DVec::from_fn(n, |i| (i as f64 + 1.0).recip());
                let c = DVec::from_fn(n, |i| ((i * i) % 7) as f64 - 3.0);
                let lu = Lu::factor(&a).unwrap();
                let lhs = lu.solve(&b).unwrap().dot(&c);
                let rhs = b.dot(&lu.solve_transpose(&c).unwrap());
                prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
            }

            #[test]
            fn prop_det_product_rule(seed in 0u64..2000, n in 2usize..8) {
                let a = random_like_matrix(n, seed);
                let b = random_like_matrix(n, seed + 7);
                let da = Lu::factor(&a).unwrap().det();
                let db = Lu::factor(&b).unwrap().det();
                let dab = Lu::factor(&a.matmul(&b).unwrap()).unwrap().det();
                prop_assert!((dab - da * db).abs() < 1e-6 * (1.0 + dab.abs()));
            }
        }
    }
}
