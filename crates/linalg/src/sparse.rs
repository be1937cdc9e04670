//! Compressed sparse row (CSR) matrices with parallel SpMV.
//!
//! The RBF-FD path assembles global differential operators from local
//! stencils: each row has only `k` (stencil size) nonzeros, so CSR + a
//! sparse direct factor replaces the dense global collocation when memory
//! is the bottleneck (cf. Table 3 of the paper, where dense DP peaks at
//! 45 GB).

use crate::dense::DMat;
use crate::vector::DVec;
use meshfree_runtime::par;

/// Triplet (COO) accumulator used while assembling a sparse matrix.
///
/// Duplicate entries are summed when converting to CSR, which makes
/// stencil-by-stencil assembly straightforward.
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Triplets {
    /// Creates an empty accumulator for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(i, j)`. Panics on out-of-range indices.
    pub fn push(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "triplet out of range");
        if value != 0.0 {
            self.entries.push((i, j, value));
        }
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn nnz_raw(&self) -> usize {
        self.entries.len()
    }

    /// Converts to CSR, summing duplicates.
    pub fn to_csr(&self) -> Csr {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|e| (e.0, e.1));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut iter = entries.into_iter().peekable();
        while let Some((i, j, mut v)) = iter.next() {
            while let Some(&(i2, j2, v2)) = iter.peek() {
                if i2 == i && j2 == j {
                    v += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            col_idx.push(j);
            values.push(v);
            row_ptr[i + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compressed sparse row matrix.
#[derive(Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.clone(),
        }
    }

    /// Copies `src` into `self`'s buffers, so refilling a matrix from a
    /// template of at most its size allocates nothing.
    fn clone_from(&mut self, src: &Self) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.row_ptr.clone_from(&src.row_ptr);
        self.col_idx.clone_from(&src.col_idx);
        self.values.clone_from(&src.values);
    }
}

impl Csr {
    /// Identity matrix in CSR form.
    pub fn eye(n: usize) -> Self {
        Csr {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Column indices and mutable values of row `i`: the pattern stays
    /// fixed while the values are refilled.
    pub fn row_mut(&mut self, i: usize) -> (&[usize], &mut [f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &mut self.values[lo..hi])
    }

    /// Sparse matrix-vector product, parallel over rows for large matrices.
    pub fn matvec(&self, x: &DVec) -> DVec {
        let mut y = DVec::zeros(self.rows);
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Csr::matvec`] into a caller-owned buffer. Parallel over row chunks
    /// for large matrices; the result is identical for any thread count
    /// (each row is an independent dot product).
    pub fn matvec_into(&self, x: &DVec, out: &mut DVec) {
        assert_eq!(x.len(), self.cols, "spmv: length mismatch");
        assert_eq!(out.len(), self.rows, "spmv: output length mismatch");
        let compute = |i: usize| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(|(&j, &v)| v * x[j]).sum::<f64>()
        };
        if self.nnz() >= 1 << 15 {
            const CHUNK: usize = 256;
            par::par_chunks_mut(out.as_mut_slice(), CHUNK, |ci, chunk| {
                let base = ci * CHUNK;
                for (k, o) in chunk.iter_mut().enumerate() {
                    *o = compute(base + k);
                }
            });
        } else {
            for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
                *o = compute(i);
            }
        }
    }

    /// Transposed sparse matvec `Aᵀ x`.
    pub fn matvec_t(&self, x: &DVec) -> DVec {
        assert_eq!(x.len(), self.rows, "spmv_t: length mismatch");
        let mut y = DVec::zeros(self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let xi = x[i];
            if xi != 0.0 {
                for (&j, &v) in cols.iter().zip(vals) {
                    y[j] += v * xi;
                }
            }
        }
        y
    }

    /// Explicit transpose in CSR form.
    pub fn transpose(&self) -> Csr {
        let mut t = Triplets::new(self.cols, self.rows);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                t.push(j, i, v);
            }
        }
        t.to_csr()
    }

    /// Densifies (for tests and small systems).
    pub fn to_dense(&self) -> DMat {
        let mut m = DMat::zeros(self.rows, self.cols);
        self.to_dense_into(&mut m);
        m
    }

    /// [`Csr::to_dense`] into a caller-owned matrix of the same shape,
    /// overwriting every entry.
    pub fn to_dense_into(&self, m: &mut DMat) {
        assert_eq!(m.shape(), (self.rows, self.cols), "to_dense_into: shape");
        m.as_mut_slice().fill(0.0);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let row = m.row_mut(i);
            for (&j, &v) in cols.iter().zip(vals) {
                row[j] += v;
            }
        }
    }

    /// The nonzero entries of a dense matrix, in CSR form.
    pub fn from_dense(m: &DMat) -> Csr {
        Csr::from_row_fn(m.nrows(), m.ncols(), |i, row| {
            row.extend(m.row(i).iter().copied().enumerate().filter(|e| e.1 != 0.0));
        })
    }

    /// Assembles a `rows × cols` matrix one row at a time, holding no
    /// more than one row of entries besides the result: `fill(i, row)`
    /// appends row `i`'s `(column, value)` pairs in any order. Entries of
    /// one column are summed in the order given, and every column given
    /// stays in the pattern, zero or not — fixed-pattern assemblies
    /// reserve the positions they refill this way.
    pub fn from_row_fn(
        rows: usize,
        cols: usize,
        mut fill: impl FnMut(usize, &mut Vec<(usize, f64)>),
    ) -> Csr {
        let mut row_ptr = vec![0];
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        let mut row = Vec::new();
        for i in 0..rows {
            row.clear();
            fill(i, &mut row);
            // Stable, so duplicates keep the order they were given in.
            row.sort_by_key(|e: &(usize, f64)| e.0);
            for &(j, v) in &row {
                assert!(j < cols, "row entry out of range");
                if col_idx.len() > row_ptr[i] && col_idx.last() == Some(&j) {
                    *values.last_mut().expect("entry pushed above") += v;
                } else {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        col_idx.shrink_to_fit();
        values.shrink_to_fit();
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Extracts the diagonal (zeros where no entry is stored).
    pub fn diagonal(&self) -> DVec {
        let n = self.rows.min(self.cols);
        let mut d = DVec::zeros(n);
        for i in 0..n {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j == i {
                    d[i] = v;
                }
            }
        }
        d
    }

    /// Reads the stored value at `(i, j)`, or `None` if outside the
    /// sparsity pattern (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(pos) => Some(self.values[lo + pos]),
            Err(_) => None,
        }
    }

    /// Overwrites the stored value at `(i, j)`; returns false if `(i, j)`
    /// is outside the sparsity pattern.
    pub fn set(&mut self, i: usize, j: usize, v: f64) -> bool {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(pos) => {
                self.values[lo + pos] = v;
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[1, 0, 2], [0, 3, 0], [4, 0, 5]]
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        t.to_csr()
    }

    #[test]
    fn triplets_dedup_sums() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 2.5);
        t.push(1, 1, -1.0);
        let c = t.to_csr();
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.to_dense()[(0, 0)], 3.5);
        assert_eq!(c.to_dense()[(1, 1)], -1.0);
    }

    #[test]
    fn zero_entries_dropped() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 0.0);
        assert_eq!(t.nnz_raw(), 0);
    }

    #[test]
    fn spmv_matches_dense() {
        let c = sample();
        let d = c.to_dense();
        let x = DVec(vec![1.0, 2.0, 3.0]);
        let ys = c.matvec(&x);
        let yd = d.matvec(&x).unwrap();
        assert!((&ys - &yd).norm2() < 1e-14);
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let c = sample();
        let x = DVec(vec![1.0, 2.0, 3.0]);
        let y = c.matvec(&x);
        let mut y2 = DVec::full(3, 9.9); // stale values must be overwritten
        c.matvec_into(&x, &mut y2);
        assert_eq!(y.as_slice(), y2.as_slice());
    }

    #[test]
    fn spmv_transpose_matches_dense() {
        let c = sample();
        let d = c.to_dense().transpose();
        let x = DVec(vec![1.0, -1.0, 0.5]);
        assert!((&c.matvec_t(&x) - &d.matvec(&x).unwrap()).norm2() < 1e-14);
    }

    #[test]
    fn transpose_roundtrip() {
        let c = sample();
        assert_eq!(c.transpose().transpose().to_dense(), c.to_dense());
    }

    #[test]
    fn eye_and_diag() {
        let e = Csr::eye(4);
        assert_eq!(e.nnz(), 4);
        let x = DVec(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.matvec(&x).as_slice(), x.as_slice());
        assert_eq!(sample().diagonal().as_slice(), &[1.0, 3.0, 5.0]);
    }

    /// A rectangular matrix with an empty row and a duplicate-summed entry:
    /// the shapes the structured-grid assembly never produces but the
    /// algebra must still handle.
    ///
    /// ```text
    /// [[0, 0, 0, 0], [1, 0, 5, 0], [0, 0, 0, -2]]   (row 0 empty; (1,2) = 2+3)
    /// ```
    fn awkward() -> Csr {
        let mut t = Triplets::new(3, 4);
        t.push(1, 2, 2.0);
        t.push(1, 0, 1.0);
        t.push(1, 2, 3.0);
        t.push(2, 3, -2.0);
        t.to_csr()
    }

    #[test]
    fn duplicates_summing_to_zero_keep_the_pattern_entry() {
        // Cancellation must not silently change the sparsity pattern —
        // `set` relies on the pattern surviving.
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 4.0);
        t.push(0, 1, -4.0);
        let c = t.to_csr();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 1), Some(0.0));
        assert_eq!(c.get(1, 0), None);
    }

    #[test]
    fn matvec_t_matches_dense_on_rectangular_with_empty_rows() {
        let a = awkward();
        assert_eq!((a.nrows(), a.ncols()), (3, 4));
        assert_eq!(a.row(0), (&[][..], &[][..]), "row 0 should be empty");
        let x = DVec(vec![0.5, -1.0, 2.0]);
        let yd = a.to_dense().transpose().matvec(&x).unwrap();
        let ys = a.matvec_t(&x);
        assert_eq!(ys.len(), 4);
        assert!((&ys - &yd).norm2() < 1e-15);
    }

    #[test]
    fn transpose_matches_dense_on_rectangular_with_empty_rows() {
        let a = awkward();
        let t = a.transpose();
        assert_eq!((t.nrows(), t.ncols()), (4, 3));
        assert_eq!(t.nnz(), a.nnz());
        let ad = a.to_dense();
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(t.to_dense()[(i, j)], ad[(j, i)], "at ({i}, {j})");
            }
        }
        // And the transposed matvec agrees with matvec_t on the original.
        let x = DVec(vec![1.0, 2.0, 3.0]);
        assert!((&t.matvec(&x) - &a.matvec_t(&x)).norm2() < 1e-15);
    }

    #[test]
    fn row_fn_sums_duplicates_in_order_and_keeps_given_zeros() {
        let c = Csr::from_row_fn(2, 3, |i, row| {
            if i == 0 {
                row.extend([(2, 0.0), (0, 1.5), (2, 0.25), (0, 1e-17)]);
            }
        });
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 0), Some(1.5 + 1e-17));
        assert_eq!(c.get(0, 2), Some(0.25));
        assert_eq!(c.row(1), (&[][..], &[][..]));
        let z = Csr::from_row_fn(1, 2, |_, row| row.push((1, 0.0)));
        assert_eq!(z.get(0, 1), Some(0.0), "a given zero stays in the pattern");
    }

    #[test]
    fn fixed_pattern_refill_round_trips_through_dense() {
        let template = awkward();
        // clone_from into a larger matrix reuses its buffers.
        let mut op = sample();
        op.clone_from(&template);
        assert_eq!(op, template);
        let (cols, vals) = op.row_mut(1);
        assert_eq!(cols, &[0, 2]);
        vals[1] += 1.0;
        let mut m = DMat::from_fn(3, 4, |_, _| 9.0); // stale entries are cleared
        op.to_dense_into(&mut m);
        let mut expect = template.to_dense();
        expect[(1, 2)] += 1.0;
        assert_eq!(m, expect);
        assert_eq!(Csr::from_dense(&m), op);
    }

    /// Property tests need the proptest engine; enable with
    /// `--features proptest`.
    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn prop_spmv_adjoint(seed in 0u64..1000) {
                // <Ax, y> == <x, A^T y> for random sparse patterns.
                let n = 4 + (seed % 12) as usize;
                let mut t = Triplets::new(n, n);
                for k in 0..3 * n {
                    let i = (seed as usize * 7 + k * 13) % n;
                    let j = (seed as usize * 11 + k * 5) % n;
                    t.push(i, j, ((k % 9) as f64) - 4.0);
                }
                let a = t.to_csr();
                let x = DVec::from_fn(n, |i| (i as f64 * 0.3).sin());
                let y = DVec::from_fn(n, |i| 1.0 - 0.1 * i as f64);
                let lhs = a.matvec(&x).dot(&y);
                let rhs = x.dot(&a.matvec_t(&y));
                prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
            }

            #[test]
            fn prop_csr_dense_agree(seed in 0u64..1000) {
                let n = 3 + (seed % 8) as usize;
                let mut t = Triplets::new(n, n);
                for k in 0..2 * n {
                    t.push((seed as usize + k * 3) % n, (k * 7 + 1) % n, (k as f64) * 0.25 - 1.0);
                }
                let a = t.to_csr();
                let d = a.to_dense();
                let x = DVec::from_fn(n, |i| i as f64 + 1.0);
                let diff = &a.matvec(&x) - &d.matvec(&x).unwrap();
                prop_assert!(diff.norm2() < 1e-12);
            }
        }
    }
}
