//! Dense vectors and BLAS-1 style kernels.

use std::ops::{Add, AddAssign, Deref, DerefMut, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// An owned dense `f64` vector.
///
/// `DVec` is a thin wrapper around `Vec<f64>` that adds the numerical
/// operations the rest of the workspace needs (dot products, norms, `axpy`,
/// elementwise arithmetic). It derefs to `[f64]` so slice APIs keep working.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DVec(pub Vec<f64>);

impl DVec {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        DVec(vec![0.0; n])
    }

    /// Creates a vector of `n` copies of `value`.
    pub fn full(n: usize, value: f64) -> Self {
        DVec(vec![value; n])
    }

    /// The `j`-th unit vector of length `n`.
    pub fn unit(n: usize, j: usize) -> Self {
        let mut e = DVec::zeros(n);
        e[j] = 1.0;
        e
    }

    /// Creates a vector from a function of the index.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        DVec((0..n).map(f).collect())
    }

    /// `n` evenly spaced points from `a` to `b` inclusive.
    ///
    /// With `n == 1` the single point is `a`.
    pub fn linspace(a: f64, b: f64, n: usize) -> Self {
        if n == 0 {
            return DVec(Vec::new());
        }
        if n == 1 {
            return DVec(vec![a]);
        }
        let h = (b - a) / (n - 1) as f64;
        DVec::from_fn(n, |i| a + h * i as f64)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Euclidean inner product. Panics on length mismatch.
    pub fn dot(&self, other: &DVec) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.0.iter().zip(other.0.iter()).map(|(a, b)| a * b).sum()
    }

    /// Euclidean (2-)norm.
    pub fn norm2(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// 1-norm (sum of absolute values).
    pub fn norm1(&self) -> f64 {
        self.0.iter().map(|x| x.abs()).sum()
    }

    /// Infinity norm (max absolute value); 0 for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.0.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Root-mean-square of the entries; 0 for the empty vector.
    pub fn rms(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.dot(self) / self.len() as f64).sqrt()
        }
    }

    /// `self += alpha * x` (the BLAS `axpy`). Panics on length mismatch.
    pub fn axpy(&mut self, alpha: f64, x: &DVec) {
        assert_eq!(self.len(), x.len(), "axpy: length mismatch");
        for (s, xi) in self.0.iter_mut().zip(x.0.iter()) {
            *s += alpha * xi;
        }
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale_mut(&mut self, alpha: f64) {
        for s in &mut self.0 {
            *s *= alpha;
        }
    }

    /// Returns `alpha * self` as a new vector.
    pub fn scaled(&self, alpha: f64) -> DVec {
        DVec(self.0.iter().map(|x| alpha * x).collect())
    }

    /// Elementwise (Hadamard) product. Panics on length mismatch.
    pub fn hadamard(&self, other: &DVec) -> DVec {
        assert_eq!(self.len(), other.len(), "hadamard: length mismatch");
        DVec(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| a * b)
                .collect(),
        )
    }

    /// Applies `f` to every entry, returning a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DVec {
        DVec(self.0.iter().map(|&x| f(x)).collect())
    }

    /// Sum of entries.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Arithmetic mean; 0 for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Maximum entry; `NEG_INFINITY` for the empty vector.
    pub fn max(&self) -> f64 {
        self.0.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x))
    }

    /// Minimum entry; `INFINITY` for the empty vector.
    pub fn min(&self) -> f64 {
        self.0.iter().fold(f64::INFINITY, |m, &x| m.min(x))
    }

    /// Fills the vector with `value`.
    pub fn fill(&mut self, value: f64) {
        self.0.fill(value);
    }

    /// Consumes the wrapper and returns the inner `Vec`.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }

    /// Borrow as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Borrow as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.0.iter().any(|x| !x.is_finite())
    }
}

impl From<Vec<f64>> for DVec {
    fn from(v: Vec<f64>) -> Self {
        DVec(v)
    }
}

impl From<&[f64]> for DVec {
    fn from(v: &[f64]) -> Self {
        DVec(v.to_vec())
    }
}

impl FromIterator<f64> for DVec {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        DVec(iter.into_iter().collect())
    }
}

impl Deref for DVec {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.0
    }
}

impl DerefMut for DVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.0
    }
}

impl Index<usize> for DVec {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for DVec {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl Add<&DVec> for &DVec {
    type Output = DVec;
    fn add(self, rhs: &DVec) -> DVec {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        DVec(
            self.0
                .iter()
                .zip(rhs.0.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Sub<&DVec> for &DVec {
    type Output = DVec;
    fn sub(self, rhs: &DVec) -> DVec {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        DVec(
            self.0
                .iter()
                .zip(rhs.0.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl Mul<f64> for &DVec {
    type Output = DVec;
    fn mul(self, rhs: f64) -> DVec {
        self.scaled(rhs)
    }
}

impl Neg for &DVec {
    type Output = DVec;
    fn neg(self) -> DVec {
        self.scaled(-1.0)
    }
}

impl AddAssign<&DVec> for DVec {
    fn add_assign(&mut self, rhs: &DVec) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&DVec> for DVec {
    fn sub_assign(&mut self, rhs: &DVec) {
        self.axpy(-1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_full_from_fn() {
        assert_eq!(DVec::zeros(3).0, vec![0.0; 3]);
        assert_eq!(DVec::full(2, 1.5).0, vec![1.5, 1.5]);
        assert_eq!(DVec::from_fn(3, |i| i as f64).0, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let v = DVec::linspace(0.0, 1.0, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] - 0.0).abs() < 1e-15);
        assert!((v[4] - 1.0).abs() < 1e-15);
        assert!((v[1] - 0.25).abs() < 1e-15);
        assert_eq!(DVec::linspace(2.0, 3.0, 1).0, vec![2.0]);
        assert!(DVec::linspace(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn dot_and_norms() {
        let a = DVec(vec![3.0, 4.0]);
        assert!((a.norm2() - 5.0).abs() < 1e-15);
        assert!((a.norm1() - 7.0).abs() < 1e-15);
        assert!((a.norm_inf() - 4.0).abs() < 1e-15);
        let b = DVec(vec![1.0, -1.0]);
        assert!((a.dot(&b) + 1.0).abs() < 1e-15);
        assert!((a.rms() - (12.5f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn axpy_scale_hadamard() {
        let mut a = DVec(vec![1.0, 2.0]);
        a.axpy(2.0, &DVec(vec![10.0, 20.0]));
        assert_eq!(a.0, vec![21.0, 42.0]);
        a.scale_mut(0.5);
        assert_eq!(a.0, vec![10.5, 21.0]);
        let h = a.hadamard(&DVec(vec![2.0, 0.0]));
        assert_eq!(h.0, vec![21.0, 0.0]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = DVec(vec![1.0, 2.0]);
        let b = DVec(vec![3.0, 5.0]);
        assert_eq!((&a + &b).0, vec![4.0, 7.0]);
        assert_eq!((&b - &a).0, vec![2.0, 3.0]);
        assert_eq!((&a * 3.0).0, vec![3.0, 6.0]);
        assert_eq!((-&a).0, vec![-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.0, vec![4.0, 7.0]);
        c -= &b;
        assert_eq!(c.0, a.0);
    }

    #[test]
    fn reductions() {
        let v = DVec(vec![1.0, -2.0, 4.0]);
        assert_eq!(v.sum(), 3.0);
        assert_eq!(v.mean(), 1.0);
        assert_eq!(v.max(), 4.0);
        assert_eq!(v.min(), -2.0);
    }

    #[test]
    fn non_finite_detection() {
        assert!(!DVec(vec![1.0, 2.0]).has_non_finite());
        assert!(DVec(vec![1.0, f64::NAN]).has_non_finite());
        assert!(DVec(vec![f64::INFINITY]).has_non_finite());
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        DVec::zeros(2).dot(&DVec::zeros(3));
    }

    /// Property tests need the proptest engine; enable with
    /// `--features proptest`.
    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_cauchy_schwarz(x in proptest::collection::vec(-1e3f64..1e3, 1..32),
                                   y_seed in proptest::collection::vec(-1e3f64..1e3, 1..32)) {
                let n = x.len().min(y_seed.len());
                let a = DVec(x[..n].to_vec());
                let b = DVec(y_seed[..n].to_vec());
                prop_assert!(a.dot(&b).abs() <= a.norm2() * b.norm2() + 1e-6);
            }

            #[test]
            fn prop_axpy_matches_definition(x in proptest::collection::vec(-1e3f64..1e3, 1..32),
                                            alpha in -10.0f64..10.0) {
                let a = DVec(x.clone());
                let mut b = DVec::zeros(x.len());
                b.axpy(alpha, &a);
                for i in 0..x.len() {
                    prop_assert!((b[i] - alpha * x[i]).abs() <= 1e-9 * (1.0 + x[i].abs()));
                }
            }

            #[test]
            fn prop_norm_triangle_inequality(x in proptest::collection::vec(-1e3f64..1e3, 1..32)) {
                let a = DVec(x.clone());
                let b = a.map(|v| v * 0.5 - 1.0);
                prop_assert!((&a + &b).norm2() <= a.norm2() + b.norm2() + 1e-9);
            }
        }
    }
}
