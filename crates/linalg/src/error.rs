//! Error type shared by the factorizations and solvers.

use std::fmt;

/// Errors produced by the linear algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes. Carries `(what, got, expected)`.
    ShapeMismatch {
        /// Operation that failed, e.g. `"matvec"`.
        op: &'static str,
        /// Offending dimensions as reported by the caller.
        got: (usize, usize),
        /// Dimensions that would have been accepted.
        expected: (usize, usize),
    },
    /// A factorization hit an (effectively) zero pivot at the given index.
    SingularMatrix {
        /// Pivot index where breakdown occurred.
        pivot: usize,
        /// Magnitude of the offending pivot.
        value: f64,
    },
    /// Cholesky was asked to factor a matrix that is not positive definite.
    NotPositiveDefinite {
        /// Row at which the failure was detected.
        row: usize,
    },
    /// An unpivoted factorization met a pivot smaller than its threshold
    /// times an entry below it: the operator needs row interchanges.
    UnstablePivot {
        /// Original row index of the pivot.
        pivot: usize,
        /// `|pivot| / |entry|` for the offending entry below it.
        ratio: f64,
    },
    /// A factorization failed its own residual check: one solve for a
    /// known answer missed the bound.
    InaccurateFactor {
        /// Normwise relative residual of the check solve.
        residual: f64,
        /// The bound it had to meet.
        bound: f64,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, got, expected } => write!(
                f,
                "shape mismatch in {op}: got {}x{}, expected {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            LinalgError::SingularMatrix { pivot, value } => {
                write!(
                    f,
                    "singular matrix: pivot {pivot} has magnitude {value:.3e}"
                )
            }
            LinalgError::NotPositiveDefinite { row } => {
                write!(f, "matrix is not positive definite (detected at row {row})")
            }
            LinalgError::UnstablePivot { pivot, ratio } => write!(
                f,
                "unstable pivot at row {pivot}: {ratio:.3e} of an entry below it; \
                 the operator needs row interchanges"
            ),
            LinalgError::InaccurateFactor { residual, bound } => write!(
                f,
                "factor failed its residual check: {residual:.3e} > {bound:.1e}"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::ShapeMismatch {
            op: "matvec",
            got: (3, 4),
            expected: (4, 4),
        };
        assert!(e.to_string().contains("matvec"));
        let e = LinalgError::SingularMatrix {
            pivot: 7,
            value: 1e-20,
        };
        assert!(e.to_string().contains("pivot 7"));
        let e = LinalgError::NotPositiveDefinite { row: 2 };
        assert!(e.to_string().contains("row 2"));
        let e = LinalgError::UnstablePivot {
            pivot: 3,
            ratio: 0.0,
        };
        assert!(e.to_string().contains("row 3"));
        let e = LinalgError::InaccurateFactor {
            residual: 1e-3,
            bound: 1e-10,
        };
        assert!(e.to_string().contains("residual check"));
    }
}
