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
    /// An iterative solver failed to reach the requested tolerance.
    NotConverged {
        /// Solver name, e.g. `"gmres"`.
        solver: &'static str,
        /// Iterations actually performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// An iterative solver broke down (division by a vanishing inner product).
    Breakdown {
        /// Solver name.
        solver: &'static str,
        /// Human-readable detail.
        detail: &'static str,
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
            LinalgError::NotConverged {
                solver,
                iterations,
                residual,
            } => write!(
                f,
                "{solver} did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::Breakdown { solver, detail } => {
                write!(f, "{solver} breakdown: {detail}")
            }
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
        let e = LinalgError::NotConverged {
            solver: "gmres",
            iterations: 100,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("gmres"));
        let e = LinalgError::NotPositiveDefinite { row: 2 };
        assert!(e.to_string().contains("row 2"));
        let e = LinalgError::Breakdown {
            solver: "gmres",
            detail: "rho ~ 0",
        };
        assert!(e.to_string().contains("rho ~ 0"));
    }
}
