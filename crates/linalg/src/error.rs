//! Error type shared by the factorizations and solvers.

use std::fmt;

/// Errors produced by factorizations and solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes. Carries `(expected, found)`
    /// rendered as `rows x cols` strings.
    ShapeMismatch {
        /// Shape the operation required.
        expected: (usize, usize),
        /// Shape that was supplied.
        found: (usize, usize),
    },
    /// A matrix that must be square was not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// Cholesky factorization hit a non-positive pivot: the matrix is not
    /// positive definite (within the attempted jitter budget).
    NotPositiveDefinite {
        /// Index of the pivot that failed.
        pivot: usize,
        /// Value of the failing pivot.
        value: f64,
    },
    /// A triangular solve encountered a (near-)zero diagonal entry.
    SingularTriangular {
        /// Index of the zero diagonal entry.
        index: usize,
    },
    /// The Jacobi eigensolver did not converge within its sweep budget.
    EigenNoConvergence {
        /// Off-diagonal norm remaining after the final sweep.
        off_diagonal: f64,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, found } => write!(
                f,
                "shape mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} has value {value:.6e}"
            ),
            LinalgError::SingularTriangular { index } => {
                write!(f, "triangular matrix is singular at diagonal index {index}")
            }
            LinalgError::EigenNoConvergence { off_diagonal } => write!(
                f,
                "Jacobi eigensolver failed to converge (off-diagonal norm {off_diagonal:.3e})"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::ShapeMismatch {
            expected: (3, 4),
            found: (2, 2),
        };
        assert_eq!(e.to_string(), "shape mismatch: expected 3x4, found 2x2");

        let e = LinalgError::NotSquare { rows: 2, cols: 5 };
        assert!(e.to_string().contains("2x5"));

        let e = LinalgError::NotPositiveDefinite {
            pivot: 1,
            value: -0.5,
        };
        assert!(e.to_string().contains("pivot 1"));

        let e = LinalgError::SingularTriangular { index: 7 };
        assert!(e.to_string().contains("index 7"));

        let e = LinalgError::EigenNoConvergence { off_diagonal: 1e-3 };
        assert!(e.to_string().contains("converge"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            LinalgError::SingularTriangular { index: 1 },
            LinalgError::SingularTriangular { index: 1 }
        );
        assert_ne!(
            LinalgError::SingularTriangular { index: 1 },
            LinalgError::SingularTriangular { index: 2 }
        );
    }
}
