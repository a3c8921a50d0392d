//! Forward and backward substitution for triangular systems.

use crate::{LinalgError, Matrix, Result};

const SINGULARITY_TOL: f64 = 1e-300;

fn check_square_system(m: &Matrix, b: &[f64]) -> Result<()> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    if b.len() != m.rows() {
        return Err(LinalgError::ShapeMismatch {
            expected: (m.rows(), 1),
            found: (b.len(), 1),
        });
    }
    Ok(())
}

/// Solves `L x = b` where `L` is lower triangular (entries above the
/// diagonal are ignored).
///
/// # Errors
///
/// Returns [`LinalgError::SingularTriangular`] on a zero diagonal entry and
/// shape errors when `L` is not square or `b` has the wrong length.
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    check_square_system(l, b)?;
    let n = l.rows();
    let mut x = b.to_vec();
    for i in 0..n {
        let row = l.row(i);
        let mut s = x[i];
        for j in 0..i {
            s -= row[j] * x[j];
        }
        let d = row[i];
        if d.abs() < SINGULARITY_TOL {
            return Err(LinalgError::SingularTriangular { index: i });
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// Solves `Lᵀ x = b` given lower-triangular `L`, without materializing the
/// transpose. This is the second half of a Cholesky solve.
///
/// # Errors
///
/// Same failure modes as [`solve_lower`].
pub fn solve_lower_transpose(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    check_square_system(l, b)?;
    let n = l.rows();
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut s = x[i];
        // Lᵀ[i][j] = L[j][i] for j > i.
        for j in (i + 1)..n {
            s -= l[(j, i)] * x[j];
        }
        let d = l[(i, i)];
        if d.abs() < SINGULARITY_TOL {
            return Err(LinalgError::SingularTriangular { index: i });
        }
        x[i] = s / d;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec_ops::dot;

    fn lower3() -> Matrix {
        Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[4.0, -1.0, 5.0]])
    }

    #[test]
    fn solve_lower_matches_forward_elimination() {
        let l = lower3();
        let b = [2.0, 7.0, 12.0];
        let x = solve_lower(&l, &b).unwrap();
        // Verify L x = b.
        for i in 0..3 {
            assert!((dot(&l.row(i)[..=i], &x[..=i]) - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_solver_inverts_the_explicit_transpose() {
        let l = lower3();
        let b = [1.0, -2.0, 0.5];
        let x = solve_lower_transpose(&l, &b).unwrap();
        let recon = l.transpose().matvec(&x).unwrap();
        for i in 0..3 {
            assert!((recon[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_diagonal_is_detected() {
        let l = Matrix::from_rows(&[&[1.0, 0.0], &[5.0, 0.0]]);
        assert_eq!(
            solve_lower(&l, &[1.0, 1.0]),
            Err(LinalgError::SingularTriangular { index: 1 })
        );
        assert!(solve_lower_transpose(&l, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn shape_errors() {
        let l = Matrix::zeros(2, 3);
        assert!(matches!(
            solve_lower(&l, &[1.0, 1.0]),
            Err(LinalgError::NotSquare { .. })
        ));
        let l = Matrix::identity(2);
        assert!(matches!(
            solve_lower_transpose(&l, &[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn identity_solves_are_no_ops() {
        let id = Matrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        for f in [solve_lower, solve_lower_transpose] {
            assert_eq!(f(&id, &b).unwrap(), b.to_vec());
        }
    }
}
