//! Property-based tests for the linear-algebra substrate.

use easeml_linalg::{eigen, project_psd, solve_lower, vec_ops, Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy producing a random SPD matrix of the given size as B Bᵀ + n·I.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
        let b = Matrix::from_vec(n, n, vals);
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diag_mut(n as f64 + 1.0);
        a
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs((a, _) in (2usize..9).prop_flat_map(|n| (spd_matrix(n), Just(n)))) {
        let c = Cholesky::factor(&a).unwrap();
        prop_assert!(c.reconstruct().approx_eq(&a, 1e-8));
    }

    #[test]
    fn cholesky_solve_residual_is_small(
        (a, b) in (2usize..9).prop_flat_map(|n| (spd_matrix(n), vector(n)))
    ) {
        let c = Cholesky::factor(&a).unwrap();
        let x = c.solve(&b).unwrap();
        let recon = a.matvec(&x).unwrap();
        for (r, bb) in recon.iter().zip(&b) {
            prop_assert!((r - bb).abs() < 1e-6);
        }
    }

    #[test]
    fn quad_form_is_nonnegative(
        (a, v) in (2usize..9).prop_flat_map(|n| (spd_matrix(n), vector(n)))
    ) {
        let c = Cholesky::factor(&a).unwrap();
        prop_assert!(c.quad_form(&v).unwrap() >= -1e-12);
    }

    #[test]
    fn log_det_matches_eigenvalue_sum(
        a in (2usize..8).prop_flat_map(spd_matrix)
    ) {
        let c = Cholesky::factor(&a).unwrap();
        let e = eigen(&a).unwrap();
        let eig_log_det: f64 = e.values.iter().map(|v| v.ln()).sum();
        prop_assert!((c.log_det() - eig_log_det).abs() < 1e-6);
    }

    #[test]
    fn eigen_reconstructs_symmetric(
        a in (2usize..8).prop_flat_map(spd_matrix)
    ) {
        let e = eigen(&a).unwrap();
        prop_assert!(e.reconstruct().approx_eq(&a, 1e-7));
        // Eigenvalues of SPD matrices are positive and sorted descending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(e.values.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn psd_projection_is_factorable(
        vals in prop::collection::vec(-1.0f64..1.0, 16)
    ) {
        // Arbitrary symmetric (possibly indefinite) 4x4 matrix.
        let mut a = Matrix::from_vec(4, 4, vals);
        a.symmetrize_mut();
        let p = project_psd(&a, 1e-6).unwrap();
        let (c, _) = Cholesky::factor_with_jitter(&p, 1e-10, 10).unwrap();
        prop_assert_eq!(c.dim(), 4);
    }

    #[test]
    fn triangular_solve_residual(
        (a, b) in (2usize..9).prop_flat_map(|n| (spd_matrix(n), vector(n)))
    ) {
        let c = Cholesky::factor(&a).unwrap();
        let y = solve_lower(c.l(), &b).unwrap();
        // L y = b.
        for i in 0..b.len() {
            let got = vec_ops::dot(&c.l().row(i)[..=i], &y[..=i]);
            prop_assert!((got - b[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn matmul_is_associative_enough(
        vals in prop::collection::vec(-1.0f64..1.0, 27)
    ) {
        let a = Matrix::from_vec(3, 3, vals[0..9].to_vec());
        let b = Matrix::from_vec(3, 3, vals[9..18].to_vec());
        let c = Matrix::from_vec(3, 3, vals[18..27].to_vec());
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-10));
    }

    #[test]
    fn transpose_reverses_product(
        vals in prop::collection::vec(-1.0f64..1.0, 24)
    ) {
        let a = Matrix::from_vec(3, 4, vals[0..12].to_vec());
        let b = Matrix::from_vec(4, 3, vals[12..24].to_vec());
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn col_gram_entries_are_bit_equal_to_dot(
        (rows, cols, vals, zeroed, sign) in (0usize..20, 0usize..14).prop_flat_map(|(n, m)| {
            (
                Just(n),
                Just(m),
                prop::collection::vec(-10.0f64..10.0, n * m),
                0usize..n + 2,
                prop::sample::select(vec![0.0, -0.0]),
            )
        })
    ) {
        // Widths run past the 4×4 tiles, and one row may be all (signed)
        // zeros.
        let mut a = Matrix::from_vec(rows, cols, vals);
        if zeroed < rows {
            a.row_mut(zeroed).fill(sign);
        }
        let g = a.col_gram();
        prop_assert_eq!(g.shape(), (cols, cols));
        let columns = a.transpose();
        for i in 0..cols {
            for j in 0..cols {
                let dot = vec_ops::dot(columns.row(i), columns.row(j));
                prop_assert_eq!(g[(i, j)].to_bits(), dot.to_bits());
            }
        }
    }
}
