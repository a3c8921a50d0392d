//! Property-based tests for the linear-algebra substrate.

use easeml_linalg::{eigen, project_psd, solve_lower, vec_ops, Cholesky, Lu, Matrix, Qr};
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
    fn rank1_update_then_downdate_roundtrips(
        (a, v) in (2usize..8).prop_flat_map(|n| (spd_matrix(n), vector(n)))
    ) {
        let mut c = Cholesky::factor(&a).unwrap();
        c.rank1_update(&v).unwrap();
        c.rank1_downdate(&v).unwrap();
        prop_assert!(c.reconstruct().approx_eq(&a, 1e-6));
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
    fn lu_solve_residual_is_small(
        (a, b) in (2usize..8).prop_flat_map(|n| (spd_matrix(n), vector(n)))
    ) {
        // SPD matrices are a convenient source of well-conditioned general
        // matrices; LU must agree with a residual check.
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let recon = a.matvec(&x).unwrap();
        for (r, bb) in recon.iter().zip(&b) {
            prop_assert!((r - bb).abs() < 1e-6);
        }
    }

    #[test]
    fn lu_det_matches_cholesky_log_det(
        a in (2usize..8).prop_flat_map(spd_matrix)
    ) {
        let det = Lu::factor(&a).unwrap().det();
        prop_assert!(det > 0.0, "SPD determinant must be positive");
        let log_det = Cholesky::factor(&a).unwrap().log_det();
        prop_assert!((det.ln() - log_det).abs() < 1e-6);
    }

    #[test]
    fn lu_inverse_roundtrips(
        a in (2usize..7).prop_flat_map(spd_matrix)
    ) {
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!(prod.approx_eq(&Matrix::identity(a.rows()), 1e-6));
    }

    #[test]
    fn qr_reconstructs_and_q_is_orthonormal(
        vals in prop::collection::vec(-3.0f64..3.0, 12)
    ) {
        let a = Matrix::from_vec(4, 3, vals);
        let qr = Qr::factor(&a).unwrap();
        prop_assert!(qr.q().matmul(qr.r()).unwrap().approx_eq(&a, 1e-9));
        let qtq = qr.q().transpose().matmul(qr.q()).unwrap();
        // Columns that hit a zero pivot stay zero; check the diagonal is
        // 0-or-1 and off-diagonals vanish.
        for i in 0..3 {
            for j in 0..3 {
                let v = qtq[(i, j)];
                if i == j {
                    prop_assert!(v.abs() < 1e-9 || (v - 1.0).abs() < 1e-9);
                } else {
                    prop_assert!(v.abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_columns(
        (vals, b) in (prop::collection::vec(-2.0f64..2.0, 10), vector(5))
    ) {
        // 5x2 full-rank-ish fit; skip degenerate draws.
        let a = Matrix::from_vec(5, 2, vals);
        let Ok(x) = easeml_linalg::least_squares(&a, &b) else {
            return Ok(()); // rank-deficient draw
        };
        let fitted = a.matvec(&x).unwrap();
        let resid: Vec<f64> = b.iter().zip(&fitted).map(|(bb, f)| bb - f).collect();
        // Normal equations: Aᵀ r = 0.
        for j in 0..2 {
            let col = a.col(j);
            prop_assert!(vec_ops::dot(&col, &resid).abs() < 1e-6);
        }
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
    fn row_gram_entries_are_bit_equal_to_dot(
        (rows, len, vals, zeroed, sign) in (0usize..12, 0usize..65).prop_flat_map(|(n, m)| {
            (
                Just(n),
                Just(m),
                prop::collection::vec(-10.0f64..10.0, n * m),
                0usize..n + 2,
                prop::sample::select(vec![0.0, -0.0]),
            )
        })
    ) {
        // Row counts run past the four-row blocks, and one row may be all
        // (signed) zeros.
        let mut a = Matrix::from_vec(rows, len, vals);
        if zeroed < rows {
            a.row_mut(zeroed).fill(sign);
        }
        let g = a.row_gram();
        prop_assert_eq!(g.shape(), (rows, rows));
        for i in 0..rows {
            for j in 0..rows {
                prop_assert_eq!(g[(i, j)].to_bits(), vec_ops::dot(a.row(i), a.row(j)).to_bits());
            }
        }
    }
}
