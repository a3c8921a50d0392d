//! Cholesky factorization of symmetric positive-definite matrices.

use crate::triangular::{solve_lower, solve_lower_transpose};
use crate::{LinalgError, Matrix, Result};

/// Columns per panel of [`Cholesky::factor`].
const PANEL: usize = 4;

/// Lower-triangular Cholesky factor `L` of an SPD matrix `A = L Lᵀ`, with
/// solves, quadratic forms and the log-determinant.
///
/// # Examples
///
/// ```
/// use easeml_linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = Cholesky::factor(&a).unwrap();
/// let x = chol.solve(&[2.0, 1.0]).unwrap();
/// let b = a.matvec(&x).unwrap();
/// assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors an SPD matrix.
    ///
    /// Entry (i, j) of `L`, j ≤ i, starts from `A[i][j]` and subtracts
    /// `L[i][m]·L[j][m]` for m = 0, 1, …, j − 1 in that order; an
    /// off-diagonal entry then divides by `L[j][j]`, a diagonal one takes
    /// the square root. Only the lower triangle of `a` is read.
    ///
    /// The loop is right-looking, in panels of four columns. A panel's
    /// columns are finished first, then each row below the panel subtracts
    /// the panel's four products from all its trailing entries in one
    /// contiguous pass, `x = (((x − l₀p₀) − l₁p₁) − l₂p₂) − l₃p₃`. That
    /// vectorises along the row and keeps every entry's order above, so `L`
    /// and every error are bit-identical to a row-by-row loop.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] for the first pivot that is
    /// non-positive or not finite.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let _timing = easeml_obs::global_timer(easeml_obs::Component::CholeskyFactor);
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        // `L` overwrites a copy of `A`'s lower triangle.
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        // The panel's columns, transposed: `panel[m * n + j] = L[j][p + m]`.
        let mut panel = vec![0.0; PANEL * n];
        let mut p = 0;
        while p < n {
            let end = (p + PANEL).min(n);
            // Finish columns p..end; rows above `i` are final in them.
            for i in p..n {
                let (done, rest) = l.as_mut_slice().split_at_mut(i * n);
                let row = &mut rest[..=i];
                for j in p..end.min(i) {
                    let row_j = &done[j * n..=j * n + j];
                    let mut s = row[j];
                    for (x, y) in row[p..j].iter().zip(&row_j[p..j]) {
                        s -= x * y;
                    }
                    row[j] = s / row_j[j];
                }
                if i < end {
                    let mut s = row[i];
                    for x in &row[p..i] {
                        s -= x * x;
                    }
                    if s <= 0.0 || !s.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i, value: s });
                    }
                    row[i] = s.sqrt();
                }
            }
            if end == n {
                break;
            }
            // A panel with rows below it is a full one.
            for j in end..n {
                for (m, c) in l.row(j)[p..end].iter().enumerate() {
                    panel[m * n + j] = *c;
                }
            }
            let (p0, rest) = panel.split_at(n);
            let (p1, rest) = rest.split_at(n);
            let (p2, p3) = rest.split_at(n);
            for i in end..n {
                let (left, right) = l.row_mut(i).split_at_mut(end);
                let [l0, l1, l2, l3] = [left[p], left[p + 1], left[p + 2], left[p + 3]];
                let span = end..=i;
                let trailing = right[..=i - end]
                    .iter_mut()
                    .zip(&p0[span.clone()])
                    .zip(&p1[span.clone()])
                    .zip(&p2[span.clone()])
                    .zip(&p3[span]);
                for ((((x, c0), c1), c2), c3) in trailing {
                    *x = (((*x - l0 * c0) - l1 * c1) - l2 * c2) - l3 * c3;
                }
            }
            p = end;
        }
        Ok(Cholesky { l })
    }

    /// Factors `a`, retrying with exponentially growing diagonal jitter when
    /// the matrix is positive *semi*-definite or mildly indefinite — the
    /// normal state of affairs for empirical kernel matrices built from
    /// finite samples.
    ///
    /// Jitter starts at `initial_jitter` (scaled by the mean diagonal) and is
    /// multiplied by 10 for up to `attempts` tries. Returns the factor and
    /// the jitter that succeeded.
    ///
    /// # Errors
    ///
    /// Propagates the final [`LinalgError::NotPositiveDefinite`] when even
    /// the largest jitter fails.
    pub fn factor_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        attempts: usize,
    ) -> Result<(Self, f64)> {
        match Self::factor(a) {
            Ok(c) => return Ok((c, 0.0)),
            Err(LinalgError::NotSquare { rows, cols }) => {
                return Err(LinalgError::NotSquare { rows, cols })
            }
            Err(_) => {}
        }
        let diag_scale = {
            let d = a.diag();
            let m = crate::vec_ops::mean(&d).abs();
            if m > 0.0 {
                m
            } else {
                1.0
            }
        };
        let mut jitter = initial_jitter * diag_scale;
        let mut last_err = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        for attempt in 1..=attempts {
            let mut aj = a.clone();
            aj.add_diag_mut(jitter);
            match Self::factor(&aj) {
                Ok(c) => {
                    easeml_obs::global_handle().emit(|| easeml_obs::Event::JitterRetry {
                        attempts: attempt as u64,
                        jitter,
                        parent: easeml_obs::current_span(),
                    });
                    return Ok((c, jitter));
                }
                Err(e) => last_err = e,
            }
            jitter *= 10.0;
        }
        Err(last_err)
    }

    /// Creates an empty 0×0 factor.
    pub fn empty() -> Self {
        Cholesky {
            l: Matrix::zeros(0, 0),
        }
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    #[inline]
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Cheap 2-norm condition-number estimate of the factored matrix:
    /// [`diagonal_condition_estimate`] of `L`'s diagonal.
    pub fn condition_estimate(&self) -> f64 {
        diagonal_condition_estimate((0..self.dim()).map(|i| self.l[(i, i)]))
    }

    /// Solves `A x = b` using the factor (`L Lᵀ x = b`).
    ///
    /// # Errors
    ///
    /// Shape errors when `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let _timing = easeml_obs::global_timer(easeml_obs::Component::CholeskySolve);
        let y = solve_lower(&self.l, b)?;
        solve_lower_transpose(&self.l, &y)
    }

    /// Solves `L y = b` (half-solve). The squared norm of the result is the
    /// quadratic form `bᵀ A⁻¹ b`, which is exactly what the GP posterior
    /// variance needs.
    ///
    /// # Errors
    ///
    /// Shape errors when `b.len() != dim()`.
    pub fn half_solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        solve_lower(&self.l, b)
    }

    /// Quadratic form `bᵀ A⁻¹ b`, always ≥ 0 for SPD `A`.
    ///
    /// # Errors
    ///
    /// Shape errors when `b.len() != dim()`.
    pub fn quad_form(&self, b: &[f64]) -> Result<f64> {
        let y = self.half_solve(b)?;
        Ok(crate::vec_ops::dot(&y, &y))
    }

    /// Natural logarithm of `det(A) = det(L)²`.
    pub fn log_det(&self) -> f64 {
        2.0 * (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>()
    }

    /// Reconstructs `A = L Lᵀ` (mainly for testing and diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| {
            let k = i.min(j) + 1;
            (0..k).map(|t| self.l[(i, t)] * self.l[(j, t)]).sum()
        })
    }
}

/// Cheap 2-norm condition-number estimate of `A = L Lᵀ` from the diagonal
/// of its Cholesky factor `L`: `(max Lᵢᵢ / min Lᵢᵢ)²`. The diagonal brackets
/// the singular values of `A`, so this underestimates the true κ₂ but tracks
/// its growth — enough to flag numerical degradation in telemetry without an
/// O(n³) SVD. Returns 1 for an empty diagonal and ∞ when an entry is ≤ 0.
pub fn diagonal_condition_estimate(diagonal: impl IntoIterator<Item = f64>) -> f64 {
    let mut diagonal = diagonal.into_iter().peekable();
    if diagonal.peek().is_none() {
        return 1.0;
    }
    let (min, max) = diagonal.fold((f64::INFINITY, 0.0f64), |(min, max), d| {
        (min.min(d), max.max(d))
    });
    if min <= 0.0 {
        return f64::INFINITY;
    }
    let ratio = max / min;
    ratio * ratio
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-conditioned SPD test matrix: B Bᵀ + n·I for a fixed B.
    fn spd(n: usize, seed: u64) -> Matrix {
        // Simple deterministic LCG so tests do not need a rand dependency
        // in this module.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diag_mut(n as f64);
        a
    }

    #[test]
    fn condition_estimate_tracks_diagonal_spread() {
        assert_eq!(Cholesky::empty().condition_estimate(), 1.0);
        let id = Cholesky::factor(&Matrix::identity(4)).unwrap();
        assert!((id.condition_estimate() - 1.0).abs() < 1e-12);
        // diag(100, 1): L = diag(10, 1), estimate (10/1)² = true κ₂ = 100.
        let skewed = Cholesky::factor(&Matrix::from_diag(&[100.0, 1.0])).unwrap();
        assert!((skewed.condition_estimate() - 100.0).abs() < 1e-9);
        // The estimate never exceeds, and grows with, the true κ₂.
        let a = spd(6, 3);
        let c = Cholesky::factor(&a).unwrap();
        assert!(c.condition_estimate() >= 1.0);
    }

    #[test]
    fn numerical_health_events_reach_the_global_recorder() {
        // The global recorder is process state; this single test covers
        // both emission sites (jitter retry + PSD projection) to avoid
        // racing another test for it under the parallel runner.
        let recorder = std::sync::Arc::new(easeml_obs::InMemoryRecorder::new());
        let previous = easeml_obs::set_global_recorder(Some(recorder.clone()));

        // Indefinite matrix: plain factorization fails, jitter rescues it.
        let ind = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let psd = crate::project_psd(&ind, 0.0).unwrap();
        let _ = Cholesky::factor_with_jitter(&psd, 1e-10, 12).unwrap();

        easeml_obs::set_global_recorder(previous);
        let events = recorder.events();
        let jitter: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, easeml_obs::Event::JitterRetry { .. }))
            .collect();
        assert_eq!(jitter.len(), 1, "{events:?}");
        match jitter[0] {
            easeml_obs::Event::JitterRetry {
                attempts, jitter, ..
            } => {
                assert!(*attempts >= 1);
                assert!(*jitter > 0.0);
            }
            _ => unreachable!(),
        }
        let proj: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                easeml_obs::Event::PsdProjectionApplied {
                    clipped,
                    clipped_mass,
                    ..
                } => Some((*clipped, *clipped_mass)),
                _ => None,
            })
            .collect();
        assert_eq!(proj.len(), 1, "{events:?}");
        let (clipped, mass) = proj[0];
        assert_eq!(clipped, 1, "one eigenvalue (−1) clipped to 0");
        assert!((mass - 1.0).abs() < 1e-9, "clipped mass ≈ 1, got {mass}");
    }

    #[test]
    fn factor_and_reconstruct() {
        for n in [1, 2, 5, 12] {
            let a = spd(n, n as u64);
            let c = Cholesky::factor(&a).unwrap();
            assert!(c.reconstruct().approx_eq(&a, 1e-9), "n = {n}");
        }
    }

    /// The textbook `(i, k)`-indexed kernel: the operations, in order, that
    /// `Cholesky::factor` must perform.
    fn factor_by_index(a: &Matrix) -> Result<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i, value: s });
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// The same kernel on row slices, unblocked: row `i` fills left to
    /// right from the final rows above it.
    fn factor_by_rows(a: &Matrix) -> Result<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let (done, rest) = l.as_mut_slice().split_at_mut(i * n);
            let row = &mut rest[..=i];
            let a_row = a.row(i);
            for j in 0..i {
                let row_j = &done[j * n..=j * n + j];
                let mut s = a_row[j];
                for (x, y) in row[..j].iter().zip(row_j) {
                    s -= x * y;
                }
                row[j] = s / row_j[j];
            }
            let mut s = a_row[i];
            for x in &row[..i] {
                s -= x * x;
            }
            if s <= 0.0 || !s.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i, value: s });
            }
            row[i] = s.sqrt();
        }
        Ok(l)
    }

    /// `L`'s bits on success; the failing pivot and its value's bits
    /// otherwise.
    fn factor_bits(l: Result<Matrix>) -> std::result::Result<Vec<u64>, (usize, u64)> {
        match l {
            Ok(l) => Ok(l.as_slice().iter().map(|x| x.to_bits()).collect()),
            Err(LinalgError::NotPositiveDefinite { pivot, value }) => Err((pivot, value.to_bits())),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn factor_is_bit_identical_to_the_row_loop_and_the_indexed_kernel() {
        // Every panel remainder, on SPD, semi-definite, indefinite and
        // NaN-bearing input; a NaN above the diagonal is never read.
        let mut failures = 0;
        for n in 0..=40 {
            let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let semi = Matrix::from_fn(n, n, |i, j| v[i] * v[j]);
            let mut indefinite = spd(n, 7 + n as u64);
            let mut nan_below = spd(n, 8 + n as u64);
            let mut nan_above = spd(n, 9 + n as u64);
            if n > 0 {
                indefinite[(n - 1, n - 1)] = -1.0;
                indefinite[(n / 2, n / 2)] -= 2.0 * n as f64;
                nan_below[(n - 1, n / 3)] = f64::NAN;
                nan_above[(n / 3, n - 1)] = f64::NAN;
            }
            for (what, a) in [
                ("spd", spd(n, 100 * n as u64)),
                ("semi-definite", semi),
                ("indefinite", indefinite),
                ("NaN below the diagonal", nan_below),
                ("NaN above the diagonal", nan_above),
            ] {
                let want = factor_bits(factor_by_rows(&a));
                failures += usize::from(want.is_err());
                let got = factor_bits(Cholesky::factor(&a).map(|c| c.l().clone()));
                assert_eq!(got, want, "{what}, n = {n}");
                assert_eq!(factor_bits(factor_by_index(&a)), want, "{what}, n = {n}");
            }
        }
        assert!(failures > 80, "only {failures} inputs failed to factor");
    }

    #[test]
    fn solve_inverts() {
        let a = spd(6, 42);
        let c = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();
        let x = c.solve(&b).unwrap();
        let recon = a.matvec(&x).unwrap();
        for (r, bb) in recon.iter().zip(&b) {
            assert!((r - bb).abs() < 1e-9);
        }
    }

    #[test]
    fn quad_form_is_positive_and_consistent() {
        let a = spd(5, 7);
        let c = Cholesky::factor(&a).unwrap();
        let v = [1.0, -1.0, 0.5, 2.0, 0.0];
        let q = c.quad_form(&v).unwrap();
        assert!(q > 0.0);
        // Compare with explicit x = A⁻¹ v, q = vᵀx.
        let x = c.solve(&v).unwrap();
        assert!((q - crate::vec_ops::dot(&v, &x)).abs() < 1e-9);
    }

    #[test]
    fn log_det_matches_2x2_closed_form() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let c = Cholesky::factor(&a).unwrap();
        let det: f64 = 4.0 * 3.0 - 2.0 * 2.0;
        assert!((c.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn jitter_rescues_psd_matrix() {
        // Rank-deficient PSD matrix (outer product).
        let v = [1.0, 2.0, 3.0];
        let a = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        assert!(Cholesky::factor(&a).is_err());
        let (c, jitter) = Cholesky::factor_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn jitter_passes_through_non_square_error() {
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor_with_jitter(&rect, 1e-10, 3),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn empty_factor_behaviour() {
        let c = Cholesky::empty();
        assert_eq!(c.dim(), 0);
        assert_eq!(c.log_det(), 0.0);
        assert_eq!(c.solve(&[]).unwrap(), Vec::<f64>::new());
        assert_eq!(c.quad_form(&[]).unwrap(), 0.0);
    }
}
