//! The Gaussian prior over a user's candidate arms.

use crate::kernel::Kernel;
use easeml_linalg::{project_psd, Cholesky, Matrix};
use std::sync::Arc;

/// Prior belief `N(μ₀, Σ)` over the qualities of K candidate models.
///
/// The covariance is validated (and, if necessary, repaired) at construction
/// so the posterior never has to worry about indefinite priors: empirical
/// Gram matrices are symmetrized and, when not factorable even with a small
/// jitter, projected onto the PSD cone by eigenvalue clipping.
///
/// As a convention (and per the paper's Appendix A) the prior mean is zero
/// for GPs not conditioned on data; [`ArmPrior::with_mean`] overrides this
/// when rewards are not centered.
///
/// The K×K covariance is shared, not copied, by clones: the tenants of one
/// split, every posterior built on the prior and every GP-BUCB
/// hallucination all read one matrix.
#[derive(Debug, Clone)]
pub struct ArmPrior {
    mean: Vec<f64>,
    cov: Arc<Matrix>,
}

impl ArmPrior {
    /// Builds a zero-mean prior from a raw covariance (Gram) matrix,
    /// repairing asymmetry and indefiniteness.
    ///
    /// # Panics
    ///
    /// Panics if `gram` is not square or is empty.
    pub fn from_gram(gram: Matrix) -> Self {
        assert!(gram.is_square(), "prior covariance must be square");
        assert!(gram.rows() > 0, "prior needs at least one arm");
        let mut cov = gram;
        cov.symmetrize_mut();
        // Accept the matrix if it is factorable with at most a tiny jitter;
        // otherwise clip negative eigenvalues.
        if Cholesky::factor_with_jitter(&cov, 1e-12, 4).is_err() {
            cov = project_psd(&cov, 0.0).expect("PSD projection of symmetric matrix cannot fail");
        }
        let k = cov.rows();
        ArmPrior {
            mean: vec![0.0; k],
            cov: Arc::new(cov),
        }
    }

    /// [`ArmPrior::from_gram`] for a covariance known to be a ridged Gram
    /// matrix, accepted on an O(K) certificate instead of a factorization.
    ///
    /// `cov` must be exactly symmetric and hold the computed value of
    /// `s·(G/t + ρI)`: each entry of `G` a floating-point dot product of
    /// `terms` products (as [`Matrix::col_gram`] forms it), then divided,
    /// ridged and scaled with at most three more roundings. `ridge` is
    /// `s·ρ > 0`. When the certificate below holds, `from_gram` would
    /// factor `cov` without error and return it unchanged, so this returns
    /// the same bits without the O(K³) factorization; otherwise it runs
    /// `from_gram`.
    ///
    /// The certificate is Demmel's sufficient condition for floating-point
    /// Cholesky to run to completion (Higham, *Accuracy and Stability of
    /// Numerical Algorithms*, 2nd ed., Thm 10.7): for symmetric `A` of
    /// order n with positive diagonal D,
    ///
    /// ```text
    /// λ_min(D^-½·A·D^-½) > n·γ_{n+1} / (1 − γ_{n+1}),   γ_m = m·u / (1 − m·u),
    /// ```
    ///
    /// with u = 2⁻⁵³ and no overflow or underflow. Its left side is at
    /// least `λ_min(A) / max D`. Write `A = s·(G/t + ρI) + E` with `G` the
    /// exact Gram of the vectors `c_i` behind the rows, m = `terms`. The
    /// exact `s·G/t` is positive semi-definite, so `λ_min(A) ≥ s·ρ − ‖E‖₂`
    /// (Weyl). A dot product of m terms errs by at most `γ_m·Σ|x_k·y_k|`,
    /// so the computed Gram is `G + F` with `|F_ij| ≤ γ_m·‖c_i‖·‖c_j‖`, and
    /// `‖F‖₂ ≤ ‖F‖_F ≤ γ_m·Σ‖c_i‖² = γ_m·tr G`. The last three roundings
    /// add at most `γ_3·(1 + γ_m)` times the exact trace, so
    /// `‖E‖₂ ≤ γ_{m+3}·tr(s·(G/t + ρI))`. A diagonal entry sums
    /// non-negative terms, so that trace is at most `tr A / (1 − γ_{m+3})`.
    /// The check doubles both rounding terms, which covers the roundings of
    /// `tr A` and of `ridge` themselves:
    ///
    /// ```text
    /// ridge − 2·γ_{m+3}·tr A / (1 − γ_{m+3})  >  2·max D · n·γ_{n+1} / (1 − γ_{n+1}).
    /// ```
    ///
    /// The diagonal must also lie in [1e-100, 1e100], so that no product
    /// overflows and underflow's absolute errors stay far below the margin.
    /// On 800 empirical 179CLASSIFIER priors (ρ = 10⁻³ × the mean diagonal,
    /// T = 111, scales 0.3, 1 and 3) the left side was at least 5·10⁷ times
    /// the right.
    ///
    /// # Panics
    ///
    /// As [`ArmPrior::from_gram`].
    pub fn from_ridged_gram(cov: Matrix, ridge: f64, terms: usize) -> Self {
        if ridged_gram_certified(&cov, ridge, terms) {
            debug_assert_eq!(cov.asymmetry(), 0.0, "a Gram matrix is exactly symmetric");
            let k = cov.rows();
            ArmPrior {
                mean: vec![0.0; k],
                cov: Arc::new(cov),
            }
        } else {
            Self::from_gram(cov)
        }
    }

    /// Builds a zero-mean prior by evaluating `kernel` on per-arm feature
    /// vectors.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty.
    pub fn from_kernel<K: Kernel + ?Sized>(kernel: &K, features: &[Vec<f64>]) -> Self {
        assert!(!features.is_empty(), "prior needs at least one arm");
        Self::from_gram(kernel.gram(features))
    }

    /// An uninformative prior: zero mean, `variance · I`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `variance <= 0`.
    pub fn independent(k: usize, variance: f64) -> Self {
        assert!(k > 0, "prior needs at least one arm");
        assert!(variance > 0.0, "prior variance must be positive");
        ArmPrior {
            mean: vec![0.0; k],
            cov: Arc::new(Matrix::from_diag(&vec![variance; k])),
        }
    }

    /// Replaces the prior mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean.len()` does not match the number of arms.
    pub fn with_mean(mut self, mean: Vec<f64>) -> Self {
        assert_eq!(mean.len(), self.num_arms(), "prior mean length mismatch");
        self.mean = mean;
        self
    }

    /// Scales the covariance by `s` (an output-variance hyperparameter).
    ///
    /// # Panics
    ///
    /// Panics if `s <= 0`.
    pub fn scaled(mut self, s: f64) -> Self {
        assert!(s > 0.0, "covariance scale must be positive");
        Arc::make_mut(&mut self.cov).scale_mut(s);
        self
    }

    /// Number of arms K.
    #[inline]
    pub fn num_arms(&self) -> usize {
        self.cov.rows()
    }

    /// Prior mean vector μ₀.
    #[inline]
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Prior covariance Σ.
    #[inline]
    pub fn cov(&self) -> &Matrix {
        &self.cov
    }

    /// Prior variance of arm `k` (the diagonal entry Σ(k,k)).
    #[inline]
    pub fn var(&self, k: usize) -> f64 {
        self.cov[(k, k)]
    }
}

/// `γ_m / (1 − γ_m)` with `γ_m = m·u / (1 − m·u)`, which is `m·u / (1 − 2m·u)`;
/// infinite once `m·u ≥ ½`.
fn rounding_ratio(m: usize) -> f64 {
    let mu = m as f64 * (f64::EPSILON / 2.0);
    if mu < 0.5 {
        mu / (1.0 - 2.0 * mu)
    } else {
        f64::INFINITY
    }
}

/// The certificate of [`ArmPrior::from_ridged_gram`]: O(K), reading only
/// the diagonal.
fn ridged_gram_certified(cov: &Matrix, ridge: f64, terms: usize) -> bool {
    let n = cov.rows();
    if !cov.is_square() || n == 0 {
        return false;
    }
    let (mut trace, mut max_d) = (0.0, 0.0f64);
    for i in 0..n {
        let d = cov[(i, i)];
        if !(1e-100..=1e100).contains(&d) {
            return false;
        }
        trace += d;
        max_d = max_d.max(d);
    }
    let rounding = 2.0 * rounding_ratio(terms.saturating_add(3)) * trace;
    let threshold = 2.0 * max_d * n as f64 * rounding_ratio(n + 1);
    ridge - rounding > threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::RbfKernel;
    use proptest::prelude::*;

    #[test]
    fn independent_prior() {
        let p = ArmPrior::independent(3, 2.0);
        assert_eq!(p.num_arms(), 3);
        assert_eq!(p.mean(), &[0.0, 0.0, 0.0]);
        assert_eq!(p.var(1), 2.0);
        assert_eq!(p.cov()[(0, 1)], 0.0);
    }

    #[test]
    fn from_kernel_builds_gram() {
        let feats = vec![vec![0.0], vec![1.0]];
        let p = ArmPrior::from_kernel(&RbfKernel::new(1.0), &feats);
        assert_eq!(p.num_arms(), 2);
        assert!((p.var(0) - 1.0).abs() < 1e-12);
        assert!(p.cov()[(0, 1)] > 0.0 && p.cov()[(0, 1)] < 1.0);
    }

    #[test]
    fn indefinite_gram_is_repaired() {
        // Eigenvalues 3 and −1: genuinely indefinite.
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let p = ArmPrior::from_gram(g);
        // The repaired covariance must be factorable (with tiny jitter).
        assert!(Cholesky::factor_with_jitter(p.cov(), 1e-10, 8).is_ok());
        // The dominant structure survives: positive cross-covariance.
        assert!(p.cov()[(0, 1)] > 0.0);
    }

    #[test]
    fn asymmetric_gram_is_symmetrized() {
        let g = Matrix::from_rows(&[&[1.0, 0.30001], &[0.29999, 1.0]]);
        let p = ArmPrior::from_gram(g);
        assert_eq!(p.cov().asymmetry(), 0.0);
        assert!((p.cov()[(0, 1)] - 0.3).abs() < 1e-5);
    }

    #[test]
    fn with_mean_and_scaled() {
        let p = ArmPrior::independent(2, 1.0)
            .with_mean(vec![0.5, 0.7])
            .scaled(4.0);
        assert_eq!(p.mean(), &[0.5, 0.7]);
        assert_eq!(p.var(0), 4.0);
    }

    #[test]
    fn clones_share_the_covariance_until_rescaled() {
        let p = ArmPrior::independent(3, 1.0);
        let q = p.clone();
        assert!(std::ptr::eq(p.cov(), q.cov()));
        let r = q.scaled(2.0);
        assert_eq!(p.var(0), 1.0);
        assert_eq!(r.var(0), 2.0);
    }

    fn cov_bits(p: &ArmPrior) -> Vec<u64> {
        p.cov().as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// `s·(G/t + ρI)` in the empirical prior's operation order, with `G` the
    /// column Gram of `users` (t rows of K entries).
    fn ridged(users: &Matrix, rho: f64, s: f64) -> Matrix {
        let t = users.rows() as f64;
        let mut cov = users.col_gram();
        for v in cov.as_mut_slice() {
            *v /= t;
        }
        cov.add_diag_mut(rho);
        cov.scale_mut(s);
        cov
    }

    #[test]
    fn an_uncertified_gram_gets_from_grams_bits() {
        let users = Matrix::from_fn(3, 6, |i, j| ((i * 6 + j) as f64 * 0.7).sin());
        let singular = ridged(&users, 0.0, 1.0);
        assert!(Cholesky::factor(&singular).is_err());
        let mut zero_diag = ridged(&users, 1e-3, 1.0);
        zero_diag[(2, 2)] = 0.0;
        let mut huge = ridged(&users, 1e-3, 1.0);
        huge[(0, 0)] = 1e101;
        for (what, cov, ridge) in [
            // from_gram's jitter retry accepts it and keeps it.
            ("rank 3 of 6, no ridge", singular, 0.0),
            (
                "a ridge below the threshold",
                ridged(&users, 1e-15, 1.0),
                1e-15,
            ),
            ("a zero diagonal entry", zero_diag, 1e-3),
            ("a diagonal entry past 1e100", huge, 1e-3),
            // from_gram projects it onto the PSD cone.
            (
                "indefinite",
                Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]),
                0.0,
            ),
        ] {
            assert!(!ridged_gram_certified(&cov, ridge, 3), "{what}");
            assert_eq!(
                cov_bits(&ArmPrior::from_ridged_gram(cov.clone(), ridge, 3)),
                cov_bits(&ArmPrior::from_gram(cov)),
                "{what}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_certificate_never_admits_a_matrix_cholesky_rejects(
            (mut users, twin, zero, log_scale) in (1usize..30, 1usize..40)
                .prop_flat_map(|(k, t)| {
                    (
                        prop::collection::vec(-1.0f64..1.0, t * k)
                            .prop_map(move |v| Matrix::from_vec(t, k, v)),
                        0usize..t + 1,
                        0usize..t + 2,
                        -8.0f64..8.0,
                    )
                })
        ) {
            // One user may repeat the first and one may be all zeros; with
            // T < K, G is singular anyway.
            let t = users.rows();
            if (1..t).contains(&twin) {
                let first = users.row(0).to_vec();
                users.row_mut(twin).copy_from_slice(&first);
            }
            if zero < t {
                users.row_mut(zero).fill(0.0);
            }
            let s = 10f64.powf(log_scale);
            // Every certified matrix factors, and gets from_gram's bits.
            let check = |rho: f64| -> Result<bool, TestCaseError> {
                let cov = ridged(&users, rho, s);
                let certified = ridged_gram_certified(&cov, s * rho, t);
                if certified {
                    prop_assert!(
                        Cholesky::factor(&cov).is_ok(),
                        "certified, yet not factorable at ρ = {rho}, s = {s}"
                    );
                    prop_assert_eq!(
                        cov_bits(&ArmPrior::from_ridged_gram(cov.clone(), s * rho, t)),
                        cov_bits(&ArmPrior::from_gram(cov))
                    );
                }
                Ok(certified)
            };
            // The empirical prior's ridge, 10⁻³ × the mean diagonal, is
            // certified; no ridge is not.
            let mean_diag = ridged(&users, 0.0, 1.0).diag().iter().sum::<f64>() / users.cols() as f64;
            let (mut lo, mut hi) = (0.0, 1e-3 * mean_diag.max(1e-6));
            prop_assert!(check(hi)?, "the empirical ridge {hi} is not certified");
            prop_assert!(!check(lo)?);
            // Down to the threshold from both sides, then past it.
            for _ in 0..64 {
                let mid = 0.5 * (lo + hi);
                if check(mid)? {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            for past in [1.0 - 1e-12, 0.999, 0.9, 0.5, 1e-3] {
                check(hi * past)?;
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn empty_prior_panics() {
        let _ = ArmPrior::from_gram(Matrix::zeros(0, 0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_mean_length_panics() {
        let _ = ArmPrior::independent(2, 1.0).with_mean(vec![0.0]);
    }
}
