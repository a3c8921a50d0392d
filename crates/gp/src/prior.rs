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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::RbfKernel;

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
