//! Deterministic sampling distributions built on `rand`'s uniform source.
//!
//! Normal variates use the Box–Muller transform; multivariate normals use a
//! Cholesky factor of the covariance. Implemented locally so the workspace
//! stays within its approved dependency set (no `rand_distr`).

use easeml_linalg::{Cholesky, Matrix};
use rand::Rng;
use std::f64::consts::PI;

/// Draws one standard-normal sample via Box–Muller.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Draws one `N(mean, std²)` sample.
///
/// # Panics
///
/// Panics if `std < 0`.
pub fn normal(mean: f64, std: f64, rng: &mut impl Rng) -> f64 {
    assert!(std >= 0.0, "standard deviation must be non-negative");
    mean + std * standard_normal(rng)
}

/// The multivariate normal `N(0, cov)`, factored once and sampled many
/// times. Sampling colors a standard-normal vector with the Cholesky factor
/// of `cov`.
///
/// # Examples
///
/// ```
/// use easeml_data::dist::MultivariateNormal;
/// use easeml_linalg::Matrix;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mvn = MultivariateNormal::new(&Matrix::from_rows(&[&[1.0, 0.9], &[0.9, 1.0]]));
/// let mut rng = StdRng::seed_from_u64(7);
/// let draws: Vec<Vec<f64>> = (0..3).map(|_| mvn.sample(&mut rng)).collect();
/// assert!(draws.iter().all(|d| d.len() == 2));
/// ```
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    chol: Cholesky,
}

impl MultivariateNormal {
    /// Factors `cov`. Mildly indefinite covariances are handled with jitter
    /// escalation: jitter from 10⁻¹⁰ of the mean diagonal, growing tenfold,
    /// for up to 12 tries. Under a global recorder, a factorization that
    /// needed jitter emits one `JitterRetry` event here, however many
    /// samples are then drawn.
    ///
    /// # Panics
    ///
    /// Panics if `cov` is not square or cannot be factored even with jitter.
    pub fn new(cov: &Matrix) -> Self {
        assert!(cov.is_square(), "covariance must be square");
        if cov.rows() == 0 {
            return MultivariateNormal {
                chol: Cholesky::empty(),
            };
        }
        let (chol, _) = Cholesky::factor_with_jitter(cov, 1e-10, 12)
            .expect("covariance must be (nearly) positive semi-definite");
        MultivariateNormal { chol }
    }

    /// Draws one sample: n standard normals in order, then `L z`.
    pub fn sample(&self, rng: &mut impl Rng) -> Vec<f64> {
        let n = self.chol.dim();
        let z: Vec<f64> = (0..n).map(|_| standard_normal(rng)).collect();
        let l = self.chol.l();
        (0..n)
            .map(|i| easeml_linalg::vec_ops::dot(&l.row(i)[..=i], &z[..=i]))
            .collect()
    }
}

/// Draws one sample from the multivariate normal `N(0, cov)`; it factors
/// `cov` on every call, so use [`MultivariateNormal`] to draw several from
/// one covariance. Under a global recorder, a call whose factorization
/// needed jitter emits one `JitterRetry` event.
///
/// # Panics
///
/// Panics if `cov` is not square or cannot be factored even with jitter.
pub fn multivariate_normal(cov: &Matrix, rng: &mut impl Rng) -> Vec<f64> {
    MultivariateNormal::new(cov).sample(rng)
}

/// Draws from `U(lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform(lo: f64, hi: f64, rng: &mut impl Rng) -> f64 {
    assert!(lo < hi, "uniform range must be non-empty");
    rng.gen_range(lo..hi)
}

/// Draws from a log-uniform distribution on `[lo, hi]` (both > 0): the
/// logarithm is uniform. Useful for costs spanning orders of magnitude.
///
/// # Panics
///
/// Panics if `lo <= 0` or `lo >= hi`.
pub fn log_uniform(lo: f64, hi: f64, rng: &mut impl Rng) -> f64 {
    assert!(lo > 0.0 && lo < hi, "log-uniform needs 0 < lo < hi");
    (uniform(lo.ln(), hi.ln(), rng)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_linalg::vec_ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng(1);
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut r)).collect();
        assert!(vec_ops::mean(&xs).abs() < 0.03);
        assert!((vec_ops::variance(&xs) - 1.0).abs() < 0.05);
    }

    #[test]
    fn normal_shift_and_scale() {
        let mut r = rng(2);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(2.0, 0.5, &mut r)).collect();
        assert!((vec_ops::mean(&xs) - 2.0).abs() < 0.02);
        assert!((vec_ops::std_dev(&xs) - 0.5).abs() < 0.02);
        // Zero std is a point mass.
        assert_eq!(normal(3.0, 0.0, &mut r), 3.0);
    }

    #[test]
    fn mvn_respects_covariance() {
        let cov = Matrix::from_rows(&[&[1.0, 0.8], &[0.8, 1.0]]);
        let mut r = rng(3);
        let n = 20_000;
        let samples: Vec<Vec<f64>> = (0..n).map(|_| multivariate_normal(&cov, &mut r)).collect();
        let xs: Vec<f64> = samples.iter().map(|s| s[0]).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s[1]).collect();
        let mx = vec_ops::mean(&xs);
        let my = vec_ops::mean(&ys);
        let cov_xy = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / n as f64;
        assert!((cov_xy - 0.8).abs() < 0.05, "empirical cov {cov_xy}");
        assert!((vec_ops::variance(&xs) - 1.0).abs() < 0.05);
    }

    #[test]
    fn mvn_handles_rank_deficient_covariance() {
        // Perfectly correlated pair: PSD but singular.
        let cov = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let mut r = rng(4);
        let s = multivariate_normal(&cov, &mut r);
        assert!((s[0] - s[1]).abs() < 1e-3, "components must nearly match");
    }

    #[test]
    fn factored_mvn_draws_what_per_call_sampling_draws() {
        // Rank-deficient, so the factorization takes the jitter path.
        let cov = Matrix::from_rows(&[&[1.0, 1.0, 0.5], &[1.0, 1.0, 0.5], &[0.5, 0.5, 2.0]]);
        let mvn = MultivariateNormal::new(&cov);
        let (mut a, mut b) = (rng(11), rng(11));
        for _ in 0..20 {
            let per_call = multivariate_normal(&cov, &mut a);
            let factored = mvn.sample(&mut b);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&per_call), bits(&factored));
        }
        // Both streams consumed the same draws.
        assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
    }

    #[test]
    fn mvn_empty() {
        let mut r = rng(5);
        assert!(multivariate_normal(&Matrix::zeros(0, 0), &mut r).is_empty());
    }

    #[test]
    fn uniform_bounds() {
        let mut r = rng(6);
        for _ in 0..1000 {
            let x = uniform(2.0, 3.0, &mut r);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn log_uniform_spans_decades() {
        let mut r = rng(7);
        let xs: Vec<f64> = (0..5000)
            .map(|_| log_uniform(0.01, 100.0, &mut r))
            .collect();
        assert!(xs.iter().all(|&x| (0.01..=100.0).contains(&x)));
        // Roughly half the mass below the geometric mean (1.0).
        let below = xs.iter().filter(|&&x| x < 1.0).count();
        assert!((below as f64 / 5000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn determinism_from_seed() {
        let a: Vec<f64> = {
            let mut r = rng(9);
            (0..10).map(|_| standard_normal(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng(9);
            (0..10).map(|_| standard_normal(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_uniform_range_panics() {
        let mut r = rng(10);
        let _ = uniform(1.0, 1.0, &mut r);
    }
}
