//! The hyperparameter grid scored by log marginal likelihood.
//!
//! The paper tunes "all hyperparameters for GP-UCB … by maximizing the
//! log-marginal-likelihood as in scikit-learn" (§5.2). For a fixed Gram
//! matrix over arms (e.g. an empirical quality-vector kernel), the free
//! hyperparameters are an output scale `s` (multiplying the Gram matrix) and
//! the observation-noise variance `σ²`. `easeml::experiment` scores every
//! grid point with [`crate::mll`]: exhaustive and deterministic, robust for
//! the small grids involved, and free of the gradient pathologies an L-BFGS
//! restart scheme has to manage.

/// The grid of candidate hyperparameters to score.
#[derive(Debug, Clone)]
pub struct TuneGrid {
    /// Candidate output scales (multipliers of the base Gram matrix).
    pub scales: Vec<f64>,
    /// Candidate observation-noise variances.
    pub noises: Vec<f64>,
}

impl Default for TuneGrid {
    /// A log-spaced default grid covering three decades of scale and four of
    /// noise — adequate for rewards in `[0, 1]` after centering.
    fn default() -> Self {
        TuneGrid {
            scales: vec![0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0],
            noises: vec![1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1],
        }
    }
}
