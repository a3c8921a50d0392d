//! Gaussian-process regression over a *finite arm set*, the estimator at the
//! heart of ease.ml's model-selection subsystem (paper §3).
//!
//! Ease.ml treats the K candidate models of a user as arms of a bandit, and
//! models the vector of their (unknown) qualities as a draw from a
//! multivariate Gaussian `N(μ₀, Σ)`. The prior covariance Σ comes from a
//! [`kernel`] evaluated on per-model feature vectors — in the paper's
//! Appendix A these are "quality vectors" of each model measured on the
//! training users. After observing noisy rewards, the [`GpPosterior`] yields
//! the posterior mean and variance of every arm, which the GP-UCB policies in
//! `easeml-bandit` turn into upper confidence bounds.
//!
//! The posterior is maintained *incrementally*: each new observation extends
//! a Cholesky factor `L` in O(t²) rather than refactorizing in O(t³)
//! (see [`easeml_linalg::Cholesky::extend`]), and appends one row to the
//! cached t×K rows of `L⁻¹Σ_t(·)`, so refreshing all K posterior means and
//! variances costs O(K·t). The rows are never larger than the t×t factor
//! once t ≥ K. An [`ArmPrior`] shares its covariance between clones, so the
//! posteriors of many tenants, and GP-BUCB's hallucinated copies, hold one
//! K×K matrix between them.
//!
//! Hyperparameters (output scale, noise) are chosen by maximizing the
//! [log marginal likelihood](mll::log_marginal_likelihood) on a grid, the
//! approach the paper describes as "tuned by maximizing the
//! log-marginal-likelihood as in scikit-learn" (§5.2). Histories that
//! observe the same arms share one factorization
//! ([`mll::log_marginal_likelihoods`]), and full rows under a
//! low-rank-plus-ridge covariance are scored in the low-rank space
//! ([`mll::LowRankLml`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod icm;
pub mod kernel;
pub mod mll;
pub mod optimize;
pub mod posterior;
pub mod prior;
pub mod tune;

pub use icm::{kronecker, MultiTaskGp};
pub use kernel::{
    ConstantKernel, Kernel, LinearKernel, Matern32Kernel, Matern52Kernel, PeriodicKernel,
    ProductKernel, RationalQuadraticKernel, RbfKernel, ScaledKernel, SumKernel, WhiteKernel,
};
pub use optimize::{nelder_mead, tune_scale_noise_continuous, NelderMeadOptions};
pub use posterior::GpPosterior;
pub use prior::ArmPrior;
pub use tune::{tune_scale_noise, TuneGrid, TunedHyperparams};
