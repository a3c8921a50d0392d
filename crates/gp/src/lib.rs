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
//! The posterior is maintained *incrementally*. It keeps the Cholesky factor
//! `L` of the observed Gram packed and append-only, next to the cached t×K
//! rows of `L⁻¹Σ_t(·)`. A new observation's factor row is one column of
//! those rows, so extending `L` is an O(t) gather plus a square root rather
//! than an O(t²) solve or an O(t³) refactorization. The observation then
//! appends one row of K entries in O(K·t), and that row updates every arm's
//! posterior mean and variance in O(K), with no temporaries. The rows are
//! never larger than the t×t factor once t ≥ K. An [`ArmPrior`] shares its
//! covariance between clones, so the posteriors of many tenants, and
//! GP-BUCB's hallucinated copies, hold one K×K matrix between them.
//!
//! Hyperparameters (output scale, noise) are chosen by maximizing the
//! [log marginal likelihood](mll::log_marginal_likelihood) on a grid, the
//! approach the paper describes as "tuned by maximizing the
//! log-marginal-likelihood as in scikit-learn" (§5.2). Histories that
//! observe the same arms share one factorization
//! ([`mll::log_marginal_likelihoods`]), and full rows under a
//! low-rank-plus-ridge covariance are scored in the low-rank space
//! ([`mll::LowRankLml`]): one tridiagonalization of the T×T inner Gram per
//! set of rows, then O(T) per row at each grid point.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernel;
pub mod mll;
pub mod posterior;
pub mod prior;
pub mod tune;

pub use kernel::{
    ConstantKernel, Kernel, LinearKernel, Matern32Kernel, Matern52Kernel, ProductKernel, RbfKernel,
    ScaledKernel, SumKernel, WhiteKernel,
};
pub use posterior::GpPosterior;
pub use prior::ArmPrior;
pub use tune::TuneGrid;
