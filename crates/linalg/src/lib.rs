//! Dense linear algebra substrate for the ease.ml reproduction.
//!
//! The Gaussian-process machinery at the heart of ease.ml's model-selection
//! subsystem needs a small but reliable set of dense-matrix operations over
//! symmetric positive-definite (SPD) systems:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual arithmetic,
//!   products, and structural helpers;
//! * [`Cholesky`] — an SPD factorization supporting solves and
//!   log-determinants. The GP posterior factors its Gram with it only when
//!   it must start over; each new observation appends one row to a packed
//!   copy of the factor that the posterior keeps itself;
//! * [`SymmetricTridiagonal`] — the Householder reduction `A = Q T Qᵀ`,
//!   after which `I + ρA` has an O(n) LDLᵀ recurrence for every ρ;
//! * triangular solves ([`solve_lower`] and [`solve_lower_transpose`]) used
//!   by both the factorization and the marginal likelihood;
//! * a symmetric [`eigen`] decomposition (cyclic Jacobi) used to repair
//!   empirical kernels that are only *almost* positive semi-definite
//!   ([`project_psd`]);
//! * small vector helpers in [`vec_ops`].
//!
//! Everything is pure safe Rust with no external dependencies. The matrices
//! involved in the paper's experiments are small (at most a few hundred rows:
//! 179 models, ≤ 200 users), so clarity and correctness are favoured over
//! tuned kernels; the implementations are still cache-friendly (row-major
//! traversal, no per-element allocation). The kernels an experiment split
//! runs, [`Matrix::col_gram`], [`SymmetricTridiagonal::new`] and (on the
//! dense side) [`Cholesky::factor`], are blocked or restricted to one
//! triangle so that they do less work or their inner loops vectorise, with
//! every entry's operations in the same order as the plain loops, so their
//! results are bit-identical.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cholesky;
mod eigen;
mod error;
mod matrix;
mod triangular;
mod tridiagonal;
pub mod vec_ops;

pub use cholesky::{diagonal_condition_estimate, Cholesky};
pub use eigen::{eigen, project_psd, SymmetricEigen};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use triangular::{solve_lower, solve_lower_transpose};
pub use tridiagonal::SymmetricTridiagonal;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
