//! Dense linear algebra substrate for the ease.ml reproduction.
//!
//! The Gaussian-process machinery at the heart of ease.ml's model-selection
//! subsystem needs a small but reliable set of dense-matrix operations over
//! symmetric positive-definite (SPD) systems:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual arithmetic,
//!   products, and structural helpers;
//! * [`Cholesky`] — an SPD factorization supporting solves, log-determinants
//!   and rank-1 updates. The GP posterior factors its Gram with it only when
//!   it must start over; each new observation appends one row to a packed
//!   copy of the factor that the posterior keeps itself;
//! * triangular solves ([`solve_lower`], [`solve_upper`], and transposed
//!   variants) used by both the factorization and the marginal likelihood;
//! * a symmetric [`eigen`] decomposition (cyclic Jacobi) used to repair
//!   empirical kernels that are only *almost* positive semi-definite
//!   ([`project_psd`]);
//! * [`Lu`] (partial pivoting) for general square systems, determinants,
//!   and inverses, and [`Qr`] (Householder) with [`least_squares`] for
//!   overdetermined fits;
//! * small vector helpers in [`vec_ops`].
//!
//! Everything is pure safe Rust with no external dependencies. The matrices
//! involved in the paper's experiments are small (at most a few hundred rows:
//! 179 models, ≤ 200 users), so clarity and correctness are favoured over
//! blocked/SIMD kernels; the implementations are still cache-friendly
//! (row-major traversal, no per-element allocation).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cholesky;
mod eigen;
mod error;
mod lu;
mod matrix;
mod qr;
mod triangular;
pub mod vec_ops;

pub use cholesky::{diagonal_condition_estimate, Cholesky};
pub use eigen::{eigen, project_psd, SymmetricEigen};
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::{least_squares, Qr};
pub use triangular::{solve_lower, solve_lower_transpose, solve_upper, solve_upper_transpose};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
