//! Covariance kernels over model feature vectors.
//!
//! A kernel maps two feature vectors to a covariance. The paper uses standard
//! kernels (linear, squared-exponential, Matérn — §3.1 and the discussion of
//! Theorem 5 of Srinivas et al.) evaluated on the Appendix-A "quality
//! vectors": per-model vectors of observed accuracies on the training users.
//! [`Kernel::gram`] assembles the K×K prior covariance over all arms.

use easeml_linalg::{vec_ops, Matrix};

/// A positive (semi-)definite covariance function over feature vectors.
pub trait Kernel: Send + Sync + std::fmt::Debug {
    /// Evaluates `k(x, y)`.
    fn eval(&self, x: &[f64], y: &[f64]) -> f64;

    /// Assembles the Gram matrix over a set of feature vectors, exploiting
    /// symmetry (each off-diagonal pair is evaluated once).
    fn gram(&self, xs: &[Vec<f64>]) -> Matrix {
        let n = xs.len();
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = self.eval(&xs[i], &xs[j]);
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        g
    }
}

/// Linear kernel `k(x, y) = xᵀy + bias`.
///
/// This is the kernel for which the paper's Theorem 5 citation gives the
/// `I(T) = O(log T)` information-gain bound used in Theorems 1–3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearKernel {
    /// Constant added to every inner product (a "homogeneity" offset).
    pub bias: f64,
}

impl LinearKernel {
    /// A bias-free linear kernel.
    pub fn new() -> Self {
        LinearKernel { bias: 0.0 }
    }
}

impl Default for LinearKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel for LinearKernel {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        vec_ops::dot(x, y) + self.bias
    }
}

/// Squared-exponential (RBF) kernel
/// `k(x, y) = exp(−‖x − y‖² / (2 ℓ²))`.
///
/// This is also the covariance the paper's synthetic generator uses between
/// models, with hidden scalar features f(j) and bandwidth σ_M (Appendix B.1.2
/// uses the convention `exp(−(f_i − f_j)²/σ²)`, i.e. no factor 2; use
/// [`RbfKernel::paper_convention`] for that form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbfKernel {
    /// Length scale ℓ.
    pub length_scale: f64,
    /// When true, uses `exp(−d²/ℓ²)` (the paper's Appendix-B convention)
    /// instead of the standard `exp(−d²/(2ℓ²))`.
    pub paper_convention: bool,
}

impl RbfKernel {
    /// Standard-convention RBF kernel with the given length scale.
    ///
    /// # Panics
    ///
    /// Panics if `length_scale` is not strictly positive.
    pub fn new(length_scale: f64) -> Self {
        assert!(length_scale > 0.0, "RBF length scale must be positive");
        RbfKernel {
            length_scale,
            paper_convention: false,
        }
    }

    /// Appendix-B convention: `k = exp(−‖x−y‖²/σ_M²)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_m` is not strictly positive.
    pub fn paper_convention(sigma_m: f64) -> Self {
        assert!(sigma_m > 0.0, "RBF bandwidth must be positive");
        RbfKernel {
            length_scale: sigma_m,
            paper_convention: true,
        }
    }
}

impl Kernel for RbfKernel {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        let d2 = vec_ops::dist2_sq(x, y);
        let denom = if self.paper_convention {
            self.length_scale * self.length_scale
        } else {
            2.0 * self.length_scale * self.length_scale
        };
        (-d2 / denom).exp()
    }
}

/// Matérn-3/2 kernel `(1 + √3 d/ℓ) exp(−√3 d/ℓ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matern32Kernel {
    /// Length scale ℓ.
    pub length_scale: f64,
}

impl Matern32Kernel {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `length_scale` is not strictly positive.
    pub fn new(length_scale: f64) -> Self {
        assert!(length_scale > 0.0, "Matérn length scale must be positive");
        Matern32Kernel { length_scale }
    }
}

impl Kernel for Matern32Kernel {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        let d = vec_ops::dist2_sq(x, y).sqrt();
        let z = 3f64.sqrt() * d / self.length_scale;
        (1.0 + z) * (-z).exp()
    }
}

/// Matérn-5/2 kernel `(1 + √5 d/ℓ + 5d²/(3ℓ²)) exp(−√5 d/ℓ)` — one of the
/// two "other popular kernels" for which the paper notes Theorems 2–3 remain
/// sublinear (§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matern52Kernel {
    /// Length scale ℓ.
    pub length_scale: f64,
}

impl Matern52Kernel {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `length_scale` is not strictly positive.
    pub fn new(length_scale: f64) -> Self {
        assert!(length_scale > 0.0, "Matérn length scale must be positive");
        Matern52Kernel { length_scale }
    }
}

impl Kernel for Matern52Kernel {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        let d2 = vec_ops::dist2_sq(x, y);
        let d = d2.sqrt();
        let z = 5f64.sqrt() * d / self.length_scale;
        (1.0 + z + 5.0 * d2 / (3.0 * self.length_scale * self.length_scale)) * (-z).exp()
    }
}

/// Constant kernel `k(x, y) = value`, modelling a shared offset across arms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantKernel {
    /// The constant covariance.
    pub value: f64,
}

impl Kernel for ConstantKernel {
    fn eval(&self, _x: &[f64], _y: &[f64]) -> f64 {
        self.value
    }
}

/// White-noise kernel: `noise` when the two inputs are identical, 0
/// otherwise. Useful for composing an explicit noise floor into a prior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhiteKernel {
    /// Variance added on the diagonal.
    pub noise: f64,
}

impl Kernel for WhiteKernel {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        if x == y {
            self.noise
        } else {
            0.0
        }
    }
}

/// Sum of two kernels.
#[derive(Debug)]
pub struct SumKernel<A, B>(pub A, pub B);

impl<A: Kernel, B: Kernel> Kernel for SumKernel<A, B> {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.0.eval(x, y) + self.1.eval(x, y)
    }
}

/// Product of two kernels.
#[derive(Debug)]
pub struct ProductKernel<A, B>(pub A, pub B);

impl<A: Kernel, B: Kernel> Kernel for ProductKernel<A, B> {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.0.eval(x, y) * self.1.eval(x, y)
    }
}

/// A kernel scaled by an output variance: `s² · k(x, y)`.
#[derive(Debug)]
pub struct ScaledKernel<K> {
    /// Inner kernel.
    pub inner: K,
    /// Output variance (the `s²` factor, stored directly).
    pub variance: f64,
}

impl<K: Kernel> ScaledKernel<K> {
    /// Wraps `inner` with the given output variance.
    ///
    /// # Panics
    ///
    /// Panics if `variance` is negative.
    pub fn new(inner: K, variance: f64) -> Self {
        assert!(variance >= 0.0, "kernel variance must be non-negative");
        ScaledKernel { inner, variance }
    }
}

impl<K: Kernel> Kernel for ScaledKernel<K> {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.variance * self.inner.eval(x, y)
    }
}

impl Kernel for Box<dyn Kernel> {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        (**self).eval(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: &[f64] = &[1.0, 0.0];
    const Y: &[f64] = &[0.0, 1.0];

    #[test]
    fn linear_is_dot_plus_bias() {
        assert_eq!(LinearKernel::new().eval(X, X), 1.0);
        assert_eq!(LinearKernel::new().eval(X, Y), 0.0);
        assert_eq!(LinearKernel { bias: 2.0 }.eval(X, Y), 2.0);
        assert_eq!(LinearKernel::default(), LinearKernel::new());
    }

    #[test]
    fn rbf_unit_at_zero_distance_and_decays() {
        let k = RbfKernel::new(1.0);
        assert_eq!(k.eval(X, X), 1.0);
        let v = k.eval(X, Y); // d² = 2 → exp(−1)
        assert!((v - (-1.0f64).exp()).abs() < 1e-12);
        // Paper convention: exp(−d²/σ²) = exp(−2).
        let kp = RbfKernel::paper_convention(1.0);
        assert!((kp.eval(X, Y) - (-2.0f64).exp()).abs() < 1e-12);
        // Longer length scale ⇒ higher covariance.
        assert!(RbfKernel::new(10.0).eval(X, Y) > v);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rbf_rejects_zero_length_scale() {
        let _ = RbfKernel::new(0.0);
    }

    #[test]
    fn matern_kernels_are_one_at_zero_and_decay() {
        for k in [
            Box::new(Matern32Kernel::new(1.0)) as Box<dyn Kernel>,
            Box::new(Matern52Kernel::new(1.0)),
        ] {
            assert!((k.eval(X, X) - 1.0).abs() < 1e-12);
            let near = k.eval(&[0.0], &[0.1]);
            let far = k.eval(&[0.0], &[2.0]);
            assert!(near > far);
            assert!(far > 0.0 && near < 1.0);
        }
    }

    #[test]
    fn matern52_is_smoother_than_matern32_at_distance() {
        // At moderate distance the 5/2 kernel retains more covariance.
        let m32 = Matern32Kernel::new(1.0).eval(&[0.0], &[1.0]);
        let m52 = Matern52Kernel::new(1.0).eval(&[0.0], &[1.0]);
        assert!(m52 > m32);
    }

    #[test]
    fn white_and_constant() {
        let w = WhiteKernel { noise: 0.5 };
        assert_eq!(w.eval(X, X), 0.5);
        assert_eq!(w.eval(X, Y), 0.0);
        let c = ConstantKernel { value: 3.0 };
        assert_eq!(c.eval(X, Y), 3.0);
    }

    #[test]
    fn combinators() {
        let k = SumKernel(ConstantKernel { value: 1.0 }, LinearKernel::new());
        assert_eq!(k.eval(X, X), 2.0);
        let k = ProductKernel(ConstantKernel { value: 2.0 }, LinearKernel::new());
        assert_eq!(k.eval(X, X), 2.0);
        let k = ScaledKernel::new(RbfKernel::new(1.0), 4.0);
        assert_eq!(k.eval(X, X), 4.0);
    }

    #[test]
    fn gram_is_symmetric_with_unit_diag_for_rbf() {
        let xs: Vec<Vec<f64>> = vec![vec![0.0], vec![0.5], vec![2.0]];
        let g = RbfKernel::new(1.0).gram(&xs);
        assert!(g.is_symmetric(0.0));
        for i in 0..3 {
            assert!((g[(i, i)] - 1.0).abs() < 1e-12);
        }
        assert!(g[(0, 1)] > g[(0, 2)]);
    }

    #[test]
    fn rbf_gram_is_positive_definite() {
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 0.7]).collect();
        let g = RbfKernel::new(1.0).gram(&xs);
        assert!(easeml_linalg::Cholesky::factor_with_jitter(&g, 1e-12, 8).is_ok());
    }

    #[test]
    fn boxed_kernel_dispatches() {
        let k: Box<dyn Kernel> = Box::new(RbfKernel::new(1.0));
        assert_eq!(k.eval(X, X), 1.0);
        let g = k.gram(&[vec![0.0], vec![1.0]]);
        assert_eq!(g.shape(), (2, 2));
    }
}
