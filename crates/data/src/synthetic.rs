//! The paper's synthetic data generators.
//!
//! Two generative models are implemented:
//!
//! * [`SynConfig`] — the simplified §5.1 model used for the `SYN(σ_M, α)`
//!   experiment datasets: user baselines `b_i ~ N(μ_b, σ_b²)`, hidden model
//!   features `f(j) ~ U(0, 1)` inducing the covariance
//!   `Σ_M[j,j'] = exp(−(f(j)−f(j'))²/σ_M²)`, per-user model fluctuations
//!   `[m_1..m_K] ~ N(0, Σ_M)`, and quality `x_{ij} = b_i + α·m_j` clamped to
//!   `[0, 1]`.
//! * [`SyntheticFullConfig`] — the full Appendix-B model with baseline
//!   groups, a *shared* model-group fluctuation, user groups, and white
//!   noise: `x_{ij} = b_i + m_j + u_i + ε_{ij}`, clamped to `[0, 1]`.

use crate::dataset::Dataset;
use crate::dist;
use easeml_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds the RBF covariance over hidden scalar features with the paper's
/// convention `Σ[i,j] = exp(−(f_i − f_j)² / σ²)`.
fn hidden_feature_cov(features: &[f64], sigma: f64) -> Matrix {
    assert!(sigma > 0.0, "correlation bandwidth must be positive");
    let n = features.len();
    Matrix::from_fn(n, n, |i, j| {
        let d = features[i] - features[j];
        (-d * d / (sigma * sigma)).exp()
    })
}

/// Configuration of the simplified §5.1 generator behind the `SYN(σ_M, α)`
/// datasets.
///
/// # Examples
///
/// ```
/// use easeml_data::SynConfig;
///
/// // A small workload with strong model correlation.
/// let dataset = SynConfig {
///     num_users: 6,
///     num_models: 4,
///     ..SynConfig::paper(0.5, 1.0)
/// }
/// .generate(42);
/// assert_eq!(dataset.num_users(), 6);
/// assert!(dataset.quality(0, 0) >= 0.0 && dataset.quality(0, 0) <= 1.0);
/// // The same seed regenerates the same matrix.
/// assert_eq!(
///     dataset.quality(3, 2),
///     SynConfig { num_users: 6, num_models: 4, ..SynConfig::paper(0.5, 1.0) }
///         .generate(42)
///         .quality(3, 2),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SynConfig {
    /// Number of users N.
    pub num_users: usize,
    /// Number of models K.
    pub num_models: usize,
    /// Strength of the model correlation σ_M (larger ⇒ stronger
    /// correlation).
    pub sigma_m: f64,
    /// Weight α of the model fluctuation in the final quality.
    pub alpha: f64,
    /// Mean of the user baseline quality distribution.
    pub baseline_mean: f64,
    /// Standard deviation of the user baseline quality distribution.
    pub baseline_std: f64,
    /// Cost range `(lo, hi)` for the synthetic `U(lo, hi)` costs.
    pub cost_range: (f64, f64),
}

impl SynConfig {
    /// The `SYN(σ_M, α)` instantiation of Figure 8: 200 users, 100 models,
    /// baselines around 0.5, uniform costs in `(0, 1]`.
    pub fn paper(sigma_m: f64, alpha: f64) -> Self {
        SynConfig {
            num_users: 200,
            num_models: 100,
            sigma_m,
            alpha,
            baseline_mean: 0.5,
            baseline_std: 0.15,
            cost_range: (0.05, 1.0),
        }
    }

    /// Generates the dataset deterministically from `seed`.
    ///
    /// Σ_M is factored once and every user's `[m_1..m_K]` is drawn from
    /// that factor, so under a global recorder a Σ_M that needs jitter emits
    /// one `JitterRetry` event per dataset, not one per user.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero users/models, non-positive
    /// σ_M, empty cost range).
    pub fn generate(&self, seed: u64) -> Dataset {
        assert!(self.num_users > 0 && self.num_models > 0);
        let mut rng = StdRng::seed_from_u64(seed);

        // Hidden model features and their covariance (Appendix B.1.2).
        let features: Vec<f64> = (0..self.num_models).map(|_| rng.gen::<f64>()).collect();
        let model_fluct =
            dist::MultivariateNormal::new(&hidden_feature_cov(&features, self.sigma_m));

        // User baselines.
        let baselines: Vec<f64> = (0..self.num_users)
            .map(|_| dist::normal(self.baseline_mean, self.baseline_std, &mut rng))
            .collect();

        let mut quality = Matrix::zeros(self.num_users, self.num_models);
        for i in 0..self.num_users {
            // §5.1: "We sample for each user i: [m1, ..., mK] ~ N(0, ΣM)".
            let m = model_fluct.sample(&mut rng);
            for j in 0..self.num_models {
                quality[(i, j)] = (baselines[i] + self.alpha * m[j]).clamp(0.0, 1.0);
            }
        }

        let (lo, hi) = self.cost_range;
        let cost = Matrix::from_fn(self.num_users, self.num_models, |_, _| {
            dist::uniform(lo, hi, &mut rng)
        });

        let name = format!("SYN({},{:.1})", self.sigma_m, self.alpha);
        Dataset::new(name, quality, cost)
    }
}

/// Configuration of one baseline group `(μ_b, σ_b)` (Appendix B.1.1).
#[derive(Debug, Clone, Copy)]
pub struct BaselineGroup {
    /// Expected quality of the group.
    pub mean: f64,
    /// Within-group variation.
    pub std: f64,
    /// Number of users drawn from this group (per user group).
    pub users_per_user_group: usize,
}

/// The full Appendix-B generative model:
/// `x_{ij} = b_i + m_j + u_i + ε_{ij}` clamped to `[0, 1]`, with
///
/// * `b_i` drawn from the user's baseline group;
/// * `[m_j]` a *single shared* draw from `N(0, Σ_M)` per model group;
/// * `[u_i]` a draw from `N(0, Σ_U)` per user group, correlating users with
///   similar hidden features;
/// * `ε_{ij} ~ N(0, σ_W²)` i.i.d. white noise.
#[derive(Debug, Clone)]
pub struct SyntheticFullConfig {
    /// Baseline groups B (the paper instantiates `{(0.75, σ_B), (0.25, σ_B)}`).
    pub baseline_groups: Vec<BaselineGroup>,
    /// Model-group correlation bandwidths; each group contributes
    /// `models_per_group` models.
    pub model_group_sigmas: Vec<f64>,
    /// Number of models in each model group (the paper's `p_M(*) = 100`).
    pub models_per_group: usize,
    /// User-group correlation bandwidths.
    pub user_group_sigmas: Vec<f64>,
    /// Amplitude of the model-group fluctuation (`m_j` is drawn from
    /// `N(0, Σ_M)` and multiplied by this; Appendix B leaves the scale
    /// unspecified, and it must stay well below the baseline separation for
    /// group structure to survive the `[0, 1]` clamp).
    pub model_amplitude: f64,
    /// Amplitude of the user-group fluctuation.
    pub user_amplitude: f64,
    /// White-noise standard deviation σ_W.
    pub sigma_w: f64,
    /// Cost range for synthetic `U(lo, hi)` costs.
    pub cost_range: (f64, f64),
}

impl SyntheticFullConfig {
    /// The Appendix-B.2 instantiation: two baseline groups at 0.75 / 0.25,
    /// one model group of 100 models, one user group, 50 users per
    /// (baseline, user-group) combination.
    pub fn paper(sigma_b: f64, sigma_m: f64, sigma_u: f64, sigma_w: f64) -> Self {
        SyntheticFullConfig {
            baseline_groups: vec![
                BaselineGroup {
                    mean: 0.75,
                    std: sigma_b,
                    users_per_user_group: 50,
                },
                BaselineGroup {
                    mean: 0.25,
                    std: sigma_b,
                    users_per_user_group: 50,
                },
            ],
            model_group_sigmas: vec![sigma_m],
            models_per_group: 100,
            user_group_sigmas: vec![sigma_u],
            model_amplitude: 0.1,
            user_amplitude: 0.05,
            sigma_w,
            cost_range: (0.05, 1.0),
        }
    }

    /// Total number of users the configuration generates.
    pub fn num_users(&self) -> usize {
        self.baseline_groups
            .iter()
            .map(|g| g.users_per_user_group * self.user_group_sigmas.len())
            .sum()
    }

    /// Total number of models the configuration generates.
    pub fn num_models(&self) -> usize {
        self.model_group_sigmas.len() * self.models_per_group
    }

    /// Generates the dataset deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations.
    pub fn generate(&self, seed: u64) -> Dataset {
        assert!(!self.baseline_groups.is_empty(), "need a baseline group");
        assert!(!self.model_group_sigmas.is_empty(), "need a model group");
        assert!(!self.user_group_sigmas.is_empty(), "need a user group");
        assert!(self.models_per_group > 0);
        assert!(self.sigma_w >= 0.0);
        let mut rng = StdRng::seed_from_u64(seed);

        // --- Models: shared fluctuation m_j per model group (B.1.2). ---
        let mut model_fluct = Vec::with_capacity(self.num_models());
        for &sigma_m in &self.model_group_sigmas {
            let feats: Vec<f64> = (0..self.models_per_group)
                .map(|_| rng.gen::<f64>())
                .collect();
            let cov = hidden_feature_cov(&feats, sigma_m);
            model_fluct.extend(
                dist::multivariate_normal(&cov, &mut rng)
                    .into_iter()
                    .map(|m| self.model_amplitude * m),
            );
        }

        // --- Users: baseline + user-group fluctuation (B.1.1, B.1.3). ---
        let mut baselines = Vec::new();
        let mut user_fluct = Vec::new();
        for group in &self.baseline_groups {
            for &sigma_u in &self.user_group_sigmas {
                let count = group.users_per_user_group;
                let feats: Vec<f64> = (0..count).map(|_| rng.gen::<f64>()).collect();
                let cov = hidden_feature_cov(&feats, sigma_u);
                let u = dist::multivariate_normal(&cov, &mut rng);
                for k in 0..count {
                    baselines.push(dist::normal(group.mean, group.std, &mut rng));
                    user_fluct.push(self.user_amplitude * u[k]);
                }
            }
        }

        let n = baselines.len();
        let m = model_fluct.len();
        let mut quality = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let x = baselines[i]
                    + model_fluct[j]
                    + user_fluct[i]
                    + dist::normal(0.0, self.sigma_w, &mut rng);
                quality[(i, j)] = x.clamp(0.0, 1.0);
            }
        }

        let (lo, hi) = self.cost_range;
        let cost = Matrix::from_fn(n, m, |_, _| dist::uniform(lo, hi, &mut rng));
        Dataset::new("SYN-full", quality, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_linalg::vec_ops;

    #[test]
    fn syn_generator_shapes_and_bounds() {
        let cfg = SynConfig {
            num_users: 20,
            num_models: 10,
            sigma_m: 0.5,
            alpha: 1.0,
            baseline_mean: 0.5,
            baseline_std: 0.15,
            cost_range: (0.1, 1.0),
        };
        let d = cfg.generate(7);
        assert_eq!(d.num_users(), 20);
        assert_eq!(d.num_models(), 10);
        for i in 0..20 {
            for j in 0..10 {
                assert!((0.0..=1.0).contains(&d.quality(i, j)));
                assert!(d.cost(i, j) >= 0.1 && d.cost(i, j) < 1.0);
            }
        }
    }

    #[test]
    fn syn_generator_is_deterministic() {
        let cfg = SynConfig::paper(0.5, 0.1);
        let a = cfg.generate(42);
        let b = cfg.generate(42);
        assert!(a.quality_matrix().approx_eq(b.quality_matrix(), 0.0));
        assert!(a.cost_matrix().approx_eq(b.cost_matrix(), 0.0));
        let c = cfg.generate(43);
        assert!(!a.quality_matrix().approx_eq(c.quality_matrix(), 1e-9));
    }

    #[test]
    fn paper_presets_match_figure_8_shape() {
        let d = SynConfig::paper(0.01, 0.1).generate(1);
        assert_eq!(d.num_users(), 200);
        assert_eq!(d.num_models(), 100);
        assert_eq!(d.name(), "SYN(0.01,0.1)");
    }

    #[test]
    fn larger_sigma_m_means_stronger_model_correlation() {
        // With σ_M large, per-user model fluctuations are nearly constant
        // across models, so the within-user variance of qualities shrinks.
        let weak = SynConfig {
            alpha: 1.0,
            ..SynConfig::paper(0.01, 1.0)
        }
        .generate(5);
        let strong = SynConfig {
            alpha: 1.0,
            ..SynConfig::paper(5.0, 1.0)
        }
        .generate(5);
        let avg_within_user_var = |d: &Dataset| {
            let mut acc = 0.0;
            for i in 0..d.num_users() {
                acc += vec_ops::variance(d.user_qualities(i));
            }
            acc / d.num_users() as f64
        };
        assert!(
            avg_within_user_var(&strong) < avg_within_user_var(&weak),
            "strong correlation should flatten within-user quality"
        );
    }

    #[test]
    fn alpha_scales_model_influence() {
        let small = SynConfig::paper(0.5, 0.1).generate(5);
        let large = SynConfig::paper(0.5, 1.0).generate(5);
        let avg_var = |d: &Dataset| {
            (0..d.num_users())
                .map(|i| vec_ops::variance(d.user_qualities(i)))
                .sum::<f64>()
                / d.num_users() as f64
        };
        assert!(avg_var(&large) > avg_var(&small));
    }

    #[test]
    fn full_generator_counts_and_baseline_groups() {
        let cfg = SyntheticFullConfig::paper(0.05, 0.5, 0.5, 0.02);
        assert_eq!(cfg.num_users(), 100);
        assert_eq!(cfg.num_models(), 100);
        let d = cfg.generate(11);
        assert_eq!(d.num_users(), 100);
        assert_eq!(d.num_models(), 100);
        // First 50 users come from the easy (0.75) group, last 50 from the
        // hard (0.25) group: their mean qualities must separate.
        let mean_user = |d: &Dataset, i: usize| vec_ops::mean(d.user_qualities(i));
        let easy: f64 = (0..50).map(|i| mean_user(&d, i)).sum::<f64>() / 50.0;
        let hard: f64 = (50..100).map(|i| mean_user(&d, i)).sum::<f64>() / 50.0;
        assert!(
            easy > hard + 0.2,
            "baseline groups must separate: easy {easy:.3} vs hard {hard:.3}"
        );
    }

    #[test]
    fn full_generator_white_noise_widens_scatter() {
        let quiet = SyntheticFullConfig::paper(0.01, 0.5, 0.5, 0.0).generate(3);
        let noisy = SyntheticFullConfig::paper(0.01, 0.5, 0.5, 0.2).generate(3);
        // Compare mean within-user variance; white noise adds to it.
        let avg_var = |d: &Dataset| {
            (0..d.num_users())
                .map(|i| vec_ops::variance(d.user_qualities(i)))
                .sum::<f64>()
                / d.num_users() as f64
        };
        assert!(avg_var(&noisy) > avg_var(&quiet));
    }

    #[test]
    fn hidden_feature_cov_structure() {
        let cov = hidden_feature_cov(&[0.0, 0.1, 0.9], 0.3);
        assert_eq!(cov[(0, 0)], 1.0);
        assert!(cov[(0, 1)] > cov[(0, 2)], "closer features correlate more");
        assert!(cov.is_symmetric(0.0));
    }
}
