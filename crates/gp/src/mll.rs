//! Log marginal likelihood of observations under a GP prior, on a dense
//! covariance or, for full rows under a low-rank-plus-ridge covariance, in
//! the low-rank space ([`LowRankLml`]).

use crate::prior::ArmPrior;
use easeml_linalg::{vec_ops, Cholesky, Matrix, SymmetricTridiagonal};

const LN_2PI: f64 = 1.8378770664093453;

/// Computes the log marginal likelihood of the observation history
/// `(arm, reward)*` under the prior with observation noise `noise_var`:
///
/// ```text
/// log p(y) = −½ (y−μ)ᵀ K⁻¹ (y−μ) − ½ log|K| − (t/2) log 2π
/// ```
///
/// with `K = Σ_obs + σ²I`. Returns `0.0` for an empty history (the marginal
/// likelihood of no data is 1).
///
/// This is the objective the hyperparameter tuner maximizes, mirroring the
/// paper's protocol of tuning GP-UCB hyperparameters "by maximizing the
/// log-marginal-likelihood as in scikit-learn" (§5.2). It is the
/// one-history case of [`log_marginal_likelihoods`].
///
/// # Panics
///
/// Panics if an arm index is out of range or `noise_var <= 0`.
pub fn log_marginal_likelihood(
    prior: &ArmPrior,
    noise_var: f64,
    observations: &[(usize, f64)],
) -> f64 {
    let (arms, rewards): (Vec<usize>, Vec<f64>) = observations.iter().copied().unzip();
    log_marginal_likelihoods(prior, noise_var, &arms, &[rewards])[0]
}

/// [`log_marginal_likelihood`] of several reward histories that all observe
/// the same arm sequence: `histories[h][i]` is history `h`'s reward for
/// `arms[i]`. They share `K = Σ_arms + σ²I`, so it is factored once and
/// each history then costs one O(t²) solve. Entry `h` of the result is
/// bit-identical to scoring history `h` alone.
///
/// # Panics
///
/// Panics if an arm index is out of range, `noise_var <= 0`, or a history
/// does not hold one reward per arm.
pub fn log_marginal_likelihoods<H: AsRef<[f64]>>(
    prior: &ArmPrior,
    noise_var: f64,
    arms: &[usize],
    histories: &[H],
) -> Vec<f64> {
    gram_log_marginal_likelihoods(prior.cov(), prior.mean(), noise_var, arms, histories)
}

/// [`log_marginal_likelihoods`] under the prior `N(mean, cov)` given as a
/// raw covariance. It scores a candidate covariance without building an
/// [`ArmPrior`], whose constructor checks the matrix (by a factorization,
/// or by a certificate for a ridged Gram); for a covariance that check
/// accepts, the results are bit-identical.
///
/// # Panics
///
/// As [`log_marginal_likelihoods`], and if `cov` is not square or `mean`
/// does not hold one entry per arm.
pub fn gram_log_marginal_likelihoods<H: AsRef<[f64]>>(
    cov: &Matrix,
    mean: &[f64],
    noise_var: f64,
    arms: &[usize],
    histories: &[H],
) -> Vec<f64> {
    assert!(noise_var > 0.0, "noise variance must be positive");
    assert!(cov.is_square(), "prior covariance must be square");
    assert_eq!(mean.len(), cov.rows(), "prior mean length mismatch");
    let t = arms.len();
    if t == 0 {
        return vec![0.0; histories.len()];
    }
    for &a in arms {
        assert!(a < cov.rows(), "arm index {a} out of range");
    }

    let mut k = Matrix::from_fn(t, t, |i, j| cov[(arms[i], arms[j])]);
    k.add_diag_mut(noise_var);
    let (chol, _) =
        Cholesky::factor_with_jitter(&k, 1e-10, 12).expect("noisy Gram matrix must be factorable");
    let log_det = chol.log_det();

    histories
        .iter()
        .map(|rewards| {
            let rewards = rewards.as_ref();
            assert_eq!(rewards.len(), t, "a history needs one reward per arm");
            let centered: Vec<f64> = arms
                .iter()
                .zip(rewards)
                .map(|(&a, &y)| y - mean[a])
                .collect();
            let quad = chol
                .quad_form(&centered)
                .expect("dimension matches history");
            -0.5 * quad - 0.5 * log_det - 0.5 * t as f64 * LN_2PI
        })
        .collect()
}

/// Scores full rows, one reward for each of the K arms in order, under a
/// low-rank-plus-ridge prior `N(μ₀, α·CCᵀ + c·I)`, where C is K×T, in the
/// T-space rather than the K-space.
///
/// With `M = I_T + (α/c)·CᵀC`, the matrix determinant lemma and the
/// Woodbury identity give, for `r = y − μ₀`:
///
/// ```text
/// log|α·CCᵀ + c·I| = K·ln c + ln|M|
/// rᵀ(α·CCᵀ + c·I)⁻¹r = (rᵀr − (α/c)·‖L_M⁻¹Cᵀr‖²) / c
/// ```
///
/// [`LowRankLml::new`] forms CᵀC and each row's Cᵀr and rᵀr once, in
/// O(K·T²), and reduces CᵀC once to tridiagonal form `QᵀCᵀCQ = Tri`, in
/// ⅔T³ ([`SymmetricTridiagonal`]); it keeps `QᵀCᵀr` for each row. Then
/// `M = Q(I + (α/c)·Tri)Qᵀ`, and `I + (α/c)·Tri` has the LDLᵀ recurrence
///
/// ```text
/// d₀ = 1 + (α/c)·Tri₀₀,  dᵢ = 1 + (α/c)·Triᵢᵢ − ((α/c)·Triᵢ,ᵢ₋₁)² / dᵢ₋₁
/// ```
///
/// whose pivots are all ≥ 1, as `I` plus a positive semi-definite matrix
/// has. So `ln|M| = Σ ln dᵢ` and `‖L_M⁻¹Cᵀr‖² = Σ zᵢ²/dᵢ`, with z the
/// forward substitution of `QᵀCᵀr` through the unit bidiagonal factor, and
/// [`LowRankLml::log_marginal_likelihoods`] costs O(T) per row for each
/// (α, c), where the dense [`gram_log_marginal_likelihoods`] factors a K×K
/// matrix. The two agree to rounding.
#[derive(Debug, Clone)]
pub struct LowRankLml {
    arms: usize,
    /// The diagonal of Tri.
    diag: Vec<f64>,
    /// The sub-diagonal of Tri: `off[i] = Tri[i + 1][i]`.
    off: Vec<f64>,
    /// QᵀCᵀr, one row of T entries per scored row.
    projected: Matrix,
    /// rᵀr of each row.
    sq_norms: Vec<f64>,
}

impl LowRankLml {
    /// Prepares to score `rows` (one reward per arm each) under priors with
    /// mean `mean` and covariance `α·CCᵀ + c·I`. `factor` holds C: K rows,
    /// one per arm, of T entries each.
    ///
    /// # Panics
    ///
    /// Panics if `factor` has no columns, or `mean` or a row does not hold
    /// one entry per arm.
    pub fn new<H: AsRef<[f64]>>(factor: &Matrix, mean: &[f64], rows: &[H]) -> Self {
        let (k, t) = factor.shape();
        assert!(t > 0, "the factor needs at least one column");
        assert_eq!(mean.len(), k, "prior mean length mismatch");
        let tri = SymmetricTridiagonal::new(&factor.col_gram()).expect("CᵀC is square");
        // r = y − μ₀ of each row, and rᵀr.
        let mut centered = Matrix::zeros(rows.len(), k);
        let mut sq_norms = Vec::with_capacity(rows.len());
        for (h, rewards) in rows.iter().enumerate() {
            let rewards = rewards.as_ref();
            assert_eq!(rewards.len(), k, "a history needs one reward per arm");
            let r = centered.row_mut(h);
            for ((ri, y), m) in r.iter_mut().zip(rewards).zip(mean) {
                *ri = y - m;
            }
            sq_norms.push(vec_ops::dot(r, r));
        }
        let mut projected = project(factor, &centered);
        for h in 0..rows.len() {
            tri.apply_qt(projected.row_mut(h));
        }
        LowRankLml {
            arms: k,
            diag: tri.diag().to_vec(),
            off: tri.off_diag().to_vec(),
            projected,
            sq_norms,
        }
    }

    /// The log marginal likelihood of each row under `α·CCᵀ + c·I`, in the
    /// order the rows were given; entry h agrees with
    /// [`gram_log_marginal_likelihoods`] on that dense covariance (with
    /// `noise_var` folded into `c`) to rounding. O(T) per row.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha >= 0` and `c > 0`.
    pub fn log_marginal_likelihoods(&self, alpha: f64, c: f64) -> Vec<f64> {
        assert!(alpha >= 0.0, "the low-rank scale must be non-negative");
        assert!(c > 0.0, "the ridge must be positive");
        let ratio = alpha / c;
        let rows = self.sq_norms.len();
        // Running z_{i−1} and Σ zᵢ²/dᵢ of each row.
        let mut z = vec![0.0; rows];
        let mut quads = vec![0.0; rows];
        let mut ln_det_m = 0.0;
        let mut d_prev = 1.0;
        for (i, &t_ii) in self.diag.iter().enumerate() {
            let e = if i == 0 { 0.0 } else { ratio * self.off[i - 1] };
            let l = e / d_prev;
            let d = 1.0 + ratio * t_ii - l * e;
            ln_det_m += d.ln();
            for (h, (zh, q)) in z.iter_mut().zip(&mut quads).enumerate() {
                let zi = self.projected[(h, i)] - l * *zh;
                *q += zi * zi / d;
                *zh = zi;
            }
            d_prev = d;
        }
        let k = self.arms as f64;
        let log_det = k * c.ln() + ln_det_m;
        self.sq_norms
            .iter()
            .zip(&quads)
            .map(|(&rr, &zz)| {
                let quad = (rr - ratio * zz) / c;
                -0.5 * quad - 0.5 * log_det - 0.5 * k * LN_2PI
            })
            .collect()
    }
}

/// Cᵀr of each row r of `centered`, one row of T entries per row. Entry u
/// sums `C[a][u]·r[a]` over the arms a in order from −0.0, as
/// `vec_ops::dot` of column u and r does, so it equals that dot product bit
/// for bit. The T sums of a row advance together along C's rows, four arms
/// a pass: `x = (((x + c₀y₀) + c₁y₁) + c₂y₂) + c₃y₃`, which keeps each
/// sum's order and vectorises along the row.
fn project(factor: &Matrix, centered: &Matrix) -> Matrix {
    let (k, t) = factor.shape();
    let mut projected = Matrix::filled(centered.rows(), t, -0.0);
    let mut a = 0;
    while a + 4 <= k {
        let [c0, c1, c2, c3] = [a, a + 1, a + 2, a + 3].map(|i| factor.row(i));
        for (h, p) in projected.as_mut_slice().chunks_exact_mut(t).enumerate() {
            let [y0, y1, y2, y3] = [0, 1, 2, 3].map(|d| centered[(h, a + d)]);
            for ((((x, x0), x1), x2), x3) in p.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3) {
                *x = (((*x + x0 * y0) + x1 * y1) + x2 * y2) + x3 * y3;
            }
        }
        a += 4;
    }
    for a in a..k {
        for (h, p) in projected.as_mut_slice().chunks_exact_mut(t).enumerate() {
            let y = centered[(h, a)];
            for (x, c) in p.iter_mut().zip(factor.row(a)) {
                *x += c * y;
            }
        }
    }
    projected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_are_bit_equal_to_dot() {
        // Arm counts run past the four-arm panels; one row is all −0.0.
        for k in 0..10 {
            let factor = Matrix::from_fn(k, 7, |a, u| ((a * 7 + u) as f64 * 0.37).sin());
            let mut centered = Matrix::from_fn(5, k, |h, a| ((h * 5 + a) as f64 * 0.91).cos());
            centered.row_mut(2).fill(-0.0);
            let got = project(&factor, &centered);
            let columns = factor.transpose();
            for h in 0..5 {
                for u in 0..7 {
                    let want = vec_ops::dot(columns.row(u), centered.row(h));
                    assert_eq!(got[(h, u)].to_bits(), want.to_bits(), "K = {k}: ({h}, {u})");
                }
            }
        }
    }

    #[test]
    fn empty_history_has_zero_lml() {
        let prior = ArmPrior::independent(2, 1.0);
        assert_eq!(log_marginal_likelihood(&prior, 0.1, &[]), 0.0);
    }

    #[test]
    fn single_observation_matches_univariate_gaussian() {
        // One observation of arm 0: y ~ N(0, v + s²).
        let v = 1.5;
        let s2 = 0.3;
        let y = 0.8;
        let prior = ArmPrior::independent(1, v);
        let lml = log_marginal_likelihood(&prior, s2, &[(0, y)]);
        let var = v + s2;
        let expected = -0.5 * y * y / var - 0.5 * var.ln() - 0.5 * LN_2PI;
        assert!((lml - expected).abs() < 1e-10);
    }

    #[test]
    fn data_from_the_prior_scores_higher_than_mismatched_data() {
        // Rewards near 0 are more likely under a zero-mean unit prior than
        // rewards far away.
        let prior = ArmPrior::independent(3, 1.0);
        let near = [(0usize, 0.1), (1, -0.2), (2, 0.05)];
        let far = [(0usize, 5.0), (1, -6.0), (2, 4.0)];
        assert!(
            log_marginal_likelihood(&prior, 0.1, &near)
                > log_marginal_likelihood(&prior, 0.1, &far)
        );
    }

    #[test]
    fn correlated_prior_explains_correlated_data_better() {
        let rho = Matrix::from_rows(&[&[1.0, 0.95], &[0.95, 1.0]]);
        let corr = ArmPrior::from_gram(rho);
        let indep = ArmPrior::independent(2, 1.0);
        // Both arms observed at nearly the same value: correlated prior wins.
        let obs = [(0usize, 0.9), (1, 0.88)];
        assert!(
            log_marginal_likelihood(&corr, 0.05, &obs)
                > log_marginal_likelihood(&indep, 0.05, &obs)
        );
    }

    #[test]
    fn shared_factor_scores_each_history_as_if_alone() {
        let gram = Matrix::from_rows(&[&[1.0, 0.6, 0.2], &[0.6, 1.0, 0.4], &[0.2, 0.4, 1.0]]);
        let prior = ArmPrior::from_gram(gram).with_mean(vec![0.1, -0.2, 0.3]);
        // Arms repeat, as replicated draws of one model do.
        let arms = [2usize, 0, 1, 0, 2];
        let histories = [
            vec![0.4, 0.9, -0.3, 0.85, 0.35],
            vec![-1.0, 0.0, 0.25, 0.5, 2.0],
            vec![0.0; 5],
        ];
        for noise in [1e-6, 1e-3, 0.1] {
            let shared = log_marginal_likelihoods(&prior, noise, &arms, &histories);
            assert_eq!(shared.len(), histories.len());
            for (rewards, lml) in histories.iter().zip(&shared) {
                let alone: Vec<(usize, f64)> = arms.iter().copied().zip(rewards.clone()).collect();
                assert_eq!(
                    lml.to_bits(),
                    log_marginal_likelihood(&prior, noise, &alone).to_bits(),
                    "noise {noise}"
                );
            }
        }
        let none: [Vec<f64>; 2] = [vec![], vec![]];
        assert_eq!(
            log_marginal_likelihoods(&prior, 0.1, &[], &none),
            vec![0.0, 0.0]
        );
    }

    #[test]
    #[should_panic(expected = "one reward per arm")]
    fn short_history_panics() {
        let prior = ArmPrior::independent(2, 1.0);
        let _ = log_marginal_likelihoods(&prior, 0.1, &[0, 1], &[[0.5]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_arm_panics() {
        let prior = ArmPrior::independent(1, 1.0);
        let _ = log_marginal_likelihood(&prior, 0.1, &[(3, 0.0)]);
    }
}
