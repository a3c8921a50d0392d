//! The incremental GP posterior over a finite arm set.

use crate::prior::ArmPrior;
use easeml_linalg::{diagonal_condition_estimate, vec_ops, Cholesky, Matrix};

/// Posterior belief over arm qualities after a sequence of noisy
/// observations, per lines 6–7 of the paper's Algorithm 1:
///
/// ```text
/// μ_t(k)  = μ₀(k) + Σ_t(k)ᵀ (Σ_t + σ²I)⁻¹ (y − μ₀)
/// σ_t²(k) = Σ(k,k) − Σ_t(k)ᵀ (Σ_t + σ²I)⁻¹ Σ_t(k)
/// ```
///
/// where `Σ_t(k)` is the vector of prior covariances between arm `k` and the
/// arms played so far, and `Σ_t` is the Gram matrix of the played arms.
///
/// The posterior keeps the Cholesky factor `L` of `Σ_t + σ²I`, packed and
/// append-only, and the rows of `V = L⁻¹Σ_t(·)`, one row of K entries per
/// observation. With `z = L⁻¹(y − μ₀)`, the moments are running sums over
/// those rows, in row order:
///
/// ```text
/// μ_t(k)  = μ₀(k) + Σ_j V[j][k]·z_j
/// σ_t²(k) = Σ(k,k) − Σ_j V[j][k]²
/// ```
///
/// So each [`GpPosterior::observe`] call costs one O(K·t) row append plus
/// O(t + K) bookkeeping. The new factor row is column `arm` of `V` and its
/// pivot is `Σ(arm,arm) + σ² − Σ_j V[j][arm]²`, so extending `L` is an
/// O(t) gather and one square root. `z` gains one entry. The new row of
/// `V` is the last step of the forward solve `L h = Σ_t(k)` run for all
/// arms at once, and it adds one term to every mean and variance. Outside
/// the fallback below, no step allocates beyond `Vec` growth, and
/// [`GpPosterior::reset`] keeps capacity. The t×K rows are never larger
/// than the t×t factor once t ≥ K. `L`, `z` and `V` round exactly as
/// from-scratch forward solves would; the means differ from the
/// `μ₀ + Σ_tᵀα` form only in rounding. [`GpPosterior::posterior_cov`]
/// reads the same rows. Reads are O(1).
///
/// When a pivot is not numerically positive (near-duplicate rows under tiny
/// noise), the posterior refactors the whole Gram with jitter and rebuilds
/// `z`, the rows and the sums in the same row order.
///
/// # Examples
///
/// ```
/// use easeml_gp::{ArmPrior, GpPosterior};
/// use easeml_linalg::Matrix;
///
/// // Two strongly correlated arms.
/// let gram = Matrix::from_rows(&[&[1.0, 0.9], &[0.9, 1.0]]);
/// let mut gp = GpPosterior::new(ArmPrior::from_gram(gram), 0.01);
///
/// gp.observe(0, 0.8);
/// // Observing arm 0 tells us a lot about arm 1 too.
/// assert!(gp.mean(1) > 0.5);
/// assert!(gp.var(1) < 1.0);
/// assert!(gp.var(0) < gp.var(1));
/// ```
#[derive(Debug, Clone)]
pub struct GpPosterior {
    prior: ArmPrior,
    noise_var: f64,
    obs_arms: Vec<usize>,
    obs_y: Vec<f64>,
    /// The Cholesky factor `L` of `Σ_t + σ²I`, packed and append-only: row
    /// `i` holds its `i + 1` entries at offset `i(i+1)/2`.
    l: Vec<f64>,
    /// `z = L⁻¹(y − μ₀)`, one entry per observation.
    z: Vec<f64>,
    /// Rows of `L⁻¹Σ_t(·)`, t×K row-major: entry `(i, k)` is step `i` of
    /// the forward solve `L h = Σ_t(k)`.
    half_rows: Vec<f64>,
    /// Per-arm `‖L⁻¹Σ_t(k)‖²`, summed over `half_rows` in row order.
    reduction: Vec<f64>,
    means: Vec<f64>,
    vars: Vec<f64>,
}

/// The value `Iterator::sum`, and so [`vec_ops::dot`], starts from. Sums
/// built here one term at a time start from it too, so they round exactly
/// as a per-arm dot product would.
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Offset of row `i` in a packed lower-triangular factor.
#[inline]
fn row_offset(i: usize) -> usize {
    i * (i + 1) / 2
}

impl GpPosterior {
    /// Creates a posterior equal to the prior (no observations).
    ///
    /// # Panics
    ///
    /// Panics if `noise_var` is not strictly positive — zero observation
    /// noise makes repeated pulls of the same arm degenerate.
    pub fn new(prior: ArmPrior, noise_var: f64) -> Self {
        assert!(noise_var > 0.0, "observation noise variance must be > 0");
        let means = prior.mean().to_vec();
        let vars = prior.cov().diag();
        GpPosterior {
            prior,
            noise_var,
            obs_arms: Vec::new(),
            obs_y: Vec::new(),
            l: Vec::new(),
            z: Vec::new(),
            half_rows: Vec::new(),
            reduction: vec![sum_start(); means.len()],
            means,
            vars,
        }
    }

    /// Number of arms K.
    #[inline]
    pub fn num_arms(&self) -> usize {
        self.prior.num_arms()
    }

    /// Number of observations incorporated so far (t).
    #[inline]
    pub fn num_observations(&self) -> usize {
        self.obs_arms.len()
    }

    /// The `(arm, reward)` observation history, oldest first.
    pub fn observations(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.obs_arms
            .iter()
            .copied()
            .zip(self.obs_y.iter().copied())
    }

    /// Observation noise variance σ².
    #[inline]
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// The prior this posterior conditions.
    #[inline]
    pub fn prior(&self) -> &ArmPrior {
        &self.prior
    }

    /// Posterior mean μ_t(k).
    #[inline]
    pub fn mean(&self, k: usize) -> f64 {
        self.means[k]
    }

    /// Posterior variance σ_t²(k), clamped at 0.
    #[inline]
    pub fn var(&self, k: usize) -> f64 {
        self.vars[k]
    }

    /// Posterior standard deviation σ_t(k).
    #[inline]
    pub fn std(&self, k: usize) -> f64 {
        self.vars[k].sqrt()
    }

    /// All posterior means.
    #[inline]
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// All posterior variances.
    #[inline]
    pub fn vars(&self) -> &[f64] {
        &self.vars
    }

    /// Cheap condition-number estimate of the `Σ_t + σ²I` Cholesky factor
    /// (see [`diagonal_condition_estimate`]); 1 before any observation.
    /// Exposed so telemetry can watch the posterior's numerical health as
    /// the observation history grows.
    pub fn condition_estimate(&self) -> f64 {
        diagonal_condition_estimate((0..self.obs_arms.len()).map(|i| self.l[row_offset(i) + i]))
    }

    /// Best reward observed so far and the arm that produced it, or `None`
    /// before the first observation. This is the "best model so far" that
    /// ease.ml serves to the user (§3's ease.ml regret).
    pub fn best_observed(&self) -> Option<(usize, f64)> {
        vec_ops::argmax(&self.obs_y).map(|i| (self.obs_arms[i], self.obs_y[i]))
    }

    /// Incorporates the observation `reward` for `arm`.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range or `reward` is not finite.
    pub fn observe(&mut self, arm: usize, reward: f64) {
        assert!(arm < self.num_arms(), "arm index {arm} out of range");
        assert!(reward.is_finite(), "reward must be finite");

        let t = self.obs_arms.len();
        let extended = self.extend_factor(arm);
        self.obs_arms.push(arm);
        self.obs_y.push(reward);
        if extended {
            self.push_z(t);
        } else {
            // Numerically degenerate extension (e.g. nearly-duplicate rows
            // with tiny noise): refactorize the whole Gram with jitter.
            self.refactor();
        }
        self.refresh();
    }

    /// Discards all observations, returning to the prior. Every buffer
    /// keeps its capacity, so replaying a history no longer than the
    /// longest one seen allocates nothing unless it takes the jitter
    /// refactorization.
    pub fn reset(&mut self) {
        self.obs_arms.clear();
        self.obs_y.clear();
        self.l.clear();
        self.z.clear();
        self.half_rows.clear();
        self.reduction.fill(sum_start());
        self.means.copy_from_slice(self.prior.mean());
        let cov = self.prior.cov();
        for (k, var) in self.vars.iter_mut().enumerate() {
            *var = cov[(k, k)];
        }
    }

    /// Posterior covariance between two arms,
    /// `cov_t(k₁, k₂) = Σ(k₁,k₂) − Σ_t(k₁)ᵀ (Σ_t + σ²I)⁻¹ Σ_t(k₂)`.
    ///
    /// The diagonal agrees with [`GpPosterior::var`]; off-diagonals feed
    /// joint sampling (parallel-GP extensions) and diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if either arm index is out of range.
    pub fn posterior_cov(&self, k1: usize, k2: usize) -> f64 {
        assert!(
            k1 < self.num_arms() && k2 < self.num_arms(),
            "arm index out of range"
        );
        if self.obs_arms.is_empty() {
            return self.prior.cov()[(k1, k2)];
        }
        let reduction: f64 = self
            .half_rows
            .chunks_exact(self.num_arms())
            .map(|row| row[k1] * row[k2])
            .sum();
        self.prior.cov()[(k1, k2)] - reduction
    }

    /// The full posterior covariance over a subset of arms (symmetrized).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn joint_cov(&self, arms: &[usize]) -> Matrix {
        let mut m = Matrix::from_fn(arms.len(), arms.len(), |i, j| {
            self.posterior_cov(arms[i], arms[j])
        });
        m.symmetrize_mut();
        m
    }

    /// Appends the factor row of a new observation of `arm`, or returns
    /// `false` and leaves the factor alone when the extended Gram is not
    /// numerically positive definite.
    ///
    /// The row is `L⁻¹Σ_t(arm)`, which is column `arm` of the cached rows,
    /// computed in `solve_lower`'s operation order, and the pivot is
    /// `Σ(arm,arm) + σ² − ‖L⁻¹Σ_t(arm)‖²` with the squared norm read from
    /// the running reductions. So extension is an O(t) gather plus one
    /// square root, and the row rounds exactly as a fresh forward solve
    /// would.
    fn extend_factor(&mut self, arm: usize) -> bool {
        let _timing = easeml_obs::global_timer(easeml_obs::Component::CholeskyExtend);
        let pivot = self.prior.cov()[(arm, arm)] + self.noise_var - self.reduction[arm];
        if pivot <= 0.0 || !pivot.is_finite() {
            return false;
        }
        let k_arms = self.num_arms();
        self.l
            .extend(self.half_rows.chunks_exact(k_arms).map(|row| row[arm]));
        self.l.push(pivot.sqrt());
        true
    }

    /// Appends `z_i`, step `i` of `solve_lower` on `L z = y − μ₀`.
    fn push_z(&mut self, i: usize) {
        let l_row = &self.l[row_offset(i)..][..=i];
        let mut s = self.obs_y[i] - self.prior.mean()[self.obs_arms[i]];
        for (&l_ij, &z_j) in l_row[..i].iter().zip(&self.z) {
            s -= l_ij * z_j;
        }
        self.z.push(s / l_row[i]);
    }

    /// Rebuilds the Cholesky factor from scratch with jitter escalation.
    fn refactor(&mut self) {
        let t = self.obs_arms.len();
        let mut gram = Matrix::from_fn(t, t, |i, j| {
            self.prior.cov()[(self.obs_arms[i], self.obs_arms[j])]
        });
        gram.add_diag_mut(self.noise_var);
        let (chol, _) = Cholesky::factor_with_jitter(&gram, 1e-10, 12)
            .expect("noisy Gram matrix must be factorable");
        self.l.clear();
        for i in 0..t {
            self.l.extend_from_slice(&chol.l().row(i)[..=i]);
        }
        self.z.clear();
        for i in 0..t {
            self.push_z(i);
        }
        // A new factor invalidates every cached row, reduction and mean;
        // `refresh` rebuilds them in the same row order.
        self.half_rows.clear();
        self.reduction.fill(sum_start());
        self.means.copy_from_slice(self.prior.mean());
    }

    /// Appends the rows of `L⁻¹Σ_t(·)` the factor has gained, which
    /// updates the reductions and means, then recomputes the variances of
    /// all arms: O(K·t) after an extension, O(K·t²) after a
    /// refactorization.
    fn refresh(&mut self) {
        let _timing = easeml_obs::global_timer(easeml_obs::Component::PosteriorRefresh);
        for i in self.half_rows.len() / self.num_arms()..self.obs_arms.len() {
            self.push_half_row(i);
        }
        let cov = self.prior.cov();
        for (k, (var, &r)) in self.vars.iter_mut().zip(&self.reduction).enumerate() {
            *var = (cov[(k, k)] - r).max(0.0);
        }
    }

    /// Appends row `i` of `L⁻¹Σ_t(·)`: step `i` of `solve_lower` on
    /// `L h = Σ_t(k)`, for every arm `k` at once and in the same operation
    /// order. It adds the row's squares to the running reductions and
    /// `h_i(k)·z_i` to the running means.
    fn push_half_row(&mut self, i: usize) {
        let k_arms = self.num_arms();
        let l_row = &self.l[row_offset(i)..][..=i];
        let z_i = self.z[i];
        self.half_rows
            .extend_from_slice(self.prior.cov().row(self.obs_arms[i]));
        let (done, row) = self.half_rows.split_at_mut(i * k_arms);
        for (&l_ij, prev) in l_row[..i].iter().zip(done.chunks_exact(k_arms)) {
            for (s, &h) in row.iter_mut().zip(prev) {
                *s -= l_ij * h;
            }
        }
        let d = l_row[i];
        for ((s, r), m) in row.iter_mut().zip(&mut self.reduction).zip(&mut self.means) {
            *s /= d;
            *r += *s * *s;
            *m += *s * z_i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_linalg::Matrix;
    use proptest::prelude::*;

    fn correlated_prior(rho: f64) -> ArmPrior {
        ArmPrior::from_gram(Matrix::from_rows(&[&[1.0, rho], &[rho, 1.0]]))
    }

    /// The packed factor `L` as a dense lower-triangular matrix.
    fn factor(gp: &GpPosterior) -> Matrix {
        let t = gp.obs_arms.len();
        Matrix::from_fn(
            t,
            t,
            |i, j| {
                if j <= i {
                    gp.l[row_offset(i) + j]
                } else {
                    0.0
                }
            },
        )
    }

    /// `L⁻¹Σ_t(k)` by a fresh forward solve.
    fn half_solve(gp: &GpPosterior, l: &Matrix, k: usize) -> Vec<f64> {
        let cross: Vec<f64> = gp
            .obs_arms
            .iter()
            .map(|&a| gp.prior.cov()[(a, k)])
            .collect();
        easeml_linalg::solve_lower(l, &cross).unwrap()
    }

    /// `L⁻¹(y − μ₀)` by a fresh forward solve.
    fn centered_solve(gp: &GpPosterior, l: &Matrix) -> Vec<f64> {
        let centered: Vec<f64> = gp
            .observations()
            .map(|(a, y)| y - gp.prior.mean()[a])
            .collect();
        easeml_linalg::solve_lower(l, &centered).unwrap()
    }

    /// The per-arm solve the cached rows replaced, kept as their bit-exact
    /// reference: for every arm, gather `Σ_t(k)` and forward-solve
    /// `L h = Σ_t(k)` from scratch, O(K·t²) per refresh. The variance is
    /// `Σ(k,k) − ‖h‖²`; the mean is `μ₀(k) + Σ_j h_j·z_j`, summed row by row
    /// from `μ₀(k)`, with `z = L⁻¹(y − μ₀)` also solved from scratch.
    fn reference_moments(gp: &GpPosterior) -> (Vec<f64>, Vec<f64>) {
        if gp.obs_arms.is_empty() {
            return (gp.prior.mean().to_vec(), gp.prior.cov().diag());
        }
        let l = factor(gp);
        let z = centered_solve(gp, &l);
        let k_arms = gp.num_arms();
        let (mut means, mut vars) = (vec![0.0; k_arms], vec![0.0; k_arms]);
        for k in 0..k_arms {
            let half = half_solve(gp, &l, k);
            means[k] = half
                .iter()
                .zip(&z)
                .fold(gp.prior.mean()[k], |m, (&h, &z_j)| m + h * z_j);
            vars[k] = (gp.prior.cov()[(k, k)] - vec_ops::dot(&half, &half)).max(0.0);
        }
        (means, vars)
    }

    /// The means the running sums replaced: `μ₀ + Σ_t(·)ᵀα` with
    /// `α = L⁻ᵀL⁻¹(y − μ₀)` from two fresh triangular solves, each arm's sum
    /// in `vec_ops::dot`'s order. Returns each arm's mean and the magnitude
    /// its rounding scales with, `|μ₀(k)| + Σ_j |Σ(a_j,k)·α_j|`.
    fn alpha_means(gp: &GpPosterior) -> Vec<(f64, f64)> {
        if gp.obs_arms.is_empty() {
            return gp.prior.mean().iter().map(|&m0| (m0, m0.abs())).collect();
        }
        let l = factor(gp);
        let alpha = easeml_linalg::solve_lower_transpose(&l, &centered_solve(gp, &l)).unwrap();
        (0..gp.num_arms())
            .map(|k| {
                let cross: Vec<f64> = gp
                    .obs_arms
                    .iter()
                    .map(|&a| gp.prior.cov()[(a, k)])
                    .collect();
                let m0 = gp.prior.mean()[k];
                let terms: f64 = cross.iter().zip(&alpha).map(|(c, a)| (c * a).abs()).sum();
                (m0 + vec_ops::dot(&cross, &alpha), m0.abs() + terms)
            })
            .collect()
    }

    /// The two-forward-solve `posterior_cov` the cached rows replaced.
    fn reference_cov(gp: &GpPosterior, k1: usize, k2: usize) -> f64 {
        if gp.obs_arms.is_empty() {
            return gp.prior.cov()[(k1, k2)];
        }
        let l = factor(gp);
        gp.prior.cov()[(k1, k2)] - vec_ops::dot(&half_solve(gp, &l, k1), &half_solve(gp, &l, k2))
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Panics unless every cached mean, variance and posterior covariance
    /// of `gp` equals the reference bit for bit, and every mean lies within
    /// `8·t·ε·κ̂` of the `Σᵀα` mean, relative to the magnitude that sum
    /// rounds at, where `κ̂` is [`GpPosterior::condition_estimate`]. The
    /// two orders of summation round apart by at most about a quarter of
    /// that on random priors, well-posed or singular, at every noise level
    /// `noise()` draws.
    fn assert_matches_reference(gp: &GpPosterior, context: &str) {
        let (means, vars) = reference_moments(gp);
        assert_eq!(bits(gp.means()), bits(&means), "means, {context}");
        assert_eq!(bits(gp.vars()), bits(&vars), "variances, {context}");
        let t = gp.num_observations() as f64;
        let tolerance = 8.0 * t * f64::EPSILON * gp.condition_estimate();
        for (k, (mean, magnitude)) in alpha_means(gp).into_iter().enumerate() {
            assert!(
                (gp.mean(k) - mean).abs() <= tolerance * magnitude,
                "mean {k} is {} against Σᵀα's {mean} (magnitude {magnitude}), {context}",
                gp.mean(k)
            );
        }
        for k1 in 0..gp.num_arms() {
            for k2 in 0..gp.num_arms() {
                assert_eq!(
                    gp.posterior_cov(k1, k2).to_bits(),
                    reference_cov(gp, k1, k2).to_bits(),
                    "cov({k1}, {k2}), {context}"
                );
            }
        }
    }

    /// Whether the factor extension's pivot test, `Σ(a,a) + σ² − ‖L⁻¹Σ_t(a)‖²`
    /// non-positive or non-finite, fails somewhere along `plays`, so that a
    /// posterior observing them takes the refactorization fallback.
    fn extend_fails(prior: &ArmPrior, noise: f64, plays: &[usize]) -> bool {
        let mut gp = GpPosterior::new(prior.clone(), noise);
        plays.iter().any(|&a| {
            let l = factor(&gp);
            let half = half_solve(&gp, &l, a);
            let pivot = prior.cov()[(a, a)] + noise - vec_ops::dot(&half, &half);
            gp.observe(a, 0.0);
            pivot <= 0.0 || !pivot.is_finite()
        })
    }

    /// A random prior over 1–7 arms: covariance `B Bᵀ` for a K×r `B`,
    /// singular whenever r < K, and a random mean.
    fn spd_prior() -> impl Strategy<Value = ArmPrior> {
        (1usize..8, 1usize..8).prop_flat_map(|(k, r)| {
            (
                prop::collection::vec(-1.0f64..1.0, k * r),
                prop::collection::vec(-0.5f64..0.5, k),
            )
                .prop_map(move |(b, mean)| {
                    let gram = Matrix::from_fn(k, k, |i, j| {
                        (0..r).map(|c| b[i * r + c] * b[j * r + c]).sum()
                    });
                    ArmPrior::from_gram(gram).with_mean(mean)
                })
        })
    }

    /// Noise levels from well-posed down to below the prior's rounding
    /// error, where repeated arms make the factor extension fail.
    fn noise() -> impl Strategy<Value = f64> {
        prop::sample::select(vec![0.1, 1e-3, 1e-6, 1e-10, 1e-14, 1e-17])
    }

    /// GP-BUCB's posterior bookkeeping: the hallucinated posterior is the
    /// real one plus one mean-valued fake observation per pending arm, in
    /// dispatch order (what `easeml_bandit::GpUcb::hallucinate` builds over
    /// a tenant's in-flight arms), grown at each selection and rebuilt at
    /// each resolution.
    struct Bucb {
        real: GpPosterior,
        halluc: GpPosterior,
        pending: Vec<usize>,
    }

    impl Bucb {
        fn select_next(&mut self) {
            let ucb: Vec<f64> = (0..self.halluc.num_arms())
                .map(|k| self.halluc.mean(k) + 2.0 * self.halluc.std(k))
                .collect();
            self.mark_pending(vec_ops::argmax(&ucb).unwrap());
        }

        fn mark_pending(&mut self, arm: usize) {
            let fake = self.halluc.mean(arm);
            self.halluc.observe(arm, fake);
            self.pending.push(arm);
        }

        fn rebuild(&mut self) {
            self.halluc = self.real.clone();
            for &arm in &self.pending {
                let fake = self.halluc.mean(arm);
                self.halluc.observe(arm, fake);
            }
        }

        fn resolve_at(&mut self, idx: usize, reward: f64) {
            let arm = self.pending.remove(idx);
            self.real.observe(arm, reward);
            self.rebuild();
        }

        fn cancel_at(&mut self, idx: usize) {
            self.pending.remove(idx);
            self.rebuild();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cached_rows_match_the_per_arm_solve_bit_for_bit(
            prior in spd_prior(),
            noise in noise(),
            ops in prop::collection::vec((0usize..12, 0usize..8, -1.0f64..1.0), 1..24),
        ) {
            let k = prior.num_arms();
            let mut gp = GpPosterior::new(prior, noise);
            assert_matches_reference(&gp, "prior");
            for (step, &(op, arm, reward)) in ops.iter().enumerate() {
                if op == 0 {
                    gp.reset();
                } else {
                    gp.observe(arm % k, reward);
                }
                assert_matches_reference(&gp, &format!("step {step}, noise {noise}"));
            }
        }

        #[test]
        fn gp_bucb_sequences_match_the_per_arm_solve_bit_for_bit(
            prior in spd_prior(),
            noise in noise(),
            ops in prop::collection::vec((0usize..6, 0usize..64, -1.0f64..1.0), 1..24),
        ) {
            let k = prior.num_arms();
            let real = GpPosterior::new(prior, noise);
            let mut bucb = Bucb { halluc: real.clone(), real, pending: Vec::new() };
            for (step, &(op, x, reward)) in ops.iter().enumerate() {
                let pending = bucb.pending.len();
                match op {
                    0 | 1 => bucb.select_next(),
                    2 if pending > 0 => bucb.resolve_at(x % pending, reward),
                    3 if pending > 0 => bucb.cancel_at(x % pending),
                    4 => bucb.mark_pending(x % k),
                    _ => {
                        bucb.real.observe(x % k, reward);
                        bucb.rebuild();
                    }
                }
                let context = format!("step {step}, noise {noise}");
                assert_matches_reference(&bucb.real, &format!("real, {context}"));
                assert_matches_reference(&bucb.halluc, &format!("hallucinated, {context}"));
            }
        }
    }

    #[test]
    fn refactor_fallback_rebuilds_the_rows_bit_for_bit() {
        // Noise below the rounding error of the unit prior variance: the
        // second pull of arm 0 cannot extend the factor.
        let prior = correlated_prior(0.999);
        let noise = 1e-17;
        let plays = [0, 0, 1, 0, 1, 1, 0];
        assert!(extend_fails(&prior, noise, &plays));
        let mut gp = GpPosterior::new(prior, noise);
        for (i, &arm) in plays.iter().enumerate() {
            gp.observe(arm, 0.5 + 0.01 * i as f64);
            assert_matches_reference(&gp, &format!("play {i}"));
        }
        gp.reset();
        assert_matches_reference(&gp, "reset");
        gp.observe(1, 0.3);
        assert_matches_reference(&gp, "after reset");
    }

    #[test]
    fn prior_state_before_observations() {
        let gp = GpPosterior::new(correlated_prior(0.5), 0.1);
        assert_eq!(gp.num_observations(), 0);
        assert_eq!(gp.mean(0), 0.0);
        assert_eq!(gp.var(0), 1.0);
        assert_eq!(gp.best_observed(), None);
    }

    #[test]
    fn observation_moves_mean_and_shrinks_variance() {
        let mut gp = GpPosterior::new(correlated_prior(0.9), 0.01);
        gp.observe(0, 1.0);
        assert!(gp.mean(0) > 0.9, "mean should move towards the observation");
        assert!(gp.var(0) < 0.05, "variance of the observed arm collapses");
        // Correlated arm learns too, but less.
        assert!(gp.mean(1) > 0.5);
        assert!(gp.var(1) > gp.var(0));
        assert!(gp.var(1) < 1.0);
    }

    #[test]
    fn independent_arms_do_not_leak_information() {
        let mut gp = GpPosterior::new(ArmPrior::independent(2, 1.0), 0.01);
        gp.observe(0, 1.0);
        assert_eq!(gp.mean(1), 0.0);
        assert!((gp.var(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn posterior_matches_closed_form_single_observation() {
        // For one observation of arm 0 with prior var v and noise s²:
        // μ = v/(v+s²) · y, σ² = v − v²/(v+s²).
        let v = 2.0;
        let s2 = 0.5;
        let y = 1.5;
        let mut gp = GpPosterior::new(ArmPrior::independent(1, v), s2);
        gp.observe(0, y);
        let shrink = v / (v + s2);
        assert!((gp.mean(0) - shrink * y).abs() < 1e-12);
        assert!((gp.var(0) - (v - v * shrink)).abs() < 1e-12);
    }

    #[test]
    fn repeated_observations_average_out() {
        let mut gp = GpPosterior::new(ArmPrior::independent(1, 1.0), 0.1);
        for _ in 0..50 {
            gp.observe(0, 0.7);
        }
        assert!((gp.mean(0) - 0.7).abs() < 0.01);
        assert!(gp.var(0) < 0.01);
    }

    #[test]
    fn incremental_matches_batch_reconstruction() {
        // Verify the cached posterior against a from-scratch computation.
        let gram = Matrix::from_rows(&[&[1.0, 0.6, 0.2], &[0.6, 1.0, 0.4], &[0.2, 0.4, 1.0]]);
        let prior = ArmPrior::from_gram(gram.clone());
        let noise = 0.05;
        let mut gp = GpPosterior::new(prior.clone(), noise);
        let history = [(0usize, 0.9), (2, 0.3), (0, 0.85), (1, 0.6)];
        for &(a, y) in &history {
            gp.observe(a, y);
        }

        // Batch: K_t + σ²I, solve directly.
        let t = history.len();
        let mut kt = Matrix::from_fn(t, t, |i, j| gram[(history[i].0, history[j].0)]);
        kt.add_diag_mut(noise);
        let chol = Cholesky::factor(&kt).unwrap();
        let ys: Vec<f64> = history.iter().map(|&(_, y)| y).collect();
        let alpha = chol.solve(&ys).unwrap();
        for k in 0..3 {
            let cross: Vec<f64> = history.iter().map(|&(a, _)| gram[(a, k)]).collect();
            let mean = vec_ops::dot(&cross, &alpha);
            let var = gram[(k, k)] - chol.quad_form(&cross).unwrap();
            assert!((gp.mean(k) - mean).abs() < 1e-9, "mean arm {k}");
            assert!((gp.var(k) - var.max(0.0)).abs() < 1e-9, "var arm {k}");
        }
    }

    #[test]
    fn best_observed_tracks_maximum() {
        let mut gp = GpPosterior::new(ArmPrior::independent(3, 1.0), 0.1);
        gp.observe(1, 0.4);
        gp.observe(2, 0.9);
        gp.observe(0, 0.6);
        assert_eq!(gp.best_observed(), Some((2, 0.9)));
    }

    #[test]
    fn reset_restores_prior() {
        let mut gp = GpPosterior::new(correlated_prior(0.5), 0.1);
        gp.observe(0, 1.0);
        gp.reset();
        assert_eq!(gp.num_observations(), 0);
        assert_eq!(gp.mean(0), 0.0);
        assert_eq!(gp.var(1), 1.0);
    }

    #[test]
    fn nonzero_prior_mean_is_respected() {
        let prior = ArmPrior::independent(2, 1.0).with_mean(vec![0.5, 0.5]);
        let mut gp = GpPosterior::new(prior, 0.1);
        assert_eq!(gp.mean(0), 0.5);
        gp.observe(0, 0.5);
        // Observation equal to the prior mean leaves the mean in place.
        assert!((gp.mean(0) - 0.5).abs() < 1e-12);
        assert!((gp.mean(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tiny_noise_duplicate_observations_survive() {
        // Nearly-singular extension path: same arm many times with
        // minuscule noise exercises the refactor fallback.
        let mut gp = GpPosterior::new(correlated_prior(0.999), 1e-12);
        for _ in 0..10 {
            gp.observe(0, 0.5);
        }
        assert!(gp.mean(0).is_finite());
        assert!(gp.var(0) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_arm_panics() {
        let mut gp = GpPosterior::new(ArmPrior::independent(1, 1.0), 0.1);
        gp.observe(1, 0.0);
    }

    #[test]
    #[should_panic(expected = "noise variance")]
    fn zero_noise_rejected() {
        let _ = GpPosterior::new(ArmPrior::independent(1, 1.0), 0.0);
    }

    #[test]
    fn variance_never_negative() {
        let mut gp = GpPosterior::new(correlated_prior(0.99), 0.001);
        for i in 0..20 {
            gp.observe(i % 2, 0.5 + 0.01 * i as f64);
            for k in 0..2 {
                assert!(gp.var(k) >= 0.0);
            }
        }
    }

    #[test]
    fn posterior_cov_diagonal_matches_var() {
        let mut gp = GpPosterior::new(correlated_prior(0.7), 0.05);
        gp.observe(0, 0.4);
        gp.observe(1, 0.6);
        for k in 0..2 {
            assert!((gp.posterior_cov(k, k) - gp.var(k)).abs() < 1e-10);
        }
    }

    #[test]
    fn posterior_cov_prior_state_and_shrinkage() {
        let mut gp = GpPosterior::new(correlated_prior(0.8), 0.01);
        // Before observations the posterior covariance is the prior's.
        assert!((gp.posterior_cov(0, 1) - 0.8).abs() < 1e-12);
        gp.observe(0, 0.5);
        // Observing arm 0 explains away shared variance: |cov| shrinks.
        assert!(gp.posterior_cov(0, 1).abs() < 0.8);
    }

    #[test]
    fn joint_cov_is_symmetric_and_consistent() {
        let mut gp = GpPosterior::new(correlated_prior(0.6), 0.02);
        gp.observe(1, 0.7);
        let j = gp.joint_cov(&[0, 1]);
        assert!(j.is_symmetric(1e-12));
        assert!((j[(0, 0)] - gp.var(0)).abs() < 1e-10);
        assert!((j[(0, 1)] - gp.posterior_cov(0, 1)).abs() < 1e-10);
    }

    #[test]
    fn condition_estimate_starts_at_one_and_grows() {
        let mut gp = GpPosterior::new(correlated_prior(0.95), 0.01);
        assert_eq!(gp.condition_estimate(), 1.0);
        gp.observe(0, 0.5);
        let c1 = gp.condition_estimate();
        assert!(c1 >= 1.0 && c1.is_finite());
        // Repeatedly observing highly correlated arms with small noise
        // makes the Gram matrix progressively ill-conditioned.
        for _ in 0..8 {
            gp.observe(0, 0.5);
            gp.observe(1, 0.45);
        }
        assert!(gp.condition_estimate() > c1);
    }

    #[test]
    fn observations_iterator_order() {
        let mut gp = GpPosterior::new(ArmPrior::independent(3, 1.0), 0.1);
        gp.observe(2, 0.2);
        gp.observe(0, 0.1);
        let obs: Vec<_> = gp.observations().collect();
        assert_eq!(obs, vec![(2, 0.2), (0, 0.1)]);
    }
}
