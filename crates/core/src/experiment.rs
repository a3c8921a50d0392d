//! The repeated train/test experiment protocol (§5.2, Appendix A).
//!
//! Each repetition: randomly split the dataset's users into train/test;
//! build the empirical model-similarity prior from the training users'
//! quality vectors; tune the GP hyperparameters by maximizing the log
//! marginal likelihood of the training rows ("as in scikit-learn"); then
//! run the scheduler on the test users under the configured budget. Results
//! are resampled onto a common grid and aggregated into average and
//! worst-case accuracy-loss curves.

use crate::metrics::AggregatedCurves;
use crate::sim::{simulate, SchedulerKind, SimConfig, SimTrace};
use easeml_data::{Dataset, TrainTestSplit};
use easeml_gp::mll::{gram_log_marginal_likelihoods, LowRankLml};
use easeml_gp::{ArmPrior, TuneGrid};
use easeml_linalg::{vec_ops, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How the exploration budget of a run is expressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Fraction of the *number of all (test user, model) pairs*: the
    /// cost-oblivious protocol (§5.3.1 runs 50% of all models; the x-axis
    /// is "% of runs"). Schedulers ignore costs and every run costs 1.
    FractionOfRuns(f64),
    /// Fraction of the *total runtime of all (test user, model) pairs*:
    /// the cost-aware protocol (§5.2 runs 10% of total runtime; the x-axis
    /// is "% of total cost"). Schedulers see real costs.
    FractionOfCost(f64),
}

impl Budget {
    fn fraction(self) -> f64 {
        match self {
            Budget::FractionOfRuns(f) | Budget::FractionOfCost(f) => f,
        }
    }
}

/// Configuration of one experiment (one dataset × one scheduler).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of users sampled into the test set each repetition (the
    /// paper uses 10).
    pub test_users: usize,
    /// Number of repetitions with different random splits (the paper
    /// uses 50).
    pub repetitions: usize,
    /// The exploration budget.
    pub budget: Budget,
    /// Override the cost-awareness implied by the budget kind — used by the
    /// Figure-13 lesion, which spends real costs but schedules as if
    /// `c ≡ 1`.
    pub cost_aware_override: Option<bool>,
    /// Keep only this fraction of the training users when building the
    /// kernel (Figure 14's 10% / 50% / 100% knob).
    pub train_fraction: f64,
    /// Hyperparameter grid for the LML tuner.
    pub tune_grid: TuneGrid,
    /// How many training users' rows enter the LML objective (the paper
    /// does not specify). With T training users and K models, when T < K
    /// each extra row costs O(K·T + T²) once per split, for its projection
    /// onto the T user columns and its rotation into the tridiagonal basis,
    /// plus O(T) per grid point; otherwise the rows share one factorization
    /// per grid point and each costs one O(K²) solve there.
    pub tune_rows: usize,
    /// Number of points on the output grid.
    pub grid_points: usize,
    /// δ for the β schedules.
    pub delta: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            test_users: 10,
            repetitions: 50,
            budget: Budget::FractionOfCost(0.10),
            cost_aware_override: None,
            train_fraction: 1.0,
            tune_grid: TuneGrid {
                scales: vec![0.3, 1.0, 3.0],
                noises: vec![1e-4, 1e-3, 1e-2],
            },
            tune_rows: 4,
            grid_points: 101,
            delta: 0.1,
        }
    }
}

/// The outcome of an experiment: aggregated curves plus per-repetition
/// summaries.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Scheduler that was evaluated.
    pub scheduler: SchedulerKind,
    /// Dataset name.
    pub dataset: String,
    /// Budget percentages (0–100).
    pub grid_pct: Vec<f64>,
    /// Mean accuracy loss across repetitions at each grid point.
    pub mean_curve: Vec<f64>,
    /// Worst-case accuracy loss across repetitions at each grid point.
    pub worst_curve: Vec<f64>,
    /// Final mean loss of each repetition.
    pub final_losses: Vec<f64>,
    /// Mean number of training runs executed per repetition.
    pub mean_rounds: f64,
}

/// Builds the empirical prior for the test users of one split, following
/// the paper's Appendix A: each model's feature is its *quality vector* on
/// the training users, the prior mean is the scalar global mean quality
/// (the "μ = 0 after centering" convention), and the prior covariance is
/// the Gram matrix of the globally-centered quality vectors — "the
/// performance of a model on other users' data sets defines the similarity
/// between models" (§5.3.2).
///
/// With C the K×T matrix of centred quality vectors (one column per
/// training user), the covariance is Σ = CCᵀ/T + ρI. CCᵀ/T is positive
/// semi-definite, and the ridge ρ = 10⁻³ × its mean diagonal (at least
/// 10⁻⁹) is positive, so Σ is positive definite even for one training user
/// or duplicated models.
///
/// Keeping the mean scalar is essential: per-model skill must be encoded in
/// the *covariance*, so that the value of the kernel — and hence of more
/// training users (Figure 14) — is visible to the scheduler.
pub fn empirical_prior(dataset: &Dataset, train_users: &[usize]) -> (Vec<f64>, Matrix) {
    let prior = EmpiricalPrior::build(dataset, train_users);
    (prior.means, prior.cov)
}

/// [`empirical_prior`] together with the factors its covariance is built
/// from, so the tuner can score the low-rank form CCᵀ/T + ρI directly.
struct EmpiricalPrior {
    means: Vec<f64>,
    /// Σ = CCᵀ/T + ρI.
    cov: Matrix,
    /// C: one row per model, of its centred qualities on the T training
    /// users.
    factor: Matrix,
    /// The ridge ρ.
    ridge: f64,
}

impl EmpiricalPrior {
    fn build(dataset: &Dataset, train_users: &[usize]) -> Self {
        assert!(!train_users.is_empty(), "need at least one training user");
        let k = dataset.num_models();
        let t = train_users.len() as f64;
        let mut users = Matrix::zeros(train_users.len(), k);
        for (row, &u) in train_users.iter().enumerate() {
            users
                .row_mut(row)
                .copy_from_slice(dataset.user_qualities(u));
        }
        // Each model's mean quality, summed over the users in order from
        // −0.0 as `vec_ops::mean` sums a model's quality vector.
        let mut means = vec![-0.0; k];
        for row in 0..train_users.len() {
            for (m, q) in means.iter_mut().zip(users.row(row)) {
                *m += q;
            }
        }
        for m in &mut means {
            *m /= t;
        }
        let global_mean = vec_ops::mean(&means);
        means.fill(global_mean);
        // Second-moment Gram about the global mean: exactly PSD, and it keeps
        // per-model mean offsets inside the covariance.
        for q in users.as_mut_slice() {
            *q -= global_mean;
        }
        let mut cov = users.col_gram();
        for v in cov.as_mut_slice() {
            *v /= t;
        }
        // Ridge so single-user splits and duplicated models stay factorable.
        let mean_diag = vec_ops::mean(&cov.diag()).max(1e-6);
        let ridge = 1e-3 * mean_diag;
        cov.add_diag_mut(ridge);
        EmpiricalPrior {
            means,
            cov,
            factor: users.transpose(),
            ridge,
        }
    }

    /// The tuning objective at every grid point, scales outer and noises
    /// inner: `(scale, noise, total)`, where `total` is the log marginal
    /// likelihood of `rows` (one reward per model each) under
    /// `N(means, scale·Σ + noise·I)`.
    ///
    /// This is the one place that picks the side to score in. With T
    /// training users and K models, each grid point's Gram is
    /// (scale/T)·CCᵀ + (scale·ρ + noise)·I. When T < K, [`LowRankLml`]
    /// reduces CᵀC once and scores each grid point in O(T) per row;
    /// otherwise the dense K×K Gram scale·Σ + noise·I is the smaller one to
    /// factor.
    fn grid_totals(&self, rows: &[&[f64]], grid: &TuneGrid) -> Vec<(f64, f64, f64)> {
        let (k, t) = self.factor.shape();
        let mut totals = Vec::with_capacity(grid.scales.len() * grid.noises.len());
        if t < k {
            let lml = LowRankLml::new(&self.factor, &self.means, rows);
            for &scale in &grid.scales {
                for &noise in &grid.noises {
                    let alpha = scale / t as f64;
                    let c = scale * self.ridge + noise;
                    let total = lml.log_marginal_likelihoods(alpha, c).iter().sum();
                    totals.push((scale, noise, total));
                }
            }
        } else {
            let arms: Vec<usize> = (0..k).collect();
            for &scale in &grid.scales {
                let cov = self.cov.scaled(scale);
                for &noise in &grid.noises {
                    let lmls = gram_log_marginal_likelihoods(&cov, &self.means, noise, &arms, rows);
                    totals.push((scale, noise, lmls.iter().sum()));
                }
            }
        }
        totals
    }
}

/// Runs the full repeated protocol for one scheduler on one dataset.
///
/// The same `seed` yields the same splits across scheduler kinds, so
/// comparisons are paired (the paper's protocol: all strategies run on the
/// same 50 random splits).
///
/// # Panics
///
/// Panics on nonsensical configurations (no test users, more test users
/// than the dataset has, zero repetitions).
pub fn run_experiment(
    dataset: &Dataset,
    scheduler: SchedulerKind,
    cfg: &ExperimentConfig,
    seed: u64,
) -> ExperimentResult {
    assert!(cfg.repetitions > 0, "need at least one repetition");
    assert!(
        cfg.test_users > 0 && cfg.test_users < dataset.num_users(),
        "test_users must leave at least one training user"
    );

    let cost_aware = cfg
        .cost_aware_override
        .unwrap_or(matches!(cfg.budget, Budget::FractionOfCost(_)));

    let mut traces: Vec<SimTrace> = Vec::with_capacity(cfg.repetitions);
    for rep in 0..cfg.repetitions {
        // One RNG for the split (shared across schedulers via the seed),
        // one for the scheduler's stochastic choices.
        let mut split_rng = StdRng::seed_from_u64(seed.wrapping_add(rep as u64));
        let mut sim_rng = StdRng::seed_from_u64(seed ^ 0x5EED_0000 ^ (rep as u64) << 16);

        let split = TrainTestSplit::random(dataset.num_users(), cfg.test_users, &mut split_rng)
            .truncate_train(cfg.train_fraction);
        let test = dataset.select_users(&split.test_users);
        let test = match cfg.budget {
            Budget::FractionOfRuns(_) => test.unit_cost_view(),
            Budget::FractionOfCost(_) => test,
        };

        let budget = match cfg.budget {
            Budget::FractionOfRuns(_) => {
                (test.num_users() * test.num_models()) as f64 * cfg.budget.fraction()
            }
            Budget::FractionOfCost(_) => test.total_cost() * cfg.budget.fraction(),
        };

        // Heuristic schedulers need no prior.
        let (priors, noise_var) = if matches!(
            scheduler,
            SchedulerKind::MostCited | SchedulerKind::MostRecent
        ) {
            (Vec::new(), 1e-3)
        } else {
            let obs = easeml_obs::global_handle();
            let empirical = {
                let _span = obs.span("prior_build");
                EmpiricalPrior::build(dataset, &split.train_users)
            };
            let (prior, noise) = {
                let _span = obs.span("prior_tune");
                tune_prior(dataset, &split.train_users, empirical, cfg)
            };
            (vec![prior; test.num_users()], noise)
        };

        let sim_cfg = SimConfig {
            budget,
            cost_aware,
            noise_var,
            delta: cfg.delta,
            fault: None,
        };
        traces.push(simulate(&test, &priors, scheduler, &sim_cfg, &mut sim_rng));
    }

    let agg = AggregatedCurves::from_traces(&traces, cfg.grid_points);
    ExperimentResult {
        scheduler,
        dataset: dataset.name().to_string(),
        grid_pct: agg.grid_pct,
        mean_curve: agg.mean,
        worst_curve: agg.worst,
        final_losses: traces
            .iter()
            .map(|t| vec_ops::mean(&t.final_losses))
            .collect(),
        mean_rounds: vec_ops::mean(&traces.iter().map(|t| t.rounds as f64).collect::<Vec<_>>()),
    }
}

/// Tunes (scale, noise) by summing the LML over up to `tune_rows` training
/// users' full quality rows; returns the winning grid point's prior and
/// noise. Only the winner is built, from `prior`'s own Σ scaled in place.
/// It is s·(CCᵀ/T + ρI) with ρ > 0, so `ArmPrior::from_ridged_gram`
/// accepts it on an O(K) certificate where `ArmPrior::from_gram` would
/// factor it, and returns the same bits.
fn tune_prior(
    dataset: &Dataset,
    train_users: &[usize],
    prior: EmpiricalPrior,
    cfg: &ExperimentConfig,
) -> (ArmPrior, f64) {
    let (scale, noise) = tuned_grid_point(dataset, train_users, &prior, cfg).unwrap_or((1.0, 1e-3));
    let EmpiricalPrior {
        means,
        mut cov,
        factor,
        ridge,
    } = prior;
    cov.scale_mut(scale);
    let tuned = ArmPrior::from_ridged_gram(cov, scale * ridge, factor.cols()).with_mean(means);
    (tuned, noise)
}

/// The (scale, noise) grid point with the largest LML total, the first on
/// ties; `None` without tuning rows or when no total exceeds −∞.
fn tuned_grid_point(
    dataset: &Dataset,
    train_users: &[usize],
    prior: &EmpiricalPrior,
    cfg: &ExperimentConfig,
) -> Option<(f64, f64)> {
    let rows = train_users.len().min(cfg.tune_rows);
    if rows == 0 {
        return None;
    }
    // Arms repeat across users, which the LML handles as replicated noisy
    // draws.
    let histories: Vec<&[f64]> = train_users[..rows]
        .iter()
        .map(|&u| dataset.user_qualities(u))
        .collect();
    let mut best = None;
    let mut best_total = f64::NEG_INFINITY;
    for (scale, noise, total) in prior.grid_totals(&histories, &cfg.tune_grid) {
        if total > best_total {
            best_total = total;
            best = Some((scale, noise));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_data::{model_quality_features, SynConfig};
    use proptest::prelude::*;

    fn tiny_dataset() -> Dataset {
        SynConfig {
            num_users: 10,
            num_models: 5,
            ..SynConfig::paper(0.5, 0.5)
        }
        .generate(4)
    }

    fn quick_cfg(budget: Budget) -> ExperimentConfig {
        ExperimentConfig {
            test_users: 3,
            repetitions: 3,
            budget,
            tune_grid: TuneGrid {
                scales: vec![1.0],
                noises: vec![1e-3],
            },
            grid_points: 21,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn empirical_prior_shapes_and_psd() {
        let d = tiny_dataset();
        let (means, cov) = empirical_prior(&d, &[0, 1, 2, 3]);
        assert_eq!(means.len(), 5);
        assert_eq!(cov.shape(), (5, 5));
        assert!(cov.is_symmetric(1e-12));
        // Sample covariance + ridge is PSD: factorable with tiny jitter.
        assert!(easeml_linalg::Cholesky::factor_with_jitter(&cov, 1e-10, 8).is_ok());
        // Means are plausible qualities.
        assert!(means.iter().all(|&m| (0.0..=1.0).contains(&m)));
    }

    #[test]
    fn empirical_prior_is_bit_identical_to_per_model_gathering() {
        // The covariance as built from one quality vector per model.
        let d = tiny_dataset();
        let train = [6, 0, 3, 9, 1];
        let features = model_quality_features(&d, &train);
        let model_means: Vec<f64> = features.iter().map(|f| vec_ops::mean(f)).collect();
        let global_mean = vec_ops::mean(&model_means);
        let centered: Vec<Vec<f64>> = features
            .iter()
            .map(|f| f.iter().map(|&q| q - global_mean).collect())
            .collect();
        let k = d.num_models();
        let mut cov = Matrix::from_fn(k, k, |a, b| {
            vec_ops::dot(&centered[a], &centered[b]) / train.len() as f64
        });
        cov.add_diag_mut(1e-3 * vec_ops::mean(&cov.diag()).max(1e-6));

        let (means, built) = empirical_prior(&d, &train);
        assert_eq!(means, vec![global_mean; k]);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&built), bits(&cov));
        // The factor rebuilds it: Σ = CCᵀ/T + ρI.
        let prior = EmpiricalPrior::build(&d, &train);
        let mut low_rank = prior.factor.transpose().col_gram();
        low_rank.scale_mut(1.0 / train.len() as f64);
        low_rank.add_diag_mut(prior.ridge);
        assert!(low_rank.approx_eq(&cov, 1e-15));
    }

    #[test]
    fn single_training_user_does_not_crash() {
        let d = tiny_dataset();
        let (_, cov) = empirical_prior(&d, &[7]);
        assert!(easeml_linalg::Cholesky::factor_with_jitter(&cov, 1e-10, 8).is_ok());
    }

    #[test]
    fn cost_oblivious_experiment_runs() {
        let d = tiny_dataset();
        let r = run_experiment(
            &d,
            SchedulerKind::RoundRobin,
            &quick_cfg(Budget::FractionOfRuns(0.5)),
            42,
        );
        assert_eq!(r.grid_pct.len(), 21);
        assert_eq!(r.mean_curve.len(), 21);
        assert_eq!(r.final_losses.len(), 3);
        // ~50% of 3×5 = 7.5 runs per repetition.
        assert!(
            r.mean_rounds >= 7.0 && r.mean_rounds <= 9.0,
            "{}",
            r.mean_rounds
        );
        // Curves are non-increasing.
        for w in r.mean_curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        // Worst dominates mean.
        for (m, w) in r.mean_curve.iter().zip(&r.worst_curve) {
            assert!(w + 1e-12 >= *m);
        }
    }

    #[test]
    fn cost_aware_experiment_runs() {
        let d = tiny_dataset();
        let r = run_experiment(
            &d,
            SchedulerKind::EaseMl,
            &quick_cfg(Budget::FractionOfCost(0.3)),
            42,
        );
        assert!(r.mean_curve[0] >= r.mean_curve[r.mean_curve.len() - 1]);
        assert_eq!(r.dataset, d.name());
    }

    #[test]
    fn same_seed_is_reproducible() {
        let d = tiny_dataset();
        let cfg = quick_cfg(Budget::FractionOfRuns(0.4));
        let a = run_experiment(&d, SchedulerKind::Hybrid, &cfg, 7);
        let b = run_experiment(&d, SchedulerKind::Hybrid, &cfg, 7);
        assert_eq!(a.mean_curve, b.mean_curve);
        assert_eq!(a.final_losses, b.final_losses);
    }

    #[test]
    fn cost_override_controls_awareness() {
        // With the override, the budget stays cost-denominated but the
        // scheduler ignores costs (Fig. 13's lesion); it still runs.
        let d = tiny_dataset();
        let mut cfg = quick_cfg(Budget::FractionOfCost(0.3));
        cfg.cost_aware_override = Some(false);
        let r = run_experiment(&d, SchedulerKind::EaseMl, &cfg, 3);
        assert!(!r.mean_curve.is_empty());
    }

    #[test]
    #[should_panic(expected = "training user")]
    fn too_many_test_users_panics() {
        let d = tiny_dataset();
        let mut cfg = quick_cfg(Budget::FractionOfRuns(0.5));
        cfg.test_users = 10;
        let _ = run_experiment(&d, SchedulerKind::RoundRobin, &cfg, 1);
    }

    #[test]
    fn the_tuned_prior_has_from_grams_bits() {
        // Training sets on both sides: T < K and T ≥ K.
        let d = SynConfig {
            num_users: 40,
            num_models: 30,
            ..SynConfig::paper(0.5, 0.5)
        }
        .generate(9);
        let cfg = ExperimentConfig::default();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for train in [
            vec![3, 17, 8],
            (0..12).collect(),
            (5..40).rev().collect::<Vec<_>>(),
        ] {
            let prior = EmpiricalPrior::build(&d, &train);
            let (scale, noise) = tuned_grid_point(&d, &train, &prior, &cfg).unwrap();
            let (tuned, tuned_noise) = tune_prior(&d, &train, prior, &cfg);
            let (means, cov) = empirical_prior(&d, &train);
            let checked = ArmPrior::from_gram(cov.scaled(scale)).with_mean(means);
            assert_eq!(tuned_noise, noise);
            assert_eq!(
                bits(tuned.cov()),
                bits(checked.cov()),
                "T = {}",
                train.len()
            );
            assert_eq!(tuned.mean(), checked.mean());
        }
    }

    /// The dense total of `rows` at every grid point, through `ArmPrior`.
    fn dense_grid_totals(
        dataset: &Dataset,
        train: &[usize],
        rows: &[&[f64]],
        grid: &TuneGrid,
    ) -> Vec<(f64, f64, f64)> {
        let (means, cov) = empirical_prior(dataset, train);
        let arms: Vec<usize> = (0..dataset.num_models()).collect();
        let mut totals = Vec::new();
        for &scale in &grid.scales {
            let prior = ArmPrior::from_gram(cov.scaled(scale)).with_mean(means.clone());
            for &noise in &grid.noises {
                let lmls = easeml_gp::mll::log_marginal_likelihoods(&prior, noise, &arms, rows);
                totals.push((scale, noise, lmls.iter().sum()));
            }
        }
        totals
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_tuned_grid_point_is_the_dense_maximum(
            (quality, t) in (2usize..25)
                .prop_flat_map(|k| (Just(k), 1usize..k + 3))
                .prop_flat_map(|(k, t)| {
                    (
                        prop::collection::vec(0.0f64..1.0, t * k)
                            .prop_map(move |q| Matrix::from_vec(t, k, q)),
                        Just(t),
                    )
                })
        ) {
            // T < K tunes in the T-space, T ≥ K on the dense side.
            let cost = Matrix::filled(quality.rows(), quality.cols(), 1.0);
            let dataset = Dataset::new("random", quality, cost);
            let train: Vec<usize> = (0..t).rev().collect();
            let cfg = ExperimentConfig::default();
            let prior = EmpiricalPrior::build(&dataset, &train);
            let (scale, noise) = tuned_grid_point(&dataset, &train, &prior, &cfg)
                .expect("the default grid has finite totals");
            let rows: Vec<&[f64]> = train[..t.min(cfg.tune_rows)]
                .iter()
                .map(|&u| dataset.user_qualities(u))
                .collect();
            let dense = dense_grid_totals(&dataset, &train, &rows, &cfg.tune_grid);
            // Whichever side scored them, the totals are the dense ones.
            for (got, want) in prior.grid_totals(&rows, &cfg.tune_grid).iter().zip(&dense) {
                prop_assert_eq!((got.0, got.1), (want.0, want.1));
                prop_assert!(
                    (got.2 - want.2).abs() <= 1e-10 * want.2.abs().max(1.0),
                    "T = {t} at ({}, {}): scored {}, dense {}", got.0, got.1, got.2, want.2
                );
            }
            let max = dense.iter().map(|d| d.2).fold(f64::NEG_INFINITY, f64::max);
            let (_, _, at_winner) = dense
                .iter()
                .find(|d| d.0 == scale && d.1 == noise)
                .copied()
                .expect("the winner is a grid point");
            prop_assert!(
                max - at_winner <= 1e-12 * max.abs(),
                "T = {t}: winner ({scale}, {noise}) scores {at_winner}, the maximum is {max}"
            );
        }
    }
}
