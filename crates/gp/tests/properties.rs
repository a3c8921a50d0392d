//! Property-based tests for the GP layer.

use easeml_gp::kernel::{Kernel, Matern52Kernel, RbfKernel};
use easeml_gp::mll::{log_marginal_likelihood, log_marginal_likelihoods, LowRankLml};
use easeml_gp::{ArmPrior, GpPosterior};
use easeml_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

fn features(n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rbf_gram_is_psd((xs,) in (2usize..8).prop_flat_map(|n| (features(n),))) {
        let g = RbfKernel::new(0.8).gram(&xs);
        prop_assert!(Cholesky::factor_with_jitter(&g, 1e-10, 10).is_ok());
    }

    #[test]
    fn matern_gram_is_psd((xs,) in (2usize..8).prop_flat_map(|n| (features(n),))) {
        let g = Matern52Kernel::new(1.2).gram(&xs);
        prop_assert!(Cholesky::factor_with_jitter(&g, 1e-10, 10).is_ok());
    }

    #[test]
    fn posterior_variance_is_monotone_nonincreasing_in_observations(
        (xs, plays) in (3usize..7).prop_flat_map(|n| {
            (features(n), prop::collection::vec((0usize..n, -1.0f64..1.0), 1..12))
        })
    ) {
        let prior = ArmPrior::from_kernel(&RbfKernel::new(1.0), &xs);
        let k = prior.num_arms();
        let mut gp = GpPosterior::new(prior, 0.05);
        let mut prev: Vec<f64> = gp.vars().to_vec();
        for (arm, y) in plays {
            gp.observe(arm, y);
            for j in 0..k {
                // More data never increases posterior variance (up to
                // numerical slack).
                prop_assert!(gp.var(j) <= prev[j] + 1e-8,
                    "variance of arm {j} grew: {} -> {}", prev[j], gp.var(j));
            }
            prev = gp.vars().to_vec();
        }
    }

    #[test]
    fn posterior_mean_is_bounded_by_observation_extremes_for_independent_prior(
        plays in prop::collection::vec((0usize..4, 0.0f64..1.0), 1..16)
    ) {
        // With an independent prior and zero prior mean, each arm's
        // posterior mean is a shrunk average of its own observations, so it
        // lies between 0 and the max observed reward.
        let mut gp = GpPosterior::new(ArmPrior::independent(4, 1.0), 0.05);
        for &(arm, y) in &plays {
            gp.observe(arm, y);
        }
        let max_y = plays.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);
        for j in 0..4 {
            prop_assert!(gp.mean(j) >= -1e-9);
            prop_assert!(gp.mean(j) <= max_y + 1e-9);
        }
    }

    #[test]
    fn lml_is_finite_and_decreases_with_gross_mismatch(
        (xs, shift) in (3usize..6).prop_flat_map(|n| (features(n), 5.0f64..20.0))
    ) {
        let prior = ArmPrior::from_kernel(&RbfKernel::new(1.0), &xs);
        let obs: Vec<(usize, f64)> = (0..xs.len()).map(|i| (i, 0.1)).collect();
        let shifted: Vec<(usize, f64)> = obs.iter().map(|&(a, y)| (a, y + shift)).collect();
        let l0 = log_marginal_likelihood(&prior, 0.05, &obs);
        let l1 = log_marginal_likelihood(&prior, 0.05, &shifted);
        prop_assert!(l0.is_finite() && l1.is_finite());
        prop_assert!(l1 < l0);
    }

    #[test]
    fn observed_arm_mean_approaches_its_reward_as_noise_vanishes(
        y in -1.0f64..1.0
    ) {
        let mut gp = GpPosterior::new(ArmPrior::independent(2, 1.0), 1e-8);
        gp.observe(0, y);
        prop_assert!((gp.mean(0) - y).abs() < 1e-6);
        prop_assert!(gp.var(0) < 1e-6);
    }

    #[test]
    fn low_rank_lml_matches_the_dense_lml(
        (users, ridge, scale, noise, mean, mut rows) in (1usize..41)
            .prop_flat_map(|k| (Just(k), 1usize..k.max(2)))
            .prop_flat_map(|(k, t)| {
                (
                    prop::collection::vec(-1.0f64..1.0, t * k)
                        .prop_map(move |vals| Matrix::from_vec(t, k, vals)),
                    (-5.0f64..-1.0).prop_map(|e| 10f64.powf(e)),
                    prop::sample::select(vec![0.3, 1.0, 3.0]),
                    prop::sample::select(vec![1e-4, 1e-3, 1e-2]),
                    0.0f64..1.0,
                    prop::collection::vec(prop::collection::vec(0.0f64..1.0, k), 1..5),
                )
            })
    ) {
        // `users` holds Cᵀ: T rows of K entries. The prior is the empirical
        // one, Σ = CCᵀ/T + ρI, at one grid point (scale, noise).
        let (t, k) = users.shape();
        let mut cov = users.col_gram();
        for v in cov.as_mut_slice() {
            *v /= t as f64;
        }
        cov.add_diag_mut(ridge);
        let means = vec![mean; k];
        // The tuner scores training users' own rows, which lie in C's span
        // about the mean: there the T-space form cancels the most.
        rows[0] = users.row(0).iter().map(|c| mean + c).collect();
        let prior = ArmPrior::from_gram(cov.scaled(scale)).with_mean(means.clone());
        let arms: Vec<usize> = (0..k).collect();
        let dense = log_marginal_likelihoods(&prior, noise, &arms, &rows);
        let low = LowRankLml::new(&users.transpose(), &means, &rows)
            .log_marginal_likelihoods(scale / t as f64, scale * ridge + noise);
        prop_assert_eq!(low.len(), dense.len());
        for (d, l) in dense.iter().zip(&low) {
            prop_assert!(
                (d - l).abs() <= 1e-10 * d.abs().max(1.0),
                "K = {k}, T = {t}: dense {d}, T-space {l}"
            );
        }
    }
}
