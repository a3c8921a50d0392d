//! Property-based tests for the single-tenant policies.

use easeml_bandit::{
    ArmPolicy, BetaSchedule, EpsilonGreedy, ExpectedImprovement, FixedOrder, GpUcb,
    ProbabilityOfImprovement, RandomArm, RegretTracker, ThompsonSampling, Ucb1,
};
use easeml_gp::{ArmPrior, GpPosterior};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn policies(k: usize) -> Vec<Box<dyn ArmPolicy>> {
    let beta = BetaSchedule::Simple {
        num_arms: k,
        delta: 0.1,
    };
    vec![
        Box::new(GpUcb::cost_oblivious(
            ArmPrior::independent(k, 1.0),
            1e-3,
            beta,
        )),
        Box::new(GpUcb::cost_aware(
            ArmPrior::independent(k, 1.0),
            1e-3,
            beta,
            (1..=k).map(|c| c as f64).collect(),
        )),
        Box::new(Ucb1::new(k)),
        Box::new(EpsilonGreedy::new(k, 0.2)),
        Box::new(ThompsonSampling::new(ArmPrior::independent(k, 1.0), 1e-3)),
        Box::new(ExpectedImprovement::new(
            ArmPrior::independent(k, 1.0),
            1e-3,
            0.01,
        )),
        Box::new(ProbabilityOfImprovement::new(
            ArmPrior::independent(k, 1.0),
            1e-3,
            0.01,
        )),
        Box::new(RandomArm::new(k)),
        Box::new(FixedOrder::new((0..k).collect())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_policy_selects_valid_arms_under_arbitrary_rewards(
        (k, seed, rewards) in (2usize..6).prop_flat_map(|k| {
            (Just(k), 0u64..1000, prop::collection::vec(0.0f64..1.0, 8..24))
        })
    ) {
        for mut p in policies(k) {
            let mut rng = StdRng::seed_from_u64(seed);
            for &r in &rewards {
                let a = p.select(&mut rng);
                prop_assert!(a < k);
                p.observe(a, r);
            }
        }
    }

    #[test]
    fn beta_schedules_are_positive_and_nondecreasing(
        (k, n, c, delta) in (1usize..50, 1usize..50, 0.1f64..20.0, 0.01f64..0.99)
    ) {
        let schedules = [
            BetaSchedule::Simple { num_arms: k, delta },
            BetaSchedule::CostAware { max_cost: c, num_arms: k, delta },
            BetaSchedule::MultiTenant { max_cost: c, num_tenants: n, max_arms: k, delta },
        ];
        for s in schedules {
            let mut prev = 0.0;
            for t in 1..64 {
                let b = s.at(t);
                prop_assert!(b > 0.0);
                prop_assert!(b >= prev);
                prev = b;
            }
        }
    }

    #[test]
    fn gp_ucb_dominates_its_posterior_mean(
        plays in prop::collection::vec((0usize..3, 0.0f64..1.0), 1..16)
    ) {
        let beta = BetaSchedule::Simple { num_arms: 3, delta: 0.1 };
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(3, 1.0), 1e-3, beta);
        for &(a, r) in &plays {
            ucb.observe(a, r);
            for k in 0..3 {
                // The UCB is the mean plus a non-negative width.
                prop_assert!(ucb.ucb(k) >= ucb.posterior().mean(k) - 1e-12);
                prop_assert!(ucb.exploration_width(k) >= 0.0);
            }
        }
    }

    #[test]
    fn gp_ucb_sweeps_match_per_arm_ucbs_bit_for_bit(
        (k, plays, masks) in (1usize..6).prop_flat_map(|k| (
            Just(k),
            prop::collection::vec((0..k, 0.0f64..1.0), 0..12),
            prop::collection::vec(0u8..2, k),
        ))
    ) {
        let beta = BetaSchedule::CostAware { max_cost: k as f64, num_arms: k, delta: 0.1 };
        let costs: Vec<f64> = (1..=k).map(|c| c as f64).collect();
        let mut ucb = GpUcb::cost_aware(ArmPrior::independent(k, 1.0), 1e-3, beta, costs);
        for (arm, &m) in masks.iter().enumerate() {
            ucb.set_arm_masked(arm, m == 1);
        }
        for &(a, r) in &plays {
            ucb.observe(a, r);
            // Reference: one `ucb()` (and one β evaluation) per arm.
            let per_arm: Vec<f64> = (0..k).map(|arm| ucb.ucb(arm)).collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&ucb.ucbs()), bits(&per_arm));
            let max = per_arm.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(ucb.max_ucb().to_bits(), max.to_bits());
            let masking = masks.contains(&1) && masks.contains(&0);
            let effective: Vec<f64> = per_arm
                .iter()
                .zip(&masks)
                .map(|(&u, &m)| if masking && m == 1 { f64::NEG_INFINITY } else { u })
                .collect();
            let expected = easeml_linalg::vec_ops::argmax(&effective).unwrap();
            prop_assert_eq!(ucb.select_arm(), expected);
            prop_assert_eq!(ucb.explain_selection(k).chosen, expected);
        }
    }

    #[test]
    fn cost_aware_width_shrinks_with_cost(
        (c_low, extra, plays) in (0.1f64..5.0, 0.1f64..10.0,
            prop::collection::vec((0usize..2, 0.0f64..1.0), 0..10))
    ) {
        let beta = BetaSchedule::Simple { num_arms: 2, delta: 0.1 };
        let c_high = c_low + extra;
        let mut ucb = GpUcb::cost_aware(
            ArmPrior::independent(2, 1.0),
            1e-3,
            beta,
            vec![c_low, c_high],
        );
        for &(a, r) in &plays {
            ucb.observe(a, r);
        }
        // Same posterior variance ⇒ the cheaper arm's width per unit of
        // posterior std is larger.
        let w0 = ucb.exploration_width(0) / ucb.posterior().std(0).max(1e-12);
        let w1 = ucb.exploration_width(1) / ucb.posterior().std(1).max(1e-12);
        prop_assert!(w0 >= w1, "cheap arm must have the larger scaled width");
    }

    #[test]
    fn regret_tracker_invariants(
        (means, plays) in (prop::collection::vec(0.0f64..1.0, 2..5))
            .prop_flat_map(|means| {
                let k = means.len();
                (Just(means), prop::collection::vec(0..k, 1..20))
            })
    ) {
        let mut t = RegretTracker::new(means.clone());
        let mu_star = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut cum = 0.0;
        for &a in &plays {
            let r = t.record(a, means[a]);
            prop_assert!(r >= -1e-12, "instantaneous regret must be >= 0");
            cum += r;
        }
        prop_assert!((t.cumulative() - cum).abs() < 1e-9);
        prop_assert!((t.mu_star() - mu_star).abs() < 1e-12);
        // Accuracy loss is bounded by μ* and non-negative.
        prop_assert!(t.accuracy_loss() >= 0.0);
        prop_assert!(t.accuracy_loss() <= mu_star + 1e-12);
        prop_assert!((t.average() - cum / plays.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn hallucination_never_increases_posterior_variance(
        (k, batch) in (2usize..6).prop_flat_map(|k| (Just(k), 1usize..8))
    ) {
        let beta = BetaSchedule::Simple { num_arms: k, delta: 0.1 };
        let p = GpUcb::cost_oblivious(ArmPrior::independent(k, 1.0), 1e-3, beta);
        let mut pending = Vec::new();
        for _ in 0..batch {
            let before = p.hallucinate(&pending);
            pending.push(before.select_arm());
            let after = p.hallucinate(&pending);
            for a in 0..k {
                prop_assert!(
                    after.posterior().var(a) <= before.posterior().var(a) + 1e-12,
                    "hallucination inflated var of arm {a}"
                );
                prop_assert!(after.posterior().var(a) <= p.posterior().var(a) + 1e-12);
            }
        }
    }

    #[test]
    fn hallucinated_dispatches_leave_the_real_posterior_bit_identical(
        (k, rewards) in (2usize..5).prop_flat_map(|k| {
            (Just(k), prop::collection::vec(0.0f64..1.0, 1..10))
        })
    ) {
        // Dispatch each run from the policy hallucinated over a standing
        // pending arm, observe its reward, and mirror every true reward into
        // a bare posterior observed directly, in the same order: no fake may
        // leak into the policy's own posterior.
        let beta = BetaSchedule::Simple { num_arms: k, delta: 0.1 };
        let mut p = GpUcb::cost_oblivious(ArmPrior::independent(k, 1.0), 1e-3, beta);
        let mut direct = GpPosterior::new(ArmPrior::independent(k, 1.0), 1e-3);
        for &r in &rewards {
            let a = p.hallucinate(&[0]).select_arm();
            p.observe(a, r);
            direct.observe(a, r);
            for arm in 0..k {
                prop_assert_eq!(
                    p.posterior().mean(arm).to_bits(),
                    direct.mean(arm).to_bits()
                );
                prop_assert_eq!(
                    p.posterior().var(arm).to_bits(),
                    direct.var(arm).to_bits()
                );
            }
            let empty = p.hallucinate(&[]);
            for arm in 0..k {
                prop_assert_eq!(
                    empty.posterior().mean(arm).to_bits(),
                    p.posterior().mean(arm).to_bits()
                );
                prop_assert_eq!(
                    empty.posterior().var(arm).to_bits(),
                    p.posterior().var(arm).to_bits()
                );
            }
        }
    }

    #[test]
    fn fixed_order_visits_every_arm_exactly_once_before_repeating(
        k in 2usize..7
    ) {
        let order: Vec<usize> = (0..k).rev().collect();
        let mut p = FixedOrder::new(order.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = vec![0usize; k];
        for _ in 0..k {
            let a = p.select(&mut rng);
            seen[a] += 1;
            p.observe(a, a as f64 / k as f64);
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        prop_assert!(p.exhausted());
        // After exhaustion, it repeats the best (the max reward arm).
        let best = k - 1;
        prop_assert_eq!(p.select(&mut rng), best);
    }
}
