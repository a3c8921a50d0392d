//! Property-based tests for the multi-tenant scheduling layer.

use easeml_bandit::{BetaSchedule, GpUcb};
use easeml_gp::ArmPrior;
use easeml_sched::{
    Fcfs, Greedy, Hybrid, MultiTenantRegret, PickRule, RandomPicker, Roster, RoundRobin, Tenant,
    UserPicker,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tenant(id: usize, k: usize) -> Tenant {
    let beta = BetaSchedule::Simple {
        num_arms: k,
        delta: 0.1,
    };
    Tenant::new(
        id,
        GpUcb::cost_oblivious(ArmPrior::independent(k, 1.0), 0.01, beta),
    )
}

/// A set of tenants with arbitrary observation histories applied.
fn tenants_with_history(n: usize, k: usize) -> impl Strategy<Value = Roster> {
    prop::collection::vec((0..n, 0..k, 0.0f64..1.0), 0..24).prop_map(move |history| {
        let mut ts: Roster = (0..n).map(|i| tenant(i, k)).collect();
        for (user, arm, reward) in history {
            ts.observe(user, arm, reward);
        }
        ts
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_picker_returns_a_valid_index(
        (ts, seed, step) in tenants_with_history(4, 3)
            .prop_flat_map(|ts| (Just(ts), 0u64..1000, 0usize..100))
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pickers: Vec<Box<dyn UserPicker>> = vec![
            Box::new(Fcfs::default()),
            Box::new(RoundRobin::default()),
            Box::new(RandomPicker::default()),
            Box::new(Greedy::new(PickRule::MaxUcbGap)),
            Box::new(Greedy::new(PickRule::MaxSigmaTilde)),
            Box::new(Greedy::new(PickRule::Random)),
            Box::new(Hybrid::ease_ml()),
        ];
        for p in &mut pickers {
            let u = p.pick(&ts, step, &mut rng);
            prop_assert!(u < ts.len(), "{} returned {u}", p.name());
        }
    }

    #[test]
    fn candidate_set_is_never_empty_and_contains_the_max(
        ts in tenants_with_history(5, 3)
    ) {
        let v = Greedy::candidate_set(&ts);
        prop_assert!(!v.is_empty());
        // A tenant with the maximal σ̃ is always a candidate (any index
        // achieving the maximum qualifies — ties are broken arbitrarily).
        let sigmas = ts.sigma_tildes();
        let max_sigma = sigmas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v.iter().any(|&i| sigmas[i] >= max_sigma - 1e-12));
        // All candidates are at or above the mean (up to rounding).
        let mean = sigmas.iter().sum::<f64>() / sigmas.len() as f64;
        for &i in &v {
            prop_assert!(sigmas[i] >= mean - 1e-9 * mean.abs().max(1.0));
        }
    }

    #[test]
    fn round_robin_is_perfectly_fair(
        (n, rounds) in (2usize..6).prop_flat_map(|n| (Just(n), (n * 2)..(n * 10)))
    ) {
        let ts: Roster = (0..n).map(|i| tenant(i, 2)).collect();
        let mut p = RoundRobin::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; n];
        for s in 0..rounds {
            counts[p.pick(&ts, s, &mut rng)] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "counts {counts:?}");
    }

    #[test]
    fn tenant_best_reward_is_the_running_maximum(
        history in prop::collection::vec((0usize..3, 0.0f64..1.0), 1..20)
    ) {
        let mut t = tenant(0, 3);
        let mut max = f64::NEG_INFINITY;
        for &(arm, reward) in &history {
            t.observe(arm, reward);
            max = max.max(reward);
            prop_assert_eq!(t.best_reward(), Some(max));
            prop_assert_eq!(t.last_reward(), Some(reward));
        }
        prop_assert_eq!(t.serves(), history.len());
    }

    #[test]
    fn empirical_bound_is_monotone_nonincreasing(
        history in prop::collection::vec((0usize..2, 0.0f64..1.0), 2..20)
    ) {
        let mut t = tenant(0, 2);
        let mut prev: Option<f64> = None;
        for &(arm, reward) in &history {
            t.observe(arm, reward);
            let b = t.empirical_bound().unwrap();
            if let Some(p) = prev {
                prop_assert!(b <= p + 1e-12, "bound increased: {p} -> {b}");
            }
            prev = Some(b);
        }
    }

    #[test]
    fn multi_tenant_regret_is_nonnegative_and_dominates_easeml_variant(
        rounds in prop::collection::vec((0usize..4, 0.0f64..1.0, 0.01f64..3.0), 1..30)
    ) {
        let mut reg = MultiTenantRegret::new(vec![1.0; 4]);
        for &(user, quality, cost) in &rounds {
            let contribution = reg.record_round(user, quality, cost);
            prop_assert!(contribution >= -1e-12);
            prop_assert!(reg.easeml_cumulative() <= reg.cumulative() + 1e-9);
        }
        prop_assert_eq!(reg.rounds(), rounds.len());
        // Mean accuracy loss is within [0, 1] for qualities in [0, 1].
        let mean = reg.mean_accuracy_loss();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&mean));
    }

    #[test]
    fn hybrid_switch_is_permanent(
        history in prop::collection::vec((0usize..2, 0.4f64..0.6), 30..60)
    ) {
        // Feed a long no-improvement phase; once switched, it stays.
        let mut ts: Roster = (0..2).map(|i| tenant(i, 1)).collect();
        ts.observe(0, 0, 0.9);
        ts.observe(1, 0, 0.9);
        let mut h = Hybrid::new(PickRule::MaxUcbGap, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut switched_at: Option<usize> = None;
        for (s, &(user, reward)) in history.iter().enumerate() {
            let _ = h.pick(&ts, s, &mut rng);
            ts.observe(user, 0, reward); // never beats 0.9
            h.after_observe(&ts, user);
            if h.has_switched() && switched_at.is_none() {
                switched_at = Some(s);
            }
            if let Some(_at) = switched_at {
                prop_assert!(h.has_switched(), "switch must be permanent");
            }
        }
        prop_assert!(switched_at.is_some(), "long freeze must trigger the switch");
    }
}
