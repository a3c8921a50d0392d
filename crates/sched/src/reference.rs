//! The allocating picker code that per-tenant cached scores and
//! allocation-free scans replaced, kept as the bit-exact reference the
//! property tests below hold every picker to.
//!
//! Scores are recomputed from scratch on every call (a `ucb()` per arm,
//! each evaluating β), the live set and `V_t` are collected into fresh
//! `Vec`s, and every round-robin-style pick indexes the collected live set.

use crate::greedy::{Greedy, PickRule};
use crate::hybrid::Hybrid;
use crate::picker::{Fcfs, RandomPicker, RoundRobin, UserPicker};
use crate::tenant::Tenant;
use easeml_bandit::{BetaSchedule, GpUcb};
use easeml_gp::ArmPrior;
use easeml_linalg::{vec_ops, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Indices of the live tenants, in id order; all indices when none is live.
fn active_indices(tenants: &[Tenant]) -> Vec<usize> {
    let active: Vec<usize> = tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_active())
        .map(|(i, _)| i)
        .collect();
    if active.is_empty() {
        (0..tenants.len()).collect()
    } else {
        active
    }
}

/// σ̃ from the tenant's recurrence state, or the maximum prior exploration
/// width before the first observation.
fn sigma_tilde(t: &Tenant) -> f64 {
    match (t.empirical_bound(), t.last_reward()) {
        (Some(bound), Some(reward)) => bound - reward,
        _ => (0..t.policy().posterior().num_arms())
            .map(|k| t.policy().exploration_width(k))
            .fold(0.0, f64::max),
    }
}

/// The max-UCB gap from a fresh per-arm UCB sweep.
fn ucb_gap(t: &Tenant) -> f64 {
    let ucbs: Vec<f64> = (0..t.policy().posterior().num_arms())
        .map(|k| t.policy().ucb(k))
        .collect();
    let max_ucb = ucbs.into_iter().fold(f64::NEG_INFINITY, f64::max);
    max_ucb - t.best_reward().unwrap_or(0.0)
}

fn candidate_set(tenants: &[Tenant]) -> Vec<usize> {
    let active = active_indices(tenants);
    let sigmas: Vec<f64> = active.iter().map(|&i| sigma_tilde(&tenants[i])).collect();
    let mean = vec_ops::mean(&sigmas);
    let mut v: Vec<usize> = active
        .iter()
        .enumerate()
        .filter(|&(j, _)| sigmas[j] >= mean)
        .map(|(_, &i)| i)
        .collect();
    if v.is_empty() {
        v.push(active[vec_ops::argmax(&sigmas).expect("at least one tenant")]);
    }
    v
}

fn greedy_scores(rule: PickRule, tenants: &[Tenant]) -> Vec<f64> {
    match rule {
        PickRule::MaxUcbGap => tenants.iter().map(ucb_gap).collect(),
        PickRule::MaxSigmaTilde | PickRule::Random => tenants.iter().map(sigma_tilde).collect(),
    }
}

/// One GREEDY pick: the choice and the candidate set it came from.
fn greedy_pick(
    rule: PickRule,
    mutate_at: Option<usize>,
    tenants: &[Tenant],
    step: usize,
    rng: &mut dyn rand::RngCore,
) -> (usize, Vec<usize>) {
    let candidates = candidate_set(tenants);
    let mut choice = match rule {
        PickRule::MaxUcbGap => {
            let gaps: Vec<f64> = candidates.iter().map(|&i| ucb_gap(&tenants[i])).collect();
            candidates[vec_ops::argmax(&gaps).expect("non-empty candidates")]
        }
        PickRule::MaxSigmaTilde => {
            let sigmas: Vec<f64> = candidates
                .iter()
                .map(|&i| sigma_tilde(&tenants[i]))
                .collect();
            candidates[vec_ops::argmax(&sigmas).expect("non-empty candidates")]
        }
        PickRule::Random => candidates[rng.gen_range(0..candidates.len())],
    };
    if mutate_at.is_some_and(|at| step >= at) {
        let active = active_indices(tenants);
        let pos = active.iter().position(|&i| i == choice).unwrap_or(0);
        choice = active[(pos + 1) % active.len()];
    }
    (choice, candidates)
}

/// The reference twin of each picker, with the state the old code kept.
#[derive(Debug, Clone)]
enum RefPicker {
    Greedy {
        rule: PickRule,
        mutate_at: Option<usize>,
        last: Vec<usize>,
    },
    Hybrid {
        rule: PickRule,
        patience: usize,
        frozen_rounds: usize,
        prev_candidates: Vec<usize>,
        prev_best_sum: f64,
        switched: bool,
        rr_cursor: usize,
        last: Vec<usize>,
    },
    RoundRobin,
    Fcfs,
    Random,
}

impl RefPicker {
    fn hybrid(rule: PickRule, patience: usize) -> Self {
        RefPicker::Hybrid {
            rule,
            patience,
            frozen_rounds: 0,
            prev_candidates: Vec::new(),
            prev_best_sum: f64::NEG_INFINITY,
            switched: false,
            rr_cursor: 0,
            last: Vec::new(),
        }
    }

    fn pick(&mut self, tenants: &[Tenant], step: usize, rng: &mut dyn rand::RngCore) -> usize {
        match self {
            RefPicker::Greedy {
                rule,
                mutate_at,
                last,
            } => {
                let (choice, candidates) = greedy_pick(*rule, *mutate_at, tenants, step, rng);
                *last = candidates;
                choice
            }
            RefPicker::Hybrid {
                rule,
                switched,
                rr_cursor,
                last,
                ..
            } => {
                if *switched {
                    let active = active_indices(tenants);
                    let c = active[*rr_cursor % active.len()];
                    *rr_cursor += 1;
                    c
                } else {
                    let (choice, candidates) = greedy_pick(*rule, None, tenants, step, rng);
                    *last = candidates;
                    choice
                }
            }
            RefPicker::RoundRobin => {
                let active = active_indices(tenants);
                active[step % active.len()]
            }
            RefPicker::Fcfs => {
                let active = active_indices(tenants);
                active
                    .iter()
                    .copied()
                    .find(|&i| !tenants[i].exhausted())
                    .unwrap_or(active[step % active.len()])
            }
            RefPicker::Random => {
                let active = active_indices(tenants);
                active[rng.gen_range(0..active.len())]
            }
        }
    }

    fn after_observe(&mut self, tenants: &[Tenant]) {
        if let RefPicker::Hybrid {
            patience,
            frozen_rounds,
            prev_candidates,
            prev_best_sum,
            switched,
            ..
        } = self
        {
            if *switched {
                return;
            }
            let candidates = candidate_set(tenants);
            let best_sum: f64 = tenants.iter().filter_map(Tenant::best_reward).sum();
            let improved = best_sum > *prev_best_sum + 1e-12;
            if candidates == *prev_candidates && !improved {
                *frozen_rounds += 1;
                if *frozen_rounds >= *patience {
                    *switched = true;
                }
            } else {
                *frozen_rounds = 0;
            }
            *prev_candidates = candidates;
            *prev_best_sum = prev_best_sum.max(best_sum);
        }
    }

    fn decision_scores(&self, tenants: &[Tenant]) -> Vec<f64> {
        match self {
            RefPicker::Greedy { rule, .. } => greedy_scores(*rule, tenants),
            RefPicker::Hybrid { rule, switched, .. } if !*switched => greedy_scores(*rule, tenants),
            _ => Vec::new(),
        }
    }

    fn last_candidates(&self) -> &[usize] {
        match self {
            RefPicker::Greedy { last, .. } => last,
            RefPicker::Hybrid { switched, last, .. } if !*switched => last,
            _ => &[],
        }
    }
}

/// One of a few fixed tenant configurations, so that tenants sharing a
/// template (and a history) tie on σ̃ and on the UCB gap.
fn templated_tenant(id: usize, n: usize, k: usize, template: u8) -> Tenant {
    let prior = match template % 3 {
        0 => ArmPrior::independent(k, 1.0),
        1 => ArmPrior::independent(k, 0.05),
        // Correlated: Kac–Murdock–Szegő covariance 0.8^|i−j|.
        _ => ArmPrior::from_gram(Matrix::from_fn(k, k, |i, j| {
            0.8f64.powi(i.abs_diff(j) as i32)
        })),
    };
    let costs: Vec<f64> = (0..k).map(|a| 1.0 + 0.5 * a as f64).collect();
    let policy = if template / 3 == 0 {
        let beta = BetaSchedule::MultiTenant {
            max_cost: 1.0,
            num_tenants: n,
            max_arms: k,
            delta: 0.1,
        };
        GpUcb::cost_oblivious(prior, 0.01, beta)
    } else {
        let beta = BetaSchedule::CostAware {
            max_cost: costs[k - 1],
            num_arms: k,
            delta: 0.1,
        };
        GpUcb::cost_aware(prior, 0.01, beta, costs)
    };
    Tenant::new(id, policy)
}

/// A tenant set plus the script a simulation runs on it.
#[derive(Debug, Clone)]
struct Scenario {
    tenants: Vec<Tenant>,
    /// Per round: the reward the served tenant observes, a tenant whose
    /// activity flips before the pick (if `< n`), and an arm of the
    /// flipped tenant to toggle the quarantine mask of (if `< k`).
    script: Vec<(f64, usize, usize)>,
    seed: u64,
    patience: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1usize..7, 1usize..5).prop_flat_map(|(n, k)| {
        (
            prop::collection::vec((0u8..6, 0u8..3), n),
            prop::collection::vec((0..n, 0usize..5), 0..3 * n),
            prop::collection::vec((0.0f64..1.0, 0..2 * n, 0..2 * k), 8..40),
            0u8..4,
            0u64..1_000,
            1usize..4,
        )
            .prop_map(
                move |(templates, history, script, all_retired, seed, patience)| {
                    let mut tenants: Vec<Tenant> = templates
                        .iter()
                        .enumerate()
                        .map(|(i, &(template, _))| templated_tenant(i, n, k, template))
                        .collect();
                    // Quantised rewards: equal histories tie exactly.
                    for (user, level) in history {
                        let arm = tenants[user].select_model();
                        tenants[user].observe(arm, level as f64 / 4.0);
                    }
                    for (t, &(_, live)) in tenants.iter_mut().zip(&templates) {
                        t.set_active(all_retired != 0 && live != 0);
                    }
                    Scenario {
                        tenants,
                        script,
                        seed,
                        patience,
                    }
                },
            )
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Drives `picker` and its reference twin through the scenario on one
/// shared tenant set, asserting equal choices, candidate sets and score
/// bits every round, and fresh cached scores after every observation.
fn run_against_reference<P: UserPicker>(
    picker: &mut P,
    reference: &mut RefPicker,
    scenario: &Scenario,
) -> Result<Vec<Tenant>, TestCaseError> {
    let mut tenants = scenario.tenants.clone();
    let (n, k) = (tenants.len(), tenants[0].policy().posterior().num_arms());
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let mut ref_rng = StdRng::seed_from_u64(scenario.seed);
    for (step, &(reward, flip, mask)) in scenario.script.iter().enumerate() {
        if flip < n {
            let live = tenants[flip].is_active();
            tenants[flip].set_active(!live);
            if mask < k {
                let masked = tenants[flip].policy().is_masked(mask);
                tenants[flip].set_arm_masked(mask, !masked);
            }
        }
        let choice = picker.pick(&tenants, step, &mut rng);
        prop_assert_eq!(choice, reference.pick(&tenants, step, &mut ref_rng));
        prop_assert_eq!(picker.last_candidates(), reference.last_candidates());
        prop_assert_eq!(
            bits(&picker.decision_scores(&tenants)),
            bits(&reference.decision_scores(&tenants))
        );
        let arm = tenants[choice].select_model();
        tenants[choice].observe(arm, reward);
        for t in &tenants {
            prop_assert_eq!(t.ucb_gap().to_bits(), ucb_gap(t).to_bits());
            prop_assert_eq!(t.sigma_tilde().to_bits(), sigma_tilde(t).to_bits());
        }
        picker.after_observe(&tenants, choice);
        reference.after_observe(&tenants);
    }
    Ok(tenants)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn greedy_matches_the_reference_under_every_rule(s in scenario()) {
        for rule in [PickRule::MaxUcbGap, PickRule::MaxSigmaTilde, PickRule::Random] {
            for mutate_at in [None, Some(s.script.len() / 2)] {
                let mut greedy = Greedy::new(rule);
                greedy.set_test_mutation(mutate_at);
                let mut reference = RefPicker::Greedy { rule, mutate_at, last: Vec::new() };
                run_against_reference(&mut greedy, &mut reference, &s)?;
            }
        }
    }

    #[test]
    fn hybrid_matches_the_reference_across_its_switch(s in scenario()) {
        for rule in [PickRule::MaxUcbGap, PickRule::Random] {
            let mut hybrid = Hybrid::new(rule, s.patience);
            let mut reference = RefPicker::hybrid(rule, s.patience);
            run_against_reference(&mut hybrid, &mut reference, &s)?;
            let state = hybrid.export_state();
            match reference {
                RefPicker::Hybrid {
                    frozen_rounds, prev_candidates, prev_best_sum, switched, rr_cursor, ..
                } => {
                    prop_assert_eq!(state.switched, switched);
                    prop_assert_eq!(state.frozen_rounds, frozen_rounds);
                    prop_assert_eq!(state.prev_candidates, prev_candidates);
                    prop_assert_eq!(state.prev_best_sum.to_bits(), prev_best_sum.to_bits());
                    prop_assert_eq!(state.rr_cursor, rr_cursor);
                }
                other => prop_assert!(false, "not a hybrid reference: {other:?}"),
            }
        }
    }

    #[test]
    fn simple_pickers_match_the_reference(s in scenario()) {
        run_against_reference(&mut RoundRobin::default(), &mut RefPicker::RoundRobin, &s)?;
        run_against_reference(&mut Fcfs::default(), &mut RefPicker::Fcfs, &s)?;
        run_against_reference(&mut RandomPicker::default(), &mut RefPicker::Random, &s)?;
    }
}
