//! The allocating picker code that the roster's dense columns and
//! allocation-free scans replaced, kept as the bit-exact reference the
//! property tests below hold every picker to.
//!
//! Scores are recomputed from scratch on every call (a `ucb()` per arm,
//! each evaluating β), liveness comes from the test's own model rather
//! than the roster's bitset, the live set and `V_t` are collected into
//! fresh `Vec`s, and every round-robin-style pick indexes the collected
//! live set.

use crate::greedy::{Greedy, PickRule};
use crate::hybrid::Hybrid;
use crate::picker::{Fcfs, RandomPicker, RoundRobin, UserPicker};
use crate::roster::Roster;
use crate::tenant::Tenant;
use easeml_bandit::{BetaSchedule, GpUcb};
use easeml_gp::ArmPrior;
use easeml_linalg::{vec_ops, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Indices of the live tenants, in id order; all indices when none is live.
fn active_indices(live: &[bool]) -> Vec<usize> {
    let active: Vec<usize> = (0..live.len()).filter(|&i| live[i]).collect();
    if active.is_empty() {
        (0..live.len()).collect()
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

fn candidate_set(tenants: &[Tenant], live: &[bool]) -> Vec<usize> {
    let active = active_indices(live);
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
    (tenants, live): (&[Tenant], &[bool]),
    step: usize,
    rng: &mut dyn rand::RngCore,
) -> (usize, Vec<usize>) {
    let candidates = candidate_set(tenants, live);
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
        let active = active_indices(live);
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

    fn pick(
        &mut self,
        state: (&[Tenant], &[bool]),
        step: usize,
        rng: &mut dyn rand::RngCore,
    ) -> usize {
        let (tenants, live) = state;
        match self {
            RefPicker::Greedy {
                rule,
                mutate_at,
                last,
            } => {
                let (choice, candidates) = greedy_pick(*rule, *mutate_at, state, step, rng);
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
                    let active = active_indices(live);
                    let c = active[*rr_cursor % active.len()];
                    *rr_cursor += 1;
                    c
                } else {
                    let (choice, candidates) = greedy_pick(*rule, None, state, step, rng);
                    *last = candidates;
                    choice
                }
            }
            RefPicker::RoundRobin => {
                let active = active_indices(live);
                active[step % active.len()]
            }
            RefPicker::Fcfs => {
                let active = active_indices(live);
                active
                    .iter()
                    .copied()
                    .find(|&i| !tenants[i].exhausted())
                    .unwrap_or(active[step % active.len()])
            }
            RefPicker::Random => {
                let active = active_indices(live);
                active[rng.gen_range(0..active.len())]
            }
        }
    }

    fn after_observe(&mut self, (tenants, live): (&[Tenant], &[bool])) {
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
            let candidates = candidate_set(tenants, live);
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

/// One step of a roster script. Each step is followed by a pick that both
/// pickers make on the same state.
#[derive(Debug, Clone)]
enum Op {
    /// Serve the step's pick: it observes its selected arm with this
    /// reward, and both pickers see `after_observe`.
    Serve(f64),
    /// A completion for tenant `u` (mod n), live or retired: it observes
    /// its selected arm, and both pickers see `after_observe`.
    Observe(usize, f64),
    /// A new tenant of the given template joins.
    Push(u8),
    /// Tenant `u` (mod n) retires.
    Retire(usize),
    /// Tenant `u` (mod n) rejoins.
    Rejoin(usize),
    /// Arm `a` (mod k) of tenant `u` (mod n) is quarantined or released.
    Mask(usize, usize, bool),
    /// Every tenant retires: pickers fall back to drawing from all.
    RetireAll,
}

impl Op {
    /// A quantised script serves quarter-level rewards, so equal histories
    /// tie exactly; the others serve continuous draws, so a sum of best
    /// rewards has the bits of one summation order only.
    fn decode((kind, u, a, level, draw): (u8, usize, usize, u8, f64), quantised: bool) -> Op {
        let reward = if quantised {
            f64::from(level) / 4.0
        } else {
            draw
        };
        match kind {
            0..=5 => Op::Serve(reward),
            6 | 7 => Op::Observe(u, reward),
            8 => Op::Push(level),
            9 => Op::Retire(u),
            10 => Op::Rejoin(u),
            11 => Op::Mask(u, a, true),
            12 => Op::Mask(u, a, false),
            _ => Op::RetireAll,
        }
    }
}

/// A roster, the test's own model of its liveness, and the script a
/// simulation runs on it.
#[derive(Debug, Clone)]
struct Scenario {
    roster: Roster,
    live: Vec<bool>,
    num_arms: usize,
    ops: Vec<Op>,
    seed: u64,
    patience: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    // 63 to 65 tenants put the live bitset's word boundary inside the
    // roster, and pushes carry 60-odd tenants across it.
    let sizes = prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 63, 64, 65]);
    (sizes, 1usize..5).prop_flat_map(|(n, k)| {
        (
            prop::collection::vec((0u8..6, 0u8..3), n),
            prop::collection::vec((0..n, 0usize..5), 0..3 * n.min(8)),
            prop::collection::vec(
                (0u8..14, 0usize..130, 0usize..4, 0u8..5, 0.0f64..1.0),
                8..48,
            ),
            0u8..4,
            0u8..2,
            0u64..1_000,
            1usize..4,
        )
            .prop_map(
                move |(templates, history, ops, all_retired, quantised, seed, patience)| {
                    let mut roster: Roster = templates
                        .iter()
                        .enumerate()
                        .map(|(i, &(template, _))| templated_tenant(i, n, k, template))
                        .collect();
                    // Quantised rewards: equal histories tie exactly.
                    for (user, level) in history {
                        let arm = roster[user].select_model();
                        roster.observe(user, arm, level as f64 / 4.0);
                    }
                    let live: Vec<bool> = templates
                        .iter()
                        .map(|&(_, live)| all_retired != 0 && live != 0)
                        .collect();
                    for (id, &l) in live.iter().enumerate() {
                        roster.set_active(id, l);
                    }
                    Scenario {
                        roster,
                        live,
                        num_arms: k,
                        ops: ops
                            .into_iter()
                            .map(|op| Op::decode(op, quantised != 0))
                            .collect(),
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

/// Every roster column equals a from-scratch recomputation: σ̃ from the
/// recurrence, the gap from a fresh UCB sweep, the best reward from the
/// tenant, and liveness from the test's model.
fn check_roster(roster: &Roster, live: &[bool]) -> Result<(), TestCaseError> {
    prop_assert_eq!(roster.len(), live.len());
    let fresh_sigma: Vec<f64> = roster.iter().map(sigma_tilde).collect();
    let fresh_gap: Vec<f64> = roster.iter().map(ucb_gap).collect();
    prop_assert_eq!(bits(roster.sigma_tildes()), bits(&fresh_sigma));
    prop_assert_eq!(bits(roster.ucb_gaps()), bits(&fresh_gap));
    let observed: f64 = roster.iter().filter_map(Tenant::best_reward).sum();
    let column: f64 = roster.best_rewards().iter().sum();
    prop_assert_eq!(column.to_bits(), observed.to_bits());
    for (id, t) in roster.iter().enumerate() {
        prop_assert_eq!(roster.best_rewards()[id], t.best_reward().unwrap_or(0.0));
        prop_assert_eq!(roster.is_active(id), live[id]);
    }
    let scanned: Vec<usize> = (0..live.len()).filter(|&i| live[i]).collect();
    prop_assert_eq!(roster.live_count(), scanned.len());
    prop_assert_eq!(roster.live_ids().collect::<Vec<_>>(), scanned);
    prop_assert!(
        roster.check_columns().is_ok(),
        "{:?}",
        roster.check_columns()
    );
    Ok(())
}

/// Drives `picker` and its reference twin through the scenario on one
/// shared roster. Each op is followed by a pick both make, which must
/// agree in the choice, the candidate set and the score bits; the roster's
/// columns are checked after every mutation.
fn run_against_reference<P: UserPicker>(
    picker: &mut P,
    reference: &mut RefPicker,
    scenario: &Scenario,
) -> Result<Roster, TestCaseError> {
    let mut roster = scenario.roster.clone();
    let mut live = scenario.live.clone();
    let k = scenario.num_arms;
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let mut ref_rng = StdRng::seed_from_u64(scenario.seed);
    check_roster(&roster, &live)?;
    for (step, op) in scenario.ops.iter().enumerate() {
        let n = roster.len();
        let observed = match *op {
            Op::Observe(u, reward) => {
                let arm = roster[u % n].select_model();
                roster.observe(u % n, arm, reward);
                Some(u % n)
            }
            Op::Push(template) => {
                roster.push(templated_tenant(n, n + 1, k, template));
                live.push(true);
                None
            }
            Op::Retire(u) | Op::Rejoin(u) => {
                let active = matches!(op, Op::Rejoin(_));
                roster.set_active(u % n, active);
                live[u % n] = active;
                None
            }
            Op::Mask(u, a, masked) => {
                roster.set_arm_masked(u % n, a % k, masked);
                None
            }
            Op::RetireAll => {
                for id in 0..n {
                    roster.set_active(id, false);
                }
                live.fill(false);
                None
            }
            Op::Serve(_) => None,
        };
        if let Some(user) = observed {
            check_roster(&roster, &live)?;
            picker.after_observe(&roster, user);
            reference.after_observe((&roster, &live));
        }
        let choice = picker.pick(&roster, step, &mut rng);
        prop_assert_eq!(choice, reference.pick((&roster, &live), step, &mut ref_rng));
        prop_assert_eq!(picker.last_candidates(), reference.last_candidates());
        prop_assert_eq!(
            bits(&picker.decision_scores(&roster)),
            bits(&reference.decision_scores(&roster))
        );
        if let Op::Serve(reward) = *op {
            let arm = roster[choice].select_model();
            roster.observe(choice, arm, reward);
            picker.after_observe(&roster, choice);
            reference.after_observe((&roster, &live));
        }
        check_roster(&roster, &live)?;
        if let (Some(hybrid), RefPicker::Hybrid { .. }) = (picker.as_hybrid(), &*reference) {
            check_hybrid_state(hybrid, reference)?;
        }
    }
    Ok(roster)
}

/// The HYBRID freeze detector equals its reference twin's.
fn check_hybrid_state(hybrid: &Hybrid, reference: &RefPicker) -> Result<(), TestCaseError> {
    let state = hybrid.export_state();
    match reference {
        RefPicker::Hybrid {
            frozen_rounds,
            prev_candidates,
            prev_best_sum,
            switched,
            rr_cursor,
            ..
        } => {
            prop_assert_eq!(state.switched, *switched);
            prop_assert_eq!(state.frozen_rounds, *frozen_rounds);
            prop_assert_eq!(&state.prev_candidates, prev_candidates);
            prop_assert_eq!(state.prev_best_sum.to_bits(), prev_best_sum.to_bits());
            prop_assert_eq!(state.rr_cursor, *rr_cursor);
        }
        other => prop_assert!(false, "not a hybrid reference: {other:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn greedy_matches_the_reference_under_every_rule(s in scenario()) {
        for rule in [PickRule::MaxUcbGap, PickRule::MaxSigmaTilde, PickRule::Random] {
            for mutate_at in [None, Some(s.ops.len() / 2)] {
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
        }
    }

    #[test]
    fn simple_pickers_match_the_reference(s in scenario()) {
        run_against_reference(&mut RoundRobin::default(), &mut RefPicker::RoundRobin, &s)?;
        run_against_reference(&mut Fcfs::default(), &mut RefPicker::Fcfs, &s)?;
        run_against_reference(&mut RandomPicker::default(), &mut RefPicker::Random, &s)?;
    }
}
