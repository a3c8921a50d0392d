//! Steady-state user picks allocate nothing: the pickers read the
//! roster's dense columns and build `V_t` in buffers they keep, and a
//! retirement or rejoin only flips a bit.

use easeml_bandit::{BetaSchedule, GpUcb};
use easeml_gp::ArmPrior;
use easeml_obs::{thread_alloc_stats, CountingAlloc};
use easeml_sched::{Greedy, Hybrid, PickRule, Roster, Tenant, UserPicker};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

const TENANTS: usize = 64;
const ARMS: usize = 8;
const MEASURED: usize = 1_000;

/// Warmed-up tenants: each has been served once, as Algorithm 2 requires.
fn tenants() -> Roster {
    let mut roster: Roster = (0..TENANTS)
        .map(|i| {
            let beta = BetaSchedule::MultiTenant {
                max_cost: 1.0,
                num_tenants: TENANTS,
                max_arms: ARMS,
                delta: 0.1,
            };
            Tenant::new(
                i,
                GpUcb::cost_oblivious(ArmPrior::independent(ARMS, 0.05), 1e-3, beta),
            )
        })
        .collect();
    for i in 0..TENANTS {
        let arm = roster[i].select_model();
        roster.observe(i, arm, 0.3 + 0.001 * i as f64);
    }
    roster
}

/// A reward above every earlier one: the served tenant's best improves, so
/// the overall regret keeps dropping and service keeps spreading.
fn record(step: usize) -> f64 {
    0.5 + 1e-4 * step as f64
}

/// Allocations this thread makes inside `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_alloc_stats().allocs;
    let out = f();
    (out, thread_alloc_stats().allocs - before)
}

/// One round: the picker's calls are counted, the tenant's own model
/// selection and observation are not. Returns the picker's allocations.
fn round<P: UserPicker>(
    picker: &mut P,
    roster: &mut Roster,
    step: usize,
    reward: f64,
    rng: &mut StdRng,
) -> u64 {
    let (user, pick_allocs) = allocs_in(|| picker.pick(roster, step, rng));
    let arm = roster[user].select_model();
    roster.observe(user, arm, reward);
    let ((), observe_allocs) = allocs_in(|| picker.after_observe(roster, user));
    pick_allocs + observe_allocs
}

/// The lifecycle flip at position `j` of a measured window, counted:
/// tenant 3 retires midway and rejoins three rounds later, so the picks
/// between run on the bitset-walk path.
fn flip(roster: &mut Roster, j: usize) -> u64 {
    let ((), allocs) = allocs_in(|| {
        if j == MEASURED / 2 {
            roster.set_active(3, false);
        } else if j == MEASURED / 2 + 3 {
            roster.set_active(3, true);
        }
    });
    allocs
}

#[test]
fn steady_state_hybrid_rounds_allocate_nothing_in_either_phase() {
    let mut ts = tenants();
    let mut hybrid = Hybrid::ease_ml();
    let mut rng = StdRng::seed_from_u64(7);
    let mut step = 0;
    // Every reward is a new record, so the freeze detector never fires:
    // the greedy phase.
    for _ in 0..10 {
        round(&mut hybrid, &mut ts, step, record(step), &mut rng);
        step += 1;
    }
    let mut greedy_allocs = 0;
    for j in 0..MEASURED {
        greedy_allocs += flip(&mut ts, j);
        greedy_allocs += round(&mut hybrid, &mut ts, step, record(step), &mut rng);
        step += 1;
    }
    assert!(!hybrid.has_switched(), "records keep HYBRID greedy");
    assert_eq!(greedy_allocs, 0, "greedy-phase HYBRID rounds allocated");

    // Rewards below every best: the candidate set settles and HYBRID
    // switches to round robin.
    while !hybrid.has_switched() {
        assert!(step < 100_000, "HYBRID never froze");
        round(&mut hybrid, &mut ts, step, 0.0, &mut rng);
        step += 1;
    }
    let mut rr_allocs = 0;
    for j in 0..MEASURED {
        rr_allocs += flip(&mut ts, j);
        rr_allocs += round(&mut hybrid, &mut ts, step, 0.0, &mut rng);
        step += 1;
    }
    assert_eq!(rr_allocs, 0, "round-robin-phase HYBRID rounds allocated");
}

#[test]
fn steady_state_greedy_picks_allocate_nothing_under_every_rule() {
    for rule in [
        PickRule::MaxUcbGap,
        PickRule::MaxSigmaTilde,
        PickRule::Random,
    ] {
        let mut ts = tenants();
        let mut greedy = Greedy::new(rule);
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..10 {
            round(&mut greedy, &mut ts, step, record(step), &mut rng);
        }
        let allocs: u64 = (0..MEASURED)
            .map(|j| {
                let step = 10 + j;
                flip(&mut ts, j) + round(&mut greedy, &mut ts, step, record(step), &mut rng)
            })
            .sum();
        assert_eq!(allocs, 0, "{rule:?} picks allocated");
    }
}
