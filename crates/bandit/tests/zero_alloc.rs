//! GP-UCB's per-round calls allocate nothing but `Vec` growth: selection
//! reads the cached argmax, and an observation writes into buffers the
//! posterior keeps, which grow by doubling.

use easeml_bandit::{BetaSchedule, GpUcb};
use easeml_gp::ArmPrior;
use easeml_linalg::Matrix;
use easeml_obs::{thread_alloc_stats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// The 179CLASSIFIER zoo's arm count.
const ARMS: usize = 179;
const OBSERVATIONS: usize = 200;

/// Allocations this thread makes inside `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_alloc_stats().allocs;
    let out = f();
    (out, thread_alloc_stats().allocs - before)
}

/// Reallocations of a `Vec` grown by amortized doubling from empty to `len`
/// elements: at most one per power of two up to `len`.
fn doublings(len: usize) -> u64 {
    u64::from(usize::BITS - len.leading_zeros())
}

#[test]
fn selection_allocates_nothing_and_observation_only_grows_vecs() {
    // Correlated arms: an exponential kernel over the arm index.
    let gram = Matrix::from_fn(ARMS, ARMS, |i, j| (-(i.abs_diff(j) as f64) / 20.0).exp());
    let prior = ArmPrior::from_gram(gram);
    let beta = BetaSchedule::Simple {
        num_arms: ARMS,
        delta: 0.1,
    };
    let costs = (0..ARMS).map(|k| 1.0 + (k % 7) as f64).collect();
    let mut policy = GpUcb::cost_aware(prior, 1e-3, beta, costs);
    policy.set_arm_masked(3, true);

    let mut observe_allocs = 0;
    for step in 0..OBSERVATIONS {
        let (arm, select_allocs) = allocs_in(|| policy.select_arm());
        assert_eq!(select_allocs, 0, "select_arm allocated at step {step}");
        let reward = 0.5 + 0.3 * ((arm * 31 + step) % 17) as f64 / 17.0;
        let ((), allocs) = allocs_in(|| policy.observe(arm, reward));
        observe_allocs += allocs;
    }

    // The posterior's growing buffers: the arm and reward histories, `z`,
    // the packed factor and the t×K cached rows.
    let t = OBSERVATIONS;
    let bound = 3 * doublings(t) + doublings(t * (t + 1) / 2) + doublings(t * ARMS);
    assert!(
        observe_allocs <= bound,
        "{OBSERVATIONS} observations allocated {observe_allocs} times; Vec doublings allow {bound}"
    );
}
