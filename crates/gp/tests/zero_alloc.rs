//! A steady-state posterior update allocates nothing: the factor, `z`, the
//! cached rows, the reductions and the means live in buffers the posterior
//! keeps, and `reset` keeps their capacity.

use easeml_gp::{ArmPrior, GpPosterior};
use easeml_linalg::Matrix;
use easeml_obs::{thread_alloc_stats, CountingAlloc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// The 179CLASSIFIER zoo's arm count.
const ARMS: usize = 179;
const OBSERVATIONS: usize = 200;

/// A dense prior shaped like the empirical one: `BBᵀ/r + ρI` over random
/// quality vectors, with a random mean.
fn dense_prior(rng: &mut StdRng) -> ArmPrior {
    let r = 16;
    let b: Vec<f64> = (0..ARMS * r).map(|_| rng.gen_range(-0.3..0.3)).collect();
    let mut gram = Matrix::from_fn(ARMS, ARMS, |i, j| {
        (0..r).map(|c| b[i * r + c] * b[j * r + c]).sum::<f64>() / r as f64
    });
    gram.add_diag_mut(1e-3);
    let mean = (0..ARMS).map(|_| rng.gen_range(0.4..0.8)).collect();
    ArmPrior::from_gram(gram).with_mean(mean)
}

/// Allocations this thread makes inside `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_alloc_stats().allocs;
    let out = f();
    (out, thread_alloc_stats().allocs - before)
}

fn bits(gp: &GpPosterior) -> Vec<u64> {
    gp.means()
        .iter()
        .chain(gp.vars())
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn replaying_a_history_after_reset_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(179);
    let prior = dense_prior(&mut rng);
    // Repeated arms included: the history draws with replacement.
    let history: Vec<(usize, f64)> = (0..OBSERVATIONS)
        .map(|_| (rng.gen_range(0..ARMS), rng.gen_range(0.3..0.9)))
        .collect();
    let mut gp = GpPosterior::new(prior, 1e-3);
    for &(arm, reward) in &history {
        gp.observe(arm, reward);
    }
    let first = bits(&gp);

    let ((), allocs) = allocs_in(|| {
        gp.reset();
        for &(arm, reward) in &history {
            gp.observe(arm, reward);
        }
    });
    assert_eq!(allocs, 0, "reset and {OBSERVATIONS} observations allocated");
    assert_eq!(bits(&gp), first, "the replay rebuilds the same posterior");
}
