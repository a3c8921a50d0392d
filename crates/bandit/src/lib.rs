//! Single-tenant model-selection policies (paper §3).
//!
//! Ease.ml treats the model-selection problem of a single user as a
//! multi-armed bandit: each candidate model is an arm, playing an arm means
//! training the model, and the observed reward is the model's accuracy. This
//! crate implements:
//!
//! * [`GpUcb`] — the GP-UCB policy of Algorithm 1, in both the cost-oblivious
//!   form (`argmax μ + √β σ`) and the paper's cost-aware twist
//!   (`argmax μ + √(β/c) σ`, §3.2) together with the β schedules of
//!   Algorithm 1 and Theorems 1–3 ([`beta::BetaSchedule`]), plus the
//!   GP-BUCB view ([`GpUcb::hallucinate`]) a dispatcher selects from while
//!   earlier runs of the same policy are still in flight;
//! * [`Ucb1`] — the classic distribution-free UCB1 baseline discussed in
//!   §3.1's theoretical comparison;
//! * the heuristic and Bayesian alternatives in [`policies`]:
//!   ε-greedy, Thompson sampling, expected improvement (GP-EI) and
//!   probability of improvement (GP-PI) — the §4.5 future-work acquisition
//!   functions — plus the [`policies::FixedOrder`] policy that models the
//!   MOSTCITED / MOSTRECENT user heuristics of §5.2;
//! * [`regret::RegretTracker`] — single-tenant regret and accuracy-loss
//!   accounting matching §3's definitions.
//!
//! All stochastic policies take the RNG as an argument, so every simulation
//! in the workspace is reproducible from a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod beta;
pub mod gp_ucb;
pub mod policies;
#[cfg(test)]
mod reference;
pub mod regret;
pub mod stats;
pub mod ucb1;

pub use beta::BetaSchedule;
pub use gp_ucb::{ArmExplanation, GpUcb, ScoredArm};
pub use policies::{
    EpsilonGreedy, ExpectedImprovement, FixedOrder, ProbabilityOfImprovement, RandomArm,
    ThompsonSampling,
};
pub use regret::RegretTracker;
pub use ucb1::Ucb1;

use rand::Rng;

/// A sequential arm-selection policy: propose an arm, then learn from the
/// observed reward.
///
/// The GP-driven policies also expose their posterior directly (needed by
/// the multi-tenant scheduler); this trait is the lowest common denominator
/// used by the single-tenant experiment loops.
pub trait ArmPolicy {
    /// Number of arms.
    fn num_arms(&self) -> usize;

    /// Chooses the next arm to play.
    fn select(&mut self, rng: &mut dyn rand::RngCore) -> usize;

    /// Incorporates the observed reward for `arm`.
    fn observe(&mut self, arm: usize, reward: f64);
}

/// Uniformly random arm choice shared by several policies.
pub(crate) fn random_arm(num_arms: usize, rng: &mut dyn rand::RngCore) -> usize {
    rng.gen_range(0..num_arms)
}
