//! Per-user state: the tenant's bandit plus the Algorithm-2 bookkeeping.

use easeml_bandit::GpUcb;
use easeml_obs::RecorderHandle;

/// One user in the multi-tenant system.
///
/// Wraps the user's GP-UCB model-picking policy and maintains the empirical
/// confidence bound recurrence of Algorithm 2 line 6:
///
/// ```text
/// σ̃_t = min{ B_t(a_t), min_{t' < t} (y_{t'} + σ̃_{t'}) } − y_t
/// ```
///
/// Since `y_{t'} + σ̃_{t'}` is exactly the empirical bound at round t', the
/// recurrence reduces to a running minimum of the per-round upper confidence
/// bounds; σ̃ is the gap between that bound and the *latest* observed
/// reward. The greedy scheduler treats σ̃ as the tenant's remaining
/// "potential for quality improvement".
///
/// Both scores the pickers rank on, σ̃ and the max-UCB gap, are O(1) reads
/// of the recurrence state and of the policy's cached max UCB once the
/// tenant has been served. A [`Roster`](crate::Roster) stores them, with
/// the tenant's liveness and best reward, in columns by tenant id and
/// refreshes them on every observation, so a pick never strides the
/// tenants.
#[derive(Debug, Clone)]
pub struct Tenant {
    id: usize,
    policy: GpUcb,
    /// Running minimum of the empirical confidence bounds (the
    /// `min (y + σ̃)` term); `None` until the first observation.
    empirical_bound: Option<f64>,
    /// Best reward observed so far.
    best_reward: Option<f64>,
    /// Reward observed at the most recent serve.
    last_reward: Option<f64>,
    /// Arm played at the most recent serve.
    last_arm: Option<usize>,
    /// Distinct arms played (completion detector for FCFS).
    arms_played: Vec<bool>,
}

impl Tenant {
    /// Wraps a per-user policy.
    pub fn new(id: usize, policy: GpUcb) -> Self {
        let k = policy.posterior().num_arms();
        Tenant {
            id,
            policy,
            empirical_bound: None,
            best_reward: None,
            last_reward: None,
            last_arm: None,
            arms_played: vec![false; k],
        }
    }

    /// The tenant's identifier (index into the scheduler's tenant list).
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The tenant's model-picking policy.
    #[inline]
    pub fn policy(&self) -> &GpUcb {
        &self.policy
    }

    /// Attaches (or, with a noop handle, detaches) a recorder on the
    /// tenant's policy; its events carry the tenant id as the user.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.policy.set_recorder(recorder, self.id);
    }

    /// Masks `arm` out of (or back into) the tenant's model selection — see
    /// [`GpUcb::set_arm_masked`]. The mask leaves the posterior, and so
    /// both cached scores, untouched.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn set_arm_masked(&mut self, arm: usize, masked: bool) {
        self.policy.set_arm_masked(arm, masked);
    }

    /// Number of times this tenant has been served.
    #[inline]
    pub fn serves(&self) -> usize {
        self.policy.steps()
    }

    /// Selects the model this tenant would train next (Algorithm 2
    /// lines 9–10, delegated to the single-tenant GP-UCB criterion).
    pub fn select_model(&self) -> usize {
        self.policy.select_arm()
    }

    /// Records the outcome of a serve: the tenant played `arm` and observed
    /// `reward`. Updates the GP posterior and the σ̃ recurrence.
    pub fn observe(&mut self, arm: usize, reward: f64) {
        self.policy.observe(arm, reward);
        self.arms_played[arm] = true;
        self.last_arm = Some(arm);
        self.last_reward = Some(reward);
        if self.best_reward.is_none_or(|b| reward > b) {
            self.best_reward = Some(reward);
        }
        // Updated upper confidence bound of the played arm (B_t(a_t) with
        // the refreshed posterior and the next β).
        let b = self.policy.ucb(arm);
        let bound = match self.empirical_bound {
            Some(prev) => prev.min(b),
            None => b,
        };
        self.empirical_bound = Some(bound);
    }

    /// The latest empirical variance estimate σ̃ (the tenant's estimated
    /// potential for improvement): the running-minimum bound minus the
    /// latest reward. Falls back to the maximum prior exploration width
    /// before the first observation (an O(K) sweep), so fresh tenants look
    /// maximally promising.
    pub fn sigma_tilde(&self) -> f64 {
        match (self.empirical_bound, self.last_reward) {
            (Some(bound), Some(reward)) => bound - reward,
            _ => (0..self.policy.posterior().num_arms())
                .map(|arm| self.policy.exploration_width(arm))
                .fold(0.0, f64::max),
        }
    }

    /// Running-minimum empirical confidence bound `y + σ̃`, if any
    /// observation has been made.
    #[inline]
    pub fn empirical_bound(&self) -> Option<f64> {
        self.empirical_bound
    }

    /// Best reward observed so far (the accuracy of the model ease.ml
    /// currently serves this user).
    #[inline]
    pub fn best_reward(&self) -> Option<f64> {
        self.best_reward
    }

    /// Reward observed at the most recent serve.
    #[inline]
    pub fn last_reward(&self) -> Option<f64> {
        self.last_reward
    }

    /// Arm played at the most recent serve.
    #[inline]
    pub fn last_arm(&self) -> Option<usize> {
        self.last_arm
    }

    /// Whether every candidate model has been trained at least once.
    pub fn exhausted(&self) -> bool {
        self.arms_played.iter().all(|&p| p)
    }

    /// The gap between the largest upper confidence bound over all models
    /// and the best accuracy so far (0 before the first observation) —
    /// ease.ml's production rule for choosing among greedy candidates ("the
    /// maximum gap between the largest upper confidence bound and the best
    /// accuracy so far", §4.3). O(1): the policy caches its max UCB.
    #[inline]
    pub fn ucb_gap(&self) -> f64 {
        self.policy.max_ucb() - self.best_reward.unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_bandit::BetaSchedule;
    use easeml_gp::ArmPrior;

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

    /// Pins `Tenant`'s size, like rustc's `static_assert_size!` on its hot
    /// types, so that a resize is deliberate. No per-round loop strides
    /// `Tenant` any more: GREEDY and HYBRID fold the roster's dense columns
    /// and round robin reads its live bitset, so only FCFS, deadline checks,
    /// checkpoints and restores walk the tenants. Before the roster, every
    /// pick scanned the tenants at this stride several times a round, and a
    /// power-of-two stride was a cliff there: on a 2-vCPU x86-64 VM,
    /// `service-1k` ran at 249–259k decisions/s with `Tenant` padded to 512
    /// bytes, against 335–389k at its then 488. Moving σ̃, the UCB gap and
    /// liveness into the roster shrank it to 464.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn tenant_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Tenant>(), 464);
    }

    #[test]
    fn fresh_tenant_state() {
        let t = tenant(3, 2);
        assert_eq!(t.id(), 3);
        assert_eq!(t.serves(), 0);
        assert_eq!(t.best_reward(), None);
        assert_eq!(t.last_arm(), None);
        assert!(!t.exhausted());
        assert_eq!(t.empirical_bound(), None);
        // Fallback σ̃ equals the max prior exploration width (> 0).
        assert!(t.sigma_tilde() > 0.0);
    }

    #[test]
    fn observe_updates_everything() {
        let mut t = tenant(0, 2);
        t.observe(1, 0.6);
        assert_eq!(t.serves(), 1);
        assert_eq!(t.best_reward(), Some(0.6));
        assert_eq!(t.last_arm(), Some(1));
        assert_eq!(t.last_reward(), Some(0.6));
        assert!(!t.exhausted());
        t.observe(0, 0.4);
        assert_eq!(t.best_reward(), Some(0.6)); // best retained
        assert_eq!(t.last_reward(), Some(0.4)); // last replaced
        assert!(t.exhausted());
    }

    #[test]
    fn empirical_bound_is_a_running_minimum() {
        let mut t = tenant(0, 2);
        t.observe(0, 0.5);
        let b1 = t.empirical_bound().unwrap();
        // Repeated consistent observations tighten the posterior, so the
        // UCB — and hence the running-min bound — cannot increase.
        for _ in 0..5 {
            t.observe(0, 0.5);
            let b = t.empirical_bound().unwrap();
            assert!(b <= b1 + 1e-12);
        }
    }

    #[test]
    fn sigma_tilde_shrinks_as_the_posterior_tightens() {
        let mut t = tenant(0, 1);
        t.observe(0, 0.5);
        let s1 = t.sigma_tilde();
        for _ in 0..20 {
            t.observe(0, 0.5);
        }
        let s2 = t.sigma_tilde();
        assert!(
            s2 < s1,
            "σ̃ should shrink with confidence: {s1:.4} -> {s2:.4}"
        );
    }

    #[test]
    fn ucb_gap_reflects_remaining_potential() {
        let mut explored = tenant(0, 2);
        for _ in 0..10 {
            explored.observe(0, 0.9);
            explored.observe(1, 0.1);
        }
        let mut fresh = tenant(1, 2);
        fresh.observe(0, 0.1);
        // The fresh tenant has one unexplored arm with full prior
        // uncertainty and a low best, so its gap dominates.
        assert!(fresh.ucb_gap() > explored.ucb_gap());
    }

    #[test]
    fn select_model_delegates_to_gp_ucb() {
        let mut t = tenant(0, 3);
        // Strong observation on arm 2 with tiny prior variance elsewhere is
        // not constructible with an independent unit prior, so just check
        // the selection is a valid arm and changes state sensibly.
        let a = t.select_model();
        assert!(a < 3);
        t.observe(a, 0.7);
        assert_eq!(t.serves(), 1);
    }
}
