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
/// Both scores the pickers rank on, σ̃ and the max-UCB gap, are cached
/// fields: computed in [`Tenant::new`] and refreshed in [`Tenant::observe`],
/// the only way to change the tenant's GP state (the policy is reachable
/// mutably only through [`Tenant::set_recorder`] and
/// [`Tenant::set_arm_masked`], which touch neither score). A pick therefore
/// reads each tenant's scores in O(1) instead of sweeping its K arms.
#[derive(Debug, Clone)]
pub struct Tenant {
    id: usize,
    policy: GpUcb,
    /// Running minimum of the empirical confidence bounds (the
    /// `min (y + σ̃)` term); `None` until the first observation.
    empirical_bound: Option<f64>,
    /// Latest σ̃; before the first observation, the maximum prior
    /// exploration width.
    sigma_tilde: f64,
    /// Cached [`Tenant::ucb_gap`].
    ucb_gap: f64,
    /// Best reward observed so far.
    best_reward: Option<f64>,
    /// Reward observed at the most recent serve.
    last_reward: Option<f64>,
    /// Arm played at the most recent serve.
    last_arm: Option<usize>,
    /// Distinct arms played (completion detector for FCFS).
    arms_played: Vec<bool>,
    /// Whether the tenant is live. A retired tenant keeps its slot (so
    /// tenant ids stay stable for checkpoints and traces) but is invisible
    /// to every picker's candidate set.
    active: bool,
}

impl Tenant {
    /// Wraps a per-user policy.
    pub fn new(id: usize, policy: GpUcb) -> Self {
        let k = policy.posterior().num_arms();
        // Fresh tenants look maximally promising: σ̃ starts at the maximum
        // prior exploration width.
        let sigma_tilde = (0..k)
            .map(|arm| policy.exploration_width(arm))
            .fold(0.0, f64::max);
        let mut tenant = Tenant {
            id,
            policy,
            empirical_bound: None,
            sigma_tilde,
            ucb_gap: 0.0,
            best_reward: None,
            last_reward: None,
            last_arm: None,
            arms_played: vec![false; k],
            active: true,
        };
        tenant.refresh_ucb_gap();
        tenant
    }

    fn refresh_ucb_gap(&mut self) {
        self.ucb_gap = self.policy.max_ucb() - self.best_reward.unwrap_or(0.0);
    }

    /// Whether the tenant is live (the default) or retired.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Marks the tenant live or retired. Retirement only hides the tenant
    /// from pickers; its GP state stays intact so a checkpoint restore (or
    /// a re-join under the same id) resumes bit-exactly.
    #[inline]
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
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
    /// `reward`. Updates the GP posterior, the σ̃ recurrence and the cached
    /// UCB gap.
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
        self.sigma_tilde = bound - reward;
        self.refresh_ucb_gap();
    }

    /// The latest empirical variance estimate σ̃ (the tenant's estimated
    /// potential for improvement). Falls back to the maximum prior
    /// exploration width before the first observation, so fresh tenants look
    /// maximally promising.
    #[inline]
    pub fn sigma_tilde(&self) -> f64 {
        self.sigma_tilde
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
    /// accuracy so far", §4.3).
    #[inline]
    pub fn ucb_gap(&self) -> f64 {
        self.ucb_gap
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

    #[test]
    fn activity_toggles_without_touching_bandit_state() {
        let mut t = tenant(0, 2);
        assert!(t.is_active(), "tenants start live");
        t.observe(1, 0.6);
        t.set_active(false);
        assert!(!t.is_active());
        assert_eq!(t.best_reward(), Some(0.6), "retirement keeps GP state");
        t.set_active(true);
        assert!(t.is_active());
        assert_eq!(t.last_arm(), Some(1));
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
