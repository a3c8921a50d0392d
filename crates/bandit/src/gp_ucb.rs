//! GP-UCB: the Gaussian-process upper-confidence-bound policy of
//! Algorithm 1, with the paper's cost-aware twist (§3.2).

use crate::beta::BetaSchedule;
use crate::ArmPolicy;
use easeml_gp::{ArmPrior, GpPosterior};
use easeml_linalg::vec_ops;
use easeml_obs::{top_k_indices, Component, Event, RecorderHandle};

/// One arm's posterior snapshot inside an [`ArmExplanation`]: what the
/// policy knew about the arm at selection time. `ucb` is the arm's *real*
/// upper confidence bound — masked arms keep their true score here (with
/// `masked: true`) even though the argmax saw `-∞` for them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredArm {
    /// Arm (model) index.
    pub arm: usize,
    /// Posterior mean μ(k).
    pub mean: f64,
    /// Posterior standard deviation σ(k).
    pub sigma: f64,
    /// Upper confidence bound μ(k) + √(β/c_k)·σ(k).
    pub ucb: f64,
    /// Whether quarantine masked the arm out of the argmax.
    pub masked: bool,
}

/// The why-chain of one arm selection: the chosen arm, the winning margin,
/// and the top-K runners-up ranked exactly as the argmax saw them.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmExplanation {
    /// The arm [`GpUcb::select_arm`] would return from this posterior state
    /// (for a GP-BUCB dispatch, the state [`GpUcb::hallucinate`] returns).
    pub chosen: usize,
    /// Effective score gap between the winner and the runner-up, computed on
    /// the *masked* scores the argmax ranked (so a quarantined near-winner
    /// does not shrink the margin). `NaN` when there is no runner-up.
    pub margin: f64,
    /// Top-K arms by effective (mask-adjusted) score, best first. Entry 0 is
    /// always the chosen arm.
    pub top: Vec<ScoredArm>,
}

/// GP-UCB arm selection.
///
/// At step t the policy plays
///
/// ```text
/// cost-oblivious:  a_t = argmax_k  μ_{t−1}(k) + √β_t        · σ_{t−1}(k)
/// cost-aware:      a_t = argmax_k  μ_{t−1}(k) + √(β_t / c_k) · σ_{t−1}(k)
/// ```
///
/// The cost-aware form is the paper's "simple twist": all else equal, slower
/// models (larger c_k) get a lower priority, but an expensive arm with a
/// large enough potential reward is still worth a bet.
///
/// # Examples
///
/// ```
/// use easeml_bandit::{BetaSchedule, GpUcb};
/// use easeml_gp::ArmPrior;
///
/// let prior = ArmPrior::independent(3, 1.0);
/// let mut ucb = GpUcb::cost_oblivious(
///     prior,
///     0.01,
///     BetaSchedule::Simple { num_arms: 3, delta: 0.1 },
/// );
/// let a = ucb.select_arm();
/// ucb.observe(a, 0.9);
/// assert_eq!(ucb.best_observed(), Some((a, 0.9)));
/// ```
#[derive(Debug, Clone)]
pub struct GpUcb {
    gp: GpPosterior,
    costs: Option<Vec<f64>>,
    beta: BetaSchedule,
    /// Number of completed observations; the *next* selection happens at
    /// step `t + 1`.
    t: usize,
    /// Disabled by default; [`GpUcb::with_recorder`] attaches a sink that
    /// receives an `ArmChosen` per selection and a `PosteriorUpdated` per
    /// observation.
    recorder: RecorderHandle,
    /// User id stamped on emitted events (0 until a recorder is attached).
    owner: usize,
    /// Quarantine mask: a `true` entry excludes the arm from the argmax
    /// (e.g. after repeated training failures) until it is unmasked again.
    masked: Vec<bool>,
    /// The arm [`GpUcb::select_arm`] plays from the current state, or
    /// `usize::MAX` when no score is comparable. Set by [`GpUcb::rescan`].
    chosen: usize,
    /// [`GpUcb::max_ucb`] of the current state. Set by [`GpUcb::rescan`].
    max_ucb: f64,
}

impl GpUcb {
    /// Creates a cost-oblivious GP-UCB policy.
    ///
    /// # Panics
    ///
    /// Panics if `noise_var <= 0` (propagated from [`GpPosterior::new`]).
    pub fn cost_oblivious(prior: ArmPrior, noise_var: f64, beta: BetaSchedule) -> Self {
        Self::new(prior, noise_var, beta, None)
    }

    /// Creates a cost-aware GP-UCB policy with per-arm costs `c_k`.
    ///
    /// # Panics
    ///
    /// Panics if `costs.len()` does not match the number of arms or any cost
    /// is not strictly positive.
    pub fn cost_aware(
        prior: ArmPrior,
        noise_var: f64,
        beta: BetaSchedule,
        costs: Vec<f64>,
    ) -> Self {
        assert_eq!(
            costs.len(),
            prior.num_arms(),
            "one cost per arm is required"
        );
        assert!(
            costs.iter().all(|&c| c > 0.0),
            "arm costs must be strictly positive"
        );
        Self::new(prior, noise_var, beta, Some(costs))
    }

    fn new(prior: ArmPrior, noise_var: f64, beta: BetaSchedule, costs: Option<Vec<f64>>) -> Self {
        let masked = vec![false; prior.num_arms()];
        let mut policy = GpUcb {
            gp: GpPosterior::new(prior, noise_var),
            costs,
            beta,
            t: 0,
            recorder: RecorderHandle::noop(),
            owner: 0,
            masked,
            chosen: usize::MAX,
            max_ucb: f64::NEG_INFINITY,
        };
        policy.rescan();
        policy
    }

    /// Attaches a recorder; `owner` is the user id stamped on the emitted
    /// events. Builder-style counterpart of [`GpUcb::set_recorder`].
    pub fn with_recorder(mut self, recorder: RecorderHandle, owner: usize) -> Self {
        self.set_recorder(recorder, owner);
        self
    }

    /// Attaches (or, with a noop handle, detaches) a recorder; `owner` is
    /// the user id stamped on the emitted events.
    pub fn set_recorder(&mut self, recorder: RecorderHandle, owner: usize) {
        self.recorder = recorder;
        self.owner = owner;
    }

    /// Whether the policy divides the exploration bonus by the arm cost.
    #[inline]
    pub fn is_cost_aware(&self) -> bool {
        self.costs.is_some()
    }

    /// The underlying GP posterior.
    #[inline]
    pub fn posterior(&self) -> &GpPosterior {
        &self.gp
    }

    /// Number of completed observations t.
    #[inline]
    pub fn steps(&self) -> usize {
        self.t
    }

    /// β used by the *next* selection (evaluated at t + 1).
    #[inline]
    pub fn beta_next(&self) -> f64 {
        self.beta.at(self.t + 1)
    }

    /// The β schedule itself.
    #[inline]
    pub fn beta_schedule(&self) -> BetaSchedule {
        self.beta
    }

    /// Cost of playing `arm` (1.0 when cost-oblivious).
    #[inline]
    pub fn cost(&self, arm: usize) -> f64 {
        self.costs.as_ref().map_or(1.0, |c| c[arm])
    }

    /// Upper confidence bound `B_t(k) = μ(k) + √(β/c_k) σ(k)` of `arm` for
    /// the next selection.
    pub fn ucb(&self, arm: usize) -> f64 {
        self.ucb_with(self.beta_next(), arm)
    }

    fn ucb_with(&self, beta: f64, arm: usize) -> f64 {
        self.gp.mean(arm) + (beta / self.cost(arm)).sqrt() * self.gp.std(arm)
    }

    /// Every arm's [`GpUcb::ucb`] in arm order. β is a pure function of t,
    /// so evaluating it once per sweep yields the same bits as per arm.
    fn ucb_iter(&self) -> impl Iterator<Item = f64> + '_ {
        let beta = self.beta_next();
        (0..self.gp.num_arms()).map(move |k| self.ucb_with(beta, k))
    }

    /// Upper confidence bounds of all arms for the next selection.
    pub fn ucbs(&self) -> Vec<f64> {
        self.ucb_iter().collect()
    }

    /// The largest upper confidence bound over all arms (masked or not) for
    /// the next selection: `ucbs()` folded with `f64::max` from `-∞`. O(1):
    /// it is cached by the scan that also picks the next arm.
    #[inline]
    pub fn max_ucb(&self) -> f64 {
        self.max_ucb
    }

    /// Exploration width `√(β/c_k) σ(k)` of `arm` — the UCB minus the mean.
    pub fn exploration_width(&self, arm: usize) -> f64 {
        (self.beta_next() / self.cost(arm)).sqrt() * self.gp.std(arm)
    }

    /// Masks `arm` out of (or back into) [`GpUcb::select_arm`]'s argmax.
    /// Masking is the quarantine mechanism: an arm that keeps failing can be
    /// excluded without touching the posterior, then unmasked on probation.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn set_arm_masked(&mut self, arm: usize, masked: bool) {
        assert!(arm < self.masked.len(), "arm {arm} out of range");
        self.masked[arm] = masked;
        self.rescan();
    }

    /// Whether `arm` is currently masked out of selection.
    pub fn is_masked(&self, arm: usize) -> bool {
        self.masked.get(arm).copied().unwrap_or(false)
    }

    /// Indices of currently masked arms, ascending.
    pub fn masked_arms(&self) -> Vec<usize> {
        self.masked
            .iter()
            .enumerate()
            .filter_map(|(k, &m)| m.then_some(k))
            .collect()
    }

    /// Chooses the next arm: argmax of the UCB over unmasked arms, ties
    /// toward the lower index. If every arm is masked the mask is ignored —
    /// the service must keep making progress, so quarantine degrades to a
    /// no-op rather than deadlocking the tenant. O(1): the argmax is cached
    /// by the scan that runs whenever the posterior, the step count or the
    /// mask changes.
    ///
    /// Runs under a `pick_arm` span; the emitted [`Event::ArmChosen`] carries
    /// the chosen arm's posterior mean and standard deviation so offline
    /// tooling can score the GP's calibration against the realized quality.
    ///
    /// # Panics
    ///
    /// Panics if no arm has a comparable score (no arms, or every UCB NaN).
    pub fn select_arm(&self) -> usize {
        let _span = self.recorder.span("pick_arm");
        let _timing = self.recorder.time(Component::ArmSelect);
        let arm = self.chosen;
        assert!(arm != usize::MAX, "policy has at least one arm");
        self.recorder.emit(|| Event::ArmChosen {
            user: self.owner,
            arm,
            ucb: self.ucb(arm),
            beta: self.beta_next(),
            cost: self.cost(arm),
            mean: self.gp.mean(arm),
            sigma: self.gp.std(arm),
            parent: easeml_obs::current_span(),
        });
        arm
    }

    /// Effective scores [`GpUcb::select_arm`]'s argmax ranks, in arm order:
    /// the UCBs, with masked arms forced to `-∞` unless every arm is masked
    /// (in which case quarantine degrades to a no-op, matching the selection
    /// rule).
    fn effective_score_iter(&self) -> impl Iterator<Item = f64> + '_ {
        let masking = self.masking();
        self.ucb_iter()
            .zip(&self.masked)
            .map(move |(ucb, &m)| effective_score(masking, m, ucb))
    }

    /// Whether the mask applies: some arm is masked, but not every arm.
    fn masking(&self) -> bool {
        self.masked.iter().any(|&m| m) && !self.masked.iter().all(|&m| m)
    }

    /// Recomputes the cached argmax and max UCB in one pass over the arms:
    /// the same UCBs, fold and argmax (`vec_ops::argmax_by`, ties to the
    /// lower index) that [`GpUcb::ucbs`] and [`GpUcb::explain_selection`]
    /// compute, so the cached values equal theirs bit for bit.
    fn rescan(&mut self) {
        let masking = self.masking();
        let mut max_ucb = f64::NEG_INFINITY;
        let scores = self.ucb_iter().zip(&self.masked).map(|(ucb, &m)| {
            max_ucb = max_ucb.max(ucb);
            effective_score(masking, m, ucb)
        });
        self.chosen = vec_ops::argmax_by(scores.enumerate()).unwrap_or(usize::MAX);
        self.max_ucb = max_ucb;
    }

    /// Read-only why-chain for the *next* selection: the arm
    /// [`GpUcb::select_arm`] would choose, the winning margin, and the top-K
    /// runners-up with their posterior state. Does not move the posterior,
    /// emit events, or consume randomness — safe to call on the hot path
    /// before (or instead of) `select_arm`.
    pub fn explain_selection(&self, k: usize) -> ArmExplanation {
        let scores: Vec<f64> = self.effective_score_iter().collect();
        let ranked = top_k_indices(&scores, k.max(1));
        let chosen = vec_ops::argmax(&scores).expect("policy has at least one arm");
        let margin = if scores.len() >= 2 {
            let runner_up = ranked
                .get(1)
                .map(|&a| scores[a])
                .unwrap_or(f64::NEG_INFINITY);
            scores[chosen] - runner_up
        } else {
            f64::NAN
        };
        let top = ranked
            .into_iter()
            .map(|arm| ScoredArm {
                arm,
                mean: self.gp.mean(arm),
                sigma: self.gp.std(arm),
                ucb: self.ucb(arm),
                masked: self.is_masked(arm),
            })
            .collect();
        ArmExplanation {
            chosen,
            margin,
            top,
        }
    }

    /// Incorporates an observation.
    ///
    /// Runs under a `posterior_update` span; the emitted
    /// [`Event::PosteriorUpdated`] carries the refreshed factor's condition
    /// estimate for numerical-health monitoring.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range arms or non-finite rewards (propagated from
    /// the posterior).
    pub fn observe(&mut self, arm: usize, reward: f64) {
        let _span = self.recorder.span("posterior_update");
        self.gp.observe(arm, reward);
        self.t += 1;
        self.rescan();
        self.recorder.emit(|| Event::PosteriorUpdated {
            arm,
            reward,
            num_obs: self.t,
            cond: self.gp.condition_estimate(),
            parent: easeml_obs::current_span(),
        });
    }

    /// Best observed `(arm, reward)` so far.
    pub fn best_observed(&self) -> Option<(usize, f64)> {
        self.gp.best_observed()
    }

    /// GP-BUCB's view of this policy while `pending` runs are still in
    /// flight (Desautels, Krause & Burdick, JMLR 2014 — the parallel-GP
    /// direction the paper's §6 cites): a copy whose posterior absorbed one
    /// observation at its running mean per pending arm, in order, with the
    /// step count advanced once per fake. A fake at the mean leaves the
    /// mean alone but shrinks the variance, so [`GpUcb::select_arm`] on the
    /// copy (β at t + |pending| + 1) steers the next dispatch away from arms
    /// the batch already covers. The fakes go straight into the posterior,
    /// without events or spans; with nothing pending the copy equals `self`
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range pending arm (propagated from the
    /// posterior).
    pub fn hallucinate(&self, pending: &[usize]) -> GpUcb {
        let mut copy = self.clone();
        for &arm in pending {
            let fake = copy.gp.mean(arm);
            copy.gp.observe(arm, fake);
            copy.t += 1;
        }
        if !pending.is_empty() {
            copy.rescan();
        }
        copy
    }
}

/// An arm's score in [`GpUcb::select_arm`]'s argmax: its UCB, or `-∞` when
/// the mask applies and the arm is masked.
#[inline]
fn effective_score(masking: bool, masked: bool, ucb: f64) -> f64 {
    if masking && masked {
        f64::NEG_INFINITY
    } else {
        ucb
    }
}

impl ArmPolicy for GpUcb {
    fn num_arms(&self) -> usize {
        self.gp.num_arms()
    }

    fn select(&mut self, _rng: &mut dyn rand::RngCore) -> usize {
        self.select_arm()
    }

    fn observe(&mut self, arm: usize, reward: f64) {
        GpUcb::observe(self, arm, reward);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple_beta(k: usize) -> BetaSchedule {
        BetaSchedule::Simple {
            num_arms: k,
            delta: 0.1,
        }
    }

    #[test]
    fn first_selection_prefers_highest_prior_ucb() {
        // Arm 1 has larger prior variance, so with equal means it wins.
        let gram = Matrix::from_diag(&[0.5, 2.0]);
        let ucb = GpUcb::cost_oblivious(ArmPrior::from_gram(gram), 0.01, simple_beta(2));
        assert_eq!(ucb.select_arm(), 1);
    }

    #[test]
    fn exploitation_wins_after_strong_observation() {
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(2, 0.05), 0.001, simple_beta(2));
        // Arm 0 yields a reward far above what exploration of arm 1 can
        // promise under a small prior variance.
        ucb.observe(0, 5.0);
        assert_eq!(ucb.select_arm(), 0);
    }

    #[test]
    fn unexplored_arm_is_eventually_tried() {
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(3, 1.0), 0.01, simple_beta(3));
        let mut seen = [false; 3];
        for _ in 0..10 {
            let a = ucb.select_arm();
            seen[a] = true;
            ucb.observe(a, 0.1);
        }
        assert!(seen.iter().all(|&s| s), "all arms explored: {seen:?}");
    }

    #[test]
    fn cost_aware_penalizes_expensive_arm() {
        // Identical arms except cost: the cheap one must be picked first.
        let prior = ArmPrior::independent(2, 1.0);
        let ucb = GpUcb::cost_aware(prior, 0.01, simple_beta(2), vec![100.0, 1.0]);
        assert_eq!(ucb.select_arm(), 1);
        assert!(ucb.is_cost_aware());
        assert_eq!(ucb.cost(0), 100.0);
    }

    #[test]
    fn expensive_arm_with_huge_potential_still_wins() {
        // Arm 0 is expensive but has a much larger prior variance (and so a
        // larger potential reward): worth a bet, as §3.2 argues.
        let gram = Matrix::from_diag(&[400.0, 0.01]);
        let ucb = GpUcb::cost_aware(
            ArmPrior::from_gram(gram),
            0.01,
            simple_beta(2),
            vec![4.0, 1.0],
        );
        assert_eq!(ucb.select_arm(), 0);
    }

    #[test]
    fn ucb_decomposes_into_mean_plus_width() {
        let mut ucb = GpUcb::cost_aware(
            ArmPrior::independent(2, 1.0),
            0.01,
            simple_beta(2),
            vec![2.0, 1.0],
        );
        ucb.observe(0, 0.5);
        for k in 0..2 {
            let expected = ucb.posterior().mean(k) + ucb.exploration_width(k);
            assert!((ucb.ucb(k) - expected).abs() < 1e-12);
            assert_eq!(ucb.ucbs()[k].to_bits(), ucb.ucb(k).to_bits());
        }
        assert_eq!(ucb.ucbs().len(), 2);
        let folded = ucb.ucbs().into_iter().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(ucb.max_ucb().to_bits(), folded.to_bits());
    }

    #[test]
    fn beta_advances_with_observations() {
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(2, 1.0), 0.01, simple_beta(2));
        let b1 = ucb.beta_next();
        ucb.observe(0, 0.1);
        let b2 = ucb.beta_next();
        assert!(b2 > b1);
        assert_eq!(ucb.steps(), 1);
        assert_eq!(ucb.beta_schedule(), simple_beta(2));
    }

    #[test]
    fn cost_oblivious_cost_is_unit() {
        let ucb = GpUcb::cost_oblivious(ArmPrior::independent(2, 1.0), 0.01, simple_beta(2));
        assert_eq!(ucb.cost(0), 1.0);
        assert!(!ucb.is_cost_aware());
    }

    #[test]
    #[should_panic(expected = "one cost per arm")]
    fn mismatched_costs_panic() {
        let _ = GpUcb::cost_aware(
            ArmPrior::independent(2, 1.0),
            0.01,
            simple_beta(2),
            vec![1.0],
        );
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_cost_panics() {
        let _ = GpUcb::cost_aware(
            ArmPrior::independent(2, 1.0),
            0.01,
            simple_beta(2),
            vec![1.0, 0.0],
        );
    }

    #[test]
    fn arm_policy_trait_roundtrip() {
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(2, 1.0), 0.01, simple_beta(2));
        let mut rng = StdRng::seed_from_u64(1);
        let a = ArmPolicy::select(&mut ucb, &mut rng);
        ArmPolicy::observe(&mut ucb, a, 0.3);
        assert_eq!(ArmPolicy::num_arms(&ucb), 2);
        assert_eq!(ucb.best_observed(), Some((a, 0.3)));
    }

    #[test]
    fn recorder_sees_arm_choices_and_posterior_updates() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let rec = Arc::new(InMemoryRecorder::new());
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(2, 1.0), 0.01, simple_beta(2))
            .with_recorder(RecorderHandle::new(rec.clone()), 7);
        let a = ucb.select_arm();
        ucb.observe(a, 0.4);
        let events = rec.events();
        // Each call wraps its event in a span: start, payload, end — twice.
        assert_eq!(events.len(), 6, "{events:?}");
        let (pick_span, arm_parent) = match (&events[0], &events[1]) {
            (
                Event::SpanStart { span, name, .. },
                Event::ArmChosen {
                    user: 7,
                    mean,
                    sigma,
                    parent,
                    ..
                },
            ) => {
                assert_eq!(name, "pick_arm");
                assert!(mean.is_finite() && *sigma >= 0.0);
                (*span, *parent)
            }
            other => panic!("unexpected leading events {other:?}"),
        };
        assert_eq!(arm_parent, pick_span, "ArmChosen nests under pick_arm");
        assert!(matches!(events[2], Event::SpanEnd { span, .. } if span == pick_span));
        match (&events[3], &events[4]) {
            (
                Event::SpanStart { span, name, .. },
                Event::PosteriorUpdated {
                    num_obs: 1,
                    cond,
                    parent,
                    ..
                },
            ) => {
                assert_eq!(name, "posterior_update");
                assert!(*cond >= 1.0);
                assert_eq!(parent, span);
            }
            other => panic!("unexpected observe events {other:?}"),
        }
        assert_eq!(rec.timing(Component::ArmSelect).count(), 1);
    }

    #[test]
    fn masked_arm_is_skipped_until_unmasked() {
        // Arm 0 dominates; masking it must divert selection to arm 1, and
        // unmasking must restore the original argmax.
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(2, 0.05), 0.001, simple_beta(2));
        ucb.observe(0, 5.0);
        assert_eq!(ucb.select_arm(), 0);
        ucb.set_arm_masked(0, true);
        assert!(ucb.is_masked(0));
        assert_eq!(ucb.masked_arms(), vec![0]);
        assert_eq!(ucb.select_arm(), 1);
        ucb.set_arm_masked(0, false);
        assert_eq!(ucb.select_arm(), 0);
        assert!(ucb.masked_arms().is_empty());
    }

    #[test]
    fn fully_masked_policy_ignores_the_mask() {
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(2, 0.05), 0.001, simple_beta(2));
        ucb.observe(0, 5.0);
        ucb.set_arm_masked(0, true);
        ucb.set_arm_masked(1, true);
        // Quarantining everything must not deadlock: selection falls back
        // to the unmasked argmax.
        assert_eq!(ucb.select_arm(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn masking_out_of_range_arm_panics() {
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(2, 1.0), 0.01, simple_beta(2));
        ucb.set_arm_masked(5, true);
    }

    #[test]
    fn explain_selection_agrees_with_select_arm() {
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(4, 1.0), 0.01, simple_beta(4));
        for _ in 0..6 {
            let expl = ucb.explain_selection(3);
            let a = ucb.select_arm();
            assert_eq!(expl.chosen, a, "explanation must mirror the argmax");
            assert_eq!(expl.top[0].arm, a, "entry 0 is the chosen arm");
            assert_eq!(expl.top.len(), 3);
            assert!(expl.margin >= 0.0, "winner beats the runner-up");
            let runner_up = &expl.top[1];
            let gap = expl.top[0].ucb - runner_up.ucb;
            assert!((gap - expl.margin).abs() < 1e-12);
            ucb.observe(a, 0.2);
        }
    }

    #[test]
    fn explain_selection_respects_the_quarantine_mask() {
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::independent(3, 0.05), 0.001, simple_beta(3));
        ucb.observe(0, 5.0);
        ucb.set_arm_masked(0, true);
        let expl = ucb.explain_selection(3);
        assert_eq!(expl.chosen, ucb.select_arm());
        assert_ne!(expl.chosen, 0, "masked dominator cannot win");
        // The masked arm still ranks (last) and keeps its real UCB.
        let masked_entry = expl.top.iter().find(|s| s.arm == 0).unwrap();
        assert!(masked_entry.masked);
        assert!(masked_entry.ucb.is_finite());
        assert_eq!(expl.top.last().unwrap().arm, 0);
        // Margin is computed on the masked scores, so it compares the two
        // unmasked arms, not the quarantined dominator.
        let s1 = ucb.ucb(expl.top[0].arm);
        let s2 = ucb.ucb(expl.top[1].arm);
        assert!((expl.margin - (s1 - s2)).abs() < 1e-12);
    }

    #[test]
    fn explain_selection_single_arm_has_nan_margin() {
        let ucb = GpUcb::cost_oblivious(ArmPrior::independent(1, 1.0), 0.01, simple_beta(1));
        let expl = ucb.explain_selection(8);
        assert_eq!(expl.chosen, 0);
        assert_eq!(expl.top.len(), 1);
        assert!(expl.margin.is_nan());
    }

    #[test]
    fn correlated_prior_focuses_search() {
        // With strong correlation, observing a bad arm should depress the
        // UCB of its correlated neighbour relative to an independent arm.
        let gram = Matrix::from_rows(&[&[1.0, 0.95, 0.0], &[0.95, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let mut ucb = GpUcb::cost_oblivious(ArmPrior::from_gram(gram), 0.01, simple_beta(3));
        ucb.observe(0, -2.0);
        assert!(ucb.ucb(1) < ucb.ucb(2));
        assert_eq!(ucb.select_arm(), 2);
    }

    fn twins_prior() -> ArmPrior {
        // Arms 0-1 strongly correlated; arms 2-3 independent.
        ArmPrior::from_gram(Matrix::from_rows(&[
            &[1.0, 0.95, 0.0, 0.0],
            &[0.95, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]))
    }

    /// Dispatches `n` runs before any reward returns, each selected on the
    /// policy hallucinated over the runs already dispatched.
    fn dispatch_batch(policy: &GpUcb, n: usize) -> Vec<usize> {
        let mut pending = Vec::new();
        for _ in 0..n {
            let arm = policy.hallucinate(&pending).select_arm();
            pending.push(arm);
        }
        pending
    }

    #[test]
    fn hallucinated_batches_are_diverse_under_correlation() {
        let ucb = GpUcb::cost_oblivious(twins_prior(), 1e-3, simple_beta(4));
        let batch = dispatch_batch(&ucb, 3);
        // Hallucination must prevent picking both of the correlated twins
        // before the independent arms.
        assert!(
            !(batch.contains(&0) && batch.contains(&1)),
            "correlated twins both picked in one batch: {batch:?}"
        );
    }

    #[test]
    fn explain_selection_agrees_with_select_arm_across_a_batch() {
        let ucb = GpUcb::cost_oblivious(twins_prior(), 1e-3, simple_beta(4));
        let mut pending = Vec::new();
        for _ in 0..4 {
            let batch = ucb.hallucinate(&pending);
            let expl = batch.explain_selection(2);
            let a = batch.select_arm();
            assert_eq!(expl.chosen, a, "explanation must mirror the batch argmax");
            assert_eq!(expl.top[0].arm, a);
            assert_eq!(expl.top.len(), 2);
            assert!(expl.margin >= 0.0);
            assert!(!expl.top[0].masked);
            pending.push(a);
        }
    }

    #[test]
    fn plain_repetition_is_not_diverse() {
        // Without hallucination the top-UCB arm simply repeats; one fake on
        // it moves the argmax.
        let ucb = GpUcb::cost_oblivious(twins_prior(), 1e-3, simple_beta(4));
        let a = ucb.select_arm();
        assert_eq!(ucb.select_arm(), a);
        assert_ne!(ucb.hallucinate(&[a]).select_arm(), a);
    }

    #[test]
    fn hallucination_shrinks_variance_but_not_mean() {
        let ucb = GpUcb::cost_oblivious(ArmPrior::independent(4, 1.0), 1e-3, simple_beta(4));
        let a = ucb.select_arm();
        let batch = ucb.hallucinate(&[a]);
        assert!((batch.posterior().mean(a) - ucb.posterior().mean(a)).abs() < 1e-9);
        assert!(batch.posterior().var(a) < ucb.posterior().var(a));
        assert_eq!(batch.steps(), ucb.steps() + 1, "one step per fake");
    }

    #[test]
    fn costs_bias_the_batch() {
        let ucb = GpUcb::cost_aware(
            ArmPrior::independent(2, 1.0),
            1e-3,
            simple_beta(4),
            vec![100.0, 1.0],
        );
        // The cheap arm first; the expensive one once the cheap one is
        // covered.
        assert_eq!(dispatch_batch(&ucb, 2), vec![1, 0]);
    }

    #[test]
    fn hallucinated_arm_choice_carries_the_batch_posterior_and_beta() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let rec = Arc::new(InMemoryRecorder::new());
        // Arm 0's prior mean dominates every exploration bonus, so it is
        // chosen again while two runs of it are already pending.
        let prior = ArmPrior::independent(3, 1.0).with_mean(vec![5.0, 0.0, 0.0]);
        let mut ucb = GpUcb::cost_oblivious(prior, 1e-3, simple_beta(4))
            .with_recorder(RecorderHandle::new(rec.clone()), 5);
        ucb.observe(2, 0.3);
        let before = rec.events().len();
        let batch = ucb.hallucinate(&[0, 0]);
        assert_eq!(rec.events().len(), before, "fakes emit nothing");
        let a = batch.select_arm();
        let events = rec.events();
        assert_eq!(events.len(), before + 3, "{events:?}");
        match &events[before + 1] {
            Event::ArmChosen {
                user: 5,
                arm,
                beta,
                mean,
                sigma,
                ..
            } => {
                assert_eq!((*arm, a), (0, 0));
                assert_eq!(beta.to_bits(), simple_beta(4).at(1 + 2 + 1).to_bits());
                assert_eq!(mean.to_bits(), batch.posterior().mean(a).to_bits());
                assert_eq!(sigma.to_bits(), batch.posterior().std(a).to_bits());
                assert!(*sigma < ucb.posterior().std(a), "σ is the hallucinated one");
            }
            other => panic!("expected ArmChosen, got {other:?}"),
        }
    }

    #[test]
    fn empty_hallucination_is_the_policy_and_leaves_it_untouched() {
        let mut ucb = GpUcb::cost_aware(
            twins_prior(),
            1e-3,
            simple_beta(4),
            vec![1.0, 2.0, 3.0, 4.0],
        );
        ucb.observe(1, 0.4);
        let snapshot = |p: &GpUcb| -> Vec<u64> {
            let gp = p.posterior();
            gp.means()
                .iter()
                .chain(gp.vars())
                .map(|x| x.to_bits())
                .chain([p.steps() as u64, p.beta_next().to_bits()])
                .collect()
        };
        let original = snapshot(&ucb);
        assert_eq!(snapshot(&ucb.hallucinate(&[])), original);
        let _ = ucb.hallucinate(&[0, 3, 0]);
        assert_eq!(
            snapshot(&ucb),
            original,
            "hallucinating must not move the policy"
        );
        assert_eq!(ucb.hallucinate(&[]).select_arm(), ucb.select_arm());
    }
}
