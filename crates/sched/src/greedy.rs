//! The GREEDY user picker of Algorithm 2.

use crate::picker::{live_count, live_indices, nth_live, UserPicker};
use crate::tenant::Tenant;
use easeml_linalg::vec_ops;
use easeml_obs::{Event, RecorderHandle};

/// How to break ties among the candidate set `V_t` (Algorithm 2 line 8).
///
/// The paper notes the regret bound holds for *any* rule and reports that
/// ease.ml uses the maximum UCB-gap rule in production; max-σ̃ and random
/// are provided for the line-8 ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickRule {
    /// Pick the candidate with the maximum gap between its largest upper
    /// confidence bound and its best accuracy so far (ease.ml's rule).
    MaxUcbGap,
    /// Pick the candidate with the maximum empirical variance σ̃.
    MaxSigmaTilde,
    /// Pick uniformly at random among the candidates.
    Random,
}

impl PickRule {
    /// A stable string name for the rule, used by checkpoint files.
    pub fn name(self) -> &'static str {
        match self {
            PickRule::MaxUcbGap => "max-gap",
            PickRule::MaxSigmaTilde => "max-sigma",
            PickRule::Random => "random",
        }
    }

    /// Parses a rule from its [`PickRule::name`] form.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "max-gap" => Some(PickRule::MaxUcbGap),
            "max-sigma" => Some(PickRule::MaxSigmaTilde),
            "random" => Some(PickRule::Random),
            _ => None,
        }
    }
}

/// GREEDY (Algorithm 2): serve a tenant whose estimated potential for
/// improvement σ̃ is at least the average over all tenants.
///
/// The candidate set is
///
/// ```text
/// V_t = { i : σ̃_i ≥ (1/n) Σ_j σ̃_j }
/// ```
///
/// (never empty, since the maximum is always ≥ the mean), and one candidate
/// is selected by the configured [`PickRule`].
///
/// # Examples
///
/// ```
/// use easeml_bandit::{BetaSchedule, GpUcb};
/// use easeml_gp::ArmPrior;
/// use easeml_sched::{Greedy, Tenant, UserPicker};
/// use rand::SeedableRng;
///
/// let beta = BetaSchedule::Simple { num_arms: 2, delta: 0.1 };
/// let mut tenants: Vec<Tenant> = (0..2)
///     .map(|i| Tenant::new(i, GpUcb::cost_oblivious(
///         ArmPrior::independent(2, 1.0), 1e-3, beta)))
///     .collect();
/// // Tenant 0 is thoroughly explored; tenant 1 has barely started.
/// for _ in 0..10 {
///     tenants[0].observe(0, 0.9);
///     tenants[0].observe(1, 0.8);
/// }
/// tenants[1].observe(0, 0.3);
///
/// let mut greedy = Greedy::ease_ml();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert_eq!(greedy.pick(&tenants, 0, &mut rng), 1); // the open tenant
/// ```
#[derive(Debug, Clone)]
pub struct Greedy {
    rule: PickRule,
    /// Candidate set of the most recent pick (exposed for HYBRID's freeze
    /// detector and for diagnostics); the next pick refills the buffer.
    last_candidates: Vec<usize>,
    /// Test-only seeded mutation: from this step on, the final choice is
    /// rotated by one tenant. `None` in every real configuration; armed
    /// through [`UserPicker::set_test_mutation`] by the `replay-diff`
    /// harness to prove it pinpoints the exact first divergent round.
    mutate_at: Option<usize>,
    recorder: RecorderHandle,
}

impl Greedy {
    /// Creates a GREEDY picker with the given line-8 rule.
    pub fn new(rule: PickRule) -> Self {
        Greedy {
            rule,
            last_candidates: Vec::new(),
            mutate_at: None,
            recorder: RecorderHandle::noop(),
        }
    }

    /// Ease.ml's production configuration: the maximum UCB-gap rule.
    pub fn ease_ml() -> Self {
        Self::new(PickRule::MaxUcbGap)
    }

    /// The rule used for line 8.
    pub fn rule(&self) -> PickRule {
        self.rule
    }

    /// The candidate set computed at the most recent pick.
    pub fn last_candidates(&self) -> &[usize] {
        &self.last_candidates
    }

    /// Computes the candidate set `V_t` from the live tenants' σ̃ values.
    ///
    /// Retired tenants are excluded from both the mean and the set, so a
    /// churned-out tenant can never re-enter `V_t`; indices in the result
    /// remain global tenant ids.
    pub fn candidate_set(tenants: &[Tenant]) -> Vec<usize> {
        let mut v = Vec::new();
        fill_candidate_set(tenants, &mut v);
        v
    }

    /// The per-tenant score the configured rule ranks on — what a recorded
    /// `SchedulerDecision` carries in its `scores` column and the witness
    /// layer folds into top-K `UserScored` events.
    fn scores_for_rule(&self, tenants: &[Tenant]) -> Vec<f64> {
        match self.rule {
            PickRule::MaxUcbGap => tenants.iter().map(Tenant::ucb_gap).collect(),
            PickRule::MaxSigmaTilde | PickRule::Random => {
                tenants.iter().map(Tenant::sigma_tilde).collect()
            }
        }
    }

    fn pick_from_candidates(
        &self,
        tenants: &[Tenant],
        candidates: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> usize {
        let score: fn(&Tenant) -> f64 = match self.rule {
            PickRule::MaxUcbGap => Tenant::ucb_gap,
            PickRule::MaxSigmaTilde => Tenant::sigma_tilde,
            PickRule::Random => {
                use rand::Rng;
                return candidates[rng.gen_range(0..candidates.len())];
            }
        };
        vec_ops::argmax_by(candidates.iter().map(|&i| (i, score(&tenants[i]))))
            .expect("non-empty candidates")
    }
}

/// Writes `V_t` into `out` (cleared first) without allocating once `out`
/// has held a full tenant list.
///
/// The threshold is the mean of the live σ̃, summed left to right in id
/// order exactly as `vec_ops::mean` sums: a running or tree-shaped sum
/// would round differently and move tenants across the threshold.
pub(crate) fn fill_candidate_set(tenants: &[Tenant], out: &mut Vec<usize>) {
    out.clear();
    out.reserve(tenants.len());
    let sum: f64 = live_indices(tenants)
        .map(|i| tenants[i].sigma_tilde())
        .sum();
    let mean = sum / live_count(tenants) as f64;
    out.extend(live_indices(tenants).filter(|&i| tenants[i].sigma_tilde() >= mean));
    if out.is_empty() {
        // Mathematically max σ̃ ≥ mean, but when all σ̃ are (nearly) equal,
        // floating-point rounding of the mean can edge above every element;
        // fall back to the argmax.
        let best = vec_ops::argmax_by(live_indices(tenants).map(|i| (i, tenants[i].sigma_tilde())))
            .expect("at least one tenant");
        out.push(best);
    }
}

impl UserPicker for Greedy {
    fn name(&self) -> &'static str {
        match self.rule {
            PickRule::MaxUcbGap => "greedy(max-gap)",
            PickRule::MaxSigmaTilde => "greedy(max-sigma)",
            PickRule::Random => "greedy(random)",
        }
    }

    fn needs_warmup(&self) -> bool {
        true
    }

    fn set_test_mutation(&mut self, at_step: Option<usize>) {
        self.mutate_at = at_step;
    }

    fn pick(&mut self, tenants: &[Tenant], step: usize, rng: &mut dyn rand::RngCore) -> usize {
        let mut candidates = std::mem::take(&mut self.last_candidates);
        fill_candidate_set(tenants, &mut candidates);
        let mut choice = self.pick_from_candidates(tenants, &candidates, rng);
        if let Some(at) = self.mutate_at {
            // Test-only seeded divergence for the replay-diff harness. The
            // rotation walks the *live* tenant list (identical to a plain
            // `+1 mod n` rotation when nobody has retired).
            if step >= at {
                let rank = live_indices(tenants).take_while(|&i| i != choice).count();
                choice = nth_live(tenants, rank + 1);
            }
        }
        self.last_candidates = candidates;
        self.recorder.emit(|| Event::SchedulerDecision {
            round: step as u64,
            user: choice,
            rule: self.name().to_string(),
            scores: self.scores_for_rule(tenants),
            parent: easeml_obs::current_span(),
        });
        choice
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    fn decision_scores(&self, tenants: &[Tenant]) -> Vec<f64> {
        self.scores_for_rule(tenants)
    }

    fn last_candidates(&self) -> &[usize] {
        &self.last_candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_bandit::{BetaSchedule, GpUcb};
    use easeml_gp::ArmPrior;
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

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    /// A tenant whose exploration is essentially complete: tight posterior,
    /// σ̃ near zero.
    fn settled_tenant(id: usize) -> Tenant {
        let mut t = tenant(id, 2);
        for _ in 0..30 {
            t.observe(0, 0.9);
            t.observe(1, 0.85);
        }
        t
    }

    /// A tenant with one observation and plenty of remaining uncertainty.
    fn open_tenant(id: usize) -> Tenant {
        let mut t = tenant(id, 2);
        t.observe(0, 0.3);
        t
    }

    #[test]
    fn candidate_set_contains_the_most_uncertain_tenant() {
        let tenants = vec![settled_tenant(0), open_tenant(1), settled_tenant(2)];
        let v = Greedy::candidate_set(&tenants);
        assert!(v.contains(&1), "open tenant must be a candidate: {v:?}");
        assert!(!v.is_empty());
    }

    #[test]
    fn greedy_serves_the_user_with_more_potential() {
        let tenants = vec![settled_tenant(0), open_tenant(1)];
        for rule in [PickRule::MaxUcbGap, PickRule::MaxSigmaTilde] {
            let mut g = Greedy::new(rule);
            let mut r = rng();
            assert_eq!(
                g.pick(&tenants, 0, &mut r),
                1,
                "rule {rule:?} must pick the open tenant"
            );
            assert_eq!(g.last_candidates(), &[1]);
        }
    }

    #[test]
    fn random_rule_stays_within_candidates() {
        let tenants = vec![settled_tenant(0), open_tenant(1), open_tenant(2)];
        let mut g = Greedy::new(PickRule::Random);
        let mut r = rng();
        for _ in 0..50 {
            let p = g.pick(&tenants, 0, &mut r);
            assert!(g.last_candidates().contains(&p));
        }
    }

    #[test]
    fn candidate_set_is_never_empty_even_when_all_equal() {
        let tenants = vec![tenant(0, 2), tenant(1, 2)];
        let v = Greedy::candidate_set(&tenants);
        assert_eq!(v, vec![0, 1], "equal σ̃ ⇒ everyone is a candidate");
    }

    #[test]
    fn pick_rule_names_round_trip() {
        for rule in [
            PickRule::MaxUcbGap,
            PickRule::MaxSigmaTilde,
            PickRule::Random,
        ] {
            assert_eq!(PickRule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(PickRule::from_name("nope"), None);
    }

    #[test]
    fn names_and_warmup() {
        assert_eq!(Greedy::ease_ml().name(), "greedy(max-gap)");
        assert_eq!(Greedy::ease_ml().rule(), PickRule::MaxUcbGap);
        assert!(Greedy::ease_ml().needs_warmup());
        assert_eq!(Greedy::new(PickRule::Random).name(), "greedy(random)");
    }

    #[test]
    fn witness_accessors_expose_scores_candidates_and_path() {
        let tenants = vec![settled_tenant(0), open_tenant(1)];
        let mut g = Greedy::ease_ml();
        let mut r = rng();
        let choice = g.pick(&tenants, 0, &mut r);
        let scores = UserPicker::decision_scores(&g, &tenants);
        assert_eq!(scores.len(), 2, "one score per tenant");
        assert!(
            scores[choice] >= scores[1 - choice],
            "the winner carries the top score: {scores:?}"
        );
        assert_eq!(UserPicker::last_candidates(&g), &[1]);
        assert_eq!(g.pick_path(), "greedy(max-gap)");
    }

    #[test]
    fn test_mutation_rotates_the_choice_from_the_armed_step() {
        let tenants = vec![settled_tenant(0), open_tenant(1)];
        let mut g = Greedy::ease_ml();
        let mut r = rng();
        g.set_test_mutation(Some(3));
        assert_eq!(g.pick(&tenants, 2, &mut r), 1, "before the armed step");
        assert_eq!(g.pick(&tenants, 3, &mut r), 0, "rotated from the step on");
        assert_eq!(g.pick(&tenants, 9, &mut r), 0, "and for every later step");
        g.set_test_mutation(None);
        assert_eq!(g.pick(&tenants, 9, &mut r), 1, "disarmed again");
    }

    #[test]
    fn retired_tenants_never_enter_the_candidate_set() {
        let mut tenants = vec![settled_tenant(0), open_tenant(1), open_tenant(2)];
        tenants[1].set_active(false);
        let v = Greedy::candidate_set(&tenants);
        assert!(!v.contains(&1), "retiree must stay out of V_t: {v:?}");
        assert!(v.contains(&2), "the live open tenant is a candidate");
        let mut g = Greedy::ease_ml();
        let mut r = rng();
        for step in 0..20 {
            let p = g.pick(&tenants, step, &mut r);
            assert_ne!(p, 1, "greedy must never serve a retiree");
            assert!(!g.last_candidates().contains(&1));
        }
        // Even the most uncertain tenant is invisible once retired.
        tenants[1].set_active(true);
        tenants[2].set_active(false);
        let v = Greedy::candidate_set(&tenants);
        assert!(!v.contains(&2));
    }

    #[test]
    fn max_gap_prefers_low_best_with_high_ucb() {
        // Two open tenants: one already has a great model (best 0.95), the
        // other is stuck at 0.2 with the same uncertainty. The gap rule
        // must prefer the stuck one.
        let mut lucky = tenant(0, 2);
        lucky.observe(0, 0.95);
        let mut stuck = tenant(1, 2);
        stuck.observe(0, 0.2);
        let tenants = vec![lucky, stuck];
        let mut g = Greedy::ease_ml();
        let mut r = rng();
        assert_eq!(g.pick(&tenants, 0, &mut r), 1);
    }
}
