//! The HYBRID strategy (§4.4) — ease.ml's default scheduler.

use crate::greedy::{fill_candidate_set, Greedy, PickRule};
use crate::picker::{nth_live, UserPicker};
use crate::tenant::Tenant;
use easeml_obs::{Event, RecorderHandle};

/// HYBRID: run [`Greedy`] until it enters the *freezing stage*, then switch
/// permanently to round robin.
///
/// §4.4: "When we notice that the candidate set remains unchanged and the
/// overall regret does not drop for s steps, we know that the algorithm has
/// entered the freezing stage." The overall regret drops exactly when some
/// tenant's best-so-far accuracy improves, so the detector tracks the
/// candidate set and the sum of best rewards; `s = 10` in the paper's
/// evaluation ([`Hybrid::ease_ml`]).
///
/// # Examples
///
/// ```
/// use easeml_sched::Hybrid;
///
/// let hybrid = Hybrid::ease_ml(); // max-UCB-gap rule, s = 10
/// assert!(!hybrid.has_switched());
/// assert_eq!(hybrid.frozen_rounds(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Hybrid {
    greedy: Greedy,
    /// Freeze threshold s.
    patience: usize,
    /// Consecutive rounds with an unchanged candidate set and no
    /// improvement.
    frozen_rounds: usize,
    /// Candidate set observed at the previous round.
    prev_candidates: Vec<usize>,
    /// Buffer the current round's candidate set is built in before it
    /// swaps with `prev_candidates`.
    candidates: Vec<usize>,
    /// Sum of best rewards at the previous round (improvement detector).
    prev_best_sum: f64,
    /// Whether the permanent switch to round robin has happened.
    switched: bool,
    /// Round-robin cursor used after the switch.
    rr_cursor: usize,
    recorder: RecorderHandle,
}

impl Hybrid {
    /// Creates a HYBRID picker with the given greedy rule and freeze
    /// threshold `patience` (the paper's `s`).
    ///
    /// # Panics
    ///
    /// Panics if `patience == 0`.
    pub fn new(rule: PickRule, patience: usize) -> Self {
        assert!(patience > 0, "freeze threshold must be positive");
        Hybrid {
            greedy: Greedy::new(rule),
            patience,
            frozen_rounds: 0,
            prev_candidates: Vec::new(),
            candidates: Vec::new(),
            prev_best_sum: f64::NEG_INFINITY,
            switched: false,
            rr_cursor: 0,
            recorder: RecorderHandle::noop(),
        }
    }

    /// The paper's configuration: max-UCB-gap rule, `s = 10`.
    pub fn ease_ml() -> Self {
        Self::new(PickRule::MaxUcbGap, 10)
    }

    /// Whether the scheduler has switched to its round-robin phase.
    #[inline]
    pub fn has_switched(&self) -> bool {
        self.switched
    }

    /// Number of consecutive frozen rounds observed so far.
    #[inline]
    pub fn frozen_rounds(&self) -> usize {
        self.frozen_rounds
    }

    fn best_sum(tenants: &[Tenant]) -> f64 {
        tenants.iter().filter_map(Tenant::best_reward).sum()
    }

    /// Snapshots the freeze detector and round-robin cursor for a
    /// checkpoint. The greedy rule travels along so the restored picker is
    /// configured identically.
    pub fn export_state(&self) -> HybridState {
        HybridState {
            rule: self.greedy.rule(),
            patience: self.patience,
            frozen_rounds: self.frozen_rounds,
            prev_candidates: self.prev_candidates.clone(),
            prev_best_sum: self.prev_best_sum,
            switched: self.switched,
            rr_cursor: self.rr_cursor,
        }
    }

    /// Rebuilds a picker from a checkpointed [`HybridState`]. The recorder
    /// is not part of the state; attach one with
    /// [`UserPicker::set_recorder`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `state.patience == 0`.
    pub fn from_state(state: HybridState) -> Self {
        let mut h = Hybrid::new(state.rule, state.patience);
        h.frozen_rounds = state.frozen_rounds;
        h.prev_candidates = state.prev_candidates;
        h.prev_best_sum = state.prev_best_sum;
        h.switched = state.switched;
        h.rr_cursor = state.rr_cursor;
        h
    }
}

/// A plain-data snapshot of everything [`Hybrid`] needs to resume exactly
/// where it left off: the freeze detector's memory and the round-robin
/// cursor. Produced by [`Hybrid::export_state`], consumed by
/// [`Hybrid::from_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct HybridState {
    /// The greedy line-8 rule.
    pub rule: PickRule,
    /// Freeze threshold s.
    pub patience: usize,
    /// Consecutive frozen rounds observed so far.
    pub frozen_rounds: usize,
    /// Candidate set at the previous round.
    pub prev_candidates: Vec<usize>,
    /// Best-reward sum at the previous round (`f64::NEG_INFINITY` before
    /// the first observation).
    pub prev_best_sum: f64,
    /// Whether the permanent round-robin switch has happened.
    pub switched: bool,
    /// Round-robin cursor.
    pub rr_cursor: usize,
}

impl UserPicker for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn as_hybrid(&self) -> Option<&Hybrid> {
        Some(self)
    }

    /// Arms the inner greedy picker's mutation, which only affects the
    /// pre-fallback phase.
    fn set_test_mutation(&mut self, at_step: Option<usize>) {
        self.greedy.set_test_mutation(at_step);
    }

    fn needs_warmup(&self) -> bool {
        true
    }

    fn pick(&mut self, tenants: &[Tenant], step: usize, rng: &mut dyn rand::RngCore) -> usize {
        let choice = if self.switched {
            let c = nth_live(tenants, self.rr_cursor);
            // `from_state` takes any cursor, `usize::MAX` included; the
            // pick only reads it modulo the live count.
            self.rr_cursor = self.rr_cursor.wrapping_add(1);
            c
        } else {
            // The inner greedy keeps its default (noop) recorder, so the
            // only SchedulerDecision per round is the one below, labelled
            // with the canonical "hybrid" rule name.
            self.greedy.pick(tenants, step, rng)
        };
        self.recorder.emit(|| Event::SchedulerDecision {
            round: step as u64,
            user: choice,
            rule: self.name().to_string(),
            scores: if self.switched {
                Vec::new()
            } else {
                UserPicker::decision_scores(&self.greedy, tenants)
            },
            parent: easeml_obs::current_span(),
        });
        choice
    }

    fn after_observe(&mut self, tenants: &[Tenant], _served: usize) {
        if self.switched {
            return;
        }
        fill_candidate_set(tenants, &mut self.candidates);
        let best_sum = Self::best_sum(tenants);
        let improved = best_sum > self.prev_best_sum + 1e-12;
        let same_candidates = self.candidates == self.prev_candidates;
        if same_candidates && !improved {
            self.frozen_rounds += 1;
            if self.frozen_rounds >= self.patience {
                self.switched = true;
                self.recorder.emit(|| Event::HybridFallback {
                    reason: format!(
                        "candidate set {:?} unchanged and no regret improvement \
                         for {} rounds (s = {}); switching to round robin",
                        self.candidates, self.frozen_rounds, self.patience
                    ),
                    parent: easeml_obs::current_span(),
                });
            }
        } else {
            self.frozen_rounds = 0;
        }
        std::mem::swap(&mut self.prev_candidates, &mut self.candidates);
        self.prev_best_sum = self.prev_best_sum.max(best_sum);
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    fn decision_scores(&self, tenants: &[Tenant]) -> Vec<f64> {
        if self.switched {
            Vec::new()
        } else {
            UserPicker::decision_scores(&self.greedy, tenants)
        }
    }

    fn last_candidates(&self) -> &[usize] {
        if self.switched {
            &[]
        } else {
            self.greedy.last_candidates()
        }
    }

    fn pick_path(&self) -> String {
        if self.switched {
            "hybrid:rr-after-switch".to_string()
        } else {
            format!("hybrid:{}", self.greedy.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_bandit::{BetaSchedule, GpUcb};
    use easeml_gp::ArmPrior;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tenants(n: usize, k: usize) -> Vec<Tenant> {
        (0..n)
            .map(|i| {
                let beta = BetaSchedule::Simple {
                    num_arms: k,
                    delta: 0.1,
                };
                Tenant::new(
                    i,
                    GpUcb::cost_oblivious(ArmPrior::independent(k, 1.0), 0.01, beta),
                )
            })
            .collect()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    #[test]
    fn starts_in_greedy_mode() {
        let h = Hybrid::ease_ml();
        assert!(!h.has_switched());
        assert_eq!(h.frozen_rounds(), 0);
        assert_eq!(h.name(), "hybrid");
        assert!(h.needs_warmup());
    }

    #[test]
    fn freeze_detection_triggers_the_switch() {
        let mut ts = tenants(2, 1);
        // Converge both tenants completely: single arm, constant reward.
        for _ in 0..5 {
            ts[0].observe(0, 0.9);
            ts[1].observe(0, 0.8);
        }
        let mut h = Hybrid::new(PickRule::MaxUcbGap, 3);
        let mut r = rng();
        // Simulate frozen rounds: no improvement, stable candidate set.
        for _ in 0..5 {
            let u = h.pick(&ts, 0, &mut r);
            let below_best = ts[u].best_reward().unwrap() - 0.2; // no improvement
            ts[u].observe(0, below_best);
            h.after_observe(&ts, u);
        }
        assert!(h.has_switched(), "freeze detector must fire");
    }

    #[test]
    fn improvement_resets_the_freeze_counter() {
        let mut ts = tenants(2, 1);
        ts[0].observe(0, 0.5);
        ts[1].observe(0, 0.5);
        let mut h = Hybrid::new(PickRule::MaxUcbGap, 3);
        let mut r = rng();
        let mut reward = 0.5;
        for _ in 0..10 {
            let u = h.pick(&ts, 0, &mut r);
            reward += 0.01; // every round improves someone's best
            ts[u].observe(0, reward);
            h.after_observe(&ts, u);
            assert_eq!(h.frozen_rounds(), 0);
        }
        assert!(!h.has_switched());
    }

    #[test]
    fn fallback_event_marks_the_switch() {
        use easeml_obs::{InMemoryRecorder, RecorderHandle};
        use std::sync::Arc;
        let mut ts = tenants(2, 1);
        for _ in 0..5 {
            ts[0].observe(0, 0.9);
            ts[1].observe(0, 0.8);
        }
        let rec = Arc::new(InMemoryRecorder::new());
        let mut h = Hybrid::new(PickRule::MaxUcbGap, 3);
        h.set_recorder(RecorderHandle::new(rec.clone()));
        let mut r = rng();
        for step in 0..5 {
            let u = h.pick(&ts, step, &mut r);
            let below_best = ts[u].best_reward().unwrap() - 0.2;
            ts[u].observe(0, below_best);
            h.after_observe(&ts, u);
        }
        assert!(h.has_switched());
        let fallbacks: Vec<_> = rec
            .events()
            .iter()
            .filter(|e| matches!(e, Event::HybridFallback { .. }))
            .cloned()
            .collect();
        assert_eq!(fallbacks.len(), 1, "exactly one switch: {fallbacks:?}");
        // Every pick produced a decision labelled with the canonical name.
        let decisions = rec.event_counts();
        assert_eq!(decisions.get("SchedulerDecision"), Some(&5));
        assert!(rec.events().iter().all(|e| match e {
            Event::SchedulerDecision { rule, .. } => rule == "hybrid",
            _ => true,
        }));
    }

    #[test]
    fn switched_mode_is_round_robin_and_permanent() {
        let ts = tenants(3, 1);
        let mut h = Hybrid::new(PickRule::MaxUcbGap, 1);
        h.switched = true;
        let mut r = rng();
        let picks: Vec<usize> = (0..6).map(|s| h.pick(&ts, s, &mut r)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // after_observe is a no-op once switched.
        h.after_observe(&ts, 0);
        assert!(h.has_switched());
    }

    #[test]
    fn switched_mode_cycles_only_the_live_tenants() {
        let mut ts = tenants(3, 1);
        ts[1].set_active(false);
        let mut h = Hybrid::new(PickRule::MaxUcbGap, 1);
        h.switched = true;
        let mut r = rng();
        let picks: Vec<usize> = (0..6).map(|s| h.pick(&ts, s, &mut r)).collect();
        assert_eq!(picks, vec![0, 2, 0, 2, 0, 2]);
    }

    #[test]
    fn pick_path_tracks_the_phase() {
        let ts = tenants(2, 1);
        let mut h = Hybrid::ease_ml();
        assert_eq!(h.pick_path(), "hybrid:greedy(max-gap)");
        assert_eq!(UserPicker::last_candidates(&h), &[] as &[usize]);
        h.switched = true;
        assert_eq!(h.pick_path(), "hybrid:rr-after-switch");
        assert!(UserPicker::decision_scores(&h, &ts).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_patience_panics() {
        let _ = Hybrid::new(PickRule::MaxUcbGap, 0);
    }

    #[test]
    fn state_round_trip_resumes_the_same_trajectory() {
        // Drive one picker halfway, export, rebuild, and check both copies
        // make identical picks from there on.
        let mut ts = tenants(3, 1);
        for t in ts.iter_mut() {
            t.observe(0, 0.5);
        }
        let mut h = Hybrid::new(PickRule::MaxUcbGap, 2);
        let mut r = rng();
        for step in 0..4 {
            let u = h.pick(&ts, step, &mut r);
            let below = ts[u].best_reward().unwrap() - 0.1;
            ts[u].observe(0, below);
            h.after_observe(&ts, u);
        }
        let state = h.export_state();
        let mut resumed = Hybrid::from_state(state.clone());
        assert_eq!(resumed.export_state(), state);
        assert_eq!(resumed.has_switched(), h.has_switched());
        let mut r1 = rng();
        let mut r2 = rng();
        for step in 4..12 {
            assert_eq!(
                h.pick(&ts, step, &mut r1),
                resumed.pick(&ts, step, &mut r2),
                "divergence at step {step}"
            );
            h.after_observe(&ts, step % 3);
            resumed.after_observe(&ts, step % 3);
        }
    }
}
