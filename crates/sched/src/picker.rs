//! The user-picking interface and the workload-agnostic pickers.

use crate::hybrid::Hybrid;
use crate::roster::Roster;
use easeml_obs::{Event, RecorderHandle};

/// The user-picking phase of the multi-tenant scheduler: given the current
/// tenant states, decide who is served in global round `step` (0-based).
/// Every picker reads the tenants through a [`Roster`]: retired tenants
/// are invisible to it, and when every tenant has retired it draws from
/// all of them, which keeps `pick` total.
///
/// Pickers that estimate per-tenant potential (GREEDY, HYBRID) require every
/// tenant to have been served once before their estimates mean anything;
/// they signal this with [`UserPicker::needs_warmup`], and the simulation
/// driver serves tenants `0, 1, …, n−1` in order first (Algorithm 2
/// lines 1–4).
pub trait UserPicker {
    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Whether the driver must run one warm-up serve per tenant first.
    fn needs_warmup(&self) -> bool {
        false
    }

    /// Chooses the tenant to serve.
    ///
    /// `step` counts *post-warm-up* rounds from 0. Implementations must
    /// return an index `< roster.len()`.
    fn pick(&mut self, roster: &Roster, step: usize, rng: &mut dyn rand::RngCore) -> usize;

    /// Hook invoked after the served tenant has observed its reward —
    /// HYBRID uses it for freeze detection.
    fn after_observe(&mut self, _roster: &Roster, _served: usize) {}

    /// Attaches a recorder through which the picker emits one
    /// `SchedulerDecision` per pick (plus any strategy-specific events).
    /// The default keeps the picker uninstrumented.
    fn set_recorder(&mut self, _recorder: RecorderHandle) {}

    /// Per-tenant scores the most recent [`UserPicker::pick`] ranked users
    /// on, indexed by tenant — the witness-capture layer turns these into
    /// bounded top-K `UserScored` events. Empty for strategies that do not
    /// score (FCFS, round robin, random, post-fallback HYBRID).
    fn decision_scores(&self, _roster: &Roster) -> Vec<f64> {
        Vec::new()
    }

    /// Candidate set `V_t` of the most recent pick; empty for strategies
    /// that are not candidate-driven.
    fn last_candidates(&self) -> &[usize] {
        &[]
    }

    /// Label of the decision path the most recent pick took — finer than
    /// [`UserPicker::name`] for strategies with phases (HYBRID reports
    /// `"hybrid:greedy(max-gap)"` before its fallback and
    /// `"hybrid:rr-after-switch"` after).
    fn pick_path(&self) -> String {
        self.name().to_string()
    }

    /// The HYBRID picker behind this trait object, whose freeze detector a
    /// checkpoint stores; `None` for every other strategy.
    fn as_hybrid(&self) -> Option<&Hybrid> {
        None
    }

    /// Arms (or with `None` disarms) a test-only pick mutation: from step
    /// `at_step` on, the chosen tenant is rotated by one. It exists solely
    /// so the differential-replay harness can seed a known divergence, and
    /// only the GREEDY pickers (HYBRID's included) have one; the default
    /// does nothing.
    fn set_test_mutation(&mut self, _at_step: Option<usize>) {}
}

/// First-come-first-served: serve the lowest-indexed tenant whose
/// exploration is not yet complete (§4.1's strawman, with "found an optimal
/// algorithm" operationalized as "trained every candidate model"). Once all
/// tenants are exhausted, falls back to round robin.
#[derive(Debug, Clone, Default)]
pub struct Fcfs {
    recorder: RecorderHandle,
}

impl UserPicker for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn pick(&mut self, roster: &Roster, step: usize, _rng: &mut dyn rand::RngCore) -> usize {
        let user = roster
            .universe()
            .find(|&i| !roster[i].exhausted())
            .unwrap_or_else(|| roster.nth_live(step));
        self.recorder.emit(|| Event::SchedulerDecision {
            round: step as u64,
            user,
            rule: self.name().to_string(),
            scores: Vec::new(),
            parent: easeml_obs::current_span(),
        });
        user
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }
}

/// Round robin: serve user `t mod n` (§4.2, Theorem 2).
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    recorder: RecorderHandle,
}

impl UserPicker for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn pick(&mut self, roster: &Roster, step: usize, _rng: &mut dyn rand::RngCore) -> usize {
        let user = roster.nth_live(step);
        self.recorder.emit(|| Event::SchedulerDecision {
            round: step as u64,
            user,
            rule: self.name().to_string(),
            scores: Vec::new(),
            parent: easeml_obs::current_span(),
        });
        user
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }
}

/// Uniformly random user choice — §5.3's RANDOM baseline ("round robin with
/// replacement").
#[derive(Debug, Clone, Default)]
pub struct RandomPicker {
    recorder: RecorderHandle,
}

impl UserPicker for RandomPicker {
    fn name(&self) -> &'static str {
        "random"
    }

    fn pick(&mut self, roster: &Roster, step: usize, rng: &mut dyn rand::RngCore) -> usize {
        use rand::Rng;
        let user = roster.nth_live(rng.gen_range(0..roster.universe_len()));
        self.recorder.emit(|| Event::SchedulerDecision {
            round: step as u64,
            user,
            rule: self.name().to_string(),
            scores: Vec::new(),
            parent: easeml_obs::current_span(),
        });
        user
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::Tenant;
    use easeml_bandit::{BetaSchedule, GpUcb};
    use easeml_gp::ArmPrior;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tenants(n: usize, k: usize) -> Roster {
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
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn round_robin_cycles() {
        let ts = tenants(3, 2);
        let mut p = RoundRobin::default();
        let mut r = rng();
        let picks: Vec<usize> = (0..7).map(|s| p.pick(&ts, s, &mut r)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(p.name(), "round-robin");
        assert!(!p.needs_warmup());
    }

    #[test]
    fn fcfs_sticks_with_the_first_unfinished_user() {
        let mut ts = tenants(2, 2);
        let mut p = Fcfs::default();
        let mut r = rng();
        assert_eq!(p.pick(&ts, 0, &mut r), 0);
        ts.observe(0, 0, 0.5);
        // User 0 still has an untried arm.
        assert_eq!(p.pick(&ts, 1, &mut r), 0);
        ts.observe(0, 1, 0.6);
        // User 0 exhausted: move to user 1.
        assert_eq!(p.pick(&ts, 2, &mut r), 1);
        ts.observe(1, 0, 0.5);
        ts.observe(1, 1, 0.5);
        // Everyone exhausted: fall back to round robin.
        assert_eq!(p.pick(&ts, 4, &mut r), 0);
        assert_eq!(p.pick(&ts, 5, &mut r), 1);
    }

    #[test]
    fn pickers_emit_one_decision_per_pick() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let ts = tenants(3, 2);
        let rec = Arc::new(InMemoryRecorder::new());
        let mut p = RoundRobin::default();
        p.set_recorder(RecorderHandle::new(rec.clone()));
        let mut r = rng();
        for s in 0..4 {
            let user = p.pick(&ts, s, &mut r);
            match &rec.events()[s] {
                Event::SchedulerDecision {
                    round,
                    user: u,
                    rule,
                    scores,
                    ..
                } => {
                    assert_eq!(*round, s as u64);
                    assert_eq!(*u, user);
                    assert_eq!(rule, "round-robin");
                    assert!(scores.is_empty());
                }
                other => panic!("expected a SchedulerDecision, got {other:?}"),
            }
        }
    }

    #[test]
    fn retired_tenants_are_invisible_to_every_picker() {
        let mut ts = tenants(4, 2);
        ts.set_active(1, false);
        let mut r = rng();
        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..6).map(|s| rr.pick(&ts, s, &mut r)).collect();
        assert_eq!(picks, vec![0, 2, 3, 0, 2, 3], "rr cycles the live set");
        let mut fcfs = Fcfs::default();
        for id in 0..ts.len() {
            ts.observe(id, 0, 0.5);
            ts.observe(id, 1, 0.5);
        }
        for s in 0..8 {
            assert_ne!(fcfs.pick(&ts, s, &mut r), 1, "fcfs skips the retiree");
        }
        let mut random = RandomPicker::default();
        for s in 0..100 {
            assert_ne!(random.pick(&ts, s, &mut r), 1, "random skips the retiree");
        }
    }

    #[test]
    fn all_active_behavior_is_unchanged() {
        // With no retirements the active set is `0..n`, so the open-loop
        // filtering must be invisible: both the picks and the RNG
        // consumption match a straight `gen_range(0..n)` stream.
        let ts = tenants(4, 2);
        let mut p = RandomPicker::default();
        let mut r = rng();
        let picks: Vec<usize> = (0..50).map(|s| p.pick(&ts, s, &mut r)).collect();
        let mut reference = rng();
        let expected: Vec<usize> = (0..50)
            .map(|_| rand::Rng::gen_range(&mut reference, 0..4))
            .collect();
        assert_eq!(picks, expected);
    }

    #[test]
    fn random_covers_all_users() {
        let ts = tenants(4, 2);
        let mut p = RandomPicker::default();
        let mut r = rng();
        let mut seen = [false; 4];
        for s in 0..200 {
            seen[p.pick(&ts, s, &mut r)] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }
}
