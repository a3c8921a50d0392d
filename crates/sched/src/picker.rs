//! The user-picking interface and the workload-agnostic pickers.

use crate::hybrid::Hybrid;
use crate::tenant::Tenant;
use easeml_obs::{Event, RecorderHandle};

/// The user-picking phase of the multi-tenant scheduler: given the current
/// tenant states, decide who is served in global round `step` (0-based).
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
    /// return an index `< tenants.len()`.
    fn pick(&mut self, tenants: &[Tenant], step: usize, rng: &mut dyn rand::RngCore) -> usize;

    /// Hook invoked after the served tenant has observed its reward —
    /// HYBRID uses it for freeze detection.
    fn after_observe(&mut self, _tenants: &[Tenant], _served: usize) {}

    /// Attaches a recorder through which the picker emits one
    /// `SchedulerDecision` per pick (plus any strategy-specific events).
    /// The default keeps the picker uninstrumented.
    fn set_recorder(&mut self, _recorder: RecorderHandle) {}

    /// Per-tenant scores the most recent [`UserPicker::pick`] ranked users
    /// on, indexed by tenant — the witness-capture layer turns these into
    /// bounded top-K `UserScored` events. Empty for strategies that do not
    /// score (FCFS, round robin, random, post-fallback HYBRID).
    fn decision_scores(&self, _tenants: &[Tenant]) -> Vec<f64> {
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

/// Indices of the live tenants, in id order, without allocating — the
/// universe every picker draws from now that tenants can retire mid-run.
/// Falls back to *all* indices when every tenant is inactive, keeping
/// `pick` total; callers are expected to guard picking behind an
/// any-active check, so the fallback only shields against misuse.
///
/// With every tenant active this is `0..n`, which keeps each picker's
/// choice — and its RNG consumption — bit-identical to the closed-loop
/// fixed-tenancy behavior.
pub(crate) fn live_indices(tenants: &[Tenant]) -> impl Iterator<Item = usize> + '_ {
    let all = !tenants.iter().any(Tenant::is_active);
    tenants
        .iter()
        .enumerate()
        .filter(move |(_, t)| all || t.is_active())
        .map(|(i, _)| i)
}

/// Number of live tenants (every tenant when none is live).
pub(crate) fn live_count(tenants: &[Tenant]) -> usize {
    live_indices(tenants).count()
}

/// The `(r mod n)`-th of the `n` live tenants, counted in id order — how
/// every round-robin-style pick chooses.
///
/// # Panics
///
/// Panics if `tenants` is empty.
pub(crate) fn nth_live(tenants: &[Tenant], r: usize) -> usize {
    let n = live_count(tenants);
    live_indices(tenants)
        .nth(r % n)
        .expect("r mod n indexes a live tenant")
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

    fn pick(&mut self, tenants: &[Tenant], step: usize, _rng: &mut dyn rand::RngCore) -> usize {
        let user = live_indices(tenants)
            .find(|&i| !tenants[i].exhausted())
            .unwrap_or_else(|| nth_live(tenants, step));
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

    fn pick(&mut self, tenants: &[Tenant], step: usize, _rng: &mut dyn rand::RngCore) -> usize {
        let user = nth_live(tenants, step);
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

    fn pick(&mut self, tenants: &[Tenant], step: usize, rng: &mut dyn rand::RngCore) -> usize {
        use rand::Rng;
        let user = nth_live(tenants, rng.gen_range(0..live_count(tenants)));
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
        ts[0].observe(0, 0.5);
        // User 0 still has an untried arm.
        assert_eq!(p.pick(&ts, 1, &mut r), 0);
        ts[0].observe(1, 0.6);
        // User 0 exhausted: move to user 1.
        assert_eq!(p.pick(&ts, 2, &mut r), 1);
        ts[1].observe(0, 0.5);
        ts[1].observe(1, 0.5);
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
        ts[1].set_active(false);
        let mut r = rng();
        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..6).map(|s| rr.pick(&ts, s, &mut r)).collect();
        assert_eq!(picks, vec![0, 2, 3, 0, 2, 3], "rr cycles the live set");
        let mut fcfs = Fcfs::default();
        for t in ts.iter_mut() {
            t.observe(0, 0.5);
            t.observe(1, 0.5);
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
