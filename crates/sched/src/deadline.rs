//! Deadline-aware user picking — an extension addressing §4.5's open
//! question of integrating "hard rules such as each user's deadline".
//!
//! [`DeadlinePicker`] wraps any base picker (GREEDY, HYBRID, …) and
//! overrides it whenever a tenant is in danger of missing a service-level
//! deadline: *user i must have been served at least `min_serves` times by
//! global round `round`*. Urgent tenants (deadline within the look-ahead
//! horizon and still short of their quota) preempt the base policy, most
//! imminent deadline first. Regret-wise this degrades gracefully: when no
//! deadline is urgent, the wrapped picker's behaviour — and hence its
//! regret bound — is untouched.

use crate::picker::UserPicker;
use crate::roster::Roster;
use easeml_obs::{Event, RecorderHandle};

/// A per-tenant deadline: serve the tenant at least `min_serves` times by
/// global round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Global round (0-based) by which the quota must be met.
    pub round: usize,
    /// Required number of serves.
    pub min_serves: usize,
}

/// Wraps a base picker with deadline enforcement.
#[derive(Debug)]
pub struct DeadlinePicker<P> {
    inner: P,
    deadlines: Vec<Option<Deadline>>,
    /// How many rounds before a deadline a tenant becomes urgent. The
    /// horizon must cover the remaining quota; a generous default is the
    /// number of tenants times the outstanding serves.
    horizon: usize,
    recorder: RecorderHandle,
}

impl<P: UserPicker> DeadlinePicker<P> {
    /// Wraps `inner`. `deadlines[i]` is tenant i's deadline, if any.
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0`.
    pub fn new(inner: P, deadlines: Vec<Option<Deadline>>, horizon: usize) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        DeadlinePicker {
            inner,
            deadlines,
            horizon,
            recorder: RecorderHandle::noop(),
        }
    }

    /// The wrapped picker.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Whether tenant `i` is urgent at `step`: its deadline is within the
    /// horizon and its quota is unmet.
    fn is_urgent(&self, roster: &Roster, i: usize, step: usize) -> bool {
        if !roster.is_active(i) {
            // A retired tenant's deadline lapses with it.
            return false;
        }
        match self.deadlines.get(i).copied().flatten() {
            Some(d) => roster[i].serves() < d.min_serves && step + self.horizon >= d.round,
            None => false,
        }
    }

    /// The most urgent tenant at `step`, if any: unmet quota, deadline
    /// within the horizon, earliest deadline first (largest outstanding
    /// quota breaks ties).
    pub fn most_urgent(&self, roster: &Roster, step: usize) -> Option<usize> {
        (0..roster.len())
            .filter(|&i| self.is_urgent(roster, i, step))
            .min_by_key(|&i| {
                let d = self.deadlines[i].expect("urgent tenants have deadlines");
                let outstanding = d.min_serves - roster[i].serves();
                (d.round, usize::MAX - outstanding)
            })
    }
}

impl<P: UserPicker> UserPicker for DeadlinePicker<P> {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn needs_warmup(&self) -> bool {
        self.inner.needs_warmup()
    }

    fn pick(&mut self, roster: &Roster, step: usize, rng: &mut dyn rand::RngCore) -> usize {
        if let Some(urgent) = self.most_urgent(roster, step) {
            // A preemption is this round's decision; the inner picker did
            // not run, so no second decision is emitted.
            self.recorder.emit(|| Event::SchedulerDecision {
                round: step as u64,
                user: urgent,
                rule: self.name().to_string(),
                scores: Vec::new(),
                parent: easeml_obs::current_span(),
            });
            return urgent;
        }
        self.inner.pick(roster, step, rng)
    }

    fn after_observe(&mut self, roster: &Roster, served: usize) {
        self.inner.after_observe(roster, served);
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder.clone();
        self.inner.set_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::picker::RoundRobin;
    use crate::tenant::Tenant;
    use easeml_bandit::{BetaSchedule, GpUcb};
    use easeml_gp::ArmPrior;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tenants(n: usize) -> Roster {
        (0..n)
            .map(|i| {
                let beta = BetaSchedule::Simple {
                    num_arms: 2,
                    delta: 0.1,
                };
                Tenant::new(
                    i,
                    GpUcb::cost_oblivious(ArmPrior::independent(2, 1.0), 0.01, beta),
                )
            })
            .collect()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn no_deadlines_delegates_to_inner() {
        let ts = tenants(3);
        let mut p = DeadlinePicker::new(RoundRobin::default(), vec![None, None, None], 5);
        let mut r = rng();
        let picks: Vec<usize> = (0..6).map(|s| p.pick(&ts, s, &mut r)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(p.name(), "deadline");
        assert!(!p.needs_warmup());
    }

    #[test]
    fn urgent_tenant_preempts() {
        let ts = tenants(3);
        // Tenant 2 must be served twice by round 4; horizon 3 makes it
        // urgent from round 1 on.
        let deadlines = vec![
            None,
            None,
            Some(Deadline {
                round: 4,
                min_serves: 2,
            }),
        ];
        let mut p = DeadlinePicker::new(RoundRobin::default(), deadlines, 3);
        let mut r = rng();
        assert_eq!(p.pick(&ts, 0, &mut r), 0, "not yet urgent at step 0");
        assert_eq!(p.pick(&ts, 1, &mut r), 2, "urgent from step 1");
        assert_eq!(p.pick(&ts, 2, &mut r), 2, "still short of quota");
    }

    #[test]
    fn met_quota_releases_the_override() {
        let mut ts = tenants(2);
        let deadlines = vec![
            Some(Deadline {
                round: 2,
                min_serves: 1,
            }),
            None,
        ];
        let mut p = DeadlinePicker::new(RoundRobin::default(), deadlines, 10);
        let mut r = rng();
        assert_eq!(p.pick(&ts, 0, &mut r), 0, "urgent");
        ts.observe(0, 0, 0.5); // quota met
                               // Back to round robin (step 1 → tenant 1).
        assert_eq!(p.pick(&ts, 1, &mut r), 1);
    }

    #[test]
    fn earliest_deadline_wins() {
        let ts = tenants(3);
        let deadlines = vec![
            Some(Deadline {
                round: 9,
                min_serves: 1,
            }),
            Some(Deadline {
                round: 3,
                min_serves: 1,
            }),
            None,
        ];
        let mut p = DeadlinePicker::new(RoundRobin::default(), deadlines, 20);
        let mut r = rng();
        assert_eq!(p.pick(&ts, 0, &mut r), 1, "round-3 deadline beats round-9");
        assert_eq!(p.most_urgent(&ts, 0), Some(1));
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_panics() {
        let _ = DeadlinePicker::new(RoundRobin::default(), vec![], 0);
    }
}
