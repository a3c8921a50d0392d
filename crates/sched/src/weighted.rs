//! Weighted fair sharing — a deficit-style picker from the multi-tenant
//! resource-management literature the paper's §6 cites (per-tenant
//! performance isolation à la Pisces/Retro), offered as an alternative
//! fairness baseline between ROUNDROBIN's absolute fairness and GREEDY's
//! pure efficiency.
//!
//! Each tenant accrues *credit* at a rate proportional to its weight; the
//! picker serves the tenant with the most accumulated credit and charges
//! one unit per serve. Equal weights reduce to round-robin-like behaviour;
//! a weight-2 tenant is served twice as often in the long run.

use crate::picker::{live_indices, UserPicker};
use crate::tenant::Tenant;
use easeml_linalg::vec_ops;
use easeml_obs::{Event, RecorderHandle};

/// Deficit-based weighted fair user picking.
///
/// # Examples
///
/// ```
/// use easeml_bandit::{BetaSchedule, GpUcb};
/// use easeml_gp::ArmPrior;
/// use easeml_sched::{Tenant, UserPicker, WeightedFair};
/// use rand::SeedableRng;
///
/// let beta = BetaSchedule::Simple { num_arms: 2, delta: 0.1 };
/// let tenants: Vec<Tenant> = (0..2)
///     .map(|i| Tenant::new(i, GpUcb::cost_oblivious(
///         ArmPrior::independent(2, 1.0), 1e-3, beta)))
///     .collect();
/// // Tenant 0 paid for a double share.
/// let mut fair = WeightedFair::new(vec![2.0, 1.0]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let picks: Vec<usize> = (0..6).map(|s| fair.pick(&tenants, s, &mut rng)).collect();
/// assert_eq!(picks.iter().filter(|&&u| u == 0).count(), 4); // 2/3 of serves
/// ```
#[derive(Debug, Clone)]
pub struct WeightedFair {
    weights: Vec<f64>,
    credit: Vec<f64>,
    recorder: RecorderHandle,
}

impl WeightedFair {
    /// Creates the picker with one positive weight per tenant.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a non-positive weight.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one tenant");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        let n = weights.len();
        WeightedFair {
            weights,
            credit: vec![0.0; n],
            recorder: RecorderHandle::noop(),
        }
    }

    /// Equal weights for `n` tenants (round-robin-like).
    pub fn uniform(n: usize) -> Self {
        Self::new(vec![1.0; n])
    }

    /// The tenants' current credit balances.
    pub fn credit(&self) -> &[f64] {
        &self.credit
    }
}

impl UserPicker for WeightedFair {
    fn name(&self) -> &'static str {
        "weighted-fair"
    }

    fn pick(&mut self, tenants: &[Tenant], step: usize, _rng: &mut dyn rand::RngCore) -> usize {
        assert_eq!(
            tenants.len(),
            self.weights.len(),
            "tenant count must match the configured weights"
        );
        // Accrue credit proportional to weight (normalized so one serve's
        // worth of credit is distributed per round). Retired tenants stop
        // accruing, their share flows to the live tenants, and their frozen
        // balance can never win the argmax below.
        let total: f64 = live_indices(tenants).map(|i| self.weights[i]).sum();
        for i in live_indices(tenants) {
            self.credit[i] += self.weights[i] / total;
        }
        let choice = vec_ops::argmax_by(live_indices(tenants).map(|i| (i, self.credit[i])))
            .expect("at least one tenant");
        self.recorder.emit(|| Event::SchedulerDecision {
            round: step as u64,
            user: choice,
            rule: self.name().to_string(),
            scores: self.credit.clone(),
            parent: easeml_obs::current_span(),
        });
        self.credit[choice] -= 1.0;
        choice
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

    fn tenants(n: usize) -> Vec<Tenant> {
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

    fn serve_counts(weights: Vec<f64>, rounds: usize) -> Vec<usize> {
        let ts = tenants(weights.len());
        let mut p = WeightedFair::new(weights);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; ts.len()];
        for s in 0..rounds {
            counts[p.pick(&ts, s, &mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn uniform_weights_are_fair() {
        let counts = serve_counts(vec![1.0; 4], 400);
        for &c in &counts {
            assert!((95..=105).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn double_weight_doubles_the_share() {
        let counts = serve_counts(vec![2.0, 1.0, 1.0], 400);
        let share0 = counts[0] as f64 / 400.0;
        assert!((share0 - 0.5).abs() < 0.03, "{counts:?}");
        assert!((counts[1] as f64 - counts[2] as f64).abs() <= 10.0);
    }

    #[test]
    fn extreme_weights_still_serve_everyone() {
        let counts = serve_counts(vec![10.0, 0.1], 220);
        assert!(counts[1] > 0, "starved the light tenant: {counts:?}");
        assert!(counts[0] > counts[1] * 10);
    }

    #[test]
    fn credit_is_conserved() {
        let ts = tenants(3);
        let mut p = WeightedFair::uniform(3);
        let mut rng = StdRng::seed_from_u64(2);
        for s in 0..30 {
            p.pick(&ts, s, &mut rng);
            let total: f64 = p.credit().iter().sum();
            assert!(total.abs() < 1e-9, "credit drifted: {total}");
        }
    }

    #[test]
    fn retired_tenants_stop_accruing_and_never_win() {
        let mut ts = tenants(3);
        ts[0].set_active(false);
        let mut p = WeightedFair::new(vec![10.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(4);
        for s in 0..40 {
            assert_ne!(p.pick(&ts, s, &mut rng), 0, "retiree must not be served");
        }
        assert_eq!(p.credit()[0], 0.0, "retiree accrues nothing");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        let _ = WeightedFair::new(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "match")]
    fn mismatched_tenant_count_panics() {
        let ts = tenants(2);
        let mut p = WeightedFair::uniform(3);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = p.pick(&ts, 0, &mut rng);
    }
}
