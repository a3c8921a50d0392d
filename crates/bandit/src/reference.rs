//! The batched GP-UCB policy (`GpBucb`) that [`GpUcb::hallucinate`]
//! replaced, kept as the bit-exact reference the property test below holds
//! it to.
//!
//! `GpBucb` kept its own copy of the real posterior, fed in lockstep with
//! the tenant's, plus a hallucinated posterior: the real one with one
//! mean-valued fake observation per pending arm, in dispatch order, grown
//! at every selection and rebuilt at every resolution or cancellation.

use crate::beta::BetaSchedule;
use crate::gp_ucb::{ArmExplanation, GpUcb, ScoredArm};
use easeml_gp::{ArmPrior, GpPosterior};
use easeml_linalg::{vec_ops, Matrix};
use easeml_obs::top_k_indices;
use proptest::prelude::*;

struct GpBucb {
    real: GpPosterior,
    halluc: GpPosterior,
    beta: BetaSchedule,
    costs: Option<Vec<f64>>,
    t: usize,
    pending: Vec<usize>,
}

impl GpBucb {
    fn new(prior: ArmPrior, noise_var: f64, beta: BetaSchedule, costs: Option<Vec<f64>>) -> Self {
        let real = GpPosterior::new(prior, noise_var);
        GpBucb {
            halluc: real.clone(),
            real,
            beta,
            costs,
            t: 0,
            pending: Vec::new(),
        }
    }

    fn cost(&self, arm: usize) -> f64 {
        self.costs.as_ref().map_or(1.0, |c| c[arm])
    }

    fn scores(&self) -> Vec<f64> {
        let beta = self.beta.at(self.t + self.pending.len() + 1);
        (0..self.real.num_arms())
            .map(|k| self.halluc.mean(k) + (beta / self.cost(k)).sqrt() * self.halluc.std(k))
            .collect()
    }

    fn select_next(&mut self) -> usize {
        let arm = vec_ops::argmax(&self.scores()).expect("at least one arm");
        self.mark_pending(arm);
        arm
    }

    fn explain_next(&self, k: usize) -> ArmExplanation {
        let scores = self.scores();
        let ranked = top_k_indices(&scores, k.max(1));
        let chosen = vec_ops::argmax(&scores).expect("at least one arm");
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
                mean: self.halluc.mean(arm),
                sigma: self.halluc.std(arm),
                ucb: scores[arm],
                masked: false,
            })
            .collect();
        ArmExplanation {
            chosen,
            margin,
            top,
        }
    }

    /// Re-enters `arm` pending without selection (checkpoint restore).
    fn mark_pending(&mut self, arm: usize) {
        let fake = self.halluc.mean(arm);
        self.halluc.observe(arm, fake);
        self.pending.push(arm);
    }

    fn rebuild_halluc(&mut self) {
        let mut h = self.real.clone();
        for &a in &self.pending {
            let fake = h.mean(a);
            h.observe(a, fake);
        }
        self.halluc = h;
    }

    fn resolve_at(&mut self, idx: usize, reward: f64) {
        let arm = self.pending.remove(idx);
        self.real.observe(arm, reward);
        self.t += 1;
        self.rebuild_halluc();
    }

    fn cancel_at(&mut self, idx: usize) {
        self.pending.remove(idx);
        self.rebuild_halluc();
    }
}

fn arm_prior(k: usize, correlated: bool) -> impl Strategy<Value = ArmPrior> {
    (
        prop::collection::vec(-1.0f64..1.0, k * 2),
        prop::collection::vec(-0.5f64..0.5, k),
    )
        .prop_map(move |(b, mean)| {
            if correlated {
                // A rank-2 factor plus a diagonal: dense and positive definite.
                let gram = Matrix::from_fn(k, k, |i, j| {
                    let low_rank: f64 = (0..2).map(|c| b[i * 2 + c] * b[j * 2 + c]).sum();
                    low_rank + if i == j { 0.05 } else { 0.0 }
                });
                ArmPrior::from_gram(gram).with_mean(mean)
            } else {
                ArmPrior::independent(k, 0.05 + b[0].abs())
            }
        })
}

fn policy_pair(prior: ArmPrior, noise: f64, costs: Option<Vec<f64>>) -> (GpUcb, GpBucb) {
    let beta = BetaSchedule::Simple {
        num_arms: prior.num_arms(),
        delta: 0.1,
    };
    let ucb = match &costs {
        Some(c) => GpUcb::cost_aware(prior.clone(), noise, beta, c.clone()),
        None => GpUcb::cost_oblivious(prior.clone(), noise, beta),
    };
    (ucb, GpBucb::new(prior, noise, beta, costs))
}

fn same_bits(a: &GpPosterior, b: &GpPosterior) -> bool {
    let bits = |gp: &GpPosterior| -> Vec<u64> {
        gp.means()
            .iter()
            .chain(gp.vars())
            .map(|x| x.to_bits())
            .collect()
    };
    bits(a) == bits(b)
}

fn same_explanation(a: &ArmExplanation, b: &ArmExplanation) -> bool {
    a.chosen == b.chosen
        && a.margin.to_bits() == b.margin.to_bits()
        && a.top.len() == b.top.len()
        && a.top.iter().zip(&b.top).all(|(x, y)| {
            x.arm == y.arm
                && x.mean.to_bits() == y.mean.to_bits()
                && x.sigma.to_bits() == y.sigma.to_bits()
                && x.ucb.to_bits() == y.ucb.to_bits()
                && x.masked == y.masked
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dispatches, resolutions and cancellations at random positions of the
    /// pending batch, plus arms re-entered pending the way a restore did:
    /// the tenant's policy hallucinated over its in-flight arms makes
    /// exactly `GpBucb`'s choices from exactly its posteriors.
    #[test]
    fn hallucinate_matches_gp_bucb_bit_for_bit(
        (prior, noise, costs, ops) in (2usize..6, prop::sample::select(vec![false, true]))
            .prop_flat_map(|(k, correlated)| {
                (
                    arm_prior(k, correlated),
                    prop::sample::select(vec![0.1, 1e-3, 1e-6, 1e-10]),
                    prop::option::of(prop::collection::vec(0.25f64..4.0, k)),
                    prop::collection::vec((0usize..6, 0usize..64, 0.0f64..1.0), 1..32),
                )
            })
    ) {
        let k = prior.num_arms();
        let (mut real, mut reference) = policy_pair(prior, noise, costs);
        let mut pending: Vec<usize> = Vec::new();
        for (step, &(op, x, reward)) in ops.iter().enumerate() {
            match op {
                0..=2 => {
                    let batch = real.hallucinate(&pending);
                    prop_assert!(
                        same_explanation(&batch.explain_selection(3), &reference.explain_next(3)),
                        "step {}: explanations differ", step
                    );
                    let arm = batch.select_arm();
                    prop_assert_eq!(arm, reference.select_next());
                    pending.push(arm);
                }
                3 if !pending.is_empty() => {
                    let idx = x % pending.len();
                    real.observe(pending.remove(idx), reward);
                    reference.resolve_at(idx, reward);
                }
                4 if !pending.is_empty() => {
                    let idx = x % pending.len();
                    pending.remove(idx);
                    reference.cancel_at(idx);
                }
                _ => {
                    pending.push(x % k);
                    reference.mark_pending(x % k);
                }
            }
            prop_assert_eq!(&pending, &reference.pending);
            prop_assert_eq!(real.steps(), reference.t);
            prop_assert!(same_bits(real.posterior(), &reference.real), "step {}: real", step);
            prop_assert!(
                same_bits(real.hallucinate(&pending).posterior(), &reference.halluc),
                "step {}: hallucinated", step
            );
        }
    }
}

#[test]
fn the_reference_sees_duplicate_pending_arms() {
    // Two arms, three dispatches: one arm is pending twice, and the
    // hallucinated policy still agrees with the reference.
    let (real, mut reference) = policy_pair(ArmPrior::independent(2, 1.0), 1e-3, None);
    let mut pending = Vec::new();
    for _ in 0..3 {
        let arm = real.hallucinate(&pending).select_arm();
        assert_eq!(arm, reference.select_next());
        pending.push(arm);
    }
    assert!(
        pending[0] == pending[2] || pending[1] == pending[2],
        "{pending:?}"
    );
    assert!(same_bits(
        real.hallucinate(&pending).posterior(),
        &reference.halluc
    ));
}
