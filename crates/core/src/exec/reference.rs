//! The serial GP round loop that [`crate::sim::simulate`] ran before it
//! ran on the engine, kept as the reference the engine is held to at one
//! unit device: pick a user, select the user's arm, train it on the one
//! pooled device and advance one clock by its cost. It keeps only what the
//! comparisons read: the [`SimTrace`] and the rolling digest after each
//! round. The digest folds round, user, arm and censored only, so the
//! reference records no decision context.

use crate::fault::FaultInjector;
use crate::server::TrainingOutcome;
use crate::sim::{
    assert_billable, build_tenants, cheapest_model, make_picker, LossTracker, SchedulerKind,
    SimConfig, SimEvent, SimTrace,
};
use crate::witness::{DecisionLog, RoundWitness};
use easeml_data::Dataset;
use easeml_gp::ArmPrior;
use easeml_obs::RecorderHandle;

/// Advances the pooled device's clock by one billable run's cost.
fn advance(clock: &mut f64, cost: f64) {
    assert_billable(cost);
    *clock += cost;
}

/// Charges a failed run's consumed cost; a charge that is not positive and
/// finite bills nothing.
fn censor_run(clock: &mut f64, charge: f64) {
    if charge > 0.0 && charge.is_finite() {
        advance(clock, charge);
    }
}

/// The serial run of a GP scheduler kind, and the digest (16 hex chars)
/// after every round, censored ones included.
pub(crate) fn simulate_gp(
    dataset: &Dataset,
    priors: &[ArmPrior],
    kind: SchedulerKind,
    cfg: &SimConfig,
    rng: &mut dyn rand::RngCore,
) -> (SimTrace, Vec<String>) {
    let noop = RecorderHandle::noop();
    let mut tenants = build_tenants(dataset, priors, cfg, &noop);
    let mut picker = make_picker(kind, &noop);
    let mut losses = LossTracker::new(dataset);
    let mut injector = cfg.fault.clone().map(FaultInjector::new);
    let mut wlog = DecisionLog::new();
    let (mut clock, mut points, mut events, mut digests) =
        (0.0, Vec::new(), Vec::new(), Vec::new());

    // The budget-free warm-up pass: each user's cheapest model.
    for user in 0..dataset.num_users() {
        let model = cheapest_model(dataset, user);
        let quality = dataset.quality(user, model);
        tenants.observe(user, model, quality);
        losses.observe(user, quality);
        picker.after_observe(&tenants, user);
    }
    let initial_loss = losses.mean_loss();

    let mut step = 0usize;
    while clock < cfg.budget {
        let user = picker.pick(&tenants, step, rng);
        let model = tenants[user].select_model();
        let clean = TrainingOutcome {
            accuracy: dataset.quality(user, model),
            cost: dataset.cost(user, model),
        };
        let outcome = match injector.as_mut() {
            Some(inj) => inj.apply(user, model, clean),
            None => Ok(clean),
        };
        // A failure, or an invalid quality, is censored: its charge
        // advances the clock, and nothing enters the posterior.
        let censored = match outcome {
            Ok(out) if out.accuracy.is_finite() => {
                advance(&mut clock, out.cost);
                tenants.observe(user, model, out.accuracy);
                losses.observe(user, out.accuracy);
                points.push((clock, losses.mean_loss()));
                events.push(SimEvent {
                    user,
                    model,
                    cost: out.cost,
                    quality: out.accuracy,
                });
                false
            }
            Ok(out) => {
                censor_run(&mut clock, out.cost);
                true
            }
            Err(error) => {
                censor_run(&mut clock, error.cost_consumed());
                true
            }
        };
        wlog.record(
            &noop,
            RoundWitness {
                round: step as u64,
                user,
                arm: model,
                user_scores: &[],
                candidates: &[],
                arm_explanation: None,
                path: String::new(),
                fallback: String::new(),
                censored,
            },
        );
        digests.push(wlog.digest_hex());
        if !censored {
            picker.after_observe(&tenants, user);
        }
        step += 1;
    }
    let trace = SimTrace {
        budget: cfg.budget,
        initial_loss,
        rounds: events.len(),
        points,
        events,
        final_losses: losses.losses(),
    };
    (trace, digests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate_multi_device, ExecEngine, Fleet};
    use crate::fault::FaultConfig;
    use crate::sim::{simulate, simulate_with_recorder};
    use easeml_data::SynConfig;
    use easeml_obs::{Event, InMemoryRecorder};
    use easeml_sched::PickRule;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::sync::Arc;

    fn dataset(users: usize, models: usize, seed: u64) -> Dataset {
        SynConfig {
            num_users: users,
            num_models: models,
            ..SynConfig::paper(0.5, 0.5)
        }
        .generate(seed)
    }

    fn priors(dataset: &Dataset) -> Vec<ArmPrior> {
        (0..dataset.num_users())
            .map(|_| ArmPrior::independent(dataset.num_models(), 0.05))
            .collect()
    }

    fn chaos(seed: u64) -> FaultConfig {
        FaultConfig::new(seed)
            .with_crash_rate(0.2)
            .with_timeout_rate(0.1)
            .with_invalid_rate(0.05)
    }

    fn reference(
        d: &Dataset,
        p: &[ArmPrior],
        kind: SchedulerKind,
        cfg: &SimConfig,
        seed: u64,
    ) -> (SimTrace, Vec<String>) {
        simulate_gp(d, p, kind, cfg, &mut StdRng::seed_from_u64(seed))
    }

    /// The digest each committed `DecisionWitness` carries, in round order.
    fn witness_digests(events: &[Event]) -> Vec<String> {
        let mut rounds: Vec<(u64, String)> = events
            .iter()
            .filter_map(|e| match e {
                Event::DecisionWitness { round, digest, .. } => Some((*round, digest.clone())),
                _ => None,
            })
            .collect();
        rounds.sort_by_key(|&(round, _)| round);
        rounds.into_iter().map(|(_, digest)| digest).collect()
    }

    #[test]
    fn single_unit_device_reproduces_the_serial_trajectory() {
        let d = dataset(5, 4, 3);
        let p = priors(&d);
        let kinds = [
            SchedulerKind::RoundRobin,
            SchedulerKind::Fcfs,
            SchedulerKind::Hybrid,
            SchedulerKind::Greedy(PickRule::MaxUcbGap),
        ];
        for kind in kinds {
            for cost_aware in [false, true] {
                let mut cfg = SimConfig::new(10.0);
                cfg.cost_aware = cost_aware;
                let (serial, _) = reference(&d, &p, kind, &cfg, 42);
                let exec = simulate_multi_device(&d, &p, kind, &cfg, 1, 42);
                assert_eq!(
                    exec.sim,
                    serial,
                    "D=1 must be bit-identical to serial ({} cost_aware={cost_aware})",
                    kind.name()
                );
                assert_eq!(exec.parallel_dispatches, 0, "one slot cannot overlap runs");
            }
        }
    }

    #[test]
    fn single_unit_device_matches_serial_under_faults() {
        let d = dataset(4, 5, 9);
        let p = priors(&d);
        let mut cfg = SimConfig::new(12.0);
        cfg.fault = Some(chaos(77));
        for kind in [SchedulerKind::RoundRobin, SchedulerKind::Hybrid] {
            let (serial, _) = reference(&d, &p, kind, &cfg, 5);
            let exec = simulate_multi_device(&d, &p, kind, &cfg, 1, 5);
            assert_eq!(
                exec.sim,
                serial,
                "censoring must not break D=1 equivalence ({})",
                kind.name()
            );
            assert!(exec.censored > 0, "chaos config should censor something");
        }
    }

    #[test]
    fn single_device_witness_digests_match_the_serial_simulator() {
        let d = dataset(5, 4, 3);
        let p = priors(&d);
        let cfg = SimConfig::new(9.0);
        let (_, serial) = reference(&d, &p, SchedulerKind::Hybrid, &cfg, 7);
        let rec = Arc::new(InMemoryRecorder::new());
        let recorder = RecorderHandle::new(rec.clone());
        let fleet = Fleet::uniform(1);
        let _ = ExecEngine::new(&d, &p, SchedulerKind::Hybrid, &cfg, fleet, 7, recorder).run();
        assert!(!serial.is_empty());
        assert_eq!(
            witness_digests(&rec.events()),
            serial,
            "D=1 exec must replay the serial decisions"
        );
    }

    #[test]
    fn simulate_equals_the_reference_for_every_gp_kind() {
        let d = dataset(5, 4, 3);
        let p = priors(&d);
        let kinds = [
            SchedulerKind::Fcfs,
            SchedulerKind::RoundRobin,
            SchedulerKind::Random,
            SchedulerKind::Greedy(PickRule::MaxUcbGap),
            SchedulerKind::Greedy(PickRule::MaxSigmaTilde),
            SchedulerKind::Greedy(PickRule::Random),
            SchedulerKind::Hybrid,
        ];
        let mut censored = 0;
        for kind in kinds {
            for cost_aware in [false, true] {
                for fault in [None, Some(chaos(31))] {
                    let cfg = SimConfig {
                        cost_aware,
                        fault,
                        ..SimConfig::new(12.0)
                    };
                    let case = format!("{} cost_aware={cost_aware} {:?}", kind.name(), cfg.fault);
                    // Both draw from caller-owned streams and must leave
                    // them at the same position.
                    let (mut ref_rng, mut sim_rng) =
                        (StdRng::seed_from_u64(19), StdRng::seed_from_u64(19));
                    let (serial, digests) = simulate_gp(&d, &p, kind, &cfg, &mut ref_rng);
                    let trace = simulate(&d, &p, kind, &cfg, &mut sim_rng);
                    assert_eq!(trace, serial, "{case}");
                    assert_eq!(sim_rng.next_u64(), ref_rng.next_u64(), "{case}");
                    censored += digests.len() - serial.rounds;

                    // A live recorder perturbs nothing: the witnesses carry
                    // the reference's digests.
                    let rec = Arc::new(InMemoryRecorder::new());
                    let traced = simulate_with_recorder(
                        &d,
                        &p,
                        kind,
                        &cfg,
                        &mut StdRng::seed_from_u64(19),
                        &RecorderHandle::new(rec.clone()),
                    );
                    assert_eq!(traced, serial, "{case}");
                    assert_eq!(witness_digests(&rec.events()), digests, "{case}");
                }
            }
        }
        assert!(censored > 0, "chaos should censor some rounds");
    }
}
