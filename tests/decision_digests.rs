//! Pinned decision digests. Every arm choice reads GP posterior means and
//! variances, so reordering the arithmetic behind them (a sum, a solve, a
//! factorization) can flip a near-tie and change what the scheduler does.
//! Each test below runs a fixed scenario and compares a digest of its
//! decisions with a constant recorded from an earlier build; a change that
//! moves one of them changes decisions and must say so.

use easeml::exec::simulate_multi_device;
use easeml::experiment::{empirical_prior, run_experiment, ExperimentConfig, ExperimentResult};
use easeml::fault::{FaultConfig, FaultInjector};
use easeml::server::{EaseMl, QualityOracle, TrainingOutcome};
use easeml::sim::{simulate, SchedulerKind, SimConfig, SimTrace};
use easeml_data::{Dataset, DatasetKind, SynConfig, TrainTestSplit};
use easeml_gp::{ArmPrior, GpPosterior};
use easeml_obs::{Event, InMemoryRecorder, RecorderHandle, RollingDigest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SERIAL_DIGEST: &str = "bf37b39219236e65";
const POSTERIOR_DIGEST: &str = "7474a7db4b23e95f";
const FLEET_DIGEST: &str = "7bea0e8b13db08a8";
const MIXED_FLEET_DIGEST: &str = "421907eee3a6c1c3";
const SERVICE_DIGEST: &str = "809f12286b2453b3";
const STATUS_DIGEST: &str = "b3700fc0e94f1130";
const EXPERIMENT_DIGEST: &str = "38c6ee324d94626d";
const CLASSIFIER179_EXPERIMENT_DIGEST: &str = "e79c01184b23a706";
const DEEPLEARNING_EXPERIMENT_DIGESTS: [&str; 2] = ["6bfcaae48ef7060a", "db8306c295cb6527"];

const TEST_USERS: usize = 10;

fn dataset() -> Dataset {
    SynConfig {
        num_users: 60,
        num_models: 50,
        ..SynConfig::paper(0.5, 0.5)
    }
    .generate(2018)
}

/// The test users of one split, each with the dense empirical prior of the
/// training users.
fn dense_split(dataset: &Dataset) -> (Dataset, Vec<ArmPrior>) {
    let mut rng = StdRng::seed_from_u64(8);
    let split = TrainTestSplit::random(dataset.num_users(), TEST_USERS, &mut rng);
    let (means, cov) = empirical_prior(dataset, &split.train_users);
    let prior = ArmPrior::from_gram(cov).with_mean(means);
    (
        dataset.select_users(&split.test_users),
        vec![prior; TEST_USERS],
    )
}

fn trace_digest(trace: &SimTrace) -> RollingDigest {
    let mut d = RollingDigest::new();
    for e in &trace.events {
        d.absorb_u64(e.user as u64);
        d.absorb_u64(e.model as u64);
        d.absorb_f64(e.cost);
        d.absorb_f64(e.quality);
    }
    for &loss in &trace.final_losses {
        d.absorb_f64(loss);
    }
    d
}

#[test]
fn serial_easeml_decisions_are_pinned() {
    let (test, priors) = dense_split(&dataset());
    let cfg = SimConfig::new(test.total_cost() * 0.4);
    let mut rng = StdRng::seed_from_u64(11);
    let trace = simulate(&test, &priors, SchedulerKind::EaseMl, &cfg, &mut rng);
    assert!(trace.rounds > 200, "{} rounds", trace.rounds);
    assert_eq!(trace_digest(&trace).hex(), SERIAL_DIGEST);

    // A reordering too small to flip a decision still moves these bits:
    // every user's posterior after replaying the run's observations.
    let mut d = RollingDigest::new();
    for (user, prior) in priors.iter().enumerate() {
        let mut gp = GpPosterior::new(prior.clone(), cfg.noise_var);
        for e in trace.events.iter().filter(|e| e.user == user) {
            gp.observe(e.model, e.quality);
        }
        for x in gp.means().iter().chain(gp.vars()) {
            d.absorb_f64(*x);
        }
    }
    assert_eq!(d.hex(), POSTERIOR_DIGEST);
}

#[test]
fn gp_bucb_fleet_decisions_are_pinned() {
    let (test, priors) = dense_split(&dataset());
    let cfg = SimConfig::new(test.total_cost() * 0.3);
    let trace = simulate_multi_device(&test, &priors, SchedulerKind::EaseMl, &cfg, 4, 11);
    assert!(trace.parallel_dispatches > 0, "four devices overlap runs");
    let mut d = trace_digest(&trace.sim);
    d.absorb_f64(trace.makespan);
    assert_eq!(d.hex(), FLEET_DIGEST);
}

/// HYBRID on a mixed-speed fleet under fault injection, with so few arms
/// per tenant that GP-BUCB hallucinates the same arm twice while its runs
/// finish out of dispatch order: every dispatch conditions on a pending
/// batch that completions and censorings have punched holes into.
#[test]
fn mixed_speed_fleet_with_duplicate_pending_arms_is_pinned() {
    use easeml::exec::{DeviceSpec, ExecEngine, Fleet};
    use easeml_obs::{Event, InMemoryRecorder, RecorderHandle};
    use std::sync::Arc;

    let dataset = SynConfig {
        num_users: 3,
        num_models: 3,
        ..SynConfig::paper(0.5, 0.5)
    }
    .generate(7);
    let priors = vec![ArmPrior::independent(3, 0.05); 3];
    let mut cfg = SimConfig::new(dataset.total_cost() * 2.0);
    cfg.fault = Some(
        FaultConfig::new(29)
            .with_crash_rate(0.15)
            .with_timeout_rate(0.05),
    );
    let fleet: Vec<DeviceSpec> = [2.0, 1.0, 0.5, 1.5, 0.75, 3.0]
        .into_iter()
        .map(DeviceSpec::with_speed)
        .collect();
    let rec = Arc::new(InMemoryRecorder::new());
    let trace = ExecEngine::new(
        &dataset,
        &priors,
        SchedulerKind::Hybrid,
        &cfg,
        Fleet::new(fleet),
        11,
        RecorderHandle::new(rec.clone()),
    )
    .run();
    assert!(trace.censored > 0, "faults fired");

    // Single-slot devices name their run: replay the dispatch/finish
    // stream to find a duplicate pending arm and an out-of-order finish.
    let mut on_device: Vec<Option<(usize, usize, usize)>> = vec![None; 6];
    let mut next = 0usize;
    let (mut duplicate, mut overtaken) = (false, false);
    for event in rec.events().iter() {
        match *event {
            Event::RunDispatched {
                user,
                model,
                device,
                ..
            } => {
                duplicate |= on_device
                    .iter()
                    .flatten()
                    .any(|&(_, u, m)| u == user && m == model);
                on_device[device] = Some((next, user, model));
                next += 1;
            }
            Event::RunFinished { user, device, .. } => {
                let (order, ..) = on_device[device].take().expect("device was running");
                overtaken |= on_device
                    .iter()
                    .flatten()
                    .any(|&(o, u, _)| u == user && o < order);
            }
            _ => {}
        }
    }
    assert!(duplicate, "no tenant had the same arm in flight twice");
    assert!(overtaken, "no tenant's runs finished out of dispatch order");

    let mut d = trace_digest(&trace.sim);
    d.absorb_f64(trace.makespan);
    assert_eq!(d.hex(), MIXED_FLEET_DIGEST);
}

#[test]
fn fault_injected_service_digest_is_pinned() {
    let oracle: QualityOracle = Box::new(|user, model| {
        let info = model.info();
        let base = 0.45 + 0.05 * (user % 4) as f64;
        Ok(TrainingOutcome {
            accuracy: (base + 0.02 * (info.year as f64 - 2010.0)).min(0.99),
            cost: info.relative_cost,
        })
    });
    let mut server = EaseMl::new(oracle, 23);
    let faults = FaultConfig::new(41)
        .with_crash_rate(0.15)
        .with_timeout_rate(0.05)
        .with_stragglers(0.20, 2.5);
    server.set_fault_injector(Some(FaultInjector::new(faults)));
    for (name, program) in [
        (
            "vision-a",
            "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[5]], []}}",
        ),
        (
            "meteo-a",
            "{input: {[Tensor[16]], [next]}, output: {[Tensor[3]], []}}",
        ),
        (
            "vision-b",
            "{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[10]], []}}",
        ),
        (
            "meteo-b",
            "{input: {[Tensor[8]], [next]}, output: {[Tensor[2]], []}}",
        ),
    ] {
        server.register_user(name, program).unwrap();
    }
    for _ in 0..400 {
        server.run_round();
    }
    assert!(server.status_snapshot().failed_runs > 0, "faults fired");
    assert_eq!(server.state_digest(), SERVICE_DIGEST);
}

/// `/status` and a retirement's serve count are read from per-tenant
/// counters: every tenant's served and failed runs and the cost it was
/// charged, bit for bit, under crash, timeout and straggler faults and a
/// retirement.
#[test]
fn status_bodies_and_retirement_serves_are_pinned() {
    let oracle: QualityOracle = Box::new(|user, model| {
        let info = model.info();
        let base = 0.5 + 0.04 * (user % 3) as f64;
        Ok(TrainingOutcome {
            accuracy: (base + 0.02 * (info.year as f64 - 2010.0)).min(0.99),
            cost: info.relative_cost,
        })
    });
    let mut server = EaseMl::new(oracle, 29);
    let faults = FaultConfig::new(43)
        .with_crash_rate(0.15)
        .with_timeout_rate(0.05)
        .with_stragglers(0.20, 2.5);
    server.set_fault_injector(Some(FaultInjector::new(faults)));
    for (name, program) in [
        (
            "vision-a",
            "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[5]], []}}",
        ),
        (
            "meteo-a",
            "{input: {[Tensor[16]], [next]}, output: {[Tensor[3]], []}}",
        ),
        (
            "vision-b",
            "{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[10]], []}}",
        ),
    ] {
        server.register_user(name, program).unwrap();
    }
    let recorder = Arc::new(InMemoryRecorder::new());
    server.set_recorder(RecorderHandle::new(recorder.clone()));
    let mut d = RollingDigest::new();
    for round in 1..=120 {
        if round == 60 {
            server.retire_tenant(1);
        }
        server.try_run_round().unwrap();
        if round % 10 == 0 {
            d.absorb_str(&server.status_json());
        }
    }
    let serves: Vec<u64> = recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::TenantRetired { serves, .. } => Some(*serves),
            _ => None,
        })
        .collect();
    assert_eq!(serves.len(), 1, "one retirement");
    assert!(serves[0] > 0, "the retired tenant was served");
    d.absorb_u64(serves[0]);
    let status = server.status_snapshot();
    assert!(status.failed_runs > 0, "faults fired");
    assert!(status.users.iter().all(|u| u.served > 0 && u.cost > 0.0));
    assert_eq!(d.hex(), STATUS_DIGEST);
}

fn experiment_digest(result: &ExperimentResult) -> String {
    let mut d = RollingDigest::new();
    for x in result
        .mean_curve
        .iter()
        .chain(&result.worst_curve)
        .chain(&result.final_losses)
    {
        d.absorb_f64(*x);
    }
    d.absorb_f64(result.mean_rounds);
    d.hex()
}

/// SYN 60×50 with 10 test users leaves T = 50 training users for K = 50
/// models, so this tunes on the dense K×K side.
#[test]
fn tuned_experiment_curves_are_pinned() {
    let cfg = ExperimentConfig {
        test_users: TEST_USERS,
        repetitions: 4,
        grid_points: 21,
        ..ExperimentConfig::default()
    };
    let result = run_experiment(&dataset(), SchedulerKind::EaseMl, &cfg, 5);
    assert_eq!(experiment_digest(&result), EXPERIMENT_DIGEST);
}

/// 179CLASSIFIER with 10 test users leaves T = 111 training users for
/// K = 179 models, so this tunes in the T-space.
#[test]
fn tuned_classifier179_experiment_is_pinned() {
    let cfg = ExperimentConfig {
        test_users: TEST_USERS,
        repetitions: 2,
        grid_points: 21,
        ..ExperimentConfig::default()
    };
    let dataset = DatasetKind::Classifier179.generate(2018);
    let result = run_experiment(&dataset, SchedulerKind::EaseMl, &cfg, 5);
    assert_eq!(experiment_digest(&result), CLASSIFIER179_EXPERIMENT_DIGEST);
}

/// DEEPLEARNING with 10 test users leaves 12 training users for K = 8
/// models. Keeping 10% or 50% of them (Figure 14) leaves T = 1 or 6 < K,
/// so both tune in the T-space; at 100%, T = 12 tunes on the dense side.
#[test]
fn tuned_deeplearning_training_fractions_are_pinned() {
    let dataset = DatasetKind::DeepLearning.generate(2018);
    let mut digests = Vec::new();
    for train_fraction in [0.1, 0.5] {
        let cfg = ExperimentConfig {
            test_users: TEST_USERS,
            repetitions: 3,
            grid_points: 21,
            train_fraction,
            ..ExperimentConfig::default()
        };
        let result = run_experiment(&dataset, SchedulerKind::EaseMl, &cfg, 5);
        digests.push(experiment_digest(&result));
    }
    assert_eq!(digests, DEEPLEARNING_EXPERIMENT_DIGESTS);
}
