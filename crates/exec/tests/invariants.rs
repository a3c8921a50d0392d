//! Engine invariants that anchor the multi-device engine to the validated
//! serial simulator:
//!
//! 1. one unit-speed single-slot device reproduces the serial trajectory
//!    bit for bit (clean and faulty runs alike);
//! 2. slot-time is conserved: `Σ busy + Σ idle == capacity × makespan`;
//! 3. a mid-flight checkpoint, serialized through JSON and restored,
//!    finishes with the exact trace of the uninterrupted run;
//! 4. under chaos, crashed in-flight runs free their devices and every
//!    charged unit of cost is accounted exactly once.

use easeml::prelude::*;
use easeml_data::{Dataset, SynConfig};
use easeml_exec::{
    simulate_fleet_with_recorder, simulate_multi_device, DeviceSpec, ExecCheckpoint, ExecEngine,
    Fleet,
};
use easeml_gp::ArmPrior;
use easeml_obs::RecorderHandle;
use easeml_sched::PickRule;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
            let mut rng = StdRng::seed_from_u64(42);
            let serial = simulate(&d, &p, kind, &cfg, &mut rng);
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
        let mut rng = StdRng::seed_from_u64(5);
        let serial = simulate(&d, &p, kind, &cfg, &mut rng);
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
fn slot_time_is_conserved_for_every_fleet_shape() {
    let d = dataset(6, 4, 11);
    let p = priors(&d);
    let fleets: Vec<Vec<DeviceSpec>> = vec![
        vec![DeviceSpec::unit(); 4],
        vec![
            DeviceSpec::with_speed(2.0),
            DeviceSpec::with_speed(1.0),
            DeviceSpec::with_speed(0.5),
        ],
        vec![
            DeviceSpec {
                speed: 1.5,
                slots: 3,
            },
            DeviceSpec {
                speed: 0.75,
                slots: 2,
            },
        ],
    ];
    for (i, specs) in fleets.into_iter().enumerate() {
        for faulty in [false, true] {
            let mut cfg = SimConfig::new(9.0);
            if faulty {
                cfg.fault = Some(chaos(100 + i as u64));
            }
            let trace = simulate_fleet_with_recorder(
                &d,
                &p,
                SchedulerKind::Hybrid,
                &cfg,
                specs.clone(),
                13,
                &RecorderHandle::noop(),
            );
            let busy: f64 = trace.device_busy.iter().sum();
            let idle: f64 = trace.device_idle.iter().sum();
            let expected = trace.capacity as f64 * trace.makespan;
            assert!(
                (busy + idle - expected).abs() <= 1e-9 * expected.max(1.0),
                "fleet {i} faulty={faulty}: busy {busy} + idle {idle} != {expected}"
            );
            assert!(busy > 0.0, "fleet {i}: something must have run");
        }
    }
}

#[test]
fn mid_flight_checkpoint_replays_bit_identically() {
    let d = dataset(5, 4, 21);
    let p = priors(&d);
    let mut cfg = SimConfig::new(10.0);
    cfg.fault = Some(chaos(55));
    for kind in [SchedulerKind::Hybrid, SchedulerKind::RoundRobin] {
        let specs = vec![
            DeviceSpec::with_speed(2.0),
            DeviceSpec::unit(),
            DeviceSpec::unit(),
        ];
        let reference = simulate_fleet_with_recorder(
            &d,
            &p,
            kind,
            &cfg,
            specs.clone(),
            31,
            &RecorderHandle::noop(),
        );
        let mut engine = ExecEngine::new(
            &d,
            &p,
            kind,
            &cfg,
            Fleet::new(specs),
            31,
            RecorderHandle::noop(),
        );
        for _ in 0..6 {
            assert!(engine.tick(), "budget must outlast six ticks");
        }
        assert!(
            engine.in_flight_len() > 0,
            "the checkpoint must capture in-flight runs"
        );
        let encoded = engine.checkpoint().to_json();
        let decoded = ExecCheckpoint::from_json(&encoded).expect("parse checkpoint");
        let restored = ExecEngine::restore(&d, &p, &decoded).expect("restore checkpoint");
        let trace = restored.run();
        assert_eq!(
            trace,
            reference,
            "restored run must match the uninterrupted run bit for bit ({})",
            kind.name()
        );
    }
}

#[test]
fn chaos_frees_devices_and_accounts_every_charge_once() {
    let d = dataset(6, 5, 33);
    let p = priors(&d);
    let mut cfg = SimConfig::new(14.0);
    cfg.fault = Some(
        FaultConfig::new(8)
            .with_crash_rate(0.35)
            .with_timeout_rate(0.15),
    );
    let trace = simulate_multi_device(&d, &p, SchedulerKind::Hybrid, &cfg, 4, 17);
    assert!(trace.censored > 0, "crash rate 0.35 must censor something");
    assert_eq!(
        trace.dispatches,
        trace.sim.rounds + trace.censored,
        "every dispatch either completes or is censored"
    );
    let per_user: f64 = trace.user_cost.iter().sum();
    assert!(
        (per_user - trace.total_charged).abs() <= 1e-9 * trace.total_charged.max(1.0),
        "per-user charges {per_user} must sum to the total {}",
        trace.total_charged
    );
    assert!(
        trace.total_charged >= trace.sim.budget,
        "the engine stops dispatching only once the budget is committed"
    );
    // A crashed run frees its device at censoring time: the conservation law
    // then closes over the whole fleet, which would fail if a slot stayed
    // occupied past its (partial-cost) completion event.
    let busy: f64 = trace.device_busy.iter().sum();
    let idle: f64 = trace.device_idle.iter().sum();
    let expected = trace.capacity as f64 * trace.makespan;
    assert!(
        (busy + idle - expected).abs() <= 1e-9 * expected.max(1.0),
        "slot-time must be conserved under chaos"
    );
    // Clean traces on the same dataset differ — the faults really bit.
    let clean_cfg = SimConfig::new(14.0);
    let clean = simulate_multi_device(&d, &p, SchedulerKind::Hybrid, &clean_cfg, 4, 17);
    assert_eq!(clean.censored, 0);
    assert_ne!(clean.sim.events, trace.sim.events);
}

/// Enough time-zero arrivals per user that no backlog can empty before the
/// budget is committed.
fn flood_arrivals(engine: &mut ExecEngine, d: &Dataset, budget: f64) {
    let min_cost = (0..d.num_users())
        .flat_map(|u| (0..d.num_models()).map(move |m| d.cost(u, m)))
        .fold(f64::INFINITY, f64::min);
    let enough = (budget / min_cost).ceil() as usize + 8;
    for user in 0..d.num_users() {
        for _ in 0..enough {
            engine.push_arrival(user, 0.0);
        }
    }
}

#[test]
fn always_backlogged_open_loop_is_bit_identical_to_closed_loop() {
    use easeml_obs::InMemoryRecorder;
    use std::sync::Arc;
    let d = dataset(5, 4, 3);
    let p = priors(&d);
    let cfg = SimConfig::new(9.0);
    for kind in [
        SchedulerKind::Hybrid,
        SchedulerKind::Greedy(PickRule::MaxUcbGap),
        SchedulerKind::RoundRobin,
    ] {
        let digests = |events: &[easeml_obs::Event]| -> Vec<String> {
            events
                .iter()
                .filter_map(|e| match e {
                    easeml_obs::Event::DecisionWitness { round, digest, .. } => {
                        Some(format!("{round}:{digest}"))
                    }
                    _ => None,
                })
                .collect()
        };
        let closed_rec = Arc::new(InMemoryRecorder::new());
        let closed = ExecEngine::new(
            &d,
            &p,
            kind,
            &cfg,
            Fleet::uniform(3),
            7,
            RecorderHandle::new(closed_rec.clone()),
        )
        .run();
        let open_rec = Arc::new(InMemoryRecorder::new());
        let mut engine = ExecEngine::new(
            &d,
            &p,
            kind,
            &cfg,
            Fleet::uniform(3),
            7,
            RecorderHandle::new(open_rec.clone()),
        );
        engine.set_open_loop(true);
        flood_arrivals(&mut engine, &d, cfg.budget);
        let open = engine.run();
        assert_eq!(
            open,
            closed,
            "always-backlogged open loop must equal the closed loop ({})",
            kind.name()
        );
        assert_eq!(
            digests(&open_rec.events()),
            digests(&closed_rec.events()),
            "witness digest chains must be identical ({})",
            kind.name()
        );
    }
}

#[test]
fn open_loop_checkpoint_resumes_mid_replay_with_churn() {
    let d = dataset(5, 4, 21);
    let p = priors(&d);
    let mut cfg = SimConfig::new(10.0);
    cfg.fault = Some(chaos(55));
    // The external action script both runs share: staggered arrivals pushed
    // up-front, then a retirement after four ticks.
    let build = || {
        let mut engine = ExecEngine::new(
            &d,
            &p,
            SchedulerKind::Hybrid,
            &cfg,
            Fleet::uniform(2),
            31,
            RecorderHandle::noop(),
        );
        engine.set_open_loop(true);
        for i in 0..40u32 {
            for user in 0..d.num_users() {
                engine.push_arrival(user, 0.2 * f64::from(i) + 0.03 * user as f64);
            }
        }
        for _ in 0..4 {
            assert!(engine.tick());
        }
        engine.retire_tenant(1);
        engine
    };
    let reference = build().run();
    let mut engine = build();
    for _ in 0..3 {
        assert!(engine.tick());
    }
    let ck = engine.checkpoint();
    assert!(ck.open_loop, "open-loop flag must checkpoint");
    assert!(ck.retired[1], "retirement must checkpoint");
    assert!(
        !ck.arrivals.is_empty(),
        "pending arrivals must checkpoint mid-replay"
    );
    let decoded = ExecCheckpoint::from_json(&ck.to_json()).expect("parse checkpoint");
    let restored = ExecEngine::restore(&d, &p, &decoded).expect("restore checkpoint");
    let trace = restored.run();
    assert_eq!(
        trace, reference,
        "mid-replay restore must resume the workload bit-exactly"
    );
}

#[test]
fn makespan_shrinks_as_devices_are_added() {
    let d = dataset(6, 4, 41);
    let p = priors(&d);
    let cfg = SimConfig::new(12.0);
    let mut last = f64::INFINITY;
    for devices in [1usize, 2, 4] {
        let trace = simulate_multi_device(&d, &p, SchedulerKind::Hybrid, &cfg, devices, 23);
        assert!(
            trace.makespan < last,
            "makespan must strictly shrink: {devices} devices gave {} (previous {last})",
            trace.makespan
        );
        last = trace.makespan;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_simulation_invariants(
        (devices, seed) in (1usize..5, 0u64..100)
    ) {
        let d = dataset(5, 3, seed);
        let p = priors(&d);
        let cfg = SimConfig::new(6.0);
        let t = simulate_multi_device(&d, &p, SchedulerKind::RoundRobin, &cfg, devices, seed);
        // Completions are time-ordered with non-increasing losses.
        for w in t.sim.points.windows(2) {
            prop_assert!(w[1].0 >= w[0].0 - 1e-12);
            prop_assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        prop_assert_eq!(t.sim.points.len(), t.sim.rounds);
    }
}
