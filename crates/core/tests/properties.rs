//! Property-based tests for the simulation engine and experiment harness.

use easeml::fault::{FaultConfig, FaultInjector};
use easeml::prelude::*;
use easeml::server::{EaseMl, QualityOracle, TrainingOutcome};
use easeml_data::{Dataset, SynConfig};
use easeml_gp::ArmPrior;
use easeml_obs::{InMemoryRecorder, RecorderHandle};
use easeml_sched::PickRule;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

fn dataset(users: usize, models: usize, seed: u64) -> Dataset {
    SynConfig {
        num_users: users,
        num_models: models,
        ..SynConfig::paper(0.5, 0.5)
    }
    .generate(seed)
}

fn priors(users: usize, models: usize) -> Vec<ArmPrior> {
    (0..users)
        .map(|_| ArmPrior::independent(models, 0.05))
        .collect()
}

fn gp_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop::sample::select(vec![
        SchedulerKind::Fcfs,
        SchedulerKind::RoundRobin,
        SchedulerKind::Random,
        SchedulerKind::Greedy(PickRule::MaxUcbGap),
        SchedulerKind::Greedy(PickRule::MaxSigmaTilde),
        SchedulerKind::Greedy(PickRule::Random),
        SchedulerKind::Hybrid,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulation_invariants_hold_for_every_scheduler(
        (kind, seed, budget) in (gp_scheduler(), 0u64..200, 2.0f64..20.0)
    ) {
        let d = dataset(4, 3, seed);
        let p = priors(4, 3);
        let cfg = SimConfig {
            budget,
            cost_aware: true,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let t = simulate(&d, &p, kind, &cfg, &mut rng);

        // Budget is respected up to exactly one overshooting run.
        prop_assert!(!t.points.is_empty());
        let last = t.points.last().unwrap().0;
        prop_assert!(last >= budget);
        if t.points.len() >= 2 {
            prop_assert!(t.points[t.points.len() - 2].0 < budget);
        }
        // Costs strictly increase; losses never increase; all finite.
        for w in t.points.windows(2) {
            prop_assert!(w[1].0 > w[0].0);
            prop_assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        for &(c, l) in &t.points {
            prop_assert!(c.is_finite() && l.is_finite() && l >= 0.0);
        }
        // Final losses are bounded by each user's best quality.
        for (i, &l) in t.final_losses.iter().enumerate() {
            prop_assert!(l >= 0.0 && l <= d.best_quality(i) + 1e-12);
        }
        // The trace's last mean loss equals the mean of final losses.
        let mean_final: f64 =
            t.final_losses.iter().sum::<f64>() / t.final_losses.len() as f64;
        prop_assert!((t.points.last().unwrap().1 - mean_final).abs() < 1e-12);
    }

    #[test]
    fn resampling_is_monotone_in_the_fraction(
        (kind, seed) in (gp_scheduler(), 0u64..100)
    ) {
        let d = dataset(4, 3, seed);
        let p = priors(4, 3);
        let cfg = SimConfig {
            budget: 8.0,
            cost_aware: false,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let t = simulate(&d.unit_cost_view(), &p, kind, &cfg, &mut rng);
        let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        let curve = t.resample(&grid);
        for w in curve.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12, "loss increased along the grid");
        }
        prop_assert!(curve[0] <= t.initial_loss + 1e-12);
    }

    /// Under injected faults, cost accounting stays closed: every unit of
    /// simulated time the cluster spent — completed or censored — is
    /// charged to exactly one tenant, and the Theorem 1 regret
    /// decomposition recovered from the recorded trace still sums to its
    /// undecomposed total.
    #[test]
    fn fault_injection_preserves_cost_accounting_and_regret_consistency(
        (seed, crash, rounds) in (0u64..40, 0.05f64..0.45, 4usize..16)
    ) {
        let oracle: QualityOracle = Box::new(|user, model| {
            let info = model.info();
            Ok(TrainingOutcome {
                accuracy: (0.5 + 0.03 * user as f64
                    + 0.01 * (info.year as f64 - 2010.0))
                    .min(0.95),
                cost: info.relative_cost,
            })
        });
        let mut server = EaseMl::new(oracle, seed);
        server.set_fault_injector(Some(FaultInjector::new(
            FaultConfig::new(seed.wrapping_mul(2_654_435_761).wrapping_add(1))
                .with_crash_rate(crash)
                .with_timeout_rate(0.05)
                .with_stragglers(0.15, 2.5),
        )));
        let recorder = Arc::new(InMemoryRecorder::new());
        server.set_recorder(RecorderHandle::new(recorder.clone()));
        server
            .register_user(
                "vision",
                "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[5]], []}}",
            )
            .unwrap();
        server
            .register_user(
                "meteo",
                "{input: {[Tensor[16]], [next]}, output: {[Tensor[3]], []}}",
            )
            .unwrap();
        for _ in 0..rounds {
            server.run_round();
        }

        // Per-user charged cost (censored runs included) sums to the
        // cluster makespan: nothing the cluster executed is unattributed.
        let snap = server.status_snapshot();
        let charged: f64 = snap.users.iter().map(|u| u.cost).sum();
        prop_assert!(
            (charged - server.elapsed()).abs() <= 1e-9 * (1.0 + charged),
            "per-user cost {charged} vs makespan {}",
            server.elapsed()
        );
        prop_assert_eq!(
            snap.users.iter().map(|u| u.failed).sum::<usize>(),
            snap.failed_runs
        );
        prop_assert_eq!(snap.completed_runs, rounds);

        // The recorded trace replays to a consistent Theorem 1 split.
        let events = recorder.events_since(0);
        let report = easeml_trace::regret_report(&events, &BTreeMap::new());
        prop_assert!(report.is_consistent(1e-9), "{:?}", report);
        prop_assert_eq!(report.rounds, rounds as u64);
        prop_assert!(
            (report.clock - server.elapsed()).abs() <= 1e-9 * (1.0 + report.clock),
            "trace clock {} vs makespan {}",
            report.clock,
            server.elapsed()
        );
    }

    #[test]
    fn experiments_are_deterministic_and_well_formed(
        (seed, reps) in (0u64..50, 1usize..4)
    ) {
        let d = dataset(8, 4, seed);
        let cfg = ExperimentConfig {
            test_users: 3,
            repetitions: reps,
            budget: Budget::FractionOfRuns(0.5),
            grid_points: 11,
            tune_grid: easeml_gp::TuneGrid {
                scales: vec![1.0],
                noises: vec![1e-3],
            },
            ..ExperimentConfig::default()
        };
        let a = run_experiment(&d, SchedulerKind::Hybrid, &cfg, seed);
        let b = run_experiment(&d, SchedulerKind::Hybrid, &cfg, seed);
        prop_assert_eq!(&a.mean_curve, &b.mean_curve);
        prop_assert_eq!(a.final_losses.len(), reps);
        prop_assert_eq!(a.grid_pct.len(), 11);
        for (m, w) in a.mean_curve.iter().zip(&a.worst_curve) {
            prop_assert!(w + 1e-12 >= *m, "worst must dominate mean");
            prop_assert!(m.is_finite() && *m >= 0.0);
        }
    }
}
