//! Hot-path profile of the simulator under a live span profiler,
//! with the counting allocator installed so every phase also carries the
//! allocations made in its self windows.
//!
//! The default test checks the profile's structural health at small tenant
//! counts. The ignored test runs the same workload at U ∈ {1k, 10k, 100k}
//! and fits the empirical scaling exponents: `pick_user` scans all U
//! tenants (~O(U)), while `posterior_update` touches one 20-arm posterior
//! and must stay ~O(1). It is a wall-clock fit, so run it optimised:
//!
//! ```text
//! cargo test --release -p easeml-core --test profile_scaling -- --ignored
//! ```

use easeml::prelude::*;
use easeml_data::SynConfig;
use easeml_gp::ArmPrior;
use easeml_obs::{
    scaling_exponents, set_global_profiler, CallTreeProfile, CountingAlloc, Profiler,
    RecorderHandle,
};
use easeml_sched::PickRule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// The global profiler is process state, so the tests take turns.
static PROFILER: Mutex<()> = Mutex::new(());

const SEED: u64 = 20_180_801;

/// Profiles `steps` rounds over `users` tenants x 20 models with unit costs
/// and no faults. The rounds are scheduled by the greedy max-UCB-gap rule,
/// not HYBRID, whose freeze decays into round robin and would wash the
/// `pick_user` exponent out. The recorder is a noop handle: the profiler
/// hooks on span enter and exit fire anyway, so the profile times the
/// simulation's own work.
fn profile(users: usize, steps: usize) -> CallTreeProfile {
    let dataset = SynConfig {
        num_users: users,
        num_models: 20,
        ..SynConfig::paper(0.5, 1.0)
    }
    .generate(SEED)
    .unit_cost_view();
    let priors: Vec<ArmPrior> = (0..users)
        .map(|_| ArmPrior::independent(20, 0.05))
        .collect();
    let cfg = SimConfig {
        budget: steps as f64,
        cost_aware: false,
        noise_var: 1e-3,
        delta: 0.1,
        fault: None,
    };
    let profiler = Arc::new(Profiler::new());
    let previous = set_global_profiler(Some(profiler.clone()));
    let _ = simulate_with_recorder(
        &dataset,
        &priors,
        SchedulerKind::Greedy(PickRule::MaxUcbGap),
        &cfg,
        &mut StdRng::seed_from_u64(SEED ^ users as u64),
        &RecorderHandle::noop(),
    );
    set_global_profiler(previous);
    profiler.snapshot()
}

/// Every span exit was recorded, allocations were attributed, and named
/// child phases cover at least 95% of `scheduler_step` wall time.
fn assert_healthy(users: usize, profile: &CallTreeProfile) {
    assert_eq!(
        profile.dropped_exits, 0,
        "u={users}: profiler dropped span exits"
    );
    let (attributed, total) = profile
        .phase_coverage("scheduler_step")
        .expect("every run records scheduler steps");
    assert!(
        attributed as f64 >= 0.95 * total as f64,
        "u={users}: only {attributed} of {total} scheduler_step ns attributed (need 95%)"
    );
    // A completion appends to the trajectory, whose buffers grow.
    let complete = profile.find(&["scheduler_step", "complete"]).unwrap();
    assert!(
        complete.allocs > 0,
        "u={users}: no allocations attributed; is the counting allocator installed?"
    );
}

#[test]
fn profile_captures_the_step_phases() {
    let _turn = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    for users in [5, 50] {
        let profile = profile(users, 40);
        assert_healthy(users, &profile);
        let step = profile.find(&["scheduler_step"]).unwrap();
        assert_eq!(step.count, 40, "unit costs: one step per budget unit");
        let phases: Vec<String> = profile.phase_table().into_iter().map(|p| p.name).collect();
        for phase in [
            "scheduler_step",
            "pick_user",
            "pick_arm",
            "dispatch",
            "complete",
            "posterior_update",
        ] {
            assert!(
                phases.iter().any(|p| p == phase),
                "u={users}: missing phase {phase} in {phases:?}"
            );
        }
    }
}

#[test]
#[ignore = "wall-clock scaling fit over 100k tenants; run with --release -- --ignored"]
fn pick_user_scales_linearly_and_posterior_update_stays_flat_in_tenants() {
    let _turn = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let runs: Vec<(usize, CallTreeProfile)> = [1_000, 10_000, 100_000]
        .into_iter()
        .map(|users| (users, profile(users, 200)))
        .collect();
    for (users, profile) in &runs {
        assert_healthy(*users, profile);
    }
    let refs: Vec<(usize, &CallTreeProfile)> = runs.iter().map(|(u, p)| (*u, p)).collect();
    let fits = scaling_exponents(&refs);
    let exponent = |phase: &str| {
        fits.iter()
            .find(|f| f.phase == phase)
            .unwrap_or_else(|| panic!("no scaling fit for {phase}"))
            .exponent
    };
    let pick = exponent("pick_user");
    assert!(
        (0.5..1.6).contains(&pick),
        "pick_user should scale ~O(U), fitted O(U^{pick:.2})"
    );
    let update = exponent("posterior_update");
    assert!(
        update < 0.5,
        "posterior_update should be ~O(1) in U, fitted O(U^{update:.2})"
    );
}
