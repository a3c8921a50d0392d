//! Ablation: single pooled device vs a 4-device GP-BUCB fleet
//! (§5.3.2's discussion).
//!
//! Both alternatives consume the same GPU-time. The shipped design treats
//! the whole pool as one device, so every run finishes `d×` faster in
//! wall-clock; the alternative is the `easeml::exec` engine on `d` unit
//! devices, each training one model at full cost while GP-BUCB
//! hallucination keeps concurrent runs of the same user on different
//! models. The paper observed the single-device option achieves lower
//! accumulated regret — it returns a model to *someone* sooner.

use easeml::exec::simulate_multi_device;
use easeml::prelude::*;
use easeml_bench::{banner, reps, seed};
use easeml_data::Dataset;
use easeml_gp::ArmPrior;
use easeml_linalg::vec_ops;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "Ablation",
        "Single pooled device vs 4-device GP-BUCB fleet (same GPU-time, DEEPLEARNING)",
    );
    let devices = 4usize;
    let dataset = easeml_data::DatasetKind::DeepLearning.generate(seed());
    let repetitions = reps().min(25);

    // Wall-clock horizon: enough for ~3 pooled runs per user on average.
    let test_users = 10usize;
    let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
    let mut pooled_curves = Vec::new();
    let mut fleet_curves = Vec::new();

    for rep in 0..repetitions {
        let mut split_rng = StdRng::seed_from_u64(seed() + rep as u64);
        let split =
            easeml_data::TrainTestSplit::random(dataset.num_users(), test_users, &mut split_rng);
        let test = dataset.select_users(&split.test_users);
        let horizon = test.total_cost() * 0.10 / devices as f64; // wall-clock
        let priors: Vec<ArmPrior> = (0..test_users)
            .map(|_| ArmPrior::independent(test.num_models(), 0.02).with_mean(vec![0.8; 8]))
            .collect();
        let cfg = SimConfig {
            budget: horizon,
            cost_aware: true,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        // Pooled: all GPUs on one model — costs divided by d, serial.
        let pooled_dataset = Dataset::new(
            test.name().to_string(),
            test.quality_matrix().clone(),
            test.cost_matrix().scaled(1.0 / devices as f64),
        );
        let mut rng = StdRng::seed_from_u64(seed() ^ rep as u64);
        let pooled = simulate(
            &pooled_dataset,
            &priors,
            SchedulerKind::EaseMl,
            &cfg,
            &mut rng,
        );
        // Fleet: d devices at full cost. The engine's budget is GPU-time,
        // d× the pooled wall-clock horizon; its points are keyed by
        // wall-clock, so both curves are read on the same time grid.
        let fleet_cfg = SimConfig {
            budget: horizon * devices as f64,
            ..cfg.clone()
        };
        let fleet = simulate_multi_device(
            &test,
            &priors,
            SchedulerKind::EaseMl,
            &fleet_cfg,
            devices,
            seed() ^ rep as u64,
        );
        pooled_curves.push(pooled.resample(&grid));
        fleet_curves.push(
            grid.iter()
                .map(|f| fleet.sim.loss_at(f * horizon))
                .collect::<Vec<_>>(),
        );
    }

    println!(
        "{:>12} {:>18} {:>18}",
        "% wallclock", "pooled (1 device)", "4-device fleet"
    );
    for (i, f) in grid.iter().enumerate() {
        let p = vec_ops::mean(&pooled_curves.iter().map(|c| c[i]).collect::<Vec<_>>());
        let q = vec_ops::mean(&fleet_curves.iter().map(|c| c[i]).collect::<Vec<_>>());
        println!("{:>12.0} {:>18.4} {:>18.4}", f * 100.0, p, q);
    }
    println!();
    println!("expected shape: the pooled single device leads early (it returns");
    println!("someone a model sooner), matching ease.ml's shipped design choice.");
}
