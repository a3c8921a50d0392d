//! `zoo-batch`: the paper's evaluation protocol (§5.2), run the way the
//! `easeml-sim` driver and the figure benches run it.
//!
//! Each repetition is one `run_experiment` call with EASE.ML scheduling on
//! 179CLASSIFIER: a random split with 10 test users, the dense 179×179
//! empirical prior, the 3×3 log-marginal-likelihood tuning grid and a
//! budget of 10% of the test users' total cost. Every round refreshes a
//! 179-arm posterior over 50–100 observations while the user picker sees
//! only 10 tenants, so `gp`, `linalg` and `bandit` do the work here and
//! `sched` almost none.

use crate::{log, median, secs, span, sub_seed, Ctx, Metrics, Report, Spread, DEFAULT_SEED};
use easeml::experiment::{empirical_prior, run_experiment, ExperimentConfig};
use easeml::sim::{simulate, SchedulerKind, SimConfig};
use easeml_data::{Dataset, DatasetKind, TrainTestSplit};
use easeml_exec::simulate_multi_device;
use easeml_gp::ArmPrior;
use easeml_obs::RollingDigest;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Repetitions per pass; repetition `r` draws its split from
/// `sub_seed(seed, r)`. Every pass runs the same repetitions, and each
/// repetition is timed by its fastest pass: this workload's dense
/// 179×179 algebra slows by up to half when neighbours load the shared
/// caches, and that load only ever adds time.
const REPS: u64 = 32;

/// The paper evaluates one fixed 179CLASSIFIER matrix over random splits,
/// so the surrogate matrix is generated from this constant and the
/// workload seed draws the splits.
const DATASET_SEED: u64 = DEFAULT_SEED;

/// Dataset generations per pass, for a steadier `setup_s`.
const SETUPS: usize = 5;

/// Runs of each engine behind `exec.d1_over_serial`.
const D1_RUNS: usize = 3;

fn non_increasing(curve: &[f64]) -> bool {
    curve.windows(2).all(|w| w[1] <= w[0])
}

pub(crate) fn run(ctx: &mut Ctx) -> Report {
    let seed = ctx.seed;
    let cfg = ExperimentConfig {
        repetitions: 1,
        ..ExperimentConfig::default()
    };
    let mut setup_s = Vec::new();
    // Fastest time of each repetition over the passes so far, and its rounds.
    let mut best_s = vec![f64::INFINITY; REPS as usize];
    let mut rounds = vec![0.0; REPS as usize];
    // The first pass's digest and mean loss.
    let mut first: Option<(String, f64)> = None;
    let passes = ctx.repeat(|ctx| {
        let dataset = (0..SETUPS)
            .map(|_| {
                let t = Instant::now();
                let _s = span("bench/setup");
                let dataset = DatasetKind::Classifier179.generate(DATASET_SEED);
                setup_s.push(secs(t));
                dataset
            })
            .last()
            .expect("SETUPS is positive");
        if let Some(tracing) = &ctx.tracing {
            tracing.timers(true);
        }
        let mut digest = RollingDigest::new();
        let mut loss = 0.0;
        for rep in 0..REPS as usize {
            let t = Instant::now();
            let result = {
                let _s = span("bench/rep");
                let rep_seed = sub_seed(seed, rep as u64);
                run_experiment(&dataset, SchedulerKind::EaseMl, &cfg, rep_seed)
            };
            best_s[rep] = best_s[rep].min(secs(t));
            ctx.tally.ran();
            rounds[rep] = result.mean_rounds;
            ctx.tally.check(
                &format!("repetition {rep} ran rounds"),
                result.mean_rounds > 0.0,
            );
            ctx.tally.check(
                &format!("repetition {rep} curves are non-increasing"),
                non_increasing(&result.mean_curve) && non_increasing(&result.worst_curve),
            );
            for x in result
                .mean_curve
                .iter()
                .chain(&result.worst_curve)
                .chain(&result.final_losses)
            {
                digest.absorb_f64(*x);
            }
            digest.absorb_f64(result.mean_rounds);
            loss += result.final_losses.iter().sum::<f64>() / result.final_losses.len() as f64;
        }
        if let Some(tracing) = &ctx.tracing {
            tracing.timers(false);
        }
        let digest = digest.hex();
        let first = first.get_or_insert_with(|| (digest.clone(), loss / REPS as f64));
        ctx.tally
            .check("pass reproduces the first pass's digest", first.0 == digest)
    });
    let (digest, loss) = first.expect("the first pass always completes");
    let pass_rounds: f64 = rounds.iter().sum();
    log(&format!(
        "zoo-batch: {passes} pass(es) of {REPS} repetitions, {:.1} rounds per repetition",
        pass_rounds / REPS as f64
    ));

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s), "s");
    let rates: Vec<f64> = rounds.iter().zip(&best_s).map(|(r, t)| r / t).collect();
    m.set_rate(&rates);
    let mut us_per_round: Vec<f64> = rates.iter().map(|r| 1e6 / r).collect();
    m.set_latency(
        Spread::of(&mut us_per_round),
        &format!("per repetition, its fastest time of {passes} pass(es) / its rounds"),
    );
    m.set("sim.loss", loss, "accuracy");
    if let Some(tracing) = &ctx.tracing {
        let decisions = (passes as f64 * pass_rounds) as u64;
        crate::trace::layer_metrics(&mut m, tracing, "bench/rep", decisions);
        let tenants = (passes as u64 * REPS) as f64 * cfg.test_users as f64;
        crate::trace::set_obs_per_tenant(&mut m, tracing, &["bench/rep"], tenants);
        let d1 = d1_over_serial(ctx, &DatasetKind::Classifier179.generate(DATASET_SEED));
        m.set("exec.d1_over_serial", d1, "ratio");
    }
    Report { digest, metrics: m }
}

/// Rounds per second of the exec engine at one unit device divided by the
/// serial simulator's, on one split of `dataset`. The two must make the
/// same decisions.
fn d1_over_serial(ctx: &mut Ctx, dataset: &Dataset) -> f64 {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let split = TrainTestSplit::random(dataset.num_users(), 10, &mut rng);
    let test = dataset.select_users(&split.test_users);
    let (means, cov) = empirical_prior(dataset, &split.train_users);
    let priors = vec![ArmPrior::from_gram(cov).with_mean(means); test.num_users()];
    let cfg = SimConfig::new(test.total_cost() * 0.1);
    let (mut serial_s, mut exec_s) = (Vec::new(), Vec::new());
    let (mut serial, mut exec) = (None, None);
    for _ in 0..D1_RUNS {
        let t = Instant::now();
        let trace = {
            let _s = span("bench/serial");
            let mut sim_rng = StdRng::seed_from_u64(ctx.seed);
            simulate(&test, &priors, SchedulerKind::EaseMl, &cfg, &mut sim_rng)
        };
        serial_s.push(secs(t) / trace.rounds.max(1) as f64);
        serial = Some(trace);
        let t = Instant::now();
        let trace = {
            let _s = span("bench/exec-d1");
            simulate_multi_device(&test, &priors, SchedulerKind::EaseMl, &cfg, 1, ctx.seed)
        };
        exec_s.push(secs(t) / trace.sim.rounds.max(1) as f64);
        exec = Some(trace);
    }
    let (serial, exec) = (serial.expect("ran"), exec.expect("ran"));
    ctx.tally.check(
        "exec at one device makes the serial simulator's decisions",
        serial.rounds == exec.sim.rounds && serial.final_losses == exec.sim.final_losses,
    );
    median(&serial_s) / median(&exec_s)
}
