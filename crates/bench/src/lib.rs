//! Shared helpers for the figure-regeneration bench targets.
//!
//! Every bench target in `benches/` is a `harness = false` binary.
//! `fig00_micro` times the hot paths with criterion; the others run an
//! experiment of the paper's §5 (or an ablation or regret check beside one)
//! and print the same rows/series the figure plots, plus a CSV dump under
//! `target/experiments/`. Two environment variables tune the scale:
//!
//! * `EASEML_REPS` — number of repetitions per experiment (default 50, the
//!   paper's setting; lower it for quick smoke runs);
//! * `EASEML_SEED` — base RNG seed (default 20180801).
//!
//! The system's own costs, end to end and per layer, are measured by the
//! repository benchmark (`python3 perfbench/run.py`, see
//! `perfbench/README.md`), not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use easeml::prelude::*;
use easeml::report;
use easeml_data::Dataset;

/// Number of experiment repetitions, from `EASEML_REPS` (default 50).
pub fn reps() -> usize {
    std::env::var("EASEML_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(50)
}

/// Base seed, from `EASEML_SEED` (default 20180801).
pub fn seed() -> u64 {
    std::env::var("EASEML_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_180_801)
}

/// Prints the figure banner.
pub fn banner(id: &str, title: &str) {
    println!("==========================================================");
    println!("{id}: {title}");
    println!(
        "repetitions = {}, seed = {} (override with EASEML_REPS / EASEML_SEED)",
        reps(),
        seed()
    );
    println!("==========================================================");
}

/// Runs one scheduler with progress output.
pub fn run(
    dataset: &Dataset,
    scheduler: SchedulerKind,
    cfg: &ExperimentConfig,
) -> ExperimentResult {
    let start = std::time::Instant::now();
    let r = run_experiment(dataset, scheduler, cfg, seed());
    println!(
        "  {:<22} on {:<14} done in {:6.1}s  (mean rounds/rep: {:.0})",
        scheduler.name(),
        dataset.name(),
        start.elapsed().as_secs_f64(),
        r.mean_rounds
    );
    r
}

/// Prints the curves table (sampled every 10%) and dumps the CSV.
pub fn emit(id: &str, results: &[ExperimentResult]) {
    println!();
    println!("{}", report::curves_table(results, 10));
    if let Some(p) = report::dump_csv(id, results) {
        println!("csv: {}", p.display());
    }
    println!();
}

/// Prints the speedup of `fast` over each slower competitor at the loss
/// level `target`, the paper's headline metric. When a competitor never
/// reaches the target within the budget, a lower bound (`>= 100 / t_fast`)
/// is printed instead — the paper's "up to N×" reading.
pub fn print_speedups(results: &[ExperimentResult], fast_idx: usize, target: f64, metric: &str) {
    let fast = &results[fast_idx];
    let pick = |r: &ExperimentResult| -> Vec<f64> {
        match metric {
            "worst" => r.worst_curve.clone(),
            _ => r.mean_curve.clone(),
        }
    };
    let fast_curve = pick(fast);
    let t_fast = AggregatedCurves::time_to_reach(&fast.grid_pct, &fast_curve, target);
    for (i, slow) in results.iter().enumerate() {
        if i == fast_idx {
            continue;
        }
        let slow_curve = pick(slow);
        let label = format!(
            "  speedup of {} over {} at {metric} loss {target:.3}",
            fast.scheduler.name(),
            slow.scheduler.name()
        );
        match speedup_factor(&fast.grid_pct, &slow_curve, &fast_curve, target) {
            Some(s) => println!("{label}: {s:.1}x"),
            None => match t_fast {
                Some(t) if t > 0.0 => {
                    println!(
                        "{label}: >= {:.1}x (competitor never reaches it)",
                        100.0 / t
                    )
                }
                _ => println!("{label}: n/a (target not reached)"),
            },
        }
    }
}

/// The mean-loss value `fast` reaches after `pct` percent of the budget —
/// the anchor the paper uses ("taking the loss from 0.1 down to 0.02").
pub fn loss_at_pct(result: &ExperimentResult, pct: f64, metric: &str) -> f64 {
    let curve = match metric {
        "worst" => &result.worst_curve,
        _ => &result.mean_curve,
    };
    let idx = result
        .grid_pct
        .iter()
        .position(|&g| g >= pct)
        .unwrap_or(curve.len() - 1);
    curve[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Do not set the env vars here (tests run in parallel); just check
        // the defaults are sane when unset or the parse falls back.
        assert!(reps() > 0);
        let _ = seed();
    }
}
