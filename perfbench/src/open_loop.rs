//! `open-loop`: [`ReplayDriver`] over [`ExecEngine`] — seeded Poisson job
//! arrivals with tenant churn on a 16-device fleet, HYBRID scheduling and
//! a write-ahead log.
//!
//! About 16 runs are in flight, so every decision pays GP-BUCB
//! hallucination, event-queue and in-flight bookkeeping, arrival
//! absorption, eligibility flips and two WAL appends: `exec`, `workload`
//! and `wal` do the work here and nowhere else, and this is the only
//! workload with a queue. Histories stay near 20 jobs per tenant; at ~100
//! the GP refresh would dominate instead.
//!
//! One replay's inputs move its cost per decision by up to a fifth, so a
//! pass runs `REPLAYS` replays, each on its own inputs drawn from the
//! seed, and pools their decisions.

use crate::{
    log, median, secs, span, sub_seed, wal_options, Ctx, Fastest, Metrics, Report, WalStats,
};
use easeml::prelude::*;
use easeml_data::{Dataset, SynConfig};
use easeml_exec::{ExecEngine, ExecTrace, Fleet};
use easeml_gp::ArmPrior;
use easeml_obs::{InMemoryRecorder, QuantileSketch, RecorderHandle, RollingDigest};
use easeml_trace::workload_report;
use easeml_workload::{ArrivalKind, ChurnConfig, ReplayDriver, WorkloadScript};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 256;
const MODELS: usize = 20;
const DEVICES: usize = 16;

/// Offered load as a share of fleet capacity at the mean model cost.
const LOAD: f64 = 0.9;

/// Expected jobs per tenant over the horizon.
const JOBS_PER_TENANT: f64 = 20.0;

/// Replays per pass, each on its own inputs.
const REPLAYS: u64 = 8;

/// The inputs one seed names.
struct Inputs {
    data: Dataset,
    priors: Vec<ArmPrior>,
    cfg: SimConfig,
    script: WorkloadScript,
}

fn inputs(seed: u64, script_ms: &mut Vec<f64>) -> Inputs {
    let data = SynConfig {
        num_users: TENANTS,
        num_models: MODELS,
        ..SynConfig::paper(0.5, 0.5)
    }
    .generate(seed);
    let priors = (0..TENANTS)
        .map(|_| ArmPrior::independent(MODELS, 0.05))
        .collect();
    let mean_cost = data.total_cost() / (TENANTS * MODELS) as f64;
    let rate = LOAD * DEVICES as f64 / mean_cost / TENANTS as f64;
    let horizon = JOBS_PER_TENANT / rate;
    let churn = ChurnConfig::new(horizon / 4.0, horizon / 8.0);
    let t = Instant::now();
    let script = {
        let _s = span("bench/script");
        WorkloadScript::synthetic(
            TENANTS,
            ArrivalKind::Poisson { rate },
            horizon,
            Some(&churn),
            seed,
        )
    };
    script_ms.push(secs(t) * 1e3);
    Inputs {
        data,
        priors,
        // The budget never binds: the replay ends when the arrivals do.
        cfg: SimConfig::new(1e12),
        script,
    }
}

/// The engine with its warm-up pass done (every tenant's cheapest model).
fn engine<'a>(inputs: &'a Inputs, seed: u64, recorder: RecorderHandle) -> ExecEngine<'a> {
    ExecEngine::new(
        &inputs.data,
        &inputs.priors,
        SchedulerKind::Hybrid,
        &inputs.cfg,
        Fleet::uniform(DEVICES),
        seed,
        recorder,
    )
}

/// What one replay leaves behind.
struct Replay {
    digest: String,
    trace: ExecTrace,
    arrivals: usize,
    /// WAL counter growth over the measured steps.
    wal: WalStats,
    setup_s: f64,
}

/// Mean over tenants of best achievable minus best found accuracy.
fn mean_loss(trace: &ExecTrace) -> f64 {
    trace.sim.final_losses.iter().sum::<f64>() / TENANTS as f64
}

/// Sets up one replay on the inputs of `seed`, steps it to the end
/// (recording each step's µs in `step_us`) and checks its trace.
fn replay(
    ctx: &mut Ctx,
    seed: u64,
    wal_dir: &Path,
    step_us: &mut Vec<f64>,
    script_ms: &mut Vec<f64>,
) -> Option<Replay> {
    let _ = std::fs::remove_dir_all(wal_dir);
    ctx.tally
        .call("create WAL directory", std::fs::create_dir_all(wal_dir))?;
    let durability = ctx
        .tally
        .call("open WAL", Durability::open(wal_dir, wal_options()))?;
    let t = Instant::now();
    let setup = span("bench/setup");
    let inputs = inputs(seed, script_ms);
    let arrivals = inputs.script.arrivals();
    let mut engine = engine(&inputs, seed, RecorderHandle::noop());
    engine.set_durability(durability);
    if let Some(tracing) = &ctx.tracing {
        engine.durability().set_recorder(tracing.wal_recorder());
    }
    let mut driver = ReplayDriver::new(engine, inputs.script.clone());
    drop(setup);
    let setup_s = secs(t);

    let before = WalStats::read(ctx, driver.engine().durability());
    if let Some(tracing) = &ctx.tracing {
        tracing.timers(true);
    }
    step_us.clear();
    loop {
        let t = Instant::now();
        let more = {
            let _s = span("bench/step");
            driver.step()
        };
        step_us.push(secs(t) * 1e6);
        ctx.tally.ran();
        if !more {
            break;
        }
    }
    if let Some(tracing) = &ctx.tracing {
        tracing.timers(false);
    }
    let wal = WalStats::read(ctx, driver.engine().durability()).since(&before);
    wal.check_no_sync(&mut ctx.tally);
    let digest = driver.engine().state_digest();
    let trace = driver.run();

    let total = trace.makespan * trace.capacity as f64;
    let accounted: f64 = trace.device_busy.iter().chain(&trace.device_idle).sum();
    ctx.tally.check(
        "busy + idle slot-time equals capacity x makespan",
        (accounted - total).abs() <= 1e-9 * total.max(1.0),
    );
    ctx.tally.check(
        "dispatches equal completed plus censored runs",
        trace.dispatches == trace.sim.rounds + trace.censored,
    );
    ctx.tally.check(
        "served jobs do not exceed arrived jobs",
        trace.dispatches <= arrivals,
    );
    Some(Replay {
        digest,
        trace,
        arrivals,
        wal,
        setup_s,
    })
}

pub(crate) fn run(ctx: &mut Ctx) -> Report {
    let wal_dir = ctx.state_dir.join("open-loop-wal");
    let mut setup_s = Vec::new();
    let mut script_ms = Vec::new();
    let mut fastest = Fastest::new(REPLAYS as usize);
    // Per-replay digests and losses of the first pass.
    let mut first: Option<Vec<(String, f64)>> = None;
    // The last pass's replays; every pass is the same.
    let mut last = Vec::new();
    let mut step_us = Vec::new();
    let passes = ctx.repeat(|ctx| {
        let mut replays = Vec::new();
        for k in 0..REPLAYS {
            let seed = sub_seed(ctx.seed, k);
            let Some(replay) = replay(ctx, seed, &wal_dir, &mut step_us, &mut script_ms) else {
                return false;
            };
            setup_s.push(replay.setup_s);
            let dispatches = replay.trace.dispatches as f64;
            fastest.add(k as usize, dispatches, &step_us);
            replays.push(replay);
        }
        let outcomes: Vec<(String, f64)> = replays
            .iter()
            .map(|r| (r.digest.clone(), mean_loss(&r.trace)))
            .collect();
        last = replays;
        let same = match &first {
            Some(first) => *first == outcomes,
            None => {
                first = Some(outcomes);
                true
            }
        };
        ctx.tally
            .check("pass reproduces the first pass's digests", same)
            && ctx.tally.clean()
    });
    let _ = std::fs::remove_dir_all(&wal_dir);
    let Some(first) = first else {
        return Report {
            digest: String::new(),
            metrics: Metrics::default(),
        };
    };
    let mut digest = RollingDigest::new();
    for (replay_digest, _) in &first {
        digest.absorb_str(replay_digest);
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s), "s");
    fastest.report(
        &mut m,
        &format!(
            "ReplayDriver::step calls of {REPLAYS} replays, \
             each call's fastest of {passes} pass(es)"
        ),
    );
    let loss = first.iter().map(|(_, loss)| loss).sum::<f64>() / first.len() as f64;
    m.set("sim.loss", loss, "accuracy");

    if let Some(tracing) = &ctx.tracing {
        let sum = |f: fn(&Replay) -> f64| last.iter().map(f).sum::<f64>();
        let dispatches = sum(|r| r.trace.dispatches as f64);
        let decisions = (passes as f64 * dispatches) as u64;
        let phases = crate::trace::layer_metrics(&mut m, tracing, "bench/step", decisions);
        m.set("workload.step_us", phases.root.total_us(), "us");
        m.set("workload.script_ms", median(&script_ms), "ms");
        let arrivals = sum(|r| r.arrivals as f64);
        m.set("workload.served_ratio", dispatches / arrivals, "ratio");
        let capacity = sum(|r| r.trace.makespan * r.trace.capacity as f64);
        let busy = sum(|r| r.trace.device_busy.iter().sum());
        m.set("exec.busy_ratio", busy / capacity, "ratio");
        let parallel = sum(|r| r.trace.parallel_dispatches as f64);
        m.set("exec.parallel_ratio", parallel / dispatches, "ratio");
        let tenants = (passes as u64 * REPLAYS) as f64 * TENANTS as f64;
        let roots = ["bench/setup", "bench/step"];
        crate::trace::set_obs_per_tenant(&mut m, tracing, &roots, tenants);
        let wal = last.iter().map(|r| r.wal).reduce(|a, b| a.plus(&b));
        wal.unwrap_or_default().report(dispatches, tracing, &mut m);
        let (delay_p50, delay_p99) = queue_delays(ctx, &first);
        m.set("sim.queue_delay_p50", delay_p50, "sim_time");
        m.set("sim.queue_delay_p99", delay_p99, "sim_time");
    }
    Report {
        digest: digest.hex(),
        metrics: m,
    }
}

/// Replays every input once more with a recorder attached and returns the
/// median and p99 of the arrival-to-dispatch delay, FIFO-matched per
/// tenant by [`easeml_trace::workload_report`]. Each replay must make the
/// untraced decisions, whose digests `first` holds.
fn queue_delays(ctx: &mut Ctx, first: &[(String, f64)]) -> (f64, f64) {
    let mut delays = QuantileSketch::default();
    let (mut served, mut arrivals) = (0, 0);
    for (k, (digest, _)) in (0..REPLAYS).zip(first) {
        let seed = sub_seed(ctx.seed, k);
        let inputs = inputs(seed, &mut Vec::new());
        let recorder = Arc::new(InMemoryRecorder::new());
        let engine = engine(&inputs, seed, RecorderHandle::new(recorder.clone()));
        let mut driver = ReplayDriver::new(engine, inputs.script.clone());
        while driver.step() {}
        ctx.tally.check(
            "recorder-attached replay makes the untraced decisions",
            driver.engine().state_digest() == *digest,
        );
        let report = workload_report(&recorder.events());
        let replay_served: u64 = report.per_tenant.values().map(|t| t.served).sum();
        ctx.tally.check(
            "every dispatch serves an arrived job",
            replay_served > 0
                && report.queueing_delay.count() == replay_served
                && replay_served + report.backlogged() == report.arrivals,
        );
        delays.merge(&report.queueing_delay);
        served += replay_served;
        arrivals += report.arrivals;
    }
    let quantile = |q| delays.quantile(q).unwrap_or(0.0);
    let (p50, p99) = (quantile(0.5), quantile(0.99));
    log(&format!(
        "open-loop: queue delay p50 {p50:.4}, p99 {p99:.4} \
         (simulated time, {served} of {arrivals} jobs served)"
    ));
    (p50, p99)
}
