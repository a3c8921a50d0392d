//! `service-1k`: the [`EaseMl`] service façade under 1,000 tenants, with
//! write-ahead durability, one checkpoint, a crash and recovery.
//!
//! HYBRID's greedy phase scans every tenant in both `pick` and
//! `after_observe`, while each tenant's GP holds at most 8 independent
//! arms, so `sched` dominates decision time here. It is also the only
//! workload that exercises the façade, the checkpoint codec and recovery.
//!
//! How long HYBRID stays greedy before it freezes into round robin depends
//! on the oracle: from about ten to a few hundred rounds. A pass therefore
//! runs `SERVICES` independent services, each with its own oracle drawn
//! from the seed, and pools their rounds, so one input's switch point does
//! not decide the throughput or tail.

use crate::{
    log, median, secs, span, sub_seed, wal_options, Ctx, Fastest, Metrics, Report, WalStats,
};
use easeml::prelude::*;
use easeml_data::{Dataset, SynConfig};
use easeml_obs::RollingDigest;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 1000;

/// Services per pass, each with its own oracle.
const SERVICES: u64 = 16;

/// Tenants cycle through these programs: image classification on two
/// shapes (8 candidate models each) and time-series classification (4).
const PROGRAMS: [&str; 3] = [
    "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[5]], []}}",
    "{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[10]], []}}",
    "{input: {[Tensor[16]], [next]}, output: {[Tensor[3]], []}}",
];

/// Models in the zoo: the oracle's dataset has one column per `ModelId`.
const ZOO_MODELS: usize = 20;

/// Measured rounds per service, after the warm-up round of every tenant.
/// The checkpoint is taken just before them and the crash comes after the
/// last one, so recovery replays all of them.
const LIVE_ROUNDS: usize = 3000;

/// A seeded synthetic oracle: quality and cost of `(tenant, model)` are
/// cells of a SYN(0.5, 0.5) matrix with one column per zoo model.
fn oracle(data: Arc<Dataset>) -> QualityOracle {
    Box::new(move |user, model| {
        let m = model as usize;
        Ok(TrainingOutcome {
            accuracy: data.quality(user, m),
            cost: data.cost(user, m),
        })
    })
}

/// Builds one service on an opened WAL: oracle, registration and every
/// tenant's warm-up round.
fn set_up(ctx: &mut Ctx, seed: u64, wal: Durability) -> Option<(EaseMl, Arc<Dataset>)> {
    let data = Arc::new(
        SynConfig {
            num_users: TENANTS,
            num_models: ZOO_MODELS,
            ..SynConfig::paper(0.5, 0.5)
        }
        .generate(seed),
    );
    let mut server = EaseMl::new(oracle(data.clone()), seed);
    server.set_durability(wal);
    if let Some(tracing) = &ctx.tracing {
        server.durability().set_recorder(tracing.wal_recorder());
    }
    for user in 0..TENANTS {
        let _s = span("bench/register");
        let program = PROGRAMS[user % PROGRAMS.len()];
        ctx.tally.call(
            "register tenant",
            server.register_user(&format!("tenant-{user}"), program),
        )?;
    }
    for _ in 0..TENANTS {
        let _s = span("bench/warm-up");
        ctx.tally.call("warm-up round", server.try_run_round())?;
    }
    Some((server, data))
}

/// Mean over tenants of best achievable quality minus best found.
fn mean_loss(server: &EaseMl, data: &Dataset) -> f64 {
    let loss: f64 = (0..server.num_users())
        .map(|user| {
            let best = server
                .job(user)
                .candidate_models()
                .iter()
                .map(|&model| data.quality(user, model as usize))
                .fold(f64::NEG_INFINITY, f64::max);
            let found = server.infer(user).map_or(0.0, |(_, q)| q);
            best - found
        })
        .sum();
    loss / server.num_users() as f64
}

/// Where one service keeps its durable state.
struct Dirs {
    root: PathBuf,
    wal: PathBuf,
    checkpoint: PathBuf,
}

/// What one service's run leaves behind.
struct Service {
    digest: String,
    loss: f64,
    data: Arc<Dataset>,
    setup_s: f64,
    checkpoint_ms: f64,
    wal: WalStats,
}

/// Sets up one service, checkpoints it, runs its measured rounds
/// (recording each round's µs in `round_us`) and lets it crash at the end.
fn run_service(ctx: &mut Ctx, seed: u64, dirs: &Dirs, round_us: &mut Vec<f64>) -> Option<Service> {
    let _ = std::fs::remove_dir_all(&dirs.root);
    ctx.tally
        .call("create WAL directory", std::fs::create_dir_all(&dirs.wal))?;
    let wal = ctx
        .tally
        .call("open WAL", Durability::open(&dirs.wal, wal_options()))?;
    let t = Instant::now();
    let setup = span("bench/setup");
    let (mut server, data) = set_up(ctx, seed, wal)?;
    drop(setup);
    let setup_s = secs(t);

    let t = Instant::now();
    {
        let _s = span("bench/checkpoint");
        ctx.tally
            .call("checkpoint", server.checkpoint_to(&dirs.checkpoint));
    }
    let checkpoint_ms = secs(t) * 1e3;

    let before = WalStats::read(ctx, server.durability());
    if let Some(tracing) = &ctx.tracing {
        tracing.timers(true);
    }
    round_us.clear();
    for _ in 0..LIVE_ROUNDS {
        let t = Instant::now();
        let outcome = {
            let _s = span("bench/round");
            server.try_run_round()
        };
        round_us.push(secs(t) * 1e6);
        ctx.tally.call("round", outcome);
    }
    if let Some(tracing) = &ctx.tracing {
        tracing.timers(false);
    }
    let wal = WalStats::read(ctx, server.durability()).since(&before);
    wal.check_no_sync(&mut ctx.tally);
    let service = Service {
        digest: server.state_digest(),
        loss: mean_loss(&server, &data),
        data,
        setup_s,
        checkpoint_ms,
        wal,
    };
    // The crash: the server goes away without a final flush, leaving the
    // checkpoint and the WAL written since it.
    drop(server);
    Some(service)
}

pub(crate) fn run(ctx: &mut Ctx) -> Report {
    let root = ctx.state_dir.join("service");
    let dirs = Dirs {
        wal: root.join("wal"),
        checkpoint: root.join("checkpoint.json"),
        root,
    };
    let mut setup_s = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut fastest = Fastest::new(SERVICES as usize);
    // Per-service digests and losses of the first pass.
    let mut first: Option<Vec<(String, f64)>> = None;
    let mut last: Option<Service> = None;
    let mut round_us = Vec::with_capacity(LIVE_ROUNDS);
    let passes = ctx.repeat(|ctx| {
        let mut outcomes = Vec::new();
        for i in 0..SERVICES {
            let Some(service) = run_service(ctx, sub_seed(ctx.seed, i), &dirs, &mut round_us)
            else {
                return false;
            };
            setup_s.push(service.setup_s);
            checkpoint_ms.push(service.checkpoint_ms);
            fastest.add(i as usize, LIVE_ROUNDS as f64, &round_us);
            outcomes.push((service.digest.clone(), service.loss));
            last = Some(service);
        }
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
    let first = first.unwrap_or_default();
    let mut digest = RollingDigest::new();
    for (service_digest, _) in &first {
        digest.absorb_str(service_digest);
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s), "s");
    fastest.report(
        &mut m,
        &format!(
            "try_run_round calls of {SERVICES} services x {LIVE_ROUNDS} rounds, \
             each call's fastest of {passes} pass(es)"
        ),
    );
    let loss = first.iter().map(|(_, loss)| loss).sum::<f64>() / first.len().max(1) as f64;
    m.set("sim.loss", loss, "accuracy");
    if let Some(service) = last {
        recover(ctx, &service, &dirs, &mut m);
        if let Some(tracing) = &ctx.tracing {
            let decisions = passes as u64 * SERVICES * LIVE_ROUNDS as u64;
            crate::trace::layer_metrics(&mut m, tracing, "bench/round", decisions);
            let profile = tracing.profile();
            let register = crate::trace::Phases::under(&profile, "bench/register").root;
            m.set("core.register_us", register.total_us(), "us");
            let tenants = (passes as u64 * SERVICES) as f64 * TENANTS as f64;
            let roots = ["bench/warm-up", "bench/round"];
            crate::trace::set_obs_per_tenant(&mut m, tracing, &roots, tenants);
            m.set("core.checkpoint_ms", median(&checkpoint_ms), "ms");
            service.wal.report(LIVE_ROUNDS as f64, tracing, &mut m);
        }
    }
    let _ = std::fs::remove_dir_all(&dirs.root);
    Report {
        digest: digest.hex(),
        metrics: m,
    }
}

/// Recovers the last service from its checkpoint and WAL and checks that
/// it lands on the digest the service had when it crashed. The traced run
/// also restores the checkpoint alone, splitting recovery into restore
/// and the rest.
fn recover(ctx: &mut Ctx, service: &Service, dirs: &Dirs, m: &mut Metrics) {
    let t = Instant::now();
    let recovered = {
        let _s = span("bench/recover");
        EaseMl::recover(&dirs.checkpoint, &dirs.wal, oracle(service.data.clone()))
    };
    let recover_ms = secs(t) * 1e3;
    if let Some((server, report)) = ctx.tally.call("recover", recovered) {
        log(&format!(
            "service-1k: recovered {} checkpoint + {} replayed rounds in {recover_ms:.0} ms",
            report.checkpoint_rounds, report.replayed_rounds
        ));
        ctx.tally.check(
            "recovered digest equals the live digest at the crash",
            server.state_digest() == service.digest,
        );
    }
    m.set("core.recover_ms", recover_ms, "ms");
    if ctx.tracing.is_none() {
        return;
    }
    let doc = ctx
        .tally
        .call("read checkpoint", std::fs::read_to_string(&dirs.checkpoint))
        .unwrap_or_default();
    m.set("core.checkpoint_kib", doc.len() as f64 / 1024.0, "KiB");
    let t = Instant::now();
    let restored = {
        let _s = span("bench/restore");
        EaseMl::restore(&doc, oracle(service.data.clone()))
    };
    let restore_ms = secs(t) * 1e3;
    ctx.tally.call("restore", restored);
    m.set("core.restore_ms", restore_ms, "ms");
    m.set("core.replay_ms", recover_ms - restore_ms, "ms");
}
