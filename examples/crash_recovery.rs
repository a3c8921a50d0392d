//! Kill a multi-device run mid-write, then recover it bit-exactly.
//!
//! Three phases, end to end through the public durability API:
//!
//! 1. **reference** — the `easeml::exec` engine runs a seeded 4-tenant
//!    workload (optionally under `--chaos` fault injection) to completion
//!    with a write-ahead log attached, recording the uninterrupted final
//!    state digest and the total WAL stream size;
//! 2. **doomed run** — the same workload runs again into `--state-dir`
//!    with group-commit fsync (`EveryN(4)`) and a *seeded crash point*
//!    armed at a byte offset drawn from `--seed`: the append crossing the
//!    offset is torn mid-record and every later write silently no-ops,
//!    exactly like the process dying mid-`write(2)`. A checkpoint is
//!    taken at startup and again mid-run (if the writer is still alive),
//!    so recovery is checkpoint + O(delta) WAL suffix, not a full replay;
//! 3. **recovery** — [`easeml::exec::recover_engine`] rebuilds the engine
//!    from the checkpoint, replays the committed WAL suffix verifying the
//!    rolling witness digest at every completion, truncates the torn
//!    tail, and the example then drives the recovered engine to the end:
//!    its final digest must equal the reference's bit for bit.
//!
//! The state directory is kept on exit so `easeml-trace recovery-report
//! <state-dir>/wal` can audit the surviving log (CI uploads it as an
//! artifact). Run with:
//!
//! `cargo run --example crash_recovery -- --chaos --state-dir /tmp/ezml`

use easeml::exec::{recover_engine, ExecCheckpoint, ExecEngine, Fleet};
use easeml::fault::FaultConfig;
use easeml::prelude::*;
use easeml_gp::ArmPrior;
use easeml_obs::RecorderHandle;
use easeml_wal::{sample_offsets, CrashPoint, FsyncPolicy, WalOptions};
use std::path::PathBuf;

struct Options {
    state_dir: PathBuf,
    chaos: bool,
    seed: u64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        state_dir: std::env::temp_dir()
            .join(format!("easeml-crash-recovery-{}", std::process::id())),
        chaos: false,
        seed: 41,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state-dir" => {
                opts.state_dir = PathBuf::from(args.next().expect("--state-dir needs a path"));
            }
            "--chaos" => opts.chaos = true,
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            other => panic!("unknown argument {other:?} (try --state-dir PATH, --chaos, --seed N)"),
        }
    }
    opts
}

fn workload(chaos: bool) -> (easeml_data::Dataset, Vec<ArmPrior>, SimConfig) {
    let dataset = easeml_data::SynConfig {
        num_users: 4,
        num_models: 3,
        ..easeml_data::SynConfig::paper(0.5, 0.5)
    }
    .generate(1);
    let priors: Vec<ArmPrior> = (0..4).map(|_| ArmPrior::independent(3, 0.05)).collect();
    let mut cfg = SimConfig::new(8.0);
    if chaos {
        cfg.fault = Some(
            FaultConfig::new(99)
                .with_crash_rate(0.25)
                .with_stragglers(0.20, 2.5),
        );
    }
    (dataset, priors, cfg)
}

fn wal_options() -> WalOptions {
    WalOptions {
        segment_bytes: 1024,
        fsync: FsyncPolicy::EveryN(4),
    }
}

const MID_CHECKPOINT_AT: usize = 6;

fn main() {
    let opts = parse_args();
    let (dataset, priors, cfg) = workload(opts.chaos);
    let make = || {
        ExecEngine::new(
            &dataset,
            &priors,
            SchedulerKind::EaseMl,
            &cfg,
            Fleet::uniform(3),
            7,
            RecorderHandle::noop(),
        )
    };

    // Phase 1: the uninterrupted reference (scratch WAL, discarded).
    let probe_dir = opts.state_dir.join("reference-scratch");
    let _ = std::fs::remove_dir_all(&opts.state_dir);
    std::fs::create_dir_all(&probe_dir).expect("create state dir");
    let mut reference = make();
    reference.set_durability(Durability::open(&probe_dir, wal_options()).expect("open probe WAL"));
    let mut ticks = 0usize;
    while reference.tick() {
        ticks += 1;
    }
    let reference_digest = reference.state_digest();
    let total_bytes = reference.durability().stream_offset();
    drop(reference);
    let _ = std::fs::remove_dir_all(&probe_dir);
    println!(
        "reference: {ticks} completion(s), digest {reference_digest}, wal stream {total_bytes} byte(s)"
    );

    // Phase 2: the doomed run, crash point drawn from the seed.
    let crash_at = sample_offsets(opts.seed, total_bytes.saturating_sub(1), 1)[0];
    let wal_dir = opts.state_dir.join("wal");
    std::fs::create_dir_all(&wal_dir).expect("create wal dir");
    let ckpt = opts.state_dir.join("checkpoint.json");
    let mut doomed = make();
    let durability = Durability::open(&wal_dir, wal_options()).expect("open WAL");
    durability.set_crash_point(Some(CrashPoint::at_byte(crash_at)));
    doomed.set_durability(durability);
    doomed.checkpoint_to(&ckpt).expect("initial checkpoint");
    let mut t = 0usize;
    let mut checkpointed = 0usize;
    while !doomed.durability().is_dead() && doomed.tick() {
        t += 1;
        if t == MID_CHECKPOINT_AT && !doomed.durability().is_dead() {
            doomed.checkpoint_to(&ckpt).expect("mid-run checkpoint");
            checkpointed = t;
        }
    }
    println!(
        "doomed run: crash point fired at byte {crash_at} after {t} completion(s) \
         (last durable checkpoint at {checkpointed})"
    );
    drop(doomed);

    // Phase 3: recover, verify, and catch up to the reference.
    let doc = std::fs::read_to_string(&ckpt).expect("read checkpoint");
    let ck = ExecCheckpoint::from_json(&doc).expect("parse checkpoint");
    let (mut recovered, report) =
        recover_engine(&dataset, &priors, &ck, &wal_dir).expect("recovery");
    println!(
        "recovered: checkpoint at {} completion(s), replayed {} (digest-verified), \
         dropped {} uncommitted record(s), torn tail: {}",
        report.checkpoint_rounds,
        report.replayed_rounds,
        report.dropped_records,
        report.torn_tail.as_deref().unwrap_or("none"),
    );
    while recovered.tick() {}
    let recovered_digest = recovered.state_digest();
    println!(
        "recovery digest match: {}",
        recovered_digest == reference_digest
    );
    assert_eq!(
        recovered_digest, reference_digest,
        "recovered run diverged from the uninterrupted reference"
    );
    println!(
        "state kept in {} (audit with: easeml-trace recovery-report {})",
        opts.state_dir.display(),
        wal_dir.display()
    );
}
