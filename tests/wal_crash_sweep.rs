//! Crash-point sweep: kill the WAL write path at **every** byte boundary
//! of a serial run (clean and under injected faults) and at a sampled set
//! of boundaries of a multi-device exec run, then recover from the
//! checkpoint + WAL pair and prove the two durability invariants:
//!
//! * **no committed round is ever lost** — recovery lands exactly on the
//!   last round whose commit record fit below the crash byte (or on the
//!   checkpoint, whichever is later), with a bit-identical state digest;
//! * **no uncommitted round is ever resurrected** — a partially written
//!   suffix never leaks into the recovered state, and the recovered
//!   server continued to the end reproduces the uninterrupted reference
//!   trajectory bit for bit.
//!
//! The crash model is [`easeml_wal::CrashPoint`]: the append crossing the
//! offset writes only the bytes below it and every later write silently
//! no-ops, exactly like a process dying mid-`write(2)`. Because the
//! workload is deterministic, the reference run's per-round stream
//! offsets tell the sweep which rounds *must* be recovered at each crash
//! byte.

use easeml::exec::{ExecEngine, Fleet};
use easeml::fault::{FaultConfig, FaultInjector};
use easeml::prelude::*;
use easeml_gp::ArmPrior;
use easeml_obs::RecorderHandle;
use easeml_wal::{sample_offsets, CrashPoint, FsyncPolicy, WalOptions};
use std::path::PathBuf;

const VISION_PROG: &str = "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[5]], []}}";
const METEO_PROG: &str = "{input: {[Tensor[16]], [next]}, output: {[Tensor[3]], []}}";

/// Total rounds of the serial sweep workload and the mid-run checkpoint.
const TOTAL: usize = 8;
const CKPT_AT: usize = 3;

fn toy_oracle() -> QualityOracle {
    Box::new(|user, model| {
        let info = model.info();
        let base = if user % 2 == 0 { 0.66 } else { 0.48 };
        Ok(TrainingOutcome {
            accuracy: (base + 0.02 * (info.year as f64 - 2010.0)).min(0.99),
            cost: info.relative_cost,
        })
    })
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("easeml-crash-sweep-{}-{tag}", std::process::id()))
}

/// Tiny segments force rotations mid-sweep; `Always` keeps the stream
/// byte-deterministic so the reference offsets transfer to every crash
/// run.
fn wal_options() -> WalOptions {
    WalOptions {
        segment_bytes: 512,
        fsync: FsyncPolicy::Always,
    }
}

fn make_server(faulted: bool) -> EaseMl {
    let mut server = EaseMl::new(toy_oracle(), 77);
    if faulted {
        server.set_fault_injector(Some(FaultInjector::new(
            FaultConfig::new(5)
                .with_crash_rate(0.25)
                .with_stragglers(0.20, 2.5),
        )));
    }
    server.register_user("vision-lab", VISION_PROG).unwrap();
    server.register_user("meteo-lab", METEO_PROG).unwrap();
    server
}

/// The uninterrupted reference run: digest after every round and the
/// global stream offset of every round's commit record.
struct Reference {
    /// `digests[i]` = state digest after `i` rounds, `i` in `0..=TOTAL`.
    digests: Vec<String>,
    /// `offsets[i]` = stream offset right after round `i`'s commit append
    /// (`i` in `1..=TOTAL`); `offsets[0]` is the initial checkpoint mark.
    offsets: Vec<u64>,
    total_bytes: u64,
}

fn reference(faulted: bool) -> Reference {
    let base = scratch(&format!("serial-ref-{faulted}"));
    let _ = std::fs::remove_dir_all(&base);
    let wal_dir = base.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ckpt = base.join("ckpt.json");

    let mut server = make_server(faulted);
    server.set_durability(Durability::open(&wal_dir, wal_options()).unwrap());
    server.checkpoint_to(&ckpt).unwrap();
    let mut digests = vec![server.state_digest()];
    let mut offsets = vec![server.durability().stream_offset()];
    for i in 1..=TOTAL {
        server.try_run_round().unwrap();
        digests.push(server.state_digest());
        offsets.push(server.durability().stream_offset());
        if i == CKPT_AT {
            server.checkpoint_to(&ckpt).unwrap();
        }
    }
    let total_bytes = server.durability().stream_offset();
    let _ = std::fs::remove_dir_all(&base);
    Reference {
        digests,
        offsets,
        total_bytes,
    }
}

/// Runs the serial workload with a crash point armed at byte `k`,
/// stopping (like a dead process) once the writer dies. Returns the
/// scratch base and the rounds covered by the last durable checkpoint
/// file.
fn crash_run(faulted: bool, k: u64, base: &PathBuf) -> usize {
    let _ = std::fs::remove_dir_all(base);
    let wal_dir = base.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ckpt = base.join("ckpt.json");

    let mut server = make_server(faulted);
    let durability = Durability::open(&wal_dir, wal_options()).unwrap();
    durability.set_crash_point(Some(CrashPoint::at_byte(k)));
    server.set_durability(durability);
    // The deployment pattern: checkpoint at startup, so recovery always
    // has a document to anchor on. The file write precedes the WAL mark,
    // so it is durable even when the mark itself is torn.
    server.checkpoint_to(&ckpt).unwrap();
    let mut ckpt_rounds = 0usize;
    for i in 1..=TOTAL {
        if server.durability().is_dead() {
            break;
        }
        server.try_run_round().unwrap();
        if i == CKPT_AT && !server.durability().is_dead() {
            server.checkpoint_to(&ckpt).unwrap();
            ckpt_rounds = CKPT_AT;
        }
    }
    ckpt_rounds
}

fn serial_sweep(faulted: bool) {
    let reference = reference(faulted);
    assert!(reference.total_bytes > 0);
    let base = scratch(&format!("serial-run-{faulted}"));
    for k in 0..=reference.total_bytes {
        let ckpt_rounds = crash_run(faulted, k, &base);
        // Rounds whose commit record fit entirely below the crash byte.
        let committed = (1..=TOTAL).filter(|&i| reference.offsets[i] <= k).count();
        let expected = committed.max(ckpt_rounds);

        let (mut recovered, report) =
            EaseMl::recover(&base.join("ckpt.json"), &base.join("wal"), toy_oracle())
                .unwrap_or_else(|e| panic!("crash at byte {k}: recovery failed: {e}"));
        assert_eq!(
            report.final_rounds, expected as u64,
            "crash at byte {k}: recovered {} round(s), expected {expected} \
             (committed {committed}, checkpoint {ckpt_rounds}); report: {report:?}",
            report.final_rounds
        );
        assert_eq!(
            recovered.state_digest(),
            reference.digests[expected],
            "crash at byte {k}: digest diverged at round {expected}"
        );

        // Continuing the recovered server must reproduce the reference
        // tail bit for bit — nothing uncommitted leaked into its state.
        for _ in expected..TOTAL {
            recovered.try_run_round().unwrap();
        }
        assert_eq!(
            recovered.state_digest(),
            reference.digests[TOTAL],
            "crash at byte {k}: continuation diverged after recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn serial_sweep_every_byte_clean() {
    serial_sweep(false);
}

#[test]
fn serial_sweep_every_byte_under_fault_injection() {
    serial_sweep(true);
}

/// Satellite invariant: a quarantined arm re-enters probation at the same
/// round whether the state crossed a checkpoint/restore boundary or was
/// rebuilt by WAL replay — the release schedule is state, not an
/// in-memory accident.
#[test]
fn probation_reentry_is_identical_across_restore_and_replay() {
    use easeml::fault::FaultRates;
    use easeml::retry::RetryPolicy;

    const T: usize = 24;
    let make = || {
        let mut config = FaultConfig::new(41)
            .with_crash_rate(0.10)
            .with_stragglers(0.10, 2.0);
        // One brittle arm that always crashes, so quarantine (and then
        // probation re-entry) is guaranteed, not probabilistic.
        config.arm_overrides.insert(
            0,
            FaultRates {
                crash: 1.0,
                ..FaultRates::NONE
            },
        );
        let mut server = EaseMl::new(toy_oracle(), 23);
        server.set_fault_injector(Some(FaultInjector::new(config)));
        server.set_retry_policy(RetryPolicy {
            probation_rounds: 6,
            ..RetryPolicy::default()
        });
        server.register_user("vision-lab", VISION_PROG).unwrap();
        server.register_user("meteo-lab", METEO_PROG).unwrap();
        server
    };
    let masked = |server: &EaseMl| -> Vec<Vec<usize>> {
        (0..server.num_users())
            .map(|u| server.quarantined_arms(u))
            .collect()
    };

    let base = scratch("probation");
    let _ = std::fs::remove_dir_all(&base);
    let wal_dir = base.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ckpt0 = base.join("ckpt0.json");

    // Reference run with a WAL and an initial (round 0) checkpoint, no
    // mid-run barrier: path B below must replay the *whole* history.
    let mut reference = make();
    reference.set_durability(Durability::open(&wal_dir, wal_options()).unwrap());
    reference.checkpoint_to(&ckpt0).unwrap();
    let mut ref_masks: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut mid_snapshot: Option<(usize, String)> = None;
    for i in 1..=T {
        reference.try_run_round().unwrap();
        ref_masks.push(masked(&reference));
        // Snapshot mid-probation: something is masked, release is ahead.
        if mid_snapshot.is_none() && ref_masks.last().unwrap().iter().any(|m| !m.is_empty()) {
            mid_snapshot = Some((i, reference.checkpoint()));
        }
    }
    let (c, snapshot) = mid_snapshot.expect("the brittle arm must get quarantined");
    let release_after_c = (c..T).any(|i| {
        ref_masks[i]
            .iter()
            .zip(&ref_masks[i - 1])
            .any(|(now, before)| before.iter().any(|arm| !now.contains(arm)))
    });
    assert!(
        release_after_c,
        "probation must release inside the horizon: {ref_masks:?}"
    );
    let reference_digest = reference.state_digest();
    drop(reference);

    // Path A: restore the mid-probation checkpoint and continue.
    let mut restored = EaseMl::restore(&snapshot, toy_oracle()).unwrap();
    assert_eq!(masked(&restored), ref_masks[c - 1], "restore changed masks");
    for i in c + 1..=T {
        restored.try_run_round().unwrap();
        assert_eq!(
            masked(&restored),
            ref_masks[i - 1],
            "restore path diverged at round {i}"
        );
    }
    assert_eq!(restored.state_digest(), reference_digest);

    // Path B: rebuild the same T rounds purely by WAL replay from the
    // round-0 checkpoint — quarantine and release fold back identically.
    let (replayed, report) = EaseMl::recover(&ckpt0, &wal_dir, toy_oracle()).unwrap();
    assert_eq!(report.replayed_rounds, T as u64, "{report:?}");
    assert_eq!(replayed.state_digest(), reference_digest);
    assert_eq!(
        masked(&replayed),
        ref_masks[T - 1],
        "replay path ends with different quarantine masks"
    );
    let _ = std::fs::remove_dir_all(&base);
}

// ---------------------------------------------------------------------------
// Exec engine (D > 1): sampled crash offsets, clean and chaos.
// ---------------------------------------------------------------------------

fn exec_workload(chaos: bool) -> (easeml_data::Dataset, Vec<ArmPrior>, SimConfig) {
    let dataset = easeml_data::SynConfig {
        num_users: 4,
        num_models: 3,
        ..easeml_data::SynConfig::paper(0.5, 0.5)
    }
    .generate(1);
    let priors: Vec<ArmPrior> = (0..4).map(|_| ArmPrior::independent(3, 0.05)).collect();
    let mut cfg = SimConfig::new(6.0);
    if chaos {
        cfg.fault = Some(
            FaultConfig::new(99)
                .with_crash_rate(0.25)
                .with_stragglers(0.20, 2.5),
        );
    }
    (dataset, priors, cfg)
}

fn exec_sweep(chaos: bool) {
    const EXEC_CKPT_AT: usize = 5;
    let (dataset, priors, cfg) = exec_workload(chaos);
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

    // Reference: digest + commit offset after every completion.
    let base = scratch(&format!("exec-ref-{chaos}"));
    let _ = std::fs::remove_dir_all(&base);
    let wal_dir = base.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ckpt = base.join("ckpt.json");
    let mut engine = make();
    engine.set_durability(Durability::open(&wal_dir, wal_options()).unwrap());
    engine.checkpoint_to(&ckpt).unwrap();
    let mut digests = vec![engine.state_digest()];
    let mut offsets = vec![engine.durability().stream_offset()];
    let mut ticks = 0usize;
    while engine.tick() {
        ticks += 1;
        digests.push(engine.state_digest());
        offsets.push(engine.durability().stream_offset());
        if ticks == EXEC_CKPT_AT {
            engine.checkpoint_to(&ckpt).unwrap();
        }
    }
    let total_bytes = engine.durability().stream_offset();
    let final_digest = engine.state_digest();
    drop(engine);
    let _ = std::fs::remove_dir_all(&base);
    assert!(
        ticks > EXEC_CKPT_AT + 2,
        "workload too small: {ticks} ticks"
    );

    let base = scratch(&format!("exec-run-{chaos}"));
    for k in sample_offsets(0xc0ffee ^ u64::from(chaos), total_bytes, 48) {
        let _ = std::fs::remove_dir_all(&base);
        let wal_dir = base.join("wal");
        std::fs::create_dir_all(&wal_dir).unwrap();
        let ckpt = base.join("ckpt.json");
        let mut engine = make();
        let durability = Durability::open(&wal_dir, wal_options()).unwrap();
        durability.set_crash_point(Some(CrashPoint::at_byte(k)));
        engine.set_durability(durability);
        engine.checkpoint_to(&ckpt).unwrap();
        let mut ckpt_ticks = 0usize;
        let mut t = 0usize;
        while !engine.durability().is_dead() && engine.tick() {
            t += 1;
            if t == EXEC_CKPT_AT && !engine.durability().is_dead() {
                engine.checkpoint_to(&ckpt).unwrap();
                ckpt_ticks = EXEC_CKPT_AT;
            }
        }
        drop(engine);

        let committed = (1..=ticks).filter(|&i| offsets[i] <= k).count();
        let expected = committed.max(ckpt_ticks);
        let doc = std::fs::read_to_string(&ckpt).unwrap();
        let ck = easeml::exec::ExecCheckpoint::from_json(&doc)
            .unwrap_or_else(|e| panic!("crash at byte {k}: checkpoint unreadable: {e}"));
        let (mut recovered, report) =
            easeml::exec::recover_engine(&dataset, &priors, &ck, &wal_dir)
                .unwrap_or_else(|e| panic!("crash at byte {k}: exec recovery failed: {e}"));
        assert_eq!(
            report.final_rounds, expected as u64,
            "crash at byte {k}: recovered {} completion(s), expected {expected}; {report:?}",
            report.final_rounds
        );
        assert_eq!(
            recovered.state_digest(),
            digests[expected],
            "crash at byte {k}: exec digest diverged at completion {expected}"
        );
        while recovered.tick() {}
        assert_eq!(
            recovered.state_digest(),
            final_digest,
            "crash at byte {k}: exec continuation diverged after recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn exec_sweep_sampled_bytes_clean() {
    exec_sweep(false);
}

#[test]
fn exec_sweep_sampled_bytes_under_chaos() {
    exec_sweep(true);
}
