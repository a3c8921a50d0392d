//! What the group-committed write-ahead log leaves on disk.
//!
//! The WAL stages records and writes each batch with one `write(2)` when a
//! commit point is logged. Two properties pin that down:
//!
//! * **Same stream.** Each scenario runs a deterministic workload with a
//!   WAL attached and, after every public call, folds the log's bytes
//!   into a rolling digest: every segment, in index order, concatenated.
//!   Hashing the stream rather than the files keeps the pin independent
//!   of where segment boundaries fall, while proving that the same
//!   records reach the disk in the same order, complete by the time each
//!   call returns. The digests were recorded from a writer that made one
//!   `write(2)` per record.
//! * **Nothing staged across a return.** Driving the serial server (with
//!   retries, quarantine and probation) and a churned open-loop replay
//!   call by call, every call leaves no record staged, every record it
//!   logged on disk and the log ending on a commit point; under
//!   `FsyncPolicy::Always` each commit point costs one write and one
//!   fdatasync.
//!
//! A last test checks that the `wal_append` and `wal_fsync` spans fold
//! into the call tree under the span that committed the batch.

use easeml::fault::{FaultConfig, FaultInjector};
use easeml::prelude::*;
use easeml_data::{Dataset, SynConfig};
use easeml_exec::{ExecEngine, Fleet};
use easeml_gp::ArmPrior;
use easeml_obs::json::Json;
use easeml_obs::{CallTreeProfile, InMemoryRecorder, RecorderHandle, RollingDigest};
use easeml_wal::{read_log, DurableEvent, FsyncPolicy, WalOptions};
use easeml_workload::{ArrivalKind, ChurnConfig, ReplayDriver, WorkloadScript};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const VISION_PROG: &str = "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[5]], []}}";
const METEO_PROG: &str = "{input: {[Tensor[16]], [next]}, output: {[Tensor[3]], []}}";

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
    let dir = std::env::temp_dir().join(format!("easeml-wal-stream-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("wal")).unwrap();
    dir
}

/// The crash sweep's settings: 512-byte segments rotate mid-run, and every
/// commit syncs.
fn wal_options() -> WalOptions {
    WalOptions {
        segment_bytes: 512,
        fsync: FsyncPolicy::Always,
    }
}

/// Folds the log in `dir` (every `wal-*.log` segment in index order,
/// concatenated) into `digest`: its length, then its bytes.
fn fold_stream(digest: &mut RollingDigest, dir: &Path) {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    let stream: Vec<u8> = segments
        .iter()
        .flat_map(|path| std::fs::read(path).unwrap())
        .collect();
    digest.absorb_u64(stream.len() as u64);
    for chunk in stream.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        digest.absorb_u64(u64::from_le_bytes(word));
    }
}

/// The crash sweep's serial reference run: two tenants, a checkpoint at
/// start-up and after round 3, eight rounds.
fn serial_stream(faulted: bool) -> String {
    let base = scratch(&format!("serial-{faulted}"));
    let wal_dir = base.join("wal");
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
    server.set_durability(Durability::open(&wal_dir, wal_options()).unwrap());
    let mut digest = RollingDigest::new();
    server.checkpoint_to(&base.join("ckpt.json")).unwrap();
    fold_stream(&mut digest, &wal_dir);
    for round in 1..=8 {
        server.try_run_round().unwrap();
        fold_stream(&mut digest, &wal_dir);
        if round == 3 {
            server.checkpoint_to(&base.join("ckpt.json")).unwrap();
            fold_stream(&mut digest, &wal_dir);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    digest.hex()
}

fn dataset(users: usize, models: usize, seed: u64) -> Dataset {
    SynConfig {
        num_users: users,
        num_models: models,
        ..SynConfig::paper(0.5, 0.5)
    }
    .generate(seed)
}

/// The crash sweep's exec reference: four tenants on three devices, a
/// checkpoint at start-up and after the fifth completion.
fn exec_stream(chaos: bool) -> String {
    let base = scratch(&format!("exec-{chaos}"));
    let wal_dir = base.join("wal");
    let data = dataset(4, 3, 1);
    let priors: Vec<ArmPrior> = (0..4).map(|_| ArmPrior::independent(3, 0.05)).collect();
    let mut cfg = SimConfig::new(6.0);
    if chaos {
        cfg.fault = Some(
            FaultConfig::new(99)
                .with_crash_rate(0.25)
                .with_stragglers(0.20, 2.5),
        );
    }
    let mut engine = ExecEngine::new(
        &data,
        &priors,
        SchedulerKind::EaseMl,
        &cfg,
        Fleet::uniform(3),
        7,
        RecorderHandle::noop(),
    );
    engine.set_durability(Durability::open(&wal_dir, wal_options()).unwrap());
    let mut digest = RollingDigest::new();
    engine.checkpoint_to(&base.join("ckpt.json")).unwrap();
    fold_stream(&mut digest, &wal_dir);
    let mut ticks = 0;
    while engine.tick() {
        ticks += 1;
        fold_stream(&mut digest, &wal_dir);
        if ticks == 5 {
            engine.checkpoint_to(&base.join("ckpt.json")).unwrap();
            fold_stream(&mut digest, &wal_dir);
        }
    }
    assert!(ticks > 7, "workload too small: {ticks} ticks");
    let _ = std::fs::remove_dir_all(&base);
    digest.hex()
}

/// An open-loop replay with tenant churn on two devices, logging to
/// `wal_dir`: dispatches, completions, retirements and rejoins all reach
/// the log.
fn churned_replay<'a>(data: &'a Dataset, wal_dir: &Path, options: WalOptions) -> ReplayDriver<'a> {
    let priors: Vec<ArmPrior> = (0..data.num_users())
        .map(|_| ArmPrior::independent(data.num_models(), 0.05))
        .collect();
    let script = WorkloadScript::synthetic(
        data.num_users(),
        ArrivalKind::Poisson { rate: 3.0 },
        40.0,
        Some(&ChurnConfig::new(6.0, 3.0)),
        17,
    );
    assert!(script.lifecycle_events() > 0, "the script must churn");
    let engine = ExecEngine::new(
        data,
        &priors,
        SchedulerKind::Hybrid,
        &SimConfig::new(60.0),
        Fleet::uniform(2),
        7,
        RecorderHandle::noop(),
    );
    let mut driver = ReplayDriver::new(engine, script);
    driver
        .engine_mut()
        .set_durability(Durability::open(wal_dir, options).unwrap());
    driver
}

fn replay_stream() -> String {
    let base = scratch("replay");
    let wal_dir = base.join("wal");
    let data = dataset(5, 4, 21);
    let mut driver = churned_replay(&data, &wal_dir, wal_options());
    let mut digest = RollingDigest::new();
    let mut steps = 0;
    while driver.step() {
        steps += 1;
        fold_stream(&mut digest, &wal_dir);
    }
    fold_stream(&mut digest, &wal_dir);
    assert!(steps > 100, "replay too short: {steps} steps");
    let lifecycle = read_log(&wal_dir)
        .unwrap()
        .records
        .iter()
        .filter(|r| {
            matches!(
                DurableEvent::decode(&r.payload),
                Ok(DurableEvent::TenantRetired { .. } | DurableEvent::TenantJoined { .. })
            )
        })
        .count();
    assert!(
        lifecycle > 2,
        "the replay must log churn: {lifecycle} record(s)"
    );
    let _ = std::fs::remove_dir_all(&base);
    digest.hex()
}

#[test]
fn serial_reference_stream_is_pinned() {
    assert_eq!(
        [serial_stream(false), serial_stream(true)],
        ["fedbd28372e377d5", "5073ba1304f2f5c0"]
    );
}

#[test]
fn exec_reference_stream_is_pinned() {
    assert_eq!(
        [exec_stream(false), exec_stream(true)],
        ["7221a9abdab45f74", "6f8ab7d62cc2b40c"]
    );
}

#[test]
fn churned_replay_stream_is_pinned() {
    assert_eq!(replay_stream(), "6d431aad55b98d95");
}

/// Every commit syncs and segments never fill, so a commit point costs
/// exactly one write and one fdatasync.
fn always_unrotated() -> WalOptions {
    WalOptions {
        segment_bytes: 1 << 30,
        fsync: FsyncPolicy::Always,
    }
}

/// `[appends, writes, fsyncs]` from the handle's stats.
fn counters(d: &Durability) -> [u64; 3] {
    let Json::Object(fields) = easeml_obs::json::parse(&d.stats_json()).unwrap() else {
        panic!("stats are not an object");
    };
    ["appends", "writes", "fsyncs"].map(|key| match fields.iter().find(|(k, _)| k == key) {
        Some((_, Json::Number(x))) => *x as u64,
        other => panic!("stats field {key}: {other:?}"),
    })
}

/// What one public call left in the log.
struct CallEffect {
    /// Records the call added to the log, in order.
    records: Vec<DurableEvent>,
    /// Batch writes the call made.
    writes: u64,
    /// Fdatasyncs the call made.
    fsyncs: u64,
}

/// Watches a log between calls.
struct Probe {
    dir: PathBuf,
    records: usize,
    counters: [u64; 3],
}

impl Probe {
    fn new(dir: &Path, d: &Durability) -> Self {
        Probe {
            dir: dir.to_path_buf(),
            records: read_log(dir).unwrap().records.len(),
            counters: counters(d),
        }
    }

    /// Checks the invariants after `call` returned and reports its effect.
    fn after(&mut self, d: &Durability, call: &str) -> CallEffect {
        assert_eq!(d.staged(), 0, "{call} returned with records staged");
        let log = read_log(&self.dir).unwrap();
        assert!(log.torn.is_none(), "{call}: torn log {:?}", log.torn);
        let records: Vec<DurableEvent> = log.records[self.records..]
            .iter()
            .map(|r| DurableEvent::decode(&r.payload).unwrap())
            .collect();
        let now = counters(d);
        assert_eq!(
            records.len() as u64,
            now[0] - self.counters[0],
            "{call}: the log must hold every record the call logged"
        );
        if let Some(last) = records.last() {
            assert!(
                last.is_commit_point(),
                "{call} returned after {}, not a commit point",
                last.tag_name()
            );
        }
        let effect = CallEffect {
            records,
            writes: now[1] - self.counters[1],
            fsyncs: now[2] - self.counters[2],
        };
        self.records = log.records.len();
        self.counters = now;
        effect
    }
}

#[test]
fn serial_server_calls_return_with_their_batch_written() {
    let base = scratch("staging-serial");
    let wal_dir = base.join("wal");
    // One brittle arm that always crashes: rounds retry, the arm is
    // quarantined and later released on probation.
    let mut config = FaultConfig::new(41)
        .with_crash_rate(0.10)
        .with_stragglers(0.10, 2.0);
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
    server.set_durability(Durability::open(&wal_dir, always_unrotated()).unwrap());
    let mut probe = Probe::new(&wal_dir, server.durability());
    let mut seen = std::collections::BTreeSet::new();
    for step in 0..40 {
        let (call, commit) = match step {
            3 | 9 => {
                let name = format!("lab-{step}");
                server.add_tenant(&name, METEO_PROG).unwrap();
                ("add_tenant", Some("tenant-joined"))
            }
            20 => {
                server.retire_tenant(1);
                ("retire_tenant", Some("tenant-retired"))
            }
            // Retiring a retired tenant is a no-op and logs nothing.
            21 => {
                server.retire_tenant(1);
                ("retire_tenant", None)
            }
            _ => {
                server.try_run_round().unwrap();
                ("try_run_round", Some("round-commit"))
            }
        };
        let effect = probe.after(server.durability(), call);
        seen.extend(effect.records.iter().map(DurableEvent::tag_name));
        match commit {
            Some(tag) => {
                assert_eq!(effect.records.last().unwrap().tag_name(), tag, "{call}");
                assert_eq!((effect.writes, effect.fsyncs), (1, 1), "{call} at {step}");
            }
            None => {
                assert!(effect.records.is_empty(), "{call} at {step}");
                assert_eq!((effect.writes, effect.fsyncs), (0, 0), "{call} at {step}");
            }
        }
    }
    for tag in ["obs-censored", "arm-quarantined", "probation-release"] {
        assert!(seen.contains(tag), "the run never logged {tag}: {seen:?}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn churned_replay_steps_return_with_their_batch_written() {
    let base = scratch("staging-replay");
    let wal_dir = base.join("wal");
    let data = dataset(5, 4, 21);
    let mut driver = churned_replay(&data, &wal_dir, always_unrotated());
    let mut probe = Probe::new(&wal_dir, driver.engine().durability());
    let mut multi_commit_steps = 0;
    loop {
        let more = driver.step();
        let effect = probe.after(driver.engine().durability(), "step");
        let commits = effect
            .records
            .iter()
            .filter(|e| e.is_commit_point())
            .count() as u64;
        // One write and one fdatasync per commit point: a completion, or a
        // retirement/rejoin applied on the way to it.
        assert_eq!(
            (effect.writes, effect.fsyncs),
            (commits, commits),
            "{:?}",
            effect.records
        );
        if commits > 1 {
            multi_commit_steps += 1;
        }
        if !more {
            break;
        }
        assert!(commits >= 1, "a step that advanced logged no commit point");
    }
    assert!(
        multi_commit_steps > 0,
        "no step applied churn before its completion"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn wal_spans_are_children_of_the_call_that_committed() {
    let base = scratch("spans");
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut server = EaseMl::new(toy_oracle(), 77);
    server.set_recorder(RecorderHandle::new(recorder.clone()));
    server.register_user("vision-lab", VISION_PROG).unwrap();
    server.register_user("meteo-lab", METEO_PROG).unwrap();
    server.set_durability(Durability::open(&base.join("wal"), always_unrotated()).unwrap());
    for _ in 0..4 {
        server.try_run_round().unwrap();
    }
    let serial = CallTreeProfile::fold(&recorder.events());
    for phase in ["wal_append", "wal_fsync"] {
        let node = serial
            .find(&["scheduler_step", phase])
            .unwrap_or_else(|| panic!("no scheduler_step → {phase}"));
        assert_eq!(node.count, 4, "one {phase} per round");
    }

    let recorder = Arc::new(InMemoryRecorder::new());
    let data = dataset(4, 3, 1);
    let priors: Vec<ArmPrior> = (0..4).map(|_| ArmPrior::independent(3, 0.05)).collect();
    let mut engine = ExecEngine::new(
        &data,
        &priors,
        SchedulerKind::EaseMl,
        &SimConfig::new(6.0),
        Fleet::uniform(3),
        7,
        RecorderHandle::new(recorder.clone()),
    );
    engine.set_durability(Durability::open(&base.join("exec-wal"), always_unrotated()).unwrap());
    let mut ticks = 0;
    while engine.tick() {
        ticks += 1;
    }
    let exec = CallTreeProfile::fold(&recorder.events());
    let node = exec
        .find(&["complete", "wal_append"])
        .expect("no complete → wal_append");
    assert_eq!(node.count, ticks, "one commit write per completion");
    let _ = std::fs::remove_dir_all(&base);
}
