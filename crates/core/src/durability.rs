//! The [`Durability`] handle: WAL appends behind a noop-by-default facade,
//! plus the replay plan recovery builds from a log suffix.
//!
//! Mirrors the observability recorder's zero-overhead pattern
//! ([`RecorderHandle`]): the handle wraps `Option<Arc<…>>`, every append
//! takes a *closure* so the disabled path neither encodes nor locks, and
//! attaching durability is one `set_durability` call on the server or exec
//! engine. Appends are group-committed: each record is framed into the
//! writer's staging buffer, and the batch reaches the file in one
//! `write(2)` when a commit point ([`DurableEvent::is_commit_point`]) is
//! appended, so every public call of the server or engine returns with
//! everything it logged written.
//!
//! Recovery is the inverse: [`EaseMl::recover`](crate::server::EaseMl::recover)
//! loads the latest checkpoint, parses the WAL suffix into per-round
//! replay plans, re-executes each round with the logged outcomes
//! substituted for the oracle, and asserts the rolling witness digest and
//! RNG words against every logged commit — bit-exact or it refuses.

use crate::fault::TrainingError;
use crate::server::TrainingOutcome;
use easeml_obs::{Component, Histogram, RecorderHandle};
use easeml_wal::{
    truncate_log, AppendOutcome, CrashPoint, DurableEvent, ReadRecord, WalCall, WalLog, WalOptions,
    WalWriter, KIND_CRASH, KIND_TIMEOUT,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Maps a [`TrainingError`] to its WAL censor-kind code.
pub(crate) fn censor_kind(error: &TrainingError) -> u8 {
    match error {
        TrainingError::Crash { .. } => KIND_CRASH,
        TrainingError::Timeout { .. } => KIND_TIMEOUT,
        TrainingError::InvalidQuality => easeml_wal::KIND_INVALID,
    }
}

/// One logged attempt outcome, queued for substitution during replay.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ReplayAttempt {
    /// The attempt resolved with a valid observation.
    Resolved { accuracy: f64, cost: f64 },
    /// The attempt was censored with this pre-backoff charge.
    Censored { charge: f64, kind: u8 },
}

impl ReplayAttempt {
    /// Reconstructs the post-validation result the live path produced.
    pub(crate) fn into_result(self) -> Result<TrainingOutcome, (TrainingError, f64)> {
        match self {
            ReplayAttempt::Resolved { accuracy, cost } => Ok(TrainingOutcome { accuracy, cost }),
            ReplayAttempt::Censored { charge, kind } => {
                let error = match kind {
                    KIND_CRASH => TrainingError::Crash {
                        cost_consumed: charge,
                    },
                    KIND_TIMEOUT => TrainingError::Timeout { deadline: charge },
                    _ => TrainingError::InvalidQuality,
                };
                Err((error, charge))
            }
        }
    }
}

/// The commit record a replayed round is asserted against.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CommitRecord {
    pub round: u64,
    pub user: u64,
    pub arm: u64,
    pub censored: bool,
    pub digest: u64,
    pub rng: [u64; 4],
}

/// A tenant-lifecycle mutation parsed out of the WAL suffix.
///
/// Unlike quarantine/probation transitions, lifecycle changes are *not*
/// derived state: a join that postdates the checkpoint must re-register
/// the tenant before its rounds replay, and a retirement must re-hide the
/// tenant from the pickers. Both are applied idempotently — the restored
/// checkpoint may already cover them when the event's round coincides
/// with the checkpoint boundary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LifecycleAction {
    /// Re-register a tenant under slot `user` with `arms` candidate models.
    Join {
        user: u64,
        arms: u64,
        name: String,
        program: String,
    },
    /// Re-apply a retirement of slot `user`.
    Retire { user: u64 },
}

/// One fully-committed round parsed out of the WAL suffix.
#[derive(Debug, Clone)]
pub(crate) struct ReplayRound {
    /// Lifecycle mutations logged after the previous commit and before
    /// this round — applied first, so the round sees the tenancy it ran
    /// under.
    pub lifecycle: Vec<LifecycleAction>,
    pub attempts: VecDeque<ReplayAttempt>,
    pub commit: CommitRecord,
}

/// A parsed replay plan.
#[derive(Debug, Clone)]
pub(crate) struct ReplayPlan {
    /// Committed rounds to replay, in order.
    pub rounds: Vec<ReplayRound>,
    /// Records skipped as already covered by the checkpoint.
    pub skipped: u64,
    /// `(segment, end_offset)` of the last committed record — the
    /// truncation point that drops every uncommitted byte after it.
    pub cut: Option<(u64, u64)>,
    /// Lifecycle mutations logged after the last commit: durable tenancy
    /// changes with no round behind them yet, re-applied after replay.
    pub tail: Vec<LifecycleAction>,
}

/// Parses a serial-simulator WAL into a replay plan.
///
/// Rounds below `from_rounds` are already covered by the checkpoint and
/// are skipped; rounds at or above it must appear gap-free.
pub(crate) fn plan_replay(log: &WalLog, from_rounds: u64) -> Result<ReplayPlan, String> {
    let mut plan: Vec<ReplayRound> = Vec::new();
    let mut attempts: VecDeque<ReplayAttempt> = VecDeque::new();
    let mut lifecycle: Vec<LifecycleAction> = Vec::new();
    let mut skipped = 0u64;
    let mut cut: Option<(u64, u64)> = None;
    let mark = |rec: &ReadRecord| Some((rec.segment, rec.end_offset));
    for rec in &log.records {
        let event = DurableEvent::decode(&rec.payload)
            .map_err(|e| format!("undecodable WAL record (CRC passed): {e}"))?;
        match event {
            DurableEvent::RoundStart { round } => {
                if round >= from_rounds {
                    attempts.clear();
                } else {
                    skipped += 1;
                }
            }
            DurableEvent::ObservationResolved {
                round,
                accuracy,
                cost,
                ..
            } => {
                if round >= from_rounds {
                    // The live path censors such an outcome; replaying it
                    // would corrupt the clock or the posterior.
                    if !(accuracy.is_finite() && cost.is_finite() && cost > 0.0) {
                        return Err(format!(
                            "round {round}: logged outcome (accuracy {accuracy}, cost {cost}) \
                             needs a finite accuracy and a positive, finite cost"
                        ));
                    }
                    attempts.push_back(ReplayAttempt::Resolved { accuracy, cost });
                } else {
                    skipped += 1;
                }
            }
            DurableEvent::ObservationCensored {
                round,
                charge,
                kind,
                ..
            } => {
                if round >= from_rounds {
                    attempts.push_back(ReplayAttempt::Censored { charge, kind });
                } else {
                    skipped += 1;
                }
            }
            // Quarantine/probation transitions are *derived* state: replay
            // recomputes them from the attempt outcomes, so they carry no
            // replay payload — they exist for reports and audits.
            DurableEvent::ArmQuarantined { .. } | DurableEvent::ProbationRelease { .. } => {}
            DurableEvent::RoundCommit {
                round,
                user,
                arm,
                censored,
                digest,
                rng,
            } => {
                if round < from_rounds {
                    skipped += 1;
                    attempts.clear();
                } else {
                    let expected = from_rounds + plan.len() as u64;
                    if round != expected {
                        return Err(format!(
                            "WAL round gap: commit for round {round}, expected {expected}"
                        ));
                    }
                    plan.push(ReplayRound {
                        lifecycle: std::mem::take(&mut lifecycle),
                        attempts: std::mem::take(&mut attempts),
                        commit: CommitRecord {
                            round,
                            user,
                            arm,
                            censored,
                            digest,
                            rng,
                        },
                    });
                }
                // Committed data always advances the cut, pre-checkpoint
                // or not — it must survive truncation.
                cut = mark(rec);
            }
            DurableEvent::CheckpointMark { .. } => {
                attempts.clear();
                cut = mark(rec);
            }
            // Lifecycle mutations are durable the moment they are logged
            // (there is no round-commit barrier behind a join), so they
            // always advance the cut; pre-checkpoint ones are already in
            // the checkpoint document and only count as skipped.
            DurableEvent::TenantJoined {
                round,
                user,
                arms,
                name,
                program,
            } => {
                if round >= from_rounds {
                    lifecycle.push(LifecycleAction::Join {
                        user,
                        arms,
                        name,
                        program,
                    });
                } else {
                    skipped += 1;
                }
                cut = mark(rec);
            }
            DurableEvent::TenantRetired { round, user } => {
                if round >= from_rounds {
                    lifecycle.push(LifecycleAction::Retire { user });
                } else {
                    skipped += 1;
                }
                cut = mark(rec);
            }
            DurableEvent::ExecDispatch { .. } | DurableEvent::ExecCompletion { .. } => {
                return Err("exec-engine records in a serial-simulator WAL".into());
            }
        }
    }
    Ok(ReplayPlan {
        rounds: plan,
        skipped,
        cut,
        tail: lifecycle,
    })
}

/// What a recovery did: [`EaseMl::recover`](crate::server::EaseMl::recover)
/// or the execution engine's `recover_engine`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Rounds restored from the checkpoint document.
    pub checkpoint_rounds: u64,
    /// Committed rounds replayed from the WAL suffix.
    pub replayed_rounds: u64,
    /// WAL records skipped as already covered by the checkpoint.
    pub skipped_records: u64,
    /// Uncommitted records dropped (truncated) after the last commit.
    pub dropped_records: u64,
    /// Torn tail found in the log, if any (reason and location).
    pub torn_tail: Option<String>,
    /// Total rounds after recovery (checkpoint + replay).
    pub final_rounds: u64,
    /// Rolling witness digest after recovery, 16 hex chars.
    pub final_digest: String,
    /// Wall time spent recovering, in nanoseconds.
    pub replay_ns: u64,
}

impl RecoveryReport {
    /// Ends a recovery that read `log` from `wal_dir`: truncates the
    /// uncommitted suffix after `cut`, the last record replay kept, and
    /// completes the report with the records dropped, the log's torn tail
    /// and the wall time since `start`.
    ///
    /// # Errors
    ///
    /// A filesystem error from the truncation.
    pub(crate) fn drop_suffix(
        mut self,
        wal_dir: &Path,
        log: &WalLog,
        cut: Option<(u64, u64)>,
        start: Instant,
    ) -> Result<Self, String> {
        self.dropped_records = log
            .records
            .iter()
            .filter(|r| cut.is_none_or(|c| (r.segment, r.end_offset) > c))
            .count() as u64;
        self.torn_tail = log.torn.as_ref().map(|t| {
            format!(
                "{} in segment {} at offset {}",
                t.reason.name(),
                t.segment,
                t.offset
            )
        });
        truncate_log(wal_dir, cut).map_err(|e| format!("truncating WAL suffix: {e}"))?;
        self.replay_ns = start.elapsed().as_nanos() as u64;
        Ok(self)
    }
}

struct DurabilityInner {
    writer: WalWriter,
    /// Latency of one commit: the batch's `write(2)`, plus any rotation
    /// or policy fsync it triggers.
    append_ns: Histogram,
    append_bytes: u64,
    last_checkpoint_rounds: u64,
    last_error: Option<String>,
    recorder: RecorderHandle,
}

/// The span the recorder opens around one WAL system call.
fn span_name(call: WalCall) -> &'static str {
    match call {
        WalCall::Write => "wal_append",
        WalCall::Fsync => "wal_fsync",
    }
}

impl DurabilityInner {
    fn note_io<T>(&mut self, result: io::Result<T>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.last_error = Some(e.to_string());
                None
            }
        }
    }

    /// Counts one batch write (nothing when the call wrote nothing).
    fn note_write(&mut self, outcome: AppendOutcome) {
        self.append_bytes += outcome.bytes;
        if let Some(recorder) = self.recorder.recorder() {
            if outcome.bytes > 0 {
                recorder.add_counter("wal/appends", outcome.records);
                recorder.add_counter("wal/writes", 1);
            }
            if outcome.synced {
                recorder.add_counter("wal/fsyncs", 1);
            }
        }
    }

    /// Writes the staged batch: the commit point's one `write(2)` under a
    /// `wal_append` span, every fdatasync under `wal_fsync`.
    fn commit(&mut self) {
        let recorder = &self.recorder;
        let start = Instant::now();
        let result = self
            .writer
            .commit_scoped(|call| recorder.span(span_name(call)));
        let nanos = start.elapsed().as_nanos() as u64;
        if let Some(outcome) = self.note_io(result) {
            if outcome.bytes > 0 {
                self.append_ns.record(nanos);
                if let Some(recorder) = self.recorder.recorder() {
                    recorder.record_timing(Component::WalAppend, nanos);
                }
            }
            self.note_write(outcome);
        }
    }
}

/// Cheap, cloneable handle to an optional WAL writer.
///
/// The default handle is disabled and costs one branch per append — the
/// event closure is never invoked, nothing locks, nothing encodes — the
/// same zero-overhead contract as [`RecorderHandle::noop`]. I/O errors on
/// the hot path are recorded in the stats rather than propagated: losing
/// the WAL degrades durability, not scheduling.
#[derive(Clone, Default)]
pub struct Durability {
    inner: Option<Arc<Mutex<DurabilityInner>>>,
}

impl Durability {
    /// The disabled handle (same as `Default`).
    pub fn noop() -> Self {
        Durability { inner: None }
    }

    /// Opens (or resumes) the WAL in `dir` for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the open/repair scan.
    pub fn open(dir: &Path, options: WalOptions) -> io::Result<Self> {
        let writer = WalWriter::open(dir, options)?;
        Ok(Durability {
            inner: Some(Arc::new(Mutex::new(DurabilityInner {
                writer,
                append_ns: Histogram::new(),
                append_bytes: 0,
                last_checkpoint_rounds: 0,
                last_error: None,
                recorder: RecorderHandle::noop(),
            }))),
        })
    }

    /// Whether a WAL is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Routes append/fsync timings and counters to `recorder`.
    pub fn set_recorder(&self, recorder: RecorderHandle) {
        if let Some(inner) = &self.inner {
            inner.lock().recorder = recorder;
        }
    }

    /// Appends the event built by `make`, which is only called when a WAL
    /// is attached — pass a closure so the disabled path stays free.
    ///
    /// The record is framed into the writer's staging buffer without
    /// allocating. When it is a commit point
    /// ([`DurableEvent::is_commit_point`]) the staged batch — this record
    /// and every record staged since the last commit — is written with one
    /// `write(2)` and synced per [`FsyncPolicy`](easeml_wal::FsyncPolicy)
    /// before this call returns; any other record waits for the commit
    /// point that closes its batch, as recovery would discard it without
    /// one.
    pub fn append<F: FnOnce() -> DurableEvent>(&self, make: F) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock();
            let event = make();
            let staged = inner.writer.stage_with(|buf| event.encode_into(buf));
            inner.note_io(staged);
            if event.is_commit_point() {
                inner.commit();
            }
        }
    }

    /// Writes any staged records, then forces an fsync of the current
    /// segment: afterwards everything appended is on disk.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            let mut guard = inner.lock();
            let inner = &mut *guard;
            let recorder = &inner.recorder;
            let start = Instant::now();
            let result = inner
                .writer
                .sync_scoped(|call| recorder.span(span_name(call)));
            let nanos = start.elapsed().as_nanos() as u64;
            if let Some(outcome) = inner.note_io(result) {
                inner.note_write(outcome);
                if let Some(recorder) = inner.recorder.recorder() {
                    recorder.record_timing(Component::WalFsync, nanos);
                }
            }
        }
    }

    /// Checkpoint barrier: seals the current segment, deletes sealed
    /// segments made redundant by the checkpoint, then logs a
    /// [`DurableEvent::CheckpointMark`] and syncs it. Call *after* the
    /// checkpoint document is durably on disk.
    pub fn mark_checkpoint(&self, rounds: u64, digest: u64) {
        if let Some(inner) = &self.inner {
            let mut guard = inner.lock();
            let inner = &mut *guard;
            let recorder = &inner.recorder;
            let scope = |call| recorder.span(span_name(call));
            let writer = &mut inner.writer;
            let start = Instant::now();
            let result = writer
                .rotate_scoped(scope)
                .and_then(|()| writer.compact())
                .and_then(|removed| {
                    writer.stage_with(|buf| {
                        DurableEvent::CheckpointMark { rounds, digest }.encode_into(buf);
                    })?;
                    writer.commit_scoped(scope)?;
                    writer.sync_scoped(scope)?;
                    Ok(removed)
                });
            let nanos = start.elapsed().as_nanos() as u64;
            if let Some(removed) = inner.note_io(result) {
                inner.last_checkpoint_rounds = rounds;
                if let Some(recorder) = inner.recorder.recorder() {
                    recorder.record_timing(Component::WalFsync, nanos);
                    recorder.add_counter("wal/checkpoint-marks", 1);
                    recorder.add_counter("wal/segments-compacted", removed as u64);
                }
            }
        }
    }

    /// Arms (or disarms) a deterministic crash point on the write path —
    /// test harness hook.
    pub fn set_crash_point(&self, crash: Option<CrashPoint>) {
        if let Some(inner) = &self.inner {
            inner.lock().writer.set_crash_point(crash);
        }
    }

    /// Whether an armed crash point has fired and silenced the writer.
    pub fn is_dead(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.lock().writer.is_dead())
    }

    /// Records appended but not yet written: the open batch, waiting for
    /// its commit point. Zero whenever a server or engine call returns.
    pub fn staged(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.lock().writer.staged())
    }

    /// Global bytes appended across the log's lifetime (crash-sweep hook).
    pub fn stream_offset(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.lock().writer.stream_offset())
    }

    /// Durability counters as one JSON object — the `/durability` section
    /// of the telemetry hub. `appends` counts records and `writes` counts
    /// the batch `write(2)` calls that carried them (one per commit
    /// point); the `append_*_ns` quantiles time one commit each.
    pub fn stats_json(&self) -> String {
        let Some(inner) = &self.inner else {
            return "{\"enabled\":false}".to_string();
        };
        let inner = inner.lock();
        let last_error = match &inner.last_error {
            Some(e) => format!("{:?}", e),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"enabled\":true,\"appends\":{},\"append_bytes\":{},",
                "\"writes\":{},\"fsyncs\":{},\"rotations\":{},\"segment_index\":{},",
                "\"stream_offset\":{},\"append_p50_ns\":{},",
                "\"append_p95_ns\":{},\"append_max_ns\":{},",
                "\"last_checkpoint_rounds\":{},\"last_error\":{}}}"
            ),
            inner.writer.appends(),
            inner.append_bytes,
            inner.writer.writes(),
            inner.writer.fsyncs(),
            inner.writer.rotations(),
            inner.writer.segment_index(),
            inner.writer.stream_offset(),
            inner.append_ns.quantile_ns(0.5) as u64,
            inner.append_ns.quantile_ns(0.95) as u64,
            inner.append_ns.max_ns(),
            inner.last_checkpoint_rounds,
            last_error,
        )
    }
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_wal::FsyncPolicy;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "easeml-durability-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn noop_handle_never_invokes_the_closure() {
        let d = Durability::noop();
        assert!(!d.is_enabled());
        d.append(|| panic!("closure must not run on a disabled handle"));
        d.flush();
        d.mark_checkpoint(3, 7);
        assert_eq!(d.stats_json(), "{\"enabled\":false}");
    }

    #[test]
    fn append_and_checkpoint_roundtrip_through_the_log() {
        let dir = scratch_dir("roundtrip");
        let d = Durability::open(
            &dir,
            WalOptions {
                segment_bytes: 4096,
                fsync: FsyncPolicy::Never,
            },
        )
        .unwrap();
        d.append(|| DurableEvent::RoundStart { round: 0 });
        d.append(|| DurableEvent::RoundCommit {
            round: 0,
            user: 1,
            arm: 2,
            censored: false,
            digest: 42,
            rng: [1, 2, 3, 4],
        });
        d.mark_checkpoint(1, 42);
        let log = easeml_wal::read_log(&dir).unwrap();
        // After the checkpoint barrier only the fresh segment (holding the
        // mark) remains: the earlier segment was sealed and compacted.
        assert_eq!(log.segments.len(), 1);
        assert_eq!(log.records.len(), 1);
        let event = DurableEvent::decode(&log.records[0].payload).unwrap();
        assert_eq!(
            event,
            DurableEvent::CheckpointMark {
                rounds: 1,
                digest: 42
            }
        );
        let stats = d.stats_json();
        assert!(stats.contains("\"enabled\":true"), "{stats}");
        assert!(stats.contains("\"last_checkpoint_rounds\":1"), "{stats}");
        assert!(stats.contains("\"last_error\":null"), "{stats}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_wait_for_their_commit_point_or_a_flush() {
        let dir = scratch_dir("staging");
        let d = Durability::open(
            &dir,
            WalOptions {
                segment_bytes: 4096,
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
        let on_disk = || easeml_wal::read_log(&dir).unwrap().records.len();
        d.append(|| DurableEvent::RoundStart { round: 0 });
        d.append(|| DurableEvent::ObservationResolved {
            round: 0,
            user: 0,
            arm: 1,
            accuracy: 0.5,
            cost: 1.0,
        });
        assert_eq!((d.staged(), on_disk()), (2, 0), "staged records do no I/O");
        d.append(|| DurableEvent::RoundCommit {
            round: 0,
            user: 0,
            arm: 1,
            censored: false,
            digest: 9,
            rng: [0; 4],
        });
        assert_eq!(
            (d.staged(), on_disk()),
            (0, 3),
            "the commit writes the batch"
        );
        let stats = d.stats_json();
        assert!(stats.contains("\"appends\":3,"), "{stats}");
        assert!(stats.contains("\"writes\":1,\"fsyncs\":1,"), "{stats}");
        // An uncommitted batch stays off the disk until an explicit flush.
        d.append(|| DurableEvent::RoundStart { round: 1 });
        assert_eq!((d.staged(), on_disk()), (1, 3));
        d.flush();
        assert_eq!((d.staged(), on_disk()), (0, 4));
        let stats = d.stats_json();
        assert!(stats.contains("\"writes\":2,\"fsyncs\":2,"), "{stats}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_plan_splits_committed_from_uncommitted() {
        let dir = scratch_dir("plan");
        let d = Durability::open(&dir, WalOptions::default()).unwrap();
        // Round 5 commits (one censored attempt then success); round 6 has
        // a dangling attempt with no commit — lost on recovery.
        d.append(|| DurableEvent::RoundStart { round: 5 });
        d.append(|| DurableEvent::ObservationCensored {
            round: 5,
            user: 0,
            arm: 1,
            charge: 0.25,
            kind: KIND_TIMEOUT,
        });
        d.append(|| DurableEvent::ObservationResolved {
            round: 5,
            user: 0,
            arm: 2,
            accuracy: 0.75,
            cost: 1.0,
        });
        d.append(|| DurableEvent::RoundCommit {
            round: 5,
            user: 0,
            arm: 2,
            censored: false,
            digest: 99,
            rng: [4, 3, 2, 1],
        });
        d.append(|| DurableEvent::RoundStart { round: 6 });
        d.append(|| DurableEvent::ObservationResolved {
            round: 6,
            user: 1,
            arm: 0,
            accuracy: 0.5,
            cost: 2.0,
        });
        d.flush();
        let log = easeml_wal::read_log(&dir).unwrap();
        let plan = plan_replay(&log, 5).unwrap();
        assert_eq!(plan.skipped, 0);
        assert_eq!(plan.rounds.len(), 1);
        assert_eq!(plan.rounds[0].commit.round, 5);
        assert_eq!(plan.rounds[0].attempts.len(), 2);
        assert!(plan.rounds[0].lifecycle.is_empty());
        assert!(plan.tail.is_empty());
        assert_eq!(
            plan.rounds[0].attempts[0],
            ReplayAttempt::Censored {
                charge: 0.25,
                kind: KIND_TIMEOUT
            }
        );
        // The cut sits at the commit record: the round-6 records fall.
        let cut = plan.cut.unwrap();
        assert_eq!(
            (log.records[3].segment, log.records[3].end_offset),
            cut,
            "cut must be the commit's end offset"
        );
        // Replaying from round 6 instead skips round 5 as pre-checkpoint.
        let plan6 = plan_replay(&log, 6).unwrap();
        assert!(plan6.rounds.is_empty());
        assert_eq!(plan6.skipped, 4);
        // A gap (commit for a later round than expected) is rejected.
        assert!(plan_replay(&log, 4).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_plan_threads_lifecycle_events_through_rounds() {
        let dir = scratch_dir("lifecycle");
        let d = Durability::open(&dir, WalOptions::default()).unwrap();
        // A join before round 3, the round itself, then a retirement with
        // no round behind it yet — the retirement lands in the tail and
        // advances the cut past the dangling round-4 start.
        d.append(|| DurableEvent::TenantJoined {
            round: 3,
            user: 2,
            arms: 4,
            name: "tenant-c".into(),
            program: "{input: {[Tensor[8]], []}, output: {[Tensor[2]], []}}".into(),
        });
        d.append(|| DurableEvent::RoundStart { round: 3 });
        d.append(|| DurableEvent::ObservationResolved {
            round: 3,
            user: 2,
            arm: 1,
            accuracy: 0.6,
            cost: 1.0,
        });
        d.append(|| DurableEvent::RoundCommit {
            round: 3,
            user: 2,
            arm: 1,
            censored: false,
            digest: 7,
            rng: [1, 2, 3, 4],
        });
        d.append(|| DurableEvent::TenantRetired { round: 4, user: 0 });
        d.append(|| DurableEvent::RoundStart { round: 4 });
        d.flush();
        let log = easeml_wal::read_log(&dir).unwrap();
        let plan = plan_replay(&log, 3).unwrap();
        assert_eq!(plan.rounds.len(), 1);
        assert_eq!(
            plan.rounds[0].lifecycle,
            vec![LifecycleAction::Join {
                user: 2,
                arms: 4,
                name: "tenant-c".into(),
                program: "{input: {[Tensor[8]], []}, output: {[Tensor[2]], []}}".into(),
            }]
        );
        assert_eq!(plan.tail, vec![LifecycleAction::Retire { user: 0 }]);
        // The retirement is durable: the cut sits at its record, not the
        // earlier commit, so truncation only drops the dangling start.
        let cut = plan.cut.unwrap();
        assert_eq!((log.records[4].segment, log.records[4].end_offset), cut);
        // Replayed from a checkpoint past round 3, both lifecycle events
        // with pre-checkpoint rounds are skipped; the tail retirement
        // (round 4 >= 4) still applies.
        let plan4 = plan_replay(&log, 4).unwrap();
        assert!(plan4.rounds.is_empty());
        assert_eq!(plan4.tail, vec![LifecycleAction::Retire { user: 0 }]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
