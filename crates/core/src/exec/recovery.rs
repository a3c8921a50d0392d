//! Verify-replay recovery for the execution engine.
//!
//! The exec side needs no attempt substitution: every in-flight run's
//! outcome is pre-resolved inside the checkpoint, and the fault stream is
//! keyed by `(user, arm, attempt)` with the attempt counters checkpointed
//! — so a restored engine re-derives the post-checkpoint trajectory on its
//! own. What the WAL adds is *verification*: every logged
//! [`DurableEvent::ExecCompletion`] carries the rolling witness digest at
//! that completion, and [`recover_engine`] ticks the restored engine
//! forward asserting digest equality at each one. A committed completion
//! the engine cannot reproduce bit-exactly is an error, never a silent
//! divergence; dispatch records after the last completion (runs in flight
//! at the crash) are counted and truncated.

use super::checkpoint::ExecCheckpoint;
use super::engine::ExecEngine;
use crate::durability::RecoveryReport;
use easeml_data::Dataset;
use easeml_gp::ArmPrior;
use easeml_wal::{read_log, DurableEvent};
use std::path::Path;
use std::time::Instant;

/// One logged completion with its physical position in the log.
struct LoggedCompletion {
    seq: u64,
    digest: u64,
    segment: u64,
    end_offset: u64,
}

/// Rebuilds an engine from `ck` and verifies it against the WAL in
/// `wal_dir`: every completion logged after the checkpoint must be
/// reproduced with an identical rolling digest. Returns the caught-up
/// engine and a [`RecoveryReport`]; the log's uncommitted suffix (dispatch
/// records of runs that never completed) is physically truncated.
///
/// The returned engine has no WAL attached; call
/// [`ExecEngine::set_durability`] to resume logging.
///
/// # Errors
///
/// Unreadable WAL, serial-simulator records in the log, a checkpoint
/// digest that never appears in the completion chain, or any digest /
/// sequence divergence during replay.
pub fn recover_engine<'a>(
    dataset: &'a Dataset,
    priors: &[ArmPrior],
    ck: &ExecCheckpoint,
    wal_dir: &Path,
) -> Result<(ExecEngine<'a>, RecoveryReport), String> {
    let start = Instant::now();
    let mut engine = ExecEngine::restore(dataset, priors, ck)?;
    let d0 = engine.wlog.digest_value();
    let checkpoint_rounds = engine.completions() as u64;
    let log = read_log(wal_dir).map_err(|e| format!("reading WAL {}: {e}", wal_dir.display()))?;
    let mut completions: Vec<LoggedCompletion> = Vec::new();
    let mut cut: Option<(u64, u64)> = None;
    // Completions seen before the last mark whose digest matches the
    // checkpoint — the suffix anchor when compaction already removed the
    // pre-checkpoint completions from the log.
    let mut mark_anchor: Option<usize> = None;
    for rec in &log.records {
        let event = DurableEvent::decode(&rec.payload)
            .map_err(|e| format!("undecodable WAL record (CRC passed): {e}"))?;
        match event {
            DurableEvent::ExecCompletion { seq, digest, .. } => {
                completions.push(LoggedCompletion {
                    seq,
                    digest,
                    segment: rec.segment,
                    end_offset: rec.end_offset,
                })
            }
            // Dispatches are uncommitted intent; marks are barriers that
            // must survive truncation. Tenant lifecycle records are audit
            // entries here: the workload driver that issued them re-applies
            // join/retire from its own replay position after a restore, so
            // verify-replay neither applies nor rejects them.
            DurableEvent::ExecDispatch { .. }
            | DurableEvent::TenantJoined { .. }
            | DurableEvent::TenantRetired { .. } => {}
            DurableEvent::CheckpointMark { digest, .. } => {
                cut = Some((rec.segment, rec.end_offset));
                if digest == d0 {
                    mark_anchor = Some(completions.len());
                }
            }
            _ => return Err("serial-simulator records in an exec-engine WAL".into()),
        }
    }
    // The digest at the checkpoint locates the replay suffix: completions
    // after its last occurrence are post-checkpoint. When the checkpoint's
    // own barrier compacted the pre-checkpoint completions away, the
    // surviving mark record carries the digest instead. A checkpoint taken
    // before any completion anchors at the start.
    let begin = if checkpoint_rounds == 0 || completions.is_empty() {
        // Nothing to skip: either the checkpoint predates every logged
        // completion, or the crash hit the checkpoint barrier itself —
        // compaction already emptied the log and the mark is torn, so the
        // checkpoint document alone carries the state.
        0
    } else {
        match completions.iter().rposition(|c| c.digest == d0) {
            Some(i) => i + 1,
            None => match mark_anchor {
                Some(anchor) => anchor,
                None => {
                    return Err(format!(
                        "checkpoint digest {d0:016x} not found in the WAL completion chain \
                         ({} completions)",
                        completions.len()
                    ))
                }
            },
        }
    };
    for skipped in &completions[..begin] {
        let mark = Some((skipped.segment, skipped.end_offset));
        if mark > cut {
            cut = mark;
        }
    }
    let mut verified = 0u64;
    for logged in &completions[begin..] {
        if !engine.tick() {
            return Err(format!(
                "engine finished before reproducing logged completion seq {}",
                logged.seq
            ));
        }
        let digest = engine.wlog.digest_value();
        if digest != logged.digest {
            return Err(format!(
                "completion seq {}: replay digest {digest:016x} != logged {:016x}",
                logged.seq, logged.digest
            ));
        }
        verified += 1;
        let mark = Some((logged.segment, logged.end_offset));
        if mark > cut {
            cut = mark;
        }
    }
    let report = RecoveryReport {
        checkpoint_rounds,
        replayed_rounds: verified,
        skipped_records: begin as u64,
        final_rounds: engine.completions() as u64,
        final_digest: engine.wlog.digest_hex(),
        ..RecoveryReport::default()
    }
    .drop_suffix(wal_dir, &log, cut, start)?;
    Ok((engine, report))
}
