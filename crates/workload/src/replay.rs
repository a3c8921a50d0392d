//! The replay driver: feeds a time-ordered workload script — job arrivals
//! plus tenant churn — through an open-loop [`ExecEngine`].
//!
//! Determinism contract: a script is a pure value, the engine is seeded,
//! so `(dataset, priors, config, script, seed)` names one execution
//! forever. Lifecycle events gate the arrival feed — arrivals scripted
//! after a retirement are not pushed until the retirement applied — and a
//! lifecycle event applies at the first driver step whose engine clock has
//! reached it (or immediately when the engine would otherwise go idle).
//! [`ReplayDriver::checkpoint`] captures the engine snapshot plus the
//! script cursor, so a restore resumes the replay bit-exactly.

use crate::lifecycle::{churn_timeline, ChurnConfig, LifecycleAction};
use crate::{ArrivalKind, ArrivalProcess};
use easeml::exec::{ExecCheckpoint, ExecEngine, ExecTrace};
use easeml_data::Dataset;
use easeml_gp::ArmPrior;
use easeml_obs::json::{self, as_object, get_u32, get_usize};
use easeml_wal::splitmix64;

/// One scripted workload event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadEvent {
    /// Tenant `user` submits one job at simulated time `at`.
    Arrival {
        /// Engine user slot.
        user: usize,
        /// Absolute simulated time.
        at: f64,
    },
    /// Tenant `user` leaves the service at `at`.
    Retire {
        /// Engine user slot.
        user: usize,
        /// Absolute simulated time.
        at: f64,
    },
    /// Tenant `user` rejoins the service at `at`.
    Rejoin {
        /// Engine user slot.
        user: usize,
        /// Absolute simulated time.
        at: f64,
    },
}

impl WorkloadEvent {
    /// The event's scripted time.
    #[must_use]
    pub fn at(&self) -> f64 {
        match *self {
            WorkloadEvent::Arrival { at, .. }
            | WorkloadEvent::Retire { at, .. }
            | WorkloadEvent::Rejoin { at, .. } => at,
        }
    }

    /// The tenant slot the event concerns.
    #[must_use]
    pub fn user(&self) -> usize {
        match *self {
            WorkloadEvent::Arrival { user, .. }
            | WorkloadEvent::Retire { user, .. }
            | WorkloadEvent::Rejoin { user, .. } => user,
        }
    }
}

/// A time-sorted sequence of workload events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadScript {
    events: Vec<WorkloadEvent>,
}

impl WorkloadScript {
    /// A script from raw events; sorts them by time (stable, so ties keep
    /// insertion order).
    #[must_use]
    pub fn new(mut events: Vec<WorkloadEvent>) -> Self {
        events.sort_by(|a, b| a.at().total_cmp(&b.at()));
        WorkloadScript { events }
    }

    /// A synthetic open-loop workload: every user runs an independent,
    /// seeded arrival process of the given shape over `[0, horizon)`, with
    /// optional tenant churn layered on top.
    #[must_use]
    pub fn synthetic(
        num_users: usize,
        kind: ArrivalKind,
        horizon: f64,
        churn: Option<&ChurnConfig>,
        seed: u64,
    ) -> Self {
        let mut events = Vec::new();
        for user in 0..num_users {
            let mut process = ArrivalProcess::new(kind, seed ^ splitmix64(user as u64 + 1));
            for at in process.take_until(horizon) {
                events.push(WorkloadEvent::Arrival { user, at });
            }
        }
        if let Some(churn) = churn {
            // A distinct substream key so churn draws never collide with
            // arrival draws.
            for (at, action) in churn_timeline(num_users, horizon, churn, splitmix64(seed)) {
                events.push(match action {
                    LifecycleAction::Retire { user } => WorkloadEvent::Retire { user, at },
                    LifecycleAction::Rejoin { user } => WorkloadEvent::Rejoin { user, at },
                });
            }
        }
        WorkloadScript::new(events)
    }

    /// A script replaying mapped trace jobs (`(slot, time)` pairs from
    /// [`crate::map_jobs`]). When `retire_after_last_job` is set, each slot
    /// retires right after its final arrival — the churn a bounded trace
    /// implies.
    #[must_use]
    pub fn from_trace(mapped: &[(usize, f64)], retire_after_last_job: bool) -> Self {
        let mut events: Vec<WorkloadEvent> = mapped
            .iter()
            .map(|&(user, at)| WorkloadEvent::Arrival { user, at })
            .collect();
        if retire_after_last_job {
            let mut last: Vec<Option<f64>> = Vec::new();
            for &(user, at) in mapped {
                if last.len() <= user {
                    last.resize(user + 1, None);
                }
                last[user] = Some(last[user].map_or(at, |t: f64| t.max(at)));
            }
            for (user, at) in last.into_iter().enumerate() {
                if let Some(at) = at {
                    events.push(WorkloadEvent::Retire { user, at });
                }
            }
        }
        WorkloadScript::new(events)
    }

    /// The events, time-sorted.
    #[must_use]
    pub fn events(&self) -> &[WorkloadEvent] {
        &self.events
    }

    /// Total number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of job arrivals in the script.
    #[must_use]
    pub fn arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, WorkloadEvent::Arrival { .. }))
            .count()
    }

    /// Number of retire/rejoin events in the script.
    #[must_use]
    pub fn lifecycle_events(&self) -> usize {
        self.events.len() - self.arrivals()
    }
}

/// Current replay-checkpoint format version.
pub const REPLAY_CHECKPOINT_VERSION: u32 = 1;

/// A mid-replay snapshot: the engine checkpoint plus the script cursor.
/// The script itself is NOT embedded — it is a deterministic value the
/// caller reconstructs (same generator seed or same trace file) and hands
/// back to [`ReplayDriver::restore`]; `script_len` guards against resuming
/// with a different one.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCheckpoint {
    /// Format version ([`REPLAY_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Script events already fed to the engine.
    pub cursor: usize,
    /// Total script length at checkpoint time.
    pub script_len: usize,
    /// The engine snapshot.
    pub engine: ExecCheckpoint,
}

impl ReplayCheckpoint {
    /// Serializes as a two-line document: a manifest line, then the engine
    /// checkpoint JSON.
    #[must_use]
    pub fn encode(&self) -> String {
        format!(
            "{{\"version\":{},\"cursor\":{},\"script_len\":{}}}\n{}",
            self.version,
            self.cursor,
            self.script_len,
            self.engine.to_json()
        )
    }

    /// Parses a document produced by [`ReplayCheckpoint::encode`].
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed manifest, a version mismatch, or a
    /// malformed embedded engine checkpoint.
    pub fn decode(input: &str) -> Result<Self, String> {
        let (manifest, engine_json) = input.split_once('\n').ok_or_else(|| {
            "replay checkpoint needs a manifest line and an engine line".to_string()
        })?;
        let doc = json::parse(manifest)?;
        let fields = as_object(&doc, "replay manifest")?;
        let version = get_u32(fields, "version")?;
        if version != REPLAY_CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported replay checkpoint version {version} \
                 (expected {REPLAY_CHECKPOINT_VERSION})"
            ));
        }
        Ok(ReplayCheckpoint {
            version,
            cursor: get_usize(fields, "cursor")?,
            script_len: get_usize(fields, "script_len")?,
            engine: ExecCheckpoint::from_json(engine_json)?,
        })
    }
}

/// Drives a [`WorkloadScript`] through an open-loop [`ExecEngine`].
pub struct ReplayDriver<'a> {
    engine: ExecEngine<'a>,
    script: WorkloadScript,
    cursor: usize,
}

impl<'a> ReplayDriver<'a> {
    /// Wraps `engine` (switched into open-loop mode) around `script`.
    #[must_use]
    pub fn new(mut engine: ExecEngine<'a>, script: WorkloadScript) -> Self {
        engine.set_open_loop(true);
        ReplayDriver {
            engine,
            script,
            cursor: 0,
        }
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &ExecEngine<'a> {
        &self.engine
    }

    /// The wrapped engine, mutably (attach recorders or durability).
    pub fn engine_mut(&mut self) -> &mut ExecEngine<'a> {
        &mut self.engine
    }

    /// Script events already fed to the engine.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Pushes the maximal script prefix: arrivals unconditionally (they
    /// queue by time inside the engine), lifecycle events once the engine
    /// clock has reached them.
    fn feed(&mut self) {
        while let Some(event) = self.script.events.get(self.cursor) {
            match *event {
                WorkloadEvent::Arrival { user, at } => {
                    self.engine.push_arrival(user, at);
                }
                WorkloadEvent::Retire { user, at } if at <= self.engine.now() => {
                    self.engine.retire_tenant(user);
                }
                WorkloadEvent::Rejoin { user, at } if at <= self.engine.now() => {
                    self.engine.rejoin_tenant(user);
                }
                _ => break,
            }
            self.cursor += 1;
        }
    }

    /// One replay step: feed due script events, then advance the engine by
    /// one event. When the engine goes idle while a future lifecycle event
    /// still gates the script, the event applies immediately (the clock
    /// cannot advance through an empty event queue). Returns `false` once
    /// both the script and the engine are exhausted.
    pub fn step(&mut self) -> bool {
        loop {
            self.feed();
            if self.engine.tick() {
                return true;
            }
            match self.script.events.get(self.cursor) {
                Some(WorkloadEvent::Retire { user, .. }) => {
                    self.engine.retire_tenant(*user);
                    self.cursor += 1;
                }
                Some(WorkloadEvent::Rejoin { user, .. }) => {
                    self.engine.rejoin_tenant(*user);
                    self.cursor += 1;
                }
                // `feed` pushes every leading arrival, so the gate here is
                // always a lifecycle event or the script's end.
                Some(WorkloadEvent::Arrival { .. }) => unreachable!("feed pushes arrivals"),
                None => return false,
            }
        }
    }

    /// Drives the replay to completion and returns the engine's trace.
    #[must_use]
    pub fn run(mut self) -> ExecTrace {
        while self.step() {}
        self.engine.finish()
    }

    /// Snapshots the replay: engine checkpoint plus script cursor.
    #[must_use]
    pub fn checkpoint(&self) -> ReplayCheckpoint {
        ReplayCheckpoint {
            version: REPLAY_CHECKPOINT_VERSION,
            cursor: self.cursor,
            script_len: self.script.len(),
            engine: self.engine.checkpoint(),
        }
    }

    /// Resumes a replay from a checkpoint. `script` must be the same value
    /// the checkpointed driver ran (reconstruct it from the same seed or
    /// trace); only its length is verifiable here.
    ///
    /// # Errors
    ///
    /// Version mismatch, script length mismatch, cursor out of range, or
    /// an engine restore failure.
    pub fn restore(
        dataset: &'a Dataset,
        priors: &[ArmPrior],
        script: WorkloadScript,
        ck: &ReplayCheckpoint,
    ) -> Result<Self, String> {
        if ck.version != REPLAY_CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported replay checkpoint version {} (expected {REPLAY_CHECKPOINT_VERSION})",
                ck.version
            ));
        }
        if ck.script_len != script.len() {
            return Err(format!(
                "checkpoint was taken against a {}-event script, got {}",
                ck.script_len,
                script.len()
            ));
        }
        if ck.cursor > script.len() {
            return Err(format!(
                "cursor {} out of range for a {}-event script",
                ck.cursor,
                script.len()
            ));
        }
        let engine = ExecEngine::restore(dataset, priors, &ck.engine)?;
        Ok(ReplayDriver {
            engine,
            script,
            cursor: ck.cursor,
        })
    }
}
