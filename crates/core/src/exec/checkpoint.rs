//! Crash-safe checkpoint/restore of in-flight execution state.
//!
//! [`ExecCheckpoint`] snapshots what the engine needs to resume mid-flight
//! and cannot rebuild: the resolved observation sequence (replaying it
//! through the same numeric path rebuilds bit-identical GP state and each
//! tenant's best), every in-flight run's pre-resolved outcome, the device
//! fleet's busy/idle integrals, the fault injector's attempt counters, and
//! the HYBRID picker's freeze detector. The in-flight runs come back in
//! dispatch order, so the next dispatch for their user hallucinates over
//! exactly the arms the original would have (a hallucinated view is always
//! the real posterior plus one mean-fake per in-flight arm, in order,
//! computed when it is needed).
//!
//! Restore derives every other counter from those fields: `dispatches` is
//! the next sequence number and picker step, the completed rounds are the
//! resolved runs, the censored ones are the dispatches neither resolved
//! nor in flight, the witness log has folded every dispatch not in flight,
//! and the warm-up that [`ExecEngine::new`] reruns gives the initial loss.
//!
//! The `hybrid` and `fault` sections are [`crate::checkpoint`]'s shared
//! [`PickerCheckpoint`] and [`FaultCheckpoint`], the same types the server
//! document stores under `picker` and `fault`. Serialization follows the
//! same hand-rolled JSON conventions: finite floats round-trip bit-exactly,
//! non-finite floats serialize as `null` (the in-flight `quality` of a
//! censored run, HYBRID's `-inf` sentinel), and `u64` seeds travel as
//! decimal strings.
//!
//! One caveat: the stochastic pickers ([`SchedulerKind::Random`],
//! `Greedy(Random)`) draw from an RNG whose stream position is not part of
//! the checkpoint — a restored run re-seeds from the start, so only the
//! deterministic schedulers replay bit-identically across a restore.

use super::engine::{Arrival, ExecEngine, InFlight};
use super::fleet::{DeviceSpec, Fleet};
use crate::checkpoint::{
    check_gp_settings, decode_u64, encode_u64, in_range, non_negative, parse_nullable, positive,
    FaultCheckpoint, PickerCheckpoint,
};
use crate::sim::{SchedulerKind, SimConfig, SimEvent};
use crate::witness::DecisionLog;
use easeml_data::Dataset;
use easeml_gp::ArmPrior;
use easeml_obs::json::{
    self, as_bool, as_f64, as_object, as_tuple, as_u64, get, get_bool, get_f64, get_f64_or_nan,
    get_str, get_u32, get_u64, get_usize, parse_array, parse_object, parse_objects, Json,
    INTEGER_BOUND,
};
use easeml_obs::RecorderHandle;
use serde::Serialize;

/// Current execution-checkpoint format version.
///
/// v2 added the bounded queueing-delay / busy-span quantile sketches;
/// v3 added the rolling witness-digest chain (`witness_*` fields) so a
/// restored engine continues the digest WAL recovery asserts against;
/// v4 added open-loop workload state (`open_loop`, per-tenant `retired` /
/// `backlog`, and the pending `arrivals` queue) so a mid-replay restore
/// resumes the workload bit-exactly;
/// v5 dropped what restore derives (`next_seq`, `step`, `rounds`,
/// `censored`, `witness_rounds`, `initial_loss` and `best_seen`), the
/// dispatch board's `board_done` that nothing read, and `witness_top_k`,
/// now the constant [`crate::witness::WITNESS_TOP_K`].
pub const EXEC_CHECKPOINT_VERSION: u32 = 5;

/// A bounded quantile sketch's exported state (mirrors
/// [`easeml_obs::SketchParts`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SketchCheckpoint {
    /// Relative-error target α.
    pub alpha: f64,
    /// Live-bucket cap.
    pub max_buckets: u64,
    /// `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(i32, u64)>,
    /// Observations at or below the zero noise floor.
    pub zeros: u64,
    /// Rejected observations.
    pub rejected: u64,
    /// Observations whose bucket was collapsed by the cap.
    pub collapsed: u64,
    /// Sum of accepted observations.
    pub sum: f64,
    /// Smallest accepted observation (`None` when empty).
    pub min: Option<f64>,
    /// Largest accepted observation (`None` when empty).
    pub max: Option<f64>,
}

impl SketchCheckpoint {
    fn of(sketch: &easeml_obs::QuantileSketch) -> Self {
        let parts = sketch.to_parts();
        SketchCheckpoint {
            alpha: parts.alpha,
            max_buckets: parts.max_buckets as u64,
            buckets: parts.buckets,
            zeros: parts.zeros,
            rejected: parts.rejected,
            collapsed: parts.collapsed,
            sum: parts.sum,
            min: parts.min,
            max: parts.max,
        }
    }

    fn to_sketch(&self) -> easeml_obs::QuantileSketch {
        easeml_obs::QuantileSketch::from_parts(&easeml_obs::SketchParts {
            alpha: self.alpha,
            max_buckets: self.max_buckets as usize,
            buckets: self.buckets.clone(),
            zeros: self.zeros,
            rejected: self.rejected,
            collapsed: self.collapsed,
            sum: self.sum,
            min: self.min,
            max: self.max,
        })
    }
}

/// One device's spec and runtime accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceCheckpoint {
    /// Speed factor.
    pub speed: f64,
    /// Job slots.
    pub slots: u64,
    /// Occupied slots at checkpoint time.
    pub in_use: u64,
    /// Accrued busy slot-time.
    pub busy: f64,
    /// Accrued idle slot-time.
    pub idle: f64,
    /// Time of the last accounting update.
    pub last_t: f64,
    /// When the device last became fully idle.
    pub idle_since: f64,
}

/// One in-flight run, outcome pre-resolved but unrevealed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InFlightCheckpoint {
    /// Dispatch sequence number.
    pub seq: u64,
    /// Served user.
    pub user: usize,
    /// Dispatched model.
    pub model: usize,
    /// Executing device.
    pub device: usize,
    /// Dispatch time.
    pub dispatched_at: f64,
    /// Scheduled completion time.
    pub finish: f64,
    /// Charged cost.
    pub charge: f64,
    /// Whether the run completes with a usable quality.
    pub ok: bool,
    /// Revealed quality; serialized as `null` (NaN) for censored runs.
    pub quality: f64,
    /// Censoring kind (empty for clean runs).
    pub kind: String,
}

/// One resolved (completed) run, in completion order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResolvedCheckpoint {
    /// Served user.
    pub user: usize,
    /// Trained model.
    pub model: usize,
    /// Charged cost.
    pub cost: f64,
    /// Revealed quality.
    pub quality: f64,
}

/// One arrival still waiting for the simulated clock at checkpoint time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArrivalCheckpoint {
    /// Arrival sequence number.
    pub seq: u64,
    /// The tenant the job belongs to.
    pub user: usize,
    /// Absolute simulated arrival time.
    pub at: f64,
}

/// The full mid-flight engine snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExecCheckpoint {
    /// Format version ([`EXEC_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Scheduler kind name (canonical [`SchedulerKind::name`]).
    pub kind: String,
    /// Picker RNG seed, as a decimal string.
    pub seed: String,
    /// Cost budget.
    pub budget: f64,
    /// Cost-aware arm selection flag.
    pub cost_aware: bool,
    /// GP observation-noise variance.
    pub noise_var: f64,
    /// β-schedule failure probability δ.
    pub delta: f64,
    /// The fleet: specs plus runtime accounting.
    pub devices: Vec<DeviceCheckpoint>,
    /// Simulated clock.
    pub now: f64,
    /// Total dispatches: the next dispatch's sequence number and picker
    /// step.
    pub dispatches: u64,
    /// Dispatches made while other runs were in flight.
    pub parallel_dispatches: u64,
    /// Cost committed so far.
    pub committed: f64,
    /// Per-user charged cost.
    pub user_cost: Vec<f64>,
    /// `(time, mean loss)` trajectory so far.
    pub points: Vec<(f64, f64)>,
    /// Resolved runs in completion order — replaying them rebuilds the GP
    /// posteriors bit-identically.
    pub resolved: Vec<ResolvedCheckpoint>,
    /// In-flight runs in dispatch (sequence) order.
    pub in_flight: Vec<InFlightCheckpoint>,
    /// HYBRID picker state, present exactly when the scheduler is HYBRID.
    pub hybrid: Option<PickerCheckpoint>,
    /// Fault injector, if one is attached.
    pub fault: Option<FaultCheckpoint>,
    /// Queueing-delay sketch accrued so far.
    pub queueing_delay: SketchCheckpoint,
    /// Busy-span sketch accrued so far.
    pub busy_spans: SketchCheckpoint,
    /// Rolling witness digest at checkpoint time, as a decimal string. It
    /// has folded every dispatch not in flight.
    pub witness_digest: String,
    /// Open-loop mode flag (v4).
    pub open_loop: bool,
    /// Per-tenant retirement flags (v4).
    pub retired: Vec<bool>,
    /// Per-tenant arrived-but-undispatched job counts (v4).
    pub backlog: Vec<u64>,
    /// Next arrival sequence number (v4).
    pub arrival_seq: u64,
    /// Arrivals not yet absorbed, in non-decreasing time order (v4).
    pub arrivals: Vec<ArrivalCheckpoint>,
}

impl ExecEngine<'_> {
    /// Snapshots the full mid-flight state.
    pub fn checkpoint(&self) -> ExecCheckpoint {
        let devices = self
            .fleet
            .devices
            .iter()
            .map(|d| DeviceCheckpoint {
                speed: d.spec.speed,
                slots: d.spec.slots as u64,
                in_use: d.in_use as u64,
                busy: d.busy,
                idle: d.idle,
                last_t: d.last_t,
                idle_since: d.idle_since,
            })
            .collect();
        let in_flight = self
            .in_flight
            .iter()
            .map(|r| InFlightCheckpoint {
                seq: r.seq,
                user: r.user,
                model: r.model,
                device: r.device,
                dispatched_at: r.dispatched_at,
                finish: r.finish,
                charge: r.charge,
                ok: r.ok,
                quality: r.quality,
                kind: r.kind.clone(),
            })
            .collect();
        ExecCheckpoint {
            version: EXEC_CHECKPOINT_VERSION,
            kind: self.kind.name().to_string(),
            seed: encode_u64(self.seed),
            budget: self.cfg.budget,
            cost_aware: self.cfg.cost_aware,
            noise_var: self.cfg.noise_var,
            delta: self.cfg.delta,
            devices,
            now: self.now,
            dispatches: self.dispatches as u64,
            parallel_dispatches: self.parallel_dispatches as u64,
            committed: self.committed,
            user_cost: self.user_cost.clone(),
            points: self.points.clone(),
            resolved: self
                .events
                .iter()
                .map(|e| ResolvedCheckpoint {
                    user: e.user,
                    model: e.model,
                    cost: e.cost,
                    quality: e.quality,
                })
                .collect(),
            in_flight,
            hybrid: self.picker.as_hybrid().map(PickerCheckpoint::of),
            fault: self.injector.as_ref().map(FaultCheckpoint::of),
            queueing_delay: SketchCheckpoint::of(&self.queueing_delay),
            busy_spans: SketchCheckpoint::of(&self.busy_spans),
            witness_digest: encode_u64(self.wlog.digest_value()),
            open_loop: self.open_loop,
            retired: self.retired.clone(),
            backlog: self.backlog.clone(),
            arrival_seq: self.arrival_seq,
            arrivals: self
                .arrivals
                .iter()
                .map(|a| ArrivalCheckpoint {
                    seq: a.seq,
                    user: a.user,
                    at: a.at,
                })
                .collect(),
        }
    }

    /// Writes this engine's checkpoint to `path` atomically (temp file +
    /// rename + fsync), then — when a WAL is attached — seals and compacts
    /// the log behind a checkpoint mark, exactly like the serial server's
    /// [`crate::server::EaseMl::checkpoint_to`].
    ///
    /// # Errors
    ///
    /// Filesystem errors from the atomic write.
    pub fn checkpoint_to(&self, path: &std::path::Path) -> Result<(), String> {
        let json = self.checkpoint().to_json();
        crate::checkpoint::write_checkpoint_atomic(path, &json).map_err(|e| e.to_string())?;
        self.durability
            .mark_checkpoint(self.completions() as u64, self.wlog.digest_value());
        Ok(())
    }

    /// Rebuilds an engine from a checkpoint: reruns the warm-up, replays
    /// the resolved observations through the same numeric path
    /// (bit-identical GP posteriors and bests), re-enters every in-flight
    /// run in dispatch order, and restores the fleet, fault and picker
    /// state; every counter the document does not store is derived (see
    /// the module docs). The restored engine carries a disabled recorder;
    /// attach a live one with [`ExecEngine::attach_recorder`].
    ///
    /// # Errors
    ///
    /// Returns a message on a version mismatch, an unknown scheduler kind,
    /// a malformed seed, dimensions that do not fit `dataset`/`priors`, or
    /// a field the engine cannot run from, naming the field: an
    /// out-of-range user, model or device index, a non-finite resolved
    /// quality, an empty fleet, a zero-slot device, device occupancy that
    /// disagrees with the in-flight runs, a budget, noise variance or δ
    /// that core's restore would refuse too, a clock, cost, device integral,
    /// in-flight or arrival time that is not finite and non-negative, a run
    /// finishing before its dispatch, an arrival earlier than the one
    /// queued before it, fewer dispatches than resolved and in-flight runs,
    /// a `hybrid`
    /// section whose presence disagrees with the kind, or a `hybrid` or
    /// `fault` section its shared restore refuses.
    pub fn restore<'a>(
        dataset: &'a Dataset,
        priors: &[ArmPrior],
        ck: &ExecCheckpoint,
    ) -> Result<ExecEngine<'a>, String> {
        if ck.version != EXEC_CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported exec checkpoint version {} (expected {EXEC_CHECKPOINT_VERSION})",
                ck.version
            ));
        }
        // The engine runs GP-backed kinds only, not the §5.2 heuristics.
        let kind = SchedulerKind::from_name(&ck.kind)
            .filter(|k| !k.is_heuristic())
            .ok_or_else(|| format!("unknown scheduler kind {:?}", ck.kind))?;
        let seed = decode_u64(&ck.seed)?;
        let n = dataset.num_users();
        if ck.user_cost.len() != n || ck.retired.len() != n || ck.backlog.len() != n {
            return Err(format!(
                "checkpoint is for {} users, dataset has {n}",
                ck.user_cost.len()
            ));
        }
        check_runnable(ck, n, dataset.num_models())?;
        let injector = ck
            .fault
            .as_ref()
            .map(FaultCheckpoint::restore)
            .transpose()?;
        let cfg = SimConfig {
            budget: ck.budget,
            cost_aware: ck.cost_aware,
            noise_var: ck.noise_var,
            delta: ck.delta,
            fault: injector.as_ref().map(|i| i.config().clone()),
        };
        let specs: Vec<DeviceSpec> = ck
            .devices
            .iter()
            .map(|d| DeviceSpec {
                speed: d.speed,
                slots: d.slots as usize,
            })
            .collect();
        let mut engine = ExecEngine::new(
            dataset,
            priors,
            kind,
            &cfg,
            Fleet::new(specs),
            seed,
            RecorderHandle::noop(),
        );
        engine.injector = injector;
        // The picker `new` built is HYBRID exactly when the kind is.
        match (&ck.hybrid, engine.picker.as_hybrid().is_some()) {
            (Some(h), true) => engine.picker = Box::new(h.restore("hybrid")?),
            (None, false) => {}
            (section, _) => {
                return Err(format!(
                    "hybrid: the section is {} for the scheduler kind {:?}",
                    if section.is_some() {
                        "present"
                    } else {
                        "missing"
                    },
                    ck.kind
                ))
            }
        }

        // Replay the resolved observations in completion order: the GP
        // posteriors and the bests grow through the exact numeric path of
        // the original run. The picker is NOT notified — its state is
        // restored verbatim above (HYBRID) or is a pure function of the
        // dispatch count (the rest).
        for r in &ck.resolved {
            engine.tenants.observe(r.user, r.model, r.quality);
            engine.loss.observe(r.user, r.quality);
            engine.events.push(SimEvent {
                user: r.user,
                model: r.model,
                cost: r.cost,
                quality: r.quality,
            });
        }
        for (dev, d) in engine.fleet.devices.iter_mut().zip(&ck.devices) {
            dev.in_use = d.in_use as usize;
            dev.busy = d.busy;
            dev.idle = d.idle;
            dev.last_t = d.last_t;
            dev.idle_since = d.idle_since;
        }
        // In-flight runs re-enter in dispatch order: the next dispatch for
        // their user hallucinates over them exactly as the original would.
        for r in &ck.in_flight {
            engine.queue.push(r.finish, r.seq);
            engine.in_flight.push(InFlight {
                seq: r.seq,
                user: r.user,
                model: r.model,
                device: r.device,
                dispatched_at: r.dispatched_at,
                finish: r.finish,
                charge: r.charge,
                ok: r.ok,
                quality: r.quality,
                kind: r.kind.clone(),
                // A checkpoint does not carry the dispatch-time decision
                // context; the restored run's completion skips the witness
                // chain but still folds into the digest.
                witness: None,
            });
        }
        engine.now = ck.now;
        engine.dispatches = ck.dispatches as usize;
        engine.parallel_dispatches = ck.parallel_dispatches as usize;
        engine.committed = ck.committed;
        engine.user_cost = ck.user_cost.clone();
        engine.points = ck.points.clone();
        engine.queueing_delay = ck.queueing_delay.to_sketch();
        engine.busy_spans = ck.busy_spans.to_sketch();
        // Continue the rolling digest chain: ExecEngine::new ran warm_up
        // with a fresh log, so this overwrite is what makes the restored
        // digest trajectory match the original's (WAL recovery asserts
        // completion-by-completion equality on it).
        engine.wlog = DecisionLog::from_state(decode_u64(&ck.witness_digest)?);
        // Open-loop workload state (v4): restore the raw fields, then let
        // the engine recompute every tenant's picker visibility from them.
        engine.retired = ck.retired.clone();
        engine.backlog = ck.backlog.clone();
        engine.arrival_seq = ck.arrival_seq;
        engine.arrivals = ck
            .arrivals
            .iter()
            .map(|a| Arrival {
                seq: a.seq,
                user: a.user,
                at: a.at,
            })
            .collect();
        engine.set_open_loop(ck.open_loop);
        Ok(engine)
    }
}

/// Rejects every field value that would make [`ExecEngine::restore`], or
/// a later tick of the restored engine, panic or never end: a checkpoint
/// is outside input. The `hybrid` and `fault` sections are checked by
/// their shared restores.
fn check_runnable(ck: &ExecCheckpoint, users: usize, models: usize) -> Result<(), String> {
    positive(ck.budget, || "budget".into())?;
    check_gp_settings(ck.noise_var, ck.delta)?;
    non_negative(ck.now, || "now".into())?;
    non_negative(ck.committed, || "committed".into())?;
    if ck.devices.is_empty() {
        return Err("devices: a fleet needs at least one device".into());
    }
    for (i, d) in ck.devices.iter().enumerate() {
        positive(d.speed, || format!("devices[{i}].speed"))?;
        if d.slots == 0 {
            return Err(format!("devices[{i}].slots must be positive"));
        }
        for (name, value) in [
            ("busy", d.busy),
            ("idle", d.idle),
            ("last_t", d.last_t),
            ("idle_since", d.idle_since),
        ] {
            non_negative(value, || format!("devices[{i}].{name}"))?;
        }
    }
    for (i, r) in ck.resolved.iter().enumerate() {
        in_range(r.user, users, || format!("resolved[{i}].user"))?;
        in_range(r.model, models, || format!("resolved[{i}].model"))?;
        if !r.quality.is_finite() {
            return Err(format!("resolved[{i}].quality must be finite"));
        }
    }
    for (i, r) in ck.in_flight.iter().enumerate() {
        in_range(r.user, users, || format!("in_flight[{i}].user"))?;
        in_range(r.model, models, || format!("in_flight[{i}].model"))?;
        in_range(r.device, ck.devices.len(), || {
            format!("in_flight[{i}].device")
        })?;
        non_negative(r.dispatched_at, || format!("in_flight[{i}].dispatched_at"))?;
        non_negative(r.finish, || format!("in_flight[{i}].finish"))?;
        if r.dispatched_at > r.finish {
            return Err(format!(
                "in_flight[{i}].finish = {} precedes its dispatched_at = {}",
                r.finish, r.dispatched_at
            ));
        }
    }
    for (i, d) in ck.devices.iter().enumerate() {
        let running = ck.in_flight.iter().filter(|r| r.device == i).count() as u64;
        if d.in_use != running || d.in_use > d.slots {
            return Err(format!(
                "devices[{i}].in_use = {} does not fit its {} slot(s) and {running} in-flight run(s)",
                d.in_use, d.slots
            ));
        }
    }
    // Restore derives the censored runs and the witness rounds by
    // subtracting from `dispatches`.
    let accounted = (ck.resolved.len() + ck.in_flight.len()) as u64;
    if ck.dispatches < accounted {
        return Err(format!(
            "dispatches = {} is below the {accounted} resolved and in-flight runs",
            ck.dispatches
        ));
    }
    for (i, a) in ck.arrivals.iter().enumerate() {
        in_range(a.user, users, || format!("arrivals[{i}].user"))?;
        non_negative(a.at, || format!("arrivals[{i}].at"))?;
        // The queue stops absorbing at the first arrival still ahead of the
        // clock, so it keeps the order `push_arrival` enforces.
        if i > 0 && a.at < ck.arrivals[i - 1].at {
            return Err(format!(
                "arrivals[{i}].at = {} precedes arrivals[{}].at = {}",
                a.at,
                i - 1,
                ck.arrivals[i - 1].at
            ));
        }
    }
    // A restored sketch counts its zeros plus every bucket's count; each
    // lies below the integer bound, but their sum must too, or rebuilding
    // the sketch (or a later insert) overflows.
    for (what, s) in [
        ("queueing_delay", &ck.queueing_delay),
        ("busy_spans", &ck.busy_spans),
    ] {
        let count = s
            .buckets
            .iter()
            .try_fold(s.zeros, |n, &(_, c)| n.checked_add(c));
        if count.is_none_or(|n| n >= INTEGER_BOUND) {
            return Err(format!(
                "{what}.buckets: the zero and bucket counts must sum below {INTEGER_BOUND:e}"
            ));
        }
    }
    Ok(())
}

impl ExecCheckpoint {
    /// Serializes the checkpoint to one JSON document.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parses a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let doc = json::parse(input)?;
        let fields = as_object(&doc, "exec checkpoint")?;
        let version = get_u32(fields, "version")?;
        if version != EXEC_CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported exec checkpoint version {version} (expected {EXEC_CHECKPOINT_VERSION})"
            ));
        }
        let devices = parse_objects(get(fields, "devices")?, "devices", |f| {
            Ok(DeviceCheckpoint {
                speed: get_f64(f, "speed")?,
                slots: get_u64(f, "slots")?,
                in_use: get_u64(f, "in_use")?,
                busy: get_f64(f, "busy")?,
                idle: get_f64(f, "idle")?,
                last_t: get_f64(f, "last_t")?,
                idle_since: get_f64(f, "idle_since")?,
            })
        })?;
        let resolved = parse_objects(get(fields, "resolved")?, "resolved", |f| {
            Ok(ResolvedCheckpoint {
                user: get_usize(f, "user")?,
                model: get_usize(f, "model")?,
                cost: get_f64(f, "cost")?,
                quality: get_f64(f, "quality")?,
            })
        })?;
        let in_flight = parse_objects(get(fields, "in_flight")?, "in_flight", |f| {
            Ok(InFlightCheckpoint {
                seq: get_u64(f, "seq")?,
                user: get_usize(f, "user")?,
                model: get_usize(f, "model")?,
                device: get_usize(f, "device")?,
                dispatched_at: get_f64(f, "dispatched_at")?,
                finish: get_f64(f, "finish")?,
                charge: get_f64(f, "charge")?,
                ok: get_bool(f, "ok")?,
                quality: get_f64_or_nan(f, "quality")?,
                kind: get_str(f, "kind")?,
            })
        })?;
        let hybrid = parse_nullable(fields, "hybrid", PickerCheckpoint::parse)?;
        let fault = parse_nullable(fields, "fault", FaultCheckpoint::parse)?;
        Ok(ExecCheckpoint {
            version,
            kind: get_str(fields, "kind")?,
            seed: get_str(fields, "seed")?,
            budget: get_f64(fields, "budget")?,
            cost_aware: get_bool(fields, "cost_aware")?,
            noise_var: get_f64(fields, "noise_var")?,
            delta: get_f64(fields, "delta")?,
            devices,
            now: get_f64(fields, "now")?,
            dispatches: get_u64(fields, "dispatches")?,
            parallel_dispatches: get_u64(fields, "parallel_dispatches")?,
            committed: get_f64(fields, "committed")?,
            user_cost: parse_array(get(fields, "user_cost")?, "user_cost", as_f64)?,
            points: parse_array(get(fields, "points")?, "points", |p, what| {
                let [x, y] = as_tuple(p, what)?;
                Ok((as_f64(x, what)?, as_f64(y, what)?))
            })?,
            resolved,
            in_flight,
            hybrid,
            fault,
            queueing_delay: parse_object(
                get(fields, "queueing_delay")?,
                "queueing_delay",
                parse_sketch,
            )?,
            busy_spans: parse_object(get(fields, "busy_spans")?, "busy_spans", parse_sketch)?,
            witness_digest: get_str(fields, "witness_digest")?,
            open_loop: get_bool(fields, "open_loop")?,
            retired: parse_array(get(fields, "retired")?, "retired", as_bool)?,
            backlog: parse_array(get(fields, "backlog")?, "backlog", as_u64)?,
            arrival_seq: get_u64(fields, "arrival_seq")?,
            arrivals: parse_objects(get(fields, "arrivals")?, "arrivals", |f| {
                Ok(ArrivalCheckpoint {
                    seq: get_u64(f, "seq")?,
                    user: get_usize(f, "user")?,
                    at: get_f64(f, "at")?,
                })
            })?,
        })
    }
}

fn parse_sketch(f: &[(String, Json)]) -> Result<SketchCheckpoint, String> {
    let buckets = parse_array(get(f, "buckets")?, "buckets", |pair, what| {
        let [index, count] = as_tuple(pair, what)?;
        let index = as_f64(index, what)?;
        if index.fract() != 0.0 || !(f64::from(i32::MIN)..=f64::from(i32::MAX)).contains(&index) {
            return Err(format!("{what}: bucket index {index} is not an i32"));
        }
        Ok((index as i32, as_u64(count, what)?))
    })?;
    let opt_f64 = |key: &str| -> Result<Option<f64>, String> {
        match get(f, key)? {
            Json::Null => Ok(None),
            value => as_f64(value, key).map(Some),
        }
    };
    Ok(SketchCheckpoint {
        alpha: get_f64(f, "alpha")?,
        max_buckets: get_u64(f, "max_buckets")?,
        buckets,
        zeros: get_u64(f, "zeros")?,
        rejected: get_u64(f, "rejected")?,
        collapsed: get_u64(f, "collapsed")?,
        sum: get_f64(f, "sum")?,
        min: opt_f64("min")?,
        max: opt_f64("max")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::simulate_multi_device;
    use crate::fault::FaultConfig;
    use easeml_data::SynConfig;

    fn small_dataset() -> Dataset {
        SynConfig {
            num_users: 4,
            num_models: 3,
            ..SynConfig::paper(0.5, 0.5)
        }
        .generate(3)
    }

    fn flat_priors(dataset: &Dataset) -> Vec<ArmPrior> {
        (0..dataset.num_users())
            .map(|_| ArmPrior::independent(dataset.num_models(), 0.05))
            .collect()
    }

    fn chaos_cfg() -> SimConfig {
        let mut cfg = SimConfig::new(8.0);
        cfg.fault = Some(
            FaultConfig::new(13)
                .with_crash_rate(0.2)
                .with_timeout_rate(0.1),
        );
        cfg
    }

    #[test]
    fn checkpoint_json_round_trips_mid_flight() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = chaos_cfg();
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::Hybrid,
            &cfg,
            Fleet::uniform(3),
            7,
            RecorderHandle::noop(),
        );
        for _ in 0..4 {
            assert!(engine.tick());
        }
        assert!(engine.in_flight_len() > 0, "checkpoint must be mid-flight");
        let ck = engine.checkpoint();
        let parsed = ExecCheckpoint::from_json(&ck.to_json()).expect("round-trip");
        assert_eq!(parsed, ck);
        assert!(ck.hybrid.is_some());
        assert!(ck.fault.is_some());
        assert!(!ck.in_flight.is_empty());
    }

    #[test]
    fn version_and_kind_mismatches_are_rejected() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(4.0);
        let engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(2),
            7,
            RecorderHandle::noop(),
        );
        let mut ck = engine.checkpoint();
        for version in [4, 99] {
            ck.version = version;
            let err = ExecCheckpoint::from_json(&ck.to_json()).unwrap_err();
            assert!(
                err.contains(&format!("unsupported exec checkpoint version {version}")),
                "{err}"
            );
        }
        ck.version = EXEC_CHECKPOINT_VERSION;
        ck.kind = "most-cited".into();
        let err = ExecEngine::restore(&d, &priors, &ck)
            .err()
            .expect("unknown kinds must be rejected");
        assert!(err.contains("unknown scheduler kind"));
    }

    #[test]
    fn restore_names_every_field_it_cannot_run_from_without_panicking() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::Hybrid,
            &chaos_cfg(),
            Fleet::uniform(3),
            7,
            RecorderHandle::noop(),
        );
        engine.set_open_loop(true);
        for i in 0..24 {
            engine.push_arrival(i % d.num_users(), 0.25 * i as f64);
        }
        for _ in 0..6 {
            assert!(engine.tick());
        }
        let ck = ExecCheckpoint::from_json(&engine.checkpoint().to_json()).expect("round-trip");
        assert!(!ck.resolved.is_empty() && !ck.in_flight.is_empty());
        assert!(!ck.arrivals.is_empty());
        let (users, models) = (d.num_users(), d.num_models());
        let accounted = (ck.resolved.len() + ck.in_flight.len()) as u64;
        let frozen_at_patience = format!(
            "hybrid.frozen_rounds = {0} must stay below hybrid.patience = {0}",
            ck.hybrid.as_ref().unwrap().patience
        );
        // JSON has no infinities, so a field set to one is written as text:
        // `1e400` parses, and overflows to +inf (`-1e400` to -inf).
        const MARK: f64 = 0.123_456_789;
        type Edit = Box<dyn Fn(&mut ExecCheckpoint)>;
        let edits: Vec<(&str, Edit, &str)> = vec![
            (
                "resolved[0].user",
                Box::new(move |c| c.resolved[0].user = users),
                "",
            ),
            (
                "resolved[0].model",
                Box::new(move |c| c.resolved[0].model = models),
                "",
            ),
            (
                "in_flight[0].user",
                Box::new(move |c| c.in_flight[0].user = users),
                "",
            ),
            (
                "in_flight[0].model",
                Box::new(move |c| c.in_flight[0].model = models),
                "",
            ),
            (
                "in_flight[0].device",
                Box::new(|c| c.in_flight[0].device = 3),
                "",
            ),
            ("devices", Box::new(|c| c.devices.clear()), ""),
            ("devices[1].slots", Box::new(|c| c.devices[1].slots = 0), ""),
            (
                "devices[2].in_use",
                Box::new(|c| c.devices[2].in_use += 1),
                "",
            ),
            (
                "hybrid.patience",
                Box::new(|c| c.hybrid.as_mut().unwrap().patience = 0),
                "",
            ),
            // A saturated freeze count is past the integer bound, so the
            // parser refuses it; a count at `patience` reads, and only the
            // restore check refuses it.
            (
                "hybrid.frozen_rounds",
                Box::new(|c| {
                    let h = c.hybrid.as_mut().unwrap();
                    h.switched = false;
                    h.frozen_rounds = u64::MAX;
                }),
                "",
            ),
            (
                &frozen_at_patience,
                Box::new(|c| {
                    let h = c.hybrid.as_mut().unwrap();
                    h.switched = false;
                    h.frozen_rounds = h.patience;
                }),
                "",
            ),
            // A section whose presence disagrees with the kind: without it
            // the HYBRID picker would run from its warm-up state, and with
            // it a round-robin engine would silently turn HYBRID.
            ("hybrid", Box::new(|c| c.hybrid = None), ""),
            ("hybrid", Box::new(|c| c.kind = "round-robin".into()), ""),
            // The shared fault restore: every timeout charged ∞.
            (
                "fault.timeout_factor",
                Box::new(|c| c.fault.as_mut().unwrap().timeout_factor = MARK),
                "1e400",
            ),
            (
                "arrivals[0].user",
                Box::new(move |c| c.arrivals[0].user = users),
                "",
            ),
            // An earlier arrival queued behind a later one would wait for
            // the later one's time.
            (
                "arrivals[1].at",
                Box::new(|c| {
                    let (first, second) = (c.arrivals[0].at, c.arrivals[1].at);
                    assert!(first < second, "the edit needs two distinct times");
                    (c.arrivals[0].at, c.arrivals[1].at) = (second, first);
                }),
                "",
            ),
            // The idle clock jumps to an arrival at +inf, and the next
            // device sweep finds it ran backwards (inf − inf).
            (
                "arrivals[0].at",
                Box::new(|c| c.arrivals[0].at = MARK),
                "1e400",
            ),
            // The closed-loop engine was still ticking after 5,000 ticks.
            ("budget", Box::new(|c| c.budget = 0.0), ""),
            ("budget", Box::new(|c| c.budget = MARK), "1e400"),
            ("committed", Box::new(|c| c.committed = -1e300), ""),
            // Each of these panicked within the first ticks.
            ("noise_var", Box::new(|c| c.noise_var = -1.0), ""),
            ("noise_var", Box::new(|c| c.noise_var = MARK), "1e400"),
            ("delta", Box::new(|c| c.delta = 5.0), ""),
            ("delta", Box::new(|c| c.delta = 0.0), ""),
            ("delta", Box::new(|c| c.delta = -1.0), ""),
            ("now", Box::new(|c| c.now = MARK), "1e400"),
            ("now", Box::new(|c| c.now = MARK), "-1e400"),
            (
                "in_flight[0].finish",
                Box::new(|c| c.in_flight[0].finish = MARK),
                "-1e400",
            ),
            (
                "in_flight[0].dispatched_at",
                Box::new(|c| c.in_flight[0].dispatched_at = MARK),
                "1e400",
            ),
            (
                "in_flight[0].finish",
                Box::new(|c| c.in_flight[0].dispatched_at = c.in_flight[0].finish + 1.0),
                "",
            ),
            (
                "devices[0].busy",
                Box::new(|c| c.devices[0].busy = MARK),
                "1e400",
            ),
            (
                "devices[1].idle",
                Box::new(|c| c.devices[1].idle = -1.0),
                "",
            ),
            (
                "devices[2].last_t",
                Box::new(|c| c.devices[2].last_t = MARK),
                "-1e400",
            ),
            (
                "devices[0].idle_since",
                Box::new(|c| c.devices[0].idle_since = -1.0),
                "",
            ),
            // Restore subtracts the resolved and in-flight runs from the
            // dispatches to derive the censored runs and witness rounds.
            (
                "dispatches",
                Box::new(move |c| c.dispatches = accounted - 1),
                "",
            ),
            // Counters the next ticks add to: past the integer bound they
            // would overflow.
            ("dispatches", Box::new(|c| c.dispatches = u64::MAX), ""),
            (
                "parallel_dispatches",
                Box::new(|c| c.parallel_dispatches = u64::MAX),
                "",
            ),
            // A saturated bucket count, and buckets each below the integer
            // bound whose total overflows the restored sketch's count.
            (
                "busy_spans.buckets",
                Box::new(|c| c.busy_spans.buckets[0].1 = u64::MAX),
                "",
            ),
            (
                "queueing_delay.buckets",
                Box::new(|c| {
                    c.queueing_delay.buckets = (0..2100).map(|i| (i, INTEGER_BOUND - 1)).collect();
                }),
                "",
            ),
        ];
        // The unedited checkpoint ends well within this; a restored engine
        // still ticking past it has accepted a hang.
        const TICKS: usize = 1_000;
        let run = |json: &str| {
            let bad = ExecCheckpoint::from_json(json)?;
            let mut restored = ExecEngine::restore(&d, &priors, &bad)?;
            if (0..TICKS).all(|_| restored.tick()) {
                return Err(format!("still running after {TICKS} ticks"));
            }
            Ok(())
        };
        for (field, edit, mark_text) in edits {
            let mut bad = ck.clone();
            edit(&mut bad);
            let mut json = bad.to_json();
            if !mark_text.is_empty() {
                assert!(json.contains(&MARK.to_string()), "{field}");
                json = json.replacen(&MARK.to_string(), mark_text, 1);
            }
            // Either the parser or the restore may refuse the edit; a
            // restored engine runs to the end.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&json)));
            match outcome {
                Ok(Err(err)) => assert!(err.contains(field), "{field}: {err}"),
                Ok(Ok(())) => panic!("{field}: restore accepted the edit"),
                Err(_) => panic!("{field}: restore or a later tick panicked"),
            }
        }
        run(&ck.to_json()).expect("the unedited checkpoint");
    }

    #[test]
    fn checkpoint_restore_checkpoint_is_a_fixpoint() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig {
            fault: Some(
                FaultConfig::new(13)
                    .with_crash_rate(0.2)
                    .with_timeout_rate(0.1)
                    .with_stragglers(0.2, 2.5),
            ),
            ..SimConfig::new(12.0)
        };
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::Hybrid,
            &cfg,
            Fleet::uniform(3),
            7,
            RecorderHandle::noop(),
        );
        engine.set_open_loop(true);
        for i in 0..60 {
            engine.push_arrival(i % d.num_users(), 0.2 * i as f64);
        }
        let (mut ticks, mut mid_flight) = (0, 0);
        loop {
            if ticks == 5 {
                engine.retire_tenant(1);
            }
            if ticks == 12 {
                engine.rejoin_tenant(1);
            }
            // Restore derives what the document leaves out: the warm-up's
            // loss and each tenant's best must come back to the bit, and a
            // second checkpoint must hold every field. A censored run's NaN
            // quality defeats `==`, so the debug forms compare.
            let ck = engine.checkpoint();
            let restored = ExecEngine::restore(&d, &priors, &ck).expect("restore");
            assert_eq!(
                restored.initial_loss.to_bits(),
                engine.initial_loss.to_bits()
            );
            assert_eq!(restored.losses(), engine.losses(), "tick {ticks}");
            let again = restored.checkpoint();
            assert_eq!(format!("{again:?}"), format!("{ck:?}"), "tick {ticks}");
            assert_eq!(again.to_json(), ck.to_json(), "tick {ticks}");
            // The restored roster's columns equal a recomputation from its
            // tenants, and its live set (eligibility) is the original's.
            if let Err(stale) = restored.tenants.check_columns() {
                panic!("tick {ticks}: {stale}");
            }
            assert!(
                restored.tenants.live_ids().eq(engine.tenants.live_ids()),
                "tick {ticks}"
            );
            mid_flight += usize::from(!ck.in_flight.is_empty());
            if !engine.tick() {
                break;
            }
            ticks += 1;
        }
        let trace = engine.finish();
        assert!(ticks > 12, "only {ticks} ticks");
        assert!(mid_flight > 12, "only {mid_flight} mid-flight checkpoints");
        assert!(trace.censored > 0 && trace.parallel_dispatches > 0);
    }

    #[test]
    fn restored_engine_finishes_like_the_original() {
        // Coarse end-to-end check (the bit-exact invariant lives in
        // tests/invariants.rs): restore at tick 5 and finish both.
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(6.0);
        let reference = simulate_multi_device(&d, &priors, SchedulerKind::RoundRobin, &cfg, 2, 7);
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(2),
            7,
            RecorderHandle::noop(),
        );
        for _ in 0..5 {
            assert!(engine.tick());
        }
        let ck = engine.checkpoint();
        let restored = ExecEngine::restore(&d, &priors, &ck).expect("restore");
        let trace = restored.run();
        assert_eq!(trace.sim.events, reference.sim.events);
        assert_eq!(trace.sim.points, reference.sim.points);
        assert_eq!(trace.makespan, reference.makespan);
    }
}
