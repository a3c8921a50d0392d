//! Crash-safe checkpoint/restore of in-flight execution state.
//!
//! [`ExecCheckpoint`] snapshots everything the engine needs to resume
//! mid-flight: the resolved observation sequence (replaying it through the
//! same numeric path rebuilds bit-identical GP state), every in-flight
//! run's pre-resolved outcome, the device fleet's busy/idle integrals, the
//! fault injector's attempt counters, and the HYBRID picker's freeze
//! detector. The in-flight runs come back in dispatch order, so the next
//! dispatch for their user hallucinates over exactly the arms the original
//! would have (a hallucinated view is always the real posterior plus one
//! mean-fake per in-flight arm, in order, computed when it is needed).
//!
//! Serialization follows the same hand-rolled JSON conventions as the core
//! checkpoint ([`easeml::checkpoint`]): finite floats round-trip bit-exactly,
//! non-finite floats serialize as `null` (the in-flight `quality` of a
//! censored run, HYBRID's `-inf` sentinel), and `u64` seeds travel as
//! decimal strings.
//!
//! One caveat: the stochastic pickers ([`SchedulerKind::Random`],
//! `Greedy(Random)`) draw from an RNG whose stream position is not part of
//! the checkpoint — a restored run re-seeds from the start, so only the
//! deterministic schedulers replay bit-identically across a restore.

use crate::engine::{Arrival, ExecEngine, InFlight, PickerSlot};
use crate::fleet::{DeviceSpec, Fleet};
use easeml::checkpoint::{
    decode_u64, encode_u64, in_range, parse_overrides, parse_rates, parse_triple,
};
use easeml::fault::{FaultConfig, FaultRates};
use easeml::sim::{SchedulerKind, SimConfig, SimEvent};
use easeml::TaskState;
use easeml_data::Dataset;
use easeml_gp::ArmPrior;
use easeml_obs::json::{
    self, as_bool, as_f64, as_object, as_tuple, as_u64, as_usize, get, get_bool, get_f64,
    get_f64_or_nan, get_f64_or_neg_inf, get_str, get_u32, get_u64, get_usize, parse_array,
    parse_object, parse_objects, Json, INTEGER_BOUND,
};
use easeml_obs::RecorderHandle;
use easeml_sched::{Hybrid, HybridState, PickRule};
use serde::Serialize;
use std::collections::BTreeMap;

/// Current execution-checkpoint format version.
///
/// v2 added the bounded queueing-delay / busy-span quantile sketches;
/// v3 added the rolling witness-digest chain (`witness_*` fields) so a
/// restored engine continues the digest WAL recovery asserts against;
/// v4 added open-loop workload state (`open_loop`, per-tenant `retired` /
/// `backlog`, and the pending `arrivals` queue) so a mid-replay restore
/// resumes the workload bit-exactly.
pub const EXEC_CHECKPOINT_VERSION: u32 = 4;

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

/// One `Done` cell of the dispatch board.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DoneCellCheckpoint {
    /// User row.
    pub user: usize,
    /// Arm column.
    pub arm: usize,
    /// Recorded accuracy.
    pub accuracy: f64,
}

/// The HYBRID picker's freeze detector (mirrors
/// [`easeml_sched::HybridState`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HybridCheckpoint {
    /// Greedy line-8 rule name.
    pub rule: String,
    /// Freeze threshold s.
    pub patience: u64,
    /// Consecutive frozen rounds.
    pub frozen_rounds: u64,
    /// Candidate set at the previous round.
    pub prev_candidates: Vec<usize>,
    /// Best-reward sum at the previous round (`null` while `-inf`).
    pub prev_best_sum: f64,
    /// Whether the round-robin switch happened.
    pub switched: bool,
    /// Round-robin cursor.
    pub rr_cursor: u64,
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

/// Fault-injector configuration and attempt counters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultStateCheckpoint {
    /// Seed, as a decimal string.
    pub seed: String,
    /// Base rates `[crash, timeout, invalid, straggler]`.
    pub rates: [f64; 4],
    /// Per-user rate overrides.
    pub user_overrides: Vec<(usize, [f64; 4])>,
    /// Per-arm rate overrides.
    pub arm_overrides: Vec<(usize, [f64; 4])>,
    /// Straggler cost multiplier.
    pub straggler_factor: f64,
    /// Fraction of cost consumed before a crash.
    pub crash_cost_fraction: f64,
    /// Timeout deadline as a multiple of cost.
    pub timeout_factor: f64,
    /// Per-(user, arm) attempt counters.
    pub attempts: Vec<(usize, usize, u64)>,
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
    /// Next dispatch sequence number.
    pub next_seq: u64,
    /// Picker step counter.
    pub step: u64,
    /// Completed budgeted rounds.
    pub rounds: u64,
    /// Censored runs so far.
    pub censored: u64,
    /// Total dispatches.
    pub dispatches: u64,
    /// Dispatches made while other runs were in flight.
    pub parallel_dispatches: u64,
    /// Cost committed so far.
    pub committed: f64,
    /// Mean loss after the warm-up pass.
    pub initial_loss: f64,
    /// Per-user best quality seen.
    pub best_seen: Vec<f64>,
    /// Per-user charged cost.
    pub user_cost: Vec<f64>,
    /// `(time, mean loss)` trajectory so far.
    pub points: Vec<(f64, f64)>,
    /// Resolved runs in completion order — replaying them rebuilds the GP
    /// posteriors bit-identically.
    pub resolved: Vec<ResolvedCheckpoint>,
    /// In-flight runs in dispatch (sequence) order.
    pub in_flight: Vec<InFlightCheckpoint>,
    /// `Done` cells of the dispatch board. Stored explicitly rather than
    /// derived from `resolved`: a completed cell can be re-dispatched and
    /// censored later, reverting it to pending.
    pub board_done: Vec<DoneCellCheckpoint>,
    /// HYBRID picker state, when the scheduler is HYBRID.
    pub hybrid: Option<HybridCheckpoint>,
    /// Fault injector, if one is attached.
    pub fault: Option<FaultStateCheckpoint>,
    /// Queueing-delay sketch accrued so far.
    pub queueing_delay: SketchCheckpoint,
    /// Busy-span sketch accrued so far.
    pub busy_spans: SketchCheckpoint,
    /// Rolling witness digest at checkpoint time, as a decimal string.
    pub witness_digest: String,
    /// Completions folded into the witness digest so far.
    pub witness_rounds: u64,
    /// Witness fan-out bound K.
    pub witness_top_k: u64,
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
        let mut board_done = Vec::new();
        for user in 0..self.board.num_users() {
            for arm in 0..self.board.num_arms() {
                if let TaskState::Done(accuracy) = self.board.state(user, arm) {
                    board_done.push(DoneCellCheckpoint {
                        user,
                        arm,
                        accuracy,
                    });
                }
            }
        }
        let hybrid = self.picker.hybrid().map(|h| {
            let s = h.export_state();
            HybridCheckpoint {
                rule: s.rule.name().to_string(),
                patience: s.patience as u64,
                frozen_rounds: s.frozen_rounds as u64,
                prev_candidates: s.prev_candidates,
                prev_best_sum: s.prev_best_sum,
                switched: s.switched,
                rr_cursor: s.rr_cursor as u64,
            }
        });
        let fault = self.injector.as_ref().map(|inj| {
            let c = inj.config();
            FaultStateCheckpoint {
                seed: encode_u64(c.seed),
                rates: c.rates.to_array(),
                user_overrides: c
                    .user_overrides
                    .iter()
                    .map(|(&u, r)| (u, r.to_array()))
                    .collect(),
                arm_overrides: c
                    .arm_overrides
                    .iter()
                    .map(|(&a, r)| (a, r.to_array()))
                    .collect(),
                straggler_factor: c.straggler_factor,
                crash_cost_fraction: c.crash_cost_fraction,
                timeout_factor: c.timeout_factor,
                attempts: inj
                    .attempts()
                    .iter()
                    .map(|(&(u, a), &n)| (u, a, n))
                    .collect(),
            }
        });
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
            next_seq: self.next_seq,
            step: self.step as u64,
            rounds: self.rounds as u64,
            censored: self.censored as u64,
            dispatches: self.dispatches as u64,
            parallel_dispatches: self.parallel_dispatches as u64,
            committed: self.committed,
            initial_loss: self.initial_loss,
            best_seen: self.best_seen.clone(),
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
            board_done,
            hybrid,
            fault,
            queueing_delay: SketchCheckpoint::of(&self.queueing_delay),
            busy_spans: SketchCheckpoint::of(&self.busy_spans),
            witness_digest: encode_u64(self.wlog.digest_value()),
            witness_rounds: self.wlog.rounds(),
            witness_top_k: self.wlog.top_k() as u64,
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
    /// [`easeml::server::EaseMl::checkpoint_to`].
    ///
    /// # Errors
    ///
    /// Filesystem errors from the atomic write.
    pub fn checkpoint_to(&self, path: &std::path::Path) -> Result<(), String> {
        let json = self.checkpoint().to_json();
        easeml::checkpoint::write_checkpoint_atomic(path, &json).map_err(|e| e.to_string())?;
        self.durability
            .mark_checkpoint(self.wlog.rounds(), self.wlog.digest_value());
        Ok(())
    }

    /// Rebuilds an engine from a checkpoint: replays the resolved
    /// observations through the same numeric path (bit-identical GP
    /// posteriors), re-enters every in-flight run in dispatch order, and
    /// restores the fleet, fault, board, and picker state. The restored
    /// engine carries a disabled recorder; attach a live one with
    /// [`ExecEngine::attach_recorder`].
    ///
    /// # Errors
    ///
    /// Returns a message on a version mismatch, an unknown scheduler kind,
    /// a malformed seed, dimensions that do not fit `dataset`/`priors`, or
    /// a field the engine cannot run from, naming the field: an
    /// out-of-range user, model or device index, a non-finite resolved
    /// quality, an empty fleet, a zero-slot device, device occupancy that
    /// disagrees with the in-flight runs, a non-positive budget or noise
    /// variance, or a zero HYBRID patience.
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
        if ck.best_seen.len() != n
            || ck.user_cost.len() != n
            || ck.retired.len() != n
            || ck.backlog.len() != n
        {
            return Err(format!(
                "checkpoint is for {} users, dataset has {n}",
                ck.best_seen.len()
            ));
        }
        check_runnable(ck, n, dataset.num_models())?;
        let fault = match &ck.fault {
            None => None,
            Some(f) => {
                let mut config = FaultConfig::new(decode_u64(&f.seed)?);
                config.rates = FaultRates::from_array(f.rates);
                config.user_overrides = f
                    .user_overrides
                    .iter()
                    .map(|&(u, r)| (u, FaultRates::from_array(r)))
                    .collect();
                config.arm_overrides = f
                    .arm_overrides
                    .iter()
                    .map(|&(a, r)| (a, FaultRates::from_array(r)))
                    .collect();
                config.straggler_factor = f.straggler_factor;
                config.crash_cost_fraction = f.crash_cost_fraction;
                config.timeout_factor = f.timeout_factor;
                Some(config)
            }
        };
        let cfg = SimConfig {
            budget: ck.budget,
            cost_aware: ck.cost_aware,
            noise_var: ck.noise_var,
            delta: ck.delta,
            fault,
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

        // Replay the resolved observations in completion order: the GP
        // posteriors grow through the exact numeric path of the original
        // run. The picker is NOT notified — its state is restored verbatim
        // below (HYBRID) or is a pure function of `step` (the rest).
        for r in &ck.resolved {
            engine.tenants[r.user].observe(r.model, r.quality);
            engine.events.push(SimEvent {
                user: r.user,
                model: r.model,
                cost: r.cost,
                quality: r.quality,
            });
        }
        if let Some(h) = &ck.hybrid {
            let rule = PickRule::from_name(&h.rule)
                .ok_or_else(|| format!("unknown greedy rule {:?}", h.rule))?;
            engine.picker = PickerSlot::Hybrid(Hybrid::from_state(HybridState {
                rule,
                patience: h.patience as usize,
                frozen_rounds: h.frozen_rounds as usize,
                prev_candidates: h.prev_candidates.clone(),
                prev_best_sum: h.prev_best_sum,
                switched: h.switched,
                rr_cursor: h.rr_cursor as usize,
            }));
        }
        if let Some(f) = &ck.fault {
            let injector = engine
                .injector
                .as_mut()
                .expect("fault config implies an injector");
            let attempts: BTreeMap<(usize, usize), u64> =
                f.attempts.iter().map(|&(u, a, c)| ((u, a), c)).collect();
            injector.restore_attempts(attempts);
        }
        for (dev, d) in engine.fleet.devices.iter_mut().zip(&ck.devices) {
            dev.in_use = d.in_use as usize;
            dev.busy = d.busy;
            dev.idle = d.idle;
            dev.last_t = d.last_t;
            dev.idle_since = d.idle_since;
        }
        for cell in &ck.board_done {
            engine.board.finish(cell.user, cell.arm, cell.accuracy);
        }
        // In-flight runs re-enter in dispatch order: the next dispatch for
        // their user hallucinates over them exactly as the original would.
        for r in &ck.in_flight {
            engine.board.start(r.user, r.model);
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
        engine.next_seq = ck.next_seq;
        engine.step = ck.step as usize;
        engine.rounds = ck.rounds as usize;
        engine.censored = ck.censored as usize;
        engine.dispatches = ck.dispatches as usize;
        engine.parallel_dispatches = ck.parallel_dispatches as usize;
        engine.committed = ck.committed;
        engine.initial_loss = ck.initial_loss;
        engine.best_seen = ck.best_seen.clone();
        engine.cached_mean_loss = None;
        engine.user_cost = ck.user_cost.clone();
        engine.points = ck.points.clone();
        engine.queueing_delay = ck.queueing_delay.to_sketch();
        engine.busy_spans = ck.busy_spans.to_sketch();
        // Continue the rolling digest chain: ExecEngine::new ran warm_up
        // with a fresh log, so this overwrite is what makes the restored
        // digest trajectory match the original's (WAL recovery asserts
        // completion-by-completion equality on it).
        engine.wlog = easeml::witness::DecisionLog::from_state(
            ck.witness_top_k as usize,
            decode_u64(&ck.witness_digest)?,
            ck.witness_rounds,
        );
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
/// a later tick of the restored engine, panic: a checkpoint is outside
/// input.
fn check_runnable(ck: &ExecCheckpoint, users: usize, models: usize) -> Result<(), String> {
    if ck.budget.is_nan() || ck.budget <= 0.0 {
        return Err("budget must be positive".into());
    }
    if ck.noise_var.is_nan() || ck.noise_var <= 0.0 {
        return Err("noise_var must be positive".into());
    }
    if ck.devices.is_empty() {
        return Err("devices: a fleet needs at least one device".into());
    }
    for (i, d) in ck.devices.iter().enumerate() {
        if !(d.speed.is_finite() && d.speed > 0.0) {
            return Err(format!("devices[{i}].speed must be finite and positive"));
        }
        if d.slots == 0 {
            return Err(format!("devices[{i}].slots must be positive"));
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
    for (i, c) in ck.board_done.iter().enumerate() {
        in_range(c.user, users, || format!("board_done[{i}].user"))?;
        in_range(c.arm, models, || format!("board_done[{i}].arm"))?;
    }
    if let Some(h) = &ck.hybrid {
        if h.patience == 0 {
            return Err("hybrid.patience must be positive".into());
        }
        // The round whose freeze count reaches `patience` switches the
        // picker, and a saturated count would overflow on its next round.
        if !h.switched && h.frozen_rounds >= h.patience {
            return Err(format!(
                "hybrid.frozen_rounds = {} must stay below hybrid.patience = {} until the picker switches",
                h.frozen_rounds, h.patience
            ));
        }
    }
    for (i, a) in ck.arrivals.iter().enumerate() {
        in_range(a.user, users, || format!("arrivals[{i}].user"))?;
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
        let board_done = parse_objects(get(fields, "board_done")?, "board_done", |f| {
            Ok(DoneCellCheckpoint {
                user: get_usize(f, "user")?,
                arm: get_usize(f, "arm")?,
                accuracy: get_f64(f, "accuracy")?,
            })
        })?;
        let hybrid = match get(fields, "hybrid")? {
            Json::Null => None,
            value => Some(parse_object(value, "hybrid", |f| {
                Ok(HybridCheckpoint {
                    rule: get_str(f, "rule")?,
                    patience: get_u64(f, "patience")?,
                    frozen_rounds: get_u64(f, "frozen_rounds")?,
                    prev_candidates: parse_array(
                        get(f, "prev_candidates")?,
                        "prev_candidates",
                        as_usize,
                    )?,
                    prev_best_sum: get_f64_or_neg_inf(f, "prev_best_sum")?,
                    switched: get_bool(f, "switched")?,
                    rr_cursor: get_u64(f, "rr_cursor")?,
                })
            })?),
        };
        let fault = match get(fields, "fault")? {
            Json::Null => None,
            value => Some(parse_object(value, "fault", |f| {
                Ok(FaultStateCheckpoint {
                    seed: get_str(f, "seed")?,
                    rates: parse_rates(get(f, "rates")?, "rates")?,
                    user_overrides: parse_overrides(get(f, "user_overrides")?, "user_overrides")?,
                    arm_overrides: parse_overrides(get(f, "arm_overrides")?, "arm_overrides")?,
                    straggler_factor: get_f64(f, "straggler_factor")?,
                    crash_cost_fraction: get_f64(f, "crash_cost_fraction")?,
                    timeout_factor: get_f64(f, "timeout_factor")?,
                    attempts: parse_array(get(f, "attempts")?, "attempts", parse_triple)?
                        .into_iter()
                        .map(|(a, b, c)| (a as usize, b as usize, c))
                        .collect(),
                })
            })?),
        };
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
            next_seq: get_u64(fields, "next_seq")?,
            step: get_u64(fields, "step")?,
            rounds: get_u64(fields, "rounds")?,
            censored: get_u64(fields, "censored")?,
            dispatches: get_u64(fields, "dispatches")?,
            parallel_dispatches: get_u64(fields, "parallel_dispatches")?,
            committed: get_f64(fields, "committed")?,
            initial_loss: get_f64(fields, "initial_loss")?,
            best_seen: parse_array(get(fields, "best_seen")?, "best_seen", as_f64)?,
            user_cost: parse_array(get(fields, "user_cost")?, "user_cost", as_f64)?,
            points: parse_array(get(fields, "points")?, "points", |p, what| {
                let [x, y] = as_tuple(p, what)?;
                Ok((as_f64(x, what)?, as_f64(y, what)?))
            })?,
            resolved,
            in_flight,
            board_done,
            hybrid,
            fault,
            queueing_delay: parse_object(
                get(fields, "queueing_delay")?,
                "queueing_delay",
                parse_sketch,
            )?,
            busy_spans: parse_object(get(fields, "busy_spans")?, "busy_spans", parse_sketch)?,
            witness_digest: get_str(fields, "witness_digest")?,
            witness_rounds: get_u64(fields, "witness_rounds")?,
            witness_top_k: get_u64(fields, "witness_top_k")?,
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
    use crate::engine::simulate_multi_device;
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
        ck.version = 99;
        assert!(ExecCheckpoint::from_json(&ck.to_json())
            .unwrap_err()
            .contains("version"));
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
        assert!(!ck.board_done.is_empty() && !ck.arrivals.is_empty());
        let (users, models) = (d.num_users(), d.num_models());
        let frozen_at_patience = format!(
            "hybrid.frozen_rounds = {0} must stay below hybrid.patience = {0}",
            ck.hybrid.as_ref().unwrap().patience
        );
        type Edit = Box<dyn Fn(&mut ExecCheckpoint)>;
        let edits: Vec<(&str, Edit)> = vec![
            (
                "resolved[0].user",
                Box::new(move |c| c.resolved[0].user = users),
            ),
            (
                "resolved[0].model",
                Box::new(move |c| c.resolved[0].model = models),
            ),
            (
                "in_flight[0].user",
                Box::new(move |c| c.in_flight[0].user = users),
            ),
            (
                "in_flight[0].model",
                Box::new(move |c| c.in_flight[0].model = models),
            ),
            (
                "in_flight[0].device",
                Box::new(|c| c.in_flight[0].device = 3),
            ),
            (
                "board_done[0].user",
                Box::new(move |c| c.board_done[0].user = users),
            ),
            (
                "board_done[0].arm",
                Box::new(move |c| c.board_done[0].arm = models),
            ),
            ("devices", Box::new(|c| c.devices.clear())),
            ("devices[1].slots", Box::new(|c| c.devices[1].slots = 0)),
            ("devices[2].in_use", Box::new(|c| c.devices[2].in_use += 1)),
            (
                "hybrid.patience",
                Box::new(|c| c.hybrid.as_mut().unwrap().patience = 0),
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
            ),
            (
                &frozen_at_patience,
                Box::new(|c| {
                    let h = c.hybrid.as_mut().unwrap();
                    h.switched = false;
                    h.frozen_rounds = h.patience;
                }),
            ),
            (
                "arrivals[0].user",
                Box::new(move |c| c.arrivals[0].user = users),
            ),
            ("budget", Box::new(|c| c.budget = 0.0)),
            ("noise_var", Box::new(|c| c.noise_var = -1.0)),
            // Counters the next ticks add to: past the integer bound they
            // would overflow.
            ("next_seq", Box::new(|c| c.next_seq = u64::MAX)),
            ("step", Box::new(|c| c.step = u64::MAX)),
            ("rounds", Box::new(|c| c.rounds = u64::MAX)),
            ("dispatches", Box::new(|c| c.dispatches = u64::MAX)),
            (
                "parallel_dispatches",
                Box::new(|c| c.parallel_dispatches = u64::MAX),
            ),
            ("censored", Box::new(|c| c.censored = u64::MAX)),
            ("witness_rounds", Box::new(|c| c.witness_rounds = u64::MAX)),
            // A saturated bucket count, and buckets each below the integer
            // bound whose total overflows the restored sketch's count.
            (
                "busy_spans.buckets",
                Box::new(|c| c.busy_spans.buckets[0].1 = u64::MAX),
            ),
            (
                "queueing_delay.buckets",
                Box::new(|c| {
                    c.queueing_delay.buckets = (0..2100).map(|i| (i, INTEGER_BOUND - 1)).collect();
                }),
            ),
        ];
        for (field, edit) in edits {
            let mut bad = ck.clone();
            edit(&mut bad);
            // Either the parser or the restore may refuse the edit; a
            // restored engine runs to the end.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let bad = ExecCheckpoint::from_json(&bad.to_json())?;
                let mut restored = ExecEngine::restore(&d, &priors, &bad)?;
                while restored.tick() {}
                Ok::<(), String>(())
            }));
            match outcome {
                Ok(Err(err)) => assert!(err.contains(field), "{field}: {err}"),
                Ok(Ok(())) => panic!("{field}: restore accepted the edit"),
                Err(_) => panic!("{field}: restore or a later tick panicked"),
            }
        }
        let mut restored = ExecEngine::restore(&d, &priors, &ck).expect("the unedited checkpoint");
        while restored.tick() {}
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
