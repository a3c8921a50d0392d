//! The discrete-event execution engine: a dispatcher that keeps a
//! heterogeneous device fleet saturated with training runs selected through
//! GP-BUCB hallucinated updates, resolving completions into the posterior
//! in completion order (delayed feedback).
//!
//! Each tenant keeps one posterior, its GP-UCB policy's. A dispatch for a
//! tenant with runs still in flight selects from
//! [`GpUcb::hallucinate`](easeml_bandit::GpUcb::hallucinate) over those
//! runs' arms in dispatch order, so it explores a *different* arm; a
//! completion feeds the truth into the policy, and a censored run simply
//! leaves the in-flight list. With one unit-speed, single-slot device
//! nothing is ever in flight at a dispatch, so every selection is the
//! plain GP-UCB one, the committed-cost budget test is the serial
//! makespan test, and completions resolve immediately: this is the serial
//! protocol, and [`crate::sim::simulate`] runs on it.
use super::fleet::Fleet;
use super::queue::EventQueue;
use crate::durability::Durability;
use crate::fault::FaultInjector;
use crate::server::TrainingOutcome;
use crate::sim::{
    assert_billable, build_tenants, cheapest_model, make_picker, LossTracker, SchedulerKind,
    SimConfig, SimEvent, SimTrace,
};
use crate::witness::{DecisionLog, RoundWitness, WITNESS_TOP_K};
use easeml_bandit::ArmExplanation;
use easeml_data::Dataset;
use easeml_gp::ArmPrior;
use easeml_obs::{Component, Event, QuantileSketch, RecorderHandle};
use easeml_sched::{Tenant, UserPicker};
use easeml_wal::DurableEvent;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One dispatched, not-yet-completed run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InFlight {
    /// Dispatch sequence number (ties the run to its queue event).
    pub(crate) seq: u64,
    /// The served user.
    pub(crate) user: usize,
    /// The dispatched model.
    pub(crate) model: usize,
    /// The device executing it.
    pub(crate) device: usize,
    /// Simulated dispatch time.
    pub(crate) dispatched_at: f64,
    /// Simulated completion time.
    pub(crate) finish: f64,
    /// Cost charged to the budget (the censored charge for failed runs).
    pub(crate) charge: f64,
    /// Whether the run will complete with a usable quality.
    pub(crate) ok: bool,
    /// The revealed quality (`NaN` when `ok` is false).
    pub(crate) quality: f64,
    /// The censoring kind for failed runs (empty when `ok`).
    pub(crate) kind: String,
    /// Witness context captured at dispatch time, committed with the
    /// completion. `None` when no recorder was attached at dispatch (and
    /// for runs rebuilt from a checkpoint — their decision context is
    /// gone, but the digest fold still happens at completion).
    pub(crate) witness: Option<Box<PendingWitness>>,
}

/// What the dispatch decision hinged on, frozen until its completion event
/// commits the witness chain.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PendingWitness {
    pub(crate) user_scores: Vec<f64>,
    pub(crate) candidates: Vec<usize>,
    pub(crate) path: String,
    pub(crate) arm_expl: ArmExplanation,
}

/// One externally-scheduled job arrival, waiting for the simulated clock
/// to reach it. Open-loop mode only ([`ExecEngine::set_open_loop`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Arrival {
    /// Monotone arrival sequence number (0-based, per engine).
    pub(crate) seq: u64,
    /// The tenant the job belongs to.
    pub(crate) user: usize,
    /// Absolute simulated arrival time.
    pub(crate) at: f64,
}

/// The result of a multi-device execution: the familiar [`SimTrace`] plus
/// the fleet-level accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecTrace {
    /// The loss trajectory, events, and final losses, points keyed by
    /// simulated *time*.
    pub sim: SimTrace,
    /// Simulated time of the last completion.
    pub makespan: f64,
    /// Per-device accrued busy slot-time.
    pub device_busy: Vec<f64>,
    /// Per-device accrued idle slot-time.
    pub device_idle: Vec<f64>,
    /// Total job slots (`Σ busy + Σ idle == capacity × makespan`).
    pub capacity: usize,
    /// Total dispatches (completed and censored).
    pub dispatches: usize,
    /// Dispatches made while at least one other run was in flight — the
    /// delayed-feedback dispatches one device never makes.
    pub parallel_dispatches: usize,
    /// Censored (crashed / timed-out / invalid-quality) runs.
    pub censored: usize,
    /// Cost charged per user.
    pub user_cost: Vec<f64>,
    /// Total cost charged across all users.
    pub total_charged: f64,
    /// Mergeable quantile sketch over the fully-idle gaps devices sat
    /// through before their next dispatch — the queueing-delay
    /// distribution (same sketch family the telemetry layer exports).
    pub queueing_delay: QuantileSketch,
    /// Mergeable quantile sketch over per-run device occupancy durations.
    pub busy_spans: QuantileSketch,
}

/// The multi-device discrete-event execution engine.
///
/// Construct one with [`ExecEngine::new`], then either drive it to the end
/// with [`ExecEngine::run`] or step it with [`ExecEngine::tick`] (and
/// possibly [`checkpoint`](ExecEngine::checkpoint) it mid-flight).
///
/// `R` is the stream the stochastic pickers draw from. `ExecEngine<'a>`
/// is the seeded engine [`ExecEngine::new`] builds, the only one that can
/// checkpoint: a restore re-seeds it. [`crate::sim::simulate`] instead
/// borrows its caller's stream, which has no seed to store. A tick runs on
/// `ExecEngine<dyn RngCore>`, which every engine unsizes to (the stream is
/// the last field), so the round is compiled once, here, and not again in
/// each crate that drives an engine.
pub struct ExecEngine<'a, R: RngCore + ?Sized = StdRng> {
    pub(crate) dataset: &'a Dataset,
    pub(crate) cfg: SimConfig,
    pub(crate) kind: SchedulerKind,
    /// The seed `rng` started from (0 for a borrowed stream).
    pub(crate) seed: u64,
    pub(crate) fleet: Fleet,
    pub(crate) tenants: Vec<Tenant>,
    /// The user picker; a HYBRID one exports its freeze detector through
    /// [`UserPicker::as_hybrid`].
    pub(crate) picker: Box<dyn UserPicker>,
    pub(crate) injector: Option<FaultInjector>,
    /// Each tenant's best quality seen; the mean loss is kept until one
    /// improves.
    pub(crate) loss: LossTracker,
    /// Mean loss after the warm-up pass.
    pub(crate) initial_loss: f64,
    pub(crate) queue: EventQueue,
    pub(crate) in_flight: Vec<InFlight>,
    pub(crate) now: f64,
    /// Runs dispatched so far: the next dispatch's sequence number and
    /// picker step. The other run counts follow from it: completed runs
    /// are `events`, and censored ones the rest not in flight.
    pub(crate) dispatches: usize,
    pub(crate) parallel_dispatches: usize,
    pub(crate) committed: f64,
    pub(crate) user_cost: Vec<f64>,
    pub(crate) points: Vec<(f64, f64)>,
    /// Completed runs, in completion order.
    pub(crate) events: Vec<SimEvent>,
    pub(crate) queueing_delay: QuantileSketch,
    pub(crate) busy_spans: QuantileSketch,
    pub(crate) recorder: RecorderHandle,
    pub(crate) wlog: DecisionLog,
    pub(crate) durability: Durability,
    /// Open-loop mode: tenants are only dispatchable while they have
    /// backlogged jobs (fed through [`ExecEngine::push_arrival`]). Off by
    /// default — the classic closed-loop engine assumes every tenant is
    /// always backlogged.
    pub(crate) open_loop: bool,
    /// Per-tenant retirement flags. A retired tenant never re-enters any
    /// picker candidate set until it rejoins; its GP state is kept.
    pub(crate) retired: Vec<bool>,
    /// Per-tenant count of arrived-but-not-yet-dispatched jobs (open-loop
    /// accounting; ignored in closed-loop mode).
    pub(crate) backlog: Vec<u64>,
    /// Future arrivals in non-decreasing time order.
    pub(crate) arrivals: std::collections::VecDeque<Arrival>,
    /// Next arrival sequence number.
    pub(crate) arrival_seq: u64,
    pub(crate) rng: R,
}

impl<'a> ExecEngine<'a> {
    /// Builds an engine and performs the budget-free warm-up pass (one
    /// cheapest model per user). `seed` seeds the [`StdRng`] the
    /// stochastic pickers draw from; deterministic kinds ignore it.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive budget, a heuristic scheduler kind
    /// ([`SchedulerKind::MostCited`] / [`SchedulerKind::MostRecent`]), or a
    /// `priors` length that does not match the number of users. A dispatch
    /// later panics on a run that would complete with a cost that is not
    /// positive and finite: such a charge never moves the clock.
    pub fn new(
        dataset: &'a Dataset,
        priors: &[ArmPrior],
        kind: SchedulerKind,
        cfg: &SimConfig,
        fleet: Fleet,
        seed: u64,
        recorder: RecorderHandle,
    ) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        let engine = ExecEngine::with_rng(dataset, priors, kind, cfg, fleet, rng, recorder);
        ExecEngine { seed, ..engine }
    }
}

impl<'a, R: RngCore> ExecEngine<'a, R> {
    /// [`ExecEngine::new`] drawing from `rng`, a stream with no seed to
    /// store.
    pub(crate) fn with_rng(
        dataset: &'a Dataset,
        priors: &[ArmPrior],
        kind: SchedulerKind,
        cfg: &SimConfig,
        fleet: Fleet,
        rng: R,
        recorder: RecorderHandle,
    ) -> Self {
        assert!(cfg.budget > 0.0, "budget must be positive");
        assert_eq!(
            priors.len(),
            dataset.num_users(),
            "one prior per user is required"
        );
        let n = dataset.num_users();
        let tenants = build_tenants(dataset, priors, cfg, &recorder);
        let picker = make_picker(kind, &recorder);
        let injector = cfg.fault.clone().map(FaultInjector::new);
        let mut engine = ExecEngine {
            dataset,
            cfg: cfg.clone(),
            kind,
            seed: 0,
            fleet,
            tenants,
            picker,
            injector,
            loss: LossTracker::new(dataset),
            initial_loss: 0.0,
            queue: EventQueue::new(),
            in_flight: Vec::new(),
            now: 0.0,
            dispatches: 0,
            parallel_dispatches: 0,
            committed: 0.0,
            user_cost: vec![0.0; n],
            points: Vec::new(),
            events: Vec::new(),
            queueing_delay: QuantileSketch::default(),
            busy_spans: QuantileSketch::default(),
            recorder,
            wlog: DecisionLog::new(),
            durability: Durability::noop(),
            open_loop: false,
            retired: vec![false; n],
            backlog: vec![0; n],
            arrivals: std::collections::VecDeque::new(),
            arrival_seq: 0,
            rng,
        };
        engine.warm_up();
        engine
    }

    /// One engine step: absorb due arrivals, saturate the fleet with
    /// dispatches, then advance to the next event — a completion, or (in
    /// open-loop mode) a job arrival the idle clock jumps forward to.
    /// Arrivals tied with a completion absorb first, so a freed device
    /// sees the newly backlogged tenant. Returns `false` when the run is
    /// over: budget committed and nothing left in flight, or (open-loop)
    /// nothing in flight, no backlog, and no arrival left to wake on.
    pub fn tick(&mut self) -> bool {
        let engine: &mut ExecEngine<'a, dyn RngCore + '_> = self;
        engine.step()
    }

    /// Final accounting: sweeps every device's busy/idle integral to the
    /// makespan and assembles the trace.
    pub fn finish(mut self) -> ExecTrace {
        self.fleet.advance_all(self.now);
        self.recorder.gauge("sim/makespan", self.now);
        let loss = self.loss.mean_loss();
        self.recorder.gauge("sim/mean-loss", loss);
        let censored = self.completions() - self.events.len();
        ExecTrace {
            sim: SimTrace {
                budget: self.cfg.budget,
                initial_loss: self.initial_loss,
                rounds: self.events.len(),
                points: self.points,
                events: self.events,
                final_losses: self.loss.losses(),
            },
            makespan: self.now,
            device_busy: self.fleet.busy(),
            device_idle: self.fleet.idle(),
            capacity: self.fleet.capacity(),
            dispatches: self.dispatches,
            parallel_dispatches: self.parallel_dispatches,
            censored,
            user_cost: self.user_cost,
            total_charged: self.committed,
            queueing_delay: self.queueing_delay,
            busy_spans: self.busy_spans,
        }
    }

    /// Drives the engine to completion.
    pub fn run(mut self) -> ExecTrace {
        while self.tick() {}
        self.finish()
    }
}

impl<R: RngCore + ?Sized> ExecEngine<'_, R> {
    /// Attaches write-ahead durability: every dispatch and completion
    /// appends a [`DurableEvent`] through the handle. The default engine
    /// runs with a noop handle that costs one branch per logging site.
    pub fn set_durability(&mut self, durability: Durability) {
        durability.set_recorder(self.recorder.clone());
        self.durability = durability;
    }

    /// The durability handle (noop unless attached).
    pub fn durability(&self) -> &Durability {
        &self.durability
    }

    /// Rolling digest (16 hex chars) of every completed decision — equal
    /// digests mean equal decision sequences ([`crate::witness`]).
    pub fn state_digest(&self) -> String {
        self.wlog.digest_hex()
    }

    /// The budget-free warm-up pass: each user starts with her cheapest
    /// model already trained.
    fn warm_up(&mut self) {
        for user in 0..self.dataset.num_users() {
            let model = cheapest_model(self.dataset, user);
            let quality = self.dataset.quality(user, model);
            self.tenants[user].observe(model, quality);
            self.loss.observe(user, quality);
            self.picker.after_observe(&self.tenants, user);
        }
        self.initial_loss = self.loss.mean_loss();
    }

    /// Swaps the recorder on the engine and every instrumented component —
    /// used by checkpoint restore, which rebuilds silently and then attaches
    /// the live sink.
    pub fn attach_recorder(&mut self, recorder: RecorderHandle) {
        for tenant in &mut self.tenants {
            tenant.set_recorder(recorder.clone());
        }
        self.picker.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Arms (or with `None` disarms) the picker's test-only mutation
    /// ([`UserPicker::set_test_mutation`]): from dispatch `at_step` on, a
    /// GREEDY pick is rotated by one tenant. `replay-diff` seeds a known
    /// divergence with it.
    pub fn set_test_mutation(&mut self, at_step: Option<usize>) {
        self.picker.set_test_mutation(at_step);
    }

    /// Per-user accuracy losses (best possible minus best seen).
    pub fn losses(&self) -> Vec<f64> {
        self.loss.losses()
    }

    /// Runs resolved so far, censored ones included: every dispatch not in
    /// flight. The witness log has folded exactly these.
    pub(crate) fn completions(&self) -> usize {
        self.dispatches - self.in_flight.len()
    }

    /// The simulated clock (time of the most recent completion).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Cost committed to dispatched runs so far (completed or in flight).
    pub fn committed(&self) -> f64 {
        self.committed
    }

    /// Number of runs currently in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// The device fleet (read-only).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Recomputes tenant `user`'s picker visibility: a tenant is a
    /// candidate iff it has not retired and (in open-loop mode) has at
    /// least one backlogged job. In closed-loop mode every non-retired
    /// tenant stays visible, which is the pre-open-loop behavior bit for
    /// bit.
    fn refresh_eligibility(&mut self, user: usize) {
        let eligible = !self.retired[user] && (!self.open_loop || self.backlog[user] > 0);
        self.tenants[user].set_active(eligible);
    }

    /// Switches between closed-loop (default: every tenant always
    /// backlogged) and open-loop mode (tenants only receive work through
    /// [`ExecEngine::push_arrival`], and devices idle — the clock jumps to
    /// the next arrival — when no job is queued).
    pub fn set_open_loop(&mut self, open: bool) {
        self.open_loop = open;
        for user in 0..self.tenants.len() {
            self.refresh_eligibility(user);
        }
    }

    /// Whether the engine is in open-loop mode.
    pub fn is_open_loop(&self) -> bool {
        self.open_loop
    }

    /// Schedules one job arrival for `user` at absolute simulated time
    /// `at` and returns its arrival sequence number. Arrivals must be
    /// pushed in non-decreasing time order; an arrival at or before the
    /// current clock is absorbed on the next tick. Arrivals left after the
    /// budget is committed are never served.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range user, a non-finite or negative time, or a
    /// time earlier than the previously pushed arrival's.
    pub fn push_arrival(&mut self, user: usize, at: f64) -> u64 {
        assert!(user < self.tenants.len(), "arrival for unknown user {user}");
        assert!(
            at.is_finite() && at >= 0.0,
            "arrival time must be finite and non-negative"
        );
        if let Some(last) = self.arrivals.back() {
            assert!(
                at >= last.at,
                "arrivals must be pushed in non-decreasing time order ({at} < {})",
                last.at
            );
        }
        let seq = self.arrival_seq;
        self.arrival_seq += 1;
        self.arrivals.push_back(Arrival { seq, user, at });
        seq
    }

    /// Arrived-but-undispatched jobs for `user` (open-loop accounting).
    pub fn backlog(&self, user: usize) -> u64 {
        self.backlog[user]
    }

    /// Arrivals still waiting for the clock (not yet absorbed).
    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether tenant `user` has retired.
    pub fn is_tenant_retired(&self, user: usize) -> bool {
        self.retired[user]
    }

    /// Retires tenant `user`: it leaves every future picker candidate set
    /// (in-flight runs still resolve into its kept GP state). Idempotent.
    /// Appends a [`DurableEvent::TenantRetired`] record when a WAL is
    /// attached and emits [`Event::TenantRetired`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range user.
    pub fn retire_tenant(&mut self, user: usize) {
        assert!(user < self.tenants.len(), "retiring unknown user {user}");
        if self.retired[user] {
            return;
        }
        self.retired[user] = true;
        self.refresh_eligibility(user);
        // Counting serves scans every completed run, so only a live
        // recorder pays for it.
        self.recorder.emit(|| Event::TenantRetired {
            user,
            serves: self.events.iter().filter(|e| e.user == user).count() as u64,
            at: self.now,
            parent: easeml_obs::current_span(),
        });
        self.durability.append(|| DurableEvent::TenantRetired {
            round: self.dispatches as u64,
            user: user as u64,
        });
    }

    /// Re-activates a retired tenant (tenant churn: the slot rejoins the
    /// shared service with its GP state intact). Idempotent for active
    /// tenants. Appends a [`DurableEvent::TenantJoined`] record when a WAL
    /// is attached and emits [`Event::TenantJoined`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range user.
    pub fn rejoin_tenant(&mut self, user: usize) {
        assert!(user < self.tenants.len(), "rejoining unknown user {user}");
        if !self.retired[user] {
            return;
        }
        self.retired[user] = false;
        self.refresh_eligibility(user);
        let models = self.dataset.num_models() as u64;
        self.recorder.emit(|| Event::TenantJoined {
            user,
            name: format!("user{user}"),
            models,
            at: self.now,
            parent: easeml_obs::current_span(),
        });
        self.durability.append(|| DurableEvent::TenantJoined {
            round: self.dispatches as u64,
            user: user as u64,
            arms: models,
            name: format!("user{user}"),
            program: String::new(),
        });
    }
}

impl ExecEngine<'_, dyn RngCore + '_> {
    /// [`ExecEngine::tick`].
    fn step(&mut self) -> bool {
        loop {
            self.absorb_due_arrivals();
            self.saturate();
            // An arrival only matters while budget remains to serve it.
            let next_arrival = if self.committed < self.cfg.budget {
                self.arrivals.front().map(|a| a.at)
            } else {
                None
            };
            match (self.queue.peek().map(|e| e.time), next_arrival) {
                (Some(completion), Some(arrival)) if arrival <= completion => {
                    self.now = self.now.max(arrival);
                }
                (Some(_), _) => return self.process_next(),
                (None, Some(arrival)) => self.now = self.now.max(arrival),
                (None, None) => return false,
            }
        }
    }

    /// Whether any tenant is currently dispatchable.
    fn dispatchable(&self) -> bool {
        self.tenants.iter().any(Tenant::is_active)
    }

    /// Moves every arrival at or before the clock into its tenant's
    /// backlog, emitting [`Event::JobArrived`] stamped with the *arrival*
    /// time (which may trail the clock when the fleet was busy).
    fn absorb_due_arrivals(&mut self) {
        while let Some(front) = self.arrivals.front() {
            if front.at > self.now {
                break;
            }
            let arrival = *front;
            self.arrivals.pop_front();
            self.backlog[arrival.user] += 1;
            self.refresh_eligibility(arrival.user);
            self.recorder.emit(|| Event::JobArrived {
                user: arrival.user,
                seq: arrival.seq,
                at: arrival.at,
                parent: easeml_obs::current_span(),
            });
            self.recorder.count("exec/arrivals", 1);
        }
    }

    /// Dispatches runs until the fleet is saturated, no tenant is
    /// dispatchable, or the budget is committed.
    fn saturate(&mut self) {
        while self.committed < self.cfg.budget && self.dispatchable() {
            match self.fleet.best_free() {
                Some(device) => self.dispatch(device),
                None => break,
            }
        }
    }

    /// One dispatch: pick a user, select an arm from the user's policy —
    /// hallucinated over the user's in-flight arms when there are any —
    /// roll the fault model, occupy the device, and schedule the completion
    /// event.
    fn dispatch(&mut self, device: usize) {
        let _span = self.recorder.span("dispatch");
        let _timing = self.recorder.time(Component::ExecDispatch);
        let user = {
            let _pick_span = self.recorder.span("pick_user");
            let _pick = self.recorder.time(Component::SchedulerPick);
            self.picker
                .pick(&self.tenants, self.dispatches, &mut self.rng)
        };
        // GP-BUCB: the user's runs still in flight, in dispatch order, are
        // the pending batch the selection hallucinates over.
        let pending: Vec<usize> = self
            .in_flight
            .iter()
            .filter(|r| r.user == user)
            .map(|r| r.model)
            .collect();
        let batch =
            (!pending.is_empty()).then(|| self.tenants[user].policy().hallucinate(&pending));
        let policy = batch
            .as_ref()
            .unwrap_or_else(|| self.tenants[user].policy());
        let witness = if self.recorder.is_enabled() {
            let _w = self.recorder.span("witness");
            Some(Box::new(PendingWitness {
                user_scores: self.picker.decision_scores(&self.tenants),
                candidates: self.picker.last_candidates().to_vec(),
                path: self.picker.pick_path(),
                arm_expl: policy.explain_selection(WITNESS_TOP_K),
            }))
        } else {
            None
        };
        let model = policy.select_arm();
        // Consume one backlogged job *after* the witness froze its scores:
        // eligibility flips must not leak into the recorded decision
        // context of the pick they follow.
        if self.open_loop {
            debug_assert!(self.backlog[user] > 0, "dispatched a user with no backlog");
            self.backlog[user] = self.backlog[user].saturating_sub(1);
            // Inlined `refresh_eligibility` — the recorder's timing guard
            // pins `self.recorder`, so no `&mut self` call is possible here.
            let eligible = !self.retired[user] && self.backlog[user] > 0;
            self.tenants[user].set_active(eligible);
        }
        let clean = TrainingOutcome {
            accuracy: self.dataset.quality(user, model),
            cost: self.dataset.cost(user, model),
        };
        let outcome = match self.injector.as_mut() {
            Some(inj) => inj.apply(user, model, clean),
            None => Ok(clean),
        };
        // The outcome is pre-resolved at dispatch (the fault stream is
        // keyed by (user, arm, attempt), not by time), but nothing of it is
        // *revealed* until the completion event fires.
        let (charge, ok, quality, kind) = match outcome {
            Ok(out) if out.accuracy.is_finite() => {
                assert_billable(out.cost);
                (out.cost, true, out.accuracy, "")
            }
            Ok(out) => (out.cost, false, f64::NAN, "invalid-quality"),
            Err(error) => (error.cost_consumed(), false, f64::NAN, error.kind()),
        };
        // A censored run occupies its device for the *charged* duration:
        // a crash frees the device at censoring time, not at the clean
        // run's would-be finish.
        let duration = if charge.is_finite() && charge > 0.0 {
            charge / self.fleet.speed(device)
        } else {
            0.0
        };
        if let Some(gap) = self.fleet.occupy(device, self.now) {
            self.queueing_delay.insert(gap);
            self.recorder.emit(|| Event::DeviceIdle {
                device,
                idle: gap,
                at: self.now,
                parent: easeml_obs::current_span(),
            });
        }
        self.busy_spans.insert(duration);
        if charge.is_finite() && charge > 0.0 {
            self.committed += charge;
            self.user_cost[user] += charge;
        }
        if !self.in_flight.is_empty() {
            self.parallel_dispatches += 1;
        }
        let seq = self.dispatches as u64;
        self.dispatches += 1;
        let finish = self.now + duration;
        self.queue.push(finish, seq);
        self.in_flight.push(InFlight {
            seq,
            user,
            model,
            device,
            dispatched_at: self.now,
            finish,
            charge,
            ok,
            quality,
            kind: kind.to_string(),
            witness,
        });
        self.recorder.emit(|| Event::RunDispatched {
            user,
            model,
            device,
            cost: charge,
            at: self.now,
            parent: easeml_obs::current_span(),
        });
        self.recorder.count("exec/dispatches", 1);
        self.durability.append(|| DurableEvent::ExecDispatch {
            seq,
            user: user as u64,
            arm: model as u64,
            device: device as u64,
        });
    }

    /// Resolves the earliest scheduled completion: frees the device, feeds
    /// the truth into the user's posterior (a censored run feeds nothing),
    /// and advances the clock. Returns `false` when nothing was in flight.
    fn process_next(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        self.now = event.time;
        // Removing the run keeps `in_flight` in seq order: the remaining
        // runs are the pending batches of later dispatches.
        let idx = self
            .in_flight
            .iter()
            .position(|r| r.seq == event.seq)
            .expect("queued event must have an in-flight run");
        let run = self.in_flight.remove(idx);
        // The span opens before the device release so the busy-integral
        // sweep inside `release` is attributed to `complete` — it is part
        // of resolving this run, not idle scheduler time.
        let _span = self.recorder.span("complete");
        self.fleet.release(run.device, self.now);
        self.recorder.emit(|| Event::RunFinished {
            user: run.user,
            model: run.model,
            device: run.device,
            at: self.now,
            ok: run.ok,
            parent: easeml_obs::current_span(),
        });
        if run.ok {
            self.recorder.emit(|| Event::TrainingCompleted {
                user: run.user,
                model: run.model,
                cost: run.charge,
                quality: run.quality,
                parent: easeml_obs::current_span(),
            });
            self.tenants[run.user].observe(run.model, run.quality);
            self.loss.observe(run.user, run.quality);
            let loss = self.loss.mean_loss();
            self.points.push((self.now, loss));
            self.events.push(SimEvent {
                user: run.user,
                model: run.model,
                cost: run.charge,
                quality: run.quality,
            });
            self.picker.after_observe(&self.tenants, run.user);
            self.recorder.count("sim/rounds", 1);
        } else {
            self.recorder.emit(|| Event::TrainingFailed {
                user: run.user,
                model: run.model,
                cost: run.charge.max(0.0),
                kind: run.kind.clone(),
                attempt: 1,
                parent: easeml_obs::current_span(),
            });
            self.recorder.count("sim/failed-rounds", 1);
        }
        // Commit the decision's provenance in completion order. `seq` is
        // the dispatch counter, so at one unit device the witness rounds
        // are the serial protocol's round numbers.
        let w = run.witness.as_deref();
        self.wlog.record(
            &self.recorder,
            RoundWitness {
                round: run.seq,
                user: run.user,
                arm: run.model,
                user_scores: w.map_or(&[][..], |w| &w.user_scores),
                candidates: w.map_or(&[][..], |w| &w.candidates),
                arm_explanation: w.map(|w| &w.arm_expl),
                path: w.map_or_else(String::new, |w| w.path.clone()),
                fallback: if run.ok {
                    String::new()
                } else {
                    run.kind.clone()
                },
                censored: !run.ok,
            },
        );
        // The completion IS the commit on the exec side: the digest seals
        // the whole decision chain up to and including this run.
        if self.durability.is_enabled() {
            let digest = self.wlog.digest_value();
            self.durability.append(|| DurableEvent::ExecCompletion {
                seq: run.seq,
                user: run.user as u64,
                arm: run.model as u64,
                censored: !run.ok,
                digest,
            });
        }
        true
    }
}

/// Runs one multi-device simulation on `devices` identical unit-speed
/// devices, its pickers seeded with `seed`. With `devices = 1` it is
/// [`crate::sim::simulate`] drawing from `StdRng::seed_from_u64(seed)`.
///
/// # Panics
///
/// Same contract as [`ExecEngine::new`] plus `devices > 0`.
pub fn simulate_multi_device(
    dataset: &Dataset,
    priors: &[ArmPrior],
    kind: SchedulerKind,
    cfg: &SimConfig,
    devices: usize,
    seed: u64,
) -> ExecTrace {
    let fleet = Fleet::uniform(devices);
    ExecEngine::new(
        dataset,
        priors,
        kind,
        cfg,
        fleet,
        seed,
        RecorderHandle::noop(),
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::DeviceSpec;
    use easeml_data::SynConfig;

    fn small_dataset() -> Dataset {
        SynConfig {
            num_users: 5,
            num_models: 4,
            ..SynConfig::paper(0.5, 0.5)
        }
        .generate(3)
    }

    fn flat_priors(dataset: &Dataset) -> Vec<ArmPrior> {
        (0..dataset.num_users())
            .map(|_| ArmPrior::independent(dataset.num_models(), 0.05))
            .collect()
    }

    #[test]
    fn multi_device_overlaps_runs_and_shrinks_makespan() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(8.0);
        let t1 = simulate_multi_device(&d, &priors, SchedulerKind::RoundRobin, &cfg, 1, 7);
        let t2 = simulate_multi_device(&d, &priors, SchedulerKind::RoundRobin, &cfg, 2, 7);
        let t4 = simulate_multi_device(&d, &priors, SchedulerKind::RoundRobin, &cfg, 4, 7);
        assert_eq!(t1.parallel_dispatches, 0, "one device cannot overlap");
        assert!(t4.parallel_dispatches > 0, "four devices must overlap");
        assert!(
            t4.makespan < t2.makespan && t2.makespan < t1.makespan,
            "makespan must strictly shrink: D=1 {}, D=2 {}, D=4 {}",
            t1.makespan,
            t2.makespan,
            t4.makespan
        );
        // All commit (at least) the budget, within one run's overshoot.
        for t in [&t1, &t2, &t4] {
            assert!(t.total_charged >= cfg.budget);
        }

        // HYBRID on SYN 10x20 with unit costs and a 100-run budget: every
        // device stays busy, so the makespan is exactly budget / D.
        let seed = 20_180_801;
        let d = SynConfig {
            num_users: 10,
            num_models: 20,
            ..SynConfig::paper(0.5, 1.0)
        }
        .generate(seed)
        .unit_cost_view();
        let priors = flat_priors(&d);
        let cfg = SimConfig {
            budget: 100.0,
            cost_aware: false,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        let makespans: Vec<f64> = [1, 2, 4]
            .iter()
            .map(|&devices| {
                simulate_multi_device(&d, &priors, SchedulerKind::Hybrid, &cfg, devices, seed)
                    .makespan
            })
            .collect();
        assert_eq!(makespans, [100.0, 50.0, 25.0]);
    }

    #[test]
    fn pooled_single_device_reaches_low_loss_sooner_in_wall_clock() {
        // §5.3.2: same GPU-time, but the pooled single device (costs / d)
        // returns models faster, so its loss curve leads early on.
        let d = small_dataset();
        let priors = flat_priors(&d);
        let devices = 4usize;
        let horizon = 4.0;
        let pooled_dataset = Dataset::new(
            d.name().to_string(),
            d.quality_matrix().clone(),
            d.cost_matrix().scaled(1.0 / devices as f64),
        );
        let pooled = crate::sim::simulate(
            &pooled_dataset,
            &priors,
            SchedulerKind::RoundRobin,
            &SimConfig::new(horizon),
            &mut StdRng::seed_from_u64(11),
        );
        // The fleet's budget is GPU-time: d devices over the same horizon.
        let cfg = SimConfig::new(horizon * devices as f64);
        let fleet =
            simulate_multi_device(&d, &priors, SchedulerKind::RoundRobin, &cfg, devices, 11);
        // Early in the horizon, the pooled strategy's loss is no worse.
        let early = 0.25 * horizon;
        assert!(
            pooled.loss_at(early) <= fleet.sim.loss_at(early) + 1e-9,
            "pooled {:.5} vs fleet {:.5}",
            pooled.loss_at(early),
            fleet.sim.loss_at(early)
        );
    }

    #[test]
    fn the_kept_mean_loss_is_the_mean_of_the_losses() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(10.0);
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::Hybrid,
            &cfg,
            Fleet::uniform(3),
            7,
            RecorderHandle::noop(),
        );
        let fresh = |e: &ExecEngine| easeml_linalg::vec_ops::mean(&e.losses()).to_bits();
        let mut ticks = 0;
        loop {
            assert_eq!(
                engine.loss.mean_loss().to_bits(),
                fresh(&engine),
                "tick {ticks}"
            );
            if ticks == 6 {
                // A restored engine replays its bests behind the warm-up's.
                let ck = engine.checkpoint();
                engine = ExecEngine::restore(&d, &priors, &ck).expect("restore");
                assert_eq!(
                    engine.loss.mean_loss().to_bits(),
                    fresh(&engine),
                    "restored"
                );
            }
            if !engine.tick() {
                break;
            }
            ticks += 1;
        }
        assert!(ticks > 6, "only {ticks} ticks");
    }

    #[test]
    fn losses_never_increase_and_points_are_time_ordered() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(10.0);
        let t = simulate_multi_device(&d, &priors, SchedulerKind::Hybrid, &cfg, 3, 7);
        assert!(!t.sim.points.is_empty());
        for w in t.sim.points.windows(2) {
            assert!(w[1].0 >= w[0].0 - 1e-12, "time must not run backwards");
            assert!(w[1].1 <= w[0].1 + 1e-12, "loss must not increase");
        }
        assert_eq!(t.sim.events.len(), t.sim.rounds);
        assert_eq!(t.dispatches, t.sim.rounds + t.censored);
    }

    #[test]
    fn straggler_factors_that_break_the_clock_panic() {
        // One device, and every run straggles: a completed run's charge is
        // the dataset's cost times the factor. A zero, NaN or ∞ charge
        // never moves the committed cost toward the budget.
        use crate::fault::FaultConfig;
        let d = small_dataset();
        let priors = flat_priors(&d);
        for factor in [0.0, f64::NAN, f64::INFINITY] {
            let cfg = SimConfig {
                fault: Some(FaultConfig::new(5).with_stragglers(1.0, factor)),
                ..SimConfig::new(6.0)
            };
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut engine = ExecEngine::new(
                    &d,
                    &priors,
                    SchedulerKind::EaseMl,
                    &cfg,
                    Fleet::uniform(1),
                    7,
                    RecorderHandle::noop(),
                );
                // Bounded, so an accepted charge fails instead of hanging.
                (0..1_000).all(|_| engine.tick())
            }))
            .expect_err("a run cost the factor breaks must panic");
            let message = panic
                .downcast_ref::<String>()
                .expect("the panic carries a formatted message");
            assert!(
                message.contains("positive and finite"),
                "factor {factor}: {message}"
            );
        }
    }

    #[test]
    fn faster_devices_attract_the_dispatches() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(8.0);
        let fleet = Fleet::new(vec![
            DeviceSpec::with_speed(1.0),
            DeviceSpec::with_speed(4.0),
        ]);
        let t = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            fleet,
            7,
            RecorderHandle::noop(),
        )
        .run();
        // The 4x device does (at least) the same slot-time of work per unit
        // busy, and being preferred by best_free it must end up busier in
        // charged terms: its busy time is nonzero and the makespan beats
        // the uniform single-device run.
        assert!(t.device_busy[1] > 0.0);
        let serial = simulate_multi_device(&d, &priors, SchedulerKind::RoundRobin, &cfg, 1, 7);
        assert!(t.makespan < serial.makespan);
    }

    #[test]
    fn recorder_stream_pairs_every_dispatch_with_a_finish() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(6.0);
        let rec = Arc::new(InMemoryRecorder::new());
        let t = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(2),
            7,
            RecorderHandle::new(rec.clone()),
        )
        .run();
        let counts = rec.event_counts();
        assert_eq!(counts.get("RunDispatched"), Some(&t.dispatches));
        assert_eq!(counts.get("RunFinished"), Some(&t.dispatches));
        assert_eq!(
            counts.get("TrainingCompleted").copied().unwrap_or(0),
            t.sim.rounds
        );
        assert_eq!(rec.counter("exec/dispatches"), t.dispatches as u64);
        // Completion events mirror the trace events one-to-one.
        let completed: Vec<SimEvent> = rec
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::TrainingCompleted {
                    user,
                    model,
                    cost,
                    quality,
                    ..
                } => Some(SimEvent {
                    user,
                    model,
                    cost,
                    quality,
                }),
                _ => None,
            })
            .collect();
        assert_eq!(completed, t.sim.events);
    }

    #[test]
    fn multi_device_witnesses_commit_one_per_dispatch() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(8.0);
        let rec = Arc::new(InMemoryRecorder::new());
        let t = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(3),
            7,
            RecorderHandle::new(rec.clone()),
        )
        .run();
        let records = easeml_obs::witness_records(&rec.events());
        assert_eq!(records.len(), t.dispatches, "one witness per dispatch");
        // Witness rounds are dispatch seq numbers: a permutation of 0..n.
        let mut rounds: Vec<u64> = records.iter().map(|r| r.round).collect();
        rounds.sort_unstable();
        assert_eq!(rounds, (0..t.dispatches as u64).collect::<Vec<_>>());
    }

    #[test]
    fn open_loop_without_arrivals_ends_immediately() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(8.0);
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(2),
            7,
            RecorderHandle::noop(),
        );
        engine.set_open_loop(true);
        assert!(!engine.tick(), "no arrivals means nothing to do");
        let trace = engine.finish();
        assert_eq!(trace.dispatches, 0);
        assert_eq!(trace.makespan, 0.0);
    }

    #[test]
    fn open_loop_clock_jumps_to_arrivals_and_serves_them() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(100.0);
        let rec = Arc::new(InMemoryRecorder::new());
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(1),
            7,
            RecorderHandle::new(rec.clone()),
        );
        engine.set_open_loop(true);
        engine.push_arrival(0, 3.0);
        engine.push_arrival(1, 3.5);
        let trace = engine.run();
        // Two jobs arrived, the budget is ample: exactly two dispatches,
        // and the first cannot predate the first arrival.
        assert_eq!(trace.dispatches, 2);
        assert!(trace.makespan >= 3.5, "makespan {}", trace.makespan);
        let dispatch_times: Vec<f64> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::RunDispatched { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(dispatch_times.len(), 2);
        assert!(dispatch_times[0] >= 3.0, "device must idle until 3.0");
        // JobArrived events carry the *arrival* times.
        let arrival_times: Vec<f64> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::JobArrived { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(arrival_times, vec![3.0, 3.5]);
    }

    #[test]
    fn arrivals_must_be_pushed_in_time_order() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(8.0);
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(1),
            7,
            RecorderHandle::noop(),
        );
        engine.push_arrival(0, 2.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.push_arrival(1, 1.0);
        }));
        assert!(result.is_err(), "out-of-order arrival must panic");
    }

    #[test]
    fn retiring_every_tenant_drains_and_stops() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(50.0);
        let rec = Arc::new(InMemoryRecorder::new());
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(2),
            7,
            RecorderHandle::new(rec.clone()),
        );
        for _ in 0..4 {
            assert!(engine.tick());
        }
        for user in 0..d.num_users() {
            engine.retire_tenant(user);
            engine.retire_tenant(user); // idempotent
        }
        assert!(engine.is_tenant_retired(0));
        let trace = engine.run();
        // The budget is far from committed, yet the run ends: retired
        // tenants are not dispatchable and in-flight runs drained.
        assert!(trace.total_charged < cfg.budget);
        let retirements = rec
            .events()
            .iter()
            .filter(|e| matches!(e, Event::TenantRetired { .. }))
            .count();
        assert_eq!(retirements, d.num_users(), "one event per retirement");
        // No dispatch ever follows a tenant's retirement.
        let mut retired_seen = vec![false; d.num_users()];
        for event in rec.events().iter() {
            match event {
                Event::TenantRetired { user, .. } => retired_seen[*user] = true,
                Event::RunDispatched { user, .. } => {
                    assert!(!retired_seen[*user], "dispatch after retirement of {user}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn rejoined_tenant_becomes_dispatchable_again() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(6.0);
        let mut engine = ExecEngine::new(
            &d,
            &priors,
            SchedulerKind::RoundRobin,
            &cfg,
            Fleet::uniform(1),
            7,
            RecorderHandle::noop(),
        );
        engine.retire_tenant(2);
        assert!(engine.is_tenant_retired(2));
        engine.rejoin_tenant(2);
        assert!(!engine.is_tenant_retired(2));
        let trace = engine.run();
        assert!(
            trace.sim.events.iter().any(|e| e.user == 2),
            "a rejoined tenant must be served"
        );
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn heuristic_kinds_are_rejected() {
        let d = easeml_data::deeplearning::generate(1).select_users(&[0, 1]);
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(4.0);
        let _ = simulate_multi_device(&d, &priors, SchedulerKind::MostCited, &cfg, 2, 7);
    }
}
