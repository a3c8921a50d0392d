//! The ease.ml server façade (Figure 1): programs in, best models out.
//!
//! [`EaseMl`] wires together the declarative layer (program parsing,
//! schema matching, task generation), the shared storage behind
//! `feed`/`refine`, the multi-tenant scheduler, and the simulated GPU pool:
//! one device whose clock advances by each training run's cost (§4.5).
//! Training outcomes come from a pluggable *quality oracle* — in production
//! this is the deep-learning subsystem; in this reproduction it is the
//! dataset's (quality, cost) matrix or any user-supplied closure.

use crate::checkpoint::{
    check_gp_settings, decode_u64, encode_u64, in_range, non_negative, read_checkpoint_file,
    write_checkpoint_atomic, CheckpointDoc, FaultCheckpoint, PickerCheckpoint,
    RetryPolicyCheckpoint, TenantCheckpoint, UserCheckpoint, CHECKPOINT_VERSION,
};
use crate::durability::{
    censor_kind, plan_replay, Durability, LifecycleAction, RecoveryReport, ReplayAttempt,
};
use crate::fault::{FaultInjector, TrainingError};
use crate::job::{Job, JobStatus};
use crate::retry::{RetryPolicy, RetryState};
use crate::storage::SharedStorage;
use crate::user::UserAccount;
use crate::witness::{DecisionLog, RoundWitness, WITNESS_TOP_K};
use easeml_bandit::{BetaSchedule, GpUcb};
use easeml_dsl::{parse_program, ModelId, ParseError};
use easeml_gp::ArmPrior;
use easeml_obs::json::INTEGER_BOUND;
use easeml_obs::{Component, Event, RecorderHandle};
use easeml_sched::{Hybrid, Roster, Tenant, UserPicker};
use easeml_wal::{read_log, DurableEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// One user's entry in a [`StatusSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UserStatus {
    /// Tenant index.
    pub user: usize,
    /// Display name of the user / research group.
    pub name: String,
    /// Job lifecycle state (`"queued"` / `"exploring"` / `"complete"`).
    pub status: String,
    /// Training runs completed for this user.
    pub served: usize,
    /// Cost charged to this user so far (censored runs included).
    pub cost: f64,
    /// Name of the best model found so far, if any run completed.
    pub best_model: Option<String>,
    /// Accuracy of that best model.
    pub best_accuracy: Option<f64>,
    /// Failed (censored) runs charged to this user.
    pub failed: usize,
}

/// A point-in-time view of the whole service, built by
/// [`EaseMl::status_snapshot`] and serialized by [`EaseMl::status_json`]
/// for the `/status` telemetry endpoint.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatusSnapshot {
    /// Total simulated time (cost) the cluster has consumed.
    pub elapsed_cost: f64,
    /// Total training runs completed across all users.
    pub completed_runs: usize,
    /// Number of registered users.
    pub num_users: usize,
    /// Per-user status, in tenant-index order.
    pub users: Vec<UserStatus>,
    /// Total failed (censored) runs across all users.
    pub failed_runs: usize,
}

/// Outcome of one training run as reported by the quality oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingOutcome {
    /// Accuracy the model reached.
    pub accuracy: f64,
    /// Execution cost (simulated GPU-hours).
    pub cost: f64,
}

/// A function deciding how well candidate `model` of user `user` performs —
/// fallibly: a real trainer can crash, time out, or return junk, and the
/// oracle reports that through [`TrainingError`].
pub type QualityOracle =
    Box<dyn FnMut(usize, ModelId) -> Result<TrainingOutcome, TrainingError> + Send>;

/// Why [`EaseMl::try_run_round`] could not run a round at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundError {
    /// No users are registered; there is nothing to schedule.
    NoUsers,
    /// Every registered tenant has retired; nothing is eligible for a
    /// round until another tenant joins.
    NoActiveUsers,
}

impl std::fmt::Display for RoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundError::NoUsers => write!(f, "no registered users"),
            RoundError::NoActiveUsers => write!(f, "all registered users have retired"),
        }
    }
}

impl std::error::Error for RoundError {}

/// How one scheduling round ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundResult {
    /// A training run completed (possibly after censored retries).
    Completed(TrainingOutcome),
    /// Every attempt failed: the round is censored. The cluster clock and
    /// the user's bill advanced by `cost_consumed`, but no observation
    /// entered the posterior.
    Censored {
        /// The final attempt's error.
        error: TrainingError,
        /// Total cost charged across this round's failed attempts
        /// (including backoff).
        cost_consumed: f64,
    },
}

/// What one call to [`EaseMl::try_run_round`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// The user served this round.
    pub user: usize,
    /// The last model attempted.
    pub model: ModelId,
    /// Training attempts made (1 when nothing failed).
    pub attempts: u64,
    /// Completed outcome or censored failure.
    pub result: RoundResult,
}

impl RoundOutcome {
    /// The completed outcome, if the round was not censored.
    pub fn completed(&self) -> Option<TrainingOutcome> {
        match self.result {
            RoundResult::Completed(outcome) => Some(outcome),
            RoundResult::Censored { .. } => None,
        }
    }
}

/// The ease.ml service: multiple users sharing one cluster, with automatic
/// model exploration scheduled by HYBRID (the system default).
pub struct EaseMl {
    users: Vec<UserAccount>,
    /// Original program sources, aligned with `users` — what a checkpoint
    /// stores so restore can re-register everyone identically.
    programs: Vec<String>,
    jobs: Vec<Job>,
    tenants: Roster,
    storage: SharedStorage,
    /// Simulated time consumed: the pooled device's clock, advanced by
    /// every run's cost, censored runs included. Only positive, finite
    /// costs reach it: the live path validates oracle output, and recovery
    /// refuses logged outcomes the live path would not have logged.
    clock: f64,
    picker: Hybrid,
    oracle: QualityOracle,
    rng: StdRng,
    warmed_up: usize,
    step: usize,
    /// Total rounds executed (warm-up and censored rounds included); the
    /// clock quarantine probation is measured against.
    rounds: u64,
    noise_var: f64,
    delta: f64,
    fault: Option<FaultInjector>,
    retry_policy: RetryPolicy,
    retry_state: RetryState,
    recorder: RecorderHandle,
    /// Decision provenance: the rolling digest + bounded witness emitter
    /// every round folds into.
    witness: DecisionLog,
    /// Write-ahead durability: noop by default, so the hot path pays one
    /// branch per logging site unless a WAL is attached.
    durability: Durability,
    /// Recovery substitution queue: while `Some`, `try_run_round` pops
    /// logged attempt outcomes instead of calling the oracle.
    replay: Option<VecDeque<ReplayAttempt>>,
}

impl EaseMl {
    /// Creates a server with the given quality oracle and RNG seed.
    pub fn new(oracle: QualityOracle, seed: u64) -> Self {
        EaseMl {
            users: Vec::new(),
            programs: Vec::new(),
            jobs: Vec::new(),
            tenants: Roster::new(),
            storage: SharedStorage::new(),
            clock: 0.0,
            picker: Hybrid::ease_ml(),
            oracle,
            rng: StdRng::seed_from_u64(seed),
            warmed_up: 0,
            step: 0,
            rounds: 0,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
            retry_policy: RetryPolicy::default(),
            retry_state: RetryState::new(),
            recorder: RecorderHandle::noop(),
            witness: DecisionLog::new(),
            durability: Durability::noop(),
            replay: None,
        }
    }

    /// Rolling digest (16 hex chars) of every decision made so far — equal
    /// digests mean equal decision sequences ([`crate::witness`]).
    pub fn state_digest(&self) -> String {
        self.witness.digest_hex()
    }

    /// Attaches (or with `None` removes) a deterministic fault injector:
    /// every oracle success is passed through its fault model before the
    /// scheduler sees it.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.fault = injector;
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Replaces the retry/quarantine policy (defaults to
    /// [`RetryPolicy::default`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry_policy = policy;
    }

    /// The active retry/quarantine policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry_policy
    }

    /// Total rounds executed so far (censored rounds included).
    pub fn rounds_executed(&self) -> u64 {
        self.rounds
    }

    /// Arms of `user` currently quarantined (masked out of GP-UCB).
    pub fn quarantined_arms(&self, user: usize) -> Vec<usize> {
        self.tenants[user].policy().masked_arms()
    }

    /// Attaches an observability sink: the HYBRID picker, every tenant's
    /// GP-UCB policy (existing and future), and the round driver emit
    /// structured events through `recorder`. The default server runs with a
    /// disabled handle and stays allocation-free.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder.clone();
        self.picker.set_recorder(recorder.clone());
        self.durability.set_recorder(recorder.clone());
        self.tenants.set_recorder(&recorder);
    }

    /// Attaches write-ahead durability: every state mutation in
    /// [`EaseMl::try_run_round`] appends a [`DurableEvent`] through the
    /// handle. The default server runs with a noop handle that costs one
    /// branch per logging site.
    pub fn set_durability(&mut self, durability: Durability) {
        durability.set_recorder(self.recorder.clone());
        self.durability = durability;
    }

    /// The durability handle (noop unless attached).
    pub fn durability(&self) -> &Durability {
        &self.durability
    }

    /// Registers a user by source program: parses the DSL, matches
    /// templates, creates the job and its tenant bandit. Returns the user
    /// id.
    ///
    /// # Errors
    ///
    /// Returns the parse/validation error for malformed programs, or a
    /// string-wrapped error when template matching fails.
    pub fn register_user(&mut self, name: &str, program_src: &str) -> Result<usize, ParseError> {
        let program = parse_program(program_src)?;
        let id = self.users.len();
        let job = Job::new(id, program.clone()).map_err(|m| ParseError::new(0, m))?;
        let k = job.candidate_models().len();
        // Fresh users start from an uninformative prior; the production
        // system swaps in the empirical kernel as training logs accumulate.
        let beta = BetaSchedule::MultiTenant {
            max_cost: 1.0,
            num_tenants: (id + 1).max(1),
            max_arms: k,
            delta: self.delta,
        };
        let policy = GpUcb::cost_oblivious(ArmPrior::independent(k, 0.05), self.noise_var, beta)
            .with_recorder(self.recorder.clone(), id);
        self.tenants.push(Tenant::new(id, policy));
        self.jobs.push(job);
        self.users.push(UserAccount::new(id, name, program));
        self.programs.push(program_src.to_string());
        Ok(id)
    }

    /// Registers a tenant *mid-run*: [`EaseMl::register_user`] plus the
    /// durable and observable lifecycle events that make the join
    /// recoverable — a [`DurableEvent::TenantJoined`] carrying the program
    /// source (so a post-checkpoint join replays through the identical
    /// registration path) and an [`Event::TenantJoined`] for traces.
    ///
    /// The new tenant is served its warm-up round before the picker sees
    /// it, exactly like an initially-registered tenant.
    ///
    /// # Errors
    ///
    /// Same as [`EaseMl::register_user`].
    pub fn add_tenant(&mut self, name: &str, program_src: &str) -> Result<usize, ParseError> {
        let id = self.register_user(name, program_src)?;
        let round = self.rounds;
        let arms = self.jobs[id].candidate_models().len() as u64;
        let at = self.clock;
        self.durability.append(|| DurableEvent::TenantJoined {
            round,
            user: id as u64,
            arms,
            name: name.to_string(),
            program: program_src.to_string(),
        });
        self.recorder.emit(|| Event::TenantJoined {
            user: id,
            name: name.to_string(),
            models: arms,
            at,
            parent: easeml_obs::current_span(),
        });
        Ok(id)
    }

    /// Retires a tenant: its slot and GP state survive (indices stay
    /// stable, quarantine bookkeeping keeps ticking), but it leaves every
    /// picker's candidate set and is never served again unless re-activated
    /// by a future join under a new slot. Idempotent — retiring a retired
    /// tenant is a no-op and logs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn retire_tenant(&mut self, user: usize) {
        assert!(user < self.tenants.len(), "no such tenant: {user}");
        if !self.tenants.is_active(user) {
            return;
        }
        self.tenants.set_active(user, false);
        let round = self.rounds;
        let serves = self.tenants[user].policy().posterior().num_observations() as u64;
        let at = self.clock;
        self.durability.append(|| DurableEvent::TenantRetired {
            round,
            user: user as u64,
        });
        self.recorder.emit(|| Event::TenantRetired {
            user,
            serves,
            at,
            parent: easeml_obs::current_span(),
        });
    }

    /// Whether tenant `user` is active (registered and not retired).
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn is_tenant_active(&self, user: usize) -> bool {
        self.tenants.is_active(user)
    }

    /// Number of active (non-retired) tenants.
    pub fn num_active_users(&self) -> usize {
        self.tenants.live_count()
    }

    /// Number of registered users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// The user's shared-storage handle for `feed`/`refine`.
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// The user's job (status, candidate models, best model).
    pub fn job(&self, user: usize) -> &Job {
        &self.jobs[user]
    }

    /// The `infer` operator: the best model found so far for `user`, if any
    /// run has completed.
    pub fn infer(&self, user: usize) -> Option<(ModelId, f64)> {
        self.jobs[user].best_model()
    }

    /// Executes one global scheduling round: pick a user (HYBRID), pick a
    /// model (GP-UCB), train it on the cluster, record the outcome. Returns
    /// `(user, model, outcome)`.
    ///
    /// Thin wrapper over [`EaseMl::try_run_round`] that keeps running
    /// rounds until one completes — a censored (all-attempts-failed) round
    /// still advances the cluster clock, so faults slow this call down but
    /// never corrupt it.
    ///
    /// # Panics
    ///
    /// Panics if no users are registered.
    pub fn run_round(&mut self) -> (usize, ModelId, TrainingOutcome) {
        loop {
            match self.try_run_round() {
                Ok(outcome) => {
                    if let RoundResult::Completed(result) = outcome.result {
                        return (outcome.user, outcome.model, result);
                    }
                    // Censored round: schedule again until a run completes.
                }
                Err(RoundError::NoUsers) => panic!("no registered users"),
                Err(RoundError::NoActiveUsers) => panic!("all registered users have retired"),
            }
        }
    }

    /// Executes one scheduling round without panicking: pick a user, pick a
    /// model, train — retrying failed attempts per the [`RetryPolicy`] and
    /// censoring the round if every attempt fails.
    ///
    /// Failure semantics: each failed attempt's consumed cost (plus any
    /// retry backoff) is charged to the cluster and the user as a
    /// *censored* run — the clock advances, the bill grows, but nothing
    /// enters the GP posterior, so the Theorem 1 regret accounting stays
    /// consistent. Arms that keep failing are quarantined (masked out of
    /// GP-UCB's argmax) and re-enter on probation after
    /// `probation_rounds` global rounds.
    ///
    /// # Errors
    ///
    /// [`RoundError::NoUsers`] when no users are registered.
    pub fn try_run_round(&mut self) -> Result<RoundOutcome, RoundError> {
        if self.users.is_empty() {
            return Err(RoundError::NoUsers);
        }
        if self.tenants.live_count() == 0 {
            return Err(RoundError::NoActiveUsers);
        }
        let _round = self.recorder.time(Component::SimRound);
        let _step_span = self.recorder.span("scheduler_step");
        let picker = &mut self.picker;
        let rng = &mut self.rng;
        let warmed = &mut self.warmed_up;
        let step = &mut self.step;
        let rounds = &mut self.rounds;

        // Probation: unmask arms whose quarantine has expired.
        let release_round = *rounds;
        for (user, arm) in self.retry_state.due_releases(*rounds) {
            if arm < self.tenants[user].policy().posterior().num_arms() {
                self.tenants.set_arm_masked(user, arm, false);
                self.durability.append(|| DurableEvent::ProbationRelease {
                    round: release_round,
                    user: user as u64,
                    arm: arm as u64,
                });
            }
        }

        // Warm-up pass (Algorithm 2 lines 1–4): serve each user once.
        // Tenants that retired before their warm-up came due are skipped
        // without a round; a mid-run join re-enters this branch because
        // `tenants` grew past the cursor. With every tenant active the
        // cursor never skips, so fixed-tenancy runs are bit-identical.
        while *warmed < self.tenants.len() && !self.tenants.is_active(*warmed) {
            *warmed += 1;
        }
        let (user, from_warmup) = if *warmed < self.tenants.len() {
            let u = *warmed;
            *warmed += 1;
            (u, true)
        } else {
            let _pick_span = self.recorder.span("pick_user");
            let _pick = self.recorder.time(Component::SchedulerPick);
            let u = picker.pick(&self.tenants, *step, &mut *rng);
            *step += 1;
            (u, false)
        };

        // Witness context: what the picker ranked, gathered only when a
        // recorder is live (the digest fold below needs none of it).
        let wlog = &mut self.witness;
        let witness_round = *rounds;
        let witness_live = self.recorder.is_enabled();
        let (user_scores, candidates, path) = if !witness_live {
            (Vec::new(), Vec::new(), String::new())
        } else if from_warmup {
            (Vec::new(), Vec::new(), "warm-up".to_string())
        } else {
            let _w = self.recorder.span("witness");
            (
                picker.decision_scores(&self.tenants),
                picker.last_candidates().to_vec(),
                picker.pick_path(),
            )
        };

        self.durability.append(|| DurableEvent::RoundStart {
            round: witness_round,
        });
        let mut failures: u64 = 0;
        let mut censored_cost = 0.0;
        loop {
            let attempt = failures + 1;
            // Re-select each attempt: quarantine during this round's
            // failures immediately steers retries to another arm.
            let arm_expl = witness_live.then(|| {
                let _w = self.recorder.span("witness");
                self.tenants[user].policy().explain_selection(WITNESS_TOP_K)
            });
            let model_idx = self.tenants[user].select_model();
            let model = self.jobs[user].candidate_models()[model_idx];
            // WAL replay substitutes the logged attempt outcome for the
            // oracle + injector: the attempt loop itself draws no RNG, so
            // every other branch below runs exactly as it did live. The
            // injector's per-(user, arm) attempt counter still advances —
            // it keys the fault hash for post-recovery rounds.
            let replayed = self
                .replay
                .as_mut()
                .and_then(std::collections::VecDeque::pop_front);
            let result = match replayed {
                Some(attempt) => {
                    if let Some(injector) = self.fault.as_mut() {
                        injector.note_attempt(user, model_idx);
                    }
                    attempt.into_result()
                }
                None => {
                    let raw = (self.oracle)(user, model);
                    // Inject faults into clean outcomes, then validate: a
                    // non-finite quality or non-positive cost is unusable
                    // whether injected or organic.
                    let injected = match raw {
                        Ok(outcome) => match self.fault.as_mut() {
                            Some(injector) => injector.apply(user, model_idx, outcome),
                            None => Ok(outcome),
                        },
                        Err(error) => Err(error),
                    };
                    match injected {
                        Ok(outcome) => {
                            if outcome.accuracy.is_finite()
                                && outcome.cost.is_finite()
                                && outcome.cost > 0.0
                            {
                                Ok(outcome)
                            } else {
                                let charge = if outcome.cost.is_finite() && outcome.cost > 0.0 {
                                    outcome.cost
                                } else {
                                    0.0
                                };
                                Err((TrainingError::InvalidQuality, charge))
                            }
                        }
                        Err(error) => Err((error, error.cost_consumed())),
                    }
                }
            };
            match &result {
                Ok(outcome) => {
                    let (accuracy, cost) = (outcome.accuracy, outcome.cost);
                    self.durability
                        .append(|| DurableEvent::ObservationResolved {
                            round: witness_round,
                            user: user as u64,
                            arm: model_idx as u64,
                            accuracy,
                            cost,
                        });
                }
                Err((error, charge)) => {
                    let (charge, kind) = (*charge, censor_kind(error));
                    self.durability
                        .append(|| DurableEvent::ObservationCensored {
                            round: witness_round,
                            user: user as u64,
                            arm: model_idx as u64,
                            charge,
                            kind,
                        });
                }
            }
            match result {
                Ok(outcome) => {
                    {
                        let _train = self.recorder.span("train");
                        self.clock += outcome.cost;
                        self.jobs[user].cost += outcome.cost;
                        self.recorder.count("cluster/runs", 1);
                        self.recorder.gauge("cluster/makespan", self.clock);
                        self.recorder.emit(|| Event::TrainingCompleted {
                            user,
                            model: model_idx,
                            cost: outcome.cost,
                            quality: outcome.accuracy,
                            parent: easeml_obs::current_span(),
                        });
                    }
                    self.tenants.observe(user, model_idx, outcome.accuracy);
                    self.jobs[user].record_result(model_idx, outcome.accuracy);
                    self.retry_state.record_success(user, model_idx);
                    picker.after_observe(&self.tenants, user);
                    self.recorder.count("server/rounds", 1);
                    *rounds += 1;
                    wlog.record(
                        &self.recorder,
                        RoundWitness {
                            round: witness_round,
                            user,
                            arm: model_idx,
                            user_scores: &user_scores,
                            candidates: &candidates,
                            arm_explanation: arm_expl.as_ref(),
                            path: path.clone(),
                            fallback: String::new(),
                            censored: false,
                        },
                    );
                    if self.durability.is_enabled() {
                        let (digest, rng_words) = (wlog.digest_value(), rng.state());
                        self.durability.append(|| DurableEvent::RoundCommit {
                            round: witness_round,
                            user: user as u64,
                            arm: model_idx as u64,
                            censored: false,
                            digest,
                            rng: rng_words,
                        });
                    }
                    return Ok(RoundOutcome {
                        user,
                        model,
                        attempts: attempt,
                        result: RoundResult::Completed(outcome),
                    });
                }
                Err((error, charge)) => {
                    failures += 1;
                    let will_retry = self.retry_policy.allows_retry(failures);
                    let backoff = if will_retry {
                        self.retry_policy.backoff_for(failures)
                    } else {
                        0.0
                    };
                    let total = charge.max(0.0) + backoff;
                    {
                        // The failed attempt is still training work: the
                        // span covers both the censored charge and the
                        // TrainingFailed emit, so the event parents under
                        // `train` exactly like the success path — profiles
                        // attribute the failure to the phase that paid for
                        // it.
                        let _train = self.recorder.span("train");
                        if total > 0.0 && total.is_finite() {
                            self.clock += total;
                            self.jobs[user].cost += total;
                            self.jobs[user].failed += 1;
                            self.recorder.count("cluster/runs", 1);
                            self.recorder.gauge("cluster/makespan", self.clock);
                            censored_cost += total;
                        }
                        self.recorder.emit(|| Event::TrainingFailed {
                            user,
                            model: model_idx,
                            cost: total,
                            kind: error.kind().to_string(),
                            attempt,
                            parent: easeml_obs::current_span(),
                        });
                    }
                    self.recorder.count("server/failed-runs", 1);
                    // Quarantine on repeated (cross-round) failures.
                    let consecutive = self.retry_state.record_failure(user, model_idx);
                    let threshold = self.retry_policy.quarantine_threshold;
                    if threshold > 0
                        && consecutive >= threshold
                        && !self.tenants[user].policy().is_masked(model_idx)
                    {
                        self.tenants.set_arm_masked(user, model_idx, true);
                        let probation = self.retry_policy.probation_rounds;
                        self.retry_state
                            .schedule_release(*rounds + probation, user, model_idx);
                        let release_round = *rounds + probation;
                        self.durability.append(|| DurableEvent::ArmQuarantined {
                            user: user as u64,
                            arm: model_idx as u64,
                            release_round,
                        });
                        self.recorder.emit(|| Event::ArmQuarantined {
                            user,
                            model: model_idx,
                            failures: consecutive,
                            probation_rounds: probation,
                            parent: easeml_obs::current_span(),
                        });
                    }
                    if will_retry {
                        self.recorder.emit(|| Event::RetryScheduled {
                            user,
                            model: model_idx,
                            attempt: attempt + 1,
                            backoff_cost: backoff,
                            parent: easeml_obs::current_span(),
                        });
                        continue;
                    }
                    self.recorder.count("server/rounds", 1);
                    *rounds += 1;
                    wlog.record(
                        &self.recorder,
                        RoundWitness {
                            round: witness_round,
                            user,
                            arm: model_idx,
                            user_scores: &user_scores,
                            candidates: &candidates,
                            arm_explanation: arm_expl.as_ref(),
                            path: path.clone(),
                            fallback: error.kind().to_string(),
                            censored: true,
                        },
                    );
                    if self.durability.is_enabled() {
                        let (digest, rng_words) = (wlog.digest_value(), rng.state());
                        self.durability.append(|| DurableEvent::RoundCommit {
                            round: witness_round,
                            user: user as u64,
                            arm: model_idx as u64,
                            censored: true,
                            digest,
                            rng: rng_words,
                        });
                    }
                    return Ok(RoundOutcome {
                        user,
                        model,
                        attempts: attempt,
                        result: RoundResult::Censored {
                            error,
                            cost_consumed: censored_cost,
                        },
                    });
                }
            }
        }
    }

    /// Serializes the full server state to a JSON checkpoint document.
    ///
    /// The checkpoint carries the posterior *sufficient statistics* (each
    /// tenant's observation sequence — replaying it through the same
    /// numeric path rebuilds bit-identical GP state), the HYBRID freeze
    /// detector, the clock and each tenant's billing counters, per-job
    /// bests (derived from the replayed observations), the RNG stream
    /// position, and the fault/retry bookkeeping. [`EaseMl::restore`]
    /// resumes from it with the exact same remaining decision sequence as
    /// an uninterrupted run.
    pub fn checkpoint(&self) -> String {
        let rng_words = self.rng.state();
        let tenants = self
            .tenants
            .iter()
            .zip(&self.jobs)
            .enumerate()
            .map(|(id, (t, job))| TenantCheckpoint {
                observations: t.policy().posterior().observations().collect(),
                masked: t.policy().masked_arms(),
                active: self.tenants.is_active(id),
                failed: job.failed,
                cost: job.cost,
            })
            .collect();
        let users = self
            .users
            .iter()
            .zip(&self.programs)
            .map(|(account, program)| UserCheckpoint {
                name: account.name().to_string(),
                program: program.clone(),
            })
            .collect();
        let rounds = self.rounds;
        let doc = CheckpointDoc {
            version: CHECKPOINT_VERSION,
            rng_state: [
                encode_u64(rng_words[0]),
                encode_u64(rng_words[1]),
                encode_u64(rng_words[2]),
                encode_u64(rng_words[3]),
            ],
            noise_var: self.noise_var,
            delta: self.delta,
            step: self.step as u64,
            warmed_up: self.warmed_up as u64,
            rounds,
            witness_digest: encode_u64(self.witness.digest_value()),
            users,
            tenants,
            picker: PickerCheckpoint::of(&self.picker),
            clock: self.clock,
            retry_policy: RetryPolicyCheckpoint {
                max_retries: self.retry_policy.max_retries,
                backoff_cost: self.retry_policy.backoff_cost,
                backoff_factor: self.retry_policy.backoff_factor,
                quarantine_threshold: self.retry_policy.quarantine_threshold,
                probation_rounds: self.retry_policy.probation_rounds,
            },
            retry_counters: self
                .retry_state
                .counters()
                .iter()
                .map(|(&(user, arm), &n)| (user, arm, n))
                .collect(),
            retry_releases: self.retry_state.releases().to_vec(),
            fault: self.fault.as_ref().map(FaultCheckpoint::of),
        };
        let json = doc.to_json();
        self.recorder.emit(|| Event::CheckpointWritten {
            rounds,
            users: self.users.len() as u64,
            bytes: json.len() as u64,
            parent: easeml_obs::current_span(),
        });
        json
    }

    /// Rebuilds a server from a checkpoint produced by
    /// [`EaseMl::checkpoint`], resuming the experiment exactly: the GP
    /// posteriors are replayed observation-by-observation (bit-identical
    /// f64 state), the RNG continues its stream, and the fault injector's
    /// attempt counters pick up where they left off — so the remaining
    /// decision sequence matches an uninterrupted run.
    ///
    /// The recorder is not part of the checkpoint; attach one with
    /// [`EaseMl::set_recorder`] after restoring.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or inconsistent field.
    pub fn restore(json: &str, oracle: QualityOracle) -> Result<Self, String> {
        let doc = CheckpointDoc::from_json(json).map_err(|e| e.to_string())?;
        EaseMl::restore_doc(&doc, oracle)
    }

    /// [`EaseMl::restore`] from an already parsed checkpoint.
    fn restore_doc(doc: &CheckpointDoc, oracle: QualityOracle) -> Result<Self, String> {
        check_runnable(doc)?;
        let mut server = EaseMl::new(oracle, 0);
        server.noise_var = doc.noise_var;
        server.delta = doc.delta;
        // Re-register every user from its original program: id order makes
        // the β-schedules identical to the original registration sequence.
        for user in &doc.users {
            server
                .register_user(&user.name, &user.program)
                .map_err(|e| format!("restoring user {:?}: {e}", user.name))?;
        }
        // Replay the observation sequences: same inputs through the same
        // numeric path rebuild bit-identical posterior state and job bests.
        for (idx, tenant_ckpt) in doc.tenants.iter().enumerate() {
            let num_arms = server.tenants[idx].policy().posterior().num_arms();
            for (j, &(arm, reward)) in tenant_ckpt.observations.iter().enumerate() {
                in_range(arm, num_arms, || {
                    format!("tenants[{idx}].observations[{j}].arm")
                })?;
                server.tenants.observe(idx, arm, reward);
                server.jobs[idx].record_result(arm, reward);
            }
            for (j, &arm) in tenant_ckpt.masked.iter().enumerate() {
                in_range(arm, num_arms, || format!("tenants[{idx}].masked[{j}]"))?;
                server.tenants.set_arm_masked(idx, arm, true);
            }
            server.tenants.set_active(idx, tenant_ckpt.active);
            server.jobs[idx].failed = tenant_ckpt.failed;
            server.jobs[idx].cost = tenant_ckpt.cost;
        }
        server.picker = doc.picker.restore("picker")?;
        server.clock = doc.clock;
        let mut rng_words = [0u64; 4];
        for (i, word) in doc.rng_state.iter().enumerate() {
            rng_words[i] = decode_u64(word)?;
        }
        server.rng = StdRng::from_state(rng_words);
        server.warmed_up = doc.warmed_up as usize;
        server.step = doc.step as usize;
        server.rounds = doc.rounds;
        // Continue the rolling digest chain instead of restarting it, so a
        // restored run's digest matches the uninterrupted run's at every
        // subsequent round (the bit-exactness oracle recovery asserts on).
        server.witness = DecisionLog::from_state(decode_u64(&doc.witness_digest)?);
        server.retry_policy = RetryPolicy {
            max_retries: doc.retry_policy.max_retries,
            backoff_cost: doc.retry_policy.backoff_cost,
            backoff_factor: doc.retry_policy.backoff_factor,
            quarantine_threshold: doc.retry_policy.quarantine_threshold,
            probation_rounds: doc.retry_policy.probation_rounds,
        };
        server.retry_state = RetryState::from_parts(
            doc.retry_counters
                .iter()
                .map(|&(user, arm, n)| ((user, arm), n))
                .collect(),
            doc.retry_releases.clone(),
        );
        server.fault = doc
            .fault
            .as_ref()
            .map(FaultCheckpoint::restore)
            .transpose()?;
        Ok(server)
    }

    /// Writes a checkpoint to `path` atomically (temp file + rename +
    /// fsync), then — when a WAL is attached — seals and compacts the log
    /// behind a [`DurableEvent::CheckpointMark`]. The WAL suffix after the
    /// mark is exactly the delta a recovery must replay.
    ///
    /// # Errors
    ///
    /// Filesystem errors from the atomic write; WAL errors are recorded in
    /// [`Durability::stats_json`] instead of propagated.
    pub fn checkpoint_to(&self, path: &Path) -> Result<(), String> {
        let json = self.checkpoint();
        write_checkpoint_atomic(path, &json).map_err(|e| e.to_string())?;
        self.durability
            .mark_checkpoint(self.rounds, self.witness.digest_value());
        Ok(())
    }

    /// Re-applies one logged tenant-lifecycle mutation during recovery.
    ///
    /// Joins are deduplicated by slot against the restored checkpoint: a
    /// join the checkpoint already covers is validated (the slot must hold
    /// the same number of candidate models) and skipped; a join one past
    /// the end re-registers through the identical [`EaseMl::register_user`]
    /// path. Retirements are idempotent.
    fn apply_lifecycle(&mut self, action: LifecycleAction) -> Result<(), String> {
        match action {
            LifecycleAction::Join {
                user,
                arms,
                name,
                program,
            } => {
                let user = user as usize;
                if user < self.users.len() {
                    let have = self.jobs[user].candidate_models().len() as u64;
                    if have != arms {
                        return Err(format!(
                            "logged join for tenant {user} declares {arms} models, \
                             checkpoint slot holds {have}"
                        ));
                    }
                    return Ok(());
                }
                if user != self.users.len() {
                    return Err(format!(
                        "logged join for tenant {user} skips slots ({} registered)",
                        self.users.len()
                    ));
                }
                let id = self
                    .register_user(&name, &program)
                    .map_err(|e| format!("re-registering tenant {user} ({name:?}): {e}"))?;
                let have = self.jobs[id].candidate_models().len() as u64;
                if have != arms {
                    return Err(format!(
                        "re-registered tenant {user} matched {have} models, log says {arms}"
                    ));
                }
                Ok(())
            }
            LifecycleAction::Retire { user } => {
                let user = user as usize;
                if user >= self.tenants.len() {
                    return Err(format!("logged retirement for unknown tenant {user}"));
                }
                self.tenants.set_active(user, false);
                Ok(())
            }
        }
    }

    /// Rebuilds a server from the checkpoint at `checkpoint_path` plus the
    /// WAL in `wal_dir`: restore, then replay every committed round logged
    /// after the checkpoint by substituting its logged attempt outcomes
    /// for the oracle — O(delta) work, independent of total history.
    ///
    /// Replay is asserted **bit-exact**: after each round the rolling
    /// witness digest and the RNG words must equal the values the original
    /// process logged in that round's [`DurableEvent::RoundCommit`]. Any
    /// divergence is an error, never a silent approximation. Records after
    /// the last commit (a round that was in flight when the process died)
    /// are counted, reported, and physically truncated — an uncommitted
    /// round is never resurrected.
    ///
    /// The returned server has no WAL attached; call
    /// [`EaseMl::set_durability`] (typically on the same `wal_dir`, which
    /// the truncation left consistent) to resume logging.
    ///
    /// # Errors
    ///
    /// Unreadable/corrupt checkpoint, unreadable WAL, undecodable records,
    /// round gaps between checkpoint and log, or any replay divergence.
    pub fn recover(
        checkpoint_path: &Path,
        wal_dir: &Path,
        oracle: QualityOracle,
    ) -> Result<(Self, RecoveryReport), String> {
        let start = Instant::now();
        let doc = read_checkpoint_file(checkpoint_path).map_err(|e| e.to_string())?;
        let mut server = EaseMl::restore_doc(&doc, oracle)?;
        let from_rounds = server.rounds_executed();
        let log =
            read_log(wal_dir).map_err(|e| format!("reading WAL {}: {e}", wal_dir.display()))?;
        let plan = plan_replay(&log, from_rounds)?;
        let replayed = plan.rounds.len() as u64;
        for round in plan.rounds {
            for action in round.lifecycle {
                server.apply_lifecycle(action)?;
            }
            let expected = round.commit;
            server.replay = Some(round.attempts);
            let outcome = server
                .try_run_round()
                .map_err(|e| format!("replaying round {}: {e:?}", expected.round))?;
            let leftover = server.replay.take().is_some_and(|queue| !queue.is_empty());
            if leftover {
                return Err(format!(
                    "round {}: logged attempts left unconsumed by replay",
                    expected.round
                ));
            }
            let digest = server.witness.digest_value();
            if digest != expected.digest {
                return Err(format!(
                    "round {}: replay digest {digest:016x} != logged {:016x}",
                    expected.round, expected.digest
                ));
            }
            if server.rng.state() != expected.rng {
                return Err(format!(
                    "round {}: replay RNG state diverged from the log",
                    expected.round
                ));
            }
            let censored = matches!(outcome.result, RoundResult::Censored { .. });
            if outcome.user as u64 != expected.user || censored != expected.censored {
                return Err(format!(
                    "round {}: replay outcome (user {}, censored {censored}) != logged \
                     (user {}, censored {})",
                    expected.round, outcome.user, expected.user, expected.censored
                ));
            }
        }
        // Tenancy changes logged after the last commit are durable even
        // without a round behind them — re-apply before resuming.
        for action in plan.tail {
            server.apply_lifecycle(action)?;
        }
        let report = RecoveryReport {
            checkpoint_rounds: from_rounds,
            replayed_rounds: replayed,
            skipped_records: plan.skipped,
            final_rounds: server.rounds_executed(),
            final_digest: server.state_digest(),
            ..RecoveryReport::default()
        }
        .drop_suffix(wal_dir, &log, plan.cut, start)?;
        Ok((server, report))
    }

    /// Runs rounds until the simulated clock has consumed `budget` cost,
    /// checking it after every round, censored ones included: a round whose
    /// attempts all fail still charges their cost. Returns the number of
    /// rounds that completed.
    ///
    /// # Panics
    ///
    /// Panics if no users are registered, or if every one has retired.
    pub fn run_until(&mut self, budget: f64) -> usize {
        let mut completed = 0;
        while self.clock < budget {
            match self.try_run_round() {
                Ok(outcome) => completed += usize::from(outcome.completed().is_some()),
                Err(RoundError::NoUsers) => panic!("no registered users"),
                Err(RoundError::NoActiveUsers) => panic!("all registered users have retired"),
            }
        }
        completed
    }

    /// Total simulated time consumed so far.
    pub fn elapsed(&self) -> f64 {
        self.clock
    }

    /// Job statuses of all users (for dashboards).
    pub fn statuses(&self) -> Vec<JobStatus> {
        self.jobs.iter().map(Job::status).collect()
    }

    /// A point-in-time view of every user's job: status, served runs, cost
    /// consumed, and current best model.
    pub fn status_snapshot(&self) -> StatusSnapshot {
        let users: Vec<UserStatus> = self
            .users
            .iter()
            .zip(&self.jobs)
            .zip(self.tenants.iter())
            .map(|((account, job), tenant)| {
                let best = job.best_model();
                UserStatus {
                    user: account.id(),
                    name: account.name().to_string(),
                    status: job.status().name().to_string(),
                    // Every completed run observes once, so the posterior
                    // counts the runs served.
                    served: tenant.policy().posterior().num_observations(),
                    cost: job.cost,
                    best_model: best.map(|(model, _)| model.name().to_string()),
                    best_accuracy: best.map(|(_, accuracy)| accuracy),
                    failed: job.failed,
                }
            })
            .collect();
        StatusSnapshot {
            elapsed_cost: self.clock,
            completed_runs: users.iter().map(|u| u.served).sum(),
            num_users: self.users.len(),
            failed_runs: users.iter().map(|u| u.failed).sum(),
            users,
        }
    }

    /// The status snapshot as compact JSON — what a telemetry hub serves
    /// at `/status`.
    pub fn status_json(&self) -> String {
        easeml_obs::json::to_string(&self.status_snapshot())
    }
}

/// Rejects every field value that would make [`EaseMl::restore`], or a
/// later round of the restored server, panic: a checkpoint is outside
/// input. Arm indices are checked while the observations replay, once the
/// re-registered jobs have fixed each tenant's arm count; the `picker` and
/// `fault` sections are checked by their shared restores.
fn check_runnable(doc: &CheckpointDoc) -> Result<(), String> {
    check_gp_settings(doc.noise_var, doc.delta)?;
    let users = doc.users.len();
    if doc.tenants.len() != users {
        return Err(format!(
            "tenants: checkpoint holds {} tenant states for {users} users",
            doc.tenants.len()
        ));
    }
    // `/status` sums the failure counts, so their total stays below the
    // integer bound too: counting on from it cannot overflow.
    let mut failed = 0u64;
    for (i, tenant) in doc.tenants.iter().enumerate() {
        failed += tenant.failed as u64;
        if failed >= INTEGER_BOUND {
            return Err(format!(
                "tenants[{i}].failed: the tenants' failed runs total {failed}, \
                 past the integer bound {INTEGER_BOUND}"
            ));
        }
        for (j, &(_, reward)) in tenant.observations.iter().enumerate() {
            if !reward.is_finite() {
                return Err(format!(
                    "tenants[{i}].observations[{j}] reward must be finite"
                ));
            }
        }
        non_negative(tenant.cost, || format!("tenants[{i}].cost"))?;
    }
    non_negative(doc.clock, || "clock".into())?;
    for (i, &(_, user, _)) in doc.retry_releases.iter().enumerate() {
        in_range(user, users, || format!("retry_releases[{i}].user"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultRates};

    const IMAGE_PROG: &str = "{input: {[Tensor[64, 64, 3]], []}, output: {[Tensor[5]], []}}";
    const TS_PROG: &str = "{input: {[Tensor[16]], [next]}, output: {[Tensor[3]], []}}";

    /// Oracle: model quality depends on user parity and the model's zoo
    /// cost (a deterministic, discriminative toy).
    fn toy_oracle() -> QualityOracle {
        Box::new(|user, model| {
            let info = model.info();
            let base = if user % 2 == 0 { 0.7 } else { 0.5 };
            Ok(TrainingOutcome {
                accuracy: (base + 0.02 * (info.year as f64 - 2010.0)).min(0.99),
                cost: info.relative_cost,
            })
        })
    }

    #[test]
    fn register_parses_and_matches() {
        let mut s = EaseMl::new(toy_oracle(), 1);
        let u0 = s.register_user("vision-lab", IMAGE_PROG).unwrap();
        let u1 = s.register_user("meteo-lab", TS_PROG).unwrap();
        assert_eq!((u0, u1), (0, 1));
        assert_eq!(s.num_users(), 2);
        assert_eq!(s.job(0).candidate_models().len(), 8);
        assert_eq!(s.job(1).candidate_models().len(), 4);
        assert_eq!(s.infer(0), None);
    }

    #[test]
    fn malformed_program_is_rejected() {
        let mut s = EaseMl::new(toy_oracle(), 1);
        assert!(s.register_user("broken", "{input: }").is_err());
        assert_eq!(s.num_users(), 0);
    }

    #[test]
    fn rounds_explore_and_infer_improves() {
        let mut s = EaseMl::new(toy_oracle(), 2);
        s.register_user("a", IMAGE_PROG).unwrap();
        s.register_user("b", TS_PROG).unwrap();
        let (user, _model, outcome) = s.run_round();
        assert_eq!(user, 0, "warm-up serves user 0 first");
        assert!(outcome.accuracy > 0.0);
        let (user, _, _) = s.run_round();
        assert_eq!(user, 1, "warm-up serves user 1 second");
        // After warm-up both users have a model to infer with.
        assert!(s.infer(0).is_some());
        assert!(s.infer(1).is_some());
        // Keep exploring; accuracy of the best model never drops.
        let best_before = s.infer(0).unwrap().1;
        for _ in 0..20 {
            s.run_round();
        }
        assert!(s.infer(0).unwrap().1 >= best_before);
        assert!(s.elapsed() > 0.0);
    }

    #[test]
    fn run_until_respects_budget() {
        let mut s = EaseMl::new(toy_oracle(), 3);
        s.register_user("a", IMAGE_PROG).unwrap();
        let rounds = s.run_until(10.0);
        assert!(rounds > 0);
        assert!(s.elapsed() >= 10.0);
        // Statuses reflect progress.
        assert_ne!(s.statuses()[0], JobStatus::Queued);
    }

    #[test]
    fn run_until_returns_when_every_attempt_fails() {
        // Every attempt times out, so no round completes, yet each charges
        // its cost. The server runs on a thread of its own, so a run that
        // never returns fails this test instead of hanging the test run.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut s = EaseMl::new(toy_oracle(), 14);
            s.register_user("vision-lab", IMAGE_PROG).unwrap();
            s.register_user("meteo-lab", TS_PROG).unwrap();
            let faults = FaultConfig::new(7).with_timeout_rate(1.0);
            s.set_fault_injector(Some(FaultInjector::new(faults)));
            let rounds = s.run_until(100.0);
            let _ = done.send((rounds, s.elapsed()));
        });
        let (rounds, elapsed) = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_until returns once the clock passes its budget");
        assert_eq!(rounds, 0, "no round completes");
        assert!(elapsed >= 100.0, "stopped early at {elapsed}");
    }

    #[test]
    fn recorder_observes_server_rounds() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let mut s = EaseMl::new(toy_oracle(), 6);
        s.register_user("a", IMAGE_PROG).unwrap();
        let rec = Arc::new(InMemoryRecorder::new());
        s.set_recorder(RecorderHandle::new(rec.clone()));
        s.register_user("b", TS_PROG).unwrap(); // after attach: still wired
        for _ in 0..12 {
            s.run_round();
        }
        assert_eq!(rec.counter("server/rounds"), 12);
        // The cluster executed one run per round and tracks its clock.
        assert_eq!(rec.counter("cluster/runs"), 12);
        assert_eq!(rec.gauge("cluster/makespan"), Some(s.elapsed()));
        let counts = rec.event_counts();
        assert_eq!(counts.get("TrainingCompleted"), Some(&12));
        // Both tenants' policies report their pulls, including the one
        // registered after the recorder was attached.
        assert_eq!(counts.get("ArmChosen"), Some(&12));
        assert_eq!(counts.get("PosteriorUpdated"), Some(&12));
        let users: std::collections::BTreeSet<usize> =
            rec.events().iter().filter_map(|e| e.user()).collect();
        assert!(users.contains(&0) && users.contains(&1));
        // Post-warm-up rounds go through HYBRID, which logs its decision.
        assert!(counts.get("SchedulerDecision").copied().unwrap_or(0) >= 10);
        assert_eq!(rec.timing(Component::SimRound).count(), 12);

        // The causal span tree: every round is one scheduler_step root, and
        // every other span recorded during the round nests (transitively)
        // under one. Starts and ends pair off exactly.
        let events = rec.events();
        let mut parents = std::collections::HashMap::new();
        let mut open = Vec::new();
        let mut roots = 0usize;
        for e in &events {
            match e {
                Event::SpanStart {
                    span, parent, name, ..
                } => {
                    parents.insert(*span, (*parent, name.clone()));
                    open.push(*span);
                    if *parent == 0 {
                        roots += 1;
                        assert_eq!(name, "scheduler_step", "only step spans are roots");
                    }
                }
                Event::SpanEnd { span, .. } => {
                    assert_eq!(open.pop(), Some(*span), "spans close LIFO");
                }
                other => {
                    // Causal events recorded mid-round point at an open span.
                    if let Some(p) = open.last() {
                        assert_eq!(other.parent(), *p, "{other:?}");
                    }
                }
            }
        }
        assert!(open.is_empty(), "all spans closed");
        assert_eq!(roots, 12, "one scheduler_step per round");
        let names: std::collections::BTreeSet<&str> =
            parents.values().map(|(_, name)| name.as_str()).collect();
        for expected in [
            "scheduler_step",
            "pick_user",
            "pick_arm",
            "train",
            "posterior_update",
        ] {
            assert!(names.contains(expected), "missing span {expected}");
        }
    }

    #[test]
    fn status_snapshot_tracks_progress_and_serializes() {
        let mut s = EaseMl::new(toy_oracle(), 7);
        s.register_user("vision-lab", IMAGE_PROG).unwrap();
        s.register_user("meteo-lab", TS_PROG).unwrap();

        let snap = s.status_snapshot();
        assert_eq!(snap.num_users, 2);
        assert_eq!(snap.completed_runs, 0);
        assert_eq!(snap.elapsed_cost, 0.0);
        assert_eq!(snap.users[0].status, "queued");
        assert_eq!(snap.users[0].best_model, None);

        for _ in 0..8 {
            s.run_round();
        }
        let snap = s.status_snapshot();
        assert_eq!(snap.completed_runs, 8);
        assert!((snap.elapsed_cost - s.elapsed()).abs() < 1e-12);
        assert_eq!(snap.users.len(), 2);
        assert_eq!(snap.users[0].name, "vision-lab");
        assert_eq!(snap.users[0].status, "exploring");
        assert!(snap.users[0].best_model.is_some());
        assert!(snap.users[0].best_accuracy.unwrap() > 0.0);
        // Per-user served/cost reconcile with the global totals.
        let served: usize = snap.users.iter().map(|u| u.served).sum();
        assert_eq!(served, 8);
        let cost: f64 = snap.users.iter().map(|u| u.cost).sum();
        assert!((cost - snap.elapsed_cost).abs() < 1e-9);

        // The JSON form carries the fields the /status endpoint promises.
        let json = s.status_json();
        assert!(json.starts_with("{\"elapsed_cost\":"), "{json}");
        assert!(json.contains("\"users\":["), "{json}");
        assert!(json.contains("\"name\":\"vision-lab\""), "{json}");
        assert!(json.contains("\"status\":\"exploring\""), "{json}");
    }

    #[test]
    fn feed_and_refine_through_the_server() {
        let mut s = EaseMl::new(toy_oracle(), 4);
        let u = s.register_user("a", IMAGE_PROG).unwrap();
        s.storage().feed(u, vec![(vec![0.0; 4], vec![1.0])]);
        assert_eq!(s.storage().count(u), 1);
        assert!(s.storage().refine(u, 0, false));
        assert_eq!(s.storage().enabled_count(u), 0);
    }

    #[test]
    #[should_panic(expected = "no registered users")]
    fn round_without_users_panics() {
        let mut s = EaseMl::new(toy_oracle(), 5);
        s.run_round();
    }

    #[test]
    fn try_run_round_without_users_reports_no_users() {
        let mut s = EaseMl::new(toy_oracle(), 5);
        assert_eq!(s.try_run_round(), Err(RoundError::NoUsers));
    }

    #[test]
    fn crashing_arm_is_censored_and_quarantined() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let mut s = EaseMl::new(toy_oracle(), 8);
        s.register_user("a", IMAGE_PROG).unwrap();
        let rec = Arc::new(InMemoryRecorder::new());
        s.set_recorder(RecorderHandle::new(rec.clone()));
        // Arm 0 (the first argmax choice on a flat prior) always crashes.
        let mut config = FaultConfig::new(13);
        config.arm_overrides.insert(
            0,
            FaultRates {
                crash: 1.0,
                ..FaultRates::NONE
            },
        );
        s.set_fault_injector(Some(FaultInjector::new(config)));

        let out = s.try_run_round().unwrap();
        assert_eq!(out.user, 0, "warm-up serves user 0");
        assert_eq!(out.attempts, 3, "one attempt plus two retries");
        assert!(out.completed().is_none());
        match out.result {
            RoundResult::Censored {
                error,
                cost_consumed,
            } => {
                assert_eq!(error.kind(), "crash");
                assert!(cost_consumed > 0.0, "crashes and backoff bill the user");
            }
            other => panic!("expected a censored round, got {other:?}"),
        }
        assert_eq!(s.quarantined_arms(0), vec![0]);

        // Censored rounds advance the clock and the bill, but never the
        // posterior or the job's best model.
        let snap = s.status_snapshot();
        assert_eq!(snap.completed_runs, 0);
        assert_eq!(snap.failed_runs, 3);
        assert_eq!(snap.users[0].served, 0);
        assert_eq!(snap.users[0].failed, 3);
        assert!(snap.users[0].cost > 0.0);
        assert!((snap.users[0].cost - snap.elapsed_cost).abs() < 1e-12);
        assert!(s.infer(0).is_none());

        // The next round steers around the quarantined arm and completes.
        let out = s.try_run_round().unwrap();
        assert_eq!(out.attempts, 1);
        assert!(out.completed().is_some());
        assert!(s.infer(0).is_some());

        let counts = rec.event_counts();
        assert_eq!(counts.get("TrainingFailed"), Some(&3));
        assert_eq!(counts.get("RetryScheduled"), Some(&2));
        assert_eq!(counts.get("ArmQuarantined"), Some(&1));
        assert_eq!(counts.get("TrainingCompleted"), Some(&1));
    }

    #[test]
    fn quarantined_arms_reenter_on_probation() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let mut s = EaseMl::new(toy_oracle(), 9);
        s.register_user("a", IMAGE_PROG).unwrap();
        let rec = Arc::new(InMemoryRecorder::new());
        s.set_recorder(RecorderHandle::new(rec.clone()));
        s.set_retry_policy(RetryPolicy {
            probation_rounds: 2,
            ..RetryPolicy::default()
        });
        let mut config = FaultConfig::new(13);
        config.arm_overrides.insert(
            0,
            FaultRates {
                crash: 1.0,
                ..FaultRates::NONE
            },
        );
        s.set_fault_injector(Some(FaultInjector::new(config)));

        // Round 1 quarantines arm 0; round 2 completes on another arm.
        s.try_run_round().unwrap();
        assert_eq!(s.quarantined_arms(0), vec![0]);
        s.try_run_round().unwrap();
        assert_eq!(s.quarantined_arms(0), vec![0], "probation not due yet");
        // Round 3: probation releases arm 0 before scheduling. Either the
        // picker avoids it (mask now empty) or selects it again — in which
        // case it crashes and is re-quarantined, emitting a second
        // ArmQuarantined. Both outcomes prove the release fired.
        s.try_run_round().unwrap();
        let requarantined = rec.event_counts().get("ArmQuarantined") == Some(&2);
        assert!(
            requarantined || s.quarantined_arms(0).is_empty(),
            "arm 0 was never released from quarantine"
        );
    }

    #[test]
    fn run_round_skips_censored_rounds() {
        let mut s = EaseMl::new(toy_oracle(), 10);
        s.register_user("a", IMAGE_PROG).unwrap();
        let config = FaultConfig::new(21).with_crash_rate(0.3);
        s.set_fault_injector(Some(FaultInjector::new(config)));
        // run_round always hands back a completed outcome, riding over any
        // censored rounds in between.
        for _ in 0..20 {
            let (_, _, outcome) = s.run_round();
            assert!(outcome.accuracy.is_finite());
        }
        let snap = s.status_snapshot();
        assert_eq!(snap.completed_runs, 20);
    }

    #[test]
    fn checkpoint_restore_reproduces_the_remaining_trajectory() {
        let make = || {
            let mut s = EaseMl::new(toy_oracle(), 42);
            s.register_user("vision-lab", IMAGE_PROG).unwrap();
            s.register_user("meteo-lab", TS_PROG).unwrap();
            let config = FaultConfig::new(99)
                .with_crash_rate(0.25)
                .with_stragglers(0.2, 2.5);
            s.set_fault_injector(Some(FaultInjector::new(config)));
            s
        };
        // Uninterrupted reference: 30 rounds.
        let mut reference = make();
        let all: Vec<RoundOutcome> = (0..30)
            .map(|_| reference.try_run_round().unwrap())
            .collect();

        // Interrupted run: 12 rounds, checkpoint, "crash", restore, resume.
        let mut first = make();
        for _ in 0..12 {
            first.try_run_round().unwrap();
        }
        let ckpt = first.checkpoint();
        drop(first);
        let mut resumed = EaseMl::restore(&ckpt, toy_oracle()).unwrap();
        assert_eq!(resumed.rounds_executed(), 12);
        let tail: Vec<RoundOutcome> = (0..18).map(|_| resumed.try_run_round().unwrap()).collect();

        // The resumed trajectory is *exactly* the uninterrupted one.
        assert_eq!(&all[12..], &tail[..]);
        assert_eq!(
            resumed.elapsed().to_bits(),
            reference.elapsed().to_bits(),
            "cluster clocks agree to the bit"
        );
        assert_eq!(resumed.status_snapshot(), reference.status_snapshot());
        assert_eq!(
            resumed.checkpoint(),
            reference.checkpoint(),
            "checkpoints of equal states are byte-identical"
        );
    }

    #[test]
    fn retired_tenants_are_never_served_and_joins_get_warmup() {
        let mut s = EaseMl::new(toy_oracle(), 11);
        s.register_user("a", IMAGE_PROG).unwrap();
        s.register_user("b", TS_PROG).unwrap();
        for _ in 0..10 {
            s.try_run_round().unwrap();
        }
        s.retire_tenant(0);
        assert!(!s.is_tenant_active(0));
        assert_eq!(s.num_active_users(), 1);
        for _ in 0..15 {
            let out = s.try_run_round().unwrap();
            assert_ne!(out.user, 0, "retired tenant was served");
        }
        // A mid-run join is warm-up-served on its very next round.
        let id = s.add_tenant("c", IMAGE_PROG).unwrap();
        assert_eq!(id, 2);
        let out = s.try_run_round().unwrap();
        assert_eq!(out.user, id, "joined tenant must get its warm-up round");
        for _ in 0..15 {
            assert_ne!(s.try_run_round().unwrap().user, 0);
        }
        // Retiring everyone leaves nothing to schedule.
        s.retire_tenant(1);
        s.retire_tenant(2);
        assert_eq!(s.try_run_round(), Err(RoundError::NoActiveUsers));
        // Retirement is idempotent.
        s.retire_tenant(1);
        assert_eq!(s.num_active_users(), 0);
    }

    #[test]
    fn checkpoint_preserves_tenant_activity() {
        let mut s = EaseMl::new(toy_oracle(), 12);
        s.register_user("a", IMAGE_PROG).unwrap();
        s.register_user("b", TS_PROG).unwrap();
        for _ in 0..6 {
            s.try_run_round().unwrap();
        }
        s.retire_tenant(1);
        let ckpt = s.checkpoint();
        let mut restored = EaseMl::restore(&ckpt, toy_oracle()).unwrap();
        assert!(restored.is_tenant_active(0));
        assert!(!restored.is_tenant_active(1));
        // Both continue identically: the retired tenant stays invisible.
        let a: Vec<usize> = (0..10).map(|_| s.try_run_round().unwrap().user).collect();
        let b: Vec<usize> = (0..10)
            .map(|_| restored.try_run_round().unwrap().user)
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&u| u != 1));
    }

    #[test]
    fn recovery_replays_post_checkpoint_joins_and_retirements() {
        use easeml_wal::WalOptions;
        let dir = std::env::temp_dir().join(format!(
            "easeml-server-lifecycle-recovery-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt_path = dir.join("ckpt.json");
        let wal_dir = dir.join("wal");

        let mut s = EaseMl::new(toy_oracle(), 13);
        s.set_durability(Durability::open(&wal_dir, WalOptions::default()).unwrap());
        s.register_user("a", IMAGE_PROG).unwrap();
        s.register_user("b", TS_PROG).unwrap();
        for _ in 0..5 {
            s.try_run_round().unwrap();
        }
        s.checkpoint_to(&ckpt_path).unwrap();
        // Post-checkpoint: a join, rounds, a retirement, more rounds — all
        // of it only in the WAL suffix.
        s.add_tenant("c", IMAGE_PROG).unwrap();
        for _ in 0..4 {
            s.try_run_round().unwrap();
        }
        s.retire_tenant(0);
        for _ in 0..4 {
            s.try_run_round().unwrap();
        }
        let live_digest = s.state_digest();
        let live_rounds = s.rounds_executed();
        drop(s);

        let (mut recovered, report) = EaseMl::recover(&ckpt_path, &wal_dir, toy_oracle()).unwrap();
        assert_eq!(report.checkpoint_rounds, 5);
        assert_eq!(report.replayed_rounds, 8);
        assert_eq!(recovered.rounds_executed(), live_rounds);
        assert_eq!(recovered.state_digest(), live_digest);
        assert_eq!(recovered.num_users(), 3);
        assert!(!recovered.is_tenant_active(0), "retirement must replay");
        assert!(recovered.is_tenant_active(2), "join must replay");
        // The recovered server schedules on: tenant 0 stays invisible.
        for _ in 0..10 {
            assert_ne!(recovered.try_run_round().unwrap().user, 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_reads_and_replays_only_the_delta_after_the_checkpoint() {
        // A 600-round run checkpointed `delta` rounds before the end. The
        // checkpoint compacts the log, so recovery reads the mark plus
        // three records per clean round after it (start, observation,
        // commit) and skips nothing: its work is O(delta), not O(history).
        use easeml_wal::{read_log, WalOptions};
        const ROUNDS: u64 = 600;
        for delta in [32u64, 128, 512] {
            let dir = std::env::temp_dir().join(format!(
                "easeml-server-delta-recovery-{}-{delta}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let (ckpt_path, wal_dir) = (dir.join("ckpt.json"), dir.join("wal"));
            let mut s = EaseMl::new(toy_oracle(), 20_180_801);
            s.register_user("vision-lab", IMAGE_PROG).unwrap();
            s.register_user("meteo-lab", TS_PROG).unwrap();
            s.set_durability(Durability::open(&wal_dir, WalOptions::default()).unwrap());
            for _ in 0..ROUNDS - delta {
                s.try_run_round().unwrap();
            }
            s.checkpoint_to(&ckpt_path).unwrap();
            for _ in 0..delta {
                s.try_run_round().unwrap();
            }
            let live_digest = s.state_digest();
            drop(s);

            let records = read_log(&wal_dir).unwrap().records.len() as u64;
            assert_eq!(records, 3 * delta + 1, "delta {delta}: records in the log");
            let (recovered, report) = EaseMl::recover(&ckpt_path, &wal_dir, toy_oracle()).unwrap();
            assert_eq!(recovered.state_digest(), live_digest, "delta {delta}");
            assert_eq!(report.replayed_rounds, delta);
            assert_eq!(report.skipped_records, 0, "delta {delta}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn recovery_refuses_logged_outcomes_the_live_path_never_logs() {
        // A CRC-valid round appended after the checkpoint whose resolved
        // outcome the live path would have censored instead of logging.
        use easeml_wal::WalOptions;
        let dir =
            std::env::temp_dir().join(format!("easeml-server-bad-outcome-{}", std::process::id()));
        let (ckpt_path, wal_dir) = (dir.join("ckpt.json"), dir.join("wal"));
        for (accuracy, cost) in [
            (0.5, 0.0),
            (0.5, -1.0),
            (0.5, f64::NAN),
            (0.5, f64::INFINITY),
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut s = EaseMl::new(toy_oracle(), 15);
            s.register_user("vision-lab", IMAGE_PROG).unwrap();
            s.set_durability(Durability::open(&wal_dir, WalOptions::default()).unwrap());
            for _ in 0..3 {
                s.try_run_round().unwrap();
            }
            s.checkpoint_to(&ckpt_path).unwrap();
            let round = s.rounds_executed();
            let wal = s.durability();
            wal.append(|| DurableEvent::RoundStart { round });
            wal.append(|| DurableEvent::ObservationResolved {
                round,
                user: 0,
                arm: 0,
                accuracy,
                cost,
            });
            wal.append(|| DurableEvent::RoundCommit {
                round,
                user: 0,
                arm: 0,
                censored: false,
                digest: 0,
                rng: [0; 4],
            });
            drop(s);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                EaseMl::recover(&ckpt_path, &wal_dir, toy_oracle()).map(|_| ())
            }));
            match outcome {
                Ok(Err(err)) => assert!(err.contains(&format!("round {round}")), "{err}"),
                Ok(Ok(())) => panic!("accuracy {accuracy}, cost {cost}: recovery accepted it"),
                Err(_) => panic!("accuracy {accuracy}, cost {cost}: recovery panicked"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_grows_only_by_gp_state() {
        // Each tenant's observation list grows by one entry per completed
        // run; everything else in the document is bounded by the tenants
        // and arms, whatever the number of rounds run.
        let oracle: QualityOracle = Box::new(|user, model| {
            let info = model.info();
            let base = 0.5 + 0.04 * (user % 3) as f64;
            Ok(TrainingOutcome {
                accuracy: (base + 0.02 * (info.year as f64 - 2010.0)).min(0.99),
                cost: info.relative_cost,
            })
        });
        let mut s = EaseMl::new(oracle, 29);
        let faults = FaultConfig::new(43)
            .with_crash_rate(0.15)
            .with_timeout_rate(0.05)
            .with_stragglers(0.20, 2.5);
        s.set_fault_injector(Some(FaultInjector::new(faults)));
        s.register_user("vision-a", IMAGE_PROG).unwrap();
        s.register_user("meteo-a", TS_PROG).unwrap();
        let mut rest = Vec::new();
        for round in 1..=500 {
            s.try_run_round().unwrap();
            if round == 50 || round == 500 {
                let json = s.checkpoint();
                let doc = CheckpointDoc::from_json(&json).unwrap();
                let observations: usize = doc
                    .tenants
                    .iter()
                    .map(|t| easeml_obs::json::to_string(&t.observations).len())
                    .sum();
                rest.push((json.len() - observations) as i64);
            }
        }
        assert!(s.status_snapshot().failed_runs > 0, "faults fired");
        let growth = rest[1] - rest[0];
        assert!(
            growth < 128,
            "the checkpoint beyond its observations grew by {growth} bytes"
        );
    }

    #[test]
    fn restore_rejects_malformed_documents() {
        assert!(EaseMl::restore("not json", toy_oracle()).is_err());
        assert!(EaseMl::restore("{\"version\":1}", toy_oracle()).is_err());
        let err = match EaseMl::restore("{\"version\":99}", toy_oracle()) {
            Err(err) => err,
            Ok(_) => panic!("version 99 must be rejected"),
        };
        assert!(err.contains("unsupported checkpoint version"), "{err}");
    }

    #[test]
    fn restored_round_robin_cursor_is_read_up_to_the_integer_bound() {
        let mut s = EaseMl::new(toy_oracle(), 14);
        s.register_user("vision-lab", IMAGE_PROG).unwrap();
        s.register_user("meteo-lab", TS_PROG).unwrap();
        for _ in 0..5 {
            s.try_run_round().unwrap();
        }
        let mut doc = CheckpointDoc::from_json(&s.checkpoint()).unwrap();
        doc.picker.switched = true;
        const CURSOR_MARK: u64 = 987_654_321;
        doc.picker.rr_cursor = CURSOR_MARK;
        let with_cursor = |text: &str| doc.to_json().replacen(&CURSOR_MARK.to_string(), text, 1);
        // A cursor past the bound is refused by name, not saturated.
        let err = EaseMl::restore(&with_cursor("1e300"), toy_oracle())
            .err()
            .expect("a cursor of 1e300 must be rejected");
        assert!(err.contains("picker.rr_cursor"), "{err}");
        let top = with_cursor("8999999999999999");
        let mut restored = EaseMl::restore(&top, toy_oracle()).unwrap();
        let served: Vec<usize> = (0..4)
            .map(|_| restored.try_run_round().unwrap().user)
            .collect();
        // The largest readable cursor is odd, so tenant 1 goes first.
        assert_eq!(served, [1, 0, 1, 0]);
    }

    #[test]
    fn restore_names_every_field_it_cannot_run_from_without_panicking() {
        let mut s = EaseMl::new(toy_oracle(), 14);
        s.register_user("vision-lab", IMAGE_PROG).unwrap();
        s.register_user("meteo-lab", TS_PROG).unwrap();
        // A quiet injector: the document gets a fault section, and no run
        // fails.
        s.set_fault_injector(Some(FaultInjector::new(FaultConfig::new(7))));
        for _ in 0..5 {
            s.try_run_round().unwrap();
        }
        let doc = CheckpointDoc::from_json(&s.checkpoint()).unwrap();
        assert!(!doc.tenants[0].observations.is_empty());
        // JSON has no +inf, so a field set to it is written as text: `1e400`
        // parses, and overflows to +inf.
        const MARK: f64 = 0.123_456_789;
        let frozen_at_patience = format!(
            "picker.frozen_rounds = {0} must stay below picker.patience = {0}",
            doc.picker.patience
        );
        type Edit = Box<dyn Fn(&mut CheckpointDoc)>;
        let edits: Vec<(&str, Edit, &str)> = vec![
            ("noise_var", Box::new(|c| c.noise_var = 0.0), ""),
            ("noise_var", Box::new(|c| c.noise_var = -1.0), ""),
            ("delta", Box::new(|c| c.delta = 0.0), ""),
            ("delta", Box::new(|c| c.delta = 2.0), ""),
            (
                "tenants[0].observations[0]",
                Box::new(|c| c.tenants[0].observations[0].1 = MARK),
                "1e400",
            ),
            ("clock", Box::new(|c| c.clock = MARK), "1e400"),
            ("clock", Box::new(|c| c.clock = -1.0), ""),
            (
                "tenants[0].cost",
                Box::new(|c| c.tenants[0].cost = MARK),
                "1e400",
            ),
            (
                "tenants[0].cost",
                Box::new(|c| c.tenants[0].cost = -1.0),
                "",
            ),
            (
                "tenants[0].failed",
                Box::new(|c| c.tenants[0].failed = usize::MAX),
                "",
            ),
            // Each count is readable, but `/status` would sum them past the
            // bound.
            (
                "tenants[1].failed",
                Box::new(|c| {
                    c.tenants[0].failed = 5_000_000_000_000_000;
                    c.tenants[1].failed = 5_000_000_000_000_000;
                }),
                "",
            ),
            (
                "retry_releases[0]",
                Box::new(|c| c.retry_releases.push((5, 7, 0))),
                "",
            ),
            // An unswitched picker whose next round is frozen (the candidate
            // set after round 6 is [0] and nothing beats the best sum), with
            // its freeze count saturated: past the integer bound, the parser
            // refuses it.
            (
                "picker.frozen_rounds",
                Box::new(|c| {
                    c.picker.switched = false;
                    c.picker.prev_candidates = vec![0];
                    c.picker.prev_best_sum = 1e300;
                    c.picker.frozen_rounds = u64::MAX;
                }),
                "",
            ),
            // A readable freeze count that an unswitched picker never holds:
            // only the restore check refuses it.
            (
                &frozen_at_patience,
                Box::new(|c| {
                    c.picker.switched = false;
                    c.picker.frozen_rounds = c.picker.patience;
                }),
                "",
            ),
            // Counters the first round adds to: past the integer bound they
            // would overflow.
            ("step", Box::new(|c| c.step = u64::MAX), ""),
            ("rounds", Box::new(|c| c.rounds = u64::MAX), ""),
            // The shared fault section. Were every run to time out, an ∞
            // deadline would bill nothing and the clock would stall.
            (
                "fault.timeout_factor",
                Box::new(|c| c.fault.as_mut().unwrap().timeout_factor = MARK),
                "1e400",
            ),
            (
                "fault.timeout_factor",
                Box::new(|c| c.fault.as_mut().unwrap().timeout_factor = 0.0),
                "",
            ),
            (
                "fault.straggler_factor",
                Box::new(|c| c.fault.as_mut().unwrap().straggler_factor = MARK),
                "1e400",
            ),
            (
                "fault.straggler_factor",
                Box::new(|c| c.fault.as_mut().unwrap().straggler_factor = -1.0),
                "",
            ),
            (
                "fault.crash_cost_fraction",
                Box::new(|c| c.fault.as_mut().unwrap().crash_cost_fraction = 1.5),
                "",
            ),
            (
                "fault.rates",
                Box::new(|c| c.fault.as_mut().unwrap().rates[1] = 2.0),
                "",
            ),
            (
                "fault.rates",
                Box::new(|c| c.fault.as_mut().unwrap().rates[0] = -0.5),
                "",
            ),
            (
                "fault.user_overrides[0]",
                Box::new(|c| {
                    let f = c.fault.as_mut().unwrap();
                    f.user_overrides.push((1, [0.0, 0.0, 1.5, 0.0]));
                }),
                "",
            ),
            (
                "fault.arm_overrides[0]",
                Box::new(|c| {
                    let f = c.fault.as_mut().unwrap();
                    f.arm_overrides.push((0, [0.0, 0.0, 0.0, MARK]));
                }),
                "1e400",
            ),
            (
                "fault.seed",
                Box::new(|c| c.fault.as_mut().unwrap().seed = "-1".into()),
                "",
            ),
        ];
        for (field, edit, mark_text) in edits {
            let mut bad = doc.clone();
            edit(&mut bad);
            let mut json = bad.to_json();
            if !mark_text.is_empty() {
                json = json.replacen(&MARK.to_string(), mark_text, 1);
            }
            // Some bad fields only panic in the first round after restore.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match EaseMl::restore(&json, toy_oracle()) {
                    Ok(mut restored) => {
                        let _ = restored.try_run_round();
                        None
                    }
                    Err(err) => Some(err),
                }
            }));
            match outcome {
                Ok(Some(err)) => assert!(err.contains(field), "{field}: {err}"),
                Ok(None) => panic!("{field}: restore accepted the edit"),
                Err(_) => panic!("{field}: restore or the next round panicked"),
            }
        }
        let mut restored = EaseMl::restore(&doc.to_json(), toy_oracle()).unwrap();
        assert_eq!(restored.state_digest(), s.state_digest());
        restored.try_run_round().unwrap();
    }

    #[test]
    fn checkpoint_restore_checkpoint_is_a_fixpoint() {
        let mut s = EaseMl::new(toy_oracle(), 8);
        s.register_user("vision-lab", IMAGE_PROG).unwrap();
        s.register_user("meteo-lab", TS_PROG).unwrap();
        let config = FaultConfig::new(31)
            .with_crash_rate(0.2)
            .with_timeout_rate(0.1)
            .with_stragglers(0.2, 2.5);
        s.set_fault_injector(Some(FaultInjector::new(config)));
        let mut checked = 0;
        for round in 0..120 {
            if round == 40 {
                s.retire_tenant(0);
            }
            if round == 70 {
                s.register_user("vision-late", IMAGE_PROG).unwrap();
            }
            s.try_run_round().unwrap();
            if round % 10 == 0 {
                let json = s.checkpoint();
                let restored = EaseMl::restore(&json, toy_oracle()).unwrap();
                // Restore derives the witness round count from `rounds`; a
                // second checkpoint must read back every byte.
                assert_eq!(restored.checkpoint(), json, "round {round}");
                // The restored roster's columns equal a recomputation from
                // its tenants, and its live set is the original's.
                if let Err(stale) = restored.tenants.check_columns() {
                    panic!("round {round}: {stale}");
                }
                assert!(
                    restored.tenants.live_ids().eq(s.tenants.live_ids()),
                    "round {round}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 12);
        assert!(s.status_snapshot().failed_runs > 0, "faults fired");
        assert!(!s.is_tenant_active(0));
    }
}
