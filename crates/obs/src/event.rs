//! The structured event vocabulary of the instrumentation layer.

use crate::json::{
    self, as_f64_or_nan, get, get_bool, get_f64_or_nan, get_or, get_str, get_u64, get_usize,
    parse_array, Json,
};
use serde::Serialize;

/// Version of the trace schema emitted by [`Event::to_json`].
///
/// Bumped whenever an event variant gains, loses, or retypes a field.
/// [`Event::from_json`] stays backward compatible within a major paper-repro
/// line by defaulting additive fields (`parent`, `mean`, `sigma`, `cond`)
/// when they are absent, so version-1 traces still parse. Version 3 adds
/// the fault-tolerance vocabulary ([`Event::TrainingFailed`],
/// [`Event::RetryScheduled`], [`Event::ArmQuarantined`],
/// [`Event::CheckpointWritten`]); earlier versions simply never emitted
/// those variants, so version-1/2 traces still parse unchanged. Version 4
/// adds the multi-device execution vocabulary ([`Event::RunDispatched`],
/// [`Event::RunFinished`], [`Event::DeviceIdle`]) — again purely additive,
/// so version-1/2/3 traces still parse unchanged. Version 5 adds the
/// decision-provenance vocabulary ([`Event::UserScored`],
/// [`Event::ArmScored`], [`Event::DecisionWitness`]): per-round witnesses
/// of *why* each scheduling decision won, plus a rolling trajectory digest
/// for differential replay — also purely additive. Version 6 adds the
/// open-loop workload vocabulary ([`Event::TenantJoined`],
/// [`Event::TenantRetired`], [`Event::JobArrived`]): tenant churn and
/// externally-timed job arrivals, so offline tooling can reconstruct
/// queueing delay and per-tenant lifetimes — once more purely additive.
pub const TRACE_SCHEMA_VERSION: u32 = 6;

/// A structured observation emitted by an instrumented component.
///
/// Events capture the *decisions* of the system — who was scheduled, which
/// arm a tenant pulled, when the hybrid scheduler fell back to round robin —
/// rather than raw log lines, so traces can be joined, replayed, and
/// asserted on. Every variant serializes to one self-describing JSON object
/// (`{"VariantName": {fields...}}`) and parses back via [`Event::from_json`].
///
/// Since schema version 2 every causal event carries a `parent` span id
/// (`0` = not inside any span) linking it into the span tree recorded by
/// [`SpanStart`](Event::SpanStart) / [`SpanEnd`](Event::SpanEnd), so offline
/// tooling can reconstruct *why* an event happened, not just *that* it did.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Event {
    /// The user-picking phase chose a tenant to serve this round.
    SchedulerDecision {
        /// Global scheduling round (0-based).
        round: u64,
        /// Index of the tenant chosen to be served.
        user: usize,
        /// Canonical name of the picking strategy (e.g. `"greedy(max-gap)"`,
        /// `"hybrid"`, `"round-robin"`); matches
        /// `UserPicker::name` / `SchedulerKind::name`.
        rule: String,
        /// Per-tenant scores the decision was based on, indexed by tenant.
        /// Empty for strategies that do not score (FCFS, round robin).
        scores: Vec<f64>,
        /// Id of the span this decision happened under (0 = none).
        parent: u64,
    },
    /// The model-picking phase chose an arm for the served tenant.
    ArmChosen {
        /// Index of the tenant whose policy ran.
        user: usize,
        /// Index of the chosen arm (model).
        arm: usize,
        /// The winning arm's upper confidence bound.
        ucb: f64,
        /// The βₜ₊₁ exploration coefficient used for the bound.
        beta: f64,
        /// The cost the bound was scaled by (1 when cost-oblivious).
        cost: f64,
        /// Posterior mean of the chosen arm at decision time.
        mean: f64,
        /// Posterior standard deviation of the chosen arm at decision time.
        /// Together with `mean` this lets offline tooling score the GP's
        /// calibration against the realized quality.
        sigma: f64,
        /// Id of the span this choice happened under (0 = none).
        parent: u64,
    },
    /// The hybrid scheduler permanently switched from greedy to round robin.
    HybridFallback {
        /// Human-readable account of what triggered the switch.
        reason: String,
        /// Id of the span the fallback happened under (0 = none).
        parent: u64,
    },
    /// A training run finished on the cluster.
    TrainingCompleted {
        /// Index of the tenant the run belonged to.
        user: usize,
        /// Index of the trained model.
        model: usize,
        /// Cost charged for the run (GPU-hours in the simulations).
        cost: f64,
        /// Observed quality (accuracy) of the trained model.
        quality: f64,
        /// Id of the span the run completed under (0 = none).
        parent: u64,
    },
    /// A tenant's GP posterior absorbed a new observation.
    PosteriorUpdated {
        /// Index of the observed arm.
        arm: usize,
        /// The reward the posterior was updated with.
        reward: f64,
        /// Total observations in the posterior after the update.
        num_obs: usize,
        /// Cheap condition-number estimate of the posterior's Cholesky
        /// factor after the update (`(max Lᵢᵢ / min Lᵢᵢ)²`; 1 when empty).
        /// A growing value warns of numerical degradation before it bites.
        cond: f64,
        /// Id of the span the update happened under (0 = none).
        parent: u64,
    },
    /// A named span opened: one node of the causal tree covering a stretch
    /// of wall-clock work (e.g. `scheduler_step`, `pick_arm`, `train`).
    SpanStart {
        /// Unique id of this span within the process (1-based).
        span: u64,
        /// Id of the enclosing span (0 = a root span).
        parent: u64,
        /// Span name; one of the fixed hot-path stage names.
        name: String,
        /// Wall-clock nanoseconds since the process trace epoch.
        ts_ns: u64,
    },
    /// The matching close of a [`SpanStart`](Event::SpanStart).
    SpanEnd {
        /// Id of the span being closed.
        span: u64,
        /// Wall-clock nanoseconds since the process trace epoch.
        ts_ns: u64,
    },
    /// A training run failed: the consumed cost is charged to the cluster
    /// clock and the tenant, but no quality observation enters the GP
    /// posterior (a *censored* observation, so the Theorem 1 regret
    /// decomposition stays consistent).
    TrainingFailed {
        /// Index of the tenant the failed run belonged to.
        user: usize,
        /// Index of the model whose training failed.
        model: usize,
        /// Cost charged for the failed run (partial progress plus any
        /// retry-backoff charge); may be zero when nothing was consumed.
        cost: f64,
        /// Failure taxonomy kind: `"crash"`, `"timeout"`, or
        /// `"invalid-quality"`.
        kind: String,
        /// 1-based attempt number within the scheduling round.
        attempt: u64,
        /// Id of the span the failure was detected under (0 = none).
        parent: u64,
    },
    /// A failed training run will be retried within the same scheduling
    /// round after a simulated-cost backoff.
    RetryScheduled {
        /// Index of the tenant being retried.
        user: usize,
        /// Index of the model that failed.
        model: usize,
        /// 1-based attempt number that just failed; the retry is attempt
        /// `attempt + 1`.
        attempt: u64,
        /// Simulated-cost backoff charged before the retry runs.
        backoff_cost: f64,
        /// Id of the span the retry was scheduled under (0 = none).
        parent: u64,
    },
    /// An arm accumulated enough consecutive failures to be quarantined:
    /// it is masked out of the tenant's GP-UCB argmax until probation
    /// re-entry.
    ArmQuarantined {
        /// Index of the tenant whose arm was quarantined.
        user: usize,
        /// Index of the quarantined model.
        model: usize,
        /// Consecutive failures that triggered the quarantine.
        failures: u64,
        /// Scheduling rounds until the arm re-enters on probation.
        probation_rounds: u64,
        /// Id of the span the quarantine happened under (0 = none).
        parent: u64,
    },
    /// A crash-safe checkpoint of the whole server was serialized.
    CheckpointWritten {
        /// Scheduling rounds executed when the checkpoint was taken.
        rounds: u64,
        /// Registered users covered by the checkpoint.
        users: u64,
        /// Size of the serialized checkpoint in bytes.
        bytes: u64,
        /// Id of the span the checkpoint was written under (0 = none).
        parent: u64,
    },
    /// A Cholesky factorization only succeeded after adding diagonal jitter.
    JitterRetry {
        /// How many escalating jitter attempts ran (≥ 1).
        attempts: u64,
        /// The diagonal jitter that finally produced a valid factor.
        jitter: f64,
        /// Id of the span the retry happened under (0 = none).
        parent: u64,
    },
    /// The multi-device executor handed a training run to a device while
    /// earlier runs may still be in flight (GP-BUCB delayed feedback).
    RunDispatched {
        /// Index of the tenant the run belongs to.
        user: usize,
        /// Index of the model being trained.
        model: usize,
        /// Index of the device the run was placed on.
        device: usize,
        /// Cost that will be charged for the run (before any speed scaling).
        cost: f64,
        /// Simulated clock at dispatch time.
        at: f64,
        /// Id of the span the dispatch happened under (0 = none).
        parent: u64,
    },
    /// A dispatched run left its device — either completing (`ok = true`,
    /// followed by a [`TrainingCompleted`](Event::TrainingCompleted)) or
    /// censored by a fault (`ok = false`, followed by a
    /// [`TrainingFailed`](Event::TrainingFailed)).
    RunFinished {
        /// Index of the tenant the run belonged to.
        user: usize,
        /// Index of the trained model.
        model: usize,
        /// Index of the device the run occupied.
        device: usize,
        /// Simulated clock when the device was freed.
        at: f64,
        /// Whether the run produced a usable quality observation.
        ok: bool,
        /// Id of the span the completion happened under (0 = none).
        parent: u64,
    },
    /// A fully idle device received work after sitting empty: `idle` is the
    /// length of the gap, the executor's queueing-delay sample.
    DeviceIdle {
        /// Index of the device that was idle.
        device: usize,
        /// Length of the idle gap in simulated cost units.
        idle: f64,
        /// Simulated clock when the gap ended (the dispatch time).
        at: f64,
        /// Id of the span the observation happened under (0 = none).
        parent: u64,
    },
    /// An empirical kernel matrix was projected onto the PSD cone.
    PsdProjectionApplied {
        /// The eigenvalue floor negative eigenvalues were clipped to.
        floor: f64,
        /// How many eigenvalues were clipped.
        clipped: u64,
        /// Total eigenvalue mass removed by clipping (sum of
        /// `floor − λ` over clipped eigenvalues; ≥ 0).
        clipped_mass: f64,
        /// Id of the span the projection happened under (0 = none).
        parent: u64,
    },
    /// One of the top-K candidate users of a round's pick decision, with
    /// the expected-regret-reduction score the picker ranked it on
    /// (schema v5; part of the round's decision witness).
    UserScored {
        /// Global scheduling round the score belongs to (0-based).
        round: u64,
        /// Index of the scored tenant.
        user: usize,
        /// The picker's score for this tenant (UCB gap or σ̃, per rule).
        score: f64,
        /// Rank among the round's scored users (0 = best score).
        rank: u64,
        /// Whether the tenant was in the candidate set `V_t`.
        candidate: bool,
        /// Id of the span the score was captured under (0 = none).
        parent: u64,
    },
    /// One of the top-K candidate arms of a round's model selection, with
    /// the posterior statistics the acquisition scored it on (schema v5;
    /// part of the round's decision witness).
    ArmScored {
        /// Global scheduling round the score belongs to (0-based).
        round: u64,
        /// Index of the tenant whose policy scored the arm.
        user: usize,
        /// Index of the scored arm (model).
        arm: usize,
        /// Posterior mean at selection time.
        mean: f64,
        /// Posterior standard deviation at selection time.
        sigma: f64,
        /// The (cost-scaled) upper confidence bound the arm was ranked on.
        ucb: f64,
        /// Rank among the round's scored arms (0 = best acquisition).
        rank: u64,
        /// Whether the arm was quarantine-masked out of the argmax.
        masked: bool,
        /// Id of the span the score was captured under (0 = none).
        parent: u64,
    },
    /// The per-round decision witness (schema v5): margins, tie-break path,
    /// fallback state, and the rolling trajectory digest. Emitted *after*
    /// the round's [`UserScored`](Event::UserScored) /
    /// [`ArmScored`](Event::ArmScored) events as the commit marker — readers
    /// that only surface rounds carrying a `DecisionWitness` never observe
    /// a torn (half-emitted) witness chain.
    DecisionWitness {
        /// Global scheduling round (0-based).
        round: u64,
        /// Index of the tenant served this round.
        user: usize,
        /// Index of the arm (model) trained this round.
        arm: usize,
        /// Winner's user score minus the runner-up's (NaN when fewer than
        /// two users were scored, e.g. warm-up or round-robin rounds).
        user_margin: f64,
        /// Winning arm's acquisition minus the runner-up's (NaN when the
        /// tenant has a single arm).
        arm_margin: f64,
        /// The decision path taken, e.g. `"greedy(max-gap)"`, `"warm-up"`,
        /// `"hybrid:rr-after-switch"`.
        path: String,
        /// Why the round deviated from the happy path: the censoring fault
        /// kind, a fallback reason, or `""` when nothing fired.
        fallback: String,
        /// Whether the round was censored (charged but unobserved).
        censored: bool,
        /// Size of the candidate set `V_t` the pick ranked (0 when the
        /// picker is not candidate-driven).
        candidates: u64,
        /// Rolling FNV-1a digest (16 hex digits) of the trajectory up to
        /// and including this round: equal digests at round `r` certify
        /// bit-identical decisions and outcomes for every round `≤ r`,
        /// which is what lets differential replay binary-search the first
        /// divergent round.
        digest: String,
        /// Id of the span the witness was emitted under (0 = none).
        parent: u64,
    },
    /// A tenant joined the shared service mid-run (schema v6): its slot,
    /// display name, and candidate-model count, stamped with the simulated
    /// clock (the serial simulator stamps its round count).
    TenantJoined {
        /// Index (slot) the tenant was registered under.
        user: usize,
        /// Human-readable tenant name from the workload model.
        name: String,
        /// Number of candidate models the tenant's program declares.
        models: u64,
        /// Simulated clock (or round count) at the join.
        at: f64,
        /// Id of the span the join happened under (0 = none).
        parent: u64,
    },
    /// A tenant left the shared service (schema v6). Its slot and GP state
    /// are kept — only its picker visibility ends — so `serves` records the
    /// service it consumed over its lifetime.
    TenantRetired {
        /// Index (slot) of the retired tenant.
        user: usize,
        /// Total times the tenant was served before retiring.
        serves: u64,
        /// Simulated clock (or round count) at the retirement.
        at: f64,
        /// Id of the span the retirement happened under (0 = none).
        parent: u64,
    },
    /// An open-loop job arrival (schema v6): tenant `user` asked for one
    /// more unit of service at simulated time `at`, independent of device
    /// availability. The FIFO gap to the matching
    /// [`RunDispatched`](Event::RunDispatched) is the job's queueing delay.
    JobArrived {
        /// Index of the tenant the job belongs to.
        user: usize,
        /// Monotone arrival sequence number within the workload (0-based).
        seq: u64,
        /// Simulated clock of the arrival.
        at: f64,
        /// Id of the span the arrival was recorded under (0 = none).
        parent: u64,
    },
}

impl Event {
    /// The variant name, as it appears as the JSON object key.
    pub fn name(&self) -> &'static str {
        match self {
            Event::SchedulerDecision { .. } => "SchedulerDecision",
            Event::ArmChosen { .. } => "ArmChosen",
            Event::HybridFallback { .. } => "HybridFallback",
            Event::TrainingCompleted { .. } => "TrainingCompleted",
            Event::PosteriorUpdated { .. } => "PosteriorUpdated",
            Event::TrainingFailed { .. } => "TrainingFailed",
            Event::RetryScheduled { .. } => "RetryScheduled",
            Event::ArmQuarantined { .. } => "ArmQuarantined",
            Event::CheckpointWritten { .. } => "CheckpointWritten",
            Event::RunDispatched { .. } => "RunDispatched",
            Event::RunFinished { .. } => "RunFinished",
            Event::DeviceIdle { .. } => "DeviceIdle",
            Event::SpanStart { .. } => "SpanStart",
            Event::SpanEnd { .. } => "SpanEnd",
            Event::JitterRetry { .. } => "JitterRetry",
            Event::PsdProjectionApplied { .. } => "PsdProjectionApplied",
            Event::UserScored { .. } => "UserScored",
            Event::ArmScored { .. } => "ArmScored",
            Event::DecisionWitness { .. } => "DecisionWitness",
            Event::TenantJoined { .. } => "TenantJoined",
            Event::TenantRetired { .. } => "TenantRetired",
            Event::JobArrived { .. } => "JobArrived",
        }
    }

    /// The tenant the event concerns, when it concerns one.
    pub fn user(&self) -> Option<usize> {
        match self {
            Event::SchedulerDecision { user, .. }
            | Event::ArmChosen { user, .. }
            | Event::TrainingCompleted { user, .. }
            | Event::TrainingFailed { user, .. }
            | Event::RetryScheduled { user, .. }
            | Event::ArmQuarantined { user, .. }
            | Event::RunDispatched { user, .. }
            | Event::RunFinished { user, .. }
            | Event::UserScored { user, .. }
            | Event::ArmScored { user, .. }
            | Event::DecisionWitness { user, .. }
            | Event::TenantJoined { user, .. }
            | Event::TenantRetired { user, .. }
            | Event::JobArrived { user, .. } => Some(*user),
            Event::HybridFallback { .. }
            | Event::PosteriorUpdated { .. }
            | Event::CheckpointWritten { .. }
            | Event::DeviceIdle { .. }
            | Event::SpanStart { .. }
            | Event::SpanEnd { .. }
            | Event::JitterRetry { .. }
            | Event::PsdProjectionApplied { .. } => None,
        }
    }

    /// The span this event is causally attached to (0 = none / root).
    ///
    /// For [`SpanStart`](Event::SpanStart) this is the *enclosing* span;
    /// [`SpanEnd`](Event::SpanEnd) closes its own span and reports that id's
    /// parent as unknown (0) — reconstruct it from the matching start.
    pub fn parent(&self) -> u64 {
        match self {
            Event::SchedulerDecision { parent, .. }
            | Event::ArmChosen { parent, .. }
            | Event::HybridFallback { parent, .. }
            | Event::TrainingCompleted { parent, .. }
            | Event::TrainingFailed { parent, .. }
            | Event::RetryScheduled { parent, .. }
            | Event::ArmQuarantined { parent, .. }
            | Event::CheckpointWritten { parent, .. }
            | Event::RunDispatched { parent, .. }
            | Event::RunFinished { parent, .. }
            | Event::DeviceIdle { parent, .. }
            | Event::PosteriorUpdated { parent, .. }
            | Event::SpanStart { parent, .. }
            | Event::JitterRetry { parent, .. }
            | Event::PsdProjectionApplied { parent, .. }
            | Event::UserScored { parent, .. }
            | Event::ArmScored { parent, .. }
            | Event::DecisionWitness { parent, .. }
            | Event::TenantJoined { parent, .. }
            | Event::TenantRetired { parent, .. }
            | Event::JobArrived { parent, .. } => *parent,
            Event::SpanEnd { .. } => 0,
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parses an event back from the JSON produced by [`Event::to_json`].
    ///
    /// Fields added in schema version 2 (`parent`, `mean`, `sigma`, `cond`)
    /// default to `0` / `NaN` when absent, so version-1 traces still load.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or structural problem:
    /// malformed JSON, an unknown variant, or a missing/mistyped field.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let value = json::parse(line)?;
        let Json::Object(entries) = value else {
            return Err(format!("expected a JSON object, got {value:?}"));
        };
        let [(variant, Json::Object(fields))] = entries.as_slice() else {
            return Err("expected exactly one {variant: {fields}} entry".into());
        };
        match variant.as_str() {
            "SchedulerDecision" => Ok(Event::SchedulerDecision {
                round: get_u64(fields, "round")?,
                user: get_usize(fields, "user")?,
                rule: get_str(fields, "rule")?,
                scores: parse_array(get(fields, "scores")?, "scores", as_f64_or_nan)?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "ArmChosen" => Ok(Event::ArmChosen {
                user: get_usize(fields, "user")?,
                arm: get_usize(fields, "arm")?,
                ucb: get_f64_or_nan(fields, "ucb")?,
                beta: get_f64_or_nan(fields, "beta")?,
                cost: get_f64_or_nan(fields, "cost")?,
                mean: get_or(fields, "mean", f64::NAN, get_f64_or_nan)?,
                sigma: get_or(fields, "sigma", f64::NAN, get_f64_or_nan)?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "HybridFallback" => Ok(Event::HybridFallback {
                reason: get_str(fields, "reason")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "TrainingCompleted" => Ok(Event::TrainingCompleted {
                user: get_usize(fields, "user")?,
                model: get_usize(fields, "model")?,
                cost: get_f64_or_nan(fields, "cost")?,
                quality: get_f64_or_nan(fields, "quality")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "TrainingFailed" => Ok(Event::TrainingFailed {
                user: get_usize(fields, "user")?,
                model: get_usize(fields, "model")?,
                cost: get_f64_or_nan(fields, "cost")?,
                kind: get_str(fields, "kind")?,
                attempt: get_or(fields, "attempt", 1, get_u64)?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "RetryScheduled" => Ok(Event::RetryScheduled {
                user: get_usize(fields, "user")?,
                model: get_usize(fields, "model")?,
                attempt: get_u64(fields, "attempt")?,
                backoff_cost: get_f64_or_nan(fields, "backoff_cost")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "ArmQuarantined" => Ok(Event::ArmQuarantined {
                user: get_usize(fields, "user")?,
                model: get_usize(fields, "model")?,
                failures: get_u64(fields, "failures")?,
                probation_rounds: get_u64(fields, "probation_rounds")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "CheckpointWritten" => Ok(Event::CheckpointWritten {
                rounds: get_u64(fields, "rounds")?,
                users: get_u64(fields, "users")?,
                bytes: get_u64(fields, "bytes")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "RunDispatched" => Ok(Event::RunDispatched {
                user: get_usize(fields, "user")?,
                model: get_usize(fields, "model")?,
                device: get_usize(fields, "device")?,
                cost: get_f64_or_nan(fields, "cost")?,
                at: get_f64_or_nan(fields, "at")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "RunFinished" => Ok(Event::RunFinished {
                user: get_usize(fields, "user")?,
                model: get_usize(fields, "model")?,
                device: get_usize(fields, "device")?,
                at: get_f64_or_nan(fields, "at")?,
                ok: get_bool(fields, "ok")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "DeviceIdle" => Ok(Event::DeviceIdle {
                device: get_usize(fields, "device")?,
                idle: get_f64_or_nan(fields, "idle")?,
                at: get_f64_or_nan(fields, "at")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "PosteriorUpdated" => Ok(Event::PosteriorUpdated {
                arm: get_usize(fields, "arm")?,
                reward: get_f64_or_nan(fields, "reward")?,
                num_obs: get_usize(fields, "num_obs")?,
                cond: get_or(fields, "cond", f64::NAN, get_f64_or_nan)?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "SpanStart" => Ok(Event::SpanStart {
                span: get_u64(fields, "span")?,
                parent: get_u64(fields, "parent")?,
                name: get_str(fields, "name")?,
                ts_ns: get_u64(fields, "ts_ns")?,
            }),
            "SpanEnd" => Ok(Event::SpanEnd {
                span: get_u64(fields, "span")?,
                ts_ns: get_u64(fields, "ts_ns")?,
            }),
            "JitterRetry" => Ok(Event::JitterRetry {
                attempts: get_u64(fields, "attempts")?,
                jitter: get_f64_or_nan(fields, "jitter")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "PsdProjectionApplied" => Ok(Event::PsdProjectionApplied {
                floor: get_f64_or_nan(fields, "floor")?,
                clipped: get_u64(fields, "clipped")?,
                clipped_mass: get_f64_or_nan(fields, "clipped_mass")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "UserScored" => Ok(Event::UserScored {
                round: get_u64(fields, "round")?,
                user: get_usize(fields, "user")?,
                score: get_f64_or_nan(fields, "score")?,
                rank: get_u64(fields, "rank")?,
                candidate: get_bool(fields, "candidate")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "ArmScored" => Ok(Event::ArmScored {
                round: get_u64(fields, "round")?,
                user: get_usize(fields, "user")?,
                arm: get_usize(fields, "arm")?,
                mean: get_f64_or_nan(fields, "mean")?,
                sigma: get_f64_or_nan(fields, "sigma")?,
                ucb: get_f64_or_nan(fields, "ucb")?,
                rank: get_u64(fields, "rank")?,
                masked: get_bool(fields, "masked")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "DecisionWitness" => Ok(Event::DecisionWitness {
                round: get_u64(fields, "round")?,
                user: get_usize(fields, "user")?,
                arm: get_usize(fields, "arm")?,
                user_margin: get_f64_or_nan(fields, "user_margin")?,
                arm_margin: get_f64_or_nan(fields, "arm_margin")?,
                path: get_str(fields, "path")?,
                fallback: get_str(fields, "fallback")?,
                censored: get_bool(fields, "censored")?,
                candidates: get_u64(fields, "candidates")?,
                digest: get_str(fields, "digest")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "TenantJoined" => Ok(Event::TenantJoined {
                user: get_usize(fields, "user")?,
                name: get_str(fields, "name")?,
                models: get_u64(fields, "models")?,
                at: get_f64_or_nan(fields, "at")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "TenantRetired" => Ok(Event::TenantRetired {
                user: get_usize(fields, "user")?,
                serves: get_u64(fields, "serves")?,
                at: get_f64_or_nan(fields, "at")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            "JobArrived" => Ok(Event::JobArrived {
                user: get_usize(fields, "user")?,
                seq: get_u64(fields, "seq")?,
                at: get_f64_or_nan(fields, "at")?,
                parent: get_or(fields, "parent", 0, get_u64)?,
            }),
            other => Err(format!("unknown event variant {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::SchedulerDecision {
                round: 42,
                user: 3,
                rule: "greedy(max-gap)".into(),
                scores: vec![0.1, 0.25, -0.5, 1.75e-3],
                parent: 9,
            },
            Event::ArmChosen {
                user: 3,
                arm: 7,
                ucb: 0.912,
                beta: 2.77,
                cost: 1.0,
                mean: 0.8,
                sigma: 0.04,
                parent: 10,
            },
            Event::HybridFallback {
                reason: "no \"improvement\" for 10 rounds\nfrozen set {1, 2}".into(),
                parent: 0,
            },
            Event::TrainingCompleted {
                user: 0,
                model: 19,
                cost: 12.5,
                quality: 0.843,
                parent: 11,
            },
            Event::TrainingFailed {
                user: 2,
                model: 5,
                cost: 3.25,
                kind: "crash".into(),
                attempt: 2,
                parent: 11,
            },
            Event::RetryScheduled {
                user: 2,
                model: 5,
                attempt: 3,
                backoff_cost: 0.5,
                parent: 11,
            },
            Event::ArmQuarantined {
                user: 2,
                model: 5,
                failures: 3,
                probation_rounds: 16,
                parent: 11,
            },
            Event::CheckpointWritten {
                rounds: 40,
                users: 4,
                bytes: 8_192,
                parent: 0,
            },
            Event::RunDispatched {
                user: 1,
                model: 8,
                device: 2,
                cost: 4.5,
                at: 17.25,
                parent: 13,
            },
            Event::RunFinished {
                user: 1,
                model: 8,
                device: 2,
                at: 21.75,
                ok: true,
                parent: 13,
            },
            Event::DeviceIdle {
                device: 3,
                idle: 1.5,
                at: 17.25,
                parent: 13,
            },
            Event::PosteriorUpdated {
                arm: 19,
                reward: 0.843,
                num_obs: 11,
                cond: 3.5,
                parent: 12,
            },
            Event::SpanStart {
                span: 9,
                parent: 0,
                name: "scheduler_step".into(),
                ts_ns: 12_345,
            },
            Event::SpanEnd {
                span: 9,
                ts_ns: 99_999,
            },
            Event::JitterRetry {
                attempts: 3,
                jitter: 1e-8,
                parent: 12,
            },
            Event::PsdProjectionApplied {
                floor: 1e-9,
                clipped: 2,
                clipped_mass: 0.031,
                parent: 0,
            },
            Event::UserScored {
                round: 42,
                user: 3,
                score: 0.177,
                rank: 0,
                candidate: true,
                parent: 9,
            },
            Event::ArmScored {
                round: 42,
                user: 3,
                arm: 7,
                mean: 0.8,
                sigma: 0.04,
                ucb: 0.912,
                rank: 0,
                masked: false,
                parent: 9,
            },
            Event::DecisionWitness {
                round: 42,
                user: 3,
                arm: 7,
                user_margin: 0.012,
                arm_margin: 0.033,
                path: "hybrid:greedy(max-gap)".into(),
                fallback: String::new(),
                censored: false,
                candidates: 2,
                digest: "cbf29ce484222325".into(),
                parent: 9,
            },
            Event::TenantJoined {
                user: 4,
                name: "tenant-d".into(),
                models: 8,
                at: 33.5,
                parent: 14,
            },
            Event::TenantRetired {
                user: 2,
                serves: 27,
                at: 41.0,
                parent: 14,
            },
            Event::JobArrived {
                user: 4,
                seq: 112,
                at: 34.75,
                parent: 0,
            },
        ]
    }

    #[test]
    fn json_round_trips_every_variant() {
        for event in samples() {
            let line = event.to_json();
            let back = Event::from_json(&line).unwrap();
            assert_eq!(back, event, "round-trip failed for {line}");
        }
    }

    #[test]
    fn json_shape_is_one_object_per_event() {
        let line = samples()[0].to_json();
        assert!(line.starts_with("{\"SchedulerDecision\":{"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Event::from_json("not json").is_err());
        assert!(Event::from_json("{\"Nope\":{}}").is_err());
        assert!(Event::from_json("{\"ArmChosen\":{\"user\":1}}").is_err());
        assert!(Event::from_json("[1,2]").is_err());
        // Span events were introduced with their fields; they have no
        // pre-v2 form to default from.
        assert!(Event::from_json("{\"SpanStart\":{\"span\":1}}").is_err());
    }

    #[test]
    fn schema_v1_lines_parse_with_defaults() {
        // Exact serializations produced before the span/calibration fields
        // existed: the additive fields must default instead of erroring.
        let v1_decision = "{\"SchedulerDecision\":{\"round\":42,\"user\":3,\
                           \"rule\":\"hybrid\",\"scores\":[0.5,0.25]}}";
        match Event::from_json(v1_decision).unwrap() {
            Event::SchedulerDecision { round, parent, .. } => {
                assert_eq!(round, 42);
                assert_eq!(parent, 0);
            }
            other => panic!("wrong variant {other:?}"),
        }
        let v1_arm = "{\"ArmChosen\":{\"user\":1,\"arm\":2,\"ucb\":0.9,\
                      \"beta\":2.0,\"cost\":1.0}}";
        match Event::from_json(v1_arm).unwrap() {
            Event::ArmChosen {
                mean,
                sigma,
                parent,
                ..
            } => {
                assert!(mean.is_nan() && sigma.is_nan());
                assert_eq!(parent, 0);
            }
            other => panic!("wrong variant {other:?}"),
        }
        let v1_post = "{\"PosteriorUpdated\":{\"arm\":4,\"reward\":0.7,\"num_obs\":9}}";
        match Event::from_json(v1_post).unwrap() {
            Event::PosteriorUpdated { cond, parent, .. } => {
                assert!(cond.is_nan());
                assert_eq!(parent, 0);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn user_accessor_matches_variants() {
        let events = samples();
        assert_eq!(events[0].user(), Some(3));
        assert_eq!(events[1].user(), Some(3));
        assert_eq!(events[2].user(), None);
        assert_eq!(events[3].user(), Some(0));
        assert_eq!(events[4].user(), Some(2)); // TrainingFailed
        assert_eq!(events[5].user(), Some(2)); // RetryScheduled
        assert_eq!(events[6].user(), Some(2)); // ArmQuarantined
        assert_eq!(events[7].user(), None); // CheckpointWritten
        assert_eq!(events[8].user(), Some(1)); // RunDispatched
        assert_eq!(events[9].user(), Some(1)); // RunFinished
        assert_eq!(events[10].user(), None); // DeviceIdle
        assert_eq!(events[11].user(), None); // PosteriorUpdated
        assert!(events[12..16].iter().all(|e| e.user().is_none()));
        assert_eq!(events[16].user(), Some(3)); // UserScored
        assert_eq!(events[17].user(), Some(3)); // ArmScored
        assert_eq!(events[18].user(), Some(3)); // DecisionWitness
        assert_eq!(events[19].user(), Some(4)); // TenantJoined
        assert_eq!(events[20].user(), Some(2)); // TenantRetired
        assert_eq!(events[21].user(), Some(4)); // JobArrived
    }

    #[test]
    fn parent_accessor_matches_variants() {
        let events = samples();
        let parents: Vec<u64> = events.iter().map(Event::parent).collect();
        assert_eq!(
            parents,
            vec![9, 10, 0, 11, 11, 11, 11, 0, 13, 13, 13, 12, 0, 0, 12, 0, 9, 9, 9, 14, 14, 0]
        );
    }
}
