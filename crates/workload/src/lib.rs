//! `easeml-workload` — trace-driven open-loop workloads with tenant churn
//! for the ease.ml reproduction.
//!
//! The simulator and the execution engine it runs on are *closed-loop*:
//! every tenant always has the next job ready, so the system is
//! permanently backlogged and the only question is who gets the next
//! device. Real
//! multi-tenant clusters are *open-loop* — jobs arrive on their own clock,
//! tenants come and go — and quality-of-service questions (queueing delay,
//! per-tenant regret under contention, utilization under diurnal load)
//! only exist in that regime. This crate supplies the missing half:
//!
//! - [`ArrivalProcess`]: seeded Poisson and diurnally-modulated arrival
//!   streams built on the workspace's shared [`easeml_wal::SplitMix64`]
//!   mixer — one `(kind, seed)` pair names one arrival sequence forever;
//! - [`ChurnConfig`] / [`churn_timeline`]: a per-slot tenant lifecycle
//!   model alternating exponential active and absent periods;
//! - [`AzureTraceReader`] / [`HuaweiTraceReader`]: std-only CSV readers
//!   for the public cluster-trace schemas discrete-event simulators
//!   commonly replay, folded onto engine user slots by [`map_jobs`];
//! - [`WorkloadScript`] / [`ReplayDriver`]: a deterministic driver feeding
//!   arrivals and churn through an open-loop
//!   [`ExecEngine`](easeml::exec::ExecEngine), with a
//!   [`ReplayCheckpoint`] wrapper so a mid-replay crash resumes
//!   bit-exactly.
//!
//! Invariant anchoring it to the validated engine: a script with churn
//! disabled whose every tenant is always backlogged replays the classic
//! closed-loop run bit for bit (witness-digest equal) — see this crate's
//! `tests/replay.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod lifecycle;
mod replay;
mod traces;

pub use arrival::{ArrivalKind, ArrivalProcess};
pub use lifecycle::{churn_timeline, ChurnConfig, LifecycleAction};
pub use replay::{
    ReplayCheckpoint, ReplayDriver, WorkloadEvent, WorkloadScript, REPLAY_CHECKPOINT_VERSION,
};
pub use traces::{map_jobs, AzureTraceReader, HuaweiTraceReader, TenantMap, TraceJob, TraceReader};
