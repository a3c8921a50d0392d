//! # ease.ml — multi-tenant model selection, reproduced in Rust
//!
//! This crate is the top of the workspace reproducing *"Ease.ml: Towards
//! Multi-tenant Resource Sharing for Machine Learning Workloads"* (Li,
//! Zhong, Liu, Wu, Zhang — VLDB 2018). It assembles the platform the paper
//! describes in §2 and the evaluation machinery of §5:
//!
//! * [`user`] / [`job`] / [`storage`] — the declarative service layer:
//!   users submit a Figure-2 program, `feed` example pairs into shared
//!   storage, `refine` them, and `infer` with the best model found so far;
//! * [`server`] — [`server::EaseMl`], the façade tying programs, storage
//!   and the scheduler to the simulated GPU pool: ease.ml treats the whole
//!   pool as a single device (§4.5), so training runs execute one at a
//!   time, advancing one simulated clock by the run's cost;
//! * [`sim`] — the trace-driven multi-tenant simulation over a
//!   [`easeml_data::Dataset`] (quality/cost matrix), exactly the protocol
//!   §5 evaluates;
//! * [`exec`] — the multi-device discrete-event execution engine
//!   (heterogeneous fleets, GP-BUCB delayed-feedback dispatch, in-flight
//!   checkpoint/restore), which runs the simulation's GP schedulers at one
//!   unit device;
//! * [`experiment`] — the 50-repetition train/test protocol with empirical
//!   kernels and log-marginal-likelihood hyperparameter tuning
//!   (§5.2, Appendix A);
//! * [`metrics`] / [`report`] — curve aggregation (average and worst-case
//!   accuracy loss), speedup factors, and the table/CSV writers used by the
//!   benchmark harness.
//!
//! ## Quick start
//!
//! ```
//! use easeml::prelude::*;
//!
//! // A small synthetic multi-tenant workload.
//! let dataset = easeml_data::SynConfig {
//!     num_users: 12,
//!     num_models: 6,
//!     ..easeml_data::SynConfig::paper(0.5, 0.5)
//! }
//! .generate(1);
//!
//! // Run ease.ml's HYBRID scheduler and plain round robin for comparison.
//! let cfg = ExperimentConfig {
//!     test_users: 4,
//!     repetitions: 3,
//!     budget: Budget::FractionOfRuns(0.5),
//!     ..ExperimentConfig::default()
//! };
//! let easeml = run_experiment(&dataset, SchedulerKind::EaseMl, &cfg, 7);
//! let rr = run_experiment(&dataset, SchedulerKind::RoundRobin, &cfg, 7);
//! assert_eq!(easeml.mean_curve.len(), rr.mean_curve.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod durability;
pub mod exec;
pub mod experiment;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod report;
pub mod retry;
pub mod server;
pub mod sim;
pub mod storage;
pub mod user;
pub mod witness;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::checkpoint::{
        read_checkpoint_file, write_checkpoint_atomic, CheckpointDoc, CheckpointError,
        CHECKPOINT_VERSION,
    };
    pub use crate::durability::{Durability, RecoveryReport};
    pub use crate::experiment::{run_experiment, Budget, ExperimentConfig, ExperimentResult};
    pub use crate::fault::{FaultConfig, FaultInjector, FaultRates, TrainingError};
    pub use crate::job::{Job, JobStatus};
    pub use crate::metrics::{speedup_factor, AggregatedCurves};
    pub use crate::retry::{RetryPolicy, RetryState};
    pub use crate::server::{
        EaseMl, QualityOracle, RoundError, RoundOutcome, RoundResult, StatusSnapshot,
        TrainingOutcome, UserStatus,
    };
    pub use crate::sim::{
        simulate, simulate_with_recorder, SchedulerKind, SimConfig, SimEvent, SimTrace,
    };
    pub use crate::storage::{Example, SharedStorage};
    pub use crate::user::UserAccount;
    pub use crate::witness::{DecisionLog, RoundWitness, WITNESS_TOP_K};
}

pub use prelude::*;
