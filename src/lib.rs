//! Workspace root of the ease.ml reproduction.
//!
//! This crate hosts the runnable examples under `examples/` and the
//! cross-crate integration tests under `tests/`; the actual library surface
//! lives in the member crates and is re-exported here for convenience:
//!
//! * [`easeml`] — the platform, the simulation, the multi-device
//!   discrete-event execution engine ([`easeml::exec`]: heterogeneous
//!   fleets, GP-BUCB delayed-feedback dispatch, in-flight
//!   checkpoint/restore) and the experiment harness;
//! * [`easeml_sched`] — multi-tenant schedulers (round robin, greedy,
//!   hybrid);
//! * [`easeml_bandit`] — single-tenant GP-UCB and baselines;
//! * [`easeml_gp`] — Gaussian-process posteriors and kernels;
//! * [`easeml_data`] — datasets and the Appendix-B generator;
//! * [`easeml_dsl`] — the declarative language and template matcher;
//! * [`easeml_linalg`] — the dense linear-algebra substrate;
//! * [`easeml_obs`] — zero-cost observability (events, histograms, sinks,
//!   regret time series);
//! * [`easeml_obs_http`] — the live telemetry endpoint (`/metrics`,
//!   `/status`, `/trace`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use easeml;
pub use easeml_bandit;
pub use easeml_data;
pub use easeml_dsl;
pub use easeml_gp;
pub use easeml_linalg;
pub use easeml_obs;
pub use easeml_obs_http;
pub use easeml_sched;
