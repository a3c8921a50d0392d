//! Multi-device discrete-event execution with delayed feedback — the one
//! GP round kernel.
//!
//! The paper's ease.ml treats the whole GPU pool as one device (§4.5):
//! training runs execute strictly one at a time. This module lifts that
//! restriction with a deterministic discrete-event execution engine, and
//! [`crate::sim::simulate`] runs every GP scheduler on it at one unit
//! device, where it *is* the serial protocol:
//!
//! * a [`Fleet`] of heterogeneous devices (per-device speed factors and job
//!   slots) with exact integral busy/idle accounting — the conservation law
//!   `Σ busy + Σ idle == capacity × makespan` holds for every run;
//! * an event queue keyed on simulated completion time, with dispatch
//!   sequence numbers breaking ties deterministically;
//! * an [`ExecEngine`] dispatcher that keeps the fleet saturated by
//!   selecting arms from each tenant's one GP-UCB posterior, hallucinated
//!   ([`easeml_bandit::GpUcb::hallucinate`]) over the tenant's runs still
//!   in flight, and resolves the true rewards into that posterior in
//!   completion order — the GP-BUCB delayed-feedback regime of Desautels
//!   et al. (JMLR 2014) the paper's §6 points to;
//! * fault-layer integration: a crashed in-flight run frees its device at
//!   censoring time and charges only its partial cost;
//! * [`ExecCheckpoint`] — crash-safe JSON checkpoint/restore of the
//!   in-flight state, bit-identical for deterministic schedulers. The
//!   document stores only what a restore cannot rebuild: one dispatch
//!   counter stands for the sequence number and the picker step, the
//!   completed, censored and witnessed run counts, the initial loss and
//!   each tenant's best are derived, and the HYBRID and fault sections are
//!   the server checkpoint's own ([`crate::checkpoint`]).
//!
//! With one unit-speed single-slot device nothing is ever in flight at a
//! dispatch, so the engine makes the serial protocol's decisions; the
//! test-only `reference` module keeps that serial loop and holds the
//! engine to it bit for bit, so every multi-device result is anchored to
//! the validated single-device model.
//!
//! ```
//! use easeml::exec::simulate_multi_device;
//! use easeml::prelude::*;
//! use easeml_gp::ArmPrior;
//!
//! let dataset = easeml_data::SynConfig {
//!     num_users: 4,
//!     num_models: 3,
//!     ..easeml_data::SynConfig::paper(0.5, 0.5)
//! }
//! .generate(1);
//! let priors: Vec<ArmPrior> =
//!     (0..4).map(|_| ArmPrior::independent(3, 0.05)).collect();
//! let cfg = SimConfig::new(6.0);
//! let serial = simulate_multi_device(&dataset, &priors, SchedulerKind::RoundRobin, &cfg, 1, 7);
//! let fleet4 = simulate_multi_device(&dataset, &priors, SchedulerKind::RoundRobin, &cfg, 4, 7);
//! assert!(fleet4.makespan < serial.makespan, "parallelism shrinks the makespan");
//! ```

mod checkpoint;
mod engine;
mod fleet;
mod queue;
mod recovery;
#[cfg(test)]
mod reference;

pub use checkpoint::{ExecCheckpoint, EXEC_CHECKPOINT_VERSION};
pub use engine::{simulate_multi_device, ExecEngine, ExecTrace};
pub use fleet::{DeviceSpec, Fleet};
pub use recovery::recover_engine;
