//! Multi-tenant model-selection schedulers (paper §4).
//!
//! In the multi-tenant setting, n users share one computational
//! infrastructure: at each global round exactly one user is served, and the
//! served user runs one step of her own (cost-aware) GP-UCB. The scheduler's
//! job is the *user-picking phase* — deciding who is served next — while the
//! *model-picking phase* is delegated to each tenant's [`easeml_bandit::GpUcb`].
//!
//! Implemented user pickers:
//!
//! * [`Fcfs`] — the §4.1 strawman: serve the earliest-arrived user until her
//!   exploration is complete (regret of order T; kept as a baseline);
//! * [`RoundRobin`] — §4.2: serve user `t mod n` (Theorem 2 regret bound);
//! * [`RandomPicker`] — §5.3's RANDOM baseline (round robin with
//!   replacement);
//! * [`Greedy`] — Algorithm 2: maintain *empirical confidence bounds*
//!   `σ̃` per tenant, form the candidate set `V_t` of tenants whose σ̃ is
//!   above average, and pick by a configurable [`greedy::PickRule`]
//!   (the paper's production rule is the maximum gap between the largest
//!   UCB and the best accuracy so far; Theorem 3 regret bound);
//! * [`Hybrid`] — §4.4, ease.ml's default: run GREEDY until it freezes (the
//!   candidate set and the global best accuracy both stop changing for
//!   `s = 10` consecutive rounds), then switch to round-robin.
//!
//! [`Tenant`] holds the per-user bandit plus the Algorithm-2 recurrence
//! state. A [`Roster`] owns the tenants and keeps, by tenant id, the
//! columns every picker reads (a live bitset, σ̃, the max-UCB gap and the
//! best reward), so a steady-state pick folds contiguous `f64`s, never
//! strides the tenants and allocates nothing; [`regret::MultiTenantRegret`]
//! implements the §4.1 cost-aware multi-tenant regret and the "ease.ml
//! regret" variant.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod deadline;
pub mod greedy;
pub mod hybrid;
pub mod picker;
#[cfg(test)]
mod reference;
pub mod regret;
pub mod roster;
pub mod tenant;

pub use deadline::{Deadline, DeadlinePicker};
pub use greedy::{Greedy, PickRule};
pub use hybrid::{Hybrid, HybridState};
pub use picker::{Fcfs, RandomPicker, RoundRobin, UserPicker};
pub use regret::MultiTenantRegret;
pub use roster::{LiveIds, Roster};
pub use tenant::Tenant;
