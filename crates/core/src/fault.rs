//! Fault injection for the training path.
//!
//! The paper assumes every training run returns a clean (quality, cost)
//! pair; a production multi-tenant service has to survive trainer crashes,
//! stragglers, and NaN results without corrupting the GP posterior or the
//! regret accounting. This module provides the error taxonomy
//! ([`TrainingError`]) the fallible [`QualityOracle`](crate::server::QualityOracle)
//! speaks, plus a deterministic, seeded [`FaultInjector`] that wraps any
//! oracle result with reproducible failures — usable from both the live
//! server ([`EaseMl::set_fault_injector`](crate::server::EaseMl::set_fault_injector))
//! and the simulators ([`SimConfig::fault`](crate::sim::SimConfig)).
//!
//! Determinism matters twice over: seeded chaos runs are replayable bug
//! reports, and the injector's state (per-(user, arm) attempt counters) is
//! small enough to checkpoint, so a restored experiment sees the exact same
//! fault sequence as an uninterrupted one.

use crate::server::TrainingOutcome;
use easeml_wal::splitmix64;
use std::collections::BTreeMap;

/// Why a training run failed. The cost the failed attempt consumed is
/// carried inline so the scheduler can charge it as a censored run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrainingError {
    /// The trainer died partway through, after consuming `cost_consumed`
    /// simulated GPU-hours.
    Crash {
        /// Cost consumed before the crash.
        cost_consumed: f64,
    },
    /// The run exceeded its deadline and was killed; the full deadline's
    /// worth of cost is consumed.
    Timeout {
        /// The deadline (and thus the cost consumed) in simulated hours.
        deadline: f64,
    },
    /// The trainer returned a non-finite quality or cost; nothing usable
    /// can enter the posterior.
    InvalidQuality,
}

impl TrainingError {
    /// A stable lowercase tag for traces and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TrainingError::Crash { .. } => "crash",
            TrainingError::Timeout { .. } => "timeout",
            TrainingError::InvalidQuality => "invalid-quality",
        }
    }

    /// Simulated cost the failed attempt consumed. `InvalidQuality` reports
    /// zero here: the junk outcome's own cost (when finite) is what the
    /// server charges instead.
    pub fn cost_consumed(&self) -> f64 {
        match self {
            TrainingError::Crash { cost_consumed } => *cost_consumed,
            TrainingError::Timeout { deadline } => *deadline,
            TrainingError::InvalidQuality => 0.0,
        }
    }
}

impl std::fmt::Display for TrainingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainingError::Crash { cost_consumed } => {
                write!(f, "trainer crashed after {cost_consumed} simulated hours")
            }
            TrainingError::Timeout { deadline } => {
                write!(f, "trainer exceeded its {deadline}-hour deadline")
            }
            TrainingError::InvalidQuality => write!(f, "trainer returned an unusable quality"),
        }
    }
}

impl std::error::Error for TrainingError {}

/// Failure rates and straggler behaviour for one (user, arm) class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a run crashes partway through.
    pub crash: f64,
    /// Probability a run times out.
    pub timeout: f64,
    /// Probability a run returns a non-finite quality.
    pub invalid: f64,
    /// Probability a surviving run straggles (costs more than budgeted).
    pub straggler: f64,
}

impl FaultRates {
    /// No faults at all.
    pub const NONE: FaultRates = FaultRates {
        crash: 0.0,
        timeout: 0.0,
        invalid: 0.0,
        straggler: 0.0,
    };

    /// The rates as `[crash, timeout, invalid, straggler]`, the form the
    /// checkpoints store.
    pub fn to_array(self) -> [f64; 4] {
        [self.crash, self.timeout, self.invalid, self.straggler]
    }

    /// The inverse of [`FaultRates::to_array`].
    pub fn from_array([crash, timeout, invalid, straggler]: [f64; 4]) -> Self {
        FaultRates {
            crash,
            timeout,
            invalid,
            straggler,
        }
    }
}

/// Seeded fault-injection configuration: base rates, per-user and per-arm
/// overrides, and the straggler cost multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Base failure rates applied to every (user, arm).
    pub rates: FaultRates,
    /// Per-user overrides (a flaky tenant's dataset, say).
    pub user_overrides: BTreeMap<usize, FaultRates>,
    /// Per-arm overrides (one brittle model family).
    pub arm_overrides: BTreeMap<usize, FaultRates>,
    /// Multiplier applied to a straggling run's cost (> 1 slows it down).
    pub straggler_factor: f64,
    /// Fraction of the budgeted cost consumed before a crash is detected.
    pub crash_cost_fraction: f64,
    /// Timeout deadline as a multiple of the budgeted cost.
    pub timeout_factor: f64,
}

impl FaultConfig {
    /// A quiet configuration (no faults) with the given seed; adjust the
    /// public fields to taste.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            rates: FaultRates::NONE,
            user_overrides: BTreeMap::new(),
            arm_overrides: BTreeMap::new(),
            straggler_factor: 3.0,
            crash_cost_fraction: 0.5,
            timeout_factor: 2.0,
        }
    }

    /// Builder: sets the base crash rate.
    pub fn with_crash_rate(mut self, p: f64) -> Self {
        self.rates.crash = p;
        self
    }

    /// Builder: sets the base timeout rate.
    pub fn with_timeout_rate(mut self, p: f64) -> Self {
        self.rates.timeout = p;
        self
    }

    /// Builder: sets the base invalid-quality rate.
    pub fn with_invalid_rate(mut self, p: f64) -> Self {
        self.rates.invalid = p;
        self
    }

    /// Builder: sets the base straggler rate and cost multiplier.
    pub fn with_stragglers(mut self, p: f64, factor: f64) -> Self {
        self.rates.straggler = p;
        self.straggler_factor = factor;
        self
    }

    /// Effective rates for `(user, arm)`: an arm override beats a user
    /// override beats the base rates.
    pub fn rates_for(&self, user: usize, arm: usize) -> FaultRates {
        if let Some(r) = self.arm_overrides.get(&arm) {
            *r
        } else if let Some(r) = self.user_overrides.get(&user) {
            *r
        } else {
            self.rates
        }
    }
}

/// Deterministic, seeded fault injector.
///
/// Wraps a clean oracle outcome in the fault model: each (user, arm)
/// attempt draws from a counter-keyed hash stream (no shared RNG state), so
/// fault decisions depend only on `(seed, user, arm, attempt)` — never on
/// scheduling order — and replay exactly across checkpoint/restore.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    config: FaultConfig,
    /// Attempts made so far per (user, arm) — the only mutable state.
    attempts: BTreeMap<(usize, usize), u64>,
}

impl FaultInjector {
    /// Creates an injector from a configuration.
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            config,
            attempts: BTreeMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Attempt counters, for checkpointing.
    pub fn attempts(&self) -> &BTreeMap<(usize, usize), u64> {
        &self.attempts
    }

    /// Restores the attempt counters from a checkpoint.
    pub fn restore_attempts(&mut self, attempts: BTreeMap<(usize, usize), u64>) {
        self.attempts = attempts;
    }

    /// Number of attempts already made for `(user, arm)`.
    pub fn attempt_count(&self, user: usize, arm: usize) -> u64 {
        self.attempts.get(&(user, arm)).copied().unwrap_or(0)
    }

    /// Advance the attempt counter without drawing a fault — used when a
    /// WAL replay substitutes the logged outcome for a live attempt, so
    /// the fault stream stays aligned for rounds after the replay.
    pub fn note_attempt(&mut self, user: usize, arm: usize) {
        *self.attempts.entry((user, arm)).or_insert(0) += 1;
    }

    /// Applies the fault model to one attempt of training `(user, arm)`
    /// whose clean outcome would be `outcome`.
    ///
    /// Returns the (possibly straggler-inflated) outcome, or the injected
    /// [`TrainingError`]. An injected `InvalidQuality` surfaces as an `Ok`
    /// outcome with a NaN accuracy, exercising the server's own validation
    /// path exactly like a real misbehaving trainer would.
    pub fn apply(
        &mut self,
        user: usize,
        arm: usize,
        outcome: TrainingOutcome,
    ) -> Result<TrainingOutcome, TrainingError> {
        let attempt = {
            let slot = self.attempts.entry((user, arm)).or_insert(0);
            *slot += 1;
            *slot
        };
        let rates = self.config.rates_for(user, arm);
        let u_crash = self.unit(user, arm, attempt, 0);
        if u_crash < rates.crash {
            return Err(TrainingError::Crash {
                cost_consumed: (outcome.cost * self.config.crash_cost_fraction).max(0.0),
            });
        }
        let u_timeout = self.unit(user, arm, attempt, 1);
        if u_timeout < rates.timeout {
            return Err(TrainingError::Timeout {
                deadline: (outcome.cost * self.config.timeout_factor).max(0.0),
            });
        }
        let u_invalid = self.unit(user, arm, attempt, 2);
        if u_invalid < rates.invalid {
            return Ok(TrainingOutcome {
                accuracy: f64::NAN,
                cost: outcome.cost,
            });
        }
        let u_straggle = self.unit(user, arm, attempt, 3);
        if u_straggle < rates.straggler {
            return Ok(TrainingOutcome {
                accuracy: outcome.accuracy,
                cost: outcome.cost * self.config.straggler_factor,
            });
        }
        Ok(outcome)
    }

    /// A uniform draw in [0, 1) keyed by `(seed, user, arm, attempt, salt)`.
    fn unit(&self, user: usize, arm: usize, attempt: u64, salt: u64) -> f64 {
        let mut h = self.config.seed;
        for word in [user as u64, arm as u64, attempt, salt] {
            h = splitmix64(h ^ word.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        // 53 high bits → uniform double in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> TrainingOutcome {
        TrainingOutcome {
            accuracy: 0.8,
            cost: 2.0,
        }
    }

    #[test]
    fn quiet_config_passes_outcomes_through() {
        let mut inj = FaultInjector::new(FaultConfig::new(1));
        for _ in 0..20 {
            assert_eq!(inj.apply(0, 0, outcome()), Ok(outcome()));
        }
    }

    #[test]
    fn fault_stream_is_deterministic_and_order_independent() {
        let config = FaultConfig::new(42)
            .with_crash_rate(0.3)
            .with_timeout_rate(0.2);
        let mut a = FaultInjector::new(config.clone());
        let mut b = FaultInjector::new(config);
        // Same (user, arm) attempt sequence → same results, regardless of
        // how attempts of *other* keys interleave.
        let direct: Vec<_> = (0..30).map(|_| a.apply(1, 2, outcome())).collect();
        let mut interleaved = Vec::new();
        for i in 0..30 {
            let _ = b.apply(0, 0, outcome()); // unrelated traffic
            interleaved.push(b.apply(1, 2, outcome()));
            let _ = b.apply(i % 3, 5, outcome());
        }
        assert_eq!(direct, interleaved);
        assert!(
            direct.iter().any(|r| r.is_err()),
            "30 attempts at 50% combined failure rate must fail sometimes"
        );
    }

    #[test]
    fn rates_govern_failure_frequency() {
        let mut inj = FaultInjector::new(FaultConfig::new(7).with_crash_rate(0.5));
        let crashes = (0..1000)
            .filter(|_| inj.apply(0, 0, outcome()).is_err())
            .count();
        assert!(
            (350..650).contains(&crashes),
            "~500 crashes expected, got {crashes}"
        );
    }

    #[test]
    fn crash_consumes_a_fraction_and_timeout_the_deadline() {
        let mut config = FaultConfig::new(3).with_crash_rate(1.0);
        config.crash_cost_fraction = 0.25;
        let mut inj = FaultInjector::new(config);
        match inj.apply(0, 0, outcome()) {
            Err(TrainingError::Crash { cost_consumed }) => {
                assert!((cost_consumed - 0.5).abs() < 1e-12);
            }
            other => panic!("expected a crash, got {other:?}"),
        }
        let mut config = FaultConfig::new(3).with_timeout_rate(1.0);
        config.timeout_factor = 2.0;
        let mut inj = FaultInjector::new(config);
        match inj.apply(0, 0, outcome()) {
            Err(err @ TrainingError::Timeout { deadline }) => {
                assert!((deadline - 4.0).abs() < 1e-12);
                assert_eq!(err.kind(), "timeout");
                assert!((err.cost_consumed() - 4.0).abs() < 1e-12);
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn invalid_quality_surfaces_as_nan_outcome() {
        let mut inj = FaultInjector::new(FaultConfig::new(5).with_invalid_rate(1.0));
        let out = inj.apply(0, 0, outcome()).unwrap();
        assert!(out.accuracy.is_nan());
        assert_eq!(out.cost, 2.0);
    }

    #[test]
    fn stragglers_inflate_cost_but_keep_quality() {
        let mut inj = FaultInjector::new(FaultConfig::new(5).with_stragglers(1.0, 4.0));
        let out = inj.apply(0, 0, outcome()).unwrap();
        assert_eq!(out.accuracy, 0.8);
        assert!((out.cost - 8.0).abs() < 1e-12);
    }

    #[test]
    fn overrides_beat_base_rates() {
        let mut config = FaultConfig::new(9).with_crash_rate(1.0);
        config.user_overrides.insert(1, FaultRates::NONE);
        config.arm_overrides.insert(2, FaultRates::NONE);
        let mut inj = FaultInjector::new(config);
        assert!(inj.apply(0, 0, outcome()).is_err(), "base rate applies");
        assert!(inj.apply(1, 0, outcome()).is_ok(), "user override applies");
        assert!(inj.apply(0, 2, outcome()).is_ok(), "arm override applies");
    }

    #[test]
    fn attempt_counters_round_trip_through_restore() {
        let config = FaultConfig::new(11).with_crash_rate(0.4);
        let mut full = FaultInjector::new(config.clone());
        let prefix: Vec<_> = (0..10).map(|_| full.apply(0, 1, outcome())).collect();
        let _ = prefix;
        let mid = full.attempts().clone();

        let mut resumed = FaultInjector::new(config);
        resumed.restore_attempts(mid);
        assert_eq!(resumed.attempt_count(0, 1), 10);
        for _ in 0..10 {
            assert_eq!(
                full.apply(0, 1, outcome()),
                resumed.apply(0, 1, outcome()),
                "restored injector must continue the same fault stream"
            );
        }
    }

    #[test]
    fn error_taxonomy_reports_kind_and_cost() {
        let crash = TrainingError::Crash { cost_consumed: 1.5 };
        assert_eq!(crash.kind(), "crash");
        assert_eq!(crash.cost_consumed(), 1.5);
        assert_eq!(TrainingError::InvalidQuality.kind(), "invalid-quality");
        assert_eq!(TrainingError::InvalidQuality.cost_consumed(), 0.0);
        assert!(crash.to_string().contains("crashed"));
    }
}
