//! `easeml-trace record` / `replay-diff` — the scheduler-equivalence
//! validator.
//!
//! A [`ReplayScenario`] pins everything a run depends on: workload shape,
//! dataset and RNG seeds, strategy, budget, and fault rates. `record` runs
//! the serial simulator under that scenario with a recorder attached and
//! writes the schema-v5 JSONL trace. `replay-diff` re-executes the same
//! scenario against the *live* scheduler — once through the serial
//! simulator and once through the `easeml-exec` engine at D=1 — and
//! compares the per-round rolling state digests the witness chains carry.
//!
//! Because the digest is rolling (digests agree at round `r` iff every
//! decision `≤ r` agrees), the first divergent round is found by binary
//! search over `O(log R)` digest comparisons, and the divergence report
//! shows the recorded and live decision witnesses of that exact round side
//! by side.

use crate::explain::render_witness;
use crate::LoadedTrace;
use easeml::fault::FaultConfig;
use easeml::sim::{simulate_with_recorder, SchedulerKind, SimConfig};
use easeml_data::{Dataset, SynConfig};
use easeml_exec::simulate_multi_device_with_recorder;
use easeml_gp::ArmPrior;
use easeml_obs::json::Json;
use easeml_obs::{
    schema_header_line, witness_records, Event, InMemoryRecorder, RecorderHandle, WitnessRecord,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

/// The environment variable arming the test-only picker mutation
/// (`easeml_sched::Greedy` reads it once at construction): from the given
/// step on, the chosen tenant is rotated by one. `replay-diff --mutate-at`
/// sets it around the live legs to prove the harness pinpoints the exact
/// first divergent round.
pub const MUTATE_ENV_VAR: &str = "EASEML_PICKER_MUTATE_AT";

/// The environment variable is process-global, and `Greedy::new` reads it
/// at construction — so live-leg execution is serialized to keep a mutated
/// replay from leaking into a concurrent clean one (tests in one binary).
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Everything a recorded run depends on, pinned so `replay-diff` can
/// re-execute it bit for bit. Serialized as a small JSON object.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayScenario {
    /// Tenants in the synthetic workload.
    pub users: usize,
    /// Models per tenant.
    pub models: usize,
    /// Seed of the synthetic dataset.
    pub dataset_seed: u64,
    /// Seed of the scheduler RNG (and of the fault injector, when armed).
    pub sim_seed: u64,
    /// Cost budget of the run.
    pub budget: f64,
    /// Strategy name, as printed by
    /// [`SchedulerKind::name`] (`"hybrid"`, `"greedy(max-gap)"`, ...).
    pub kind: String,
    /// Whether arm selection divides exploration by cost (§3.2).
    pub cost_aware: bool,
    /// Observation-noise variance of the GP posteriors.
    pub noise_var: f64,
    /// Failure probability δ of the β schedules.
    pub delta: f64,
    /// Base crash rate of the fault injector (0 disarms it).
    pub crash_rate: f64,
    /// Base timeout rate of the fault injector.
    pub timeout_rate: f64,
    /// Base invalid-quality rate of the fault injector.
    pub invalid_rate: f64,
}

impl Default for ReplayScenario {
    /// A small, fast scenario: 5 tenants × 4 models, hybrid strategy,
    /// budget 9, no faults — the CI smoke shape.
    fn default() -> Self {
        ReplayScenario {
            users: 5,
            models: 4,
            dataset_seed: 3,
            sim_seed: 7,
            budget: 9.0,
            kind: "hybrid".to_string(),
            cost_aware: true,
            noise_var: 1e-3,
            delta: 0.1,
            crash_rate: 0.0,
            timeout_rate: 0.0,
            invalid_rate: 0.0,
        }
    }
}

impl ReplayScenario {
    /// Parses a scenario from its JSON form. Missing keys keep their
    /// [`Default`] values, so a minimal `{"kind":"hybrid"}` is a valid
    /// scenario.
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error, or a message when the document is
    /// not an object or a key has the wrong type.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = easeml_obs::json::parse(text).map_err(|e| format!("scenario JSON: {e}"))?;
        let Json::Object(pairs) = doc else {
            return Err("scenario JSON must be an object".to_string());
        };
        let mut out = ReplayScenario::default();
        for (key, value) in &pairs {
            match (key.as_str(), value) {
                ("users", Json::Number(n)) => out.users = *n as usize,
                ("models", Json::Number(n)) => out.models = *n as usize,
                ("dataset_seed", Json::Number(n)) => out.dataset_seed = *n as u64,
                ("sim_seed", Json::Number(n)) => out.sim_seed = *n as u64,
                ("budget", Json::Number(n)) => out.budget = *n,
                ("kind", Json::String(s)) => out.kind = s.clone(),
                ("cost_aware", Json::Bool(b)) => out.cost_aware = *b,
                ("noise_var", Json::Number(n)) => out.noise_var = *n,
                ("delta", Json::Number(n)) => out.delta = *n,
                ("crash_rate", Json::Number(n)) => out.crash_rate = *n,
                ("timeout_rate", Json::Number(n)) => out.timeout_rate = *n,
                ("invalid_rate", Json::Number(n)) => out.invalid_rate = *n,
                (other, _) => {
                    return Err(format!("scenario key {other:?} is unknown or mistyped"));
                }
            }
        }
        Ok(out)
    }

    /// Serializes the scenario as one JSON object (round-trips through
    /// [`ReplayScenario::from_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"users\":{},\"models\":{},\"dataset_seed\":{},\"sim_seed\":{},\
             \"budget\":{},\"kind\":{},\"cost_aware\":{},\"noise_var\":{},\"delta\":{},\
             \"crash_rate\":{},\"timeout_rate\":{},\"invalid_rate\":{}}}",
            self.users,
            self.models,
            self.dataset_seed,
            self.sim_seed,
            self.budget,
            easeml_obs::json::to_string(self.kind.as_str()),
            self.cost_aware,
            self.noise_var,
            self.delta,
            self.crash_rate,
            self.timeout_rate,
            self.invalid_rate,
        )
    }

    /// The pinned synthetic workload.
    pub fn dataset(&self) -> Dataset {
        SynConfig {
            num_users: self.users,
            num_models: self.models,
            ..SynConfig::paper(0.5, 0.5)
        }
        .generate(self.dataset_seed)
    }

    /// One independent GP prior per tenant, matching the CI harness shape.
    pub fn priors(&self) -> Vec<ArmPrior> {
        (0..self.users)
            .map(|_| ArmPrior::independent(self.models, 0.05))
            .collect()
    }

    /// The pinned simulation parameters, fault injector included.
    pub fn sim_config(&self) -> SimConfig {
        let fault = (self.crash_rate > 0.0 || self.timeout_rate > 0.0 || self.invalid_rate > 0.0)
            .then(|| {
                FaultConfig::new(self.sim_seed)
                    .with_crash_rate(self.crash_rate)
                    .with_timeout_rate(self.timeout_rate)
                    .with_invalid_rate(self.invalid_rate)
            });
        SimConfig {
            budget: self.budget,
            cost_aware: self.cost_aware,
            noise_var: self.noise_var,
            delta: self.delta,
            fault,
        }
    }

    /// Resolves the strategy name back to its [`SchedulerKind`].
    ///
    /// # Errors
    ///
    /// Rejects unknown names and the §5.2 heuristics (`most-cited`,
    /// `most-recent`), which emit no decision witnesses to diff.
    pub fn scheduler_kind(&self) -> Result<SchedulerKind, String> {
        if self.kind == "ease-ml" {
            return Ok(SchedulerKind::Hybrid);
        }
        match SchedulerKind::from_name(&self.kind) {
            Some(kind) if kind.is_heuristic() => Err(format!(
                "kind {:?} is a §5.2 heuristic; it records no decision witnesses to diff",
                self.kind
            )),
            Some(kind) => Ok(kind),
            None => Err(format!("unknown scheduler kind {:?}", self.kind)),
        }
    }
}

/// Runs the scenario through the serial simulator with a recorder attached
/// and returns the schema-v5 JSONL trace text (header line first), ready
/// to write to disk — the `record` subcommand.
///
/// # Errors
///
/// Returns the scenario validation error (unknown strategy).
pub fn record_trace(scenario: &ReplayScenario) -> Result<String, String> {
    let events = run_serial(scenario)?;
    let rec = InMemoryRecorder::new();
    for event in events {
        easeml_obs::Recorder::record(&rec, event);
    }
    Ok(format!("{}\n{}", schema_header_line(), rec.to_jsonl()))
}

/// The per-round `(round, digest)` trajectory a run's `DecisionWitness`
/// events carry, sorted by round (multi-device traces commit witnesses in
/// completion order; rounds themselves are the dispatch sequence).
pub fn digests_of(events: &[Event]) -> Vec<(u64, String)> {
    let mut out: Vec<(u64, String)> = events
        .iter()
        .filter_map(|e| match e {
            Event::DecisionWitness { round, digest, .. } => Some((*round, digest.clone())),
            _ => None,
        })
        .collect();
    out.sort_by_key(|&(round, _)| round);
    out
}

/// First round where the two digest trajectories part ways, or `None`
/// when one is a prefix of the other and both end together.
///
/// Binary search, justified by the rolling-digest prefix property: entries
/// equal at index `i` certify that every decision `≤ i` matched, so a
/// single comparison rules an entire half in or out. A run that simply
/// *stops early* while agreeing so far diverges at its first missing
/// round.
pub fn first_divergence(recorded: &[(u64, String)], live: &[(u64, String)]) -> Option<u64> {
    let common = recorded.len().min(live.len());
    let (mut lo, mut hi) = (0usize, common);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if recorded[mid] == live[mid] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < common {
        return Some(recorded[lo].0.min(live[lo].0));
    }
    match (recorded.get(common), live.get(common)) {
        (Some(&(round, _)), None) | (None, Some(&(round, _))) => Some(round),
        _ => None,
    }
}

/// One live re-execution compared against the recorded trajectory.
#[derive(Debug, Clone)]
pub struct ReplayLeg {
    /// Which engine replayed the scenario.
    pub label: &'static str,
    /// Rounds the live run resolved.
    pub live_rounds: usize,
    /// First divergent round, if any.
    pub divergence: Option<u64>,
    /// The recorded and live witnesses of the divergent round (either side
    /// may be missing when that run never reached the round).
    pub witness_pair: (Option<WitnessRecord>, Option<WitnessRecord>),
}

/// Re-executes `scenario` against the live scheduler — serial simulator
/// and `easeml-exec` at D=1 — and diffs each leg's digest trajectory
/// against the recorded trace. `mutate_at` arms the test-only picker
/// mutation (see [`MUTATE_ENV_VAR`]) for the live legs, seeding a known
/// divergence the harness must pinpoint.
///
/// # Errors
///
/// Returns a message when the trace carries no decision witnesses or the
/// scenario is invalid.
///
/// # Panics
///
/// Does not panic; the internal environment lock absorbs poisoning.
pub fn replay_diff(
    scenario: &ReplayScenario,
    recorded: &LoadedTrace,
    mutate_at: Option<u64>,
) -> Result<Vec<ReplayLeg>, String> {
    let recorded_digests = digests_of(&recorded.events);
    if recorded_digests.is_empty() {
        return Err(format!(
            "trace carries no DecisionWitness events (schema v{} records them); \
             re-record it with `easeml-trace record`",
            easeml_obs::TRACE_SCHEMA_VERSION
        ));
    }
    let recorded_witnesses = witness_records(&recorded.events);

    let guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(step) = mutate_at {
        std::env::set_var(MUTATE_ENV_VAR, step.to_string());
    }
    let legs: Result<Vec<(&'static str, Vec<Event>)>, String> = (|| {
        Ok(vec![
            ("serial sim", run_serial(scenario)?),
            ("exec D=1", run_exec_single_device(scenario)?),
        ])
    })();
    if mutate_at.is_some() {
        std::env::remove_var(MUTATE_ENV_VAR);
    }
    drop(guard);

    Ok(legs?
        .into_iter()
        .map(|(label, events)| {
            let live_digests = digests_of(&events);
            let divergence = first_divergence(&recorded_digests, &live_digests);
            let witness_pair = divergence.map_or((None, None), |round| {
                let find =
                    |records: &[WitnessRecord]| records.iter().find(|w| w.round == round).cloned();
                (find(&recorded_witnesses), find(&witness_records(&events)))
            });
            ReplayLeg {
                label,
                live_rounds: live_digests.len(),
                divergence,
                witness_pair,
            }
        })
        .collect())
}

/// Renders the `replay-diff` report: per-leg verdicts, and for a divergent
/// leg the recorded and live witnesses of the first divergent round side
/// by side.
pub fn render_replay_diff(
    scenario: &ReplayScenario,
    recorded_rounds: usize,
    legs: &[ReplayLeg],
    mutate_at: Option<u64>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== easeml-trace replay-diff ===");
    let _ = writeln!(
        out,
        "scenario: {} tenants x {} models, kind {}, budget {} \
         (dataset seed {}, sim seed {})",
        scenario.users,
        scenario.models,
        scenario.kind,
        scenario.budget,
        scenario.dataset_seed,
        scenario.sim_seed,
    );
    let _ = writeln!(out, "recorded rounds: {recorded_rounds}");
    if let Some(step) = mutate_at {
        let _ = writeln!(
            out,
            "mutation armed: picker choice rotates from step {step} on ({MUTATE_ENV_VAR})"
        );
    }
    for leg in legs {
        let _ = writeln!(out, "\n--- leg: {} ---", leg.label);
        let _ = writeln!(out, "live rounds: {}", leg.live_rounds);
        match leg.divergence {
            None => {
                let _ = writeln!(
                    out,
                    "zero divergences: the live run reproduces every recorded decision"
                );
            }
            Some(round) => {
                let _ = writeln!(out, "first divergent round: {round}");
                let side = |out: &mut String, title: &str, witness: &Option<WitnessRecord>| {
                    let _ = writeln!(out, "  {title}:");
                    match witness {
                        Some(w) => {
                            for line in render_witness(w).lines() {
                                let _ = writeln!(out, "    {line}");
                            }
                        }
                        None => {
                            let _ = writeln!(out, "    (run ended before this round)");
                        }
                    }
                };
                side(&mut out, "recorded", &leg.witness_pair.0);
                side(&mut out, "live", &leg.witness_pair.1);
            }
        }
    }
    let diverged = legs.iter().filter(|l| l.divergence.is_some()).count();
    let _ = writeln!(
        out,
        "\nresult: {} ({}/{} leg(s) clean)",
        if diverged == 0 { "CLEAN" } else { "DIVERGED" },
        legs.len() - diverged,
        legs.len(),
    );
    out
}

/// Runs the scenario through the serial simulator, returning the recorded
/// event stream.
fn run_serial(scenario: &ReplayScenario) -> Result<Vec<Event>, String> {
    let kind = scenario.scheduler_kind()?;
    let rec = Arc::new(InMemoryRecorder::new());
    let _ = simulate_with_recorder(
        &scenario.dataset(),
        &scenario.priors(),
        kind,
        &scenario.sim_config(),
        &mut StdRng::seed_from_u64(scenario.sim_seed),
        &RecorderHandle::new(rec.clone()),
    );
    Ok(rec.events())
}

/// Runs the scenario through the `easeml-exec` engine on one unit-speed
/// single-slot device — the configuration proven digest-equivalent to the
/// serial simulator — returning the recorded event stream.
fn run_exec_single_device(scenario: &ReplayScenario) -> Result<Vec<Event>, String> {
    let kind = scenario.scheduler_kind()?;
    let rec = Arc::new(InMemoryRecorder::new());
    let _ = simulate_multi_device_with_recorder(
        &scenario.dataset(),
        &scenario.priors(),
        kind,
        &scenario.sim_config(),
        1,
        scenario.sim_seed,
        &RecorderHandle::new(rec.clone()),
    );
    Ok(rec.events())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_trace;

    fn recorded(scenario: &ReplayScenario) -> LoadedTrace {
        parse_trace(&record_trace(scenario).unwrap())
    }

    #[test]
    fn scenario_round_trips_through_json_with_defaults() {
        let scenario = ReplayScenario {
            users: 6,
            crash_rate: 0.2,
            kind: "greedy(max-gap)".to_string(),
            ..ReplayScenario::default()
        };
        let back = ReplayScenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(back, scenario);
        // Minimal documents fill in defaults.
        let minimal = ReplayScenario::from_json("{\"kind\":\"hybrid\"}").unwrap();
        assert_eq!(minimal, ReplayScenario::default());
        assert!(ReplayScenario::from_json("[1,2]").is_err());
        assert!(ReplayScenario::from_json("{\"bogus\":1}").is_err());
        assert!(ReplayScenario::from_json("{\"users\":\"five\"}").is_err());
    }

    #[test]
    fn heuristic_kinds_are_rejected_with_a_reason() {
        let scenario = ReplayScenario {
            kind: "most-cited".to_string(),
            ..ReplayScenario::default()
        };
        let err = scenario.scheduler_kind().unwrap_err();
        assert!(err.contains("heuristic"), "{err}");
        let unknown = ReplayScenario {
            kind: "dqn".to_string(),
            ..ReplayScenario::default()
        };
        assert!(unknown.scheduler_kind().is_err());
    }

    #[test]
    fn first_divergence_binary_search_matches_a_linear_scan() {
        let traj = |spec: &[(u64, &str)]| -> Vec<(u64, String)> {
            spec.iter().map(|&(r, d)| (r, d.to_string())).collect()
        };
        let a = traj(&[(0, "aa"), (1, "bb"), (2, "cc"), (3, "dd")]);
        assert_eq!(first_divergence(&a, &a), None);
        // Fixtures respect the rolling-digest invariant the search relies
        // on: once diverged, every later digest differs too.
        let mutated = traj(&[(0, "aa"), (1, "bb"), (2, "xx"), (3, "yy")]);
        assert_eq!(first_divergence(&a, &mutated), Some(2));
        let early = traj(&[(0, "zz"), (1, "b2"), (2, "c2"), (3, "d2")]);
        assert_eq!(first_divergence(&a, &early), Some(0));
        // A clean prefix that simply stops early diverges at the first
        // missing round — in either direction.
        let short = traj(&[(0, "aa"), (1, "bb")]);
        assert_eq!(first_divergence(&a, &short), Some(2));
        assert_eq!(first_divergence(&short, &a), Some(2));
        assert_eq!(first_divergence(&[], &[]), None);
        assert_eq!(first_divergence(&a, &[]), Some(0));
    }

    #[test]
    fn clean_replay_reports_zero_divergences_on_both_legs() {
        let scenario = ReplayScenario::default();
        let trace = recorded(&scenario);
        assert_eq!(
            trace.schema_version,
            Some(u64::from(easeml_obs::TRACE_SCHEMA_VERSION))
        );
        let legs = replay_diff(&scenario, &trace, None).unwrap();
        assert_eq!(legs.len(), 2);
        for leg in &legs {
            assert_eq!(leg.divergence, None, "leg {} diverged", leg.label);
            assert!(leg.live_rounds > 0);
        }
        let report = render_replay_diff(&scenario, digests_of(&trace.events).len(), &legs, None);
        assert!(report.contains("zero divergences"), "{report}");
        assert!(
            report.contains("result: CLEAN (2/2 leg(s) clean)"),
            "{report}"
        );
    }

    #[test]
    fn chaos_scenario_still_replays_clean_serially() {
        // Fault injection is seeded, so a censored run replays bit for bit
        // on the serial leg.
        let scenario = ReplayScenario {
            crash_rate: 0.3,
            budget: 12.0,
            ..ReplayScenario::default()
        };
        let trace = recorded(&scenario);
        let records = witness_records(&trace.events);
        assert!(
            records.iter().any(|r| r.censored),
            "chaos scenario should censor at least one round"
        );
        let legs = replay_diff(&scenario, &trace, None).unwrap();
        assert_eq!(legs[0].divergence, None, "serial leg must replay clean");
    }

    #[test]
    fn seeded_mutation_is_pinpointed_at_its_exact_round() {
        let scenario = ReplayScenario {
            kind: "greedy(max-gap)".to_string(),
            budget: 14.0,
            ..ReplayScenario::default()
        };
        let trace = recorded(&scenario);
        let rounds = digests_of(&trace.events).len();
        assert!(rounds > 6, "need enough rounds to mutate mid-run");
        let mutate_at = 4u64;
        let legs = replay_diff(&scenario, &trace, Some(mutate_at)).unwrap();
        for leg in &legs {
            // The mutation rotates the *user* choice from step 4 on; the
            // digest diverges at exactly that round, never earlier. (It
            // can in principle land later if the rotated pick coincides,
            // but the greedy rule on this scenario flips it immediately.)
            assert_eq!(
                leg.divergence,
                Some(mutate_at),
                "leg {} missed the seeded divergence",
                leg.label
            );
            let (rec, live) = &leg.witness_pair;
            let (rec, live) = (rec.as_ref().unwrap(), live.as_ref().unwrap());
            assert_eq!(rec.round, mutate_at);
            assert_eq!(live.round, mutate_at);
            assert_ne!(
                (rec.user, rec.arm),
                (live.user, live.arm),
                "the witness pair must show differing decisions"
            );
        }
        let report = render_replay_diff(&scenario, rounds, &legs, Some(mutate_at));
        assert!(
            report.contains(&format!("first divergent round: {mutate_at}")),
            "{report}"
        );
        assert!(report.contains("result: DIVERGED"), "{report}");
        assert!(report.contains("recorded:"), "{report}");
        assert!(report.contains("live:"), "{report}");

        // And with the mutation disarmed the same scenario is clean again.
        let clean = replay_diff(&scenario, &trace, None).unwrap();
        assert!(clean.iter().all(|l| l.divergence.is_none()));
    }
}
