//! Offline analytics over recorded ease.ml traces.
//!
//! The live side of the reproduction records structured [`Event`]s — through
//! an in-memory recorder, a rotating [`JsonlFileSink`](easeml_obs::JsonlFileSink),
//! or the `/trace` HTTP endpoint. This crate is the *offline* side: load
//! such a JSONL trace and answer the questions the paper's evaluation asks
//! after the fact:
//!
//! * [`regret_report`] — the cost-weighted cumulative regret of every
//!   tenant, decomposed into the user-picking and arm-picking terms of
//!   Theorem 1 (folded through the same
//!   [`TimeSeriesRecorder`] the live dashboard uses, so the numbers agree
//!   by construction);
//! * [`calibration_report`] — how honest the GP posteriors were: each
//!   `ArmChosen` carries the chosen arm's posterior mean/σ, which is paired
//!   with the realized quality of the tenant's next `TrainingCompleted` to
//!   score credible-interval coverage against nominal levels;
//! * [`fallback_timeline`] — when (in simulated cost) each hybrid scheduler
//!   fell back to round robin, and why;
//! * [`health_report`] — the numerical-health event stream summarized:
//!   jitter retries, PSD projections, and posterior condition growth;
//! * [`fault_report`] — the fault-tolerance event stream (schema v3)
//!   summarized: censored runs by kind and tenant, retry backoff cost,
//!   quarantined arms, and checkpoints;
//! * [`exec_report`] — the multi-device execution stream (schema v4)
//!   summarized: per-device run counts, busy slot-time and utilization
//!   against the makespan, idle-gap (queueing-delay) statistics, and the
//!   peak number of runs in flight;
//! * [`chrome_trace`] — the causal span tree (`scheduler_step → pick_user →
//!   pick_arm → train → posterior_update`) exported as Chrome trace-event
//!   JSON, loadable in `chrome://tracing` / Perfetto;
//! * [`profile_of`] — the same span stream folded into an aggregated
//!   [`CallTreeProfile`] (per-phase call counts, total/self wall time,
//!   latency quantiles), rendered by [`render_profile`] as a per-phase
//!   self-time table — and, across a multi-trace tenant-count sweep, the
//!   empirical scaling exponent of each phase.
//!
//! * [`workload_report`] — the open-loop workload stream (schema v6)
//!   summarized: per-tenant arrivals, FIFO-matched queueing-delay
//!   quantiles, tenant churn, and the arrival-rate timeline.
//!
//! The `easeml-trace` binary wraps these as `report`, `chrome`,
//! `profile`, and `workload-report` subcommands.

use easeml_obs::{
    scaling_exponents, CallTreeProfile, Event, PhaseScaling, QuantileSketch, ScaleConfig,
    ScaleSnapshot, StrategySketches, TimeSeriesRecorder,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub mod explain;
pub mod recovery_report;
pub mod replay;
pub mod workload;

pub use explain::{
    decision_health, render_decision_health, render_explain_round, render_witness, DecisionHealth,
    PathHealth,
};
pub use recovery_report::{recovery_report, render_wal_report};
pub use replay::{
    digests_of, first_divergence, record_trace, render_replay_diff, replay_diff, ReplayLeg,
    ReplayScenario,
};
pub use workload::{
    render_workload_report, workload_report, TenantWorkload, WorkloadReport, TIMELINE_BUCKETS,
};

/// Oldest trace schema version this build can load.
pub const MIN_SUPPORTED_SCHEMA_VERSION: u64 = 1;

/// Newest trace schema version this build can load — traces declaring a
/// higher version in their header are rejected by [`load_trace`] rather
/// than silently dropping the event variants this build does not know.
pub const MAX_SUPPORTED_SCHEMA_VERSION: u64 = easeml_obs::TRACE_SCHEMA_VERSION as u64;

/// Rejects traces recorded by a *newer* build than this one.
///
/// Older versions load fine (the schema is additive), and headerless
/// traces are accepted as-is — only an explicit header declaring a version
/// past [`MAX_SUPPORTED_SCHEMA_VERSION`] fails.
///
/// # Errors
///
/// Returns a message naming the declared and supported versions.
pub fn check_schema_version(trace: &LoadedTrace) -> Result<(), String> {
    match trace.schema_version {
        Some(v) if v > MAX_SUPPORTED_SCHEMA_VERSION => Err(format!(
            "trace declares schema v{v}, but this build supports \
             v{MIN_SUPPORTED_SCHEMA_VERSION}..=v{MAX_SUPPORTED_SCHEMA_VERSION} — \
             upgrade easeml-trace to read it"
        )),
        _ => Ok(()),
    }
}

/// A parsed JSONL trace.
#[derive(Debug, Clone, Default)]
pub struct LoadedTrace {
    /// The events, in recording order.
    pub events: Vec<Event>,
    /// Schema version declared by the trace's header line(s), if any.
    pub schema_version: Option<u64>,
    /// Lines that were neither headers, blank, nor parseable events.
    pub skipped_lines: usize,
    /// Lowest sequence number seen on a `{"seq":N,...}` frame, if any.
    pub first_seq: Option<u64>,
    /// Highest sequence number seen on a `{"seq":N,...}` frame, if any.
    pub last_seq: Option<u64>,
    /// Frames provably lost: the summed interior jumps in the sequence
    /// numbers (`seq` skipping from 7 to 10 counts 2 missing frames) —
    /// dropped sink writes and over-rotated segments show up here.
    pub seq_gaps: u64,
    /// Start index in [`LoadedTrace::events`] of each merged source file
    /// (one entry per file; a single-file load has one entry, `0`).
    pub segments: Vec<usize>,
}

impl LoadedTrace {
    /// Appends `later` (a chronologically later segment of the same trace)
    /// onto `self`, accumulating skip/gap counters and counting the seam
    /// between the two files as a gap when their sequence numbers do not
    /// abut. This is the rotation-merge used by
    /// [`load_trace_with_rotations`].
    pub fn merge(&mut self, later: LoadedTrace) {
        if let (Some(prev), Some(next)) = (self.last_seq, later.first_seq) {
            if next > prev + 1 {
                self.seq_gaps += next - prev - 1;
            }
        }
        let offset = self.events.len();
        if later.segments.is_empty() {
            self.segments.push(offset);
        } else {
            self.segments
                .extend(later.segments.iter().map(|s| s + offset));
        }
        self.events.extend(later.events);
        self.schema_version = self.schema_version.or(later.schema_version);
        self.skipped_lines += later.skipped_lines;
        self.seq_gaps += later.seq_gaps;
        self.first_seq = self.first_seq.or(later.first_seq);
        self.last_seq = later.last_seq.or(self.last_seq);
    }

    /// The per-segment event slices, in merge order — the shape
    /// [`scale_report`] folds sketch-per-segment and merges, mirroring how
    /// rotated files would be folded on separate machines.
    pub fn segment_slices(&self) -> Vec<&[Event]> {
        if self.segments.is_empty() {
            return vec![&self.events];
        }
        let mut out = Vec::with_capacity(self.segments.len());
        for (i, &start) in self.segments.iter().enumerate() {
            let end = self
                .segments
                .get(i + 1)
                .copied()
                .unwrap_or(self.events.len());
            out.push(&self.events[start..end]);
        }
        out
    }
}

/// Strips the `{"seq":N,"event":{...}}` framing a
/// [`JsonlFileSink`](easeml_obs::JsonlFileSink) / `/trace` endpoint adds,
/// returning the sequence number and the inner event object.
fn unwrap_seq_frame(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"seq\":")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let seq = digits.parse().ok()?;
    let idx = rest.find("\"event\":")?;
    let payload = rest[idx + "\"event\":".len()..].strip_suffix('}')?;
    Some((seq, payload))
}

/// Reads the `version` out of a `{"schema":"easeml-trace","version":N}`
/// header line.
fn parse_header(line: &str) -> Option<u64> {
    if !line.starts_with("{\"schema\":") {
        return None;
    }
    let idx = line.find("\"version\":")?;
    let tail = &line[idx + "\"version\":".len()..];
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Parses a JSONL trace from text. Accepts the three line shapes the
/// system produces — schema header lines, `{"seq":N,"event":{...}}` frames
/// (file sink, `/trace` endpoint), and bare event objects
/// ([`InMemoryRecorder::to_jsonl`](easeml_obs::InMemoryRecorder::to_jsonl)) —
/// and counts anything else in [`LoadedTrace::skipped_lines`] rather than
/// failing, so a truncated tail (crash mid-write) does not lose the rest of
/// the trace.
pub fn parse_trace(text: &str) -> LoadedTrace {
    let mut out = LoadedTrace {
        segments: vec![0],
        ..LoadedTrace::default()
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(version) = parse_header(line) {
            out.schema_version = Some(version);
            continue;
        }
        let (seq, payload) = match unwrap_seq_frame(line) {
            Some((seq, payload)) => (Some(seq), payload),
            None => (None, line),
        };
        match Event::from_json(payload) {
            Ok(event) => {
                out.events.push(event);
                if let Some(seq) = seq {
                    if let Some(prev) = out.last_seq {
                        if seq > prev + 1 {
                            out.seq_gaps += seq - prev - 1;
                        }
                    }
                    out.first_seq = out.first_seq.or(Some(seq));
                    out.last_seq = Some(out.last_seq.map_or(seq, |p| p.max(seq)));
                }
            }
            Err(_) => out.skipped_lines += 1,
        }
    }
    out
}

/// Loads and parses a trace file.
///
/// # Errors
///
/// Returns the I/O error message when the file cannot be read, or the
/// [`check_schema_version`] message when the trace's header declares a
/// schema version newer than this build supports.
pub fn load_trace(path: &std::path::Path) -> Result<LoadedTrace, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let trace = parse_trace(&text);
    check_schema_version(&trace).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(trace)
}

/// Loads `path` together with any rotated siblings a
/// [`JsonlFileSink`](easeml_obs::JsonlFileSink) left next to it
/// (`<path>.1` is the most recently rotated, higher suffixes are older),
/// merged oldest-first so the events come back in recording order.
/// Cross-file sequence jumps count into [`LoadedTrace::seq_gaps`].
///
/// # Errors
///
/// Returns the I/O error message when the live file cannot be read;
/// rotated segments that disappear mid-scan (a concurrent writer rotating)
/// are skipped rather than failing the load.
pub fn load_trace_with_rotations(path: &std::path::Path) -> Result<LoadedTrace, String> {
    let mut rotated: Vec<(usize, std::path::PathBuf)> = Vec::new();
    for n in 1.. {
        let candidate = std::path::PathBuf::from(format!("{}.{n}", path.display()));
        if candidate.exists() {
            rotated.push((n, candidate));
        } else {
            break;
        }
    }
    let mut merged: Option<LoadedTrace> = None;
    // Oldest segment first: highest rotation index down to `.1`.
    for (_, segment) in rotated.iter().rev() {
        let Ok(text) = std::fs::read_to_string(segment) else {
            continue;
        };
        let parsed = parse_trace(&text);
        match merged.as_mut() {
            Some(acc) => acc.merge(parsed),
            None => merged = Some(parsed),
        }
    }
    let live = load_trace(path)?;
    let out = match merged {
        Some(mut acc) => {
            acc.merge(live);
            acc
        }
        None => live,
    };
    // A rotated segment may carry the header the live file lacks.
    check_schema_version(&out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Regret decomposition (Theorem 1)
// ---------------------------------------------------------------------------

/// Per-user and aggregate cost-weighted regret, split into the Theorem 1
/// user-picking and arm-picking terms.
#[derive(Debug, Clone)]
pub struct RegretReport {
    /// Simulated clock at the end of the trace (total cost spent).
    pub clock: f64,
    /// Completed training runs.
    pub rounds: u64,
    /// Per-tenant decomposition, keyed by tenant index.
    pub per_user: BTreeMap<usize, easeml_obs::RegretDecomposition>,
    /// Sum over tenants.
    pub aggregate: easeml_obs::RegretDecomposition,
}

impl RegretReport {
    /// Whether every tenant's `arm + user` split matches its undecomposed
    /// integral within `tol` — the Theorem 1 consistency check.
    pub fn is_consistent(&self, tol: f64) -> bool {
        self.per_user
            .values()
            .chain(std::iter::once(&self.aggregate))
            .all(|d| (d.sum() - d.total).abs() <= tol * (1.0 + d.total.abs()))
    }
}

/// Folds the trace through a [`TimeSeriesRecorder`] — the same fold the
/// live dashboard runs — and extracts the regret decomposition.
/// `targets` optionally maps tenants to their best achievable quality μ*
/// (defaults to 1.0, i.e. regret is measured against perfect accuracy).
pub fn regret_report(events: &[Event], targets: &BTreeMap<usize, f64>) -> RegretReport {
    let ts = TimeSeriesRecorder::new();
    for (&user, &target) in targets {
        ts.set_target(user, target);
    }
    for event in events {
        ts.fold(event);
    }
    let snap = ts.snapshot();
    RegretReport {
        clock: snap.clock,
        rounds: snap.rounds,
        aggregate: snap.cum_regret(),
        per_user: snap
            .users
            .iter()
            .map(|(&user, series)| (user, series.cum_regret))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// GP calibration
// ---------------------------------------------------------------------------

/// The nominal central credible-interval levels the calibration report
/// scores, with the matching standard-normal quantiles.
pub const CALIBRATION_LEVELS: [(f64, f64); 4] = [
    (0.50, 0.6744897501960817),
    (0.80, 1.2815515655446004),
    (0.90, 1.6448536269514722),
    (0.95, 1.959963984540054),
];

/// Calibration of the GP posteriors against realized training outcomes.
///
/// Each prediction is an `ArmChosen` event (posterior mean/σ of the chosen
/// arm at decision time) paired with the quality of the same tenant's next
/// `TrainingCompleted`. A well-calibrated posterior puts the realized
/// quality inside its central p-credible interval about a fraction p of the
/// time.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    /// Prediction/outcome pairs actually scored.
    pub pairs: usize,
    /// `ArmChosen` events without usable mean/σ (pre-v2 traces, σ = 0) or
    /// without a following completion.
    pub unscored: usize,
    /// For each `(nominal, z)` in [`CALIBRATION_LEVELS`]: the empirical
    /// fraction of outcomes inside the central interval `mean ± z·σ`.
    pub coverage: Vec<(f64, f64)>,
    /// Mean of `quality − mean` (signed bias of the posterior mean).
    pub mean_residual: f64,
    /// Root mean square of the standardized residuals `z = (q − μ)/σ`;
    /// ≈ 1 for a calibrated posterior, ≫ 1 for overconfident ones.
    pub rms_z: f64,
}

/// Pairs every `ArmChosen` with the same tenant's next `TrainingCompleted`
/// and scores credible-interval coverage. Events of different tenants
/// interleave freely; pairing is per-tenant FIFO.
pub fn calibration_report(events: &[Event]) -> CalibrationReport {
    let mut pending: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    let mut residuals: Vec<(f64, f64)> = Vec::new(); // (quality − mean, σ)
    let mut unscored = 0usize;
    for event in events {
        match event {
            Event::ArmChosen {
                user, mean, sigma, ..
            } => {
                if mean.is_finite() && sigma.is_finite() && *sigma > 0.0 {
                    pending.entry(*user).or_default().push((*mean, *sigma));
                } else {
                    unscored += 1;
                }
            }
            Event::TrainingCompleted { user, quality, .. } => {
                if let Some(queue) = pending.get_mut(user) {
                    if !queue.is_empty() {
                        let (mean, sigma) = queue.remove(0);
                        residuals.push((quality - mean, sigma));
                    }
                }
            }
            _ => {}
        }
    }
    unscored += pending.values().map(Vec::len).sum::<usize>();
    if residuals.is_empty() {
        return CalibrationReport {
            unscored,
            coverage: CALIBRATION_LEVELS.iter().map(|&(p, _)| (p, 0.0)).collect(),
            ..CalibrationReport::default()
        };
    }
    let n = residuals.len() as f64;
    let coverage = CALIBRATION_LEVELS
        .iter()
        .map(|&(nominal, z)| {
            let inside = residuals
                .iter()
                .filter(|(r, sigma)| r.abs() <= z * sigma)
                .count();
            (nominal, inside as f64 / n)
        })
        .collect();
    let mean_residual = residuals.iter().map(|(r, _)| r).sum::<f64>() / n;
    let rms_z = (residuals
        .iter()
        .map(|(r, s)| (r / s) * (r / s))
        .sum::<f64>()
        / n)
        .sqrt();
    CalibrationReport {
        pairs: residuals.len(),
        unscored,
        coverage,
        mean_residual,
        rms_z,
    }
}

// ---------------------------------------------------------------------------
// Hybrid fallback timeline
// ---------------------------------------------------------------------------

/// One hybrid-scheduler fallback, located on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackPoint {
    /// Cumulative cost at the moment the fallback fired.
    pub clock: f64,
    /// Completed rounds before the fallback.
    pub rounds: u64,
    /// The reason string the scheduler recorded.
    pub reason: String,
}

/// Extracts every `HybridFallback` with its position on the cost clock.
///
/// Censored runs (`TrainingFailed`) advance the clock by the cost they
/// consumed — the cluster charged it even though no quality observation
/// landed — but do not count as completed rounds, matching the live
/// [`TimeSeriesRecorder`] fold.
pub fn fallback_timeline(events: &[Event]) -> Vec<FallbackPoint> {
    let mut clock = 0.0f64;
    let mut rounds = 0u64;
    let mut out = Vec::new();
    for event in events {
        match event {
            Event::TrainingCompleted { cost, .. } => {
                if cost.is_finite() && *cost > 0.0 {
                    clock += cost;
                }
                rounds += 1;
            }
            Event::TrainingFailed { cost, .. } if cost.is_finite() && *cost > 0.0 => {
                clock += cost;
            }
            Event::HybridFallback { reason, .. } => out.push(FallbackPoint {
                clock,
                rounds,
                reason: reason.clone(),
            }),
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------------

/// Summary of the fault-tolerance event stream (schema v3): censored runs,
/// retries, quarantines, and checkpoints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Number of `TrainingFailed` events (censored runs).
    pub failed_runs: u64,
    /// Total cost charged to censored runs (partial progress + backoff).
    pub censored_cost: f64,
    /// Failed runs per failure kind (`crash`, `timeout`,
    /// `invalid-quality`, …), in deterministic order.
    pub by_kind: BTreeMap<String, u64>,
    /// Failed runs per tenant.
    pub by_user: BTreeMap<usize, u64>,
    /// Number of `RetryScheduled` events.
    pub retries: u64,
    /// Total simulated-cost backoff charged across all retries.
    pub backoff_cost: f64,
    /// Number of `ArmQuarantined` events.
    pub quarantines: u64,
    /// The quarantined `(user, model)` pairs, in event order (an arm that
    /// re-enters on probation and is quarantined again appears twice).
    pub quarantined_arms: Vec<(usize, usize)>,
    /// Number of `CheckpointWritten` events.
    pub checkpoints: u64,
    /// Bytes of the last checkpoint in the trace, if any.
    pub last_checkpoint_bytes: Option<u64>,
}

/// Folds `TrainingFailed` / `RetryScheduled` / `ArmQuarantined` /
/// `CheckpointWritten` into a [`FaultReport`]. Pre-v3 traces simply
/// contain none of these events and yield an all-zero report.
pub fn fault_report(events: &[Event]) -> FaultReport {
    let mut out = FaultReport::default();
    for event in events {
        match event {
            Event::TrainingFailed {
                user, cost, kind, ..
            } => {
                out.failed_runs += 1;
                if cost.is_finite() && *cost > 0.0 {
                    out.censored_cost += cost;
                }
                *out.by_kind.entry(kind.clone()).or_insert(0) += 1;
                *out.by_user.entry(*user).or_insert(0) += 1;
            }
            Event::RetryScheduled { backoff_cost, .. } => {
                out.retries += 1;
                if backoff_cost.is_finite() && *backoff_cost > 0.0 {
                    out.backoff_cost += backoff_cost;
                }
            }
            Event::ArmQuarantined { user, model, .. } => {
                out.quarantines += 1;
                out.quarantined_arms.push((*user, *model));
            }
            Event::CheckpointWritten { bytes, .. } => {
                out.checkpoints += 1;
                out.last_checkpoint_bytes = Some(*bytes);
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Multi-device execution
// ---------------------------------------------------------------------------

/// One device's share of the execution event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceUsage {
    /// Runs dispatched onto the device.
    pub dispatches: u64,
    /// Runs that left the device (clean or censored).
    pub completions: u64,
    /// Completions with `ok = false` (censored by a fault).
    pub censored: u64,
    /// Busy slot-time: the summed durations of the device's runs. On a
    /// multi-slot device overlapping runs each contribute their full span.
    pub busy: f64,
    /// `DeviceIdle` gaps observed (the device sat fully idle, then got
    /// work).
    pub idle_gaps: u64,
    /// Total idle-gap time.
    pub idle_gap_total: f64,
    /// Longest single idle gap.
    pub idle_gap_max: f64,
}

/// Summary of the multi-device execution stream (schema v4): per-device
/// utilization and the executor's queueing-delay samples.
///
/// Serial traces (schema ≤ 3) contain no `RunDispatched` events and yield
/// a report with `dispatches == 0`; [`render_report`] omits the section
/// entirely in that case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Total `RunDispatched` events.
    pub dispatches: u64,
    /// Total `RunFinished` events.
    pub completions: u64,
    /// Finished runs that were censored (`ok = false`).
    pub censored: u64,
    /// Simulated clock of the last `RunFinished` (the makespan).
    pub makespan: f64,
    /// Peak number of runs simultaneously in flight.
    pub peak_in_flight: u64,
    /// Per-device breakdown, keyed by device index.
    pub per_device: BTreeMap<usize, DeviceUsage>,
    /// Mergeable quantile sketch over every `DeviceIdle` gap — the
    /// executor's queueing-delay distribution across all devices.
    pub queueing_delay: QuantileSketch,
    /// Mergeable quantile sketch over every paired run duration — the
    /// busy-span distribution across all devices.
    pub busy_spans: QuantileSketch,
}

impl ExecReport {
    /// A device's busy slot-time divided by the makespan. Exceeds 1 on
    /// multi-slot devices running overlapping jobs; 0 when the makespan is
    /// zero.
    pub fn utilization(&self, device: usize) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.per_device
            .get(&device)
            .map_or(0.0, |d| d.busy / self.makespan)
    }

    /// Mean idle gap across all devices — the executor's average
    /// queueing delay (how long a fully drained device waited for its next
    /// run). 0 when no gaps were recorded.
    pub fn mean_queueing_delay(&self) -> f64 {
        let gaps: u64 = self.per_device.values().map(|d| d.idle_gaps).sum();
        if gaps == 0 {
            return 0.0;
        }
        let total: f64 = self.per_device.values().map(|d| d.idle_gap_total).sum();
        total / gaps as f64
    }
}

/// Folds `RunDispatched` / `RunFinished` / `DeviceIdle` into an
/// [`ExecReport`]. Each finish is paired with its dispatch per
/// `(device, user, model)` FIFO — the engine records both in causal order,
/// so overlapping runs on a multi-slot device pair correctly.
pub fn exec_report(events: &[Event]) -> ExecReport {
    let mut out = ExecReport::default();
    let mut pending: BTreeMap<(usize, usize, usize), Vec<f64>> = BTreeMap::new();
    let mut in_flight = 0u64;
    for event in events {
        match event {
            Event::RunDispatched {
                user,
                model,
                device,
                at,
                ..
            } => {
                out.dispatches += 1;
                out.per_device.entry(*device).or_default().dispatches += 1;
                pending
                    .entry((*device, *user, *model))
                    .or_default()
                    .push(*at);
                in_flight += 1;
                out.peak_in_flight = out.peak_in_flight.max(in_flight);
            }
            Event::RunFinished {
                user,
                model,
                device,
                at,
                ok,
                ..
            } => {
                out.completions += 1;
                if !ok {
                    out.censored += 1;
                }
                if *at > out.makespan {
                    out.makespan = *at;
                }
                let usage = out.per_device.entry(*device).or_default();
                usage.completions += 1;
                if !ok {
                    usage.censored += 1;
                }
                if let Some(starts) = pending.get_mut(&(*device, *user, *model)) {
                    if !starts.is_empty() {
                        let start = starts.remove(0);
                        if at.is_finite() && *at >= start {
                            usage.busy += at - start;
                            out.busy_spans.insert(at - start);
                        }
                    }
                }
                in_flight = in_flight.saturating_sub(1);
            }
            Event::DeviceIdle { device, idle, .. } => {
                let usage = out.per_device.entry(*device).or_default();
                usage.idle_gaps += 1;
                if idle.is_finite() && *idle >= 0.0 {
                    out.queueing_delay.insert(*idle);
                }
                if idle.is_finite() && *idle > 0.0 {
                    usage.idle_gap_total += idle;
                    if *idle > usage.idle_gap_max {
                        usage.idle_gap_max = *idle;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Telemetry at scale: sketch fold + exact cross-check
// ---------------------------------------------------------------------------

/// Traces with more events than this skip the exact cross-check — the
/// point of the sketches is that the exact fold stops being affordable.
pub const CROSS_CHECK_MAX_EVENTS: usize = 200_000;

/// The quantiles the scale section prints and cross-checks.
pub const SCALE_QUANTILES: [(f64, &str); 3] = [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")];

/// Outcome of comparing the merged regret sketch against an exact
/// sorted-fold of the same per-run regret observations.
#[derive(Debug, Clone, Default)]
pub struct SketchCrossCheck {
    /// Quantiles compared (0 when skipped or the trace has no runs).
    pub quantiles_checked: usize,
    /// Largest relative error observed across the checked quantiles.
    pub max_rel_err: f64,
    /// The sketch's configured relative-error bound α.
    pub tolerance: f64,
    /// True when the trace exceeded [`CROSS_CHECK_MAX_EVENTS`].
    pub skipped: bool,
}

impl SketchCrossCheck {
    /// Whether the sketch stayed within its advertised bound (vacuously
    /// true when the check was skipped or nothing was comparable).
    pub fn passed(&self) -> bool {
        self.skipped || self.quantiles_checked == 0 || self.max_rel_err <= self.tolerance + 1e-12
    }
}

/// The scale section of the offline report: bounded sketches folded from
/// the trace — per rotated segment, then merged — plus top-K offenders and
/// the sketch-vs-exact consistency check.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Aggregate-mode fold of the whole stream: per-strategy sketches,
    /// top-K offender boards, and self-overhead counters.
    pub scale: ScaleSnapshot,
    /// Regret/cost/quality sketches folded independently per rotated
    /// segment and merged — exercising the mergeability the sketches exist
    /// for. `None` when the trace has no runs.
    pub merged: Option<StrategySketches>,
    /// Rotated segments folded.
    pub segments: usize,
    /// Merged sketch vs exact sorted fold of the same observations.
    pub cross_check: SketchCrossCheck,
}

/// The per-run regret observations the recorder's scale layer inserts,
/// recomputed exactly: completed runs observe `max(target − quality, 0)`
/// (quality clamped to `[0, ∞)`), censored runs observe the full target.
fn exact_regret_observations(events: &[Event], targets: &BTreeMap<usize, f64>) -> Vec<f64> {
    let target_of = |user: &usize| targets.get(user).copied().unwrap_or(1.0);
    let mut out = Vec::new();
    for event in events {
        match event {
            Event::TrainingCompleted { user, quality, .. } => {
                let sane = if quality.is_finite() {
                    quality.max(0.0)
                } else {
                    0.0
                };
                out.push((target_of(user) - sane).max(0.0));
            }
            Event::TrainingFailed { user, .. } => out.push(target_of(user).max(0.0)),
            _ => {}
        }
    }
    out
}

/// Folds the trace into the bounded scale telemetry: one aggregate-mode
/// [`TimeSeriesRecorder`] pass over the whole stream for the snapshot, one
/// sketch fold per rotated segment merged together, and — on traces small
/// enough to sort — an exact cross-check of the merged regret quantiles.
pub fn scale_report(trace: &LoadedTrace, targets: &BTreeMap<usize, f64>) -> ScaleReport {
    let fold = |events: &[Event]| {
        let ts = TimeSeriesRecorder::aggregate(ScaleConfig::default());
        for (&user, &target) in targets {
            ts.set_target(user, target);
        }
        for event in events {
            ts.fold(event);
        }
        ts.snapshot().scale
    };

    let scale = fold(&trace.events);

    // Mergeability in anger: fold each rotated segment as if it lived on
    // its own machine, then merge the sketches.
    let segments = trace.segment_slices();
    let mut merged: Option<StrategySketches> = None;
    for slice in &segments {
        if let Some(part) = fold(slice).merged() {
            match merged.as_mut() {
                Some(acc) => {
                    acc.regret.merge(&part.regret);
                    acc.cost.merge(&part.cost);
                    acc.quality.merge(&part.quality);
                }
                None => merged = Some(part),
            }
        }
    }

    let mut cross_check = SketchCrossCheck {
        tolerance: scale.quantile_alpha,
        ..SketchCrossCheck::default()
    };
    if trace.events.len() > CROSS_CHECK_MAX_EVENTS {
        cross_check.skipped = true;
    } else if let Some(sketch) = merged.as_ref().map(|m| &m.regret) {
        let mut exact = exact_regret_observations(&trace.events, targets);
        exact.sort_by(f64::total_cmp);
        if !exact.is_empty() {
            for (q, _) in SCALE_QUANTILES {
                let rank = (q * (exact.len() - 1) as f64).floor() as usize;
                let truth = exact[rank];
                let Some(est) = sketch.quantile(q) else {
                    continue;
                };
                let rel = if truth > 1e-9 {
                    (est - truth).abs() / truth
                } else if (est - truth).abs() > 1e-9 {
                    f64::INFINITY
                } else {
                    0.0
                };
                cross_check.quantiles_checked += 1;
                if rel > cross_check.max_rel_err {
                    cross_check.max_rel_err = rel;
                }
            }
        }
    }

    ScaleReport {
        scale,
        merged,
        segments: segments.len(),
        cross_check,
    }
}

// ---------------------------------------------------------------------------
// Numerical health
// ---------------------------------------------------------------------------

/// Summary of the numerical-health event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Number of `JitterRetry` events (factorizations that needed jitter).
    pub jitter_events: u64,
    /// Total jitter attempts across those events.
    pub jitter_attempts: u64,
    /// Largest jitter that was ever needed.
    pub max_jitter: f64,
    /// Number of `PsdProjectionApplied` events.
    pub psd_projections: u64,
    /// Total eigenvalues clipped across all projections.
    pub eigenvalues_clipped: u64,
    /// Total eigenvalue mass removed.
    pub clipped_mass: f64,
    /// Largest posterior condition estimate seen on any `PosteriorUpdated`.
    pub max_condition: f64,
    /// Condition estimate of the last `PosteriorUpdated` in the trace.
    pub final_condition: f64,
    /// `PosteriorUpdated` events carrying a finite condition estimate.
    pub condition_samples: u64,
}

/// Folds `JitterRetry` / `PsdProjectionApplied` / `PosteriorUpdated.cond`
/// into a [`HealthReport`].
pub fn health_report(events: &[Event]) -> HealthReport {
    let mut out = HealthReport::default();
    for event in events {
        match event {
            Event::JitterRetry {
                attempts, jitter, ..
            } => {
                out.jitter_events += 1;
                out.jitter_attempts += attempts;
                if *jitter > out.max_jitter {
                    out.max_jitter = *jitter;
                }
            }
            Event::PsdProjectionApplied {
                clipped,
                clipped_mass,
                ..
            } => {
                out.psd_projections += 1;
                out.eigenvalues_clipped += clipped;
                if clipped_mass.is_finite() {
                    out.clipped_mass += clipped_mass;
                }
            }
            Event::PosteriorUpdated { cond, .. } if cond.is_finite() => {
                out.condition_samples += 1;
                out.final_condition = *cond;
                if *cond > out.max_condition {
                    out.max_condition = *cond;
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Converts the span events into Chrome trace-event JSON (the format
/// `chrome://tracing` and Perfetto load): one complete (`"ph":"X"`) event
/// per `SpanStart`/`SpanEnd` pair, with the span id and its parent in
/// `args` so the causal tree survives even without nesting-by-time.
///
/// Unclosed spans (a trace cut off mid-step) are emitted with zero
/// duration at their start time rather than dropped.
pub fn chrome_trace(events: &[Event]) -> String {
    struct Open {
        span: u64,
        parent: u64,
        name: String,
        start_ns: u64,
    }
    let mut open: Vec<Open> = Vec::new();
    let mut complete: Vec<(String, u64, u64, u64, u64)> = Vec::new(); // name, start, dur, span, parent
    for event in events {
        match event {
            Event::SpanStart {
                span,
                parent,
                name,
                ts_ns,
            } => open.push(Open {
                span: *span,
                parent: *parent,
                name: name.clone(),
                start_ns: *ts_ns,
            }),
            Event::SpanEnd { span, ts_ns } => {
                if let Some(pos) = open.iter().rposition(|o| o.span == *span) {
                    let o = open.remove(pos);
                    let dur = ts_ns.saturating_sub(o.start_ns);
                    complete.push((o.name, o.start_ns, dur, o.span, o.parent));
                }
            }
            _ => {}
        }
    }
    for o in open {
        complete.push((o.name, o.start_ns, 0, o.span, o.parent));
    }
    complete.sort_by_key(|&(_, start, ..)| start);

    let mut out = String::from("[");
    for (i, (name, start_ns, dur_ns, span, parent)) in complete.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"span\":{span},\"parent\":{parent}}}}}",
            easeml_obs::json::to_string(name.as_str()),
            *start_ns as f64 / 1_000.0,
            *dur_ns as f64 / 1_000.0,
        );
    }
    out.push(']');
    out
}

// ---------------------------------------------------------------------------
// Call-tree profile
// ---------------------------------------------------------------------------

/// Coverage threshold the profile section asserts for `scheduler_step`:
/// self-time over the step nodes and their descendants must account for at
/// least this fraction of the steps' wall time, or unbalanced spans /
/// clock skew are leaking attribution.
pub const PROFILE_COVERAGE_THRESHOLD: f64 = 0.95;

/// Rebuilds the aggregated call-tree profile from a loaded trace —
/// exactly the tree a live [`Profiler`](easeml_obs::Profiler) would have
/// built online (minus allocation columns, which only exist in-process).
/// Rotated segments are already concatenated by
/// [`load_trace_with_rotations`], so spans pair across rotation seams.
pub fn profile_of(trace: &LoadedTrace) -> CallTreeProfile {
    CallTreeProfile::fold(&trace.events)
}

/// Renders one profile as an indented call tree plus a per-phase rollup
/// table, with span data-quality counters and `scheduler_step` coverage.
pub fn render_profile_section(profile: &CallTreeProfile) -> String {
    let mut out = String::new();
    if profile.is_empty() {
        let _ = writeln!(out, "no spans recorded (schema v2+ traces carry spans)");
        return out;
    }
    let _ = writeln!(
        out,
        "spans: {} closed, {} unclosed, {} orphaned end(s), {} dropped exit(s)",
        profile.closed_spans(),
        profile.unclosed_spans,
        profile.orphan_ends,
        profile.dropped_exits,
    );

    let _ = writeln!(
        out,
        "{:<36} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "call tree", "calls", "total ms", "self ms", "p50 us", "p95 us"
    );
    render_profile_node(profile, 0, 0, &mut out);

    let _ = writeln!(
        out,
        "\n{:<20} {:>8} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "phase", "calls", "total ms", "self ms", "self %", "ns/call", "allocs"
    );
    let table = profile.phase_table();
    let grand_self: u64 = table.iter().map(|r| r.self_ns).sum();
    for row in &table {
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>12.3} {:>12.3} {:>7.1}% {:>12.0} {:>12}",
            row.name,
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            if grand_self == 0 {
                0.0
            } else {
                100.0 * row.self_ns as f64 / grand_self as f64
            },
            row.self_ns_per_call(),
            row.allocs,
        );
    }

    match profile.phase_coverage("scheduler_step") {
        Some((attributed, total)) if total > 0 => {
            let ratio = attributed as f64 / total as f64;
            let _ = writeln!(
                out,
                "phase coverage: {:.2}% of scheduler_step wall time attributed ({}, threshold {:.0}%)",
                ratio * 100.0,
                if ratio >= PROFILE_COVERAGE_THRESHOLD {
                    "pass"
                } else {
                    "FAIL"
                },
                PROFILE_COVERAGE_THRESHOLD * 100.0,
            );
        }
        _ => {
            let _ = writeln!(out, "phase coverage: n/a (no closed scheduler_step spans)");
        }
    }
    out
}

fn render_profile_node(profile: &CallTreeProfile, idx: usize, depth: usize, out: &mut String) {
    let nodes = profile.nodes();
    if idx != 0 {
        let n = &nodes[idx];
        let q = |p: f64| n.latency.quantile(p).unwrap_or(0.0) / 1e3;
        let label = format!("{}{}", "  ".repeat(depth - 1), n.name);
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>12.3} {:>12.3} {:>10.1} {:>10.1}",
            label,
            n.count,
            n.total_ns as f64 / 1e6,
            n.self_ns as f64 / 1e6,
            q(0.5),
            q(0.95),
        );
    }
    for &c in &nodes[idx].children {
        render_profile_node(profile, c, depth + 1, out);
    }
}

/// Renders the `easeml-trace profile` report: the merged call tree over
/// every run, and — when the runs span at least two distinct tenant
/// counts — the per-phase empirical scaling exponents fitted by
/// [`scaling_exponents`].
pub fn render_profile(runs: &[(usize, CallTreeProfile)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== easeml-trace profile ===");
    let users: Vec<usize> = runs.iter().map(|(u, _)| *u).collect();
    let _ = writeln!(out, "runs: {}  tenant counts: {:?}", runs.len(), users);

    let mut merged = CallTreeProfile::new();
    for (_, profile) in runs {
        merged.merge(profile);
    }
    let _ = writeln!(out, "\n--- call-tree profile (all runs merged) ---");
    out.push_str(&render_profile_section(&merged));

    let borrowed: Vec<(usize, &CallTreeProfile)> = runs.iter().map(|(u, p)| (*u, p)).collect();
    let fits = scaling_exponents(&borrowed);
    let _ = writeln!(out, "\n--- empirical scaling (self ns/call vs U) ---");
    if fits.is_empty() {
        let _ = writeln!(
            out,
            "need runs at >= 2 distinct tenant counts to fit exponents"
        );
    } else {
        let _ = writeln!(
            out,
            "{:<20} {:>10}  per-call self time across the sweep",
            "phase", "exponent"
        );
        for fit in &fits {
            let pts = fit
                .points
                .iter()
                .map(|(u, ns)| format!("U={u}: {:.0}ns", ns))
                .collect::<Vec<_>>()
                .join("  ");
            let _ = writeln!(
                out,
                "{:<20} {:>10}  {}",
                fit.phase,
                format_exponent(fit),
                pts
            );
        }
        let _ = writeln!(
            out,
            "reading: exponent ~1 means the phase costs O(U) per step, ~0 means \
             constant; pick_user is the ROADMAP-1 target."
        );
    }
    out
}

fn format_exponent(fit: &PhaseScaling) -> String {
    format!("O(U^{:.2})", fit.exponent)
}

// ---------------------------------------------------------------------------
// The human-readable report
// ---------------------------------------------------------------------------

/// Renders the full offline report — regret decomposition, calibration
/// table, fallback timeline, numerical health — as plain text.
pub fn render_report(trace: &LoadedTrace, targets: &BTreeMap<usize, f64>) -> String {
    let regret = regret_report(&trace.events, targets);
    let calibration = calibration_report(&trace.events);
    let fallbacks = fallback_timeline(&trace.events);
    let health = health_report(&trace.events);
    let faults = fault_report(&trace.events);
    let exec = exec_report(&trace.events);
    let scale = scale_report(trace, targets);

    let mut out = String::new();
    let _ = writeln!(out, "=== easeml-trace report ===");
    let _ = writeln!(
        out,
        "events: {}  (schema v{}, {} unparseable line(s) skipped)",
        trace.events.len(),
        trace
            .schema_version
            .map_or("?".to_string(), |v| v.to_string()),
        trace.skipped_lines,
    );
    if let (Some(first), Some(last)) = (trace.first_seq, trace.last_seq) {
        let _ = writeln!(
            out,
            "frames: seq {first}..={last}  missing: {}  file segment(s): {}",
            trace.seq_gaps,
            trace.segments.len().max(1),
        );
    }
    let _ = writeln!(
        out,
        "rounds: {}  simulated cost: {:.4}",
        regret.rounds, regret.clock
    );

    let _ = writeln!(out, "\n--- regret decomposition (Theorem 1) ---");
    let _ = writeln!(
        out,
        "{:>6}  {:>14}  {:>14}  {:>14}  {:>9}",
        "user", "arm-picking", "user-picking", "total", "split-err"
    );
    for (user, d) in &regret.per_user {
        let _ = writeln!(
            out,
            "{user:>6}  {:>14.6}  {:>14.6}  {:>14.6}  {:>9.1e}",
            d.arm_picking,
            d.user_picking,
            d.total,
            (d.sum() - d.total).abs(),
        );
    }
    let agg = &regret.aggregate;
    let _ = writeln!(
        out,
        "{:>6}  {:>14.6}  {:>14.6}  {:>14.6}  {:>9.1e}",
        "all",
        agg.arm_picking,
        agg.user_picking,
        agg.total,
        (agg.sum() - agg.total).abs(),
    );
    let _ = writeln!(
        out,
        "decomposition consistent: {}",
        regret.is_consistent(1e-9)
    );

    let _ = writeln!(out, "\n--- GP calibration ---");
    if calibration.pairs == 0 {
        let _ = writeln!(
            out,
            "no scorable prediction/outcome pairs ({} unscored)",
            calibration.unscored
        );
    } else {
        let _ = writeln!(
            out,
            "pairs: {}  unscored: {}  mean residual: {:+.4}  rms z: {:.3}",
            calibration.pairs, calibration.unscored, calibration.mean_residual, calibration.rms_z
        );
        let _ = writeln!(out, "{:>9}  {:>9}", "nominal", "observed");
        for (nominal, observed) in &calibration.coverage {
            let _ = writeln!(out, "{:>8.0}%  {:>8.1}%", nominal * 100.0, observed * 100.0);
        }
    }

    let _ = writeln!(out, "\n--- hybrid fallbacks ---");
    if fallbacks.is_empty() {
        let _ = writeln!(out, "none");
    } else {
        for f in &fallbacks {
            let _ = writeln!(
                out,
                "at cost {:.4} (round {}): {}",
                f.clock, f.rounds, f.reason
            );
        }
    }

    let _ = writeln!(out, "\n--- fault tolerance ---");
    let _ = writeln!(
        out,
        "TrainingFailed: {}  (censored cost {:.4})",
        faults.failed_runs, faults.censored_cost
    );
    for (kind, count) in &faults.by_kind {
        let _ = writeln!(out, "  {kind}: {count}");
    }
    let _ = writeln!(
        out,
        "retries: {}  (backoff cost {:.4})",
        faults.retries, faults.backoff_cost
    );
    if faults.quarantines == 0 {
        let _ = writeln!(out, "quarantines: 0");
    } else {
        let _ = writeln!(
            out,
            "quarantines: {}  arms {:?}",
            faults.quarantines, faults.quarantined_arms
        );
    }
    match faults.last_checkpoint_bytes {
        Some(bytes) => {
            let _ = writeln!(
                out,
                "checkpoints: {}  (last {} bytes)",
                faults.checkpoints, bytes
            );
        }
        None => {
            let _ = writeln!(out, "checkpoints: 0");
        }
    }

    if exec.dispatches > 0 {
        let _ = writeln!(out, "\n--- multi-device execution ---");
        let _ = writeln!(
            out,
            "dispatches: {}  finished: {} (censored {})  peak in-flight: {}  makespan: {:.4}",
            exec.dispatches, exec.completions, exec.censored, exec.peak_in_flight, exec.makespan
        );
        for (device, usage) in &exec.per_device {
            let _ = writeln!(
                out,
                "device {device}: runs {} (censored {})  busy {:.4}  utilization {:.1}%  \
                 idle-gaps {} (total {:.4}, max {:.4})",
                usage.dispatches,
                usage.censored,
                usage.busy,
                exec.utilization(*device) * 100.0,
                usage.idle_gaps,
                usage.idle_gap_total,
                usage.idle_gap_max,
            );
        }
        let _ = writeln!(
            out,
            "mean device queueing delay: {:.4}",
            exec.mean_queueing_delay()
        );
        let sketch_line = |name: &str, sketch: &QuantileSketch| {
            let mut line = format!("{name} quantiles:");
            for (q, label) in SCALE_QUANTILES {
                let _ = write!(line, "  {label} {:.4}", sketch.quantile(q).unwrap_or(0.0));
            }
            let _ = write!(line, "  ({} sample(s))", sketch.count());
            line
        };
        if exec.queueing_delay.count() > 0 {
            let _ = writeln!(
                out,
                "{}",
                sketch_line("queueing-delay", &exec.queueing_delay)
            );
        }
        if exec.busy_spans.count() > 0 {
            let _ = writeln!(out, "{}", sketch_line("busy-span", &exec.busy_spans));
        }
    }

    let _ = writeln!(out, "\n--- telemetry at scale ---");
    match scale.merged.as_ref() {
        None => {
            let _ = writeln!(out, "no run observations");
        }
        Some(merged) => {
            let _ = writeln!(
                out,
                "run observations: {}  strategy group(s): {}  segment(s) merged: {}  \
                 sketch bytes: {}",
                merged.regret.count(),
                scale.scale.strategies.len(),
                scale.segments,
                scale.scale.approx_state_bytes,
            );
            let _ = writeln!(
                out,
                "{:>9}  {:>12}  {:>12}  {:>12}",
                "quantile", "regret", "cost", "quality"
            );
            for (q, label) in SCALE_QUANTILES {
                let _ = writeln!(
                    out,
                    "{label:>9}  {:>12.6}  {:>12.6}  {:>12.6}",
                    merged.regret.quantile(q).unwrap_or(0.0),
                    merged.cost.quantile(q).unwrap_or(0.0),
                    merged.quality.quantile(q).unwrap_or(0.0),
                );
            }
            let offenders = |board: &[easeml_obs::TopTenant]| {
                board
                    .iter()
                    .take(3)
                    .map(|t| format!("user {} ({:.4})", t.user, t.weight))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            if !scale.scale.worst_regret.is_empty() {
                let _ = writeln!(
                    out,
                    "top regret-weight: {}",
                    offenders(&scale.scale.worst_regret)
                );
            }
            if !scale.scale.worst_cost.is_empty() {
                let _ = writeln!(
                    out,
                    "top cost-weight: {}",
                    offenders(&scale.scale.worst_cost)
                );
            }
            let check = &scale.cross_check;
            if check.skipped {
                let _ = writeln!(
                    out,
                    "sketch-vs-exact cross-check: skipped ({} events > {})",
                    trace.events.len(),
                    CROSS_CHECK_MAX_EVENTS
                );
            } else {
                let _ = writeln!(
                    out,
                    "sketch-vs-exact cross-check: {} (max rel err {:.2}% <= {:.2}%, \
                     {} quantile(s))",
                    if check.passed() { "pass" } else { "FAIL" },
                    check.max_rel_err * 100.0,
                    check.tolerance * 100.0,
                    check.quantiles_checked,
                );
            }
        }
    }

    let _ = writeln!(out, "\n--- call-tree profile ---");
    out.push_str(&render_profile_section(&profile_of(trace)));

    let _ = writeln!(out, "\n--- numerical health ---");
    let _ = writeln!(
        out,
        "jitter retries: {} event(s), {} attempt(s), max jitter {:.3e}",
        health.jitter_events, health.jitter_attempts, health.max_jitter
    );
    let _ = writeln!(
        out,
        "psd projections: {} event(s), {} eigenvalue(s) clipped, mass {:.3e}",
        health.psd_projections, health.eigenvalues_clipped, health.clipped_mass
    );
    if health.condition_samples > 0 {
        let _ = writeln!(
            out,
            "posterior condition estimate: max {:.3e}, final {:.3e} ({} samples)",
            health.max_condition, health.final_condition, health.condition_samples
        );
    } else {
        let _ = writeln!(out, "posterior condition estimate: no samples");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(user: usize, model: usize, cost: f64, quality: f64) -> Event {
        Event::TrainingCompleted {
            user,
            model,
            cost,
            quality,
            parent: 0,
        }
    }

    fn chosen(user: usize, mean: f64, sigma: f64) -> Event {
        Event::ArmChosen {
            user,
            arm: 0,
            ucb: mean + 2.0 * sigma,
            beta: 4.0,
            cost: 1.0,
            mean,
            sigma,
            parent: 0,
        }
    }

    fn span_pair(span: u64, parent: u64, name: &str, start: u64, end: u64) -> [Event; 2] {
        [
            Event::SpanStart {
                span,
                parent,
                name: name.to_string(),
                ts_ns: start,
            },
            Event::SpanEnd { span, ts_ns: end },
        ]
    }

    fn step_events(first_span: u64, base_ts: u64, pick_ns: u64) -> Vec<Event> {
        let s = first_span;
        let mut out = Vec::new();
        let [start, stop] = span_pair(s, 0, "scheduler_step", base_ts, base_ts + pick_ns + 3_000);
        let [p_start, p_stop] = span_pair(
            s + 1,
            s,
            "pick_user",
            base_ts + 100,
            base_ts + 100 + pick_ns,
        );
        let [u_start, u_stop] = span_pair(
            s + 2,
            s,
            "posterior_update",
            base_ts + pick_ns + 500,
            base_ts + pick_ns + 2_500,
        );
        out.push(start);
        out.push(p_start);
        out.push(p_stop);
        out.push(u_start);
        out.push(u_stop);
        out.push(stop);
        out
    }

    #[test]
    fn profile_section_reports_coverage_and_phases() {
        let mut events = step_events(1, 0, 10_000);
        events.extend(step_events(10, 100_000, 12_000));
        let trace = LoadedTrace {
            events,
            ..LoadedTrace::default()
        };
        let profile = profile_of(&trace);
        assert_eq!(profile.closed_spans(), 6);
        let section = render_profile_section(&profile);
        assert!(section.contains("spans: 6 closed, 0 unclosed"), "{section}");
        assert!(section.contains("scheduler_step"), "{section}");
        assert!(section.contains("pick_user"), "{section}");
        // Every nanosecond of the two steps decomposes into self times.
        assert!(
            section
                .contains("phase coverage: 100.00% of scheduler_step wall time attributed (pass"),
            "{section}"
        );
    }

    #[test]
    fn render_profile_fits_scaling_exponents_across_a_sweep() {
        // pick_user self-time per call grows ~linearly in U, the
        // posterior update stays constant.
        let mut runs = Vec::new();
        for &u in &[1_000usize, 10_000, 100_000] {
            let trace = LoadedTrace {
                events: step_events(1, 0, u as u64),
                ..LoadedTrace::default()
            };
            runs.push((u, profile_of(&trace)));
        }
        let rendered = render_profile(&runs);
        assert!(
            rendered.contains("tenant counts: [1000, 10000, 100000]"),
            "{rendered}"
        );
        let pick_line = rendered
            .lines()
            .find(|l| l.starts_with("pick_user") && l.contains("O(U^"))
            .expect("pick_user exponent line");
        let exp: f64 = pick_line
            .split("O(U^")
            .nth(1)
            .unwrap()
            .split(')')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((exp - 1.0).abs() < 0.05, "{pick_line}");
        let update_line = rendered
            .lines()
            .find(|l| l.starts_with("posterior_update") && l.contains("O(U^"))
            .expect("posterior_update exponent line");
        let exp: f64 = update_line
            .split("O(U^")
            .nth(1)
            .unwrap()
            .split(')')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(exp.abs() < 0.05, "{update_line}");
    }

    #[test]
    fn report_includes_the_profile_section_for_span_traces() {
        let trace = LoadedTrace {
            events: step_events(1, 0, 5_000),
            ..LoadedTrace::default()
        };
        let report = render_report(&trace, &BTreeMap::new());
        assert!(report.contains("--- call-tree profile ---"), "{report}");
        assert!(report.contains("phase coverage:"), "{report}");
        // A span-free trace degrades gracefully.
        let empty = LoadedTrace {
            events: vec![completed(0, 0, 1.0, 0.5)],
            ..LoadedTrace::default()
        };
        let report = render_report(&empty, &BTreeMap::new());
        assert!(report.contains("no spans recorded"), "{report}");
    }

    #[test]
    fn parser_accepts_all_three_line_shapes() {
        let text = concat!(
            "{\"schema\":\"easeml-trace\",\"version\":2}\n",
            "{\"seq\":1,\"event\":{\"TrainingCompleted\":{\"user\":0,\"model\":1,\
             \"cost\":1.0,\"quality\":0.5,\"parent\":0}}}\n",
            "{\"HybridFallback\":{\"reason\":\"frozen\",\"parent\":0}}\n",
            "\n",
            "garbage line\n",
            "{\"seq\":2,\"event\":{\"SpanEnd\":{\"span\":3,\"ts_ns\":12}}}\n",
        );
        let trace = parse_trace(text);
        assert_eq!(trace.schema_version, Some(2));
        assert_eq!(trace.skipped_lines, 1);
        assert_eq!(trace.events.len(), 3);
        assert!(matches!(trace.events[0], Event::TrainingCompleted { .. }));
        assert!(matches!(trace.events[1], Event::HybridFallback { .. }));
        assert!(matches!(trace.events[2], Event::SpanEnd { span: 3, .. }));
    }

    #[test]
    fn regret_report_matches_the_live_recorder_fold() {
        let events = vec![
            completed(0, 0, 2.0, 0.5),
            completed(1, 0, 1.0, 0.8),
            completed(0, 1, 4.0, 0.9),
        ];
        let report = regret_report(&events, &BTreeMap::new());
        // Independently fold through the live recorder: totals must agree
        // exactly — it is literally the same fold.
        let ts = TimeSeriesRecorder::new();
        for e in &events {
            ts.fold(e);
        }
        let live = ts.snapshot().cum_regret();
        assert_eq!(report.aggregate.total, live.total);
        assert_eq!(report.aggregate.arm_picking, live.arm_picking);
        assert!(report.is_consistent(1e-12));
        assert_eq!(report.rounds, 3);
        assert!((report.clock - 7.0).abs() < 1e-12);
        assert_eq!(report.per_user.len(), 2);
    }

    #[test]
    fn regret_report_honours_explicit_targets() {
        let events = vec![completed(0, 0, 1.0, 0.8)];
        let mut targets = BTreeMap::new();
        targets.insert(0usize, 0.8);
        let with_target = regret_report(&events, &targets);
        // Pre-completion regret is 0.8 over 1 unit of cost, then zero.
        assert!((with_target.per_user[&0].total - 0.8).abs() < 1e-12);
        let without = regret_report(&events, &BTreeMap::new());
        assert!((without.per_user[&0].total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_pairs_predictions_with_next_completion_per_user() {
        // User 0: a perfectly calibrated prediction (outcome == mean) and
        // one three-σ miss; user 1 interleaves and pairs independently.
        let events = vec![
            chosen(0, 0.5, 0.1),
            chosen(1, 0.2, 0.1),
            completed(1, 0, 1.0, 0.2), // pairs with user 1's prediction
            completed(0, 0, 1.0, 0.5), // pairs with user 0's first
            chosen(0, 0.5, 0.1),
            completed(0, 1, 1.0, 0.95), // 4.5σ above the mean
        ];
        let report = calibration_report(&events);
        assert_eq!(report.pairs, 3);
        assert_eq!(report.unscored, 0);
        // Two of three outcomes are inside every interval; the 4.5σ miss
        // is outside all of them.
        for (nominal, observed) in &report.coverage {
            assert!(
                (*observed - 2.0 / 3.0).abs() < 1e-12,
                "{nominal}: {observed}"
            );
        }
        assert!(report.rms_z > 1.0, "the miss inflates rms z");
    }

    #[test]
    fn calibration_skips_v1_predictions_without_posterior_stats() {
        let events = vec![
            Event::ArmChosen {
                user: 0,
                arm: 0,
                ucb: 1.0,
                beta: 4.0,
                cost: 1.0,
                mean: f64::NAN,
                sigma: f64::NAN,
                parent: 0,
            },
            completed(0, 0, 1.0, 0.5),
        ];
        let report = calibration_report(&events);
        assert_eq!(report.pairs, 0);
        assert_eq!(report.unscored, 1);
    }

    #[test]
    fn fallback_timeline_locates_fallbacks_on_the_cost_clock() {
        let events = vec![
            completed(0, 0, 2.0, 0.5),
            completed(1, 0, 3.0, 0.6),
            Event::HybridFallback {
                reason: "frozen".into(),
                parent: 0,
            },
            completed(0, 1, 1.0, 0.7),
        ];
        let timeline = fallback_timeline(&events);
        assert_eq!(timeline.len(), 1);
        assert!((timeline[0].clock - 5.0).abs() < 1e-12);
        assert_eq!(timeline[0].rounds, 2);
        assert_eq!(timeline[0].reason, "frozen");
    }

    fn failed(user: usize, model: usize, cost: f64, kind: &str, attempt: u64) -> Event {
        Event::TrainingFailed {
            user,
            model,
            cost,
            kind: kind.into(),
            attempt,
            parent: 0,
        }
    }

    #[test]
    fn fallback_timeline_charges_censored_cost_to_the_clock() {
        let events = vec![
            completed(0, 0, 2.0, 0.5),
            failed(1, 0, 3.0, "crash", 1),
            Event::HybridFallback {
                reason: "frozen".into(),
                parent: 0,
            },
        ];
        let timeline = fallback_timeline(&events);
        assert_eq!(timeline.len(), 1);
        // The censored run advanced the clock but not the round count.
        assert!((timeline[0].clock - 5.0).abs() < 1e-12);
        assert_eq!(timeline[0].rounds, 1);
    }

    #[test]
    fn fault_report_aggregates_the_fault_vocabulary() {
        let events = vec![
            failed(0, 2, 1.5, "crash", 1),
            Event::RetryScheduled {
                user: 0,
                model: 2,
                attempt: 2,
                backoff_cost: 0.25,
                parent: 0,
            },
            failed(0, 2, 1.75, "crash", 2),
            failed(1, 0, 4.0, "timeout", 1),
            Event::ArmQuarantined {
                user: 0,
                model: 2,
                failures: 2,
                probation_rounds: 16,
                parent: 0,
            },
            completed(1, 1, 1.0, 0.8),
            Event::CheckpointWritten {
                rounds: 1,
                users: 2,
                bytes: 4096,
                parent: 0,
            },
        ];
        let report = fault_report(&events);
        assert_eq!(report.failed_runs, 3);
        assert!((report.censored_cost - 7.25).abs() < 1e-12);
        assert_eq!(report.by_kind.get("crash"), Some(&2));
        assert_eq!(report.by_kind.get("timeout"), Some(&1));
        assert_eq!(report.by_user.get(&0), Some(&2));
        assert_eq!(report.by_user.get(&1), Some(&1));
        assert_eq!(report.retries, 1);
        assert!((report.backoff_cost - 0.25).abs() < 1e-12);
        assert_eq!(report.quarantines, 1);
        assert_eq!(report.quarantined_arms, vec![(0, 2)]);
        assert_eq!(report.checkpoints, 1);
        assert_eq!(report.last_checkpoint_bytes, Some(4096));
    }

    #[test]
    fn fault_report_is_all_zero_on_pre_v3_traces() {
        let events = vec![completed(0, 0, 1.0, 0.5), chosen(0, 0.4, 0.1)];
        assert_eq!(fault_report(&events), FaultReport::default());
    }

    #[test]
    fn faulty_trace_keeps_the_regret_decomposition_consistent() {
        // Censored runs integrate regret over the wasted interval; the
        // Theorem 1 split must still sum to the undecomposed total.
        let events = vec![
            completed(0, 0, 2.0, 0.5),
            failed(0, 1, 3.0, "crash", 1),
            completed(1, 0, 1.0, 0.7),
            failed(1, 2, 0.5, "timeout", 1),
            completed(0, 1, 4.0, 0.9),
        ];
        let report = regret_report(&events, &BTreeMap::new());
        assert!(report.is_consistent(1e-9), "{report:?}");
        // Clock includes the censored cost; rounds only count completions.
        assert!((report.clock - 10.5).abs() < 1e-12);
        assert_eq!(report.rounds, 3);
    }

    fn dispatched(user: usize, model: usize, device: usize, at: f64) -> Event {
        Event::RunDispatched {
            user,
            model,
            device,
            cost: 1.0,
            at,
            parent: 0,
        }
    }

    fn finished(user: usize, model: usize, device: usize, at: f64, ok: bool) -> Event {
        Event::RunFinished {
            user,
            model,
            device,
            at,
            ok,
            parent: 0,
        }
    }

    #[test]
    fn exec_report_tracks_devices_overlap_and_queueing_delay() {
        // Device 0 runs two jobs back to back with an idle gap between;
        // device 1 (two slots) overlaps two jobs, one of them censored.
        let events = vec![
            dispatched(0, 0, 0, 0.0),
            dispatched(1, 0, 1, 0.0),
            dispatched(2, 1, 1, 0.5),
            finished(0, 0, 0, 2.0, true),
            finished(1, 0, 1, 2.5, true),
            Event::DeviceIdle {
                device: 0,
                idle: 1.0,
                at: 3.0,
                parent: 0,
            },
            dispatched(0, 1, 0, 3.0),
            finished(2, 1, 1, 3.5, false),
            finished(0, 1, 0, 4.0, true),
        ];
        let report = exec_report(&events);
        assert_eq!(report.dispatches, 4);
        assert_eq!(report.completions, 4);
        assert_eq!(report.censored, 1);
        assert_eq!(report.peak_in_flight, 3);
        assert!((report.makespan - 4.0).abs() < 1e-12);
        let d0 = &report.per_device[&0];
        assert_eq!(d0.dispatches, 2);
        assert_eq!(d0.censored, 0);
        assert!((d0.busy - 3.0).abs() < 1e-12, "2.0 + 1.0 slot-time");
        assert_eq!(d0.idle_gaps, 1);
        assert!((d0.idle_gap_max - 1.0).abs() < 1e-12);
        let d1 = &report.per_device[&1];
        assert_eq!(d1.dispatches, 2);
        assert_eq!(d1.censored, 1);
        assert!((d1.busy - 5.5).abs() < 1e-12, "overlapping 2.5 + 3.0");
        assert!((report.utilization(0) - 3.0 / 4.0).abs() < 1e-12);
        assert!(
            (report.utilization(1) - 5.5 / 4.0).abs() < 1e-12,
            "multi-slot > 1"
        );
        assert!((report.mean_queueing_delay() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exec_report_is_empty_on_serial_traces() {
        let events = vec![completed(0, 0, 1.0, 0.5), chosen(0, 0.4, 0.1)];
        let report = exec_report(&events);
        assert_eq!(report, ExecReport::default());
        // And the rendered report omits the section entirely.
        let trace = LoadedTrace {
            events,
            schema_version: Some(3),
            ..LoadedTrace::default()
        };
        let text = render_report(&trace, &BTreeMap::new());
        assert!(!text.contains("multi-device execution"), "{text}");
    }

    #[test]
    fn schema_support_tracks_the_obs_version_and_rejects_newer_traces() {
        // The supported ceiling derives from `easeml_obs::TRACE_SCHEMA_VERSION`
        // at compile time — adding the v6 workload vocabulary moved it with
        // no change here. Pin the current value so a bump is a conscious act.
        assert_eq!(MAX_SUPPORTED_SCHEMA_VERSION, 6);
        let v6 = parse_trace(
            "{\"schema\":\"easeml-trace\",\"version\":6}\n\
             {\"JobArrived\":{\"user\":0,\"seq\":0,\"at\":1.5,\"parent\":0}}\n",
        );
        assert_eq!(v6.schema_version, Some(6));
        assert!(check_schema_version(&v6).is_ok());
        assert!(matches!(v6.events[0], Event::JobArrived { user: 0, .. }));
        let mut v7 = v6.clone();
        v7.schema_version = Some(7);
        let err = check_schema_version(&v7).unwrap_err();
        assert!(err.contains("schema v7"), "{err}");
        assert!(err.contains("v1..=v6"), "{err}");
        assert!(err.contains("upgrade easeml-trace"), "{err}");
    }

    #[test]
    fn report_renders_the_execution_section_for_v4_traces() {
        let events = vec![
            dispatched(0, 0, 0, 0.0),
            finished(0, 0, 0, 1.0, true),
            completed(0, 0, 1.0, 0.5),
        ];
        let trace = LoadedTrace {
            events,
            schema_version: Some(4),
            ..LoadedTrace::default()
        };
        let text = render_report(&trace, &BTreeMap::new());
        for needle in [
            "--- multi-device execution ---",
            "dispatches: 1  finished: 1 (censored 0)  peak in-flight: 1",
            "device 0: runs 1 (censored 0)  busy 1.0000  utilization 100.0%",
            "mean device queueing delay: 0.0000",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn health_report_aggregates_numerical_events() {
        let events = vec![
            Event::JitterRetry {
                attempts: 2,
                jitter: 1e-8,
                parent: 0,
            },
            Event::JitterRetry {
                attempts: 3,
                jitter: 1e-6,
                parent: 0,
            },
            Event::PsdProjectionApplied {
                floor: 0.0,
                clipped: 2,
                clipped_mass: 0.5,
                parent: 0,
            },
            Event::PosteriorUpdated {
                arm: 0,
                reward: 0.5,
                num_obs: 1,
                cond: 10.0,
                parent: 0,
            },
            Event::PosteriorUpdated {
                arm: 0,
                reward: 0.5,
                num_obs: 2,
                cond: 4.0,
                parent: 0,
            },
        ];
        let h = health_report(&events);
        assert_eq!(h.jitter_events, 2);
        assert_eq!(h.jitter_attempts, 5);
        assert!((h.max_jitter - 1e-6).abs() < 1e-18);
        assert_eq!(h.psd_projections, 1);
        assert_eq!(h.eigenvalues_clipped, 2);
        assert!((h.clipped_mass - 0.5).abs() < 1e-12);
        assert_eq!(h.condition_samples, 2);
        assert_eq!(h.max_condition, 10.0);
        assert_eq!(h.final_condition, 4.0);
    }

    #[test]
    fn chrome_trace_nests_and_pairs_spans() {
        let events = vec![
            Event::SpanStart {
                span: 1,
                parent: 0,
                name: "scheduler_step".into(),
                ts_ns: 1_000,
            },
            Event::SpanStart {
                span: 2,
                parent: 1,
                name: "pick_arm".into(),
                ts_ns: 2_000,
            },
            Event::SpanEnd {
                span: 2,
                ts_ns: 3_000,
            },
            Event::SpanEnd {
                span: 1,
                ts_ns: 5_000,
            },
            Event::SpanStart {
                span: 3,
                parent: 0,
                name: "unclosed".into(),
                ts_ns: 6_000,
            },
        ];
        let json = chrome_trace(&events);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(
            json.contains(
                "{\"name\":\"scheduler_step\",\"ph\":\"X\",\"ts\":1.000,\"dur\":4.000,\
                 \"pid\":1,\"tid\":1,\"args\":{\"span\":1,\"parent\":0}}"
            ),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"pick_arm\",\"ph\":\"X\",\"ts\":2.000,\"dur\":1.000"),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"unclosed\",\"ph\":\"X\",\"ts\":6.000,\"dur\":0.000"),
            "{json}"
        );
        // Three complete events, comma-separated.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn report_renders_every_section() {
        let events = vec![
            chosen(0, 0.4, 0.2),
            completed(0, 0, 1.0, 0.5),
            Event::HybridFallback {
                reason: "frozen".into(),
                parent: 0,
            },
            Event::JitterRetry {
                attempts: 1,
                jitter: 1e-9,
                parent: 0,
            },
            failed(0, 1, 2.0, "crash", 1),
        ];
        let trace = LoadedTrace {
            events,
            schema_version: Some(3),
            ..LoadedTrace::default()
        };
        let text = render_report(&trace, &BTreeMap::new());
        for section in [
            "regret decomposition (Theorem 1)",
            "decomposition consistent: true",
            "GP calibration",
            "hybrid fallbacks",
            "fault tolerance",
            "TrainingFailed: 1  (censored cost 2.0000)",
            "  crash: 1",
            "numerical health",
            "jitter retries: 1 event(s)",
            "telemetry at scale",
            "sketch-vs-exact cross-check: pass",
        ] {
            assert!(text.contains(section), "missing {section:?} in:\n{text}");
        }
    }

    fn seq_frame(seq: u64, event: &Event) -> String {
        format!("{{\"seq\":{seq},\"event\":{}}}", event.to_json())
    }

    #[test]
    fn seq_frames_surface_gaps_and_bounds() {
        let text = format!(
            "{}\n{}\n{}\n",
            seq_frame(1, &completed(0, 0, 1.0, 0.5)),
            seq_frame(2, &completed(1, 0, 1.0, 0.6)),
            seq_frame(5, &completed(2, 0, 1.0, 0.7)), // 3 and 4 lost
        );
        let trace = parse_trace(&text);
        assert_eq!(trace.first_seq, Some(1));
        assert_eq!(trace.last_seq, Some(5));
        assert_eq!(trace.seq_gaps, 2);
        let report = render_report(&trace, &BTreeMap::new());
        assert!(
            report.contains("frames: seq 1..=5  missing: 2  file segment(s): 1"),
            "{report}"
        );
    }

    #[test]
    fn rotation_merge_restores_recording_order_and_counts_seams() {
        let dir = std::env::temp_dir().join(format!("easeml-trace-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let live = dir.join("trace.jsonl");
        // `.2` is the oldest segment, `.1` newer, the live file newest.
        // Frame 4 was lost between `.1` and the live file.
        std::fs::write(
            dir.join("trace.jsonl.2"),
            format!(
                "{{\"schema\":\"easeml-trace\",\"version\":4}}\n{}\n",
                seq_frame(1, &completed(0, 0, 1.0, 0.1))
            ),
        )
        .unwrap();
        std::fs::write(
            dir.join("trace.jsonl.1"),
            format!(
                "{}\n{}\n",
                seq_frame(2, &completed(1, 0, 1.0, 0.2)),
                seq_frame(3, &completed(2, 0, 1.0, 0.3))
            ),
        )
        .unwrap();
        std::fs::write(
            &live,
            format!("{}\n", seq_frame(5, &completed(3, 0, 1.0, 0.4))),
        )
        .unwrap();

        let trace = load_trace_with_rotations(&live).unwrap();
        assert_eq!(trace.events.len(), 4);
        let users: Vec<usize> = trace
            .events
            .iter()
            .map(|e| match e {
                Event::TrainingCompleted { user, .. } => *user,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(users, vec![0, 1, 2, 3]);
        assert_eq!(trace.schema_version, Some(4));
        assert_eq!(trace.first_seq, Some(1));
        assert_eq!(trace.last_seq, Some(5));
        assert_eq!(trace.seq_gaps, 1);
        assert_eq!(trace.segments.len(), 3);
        assert_eq!(trace.segment_slices().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scale_report_cross_checks_sketch_against_exact() {
        // A deliberately lumpy stream: three quality tiers plus failures,
        // split across two segments to exercise the sketch merge.
        let mut first = LoadedTrace {
            segments: vec![0],
            ..LoadedTrace::default()
        };
        let mut second = LoadedTrace {
            segments: vec![0],
            ..LoadedTrace::default()
        };
        for i in 0..120usize {
            let quality = match i % 3 {
                0 => 0.9,
                1 => 0.5,
                _ => 0.2,
            };
            let event = if i % 17 == 0 {
                failed(i % 7, 0, 1.0, "crash", 1)
            } else {
                completed(i % 7, 0, 0.5 + (i % 5) as f64, quality)
            };
            if i < 60 {
                first.events.push(event);
            } else {
                second.events.push(event);
            }
        }
        first.merge(second);
        let report = scale_report(&first, &BTreeMap::new());
        assert_eq!(report.segments, 2);
        let merged = report.merged.as_ref().unwrap();
        assert_eq!(merged.regret.count(), 120);
        let check = &report.cross_check;
        assert!(!check.skipped);
        assert_eq!(check.quantiles_checked, SCALE_QUANTILES.len());
        assert!(
            check.passed(),
            "max rel err {} over tolerance {}",
            check.max_rel_err,
            check.tolerance
        );
        // The merged sketch must agree with a single whole-stream fold.
        let whole = scale_report(
            &LoadedTrace {
                events: first.events.clone(),
                segments: vec![0],
                ..LoadedTrace::default()
            },
            &BTreeMap::new(),
        );
        // Bucket-identical (the running `sum` may differ in the last ulp
        // from the different accumulation order).
        let whole_regret = &whole.merged.as_ref().unwrap().regret;
        assert_eq!(whole_regret.count(), merged.regret.count());
        for (q, _) in SCALE_QUANTILES {
            assert_eq!(whole_regret.quantile(q), merged.regret.quantile(q));
        }
        // Top offender boards are populated from the same fold.
        assert!(!report.scale.worst_cost.is_empty());
        assert!(!report.scale.worst_regret.is_empty());
    }

    #[test]
    fn exec_report_sketches_follow_the_device_stream() {
        let events = vec![
            Event::RunDispatched {
                user: 0,
                model: 0,
                device: 0,
                cost: 1.0,
                at: 0.0,
                parent: 0,
            },
            Event::RunFinished {
                user: 0,
                model: 0,
                device: 0,
                at: 2.0,
                ok: true,
                parent: 0,
            },
            Event::DeviceIdle {
                device: 0,
                idle: 0.5,
                at: 2.5,
                parent: 0,
            },
        ];
        let report = exec_report(&events);
        assert_eq!(report.busy_spans.count(), 1);
        assert!((report.busy_spans.quantile(0.5).unwrap() - 2.0).abs() <= 0.02 * 2.0);
        assert_eq!(report.queueing_delay.count(), 1);
        assert!((report.queueing_delay.quantile(0.5).unwrap() - 0.5).abs() <= 0.02 * 0.5);
        let trace = LoadedTrace {
            events,
            schema_version: Some(4),
            ..LoadedTrace::default()
        };
        let text = render_report(&trace, &BTreeMap::new());
        assert!(text.contains("queueing-delay quantiles:"), "{text}");
        assert!(text.contains("busy-span quantiles:"), "{text}");
    }
}
