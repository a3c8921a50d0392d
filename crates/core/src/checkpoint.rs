//! The crash-safe checkpoint document.
//!
//! [`CheckpointDoc`] is a plain-data snapshot of everything
//! [`EaseMl`](crate::server::EaseMl) needs to resume mid-experiment:
//! tenants' posterior sufficient statistics (their observation sequences —
//! replaying them through the same numeric path rebuilds bit-identical GP
//! state) and billing counters, the HYBRID picker's freeze detector, the
//! simulated clock, the RNG stream position, and the fault/retry
//! bookkeeping.
//!
//! Serialization uses the same hand-rolled JSON as the trace stack:
//! finite floats round-trip bit-exactly via Rust's shortest representation.
//! The RNG state words and the fault seed are `u64`s that can exceed 2^53,
//! so they are carried as decimal *strings* — everything else fits JSON
//! numbers losslessly.
//!
//! This module is also the one home of what the server document and the
//! execution engine's document (`easeml_exec::ExecCheckpoint`) both hold:
//! the HYBRID freeze detector ([`PickerCheckpoint`]) and the fault injector
//! ([`FaultCheckpoint`]). Each has one export from the live object, one
//! parser and one restore that validates the section before rebuilding it,
//! plus the field checks both restores share.

use crate::fault::{FaultConfig, FaultInjector, FaultRates};
use easeml_obs::json::{
    self, as_f64, as_object, as_str, as_tuple, as_u64, as_usize, get, get_bool, get_f64,
    get_f64_or_neg_inf, get_str, get_u32, get_u64, get_usize, parse_array, parse_object,
    parse_objects, Json,
};
use easeml_sched::{Hybrid, HybridState, PickRule};
use serde::Serialize;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;

/// Current checkpoint format version.
///
/// v2 added the decision-witness digest fields (`witness_digest`,
/// `witness_rounds`, `witness_top_k`) so the rolling digest chain survives
/// a restore and WAL replay can be verified bit-exactly against it.
///
/// v3 added the per-tenant `active` flag: with tenant churn, a retired
/// tenant's slot and GP state survive a restore but it must stay invisible
/// to every picker, so activity is part of the durable state.
///
/// v4 replaced the cluster's per-device clocks and run history with one
/// `clock` and each tenant's `failed` and `cost` counters: the history grew
/// by one record per round, and nothing but those totals was read from it.
///
/// v5 dropped `witness_rounds`, which always equals `rounds`, and
/// `witness_top_k`, now the constant [`crate::witness::WITNESS_TOP_K`].
pub const CHECKPOINT_VERSION: u32 = 5;

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The document was written by a newer build than this one.
    NewerVersion {
        /// Version found in the document.
        found: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// The document predates the oldest format this build reads.
    OlderVersion {
        /// Version found in the document.
        found: u32,
        /// Version this build expects.
        supported: u32,
    },
    /// The document parsed as JSON but a field is missing or mistyped.
    Malformed(String),
    /// A checkpoint *file* failed to parse — truncated or bit-rotted.
    Corrupt {
        /// Path of the offending file.
        path: String,
        /// What the parser tripped over.
        detail: String,
    },
    /// The filesystem failed underneath the checkpoint.
    Io {
        /// Path of the offending file.
        path: String,
        /// The underlying I/O error.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NewerVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found}: this build reads up to \
                 version {supported}; upgrade easeml to restore this checkpoint"
            ),
            Self::OlderVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (expected {supported})"
            ),
            Self::Malformed(detail) => write!(f, "{detail}"),
            Self::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint {path}: {detail}")
            }
            Self::Io { path, detail } => {
                write!(f, "checkpoint I/O error at {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<String> for CheckpointError {
    fn from(detail: String) -> Self {
        Self::Malformed(detail)
    }
}

/// One registered user: enough to re-register it on restore.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UserCheckpoint {
    /// Display name.
    pub name: String,
    /// The original DSL program source.
    pub program: String,
}

/// One tenant's bandit state: the observation sequence (oldest first) that
/// rebuilds the posterior exactly, the quarantine mask, and what the tenant
/// was billed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantCheckpoint {
    /// `(arm, reward)` pairs in observation order.
    pub observations: Vec<(usize, f64)>,
    /// Currently quarantined (masked) arms.
    pub masked: Vec<usize>,
    /// Whether the tenant is live (false once retired).
    pub active: bool,
    /// Failed (censored) runs charged to the tenant.
    pub failed: usize,
    /// Cost charged to the tenant, censored runs included.
    pub cost: f64,
}

/// The HYBRID picker's freeze detector and round-robin cursor (mirrors
/// [`HybridState`]): the server document's `picker` section and the
/// engine document's `hybrid` section.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PickerCheckpoint {
    /// Greedy line-8 rule name (`"max-gap"` / `"max-sigma"` / `"random"`).
    pub rule: String,
    /// Freeze threshold s.
    pub patience: u64,
    /// Consecutive frozen rounds.
    pub frozen_rounds: u64,
    /// Candidate set at the previous round.
    pub prev_candidates: Vec<usize>,
    /// Best-reward sum at the previous round; serialized as `null` while
    /// still at its `-inf` initial value.
    pub prev_best_sum: f64,
    /// Whether the round-robin switch happened.
    pub switched: bool,
    /// Round-robin cursor.
    pub rr_cursor: u64,
}

impl PickerCheckpoint {
    /// Exports a live picker's state.
    pub fn of(hybrid: &Hybrid) -> Self {
        let state = hybrid.export_state();
        PickerCheckpoint {
            rule: state.rule.name().to_string(),
            patience: state.patience as u64,
            frozen_rounds: state.frozen_rounds as u64,
            prev_candidates: state.prev_candidates,
            prev_best_sum: state.prev_best_sum,
            switched: state.switched,
            rr_cursor: state.rr_cursor as u64,
        }
    }

    /// Reads the section's fields (pass it to [`parse_object`] under the
    /// document's key).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn parse(f: &[(String, Json)]) -> Result<Self, String> {
        Ok(PickerCheckpoint {
            rule: get_str(f, "rule")?,
            patience: get_u64(f, "patience")?,
            frozen_rounds: get_u64(f, "frozen_rounds")?,
            prev_candidates: parse_array(get(f, "prev_candidates")?, "prev_candidates", as_usize)?,
            prev_best_sum: get_f64_or_neg_inf(f, "prev_best_sum")?,
            switched: get_bool(f, "switched")?,
            rr_cursor: get_u64(f, "rr_cursor")?,
        })
    }

    /// Rebuilds the picker, refusing state it cannot run from. Errors name
    /// each field under `key`, the section's key in its document.
    ///
    /// # Errors
    ///
    /// An unknown rule, a zero patience, or an unswitched picker whose
    /// freeze count has reached its patience.
    pub fn restore(&self, key: &str) -> Result<Hybrid, String> {
        let rule = PickRule::from_name(&self.rule)
            .ok_or_else(|| format!("unknown {key} rule {:?}", self.rule))?;
        if self.patience == 0 {
            return Err(format!("{key}.patience must be positive"));
        }
        // The round whose freeze count reaches `patience` switches the
        // picker, so an unswitched picker never holds that many; its next
        // frozen round would also overflow a saturated count.
        if !self.switched && self.frozen_rounds >= self.patience {
            return Err(format!(
                "{key}.frozen_rounds = {} must stay below {key}.patience = {} until the picker switches",
                self.frozen_rounds, self.patience
            ));
        }
        Ok(Hybrid::from_state(HybridState {
            rule,
            patience: self.patience as usize,
            frozen_rounds: self.frozen_rounds as usize,
            prev_candidates: self.prev_candidates.clone(),
            prev_best_sum: self.prev_best_sum,
            switched: self.switched,
            rr_cursor: self.rr_cursor as usize,
        }))
    }
}

/// The retry policy's knobs (mirrors [`crate::retry::RetryPolicy`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RetryPolicyCheckpoint {
    /// In-round retries after the first failure.
    pub max_retries: u64,
    /// Base backoff cost.
    pub backoff_cost: f64,
    /// Backoff multiplier.
    pub backoff_factor: f64,
    /// Consecutive failures before quarantine.
    pub quarantine_threshold: u64,
    /// Probation length in rounds.
    pub probation_rounds: u64,
}

/// Fault-injector configuration and attempt counters (mirrors
/// [`FaultInjector`]): the `fault` section of both documents.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultCheckpoint {
    /// Seed, as a decimal string (u64 range exceeds JSON's exact doubles).
    pub seed: String,
    /// Base rates `[crash, timeout, invalid, straggler]`.
    pub rates: [f64; 4],
    /// Per-user rate overrides.
    pub user_overrides: Vec<(usize, [f64; 4])>,
    /// Per-arm rate overrides.
    pub arm_overrides: Vec<(usize, [f64; 4])>,
    /// Straggler cost multiplier.
    pub straggler_factor: f64,
    /// Fraction of cost consumed before a crash.
    pub crash_cost_fraction: f64,
    /// Timeout deadline as a multiple of cost.
    pub timeout_factor: f64,
    /// Per-(user, arm) attempt counters.
    pub attempts: Vec<(usize, usize, u64)>,
}

impl FaultCheckpoint {
    /// Exports a live injector's configuration and attempt counters.
    pub fn of(injector: &FaultInjector) -> Self {
        let config = injector.config();
        let overrides = |map: &std::collections::BTreeMap<usize, FaultRates>| {
            map.iter().map(|(&k, r)| (k, r.to_array())).collect()
        };
        FaultCheckpoint {
            seed: encode_u64(config.seed),
            rates: config.rates.to_array(),
            user_overrides: overrides(&config.user_overrides),
            arm_overrides: overrides(&config.arm_overrides),
            straggler_factor: config.straggler_factor,
            crash_cost_fraction: config.crash_cost_fraction,
            timeout_factor: config.timeout_factor,
            attempts: injector
                .attempts()
                .iter()
                .map(|(&(user, arm), &n)| (user, arm, n))
                .collect(),
        }
    }

    /// Reads the section's fields (pass it to [`parse_object`] under
    /// `"fault"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn parse(f: &[(String, Json)]) -> Result<Self, String> {
        Ok(FaultCheckpoint {
            seed: get_str(f, "seed")?,
            rates: parse_rates(get(f, "rates")?, "rates")?,
            user_overrides: parse_overrides(get(f, "user_overrides")?, "user_overrides")?,
            arm_overrides: parse_overrides(get(f, "arm_overrides")?, "arm_overrides")?,
            straggler_factor: get_f64(f, "straggler_factor")?,
            crash_cost_fraction: get_f64(f, "crash_cost_fraction")?,
            timeout_factor: get_f64(f, "timeout_factor")?,
            attempts: parse_array(get(f, "attempts")?, "attempts", parse_triple)?
                .into_iter()
                .map(|(a, b, c)| (a as usize, b as usize, c))
                .collect(),
        })
    }

    /// Rebuilds the injector, refusing a configuration that would stall
    /// the clock: a rate outside [0, 1], a straggler or timeout factor that
    /// is not finite and positive (an infinite charge bills nothing, and a
    /// zero one never advances the clock), or a crash fraction outside
    /// [0, 1]. Errors name each field under `fault.`.
    ///
    /// # Errors
    ///
    /// A malformed seed or any value above.
    pub fn restore(&self) -> Result<FaultInjector, String> {
        let seed = decode_u64(&self.seed).map_err(|e| format!("fault.seed: {e}"))?;
        let rates = |rates: [f64; 4], field: String| {
            for rate in rates {
                unit_interval(rate, || field.clone())?;
            }
            Ok::<_, String>(FaultRates::from_array(rates))
        };
        let overrides = |entries: &[(usize, [f64; 4])], what: &str| {
            entries
                .iter()
                .enumerate()
                .map(|(i, &(key, r))| Ok((key, rates(r, format!("fault.{what}[{i}]"))?)))
                .collect::<Result<_, String>>()
        };
        let config = FaultConfig {
            seed,
            rates: rates(self.rates, "fault.rates".into())?,
            user_overrides: overrides(&self.user_overrides, "user_overrides")?,
            arm_overrides: overrides(&self.arm_overrides, "arm_overrides")?,
            straggler_factor: positive(self.straggler_factor, || "fault.straggler_factor".into())?,
            crash_cost_fraction: unit_interval(self.crash_cost_fraction, || {
                "fault.crash_cost_fraction".into()
            })?,
            timeout_factor: positive(self.timeout_factor, || "fault.timeout_factor".into())?,
        };
        let mut injector = FaultInjector::new(config);
        injector.restore_attempts(
            self.attempts
                .iter()
                .map(|&(user, arm, n)| ((user, arm), n))
                .collect(),
        );
        Ok(injector)
    }
}

/// The full server checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CheckpointDoc {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// xoshiro256++ state words as decimal strings.
    pub rng_state: [String; 4],
    /// GP observation-noise variance.
    pub noise_var: f64,
    /// β-schedule failure probability δ.
    pub delta: f64,
    /// Post-warm-up picker step counter.
    pub step: u64,
    /// Warm-up progress (users served once).
    pub warmed_up: u64,
    /// Total rounds executed (warm-up + scheduled, censored included).
    pub rounds: u64,
    /// Rolling decision-witness digest, as a decimal string (full u64).
    /// It has folded every one of the `rounds`.
    pub witness_digest: String,
    /// Registered users in id order.
    pub users: Vec<UserCheckpoint>,
    /// Tenant bandit state, aligned with `users`.
    pub tenants: Vec<TenantCheckpoint>,
    /// HYBRID picker state.
    pub picker: PickerCheckpoint,
    /// Simulated time consumed so far (the pooled device's clock).
    pub clock: f64,
    /// Retry policy knobs.
    pub retry_policy: RetryPolicyCheckpoint,
    /// Consecutive-failure counters `(user, arm, count)`.
    pub retry_counters: Vec<(usize, usize, u64)>,
    /// Scheduled quarantine releases `(round, user, arm)`.
    pub retry_releases: Vec<(u64, usize, usize)>,
    /// Fault injector, if one is attached.
    pub fault: Option<FaultCheckpoint>,
}

impl CheckpointDoc {
    /// Serializes the checkpoint to one JSON document.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parses a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`]: a version mismatch (with an
    /// upgrade hint when the document is from a newer build) or a
    /// malformation naming the offending field.
    pub fn from_json(input: &str) -> Result<Self, CheckpointError> {
        let doc = json::parse(input)?;
        let fields = as_object(&doc, "checkpoint")?;
        let version = get_u32(fields, "version")?;
        match version.cmp(&CHECKPOINT_VERSION) {
            std::cmp::Ordering::Greater => {
                return Err(CheckpointError::NewerVersion {
                    found: version,
                    supported: CHECKPOINT_VERSION,
                })
            }
            std::cmp::Ordering::Less => {
                return Err(CheckpointError::OlderVersion {
                    found: version,
                    supported: CHECKPOINT_VERSION,
                })
            }
            std::cmp::Ordering::Equal => {}
        }
        let mut rng_state: [String; 4] = Default::default();
        let words: &[Json; 4] = as_tuple(get(fields, "rng_state")?, "rng_state")?;
        for (state, word) in rng_state.iter_mut().zip(words) {
            *state = as_str(word, "rng_state word")?.to_string();
        }
        let users = parse_objects(get(fields, "users")?, "users", |f| {
            Ok(UserCheckpoint {
                name: get_str(f, "name")?,
                program: get_str(f, "program")?,
            })
        })?;
        let tenants = parse_objects(get(fields, "tenants")?, "tenants", |f| {
            Ok(TenantCheckpoint {
                observations: parse_array(get(f, "observations")?, "observations", parse_pair)?,
                masked: parse_array(get(f, "masked")?, "masked", as_usize)?,
                active: get_bool(f, "active")?,
                failed: get_usize(f, "failed")?,
                cost: get_f64(f, "cost")?,
            })
        })?;
        let picker = parse_object(get(fields, "picker")?, "picker", PickerCheckpoint::parse)?;
        let retry_policy = parse_object(get(fields, "retry_policy")?, "retry_policy", |f| {
            Ok(RetryPolicyCheckpoint {
                max_retries: get_u64(f, "max_retries")?,
                backoff_cost: get_f64(f, "backoff_cost")?,
                backoff_factor: get_f64(f, "backoff_factor")?,
                quarantine_threshold: get_u64(f, "quarantine_threshold")?,
                probation_rounds: get_u64(f, "probation_rounds")?,
            })
        })?;
        let retry_counters = parse_array(
            get(fields, "retry_counters")?,
            "retry_counters",
            parse_triple,
        )?
        .into_iter()
        .map(|(a, b, c)| (a as usize, b as usize, c))
        .collect();
        let retry_releases = parse_array(
            get(fields, "retry_releases")?,
            "retry_releases",
            parse_triple,
        )?
        .into_iter()
        .map(|(a, b, c)| (a, b as usize, c as usize))
        .collect();
        let fault = parse_nullable(fields, "fault", FaultCheckpoint::parse)?;
        Ok(CheckpointDoc {
            version,
            rng_state,
            noise_var: get_f64(fields, "noise_var")?,
            delta: get_f64(fields, "delta")?,
            step: get_u64(fields, "step")?,
            warmed_up: get_u64(fields, "warmed_up")?,
            rounds: get_u64(fields, "rounds")?,
            witness_digest: get_str(fields, "witness_digest")?,
            users,
            tenants,
            picker,
            clock: get_f64(fields, "clock")?,
            retry_policy,
            retry_counters,
            retry_releases,
            fault,
        })
    }
}

/// Encodes a `u64` losslessly for a checkpoint string field.
pub fn encode_u64(v: u64) -> String {
    v.to_string()
}

/// Decodes a checkpoint string field back into a `u64`.
///
/// # Errors
///
/// Returns a message when the string is not a decimal `u64`.
pub fn decode_u64(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad u64 string {s:?}: {e}"))
}

/// Writes a checkpoint document to `path` crash-safely: the bytes go to a
/// sibling temp file, are fsynced, and only then renamed over the target,
/// with a final directory fsync so the rename itself is durable. A crash
/// at any point leaves either the old snapshot or the new one — never a
/// torn mix.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] naming the path on any filesystem
/// failure.
pub fn write_checkpoint_atomic(path: &Path, json: &str) -> Result<(), CheckpointError> {
    let io_err = |e: std::io::Error| CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    };
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = parent {
        fs::create_dir_all(dir).map_err(io_err)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp).map_err(io_err)?;
        file.write_all(json.as_bytes()).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
    }
    fs::rename(&tmp, path).map_err(io_err)?;
    if let Some(dir) = parent {
        // Make the rename durable; a failure here is not a torn file.
        File::open(dir).and_then(|d| d.sync_all()).map_err(io_err)?;
    }
    Ok(())
}

/// Reads and parses a checkpoint file written by [`write_checkpoint_atomic`].
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] when the file cannot be read and
/// [`CheckpointError::Corrupt`] — naming the path — when its contents do
/// not parse, e.g. after truncation. Version mismatches pass through as
/// their own typed variants.
pub fn read_checkpoint_file(path: &Path) -> Result<CheckpointDoc, CheckpointError> {
    let json = fs::read_to_string(path).map_err(|e| CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    CheckpointDoc::from_json(&json).map_err(|e| match e {
        CheckpointError::Malformed(detail) => CheckpointError::Corrupt {
            path: path.display().to_string(),
            detail,
        },
        other => other,
    })
}

// Checkpoint-specific readers and checks, shared with the exec engine's
// checkpoint codec; the generic field accessors live in `easeml_obs::json`.
// Each error names the field (or `what` the value is) it tripped over.

/// `Err` naming `field` unless `value < bound`: an index read from a
/// checkpoint must fit what it indexes.
pub fn in_range(value: usize, bound: usize, field: impl FnOnce() -> String) -> Result<(), String> {
    if value < bound {
        Ok(())
    } else {
        Err(format!("{} = {value} is out of range (< {bound})", field()))
    }
}

/// `value` unless it is not finite and positive; the error names `field`.
pub fn positive(value: f64, field: impl FnOnce() -> String) -> Result<f64, String> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(format!("{} must be finite and positive", field()))
    }
}

/// `value` unless it is not finite and non-negative; the error names
/// `field`.
pub fn non_negative(value: f64, field: impl FnOnce() -> String) -> Result<f64, String> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(format!("{} must be finite and non-negative", field()))
    }
}

/// `value` unless it lies outside [0, 1]; the error names `field`.
fn unit_interval(value: f64, field: impl FnOnce() -> String) -> Result<f64, String> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(format!("{} = {value} must lie in [0, 1]", field()))
    }
}

/// Refuses the GP settings both restores run from: a noise variance that
/// is not finite and positive, or a β-schedule δ outside (0, 1).
pub fn check_gp_settings(noise_var: f64, delta: f64) -> Result<(), String> {
    positive(noise_var, || "noise_var".into())?;
    if !(delta > 0.0 && delta < 1.0) {
        return Err("delta must lie in (0, 1)".into());
    }
    Ok(())
}

/// Field `key` read by `read` (as with [`parse_object`]), or `None` when it
/// is `null`: an optional section.
pub fn parse_nullable<T>(
    fields: &[(String, Json)],
    key: &str,
    read: impl FnOnce(&[(String, Json)]) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match get(fields, key)? {
        Json::Null => Ok(None),
        value => parse_object(value, key, read).map(Some),
    }
}

fn parse_pair(value: &Json, what: &str) -> Result<(usize, f64), String> {
    let [arm, reward] = as_tuple(value, what)?;
    Ok((as_usize(arm, what)?, as_f64(reward, what)?))
}

/// A `[a, b, c]` triple of integers.
fn parse_triple(value: &Json, what: &str) -> Result<(u64, u64, u64), String> {
    let [a, b, c] = as_tuple(value, what)?;
    Ok((as_u64(a, what)?, as_u64(b, what)?, as_u64(c, what)?))
}

/// Fault rates in their [`FaultRates::to_array`](crate::fault::FaultRates::to_array)
/// form.
fn parse_rates(value: &Json, what: &str) -> Result<[f64; 4], String> {
    let items = parse_array(value, what, as_f64)?;
    items
        .try_into()
        .map_err(|_| format!("{what}: expected 4 rates"))
}

/// Per-user or per-arm rate overrides: `[key, rates]` entries.
fn parse_overrides(value: &Json, what: &str) -> Result<Vec<(usize, [f64; 4])>, String> {
    parse_array(value, what, |entry, what| {
        let [key, rates] = as_tuple(entry, what)?;
        Ok((as_usize(key, what)?, parse_rates(rates, what)?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointDoc {
        CheckpointDoc {
            version: CHECKPOINT_VERSION,
            rng_state: [
                encode_u64(u64::MAX),
                encode_u64(1),
                encode_u64(0x9e37_79b9_7f4a_7c15),
                encode_u64(42),
            ],
            noise_var: 1e-3,
            delta: 0.1,
            step: 7,
            warmed_up: 2,
            rounds: 9,
            witness_digest: encode_u64(0xcbf2_9ce4_8422_2325),
            users: vec![UserCheckpoint {
                name: "vision-lab".into(),
                program: "{input: ...}".into(),
            }],
            tenants: vec![TenantCheckpoint {
                observations: vec![(0, 0.5), (3, 0.25 + 1e-17)],
                masked: vec![3],
                active: true,
                failed: 1,
                cost: 4.5,
            }],
            picker: PickerCheckpoint {
                rule: "max-gap".into(),
                patience: 10,
                frozen_rounds: 2,
                prev_candidates: vec![0, 1],
                prev_best_sum: f64::NEG_INFINITY,
                switched: false,
                rr_cursor: 0,
            },
            clock: 4.5,
            retry_policy: RetryPolicyCheckpoint {
                max_retries: 2,
                backoff_cost: 0.1,
                backoff_factor: 2.0,
                quarantine_threshold: 3,
                probation_rounds: 25,
            },
            retry_counters: vec![(0, 3, 2)],
            retry_releases: vec![(30, 0, 3)],
            fault: Some(FaultCheckpoint {
                seed: encode_u64(u64::MAX - 1),
                rates: [0.1, 0.05, 0.01, 0.2],
                user_overrides: vec![(1, [0.0, 0.0, 0.0, 0.0])],
                arm_overrides: vec![],
                straggler_factor: 3.0,
                crash_cost_fraction: 0.5,
                timeout_factor: 2.0,
                attempts: vec![(0, 3, 5)],
            }),
        }
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let doc = sample();
        let parsed = CheckpointDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
        // The -inf sentinel travelled through null and back.
        assert_eq!(parsed.picker.prev_best_sum, f64::NEG_INFINITY);
        // Full-range u64s survive the string encoding.
        assert_eq!(decode_u64(&parsed.rng_state[0]).unwrap(), u64::MAX);
    }

    #[test]
    fn no_fault_round_trips_as_null() {
        let mut doc = sample();
        doc.fault = None;
        let json = doc.to_json();
        assert!(json.contains("\"fault\":null"), "{json}");
        assert_eq!(CheckpointDoc::from_json(&json).unwrap(), doc);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut doc = sample();
        doc.version = CHECKPOINT_VERSION + 1;
        let err = CheckpointDoc::from_json(&doc.to_json()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported checkpoint version"),
            "{err}"
        );
    }

    #[test]
    fn newer_version_is_a_typed_error_with_an_upgrade_hint() {
        let mut doc = sample();
        doc.version = 99;
        let err = CheckpointDoc::from_json(&doc.to_json()).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::NewerVersion {
                found: 99,
                supported: CHECKPOINT_VERSION
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("unsupported checkpoint version 99"), "{msg}");
        assert!(msg.contains("upgrade easeml"), "{msg}");
    }

    #[test]
    fn older_version_is_a_typed_error() {
        for found in [1, 4] {
            let mut doc = sample();
            doc.version = found;
            let err = CheckpointDoc::from_json(&doc.to_json()).unwrap_err();
            assert_eq!(
                err,
                CheckpointError::OlderVersion {
                    found,
                    supported: CHECKPOINT_VERSION
                }
            );
            assert!(
                err.to_string()
                    .contains(&format!("unsupported checkpoint version {found}")),
                "{err}"
            );
        }
    }

    #[test]
    fn garbage_is_rejected_with_field_names() {
        assert!(CheckpointDoc::from_json("not json").is_err());
        assert!(CheckpointDoc::from_json("[]").is_err());
        let err =
            CheckpointDoc::from_json(&format!("{{\"version\":{CHECKPOINT_VERSION}}}")).unwrap_err();
        assert!(err.to_string().contains("rng_state"), "{err}");
    }

    fn scratch_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "easeml-ckpt-test-{}-{tag}.json",
            std::process::id()
        ))
    }

    #[test]
    fn atomic_write_round_trips_through_the_filesystem() {
        let path = scratch_path("atomic");
        let doc = sample();
        write_checkpoint_atomic(&path, &doc.to_json()).unwrap();
        // The temp sibling must not linger after the rename.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        assert_eq!(read_checkpoint_file(&path).unwrap(), doc);
        // Overwriting in place keeps the document readable.
        write_checkpoint_atomic(&path, &doc.to_json()).unwrap();
        assert_eq!(read_checkpoint_file(&path).unwrap(), doc);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_checkpoint_file_is_rejected_with_the_path() {
        let path = scratch_path("truncated");
        let doc = sample();
        write_checkpoint_atomic(&path, &doc.to_json()).unwrap();
        // Simulate a torn write from a non-atomic writer: cut the file.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = read_checkpoint_file(&path).unwrap_err();
        match &err {
            CheckpointError::Corrupt { path: p, .. } => {
                assert!(p.contains("easeml-ckpt-test"), "{err}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(err.to_string().contains("corrupt checkpoint"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_checkpoint_file_is_an_io_error() {
        let err = read_checkpoint_file(Path::new("/nonexistent/easeml-nope.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err:?}");
    }
}
