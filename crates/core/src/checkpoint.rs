//! The crash-safe checkpoint document.
//!
//! [`CheckpointDoc`] is a plain-data snapshot of everything
//! [`EaseMl`](crate::server::EaseMl) needs to resume mid-experiment:
//! tenants' posterior sufficient statistics (their observation sequences —
//! replaying them through the same numeric path rebuilds bit-identical GP
//! state), the HYBRID picker's freeze detector, the cluster clocks and
//! history, the RNG stream position, and the fault/retry bookkeeping.
//!
//! Serialization uses the same hand-rolled JSON as the trace stack:
//! finite floats round-trip bit-exactly via Rust's shortest representation.
//! The RNG state words and the fault seed are `u64`s that can exceed 2^53,
//! so they are carried as decimal *strings* — everything else fits JSON
//! numbers losslessly.

use easeml_obs::json::{self, Json};
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
pub const CHECKPOINT_VERSION: u32 = 3;

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
/// rebuilds the posterior exactly, plus the quarantine mask.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantCheckpoint {
    /// `(arm, reward)` pairs in observation order.
    pub observations: Vec<(usize, f64)>,
    /// Currently quarantined (masked) arms.
    pub masked: Vec<usize>,
    /// Whether the tenant is live (false once retired).
    pub active: bool,
}

/// The HYBRID picker's freeze detector and round-robin cursor.
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

/// One completed (or censored) cluster run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunCheckpoint {
    /// Tenant index.
    pub user: usize,
    /// Model index within the user's job.
    pub model: usize,
    /// Charged cost.
    pub cost: f64,
    /// Whether the run was censored (failed).
    pub censored: bool,
    /// Device that executed it.
    pub device: usize,
    /// Simulated start time.
    pub started_at: f64,
    /// Simulated finish time.
    pub finished_at: f64,
}

/// The cluster: per-device clocks plus execution history.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterCheckpoint {
    /// Per-device free-at clocks.
    pub device_free_at: Vec<f64>,
    /// Execution history in order.
    pub history: Vec<RunCheckpoint>,
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
/// [`crate::fault::FaultInjector`]).
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
    pub witness_digest: String,
    /// Rounds folded into the witness digest.
    pub witness_rounds: u64,
    /// Witness fan-out bound K.
    pub witness_top_k: u64,
    /// Registered users in id order.
    pub users: Vec<UserCheckpoint>,
    /// Tenant bandit state, aligned with `users`.
    pub tenants: Vec<TenantCheckpoint>,
    /// HYBRID picker state.
    pub picker: PickerCheckpoint,
    /// Cluster clocks and history.
    pub cluster: ClusterCheckpoint,
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
        let version = get_u64(fields, "version")? as u32;
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
        let rng_raw = get(fields, "rng_state")?;
        let rng_vec = as_array(rng_raw, "rng_state")?;
        if rng_vec.len() != 4 {
            return Err(CheckpointError::Malformed(
                "rng_state must hold 4 words".into(),
            ));
        }
        let mut rng_state: [String; 4] = Default::default();
        for (i, word) in rng_vec.iter().enumerate() {
            rng_state[i] = as_str(word, "rng_state word")?.to_string();
        }
        let users = as_array(get(fields, "users")?, "users")?
            .iter()
            .map(|u| {
                let f = as_object(u, "user")?;
                Ok(UserCheckpoint {
                    name: get_str(f, "name")?,
                    program: get_str(f, "program")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let tenants = as_array(get(fields, "tenants")?, "tenants")?
            .iter()
            .map(|t| {
                let f = as_object(t, "tenant")?;
                let observations = as_array(get(f, "observations")?, "observations")?
                    .iter()
                    .map(|pair| parse_pair(pair, "observation"))
                    .collect::<Result<Vec<_>, String>>()?;
                let masked = parse_usize_array(get(f, "masked")?, "masked")?;
                Ok(TenantCheckpoint {
                    observations,
                    masked,
                    active: get_bool(f, "active")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let picker = {
            let f = as_object(get(fields, "picker")?, "picker")?;
            PickerCheckpoint {
                rule: get_str(f, "rule")?,
                patience: get_u64(f, "patience")?,
                frozen_rounds: get_u64(f, "frozen_rounds")?,
                prev_candidates: parse_usize_array(get(f, "prev_candidates")?, "prev_candidates")?,
                prev_best_sum: get_f64_or_neg_inf(f, "prev_best_sum")?,
                switched: get_bool(f, "switched")?,
                rr_cursor: get_u64(f, "rr_cursor")?,
            }
        };
        let cluster = {
            let f = as_object(get(fields, "cluster")?, "cluster")?;
            let device_free_at = parse_f64_array(get(f, "device_free_at")?, "device_free_at")?;
            let history = as_array(get(f, "history")?, "history")?
                .iter()
                .map(|r| {
                    let f = as_object(r, "run")?;
                    Ok(RunCheckpoint {
                        user: get_u64(f, "user")? as usize,
                        model: get_u64(f, "model")? as usize,
                        cost: get_f64(f, "cost")?,
                        censored: get_bool(f, "censored")?,
                        device: get_u64(f, "device")? as usize,
                        started_at: get_f64(f, "started_at")?,
                        finished_at: get_f64(f, "finished_at")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            ClusterCheckpoint {
                device_free_at,
                history,
            }
        };
        let retry_policy = {
            let f = as_object(get(fields, "retry_policy")?, "retry_policy")?;
            RetryPolicyCheckpoint {
                max_retries: get_u64(f, "max_retries")?,
                backoff_cost: get_f64(f, "backoff_cost")?,
                backoff_factor: get_f64(f, "backoff_factor")?,
                quarantine_threshold: get_u64(f, "quarantine_threshold")?,
                probation_rounds: get_u64(f, "probation_rounds")?,
            }
        };
        let retry_counters = as_array(get(fields, "retry_counters")?, "retry_counters")?
            .iter()
            .map(|t| parse_triple(t, "retry counter"))
            .collect::<Result<Vec<_>, String>>()?
            .into_iter()
            .map(|(a, b, c)| (a as usize, b as usize, c))
            .collect();
        let retry_releases = as_array(get(fields, "retry_releases")?, "retry_releases")?
            .iter()
            .map(|t| parse_triple(t, "retry release"))
            .collect::<Result<Vec<_>, String>>()?
            .into_iter()
            .map(|(a, b, c)| (a, b as usize, c as usize))
            .collect();
        let fault = match get(fields, "fault")? {
            Json::Null => None,
            value => {
                let f = as_object(value, "fault")?;
                let rates = parse_rates(get(f, "rates")?, "rates")?;
                let user_overrides = parse_overrides(get(f, "user_overrides")?, "user_overrides")?;
                let arm_overrides = parse_overrides(get(f, "arm_overrides")?, "arm_overrides")?;
                let attempts = as_array(get(f, "attempts")?, "attempts")?
                    .iter()
                    .map(|t| parse_triple(t, "attempt counter"))
                    .collect::<Result<Vec<_>, String>>()?
                    .into_iter()
                    .map(|(a, b, c)| (a as usize, b as usize, c))
                    .collect();
                Some(FaultCheckpoint {
                    seed: get_str(f, "seed")?,
                    rates,
                    user_overrides,
                    arm_overrides,
                    straggler_factor: get_f64(f, "straggler_factor")?,
                    crash_cost_fraction: get_f64(f, "crash_cost_fraction")?,
                    timeout_factor: get_f64(f, "timeout_factor")?,
                    attempts,
                })
            }
        };
        Ok(CheckpointDoc {
            version,
            rng_state,
            noise_var: get_f64(fields, "noise_var")?,
            delta: get_f64(fields, "delta")?,
            step: get_u64(fields, "step")?,
            warmed_up: get_u64(fields, "warmed_up")?,
            rounds: get_u64(fields, "rounds")?,
            witness_digest: get_str(fields, "witness_digest")?,
            witness_rounds: get_u64(fields, "witness_rounds")?,
            witness_top_k: get_u64(fields, "witness_top_k")?,
            users,
            tenants,
            picker,
            cluster,
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

// JSON field accessors and checks, shared with the exec engine's
// checkpoint codec. Each error names the field (or `what` the value is) it
// tripped over.

/// `Err` naming `field` unless `value < bound`: an index read from a
/// checkpoint must fit what it indexes.
pub fn in_range(value: usize, bound: usize, field: impl FnOnce() -> String) -> Result<(), String> {
    if value < bound {
        Ok(())
    } else {
        Err(format!("{} = {value} is out of range (< {bound})", field()))
    }
}

/// The value of field `key`; `Err` when the object has none.
pub fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// The fields of an object; `Err` for any other value.
pub fn as_object<'a>(value: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match value {
        Json::Object(fields) => Ok(fields),
        other => Err(format!("{what}: expected an object, got {other:?}")),
    }
}

/// The items of an array; `Err` for any other value.
pub fn as_array<'a>(value: &'a Json, what: &str) -> Result<&'a [Json], String> {
    match value {
        Json::Array(items) => Ok(items),
        other => Err(format!("{what}: expected an array, got {other:?}")),
    }
}

/// A number; `Err` for any other value.
pub fn as_f64(value: &Json, what: &str) -> Result<f64, String> {
    match value {
        Json::Number(n) => Ok(*n),
        other => Err(format!("{what}: expected a number, got {other:?}")),
    }
}

fn as_str<'a>(value: &'a Json, what: &str) -> Result<&'a str, String> {
    match value {
        Json::String(s) => Ok(s),
        other => Err(format!("{what}: expected a string, got {other:?}")),
    }
}

/// Number field `key`.
pub fn get_f64(fields: &[(String, Json)], key: &str) -> Result<f64, String> {
    as_f64(get(fields, key)?, key)
}

/// Number field `key`, where `null` stands for `-inf` (HYBRID's initial
/// best-reward sum).
pub fn get_f64_or_neg_inf(fields: &[(String, Json)], key: &str) -> Result<f64, String> {
    match get(fields, key)? {
        Json::Null => Ok(f64::NEG_INFINITY),
        value => as_f64(value, key),
    }
}

/// Non-negative integer field `key`; `Err` when negative or fractional.
pub fn get_u64(fields: &[(String, Json)], key: &str) -> Result<u64, String> {
    let n = get_f64(fields, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("field {key:?}: expected a non-negative integer"));
    }
    Ok(n as u64)
}

/// Boolean field `key`.
pub fn get_bool(fields: &[(String, Json)], key: &str) -> Result<bool, String> {
    match get(fields, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("field {key:?}: expected a bool, got {other:?}")),
    }
}

/// String field `key`.
pub fn get_str(fields: &[(String, Json)], key: &str) -> Result<String, String> {
    as_str(get(fields, key)?, key).map(str::to_string)
}

/// An array of indices.
pub fn parse_usize_array(value: &Json, what: &str) -> Result<Vec<usize>, String> {
    as_array(value, what)?
        .iter()
        .map(|v| as_f64(v, what).map(|n| n as usize))
        .collect()
}

/// An array of numbers.
pub fn parse_f64_array(value: &Json, what: &str) -> Result<Vec<f64>, String> {
    as_array(value, what)?
        .iter()
        .map(|v| as_f64(v, what))
        .collect()
}

fn parse_pair(value: &Json, what: &str) -> Result<(usize, f64), String> {
    let items = as_array(value, what)?;
    if items.len() != 2 {
        return Err(format!("{what}: expected a pair"));
    }
    Ok((as_f64(&items[0], what)? as usize, as_f64(&items[1], what)?))
}

/// A `[a, b, c]` triple of integers.
pub fn parse_triple(value: &Json, what: &str) -> Result<(u64, u64, u64), String> {
    let items = as_array(value, what)?;
    if items.len() != 3 {
        return Err(format!("{what}: expected a triple"));
    }
    Ok((
        as_f64(&items[0], what)? as u64,
        as_f64(&items[1], what)? as u64,
        as_f64(&items[2], what)? as u64,
    ))
}

/// Fault rates in their [`FaultRates::to_array`](crate::fault::FaultRates::to_array)
/// form.
pub fn parse_rates(value: &Json, what: &str) -> Result<[f64; 4], String> {
    let items = parse_f64_array(value, what)?;
    items
        .try_into()
        .map_err(|_| format!("{what}: expected 4 rates"))
}

/// Per-user or per-arm rate overrides: `[key, rates]` entries.
pub fn parse_overrides(value: &Json, what: &str) -> Result<Vec<(usize, [f64; 4])>, String> {
    as_array(value, what)?
        .iter()
        .map(|entry| {
            let items = as_array(entry, what)?;
            if items.len() != 2 {
                return Err(format!("{what}: expected [key, rates] entries"));
            }
            Ok((
                as_f64(&items[0], what)? as usize,
                parse_rates(&items[1], what)?,
            ))
        })
        .collect()
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
            witness_rounds: 9,
            witness_top_k: 8,
            users: vec![UserCheckpoint {
                name: "vision-lab".into(),
                program: "{input: ...}".into(),
            }],
            tenants: vec![TenantCheckpoint {
                observations: vec![(0, 0.5), (3, 0.25 + 1e-17)],
                masked: vec![3],
                active: true,
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
            cluster: ClusterCheckpoint {
                device_free_at: vec![4.5],
                history: vec![RunCheckpoint {
                    user: 0,
                    model: 3,
                    cost: 4.5,
                    censored: true,
                    device: 0,
                    started_at: 0.0,
                    finished_at: 4.5,
                }],
            },
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
        let mut doc = sample();
        doc.version = 1;
        let err = CheckpointDoc::from_json(&doc.to_json()).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::OlderVersion {
                found: 1,
                supported: CHECKPOINT_VERSION
            }
        );
        assert!(
            err.to_string().contains("unsupported checkpoint version 1"),
            "{err}"
        );
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
