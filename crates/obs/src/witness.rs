//! Decision provenance: rolling trajectory digests, bounded top-K
//! selection, and the per-round witness records folded back out of a
//! trace.
//!
//! The capture side (scheduler, simulator, executor) emits a witness chain
//! per round — [`Event::UserScored`]/[`Event::ArmScored`] first, a single
//! [`Event::DecisionWitness`] last as the commit marker — and threads a
//! [`RollingDigest`] through every resolved round. Because the digest is
//! rolling, equal digests at round `r` certify that *every* round `≤ r`
//! resolved identically, which turns "find the first divergent round
//! between two runs" into a binary search over `O(log R)` digest
//! comparisons instead of a linear scan of full witnesses.
//!
//! The read side ([`witness_records`]) folds a trace's witness chains back
//! into [`WitnessRecord`]s. Only rounds whose `DecisionWitness` commit
//! marker has landed are surfaced, so a concurrent reader scraping a trace
//! mid-round never observes a torn (half-emitted) witness.

use crate::event::Event;
use crate::json;
use serde::Serialize;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A rolling 64-bit FNV-1a digest over a run's decision/outcome stream.
///
/// # Examples
///
/// ```
/// use easeml_obs::RollingDigest;
///
/// let mut a = RollingDigest::new();
/// let mut b = RollingDigest::new();
/// a.absorb_u64(7);
/// b.absorb_u64(7);
/// assert_eq!(a.value(), b.value());
/// b.absorb_u64(8);
/// assert_ne!(a.value(), b.value(), "the digest is order- and content-sensitive");
/// assert_eq!(a.hex().len(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollingDigest {
    state: u64,
}

impl Default for RollingDigest {
    fn default() -> Self {
        RollingDigest::new()
    }
}

impl RollingDigest {
    /// The empty digest (FNV-1a offset basis).
    pub fn new() -> Self {
        RollingDigest { state: FNV_OFFSET }
    }

    /// Resumes a digest from a previously exported [`RollingDigest::value`].
    pub fn from_value(state: u64) -> Self {
        RollingDigest { state }
    }

    /// Absorbs one little-endian `u64`.
    pub fn absorb_u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one `f64` by its IEEE-754 bit pattern (bit-exact, so two
    /// runs only digest equal if their floating-point outcomes match bit
    /// for bit).
    pub fn absorb_f64(&mut self, x: f64) {
        self.absorb_u64(x.to_bits());
    }

    /// Absorbs a string (length-prefixed, so `"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn absorb_str(&mut self, s: &str) {
        self.absorb_u64(s.len() as u64);
        for byte in s.bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.state
    }

    /// The current digest as 16 lowercase hex digits — the form stamped
    /// into [`Event::DecisionWitness`].
    pub fn hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

/// Indices of the `k` largest scores, descending (ties broken toward the
/// lower index, matching `vec_ops::argmax`). NaN scores are skipped; `-∞`
/// scores (quarantine-masked arms) rank last naturally. `O(n·k)` with no
/// full sort, so a bounded-K witness never pays `O(n log n)`.
///
/// # Examples
///
/// ```
/// use easeml_obs::top_k_indices;
///
/// let scores = [0.1, 0.9, f64::NAN, 0.9, 0.5];
/// assert_eq!(top_k_indices(&scores, 3), vec![1, 3, 4]);
/// assert_eq!(top_k_indices(&scores, 10).len(), 4, "NaN is skipped");
/// ```
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    // The list holds at most k entries, and one more between an insert and
    // the truncate; k itself may be far past the number of scores.
    let mut top: Vec<usize> = Vec::with_capacity(k.min(scores.len()) + 1);
    for (i, &score) in scores.iter().enumerate() {
        if score.is_nan() {
            continue;
        }
        if top.len() == k {
            let worst = *top.last().expect("k > 0");
            if scores[worst] >= score {
                continue;
            }
        }
        let pos = top.partition_point(|&j| scores[j] >= score);
        top.insert(pos, i);
        top.truncate(k);
    }
    top
}

/// One scored user of a committed witness round.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WitnessUser {
    /// Tenant index.
    pub user: usize,
    /// The picker's score for the tenant.
    pub score: f64,
    /// Whether the tenant was in the candidate set `V_t`.
    pub candidate: bool,
}

/// One scored arm of a committed witness round.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WitnessArm {
    /// Arm (model) index.
    pub arm: usize,
    /// Posterior mean at selection time.
    pub mean: f64,
    /// Posterior standard deviation at selection time.
    pub sigma: f64,
    /// The acquisition value the arm was ranked on.
    pub ucb: f64,
    /// Whether the arm was quarantine-masked.
    pub masked: bool,
}

/// A committed per-round decision witness, folded back out of a trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WitnessRecord {
    /// Scheduling round (0-based).
    pub round: u64,
    /// Tenant served.
    pub user: usize,
    /// Arm (model) trained.
    pub arm: usize,
    /// Winner's user score minus the runner-up's (NaN when unscored).
    pub user_margin: f64,
    /// Winning arm's acquisition minus the runner-up's (NaN when single-arm).
    pub arm_margin: f64,
    /// Decision path taken (`"greedy(max-gap)"`, `"warm-up"`, ...).
    pub path: String,
    /// Censoring fault kind or fallback reason; empty when nothing fired.
    pub fallback: String,
    /// Whether the round was censored.
    pub censored: bool,
    /// Size of the candidate set the pick ranked.
    pub candidates: u64,
    /// Rolling trajectory digest after this round (16 hex digits).
    pub digest: String,
    /// Top-K scored users, best first.
    pub top_users: Vec<WitnessUser>,
    /// Top-K scored arms, best first.
    pub top_arms: Vec<WitnessArm>,
}

impl WitnessRecord {
    /// Serializes the record as one JSON object — the `/explain?round=N`
    /// response body.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

/// Folds a trace's witness chains into per-round [`WitnessRecord`]s, in
/// commit order. `UserScored`/`ArmScored` events are buffered per round and
/// only surfaced once that round's `DecisionWitness` commit marker arrives;
/// score events of never-committed rounds (e.g. a run cut off mid-round)
/// are dropped, so readers never see a torn witness.
pub fn witness_records(events: &[Event]) -> Vec<WitnessRecord> {
    let mut records = Vec::new();
    // Witness chains are emitted contiguously per round, but the fold
    // tolerates interleaving across rounds (multi-device traces) by keying
    // the buffers on the round id.
    let mut pending_users: Vec<(u64, WitnessUser)> = Vec::new();
    let mut pending_arms: Vec<(u64, WitnessArm)> = Vec::new();
    for event in events {
        match event {
            Event::UserScored {
                round,
                user,
                score,
                candidate,
                ..
            } => pending_users.push((
                *round,
                WitnessUser {
                    user: *user,
                    score: *score,
                    candidate: *candidate,
                },
            )),
            Event::ArmScored {
                round,
                arm,
                mean,
                sigma,
                ucb,
                masked,
                ..
            } => pending_arms.push((
                *round,
                WitnessArm {
                    arm: *arm,
                    mean: *mean,
                    sigma: *sigma,
                    ucb: *ucb,
                    masked: *masked,
                },
            )),
            Event::DecisionWitness {
                round,
                user,
                arm,
                user_margin,
                arm_margin,
                path,
                fallback,
                censored,
                candidates,
                digest,
                ..
            } => {
                let top_users = drain_round(&mut pending_users, *round);
                let top_arms = drain_round(&mut pending_arms, *round);
                records.push(WitnessRecord {
                    round: *round,
                    user: *user,
                    arm: *arm,
                    user_margin: *user_margin,
                    arm_margin: *arm_margin,
                    path: path.clone(),
                    fallback: fallback.clone(),
                    censored: *censored,
                    candidates: *candidates,
                    digest: digest.clone(),
                    top_users,
                    top_arms,
                });
            }
            _ => {}
        }
    }
    records
}

/// Removes and returns the entries buffered for `round`, preserving
/// emission (rank) order.
fn drain_round<T>(pending: &mut Vec<(u64, T)>, round: u64) -> Vec<T> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < pending.len() {
        if pending[i].0 == round {
            out.push(pending.remove(i).1);
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_rolling_and_prefix_sensitive() {
        let mut a = RollingDigest::new();
        let mut b = RollingDigest::new();
        for x in [3_u64, 1, 4, 1, 5] {
            a.absorb_u64(x);
            b.absorb_u64(x);
            assert_eq!(a.value(), b.value());
        }
        b.absorb_u64(9);
        let diverged = b.value();
        b.absorb_u64(5);
        a.absorb_u64(5);
        a.absorb_u64(9);
        assert_ne!(a.value(), diverged);
        assert_ne!(a.value(), b.value(), "a divergence never cancels out");
        assert_eq!(RollingDigest::from_value(a.value()).hex(), a.hex());
    }

    #[test]
    fn digest_absorbs_floats_bit_exactly_and_strings_framed() {
        let mut a = RollingDigest::new();
        let mut b = RollingDigest::new();
        a.absorb_f64(0.1 + 0.2);
        b.absorb_f64(0.3);
        assert_ne!(a.value(), b.value(), "0.1+0.2 != 0.3 bit-for-bit");
        let mut c = RollingDigest::new();
        let mut d = RollingDigest::new();
        c.absorb_str("ab");
        c.absorb_str("c");
        d.absorb_str("a");
        d.absorb_str("bc");
        assert_ne!(c.value(), d.value(), "length framing prevents splicing");
    }

    #[test]
    fn top_k_ranks_descending_with_stable_ties() {
        assert_eq!(top_k_indices(&[], 3), Vec::<usize>::new());
        assert_eq!(top_k_indices(&[1.0, 2.0, 3.0], 0), Vec::<usize>::new());
        assert_eq!(top_k_indices(&[0.5, 0.5, 0.5], 2), vec![0, 1]);
        let scores = [0.2, f64::NEG_INFINITY, 0.9, 0.2, 0.7];
        assert_eq!(top_k_indices(&scores, 3), vec![2, 4, 0]);
        assert_eq!(top_k_indices(&scores, 10), vec![2, 4, 0, 3, 1]);
    }

    #[test]
    fn top_k_far_past_the_score_count_returns_every_index() {
        let scores = [0.3, 0.9, 0.1];
        for k in [1_000_000_000_000_000, usize::MAX] {
            assert_eq!(top_k_indices(&scores, k), vec![1, 0, 2], "k = {k}");
        }
    }

    fn chain(round: u64, digest: &str) -> Vec<Event> {
        vec![
            Event::UserScored {
                round,
                user: 1,
                score: 0.9,
                rank: 0,
                candidate: true,
                parent: 0,
            },
            Event::ArmScored {
                round,
                user: 1,
                arm: 4,
                mean: 0.6,
                sigma: 0.1,
                ucb: 0.8,
                rank: 0,
                masked: false,
                parent: 0,
            },
            Event::DecisionWitness {
                round,
                user: 1,
                arm: 4,
                user_margin: 0.2,
                arm_margin: 0.1,
                path: "greedy(max-gap)".into(),
                fallback: String::new(),
                censored: false,
                candidates: 2,
                digest: digest.into(),
                parent: 0,
            },
        ]
    }

    #[test]
    fn fold_commits_on_decision_witness_and_drops_torn_chains() {
        let mut events = chain(0, "aa");
        events.extend(chain(1, "bb"));
        // A torn round: scores emitted, commit marker never landed.
        events.push(Event::UserScored {
            round: 2,
            user: 0,
            score: 0.1,
            rank: 0,
            candidate: false,
            parent: 0,
        });
        let records = witness_records(&events);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].round, 0);
        assert_eq!(records[0].digest, "aa");
        assert_eq!(records[0].top_users.len(), 1);
        assert_eq!(records[0].top_arms.len(), 1);
        assert_eq!(records[1].round, 1);
    }

    #[test]
    fn fold_tolerates_interleaved_rounds() {
        let a = chain(0, "aa");
        let b = chain(1, "bb");
        // Interleave: scores of both rounds land before either commits.
        let events = vec![
            a[0].clone(),
            b[0].clone(),
            a[1].clone(),
            b[1].clone(),
            b[2].clone(),
            a[2].clone(),
        ];
        let records = witness_records(&events);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].round, 1, "commit order, not round order");
        assert_eq!(records[0].top_users[0].user, 1);
        assert_eq!(records[1].round, 0);
        assert_eq!(records[1].top_arms[0].arm, 4);
    }

    #[test]
    fn witness_record_serializes_to_json() {
        let records = witness_records(&chain(7, "cc"));
        let line = records[0].to_json();
        assert!(line.contains("\"round\":7"), "{line}");
        assert!(line.contains("\"digest\":\"cc\""), "{line}");
        assert!(line.contains("\"top_users\":[{"), "{line}");
    }
}
