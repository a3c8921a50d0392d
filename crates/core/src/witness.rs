//! Decision provenance: per-round witnesses and the rolling state digest.
//!
//! Every scheduling round — server, serial sim, or multi-device exec —
//! folds its decision `(round, user, arm, censored)` into a rolling
//! FNV-1a digest and, when a recorder is attached, emits a bounded
//! witness: the top-K candidate users with the scores the picker ranked,
//! the top-K candidate arms with their posterior state, the winning
//! margins, and the decision path taken. The digest makes two runs
//! comparable round-by-round (`easeml-trace replay-diff` binary-searches
//! the first divergence on it); the witness events make any single round
//! explainable after the fact (`easeml-trace explain --round N`).
//!
//! Witness size is O(K) per round regardless of tenant or model count:
//! only the top-K users and arms are emitted, never the full score
//! vectors. The digest fold is O(1) and always on — it costs four
//! multiply-xor steps per round even with no recorder attached.

use easeml_bandit::ArmExplanation;
use easeml_obs::{top_k_indices, Event, RecorderHandle, RollingDigest};

/// Bound on witness fan-out: at most this many `UserScored` and
/// `ArmScored` events per round.
pub const WITNESS_TOP_K: usize = 8;

/// Everything one round's decision hinged on, handed to
/// [`DecisionLog::record`] by the capture site. Score slices are borrowed
/// — the log only reads the top K of them.
#[derive(Debug)]
pub struct RoundWitness<'a> {
    /// Global round index (warm-up and censored rounds count).
    pub round: u64,
    /// The served user.
    pub user: usize,
    /// The arm (model index) the round settled on — for a censored round,
    /// the last attempted arm.
    pub arm: usize,
    /// Per-tenant scores the picker ranked, indexed by user; empty for
    /// non-scoring strategies (round robin, FCFS, warm-up).
    pub user_scores: &'a [f64],
    /// The picker's candidate set `V_t`; empty when not candidate-driven.
    pub candidates: &'a [usize],
    /// The served tenant's arm-selection why-chain, when captured.
    pub arm_explanation: Option<&'a ArmExplanation>,
    /// Decision-path label (e.g. `"hybrid:greedy(max-gap)"`, `"warm-up"`).
    pub path: String,
    /// Failure kind for a censored round; empty on healthy rounds.
    pub fallback: String,
    /// Whether the round was censored (all attempts failed).
    pub censored: bool,
}

/// The per-run provenance accumulator: a rolling digest of every decision
/// plus the bounded-K witness emitter.
///
/// The digest folds only what the scheduler *decided* — round, user, arm,
/// censored — never posterior values or timings, so a serial sim and a
/// D=1 exec run of the same scenario produce identical digests. Its
/// rolling (prefix) property is what makes binary search for the first
/// divergent round sound: digests agree at round r iff every decision up
/// to and including r agrees. The log counts no rounds of its own: the
/// server's round counter and the engine's completions are that count.
#[derive(Debug, Clone, Default)]
pub struct DecisionLog {
    digest: RollingDigest,
}

impl DecisionLog {
    /// A fresh log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a log from a checkpointed digest so the rolling chain
    /// continues across a restore instead of restarting from the offset.
    pub fn from_state(digest: u64) -> Self {
        DecisionLog {
            digest: RollingDigest::from_value(digest),
        }
    }

    /// Current digest value.
    pub fn digest_value(&self) -> u64 {
        self.digest.value()
    }

    /// Current digest as the 16-hex-char form carried by
    /// [`Event::DecisionWitness`].
    pub fn digest_hex(&self) -> String {
        self.digest.hex()
    }

    /// Folds one round into the digest and, when `recorder` is live, emits
    /// its witness chain: `UserScored*`, `ArmScored*`, then the
    /// `DecisionWitness` commit marker (always last, so readers can treat
    /// a round without its marker as torn and skip it).
    ///
    /// The emission runs under its own `witness` span, so profilers
    /// attribute its cost as a child phase of `scheduler_step` rather than
    /// the step's self-time.
    pub fn record(&mut self, recorder: &RecorderHandle, w: RoundWitness<'_>) {
        self.digest.absorb_u64(w.round);
        self.digest.absorb_u64(w.user as u64);
        self.digest.absorb_u64(w.arm as u64);
        self.digest.absorb_u64(u64::from(w.censored));
        if !recorder.is_enabled() {
            return;
        }
        let _span = recorder.span("witness");
        for (rank, &u) in top_k_indices(w.user_scores, WITNESS_TOP_K)
            .iter()
            .enumerate()
        {
            let score = w.user_scores[u];
            let candidate = w.candidates.contains(&u);
            recorder.emit(|| Event::UserScored {
                round: w.round,
                user: u,
                score,
                rank: rank as u64,
                candidate,
                parent: easeml_obs::current_span(),
            });
        }
        if let Some(expl) = w.arm_explanation {
            for (rank, s) in expl.top.iter().take(WITNESS_TOP_K).enumerate() {
                recorder.emit(|| Event::ArmScored {
                    round: w.round,
                    user: w.user,
                    arm: s.arm,
                    mean: s.mean,
                    sigma: s.sigma,
                    ucb: s.ucb,
                    rank: rank as u64,
                    masked: s.masked,
                    parent: easeml_obs::current_span(),
                });
            }
        }
        let user_margin = chosen_margin(w.user_scores, w.user);
        let arm_margin = w.arm_explanation.map_or(f64::NAN, |e| e.margin);
        let digest = self.digest.hex();
        recorder.emit(|| Event::DecisionWitness {
            round: w.round,
            user: w.user,
            arm: w.arm,
            user_margin,
            arm_margin,
            path: w.path,
            fallback: w.fallback,
            censored: w.censored,
            candidates: w.candidates.len() as u64,
            digest,
            parent: easeml_obs::current_span(),
        });
    }
}

/// Gap between the chosen index's score and the best *other* score — how
/// decisively the chosen user won. `NaN` when the strategy did not score
/// (empty slice), there is no runner-up, or the choice fell outside the
/// scored range.
fn chosen_margin(scores: &[f64], chosen: usize) -> f64 {
    if scores.len() < 2 || chosen >= scores.len() {
        return f64::NAN;
    }
    let best_other = scores
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != chosen)
        .map(|(_, &s)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    scores[chosen] - best_other
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_obs::InMemoryRecorder;
    use std::sync::Arc;

    fn witness<'a>(round: u64, user: usize, arm: usize, scores: &'a [f64]) -> RoundWitness<'a> {
        RoundWitness {
            round,
            user,
            arm,
            user_scores: scores,
            candidates: &[],
            arm_explanation: None,
            path: "test".to_string(),
            fallback: String::new(),
            censored: false,
        }
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = DecisionLog::new();
        let mut b = DecisionLog::new();
        let noop = RecorderHandle::noop();
        for r in 0..5 {
            a.record(&noop, witness(r, r as usize % 3, 1, &[]));
            b.record(&noop, witness(r, r as usize % 3, 1, &[]));
        }
        assert_eq!(a.digest_value(), b.digest_value());
        // A different decision at any round moves the digest.
        let mut c = DecisionLog::new();
        for r in 0..5 {
            let user = if r == 3 { 2 } else { r as usize % 3 };
            c.record(&noop, witness(r, user, 1, &[]));
        }
        assert_ne!(a.digest_value(), c.digest_value());
    }

    #[test]
    fn record_emits_a_bounded_committed_chain() {
        let rec = Arc::new(InMemoryRecorder::new());
        let handle = RecorderHandle::new(rec.clone());
        let mut log = DecisionLog::new();
        let scores = [0.1, 0.9, 0.5, 0.3, 0.8, 0.2, 0.7, 0.05, 0.6, 0.4];
        let mut w = witness(7, 1, 4, &scores);
        w.candidates = &[1, 2];
        log.record(&handle, w);
        let events = rec.events();
        // Bounded: K = 8 UserScored (not 10), best first, then the commit
        // marker, inside a witness span.
        let users: Vec<(usize, u64, bool)> = events
            .iter()
            .filter_map(|e| match *e {
                Event::UserScored {
                    user,
                    rank,
                    candidate,
                    ..
                } => Some((user, rank, candidate)),
                _ => None,
            })
            .collect();
        assert_eq!(
            users,
            vec![
                (1, 0, true),
                (4, 1, false),
                (6, 2, false),
                (8, 3, false),
                (2, 4, true),
                (9, 5, false),
                (3, 6, false),
                (5, 7, false),
            ]
        );
        match events.iter().rev().nth(1) {
            Some(Event::DecisionWitness {
                round: 7,
                user: 1,
                arm: 4,
                user_margin,
                candidates: 2,
                digest,
                ..
            }) => {
                assert!((*user_margin - 0.1).abs() < 1e-12);
                assert_eq!(digest, &log.digest_hex());
            }
            other => panic!("expected trailing DecisionWitness, got {other:?}"),
        }
        assert!(matches!(
            events.first(),
            Some(Event::SpanStart { name, .. }) if name == "witness"
        ));
        assert!(matches!(events.last(), Some(Event::SpanEnd { .. })));
    }

    #[test]
    fn margins_degrade_to_nan_without_scores() {
        assert!(chosen_margin(&[], 0).is_nan());
        assert!(chosen_margin(&[1.0], 0).is_nan());
        assert!(chosen_margin(&[1.0, 2.0], 5).is_nan());
        assert_eq!(chosen_margin(&[1.0, 3.0], 1), 2.0);
        // A losing choice has a negative margin — visible in explain.
        assert_eq!(chosen_margin(&[1.0, 3.0], 0), -2.0);
    }

    #[test]
    fn noop_recorder_still_advances_the_digest() {
        let mut log = DecisionLog::new();
        let before = log.digest_value();
        log.record(&RecorderHandle::noop(), witness(0, 0, 0, &[]));
        assert_ne!(log.digest_value(), before);
    }
}
