//! Binary schema for the durable event stream.
//!
//! One [`DurableEvent`] per state mutation the scheduler already captures
//! in its JSON checkpoint: round lifecycle, per-attempt observations,
//! quarantine/probation transitions, the committed rolling digest and RNG
//! words, and the exec engine's dispatch/completion stream. Encoding is a
//! tag byte followed by fixed-width little-endian fields (`f64` as IEEE
//! bits), so records are self-describing, compact, and decode without an
//! allocation-heavy format on the recovery path.

/// Censoring kind code for a crashed training run.
pub const KIND_CRASH: u8 = 0;
/// Censoring kind code for a timed-out training run.
pub const KIND_TIMEOUT: u8 = 1;
/// Censoring kind code for a run that returned an invalid quality.
pub const KIND_INVALID: u8 = 2;

/// One durable state mutation, as appended to the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableEvent {
    /// A scheduler round began (before any attempt ran).
    RoundStart {
        /// Global round index.
        round: u64,
    },
    /// An attempt resolved with a valid quality observation.
    ObservationResolved {
        /// Global round index.
        round: u64,
        /// Tenant index.
        user: u64,
        /// Candidate-model (arm) index within the tenant.
        arm: u64,
        /// Observed accuracy in `[0, 1]`.
        accuracy: f64,
        /// Cost charged on the shared clock.
        cost: f64,
    },
    /// An attempt was censored by a fault (pre-backoff charge).
    ObservationCensored {
        /// Global round index.
        round: u64,
        /// Tenant index.
        user: u64,
        /// Candidate-model (arm) index within the tenant.
        arm: u64,
        /// Cost consumed by the failed attempt, before retry backoff.
        charge: f64,
        /// Censoring kind: [`KIND_CRASH`], [`KIND_TIMEOUT`] or [`KIND_INVALID`].
        kind: u8,
    },
    /// An arm crossed the quarantine threshold and was masked.
    ArmQuarantined {
        /// Tenant index.
        user: u64,
        /// Masked arm index.
        arm: u64,
        /// Round at which the arm re-enters on probation.
        release_round: u64,
    },
    /// A quarantined arm was released back into the candidate set.
    ProbationRelease {
        /// Round at which the release happened.
        round: u64,
        /// Tenant index.
        user: u64,
        /// Released arm index.
        arm: u64,
    },
    /// A round committed: the serial simulator's durability barrier.
    RoundCommit {
        /// Global round index that committed.
        round: u64,
        /// Tenant the round was granted to.
        user: u64,
        /// Arm that was trained (final attempt).
        arm: u64,
        /// Whether the round resolved censored.
        censored: bool,
        /// Rolling decision-witness digest *after* folding this round.
        digest: u64,
        /// RNG state words after the round, for bit-exact replay checks.
        rng: [u64; 4],
    },
    /// A checkpoint was written; sealed segments before it are obsolete.
    CheckpointMark {
        /// Rounds covered by the checkpoint.
        rounds: u64,
        /// Rolling witness digest at the checkpoint.
        digest: u64,
    },
    /// The exec engine dispatched a run to a device.
    ExecDispatch {
        /// Monotonic dispatch sequence number.
        seq: u64,
        /// Tenant index.
        user: u64,
        /// Arm index.
        arm: u64,
        /// Device the run was placed on.
        device: u64,
    },
    /// The exec engine committed a completion (in completion order).
    ExecCompletion {
        /// Dispatch sequence number of the completed run.
        seq: u64,
        /// Tenant index.
        user: u64,
        /// Arm index.
        arm: u64,
        /// Whether the run completed censored.
        censored: bool,
        /// Rolling witness digest *after* folding this completion.
        digest: u64,
    },
    /// A tenant joined the service mid-run. Carries everything recovery
    /// needs to re-register the tenant when the join postdates the latest
    /// checkpoint: its slot, candidate-model count, and display name.
    TenantJoined {
        /// Rounds committed when the join happened (audit ordering; replay
        /// dedups by `user` against the restored checkpoint).
        round: u64,
        /// Index (slot) the tenant was registered under.
        user: u64,
        /// Number of candidate models the tenant's program declares
        /// (cross-checked against the re-parsed program on replay).
        arms: u64,
        /// Tenant display name (UTF-8, u32-length-prefixed on disk).
        name: String,
        /// Original program source, so recovery can re-register a join
        /// that postdates the latest checkpoint.
        program: String,
    },
    /// A tenant retired. Replay re-applies the retirement idempotently;
    /// the tenant's slot and GP state survive, only its picker visibility
    /// ends.
    TenantRetired {
        /// Rounds committed when the retirement happened.
        round: u64,
        /// Index (slot) of the retired tenant.
        user: u64,
    },
}

const TAG_ROUND_START: u8 = 0;
const TAG_OBS_RESOLVED: u8 = 1;
const TAG_OBS_CENSORED: u8 = 2;
const TAG_QUARANTINED: u8 = 3;
const TAG_PROBATION: u8 = 4;
const TAG_ROUND_COMMIT: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_EXEC_DISPATCH: u8 = 7;
const TAG_EXEC_COMPLETION: u8 = 8;
const TAG_TENANT_JOINED: u8 = 9;
const TAG_TENANT_RETIRED: u8 = 10;

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&u32::try_from(s.len()).expect("name too long").to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| "record truncated".to_string())?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self.pos + 8;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| "record truncated".to_string())?;
        self.pos = end;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, String> {
        let end = self.pos + 4;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| "record truncated".to_string())?;
        self.pos = end;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(bytes);
        let len = u32::from_le_bytes(raw) as usize;
        let end = self.pos + len;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| "record truncated".to_string())?;
        self.pos = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string field".to_string())
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid bool byte {other}")),
        }
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(format!(
                "trailing bytes: consumed {} of {}",
                self.pos,
                self.data.len()
            ))
        }
    }
}

impl DurableEvent {
    /// Short stable name of the record type, for reports.
    #[must_use]
    pub fn tag_name(&self) -> &'static str {
        match self {
            Self::RoundStart { .. } => "round-start",
            Self::ObservationResolved { .. } => "obs-resolved",
            Self::ObservationCensored { .. } => "obs-censored",
            Self::ArmQuarantined { .. } => "arm-quarantined",
            Self::ProbationRelease { .. } => "probation-release",
            Self::RoundCommit { .. } => "round-commit",
            Self::CheckpointMark { .. } => "checkpoint-mark",
            Self::ExecDispatch { .. } => "exec-dispatch",
            Self::ExecCompletion { .. } => "exec-completion",
            Self::TenantJoined { .. } => "tenant-joined",
            Self::TenantRetired { .. } => "tenant-retired",
        }
    }

    /// Whether this record ends a batch: the writer stages records and
    /// writes them with one `write(2)` when it logs a commit point.
    ///
    /// Recovery keeps nothing logged after the last round commit, exec
    /// completion, checkpoint mark or tenant lifecycle record (see
    /// `plan_replay` and `recover_engine`), so those are the records whose
    /// logging must reach the file before the call that logged them
    /// returns. Everything else (round starts, attempt outcomes,
    /// quarantine transitions, dispatches) rides in the batch its commit
    /// point closes.
    #[must_use]
    pub fn is_commit_point(&self) -> bool {
        matches!(
            self,
            Self::RoundCommit { .. }
                | Self::ExecCompletion { .. }
                | Self::CheckpointMark { .. }
                | Self::TenantJoined { .. }
                | Self::TenantRetired { .. }
        )
    }

    /// Encode the event into its binary payload (without framing).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(80);
        self.encode_into(&mut buf);
        buf
    }

    /// Append the event's binary payload (without framing) to `buf`, so a
    /// caller that keeps one buffer encodes without allocating.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            Self::RoundStart { round } => {
                buf.push(TAG_ROUND_START);
                put_u64(buf, round);
            }
            Self::ObservationResolved {
                round,
                user,
                arm,
                accuracy,
                cost,
            } => {
                buf.push(TAG_OBS_RESOLVED);
                put_u64(buf, round);
                put_u64(buf, user);
                put_u64(buf, arm);
                put_f64(buf, accuracy);
                put_f64(buf, cost);
            }
            Self::ObservationCensored {
                round,
                user,
                arm,
                charge,
                kind,
            } => {
                buf.push(TAG_OBS_CENSORED);
                put_u64(buf, round);
                put_u64(buf, user);
                put_u64(buf, arm);
                put_f64(buf, charge);
                buf.push(kind);
            }
            Self::ArmQuarantined {
                user,
                arm,
                release_round,
            } => {
                buf.push(TAG_QUARANTINED);
                put_u64(buf, user);
                put_u64(buf, arm);
                put_u64(buf, release_round);
            }
            Self::ProbationRelease { round, user, arm } => {
                buf.push(TAG_PROBATION);
                put_u64(buf, round);
                put_u64(buf, user);
                put_u64(buf, arm);
            }
            Self::RoundCommit {
                round,
                user,
                arm,
                censored,
                digest,
                rng,
            } => {
                buf.push(TAG_ROUND_COMMIT);
                put_u64(buf, round);
                put_u64(buf, user);
                put_u64(buf, arm);
                buf.push(u8::from(censored));
                put_u64(buf, digest);
                for word in rng {
                    put_u64(buf, word);
                }
            }
            Self::CheckpointMark { rounds, digest } => {
                buf.push(TAG_CHECKPOINT);
                put_u64(buf, rounds);
                put_u64(buf, digest);
            }
            Self::ExecDispatch {
                seq,
                user,
                arm,
                device,
            } => {
                buf.push(TAG_EXEC_DISPATCH);
                put_u64(buf, seq);
                put_u64(buf, user);
                put_u64(buf, arm);
                put_u64(buf, device);
            }
            Self::ExecCompletion {
                seq,
                user,
                arm,
                censored,
                digest,
            } => {
                buf.push(TAG_EXEC_COMPLETION);
                put_u64(buf, seq);
                put_u64(buf, user);
                put_u64(buf, arm);
                buf.push(u8::from(censored));
                put_u64(buf, digest);
            }
            Self::TenantJoined {
                round,
                user,
                arms,
                ref name,
                ref program,
            } => {
                buf.push(TAG_TENANT_JOINED);
                put_u64(buf, round);
                put_u64(buf, user);
                put_u64(buf, arms);
                put_str(buf, name);
                put_str(buf, program);
            }
            Self::TenantRetired { round, user } => {
                buf.push(TAG_TENANT_RETIRED);
                put_u64(buf, round);
                put_u64(buf, user);
            }
        }
    }

    /// Decode a payload produced by [`DurableEvent::encode`].
    ///
    /// # Errors
    /// Returns a description of the first malformation: unknown tag,
    /// truncated field, invalid bool byte, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut c = Cursor::new(payload);
        let tag = c.u8()?;
        let event = match tag {
            TAG_ROUND_START => Self::RoundStart { round: c.u64()? },
            TAG_OBS_RESOLVED => Self::ObservationResolved {
                round: c.u64()?,
                user: c.u64()?,
                arm: c.u64()?,
                accuracy: c.f64()?,
                cost: c.f64()?,
            },
            TAG_OBS_CENSORED => {
                let (round, user, arm, charge) = (c.u64()?, c.u64()?, c.u64()?, c.f64()?);
                let kind = c.u8()?;
                if kind > KIND_INVALID {
                    return Err(format!("invalid censor kind {kind}"));
                }
                Self::ObservationCensored {
                    round,
                    user,
                    arm,
                    charge,
                    kind,
                }
            }
            TAG_QUARANTINED => Self::ArmQuarantined {
                user: c.u64()?,
                arm: c.u64()?,
                release_round: c.u64()?,
            },
            TAG_PROBATION => Self::ProbationRelease {
                round: c.u64()?,
                user: c.u64()?,
                arm: c.u64()?,
            },
            TAG_ROUND_COMMIT => Self::RoundCommit {
                round: c.u64()?,
                user: c.u64()?,
                arm: c.u64()?,
                censored: c.bool()?,
                digest: c.u64()?,
                rng: [c.u64()?, c.u64()?, c.u64()?, c.u64()?],
            },
            TAG_CHECKPOINT => Self::CheckpointMark {
                rounds: c.u64()?,
                digest: c.u64()?,
            },
            TAG_EXEC_DISPATCH => Self::ExecDispatch {
                seq: c.u64()?,
                user: c.u64()?,
                arm: c.u64()?,
                device: c.u64()?,
            },
            TAG_EXEC_COMPLETION => Self::ExecCompletion {
                seq: c.u64()?,
                user: c.u64()?,
                arm: c.u64()?,
                censored: c.bool()?,
                digest: c.u64()?,
            },
            TAG_TENANT_JOINED => Self::TenantJoined {
                round: c.u64()?,
                user: c.u64()?,
                arms: c.u64()?,
                name: c.str()?,
                program: c.str()?,
            },
            TAG_TENANT_RETIRED => Self::TenantRetired {
                round: c.u64()?,
                user: c.u64()?,
            },
            other => return Err(format!("unknown record tag {other}")),
        };
        c.finish()?;
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<DurableEvent> {
        vec![
            DurableEvent::RoundStart { round: 7 },
            DurableEvent::ObservationResolved {
                round: 7,
                user: 2,
                arm: 5,
                accuracy: 0.8125,
                cost: 1.5,
            },
            DurableEvent::ObservationCensored {
                round: 7,
                user: 2,
                arm: 5,
                charge: 0.75,
                kind: KIND_TIMEOUT,
            },
            DurableEvent::ArmQuarantined {
                user: 2,
                arm: 5,
                release_round: 32,
            },
            DurableEvent::ProbationRelease {
                round: 32,
                user: 2,
                arm: 5,
            },
            DurableEvent::RoundCommit {
                round: 7,
                user: 2,
                arm: 5,
                censored: true,
                digest: 0xdead_beef_cafe_f00d,
                rng: [1, 2, 3, u64::MAX],
            },
            DurableEvent::CheckpointMark {
                rounds: 8,
                digest: 42,
            },
            DurableEvent::ExecDispatch {
                seq: 11,
                user: 0,
                arm: 3,
                device: 1,
            },
            DurableEvent::ExecCompletion {
                seq: 11,
                user: 0,
                arm: 3,
                censored: false,
                digest: 99,
            },
            DurableEvent::TenantJoined {
                round: 40,
                user: 4,
                arms: 8,
                name: "tenant-d".into(),
                program: "{input: {[Tensor[8]], []}, output: {[Tensor[2]], []}}".into(),
            },
            DurableEvent::TenantRetired { round: 55, user: 4 },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for event in samples() {
            let payload = event.encode();
            let decoded = DurableEvent::decode(&payload)
                .unwrap_or_else(|e| panic!("{}: {e}", event.tag_name()));
            assert_eq!(decoded, event);
        }
    }

    #[test]
    fn encode_into_appends_the_encoded_payload() {
        let mut buf = vec![0xaa; 3];
        for event in samples() {
            let start = buf.len();
            event.encode_into(&mut buf);
            assert_eq!(buf[start..], event.encode()[..], "{}", event.tag_name());
        }
    }

    #[test]
    fn commit_points_are_the_records_recovery_keeps() {
        let commits: Vec<&str> = samples()
            .iter()
            .filter(|e| e.is_commit_point())
            .map(DurableEvent::tag_name)
            .collect();
        assert_eq!(
            commits,
            [
                "round-commit",
                "checkpoint-mark",
                "exec-completion",
                "tenant-joined",
                "tenant-retired"
            ]
        );
    }

    #[test]
    fn truncated_and_oversized_payloads_are_rejected() {
        for event in samples() {
            let payload = event.encode();
            // Every strict prefix must fail to decode.
            for cut in 0..payload.len() {
                assert!(
                    DurableEvent::decode(&payload[..cut]).is_err(),
                    "{} decoded from a {cut}-byte prefix",
                    event.tag_name()
                );
            }
            // Trailing garbage must fail too.
            let mut long = payload.clone();
            long.push(0);
            assert!(DurableEvent::decode(&long).is_err());
        }
    }

    #[test]
    fn unknown_tags_and_bad_enums_are_rejected() {
        assert!(DurableEvent::decode(&[200]).is_err());
        assert!(DurableEvent::decode(&[]).is_err());
        // Censor kind byte out of range.
        let mut censored = DurableEvent::ObservationCensored {
            round: 1,
            user: 0,
            arm: 0,
            charge: 0.5,
            kind: KIND_CRASH,
        }
        .encode();
        *censored.last_mut().unwrap() = 9;
        assert!(DurableEvent::decode(&censored).is_err());
        // Bool byte out of range on a commit record.
        let mut commit = DurableEvent::RoundCommit {
            round: 1,
            user: 0,
            arm: 0,
            censored: false,
            digest: 0,
            rng: [0; 4],
        }
        .encode();
        commit[25] = 7; // tag + 3 u64 fields = offset 25 is the bool byte
        assert!(DurableEvent::decode(&commit).is_err());
        // Invalid UTF-8 in a tenant name.
        let mut joined = DurableEvent::TenantJoined {
            round: 1,
            user: 0,
            arms: 4,
            name: "ok".into(),
            program: "p".into(),
        }
        .encode();
        *joined.last_mut().unwrap() = 0xFF; // 0xFF is never valid UTF-8
        assert!(DurableEvent::decode(&joined).is_err());
    }

    #[test]
    fn empty_tenant_names_round_trip() {
        let event = DurableEvent::TenantJoined {
            round: 0,
            user: 0,
            arms: 1,
            name: String::new(),
            program: String::new(),
        };
        assert_eq!(DurableEvent::decode(&event.encode()).unwrap(), event);
    }
}
