//! Segmented log files: group-commit append path, torn-tolerant reader,
//! compaction.
//!
//! A log directory holds segments named `wal-NNNNNNNN.log` in strictly
//! increasing index order. Only the highest-indexed segment is ever
//! written; sealed segments are immutable, so compaction after a
//! checkpoint is a plain delete of older files. The reader scans segments
//! in order and stops at the first framing violation, reporting it as a
//! [`TornTail`] instead of an error — a torn tail is the *expected*
//! outcome of a crash, not corruption to refuse.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crashpoint::CrashPoint;
use crate::crc32;

/// Upper bound on a single record payload; a larger length prefix is
/// treated as a torn/garbage header rather than an allocation request.
pub const MAX_RECORD_BYTES: u32 = 1 << 20;

const HEADER_BYTES: u64 = 8;

/// When the writer flushes to the platter.
///
/// The policy is applied per *commit write* (see [`WalWriter::commit`]):
/// a sync never lands between the records of one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every commit write — maximum durability, slowest.
    Always,
    /// `fdatasync` after the first commit write that brings the records
    /// written since the last sync to N or more — bounded loss window.
    EveryN(u64),
    /// Never sync explicitly — the OS decides; fastest, weakest.
    Never,
}

/// Writer configuration.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Sync policy for appends.
    pub fsync: FsyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
            fsync: FsyncPolicy::EveryN(16),
        }
    }
}

/// Why the reader stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than 8 header bytes at the tail.
    PartialHeader,
    /// Header present but the payload is cut short.
    PartialPayload,
    /// Payload present but its CRC32 does not match.
    BadCrc,
    /// A zeroed header (`len == 0 && crc == 0`), as left by preallocation
    /// or a zero-filled page after power loss.
    ZeroFill,
    /// Length prefix above [`MAX_RECORD_BYTES`] — a garbage header.
    OversizeLength,
}

impl TornReason {
    /// Stable lowercase name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::PartialHeader => "partial-header",
            Self::PartialPayload => "partial-payload",
            Self::BadCrc => "bad-crc",
            Self::ZeroFill => "zero-fill",
            Self::OversizeLength => "oversize-length",
        }
    }
}

/// Location and cause of a torn tail found by [`read_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment index the violation was found in.
    pub segment: u64,
    /// Byte offset within that segment of the first invalid byte.
    pub offset: u64,
    /// What the violation looked like.
    pub reason: TornReason,
}

/// One valid record returned by [`read_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRecord {
    /// Decoded-framing payload bytes.
    pub payload: Vec<u8>,
    /// Segment index the record lives in.
    pub segment: u64,
    /// Byte offset within that segment just *after* the record — the
    /// truncation point that keeps this record and drops everything later.
    pub end_offset: u64,
}

/// Result of scanning a log directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalLog {
    /// All valid records, in append order, up to the first violation.
    pub records: Vec<ReadRecord>,
    /// The first framing violation, if any.
    pub torn: Option<TornTail>,
    /// Every segment file present, in index order.
    pub segments: Vec<(u64, PathBuf)>,
    /// Total valid record bytes (framing included) across scanned segments.
    pub valid_bytes: u64,
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:08}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(index) = name.to_str().and_then(parse_segment_name) {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(index, _)| *index);
    Ok(segments)
}

/// Valid records (payload + end offset) plus the first violation, if any.
type ScanOutcome = (Vec<(Vec<u8>, u64)>, Option<(u64, TornReason)>);

/// Scan one segment's bytes, returning the valid records (payload + end
/// offset) and the first violation, if any.
fn scan_segment(data: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = data.len() - pos;
        if remaining == 0 {
            return (records, None);
        }
        if remaining < HEADER_BYTES as usize {
            return (records, Some((pos as u64, TornReason::PartialHeader)));
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 && crc == 0 {
            return (records, Some((pos as u64, TornReason::ZeroFill)));
        }
        if len > MAX_RECORD_BYTES {
            return (records, Some((pos as u64, TornReason::OversizeLength)));
        }
        let body_end = pos + HEADER_BYTES as usize + len as usize;
        if body_end > data.len() {
            return (records, Some((pos as u64, TornReason::PartialPayload)));
        }
        let payload = &data[pos + HEADER_BYTES as usize..body_end];
        if crc32(payload) != crc {
            return (records, Some((pos as u64, TornReason::BadCrc)));
        }
        records.push((payload.to_vec(), body_end as u64));
        pos = body_end;
    }
}

/// Read the whole log directory, tolerating a torn tail.
///
/// Scanning stops at the first framing violation; segments after the torn
/// one are listed but their contents ignored — with a single writer they
/// can only be stale leftovers from before a truncation.
///
/// # Errors
/// Only real I/O failures (missing directory, unreadable file) error;
/// torn or empty logs are valid results.
pub fn read_log(dir: &Path) -> io::Result<WalLog> {
    let segments = list_segments(dir)?;
    let mut records = Vec::new();
    let mut torn = None;
    let mut valid_bytes = 0u64;
    for (index, path) in &segments {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        let (found, violation) = scan_segment(&data);
        for (payload, end_offset) in found {
            valid_bytes += HEADER_BYTES + payload.len() as u64;
            records.push(ReadRecord {
                payload,
                segment: *index,
                end_offset,
            });
        }
        if let Some((offset, reason)) = violation {
            torn = Some(TornTail {
                segment: *index,
                offset,
                reason,
            });
            break;
        }
    }
    Ok(WalLog {
        records,
        torn,
        segments,
        valid_bytes,
    })
}

/// Truncate the log so that `keep` — a `(segment, end_offset)` pair as
/// reported by [`ReadRecord`] — is the last surviving byte. With `None`
/// the log is emptied (the lowest segment is kept at zero length so the
/// index sequence stays monotone).
///
/// # Errors
/// Propagates filesystem errors from truncation or deletion.
pub fn truncate_log(dir: &Path, keep: Option<(u64, u64)>) -> io::Result<()> {
    let segments = list_segments(dir)?;
    if segments.is_empty() {
        return Ok(());
    }
    let (keep_segment, keep_offset) = match keep {
        Some(pair) => pair,
        None => (segments[0].0, 0),
    };
    for (index, path) in &segments {
        if *index < keep_segment {
            continue;
        }
        if *index == keep_segment {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(keep_offset)?;
            file.sync_data()?;
        } else {
            fs::remove_file(path)?;
        }
    }
    Ok(())
}

/// What one [`WalWriter::commit`] (or [`WalWriter::append`]) call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Bytes this call wrote: the whole staged batch, framing included
    /// (fewer only when a crash point fired inside it, zero when nothing
    /// was staged or the writer is dead).
    pub bytes: u64,
    /// Records the batch carried (zero when the write was torn).
    pub records: u64,
    /// Whether an fsync followed the write (the policy's, or the one
    /// [`WalWriter::sync`] always makes).
    pub synced: bool,
    /// Whether the write rotated to a fresh segment first.
    pub rotated: bool,
}

/// A system call the writer makes, for callers that scope each one (with
/// a profiler span, say) through [`WalWriter::commit_scoped`] and its
/// siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalCall {
    /// The single `write(2)` of one batch.
    Write,
    /// One `fdatasync(2)`.
    Fsync,
}

/// Append-only writer over a segment directory, with group commit.
///
/// Records are framed in place into the writer's own staging buffer by
/// [`WalWriter::stage_with`], which does no I/O, and reach the file in
/// one `write(2)` per [`WalWriter::commit`]. The bytes on disk are the
/// same as writing each record on its own, in the same order; only the
/// write boundaries differ. Recovery keeps nothing after the last commit
/// point, so a caller commits at each one and loses nothing durable by
/// batching the records before it. Dropping the writer discards a staged
/// batch, exactly as a crash before its commit would.
///
/// Opening repairs a torn tail (truncates the last segment to its valid
/// prefix, deletes any stale later segments) and resumes appending, so a
/// recovered process can keep logging into the same directory.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    segment_index: u64,
    segment_len: u64,
    options: WalOptions,
    unsynced: u64,
    stream_offset: u64,
    crash: Option<CrashPoint>,
    dead: bool,
    /// Framed records not yet written: the open batch.
    pending: Vec<u8>,
    /// Records in `pending`.
    pending_records: u64,
    appends: u64,
    writes: u64,
    fsyncs: u64,
    rotations: u64,
}

impl WalWriter {
    /// Open (or create) the log directory for appending.
    ///
    /// # Errors
    /// Propagates filesystem errors from directory creation, the initial
    /// scan, or tail repair.
    pub fn open(dir: &Path, options: WalOptions) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let (segment_index, segment_len, stream_offset) = if segments.is_empty() {
            File::create(dir.join(segment_name(0)))?.sync_data()?;
            (0, 0, 0)
        } else {
            let mut total = 0u64;
            let mut last = (segments[0].0, 0u64);
            let mut torn_at = None;
            for (index, path) in &segments {
                let mut data = Vec::new();
                File::open(path)?.read_to_end(&mut data)?;
                let (records, violation) = scan_segment(&data);
                let valid: u64 = records.last().map_or(0, |(_, end)| *end);
                total += valid;
                last = (*index, valid);
                if violation.is_some() {
                    torn_at = Some(*index);
                    // Repair: truncate this segment to its valid prefix.
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(valid)?;
                    file.sync_data()?;
                    break;
                }
            }
            if let Some(torn_index) = torn_at {
                // Stale segments after a torn one are unreachable by the
                // reader; drop them so appends land in a consistent tail.
                for (index, path) in &segments {
                    if *index > torn_index {
                        fs::remove_file(path)?;
                    }
                }
            }
            (last.0, last.1, total)
        };
        let path = dir.join(segment_name(segment_index));
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.seek(SeekFrom::Start(segment_len))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            file,
            segment_index,
            segment_len,
            options,
            unsynced: 0,
            stream_offset,
            crash: None,
            dead: false,
            pending: Vec::new(),
            pending_records: 0,
            appends: 0,
            writes: 0,
            fsyncs: 0,
            rotations: 0,
        })
    }

    /// Arm (or disarm) a crash point on the write path.
    pub fn set_crash_point(&mut self, crash: Option<CrashPoint>) {
        self.crash = crash;
    }

    /// Whether a crash point has fired; a dead writer silently ignores
    /// every subsequent operation, like a dead process would.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Global bytes written across all segments since the log was first
    /// created (monotone; unaffected by compaction; staged records are not
    /// counted until their batch is written).
    #[must_use]
    pub fn stream_offset(&self) -> u64 {
        self.stream_offset
    }

    /// Index of the segment currently being appended to.
    #[must_use]
    pub fn segment_index(&self) -> u64 {
        self.segment_index
    }

    /// Records written by this writer instance (staged records count once
    /// their batch is written; a batch torn by a crash point counts none).
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Batch `write(2)` calls made by this writer instance: one per
    /// [`WalWriter::commit`] (or [`WalWriter::sync`]/[`WalWriter::rotate`])
    /// that found records staged.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Fsyncs issued by this writer instance.
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Segment rotations performed by this writer instance.
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Records staged and not yet written.
    #[must_use]
    pub fn staged(&self) -> u64 {
        self.pending_records
    }

    /// Stage one record: `encode` appends its payload to the staging
    /// buffer (leaving the bytes already there alone), which the writer
    /// frames in place (length and CRC32 header) without allocating once
    /// the buffer has grown to a batch. No I/O — the record reaches the
    /// file with the next [`WalWriter::commit`].
    ///
    /// # Errors
    /// Rejects (and unstages) a payload above [`MAX_RECORD_BYTES`].
    pub fn stage_with<F: FnOnce(&mut Vec<u8>)>(&mut self, encode: F) -> io::Result<()> {
        if self.dead {
            return Ok(());
        }
        let start = self.pending.len();
        let body = start + HEADER_BYTES as usize;
        self.pending.resize(body, 0);
        encode(&mut self.pending);
        let len = self.pending.len() - body;
        if len as u64 > u64::from(MAX_RECORD_BYTES) {
            self.pending.truncate(start);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record payload {len} bytes exceeds cap"),
            ));
        }
        let crc = crc32(&self.pending[body..]);
        self.pending[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.pending[start + 4..body].copy_from_slice(&crc.to_le_bytes());
        self.pending_records += 1;
        Ok(())
    }

    /// Write the staged batch with one `write(2)`, then sync per policy.
    ///
    /// Rotation is checked before the write, so a batch never straddles
    /// two segments; an armed crash point tears the batch at the same
    /// global byte it would have torn the records written one by one.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn commit(&mut self) -> io::Result<AppendOutcome> {
        self.commit_scoped(|_| ())
    }

    /// [`WalWriter::commit`], opening `scope` around each system call
    /// (the batch write, and every fdatasync of a rotation or the policy)
    /// and holding its guard for the call's duration.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn commit_scoped<G>(
        &mut self,
        mut scope: impl FnMut(WalCall) -> G,
    ) -> io::Result<AppendOutcome> {
        let mut outcome = self.write_pending(&mut scope)?;
        let due = match self.options.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if outcome.records > 0 && due {
            self.fdatasync(&mut scope)?;
            outcome.synced = true;
        }
        Ok(outcome)
    }

    /// Stage one record and commit it: the one-record batch.
    ///
    /// # Errors
    /// Rejects payloads above [`MAX_RECORD_BYTES`]; propagates I/O errors.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<AppendOutcome> {
        self.stage_with(|buf| buf.extend_from_slice(payload))?;
        self.commit()
    }

    /// Rotation (when the segment is full), the crash point and the batch
    /// write; no policy sync.
    fn write_pending<G>(
        &mut self,
        scope: &mut impl FnMut(WalCall) -> G,
    ) -> io::Result<AppendOutcome> {
        let mut outcome = AppendOutcome {
            bytes: 0,
            records: 0,
            synced: false,
            rotated: false,
        };
        if self.dead || self.pending.is_empty() {
            return Ok(outcome);
        }
        if self.segment_len >= self.options.segment_bytes && self.segment_len > 0 {
            self.open_next_segment(scope)?;
            outcome.rotated = true;
        }
        let records = std::mem::take(&mut self.pending_records);
        let mut keep = self.pending.len();
        if let Some(crash) = self.crash {
            if self.stream_offset + keep as u64 > crash.offset() {
                // The process "dies" mid-write: persist only the prefix up
                // to the crash offset, then go silent forever.
                keep = crash.offset().saturating_sub(self.stream_offset) as usize;
                self.dead = true;
            }
        }
        let written = {
            let _call = scope(WalCall::Write);
            self.file.write_all(&self.pending[..keep])
        };
        // Clearing keeps the capacity: the next batch stages without
        // allocating.
        self.pending.clear();
        written?;
        self.writes += 1;
        self.stream_offset += keep as u64;
        self.segment_len += keep as u64;
        outcome.bytes = keep as u64;
        if !self.dead {
            outcome.records = records;
            self.appends += records;
            self.unsynced += records;
        }
        Ok(outcome)
    }

    /// Write anything staged, then force an fsync of the current segment:
    /// afterwards everything appended is on disk. Returns what the write
    /// of the staged records did.
    ///
    /// # Errors
    /// Propagates write and `fdatasync` failures.
    pub fn sync(&mut self) -> io::Result<AppendOutcome> {
        self.sync_scoped(|_| ())
    }

    /// [`WalWriter::sync`], opening `scope` around each system call.
    ///
    /// # Errors
    /// Propagates write and `fdatasync` failures.
    pub fn sync_scoped<G>(
        &mut self,
        mut scope: impl FnMut(WalCall) -> G,
    ) -> io::Result<AppendOutcome> {
        let mut outcome = self.write_pending(&mut scope)?;
        if !self.dead {
            self.fdatasync(&mut scope)?;
            outcome.synced = true;
        }
        Ok(outcome)
    }

    fn fdatasync<G>(&mut self, scope: &mut impl FnMut(WalCall) -> G) -> io::Result<()> {
        {
            let _call = scope(WalCall::Fsync);
            self.file.sync_data()?;
        }
        self.fsyncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Write anything staged, then seal the current segment and start a
    /// fresh one.
    ///
    /// # Errors
    /// Propagates write and file creation/sync failures.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.rotate_scoped(|_| ())
    }

    /// [`WalWriter::rotate`], opening `scope` around each system call.
    ///
    /// # Errors
    /// Propagates write and file creation/sync failures.
    pub fn rotate_scoped<G>(&mut self, mut scope: impl FnMut(WalCall) -> G) -> io::Result<()> {
        self.write_pending(&mut scope)?;
        self.open_next_segment(&mut scope)
    }

    fn open_next_segment<G>(&mut self, scope: &mut impl FnMut(WalCall) -> G) -> io::Result<()> {
        if self.dead {
            return Ok(());
        }
        // Seal: whatever reached the old segment must be durable before
        // the new one exists, or compaction could delete unsynced data.
        self.fdatasync(scope)?;
        self.segment_index += 1;
        let path = self.dir.join(segment_name(self.segment_index));
        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        {
            // Not counted in `fsyncs`, which counts syncs of written data.
            let _call = scope(WalCall::Fsync);
            self.file.sync_data()?;
        }
        self.segment_len = 0;
        self.rotations += 1;
        Ok(())
    }

    /// Delete sealed segments older than the one being written — call
    /// after a checkpoint has made their contents redundant.
    ///
    /// # Errors
    /// Propagates deletion failures.
    pub fn compact(&mut self) -> io::Result<usize> {
        if self.dead {
            return Ok(0);
        }
        let mut removed = 0;
        for (index, path) in list_segments(&self.dir)? {
            if index < self.segment_index {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "easeml-wal-test-{}-{tag}-{seq}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(i: u64) -> Vec<u8> {
        let mut p = i.to_le_bytes().to_vec();
        p.extend(std::iter::repeat_n(i as u8, (i % 13) as usize));
        p
    }

    #[test]
    fn append_read_round_trip_preserves_order_and_offsets() {
        let dir = scratch_dir("roundtrip");
        let mut writer = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..20 {
            writer.append(&payload(i)).unwrap();
        }
        writer.sync().unwrap();
        let log = read_log(&dir).unwrap();
        assert!(log.torn.is_none());
        assert_eq!(log.records.len(), 20);
        for (i, record) in log.records.iter().enumerate() {
            assert_eq!(record.payload, payload(i as u64));
        }
        assert_eq!(log.valid_bytes, writer.stream_offset());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every segment of `dir`, in index order, concatenated.
    fn stream_bytes(dir: &Path) -> Vec<u8> {
        list_segments(dir)
            .unwrap()
            .iter()
            .flat_map(|(_, path)| fs::read(path).unwrap())
            .collect()
    }

    #[test]
    fn staged_records_reach_the_file_in_one_write_at_commit() {
        let dir = scratch_dir("stage");
        let options = WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
        };
        let mut writer = WalWriter::open(&dir, options).unwrap();
        for i in 0..3 {
            writer
                .stage_with(|buf| buf.extend_from_slice(&payload(i)))
                .unwrap();
        }
        assert_eq!(writer.staged(), 3);
        assert_eq!(writer.stream_offset(), 0, "staging does no I/O");
        assert!(read_log(&dir).unwrap().records.is_empty());
        let outcome = writer.commit().unwrap();
        assert_eq!(outcome.records, 3);
        assert!(outcome.synced);
        assert_eq!(outcome.bytes, writer.stream_offset());
        assert_eq!(
            (writer.appends(), writer.writes(), writer.fsyncs()),
            (3, 1, 1)
        );
        assert_eq!(writer.staged(), 0);
        // A commit with nothing staged writes and syncs nothing.
        let idle = writer.commit().unwrap();
        assert_eq!((idle.bytes, idle.records, idle.synced), (0, 0, false));
        assert_eq!((writer.writes(), writer.fsyncs()), (1, 1));
        let log = read_log(&dir).unwrap();
        assert!(log.torn.is_none());
        let payloads: Vec<Vec<u8>> = log.records.into_iter().map(|r| r.payload).collect();
        assert_eq!(payloads, (0..3).map(payload).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_and_per_record_writers_leave_the_same_stream() {
        let options = WalOptions {
            segment_bytes: 96,
            fsync: FsyncPolicy::Never,
        };
        let single = scratch_dir("single");
        let mut writer = WalWriter::open(&single, options).unwrap();
        for i in 0..40 {
            writer.append(&payload(i)).unwrap();
        }
        drop(writer);
        let batched = scratch_dir("batched");
        let mut writer = WalWriter::open(&batched, options).unwrap();
        for i in 0..40 {
            writer
                .stage_with(|buf| buf.extend_from_slice(&payload(i)))
                .unwrap();
            if i % 4 == 3 {
                writer.commit().unwrap();
            }
        }
        assert_eq!((writer.appends(), writer.writes()), (40, 10));
        drop(writer);
        assert_eq!(stream_bytes(&single), stream_bytes(&batched));
        // A batch never straddles segments: every record of a commit lands
        // in the segment the batch started in.
        let log = read_log(&batched).unwrap();
        assert!(log.torn.is_none());
        for batch in log.records.chunks(4) {
            assert!(batch.iter().all(|r| r.segment == batch[0].segment));
        }
        fs::remove_dir_all(&single).unwrap();
        fs::remove_dir_all(&batched).unwrap();
    }

    #[test]
    fn oversize_records_are_unstaged_and_the_batch_survives() {
        let dir = scratch_dir("oversize");
        let mut writer = WalWriter::open(&dir, WalOptions::default()).unwrap();
        writer
            .stage_with(|buf| buf.extend_from_slice(&payload(1)))
            .unwrap();
        let err = writer
            .stage_with(|buf| buf.resize(buf.len() + MAX_RECORD_BYTES as usize + 1, 7))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(writer
            .append(&vec![0; MAX_RECORD_BYTES as usize + 1])
            .is_err());
        assert_eq!(writer.staged(), 1);
        writer.commit().unwrap();
        let log = read_log(&dir).unwrap();
        assert!(log.torn.is_none());
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.records[0].payload, payload(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_writes_the_staged_batch_and_drop_discards_it() {
        let dir = scratch_dir("sync-drop");
        let mut writer = WalWriter::open(&dir, WalOptions::default()).unwrap();
        writer
            .stage_with(|buf| buf.extend_from_slice(&payload(1)))
            .unwrap();
        writer.sync().unwrap();
        assert_eq!((writer.writes(), writer.fsyncs()), (1, 1));
        assert_eq!(read_log(&dir).unwrap().records.len(), 1);
        writer
            .stage_with(|buf| buf.extend_from_slice(&payload(2)))
            .unwrap();
        drop(writer);
        // The uncommitted record never reached the file.
        assert_eq!(read_log(&dir).unwrap().records.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_syncs_after_the_commit_that_reaches_n_records() {
        let dir = scratch_dir("every-n");
        let options = WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::EveryN(4),
        };
        let mut writer = WalWriter::open(&dir, options).unwrap();
        let mut synced = Vec::new();
        for batch in [3, 3, 1, 2, 5] {
            for i in 0..batch {
                writer
                    .stage_with(|buf| buf.extend_from_slice(&payload(i)))
                    .unwrap();
            }
            synced.push(writer.commit().unwrap().synced);
        }
        // 3 → 6 (sync) → 1 → 3 → 8 (sync): never between a batch's records.
        assert_eq!(synced, [false, true, false, false, true]);
        assert_eq!(writer.fsyncs(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scoped_calls_wrap_each_write_and_fdatasync() {
        let dir = scratch_dir("scoped");
        let options = WalOptions {
            segment_bytes: 16,
            fsync: FsyncPolicy::Always,
        };
        let mut writer = WalWriter::open(&dir, options).unwrap();
        let mut calls = Vec::new();
        for i in 0..2 {
            writer
                .stage_with(|buf| buf.extend_from_slice(&payload(i + 8)))
                .unwrap();
            writer.commit_scoped(|call| calls.push(call)).unwrap();
        }
        writer.sync_scoped(|call| calls.push(call)).unwrap();
        use WalCall::{Fsync, Write};
        // The second commit finds the segment full: it seals it and syncs
        // the fresh one before its write.
        assert_eq!(calls, [Write, Fsync, Fsync, Fsync, Write, Fsync, Fsync]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_torn_tail_kind_truncates_instead_of_failing() {
        type Mutilate = Box<dyn Fn(&mut Vec<u8>)>;
        let cases: Vec<(TornReason, Mutilate)> = vec![
            (
                TornReason::PartialHeader,
                Box::new(|data: &mut Vec<u8>| data.extend_from_slice(&[1, 2, 3])),
            ),
            (
                TornReason::PartialPayload,
                Box::new(|data: &mut Vec<u8>| {
                    data.extend_from_slice(&100u32.to_le_bytes());
                    data.extend_from_slice(&7u32.to_le_bytes());
                    data.extend_from_slice(&[9; 10]);
                }),
            ),
            (
                TornReason::ZeroFill,
                Box::new(|data: &mut Vec<u8>| data.extend_from_slice(&[0; 64])),
            ),
            (
                TornReason::OversizeLength,
                Box::new(|data: &mut Vec<u8>| {
                    data.extend_from_slice(&u32::MAX.to_le_bytes());
                    data.extend_from_slice(&5u32.to_le_bytes());
                }),
            ),
        ];
        for (reason, mutilate) in cases {
            let dir = scratch_dir(reason.name());
            let mut writer = WalWriter::open(&dir, WalOptions::default()).unwrap();
            for i in 0..5 {
                writer.append(&payload(i)).unwrap();
            }
            writer.sync().unwrap();
            let clean_bytes = writer.stream_offset();
            drop(writer);
            let seg = dir.join("wal-00000000.log");
            let mut data = fs::read(&seg).unwrap();
            mutilate(&mut data);
            fs::write(&seg, &data).unwrap();
            let log = read_log(&dir).unwrap();
            assert_eq!(log.records.len(), 5, "{}", reason.name());
            assert_eq!(log.valid_bytes, clean_bytes, "{}", reason.name());
            let torn = log.torn.expect("torn tail detected");
            assert_eq!(torn.reason, reason);
            assert_eq!(torn.offset, clean_bytes);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn bad_crc_drops_the_flipped_record_and_everything_after() {
        let dir = scratch_dir("badcrc");
        let mut writer = WalWriter::open(&dir, WalOptions::default()).unwrap();
        let mut ends = Vec::new();
        for i in 0..6 {
            writer.append(&payload(i)).unwrap();
            ends.push(writer.stream_offset());
        }
        writer.sync().unwrap();
        drop(writer);
        let seg = dir.join("wal-00000000.log");
        let mut data = fs::read(&seg).unwrap();
        // Flip one payload byte of record 3.
        let idx = (ends[2] + HEADER_BYTES) as usize;
        data[idx] ^= 0x40;
        fs::write(&seg, &data).unwrap();
        let log = read_log(&dir).unwrap();
        assert_eq!(log.records.len(), 3);
        let torn = log.torn.expect("bad crc reported");
        assert_eq!(torn.reason, TornReason::BadCrc);
        assert_eq!(torn.offset, ends[2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_across_segments_and_reads_back_in_order() {
        let dir = scratch_dir("rotate");
        let options = WalOptions {
            segment_bytes: 64,
            fsync: FsyncPolicy::Never,
        };
        let mut writer = WalWriter::open(&dir, options).unwrap();
        for i in 0..30 {
            writer.append(&payload(i)).unwrap();
        }
        writer.sync().unwrap();
        assert!(
            writer.rotations() > 0,
            "segment cap never triggered rotation"
        );
        let log = read_log(&dir).unwrap();
        assert!(log.torn.is_none());
        assert_eq!(log.records.len(), 30);
        assert!(log.segments.len() > 1);
        for (i, record) in log.records.iter().enumerate() {
            assert_eq!(record.payload, payload(i as u64));
        }
        // Segment indices are non-decreasing along the record stream.
        assert!(log.records.windows(2).all(|w| w[0].segment <= w[1].segment));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_repairs_the_torn_tail_and_resumes_appending() {
        let dir = scratch_dir("reopen");
        let mut writer = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..4 {
            writer.append(&payload(i)).unwrap();
        }
        writer.sync().unwrap();
        drop(writer);
        // Tear the tail: half a header.
        let seg = dir.join("wal-00000000.log");
        let mut data = fs::read(&seg).unwrap();
        data.extend_from_slice(&[0xab, 0xcd, 0xef]);
        fs::write(&seg, &data).unwrap();
        // Reopen: the torn bytes must be gone and new appends valid.
        let mut writer = WalWriter::open(&dir, WalOptions::default()).unwrap();
        writer.append(&payload(99)).unwrap();
        writer.sync().unwrap();
        let log = read_log(&dir).unwrap();
        assert!(
            log.torn.is_none(),
            "reopen left a torn tail: {:?}",
            log.torn
        );
        assert_eq!(log.records.len(), 5);
        assert_eq!(log.records[4].payload, payload(99));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_deletes_sealed_segments_only() {
        let dir = scratch_dir("compact");
        let options = WalOptions {
            segment_bytes: 48,
            fsync: FsyncPolicy::Never,
        };
        let mut writer = WalWriter::open(&dir, options).unwrap();
        for i in 0..20 {
            writer.append(&payload(i)).unwrap();
        }
        writer.rotate().unwrap();
        writer.append(&payload(100)).unwrap();
        writer.sync().unwrap();
        let before = read_log(&dir).unwrap();
        assert!(before.segments.len() > 1);
        let removed = writer.compact().unwrap();
        assert_eq!(removed, before.segments.len() - 1);
        let after = read_log(&dir).unwrap();
        assert_eq!(after.segments.len(), 1);
        assert_eq!(after.records.len(), 1);
        assert_eq!(after.records[0].payload, payload(100));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_log_cuts_at_a_record_boundary() {
        let dir = scratch_dir("truncate");
        let options = WalOptions {
            segment_bytes: 64,
            fsync: FsyncPolicy::Never,
        };
        let mut writer = WalWriter::open(&dir, options).unwrap();
        for i in 0..16 {
            writer.append(&payload(i)).unwrap();
        }
        writer.sync().unwrap();
        drop(writer);
        let log = read_log(&dir).unwrap();
        let keep = &log.records[9];
        truncate_log(&dir, Some((keep.segment, keep.end_offset))).unwrap();
        let cut = read_log(&dir).unwrap();
        assert!(cut.torn.is_none());
        assert_eq!(cut.records.len(), 10);
        assert_eq!(cut.records[9].payload, payload(9));
        // A reopened writer continues from the cut.
        let mut writer = WalWriter::open(&dir, options).unwrap();
        writer.append(&payload(200)).unwrap();
        writer.sync().unwrap();
        let resumed = read_log(&dir).unwrap();
        assert_eq!(resumed.records.len(), 11);
        assert_eq!(resumed.records[10].payload, payload(200));
        // Truncating to empty leaves a clean zero-length log.
        truncate_log(&dir, None).unwrap();
        let empty = read_log(&dir).unwrap();
        assert!(empty.records.is_empty());
        assert!(empty.torn.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_points_tear_batches_where_they_tore_single_records() {
        // Per-record reference: the end offset of every record.
        let options = WalOptions {
            segment_bytes: 96,
            fsync: FsyncPolicy::Never,
        };
        let dir = scratch_dir("batch-crash-ref");
        let mut writer = WalWriter::open(&dir, options).unwrap();
        let mut ends = Vec::new();
        for i in 0..12 {
            writer.append(&payload(i)).unwrap();
            ends.push(writer.stream_offset());
        }
        let total = writer.stream_offset();
        drop(writer);
        fs::remove_dir_all(&dir).unwrap();

        for k in 0..=total {
            let dir = scratch_dir("batch-crash");
            let mut writer = WalWriter::open(&dir, options).unwrap();
            writer.set_crash_point(Some(CrashPoint::at_byte(k)));
            for i in 0..12 {
                writer
                    .stage_with(|buf| buf.extend_from_slice(&payload(i)))
                    .unwrap();
                if i % 3 == 2 {
                    writer.commit().unwrap();
                }
            }
            drop(writer);
            let log = read_log(&dir).unwrap();
            let expected = ends.iter().filter(|&&end| end <= k).count();
            assert_eq!(log.records.len(), expected, "crash at byte {k}");
            for (i, record) in log.records.iter().enumerate() {
                assert_eq!(record.payload, payload(i as u64), "crash at byte {k}");
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn crash_point_preserves_exactly_the_committed_prefix() {
        // Reference: clean run to learn the record end offsets.
        let options = WalOptions {
            segment_bytes: 96,
            fsync: FsyncPolicy::Never,
        };
        let dir = scratch_dir("crash-ref");
        let mut writer = WalWriter::open(&dir, options).unwrap();
        let mut ends = Vec::new();
        for i in 0..12 {
            writer.append(&payload(i)).unwrap();
            ends.push(writer.stream_offset());
        }
        writer.sync().unwrap();
        let total = writer.stream_offset();
        drop(writer);
        fs::remove_dir_all(&dir).unwrap();

        for k in 0..=total {
            let dir = scratch_dir("crash");
            let mut writer = WalWriter::open(&dir, options).unwrap();
            writer.set_crash_point(Some(CrashPoint::at_byte(k)));
            for i in 0..12 {
                writer.append(&payload(i)).unwrap();
                if writer.is_dead() {
                    break;
                }
            }
            // A dead writer ignores everything, like a dead process.
            writer.sync().unwrap();
            writer.append(&payload(999)).unwrap();
            drop(writer);
            let log = read_log(&dir).unwrap();
            let expected = ends.iter().filter(|&&end| end <= k).count();
            assert_eq!(
                log.records.len(),
                expected,
                "crash at byte {k}: wrong surviving record count"
            );
            for (i, record) in log.records.iter().enumerate() {
                assert_eq!(record.payload, payload(i as u64), "crash at byte {k}");
            }
            // Reopen repairs whatever the crash left behind.
            let mut writer = WalWriter::open(&dir, options).unwrap();
            writer.append(&payload(777)).unwrap();
            writer.sync().unwrap();
            let resumed = read_log(&dir).unwrap();
            assert!(
                resumed.torn.is_none(),
                "crash at byte {k} left a torn tail after reopen"
            );
            assert_eq!(resumed.records.len(), expected + 1);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
