//! `easeml-wal` — a std-only write-ahead log for the Ease.ml scheduler.
//!
//! The monolithic JSON checkpoint (PR 4) rewrites the full scheduler state
//! on every save, so its cost grows with the tenant count. This crate adds
//! the missing half of a classic checkpoint + log design: an append-only,
//! CRC32-framed binary record log with segment rotation, a configurable
//! fsync policy, and a reader that *tolerates* torn tails (partial header,
//! partial payload, bad CRC, zero-fill) by truncating at the last valid
//! record boundary instead of failing recovery. Recovery then becomes
//! O(delta): load the latest checkpoint, replay the WAL suffix.
//!
//! On-disk framing, per record (all integers little-endian):
//!
//! ```text
//! +----------+----------+------------------+
//! | len: u32 | crc: u32 | payload: len * u8 |
//! +----------+----------+------------------+
//! ```
//!
//! `crc` is CRC32 (IEEE) over the payload bytes only, computed eight bytes
//! per step. A record is valid iff the full header and `len` payload
//! bytes are present and the CRC matches; anything else at the tail of
//! the last segment is treated as a torn write. Segments are named
//! `wal-NNNNNNNN.log` and sealed segments are immutable, which makes
//! compaction (deleting segments older than the latest checkpoint) a
//! plain file delete.
//!
//! The writer group-commits: records are framed in place into a staging
//! buffer and a batch reaches the file with one `write(2)` at each commit
//! point ([`DurableEvent::is_commit_point`]). The bytes on disk are the
//! same as writing each record alone; only the write boundaries move.
//!
//! The crate has zero dependencies and does no policy: what the payload
//! *means* is defined by [`DurableEvent`], and who calls [`WalWriter`] is
//! the scheduler's `Durability` handle in `easeml-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crashpoint;
mod record;
mod segment;

pub use crashpoint::{sample_offsets, splitmix64, CrashPoint, SplitMix64};
pub use record::{DurableEvent, KIND_CRASH, KIND_INVALID, KIND_TIMEOUT};
pub use segment::{
    read_log, truncate_log, AppendOutcome, FsyncPolicy, ReadRecord, TornReason, TornTail, WalCall,
    WalLog, WalOptions, WalWriter, MAX_RECORD_BYTES,
};

/// CRC32 (IEEE 802.3 polynomial, reflected) lookup table, built at compile
/// time so the crate stays dependency-free.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `CRC_SLICES[k][b]` is the CRC register after byte
/// `b` is followed by `k` zero bytes, so eight table lookups advance the
/// register over eight input bytes at once.
const CRC_SLICES: [[u32; 256]; 8] = {
    let mut slices = [[0u32; 256]; 8];
    slices[0] = CRC_TABLE;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// CRC32 (IEEE) of `data`, as used by the record framing, eight bytes per
/// step.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_SLICES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table loop: the reference the sliced kernel must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xcbf4_3926);
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"a"), 0xe8b7_be43);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414f_a339
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sliced_crc32_equals_the_bytewise_reference(
            bytes in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 308)
        ) {
            // Every length up to 300 at every alignment of the start mod 8,
            // so each split between the 8-byte loop and the tail is hit.
            for start in 0..8 {
                for len in 0..=300 {
                    let data = &bytes[start..start + len];
                    prop_assert_eq!(crc32(data), crc32_bytewise(data));
                }
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let payload = b"easeml wal record payload".to_vec();
        let clean = crc32(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
