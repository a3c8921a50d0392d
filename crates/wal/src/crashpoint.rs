//! Deterministic crash-point injection for the WAL write path.
//!
//! A [`CrashPoint`] kills the writer at an exact global byte offset: the
//! batch write that would cross the offset writes only the bytes up to it
//! and every later write, fsync, rotation or compaction silently no-ops —
//! the same observable outcome as the process dying mid-`write(2)`.
//! Batching moves no byte, so a crash at offset k leaves the same prefix
//! whether records were written one by one or group-committed. Offsets
//! are plain numbers so a sweep test can enumerate *every* byte boundary,
//! and [`sample_offsets`] draws a reproducible subset with the same
//! splitmix64 generator `core::fault` uses for fault injection.

/// Kill switch for the WAL write path at a global stream byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    at_byte: u64,
}

impl CrashPoint {
    /// Crash once the global byte stream would exceed `offset`.
    #[must_use]
    pub fn at_byte(offset: u64) -> Self {
        Self { at_byte: offset }
    }

    /// The configured global byte offset.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.at_byte
    }
}

/// One step of the splitmix64 generator.
///
/// This is the workspace's *single* copy of the mixer: `core::fault` keys
/// its fault stream off it, `easeml-obs` reservoirs sample with the
/// stateful [`SplitMix64`] wrapper, and `easeml-workload` draws arrival
/// processes from it. It lives here because the WAL crate is the only
/// dependency-free crate every consumer already reaches.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateful splitmix64 stream: each call returns [`splitmix64`] of the
/// current state and advances the state by the golden-ratio increment.
///
/// The output sequence for seed `s` is `splitmix64(s), splitmix64(s + γ),
/// splitmix64(s + 2γ), …` with `γ = 0x9e37_79b9_7f4a_7c15` — the
/// canonical SplitMix64 construction, and bit-identical to the stateful
/// copy `easeml-obs` sketches used to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// The next uniform draw in `[0, 1)` (53 high bits, like
    /// `core::fault`'s unit draws).
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The raw generator state, for checkpointing.
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }
}

/// Draw up to `count` distinct crash offsets in `[0, max_byte]`, sorted
/// ascending, deterministically from `seed`. Returns every offset when the
/// range is smaller than `count`.
#[must_use]
pub fn sample_offsets(seed: u64, max_byte: u64, count: usize) -> Vec<u64> {
    if max_byte == 0 {
        return vec![0];
    }
    let span = max_byte + 1;
    if span <= count as u64 {
        return (0..span).collect();
    }
    let mut state = seed;
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        state = splitmix64(state);
        let offset = state % span;
        if !picked.contains(&offset) {
            picked.push(offset);
        }
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_sorted_and_in_range() {
        let a = sample_offsets(41, 5000, 64);
        let b = sample_offsets(41, 5000, 64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "not strictly ascending");
        assert!(a.iter().all(|&o| o <= 5000));
        // A different seed gives a different draw.
        assert_ne!(a, sample_offsets(42, 5000, 64));
    }

    #[test]
    fn stateful_stream_matches_the_free_function() {
        let seed = 0x5eed_f00d;
        let mut stream = SplitMix64::new(seed);
        let golden = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..8u64 {
            assert_eq!(
                stream.next_u64(),
                splitmix64(seed.wrapping_add(i.wrapping_mul(golden)))
            );
        }
        let mut stream = SplitMix64::new(seed);
        let unit = stream.next_unit();
        assert!((0.0..1.0).contains(&unit));
        assert_eq!(unit, (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64);
    }

    #[test]
    fn small_ranges_are_enumerated_exhaustively() {
        assert_eq!(sample_offsets(7, 0, 16), vec![0]);
        assert_eq!(sample_offsets(7, 9, 16), (0..=9).collect::<Vec<_>>());
    }
}
