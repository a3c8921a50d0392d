//! Opt-in allocation accounting: a counting wrapper over the system
//! allocator plus the thread-local counters the profiler snapshots at span
//! boundaries.
//!
//! Nothing in this module is active by default. A binary that wants
//! allocation attribution installs the wrapper as its global allocator:
//!
//! ```no_run
//! use easeml_obs::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::system();
//! ```
//!
//! Every allocation and deallocation then bumps plain thread-local `Cell`
//! counters — no atomics, no locks, a handful of instructions per call —
//! and [`thread_alloc_stats`] reads them back. The profiler
//! (`crate::profile`) snapshots the counters when a span opens and closes,
//! so each call-tree node can report the allocations attributed to its
//! self-time. Binaries that do *not* install the wrapper (perfbench's
//! untraced run, notably) pay nothing and simply read zeros.
//!
//! Caveats, by construction:
//!
//! * counters are per-thread: memory allocated on one thread and freed on
//!   another shows as live on the allocating thread forever (`live_bytes`
//!   saturates at zero on the freeing thread);
//! * `peak_bytes` is a high-water mark of this thread's live bytes; the
//!   profiler rewinds it around spans so each node sees the peak *growth*
//!   during its own calls, children included;
//! * the profiler pauses counting while it updates its own tree, so its
//!   bookkeeping allocations are not attributed to the profiled code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set on the first counted allocation; lets callers distinguish "zero
/// allocations" from "no counting allocator installed".
static COUNTING: AtomicBool = AtomicBool::new(false);

struct Counters {
    allocs: Cell<u64>,
    frees: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<u64>,
    peak: Cell<u64>,
    paused: Cell<bool>,
}

thread_local! {
    static TL: Counters = const {
        Counters {
            allocs: Cell::new(0),
            frees: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
            paused: Cell::new(false),
        }
    };
}

#[inline]
fn note_alloc(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        COUNTING.store(true, Ordering::Relaxed);
    }
    // `try_with` guards the TLS-teardown window: allocations made while
    // the thread's locals are being destroyed are simply not counted.
    let _ = TL.try_with(|c| {
        if c.paused.get() {
            return;
        }
        c.allocs.set(c.allocs.get() + 1);
        c.bytes.set(c.bytes.get() + size as u64);
        let live = c.live.get() + size as u64;
        c.live.set(live);
        if live > c.peak.get() {
            c.peak.set(live);
        }
    });
}

#[inline]
fn note_dealloc(size: usize) {
    let _ = TL.try_with(|c| {
        if c.paused.get() {
            return;
        }
        c.frees.set(c.frees.get() + 1);
        // Cross-thread frees (allocated elsewhere) saturate rather than
        // underflow this thread's live-byte estimate.
        c.live.set(c.live.get().saturating_sub(size as u64));
    });
}

/// A counting `#[global_allocator]` wrapper: forwards every call to the
/// wrapped allocator (the system allocator via [`CountingAlloc::system`])
/// and maintains the thread-local counters behind
/// [`thread_alloc_stats`].
///
/// Opt-in by design: only binaries that install it pay the (small,
/// lock-free) per-allocation cost, and only those binaries get non-zero
/// allocation columns in profiles.
pub struct CountingAlloc<A = System> {
    inner: A,
}

impl CountingAlloc<System> {
    /// The counting wrapper over the system allocator — the configuration
    /// every profiling binary uses.
    pub const fn system() -> Self {
        CountingAlloc { inner: System }
    }
}

impl<A> CountingAlloc<A> {
    /// Wraps an arbitrary inner allocator.
    pub const fn new(inner: A) -> Self {
        CountingAlloc { inner }
    }
}

// SAFETY: every method forwards verbatim to the wrapped allocator; the
// counter updates never allocate (plain `Cell` arithmetic) and never touch
// the pointers being managed, so the wrapper upholds exactly the contract
// of its inner allocator.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = self.inner.alloc(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = self.inner.alloc_zeroed(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout);
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = self.inner.realloc(ptr, layout, new_size);
        if !out.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        out
    }
}

/// A snapshot of this thread's allocation counters. All zeros unless the
/// binary installed [`CountingAlloc`] as its global allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations made on this thread (including the alloc half of
    /// reallocs).
    pub allocs: u64,
    /// Deallocations made on this thread.
    pub frees: u64,
    /// Total bytes ever allocated on this thread (monotone).
    pub bytes: u64,
    /// Bytes currently live by this thread's accounting.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since the last profiler rewind.
    pub peak_bytes: u64,
}

/// Reads this thread's allocation counters.
pub fn thread_alloc_stats() -> AllocStats {
    TL.try_with(|c| AllocStats {
        allocs: c.allocs.get(),
        frees: c.frees.get(),
        bytes: c.bytes.get(),
        live_bytes: c.live.get(),
        peak_bytes: c.peak.get(),
    })
    .unwrap_or_default()
}

/// Whether a [`CountingAlloc`] has counted at least one allocation in this
/// process — i.e. whether allocation columns in profiles are meaningful.
pub fn counting_allocator_active() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// Rewinds this thread's peak to the current live bytes and returns the
/// previous peak — called by the profiler when a span opens, so the span
/// measures its own peak growth.
pub(crate) fn reset_peak() -> u64 {
    TL.try_with(|c| {
        let prev = c.peak.get();
        c.peak.set(c.live.get());
        prev
    })
    .unwrap_or(0)
}

/// This thread's current peak (since the last [`reset_peak`]).
pub(crate) fn current_peak() -> u64 {
    TL.try_with(|c| c.peak.get()).unwrap_or(0)
}

/// Restores a peak saved by [`reset_peak`]: the thread's peak becomes the
/// max of the saved value and whatever the span reached.
pub(crate) fn restore_peak(saved: u64) {
    let _ = TL.try_with(|c| {
        if saved > c.peak.get() {
            c.peak.set(saved);
        }
    });
}

/// Runs `f` with counting paused on this thread — the profiler wraps its
/// own tree updates in this so bookkeeping allocations are not attributed
/// to profiled code.
pub(crate) fn with_counting_paused<T>(f: impl FnOnce() -> T) -> T {
    let was = TL.try_with(|c| c.paused.replace(true)).unwrap_or(false);
    let out = f();
    let _ = TL.try_with(|c| c.paused.set(was));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests run without the global allocator installed, so they
    // exercise the counter plumbing directly.

    #[test]
    fn counters_accumulate_and_peak_rewinds() {
        note_alloc(100);
        note_alloc(50);
        let s = thread_alloc_stats();
        assert!(s.allocs >= 2 && s.bytes >= 150 && s.live_bytes >= 150);
        assert!(s.peak_bytes >= s.live_bytes);

        note_dealloc(50);
        let after = thread_alloc_stats();
        assert_eq!(after.live_bytes, s.live_bytes - 50);
        // Peak survives the free...
        assert_eq!(after.peak_bytes, s.peak_bytes);
        // ...until rewound, then grows again from the live level.
        let saved = reset_peak();
        assert_eq!(saved, s.peak_bytes);
        assert_eq!(current_peak(), after.live_bytes);
        note_alloc(10);
        assert_eq!(current_peak(), after.live_bytes + 10);
        restore_peak(saved);
        assert_eq!(current_peak(), saved.max(after.live_bytes + 10));
        note_dealloc(10);
        note_dealloc(100);
    }

    #[test]
    fn cross_thread_frees_saturate() {
        std::thread::spawn(|| {
            note_dealloc(1 << 40);
            assert_eq!(thread_alloc_stats().live_bytes, 0);
            assert_eq!(thread_alloc_stats().frees, 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn paused_counting_is_invisible() {
        let before = thread_alloc_stats();
        with_counting_paused(|| {
            note_alloc(1234);
            note_dealloc(1234);
        });
        let after = thread_alloc_stats();
        assert_eq!(before.allocs, after.allocs);
        assert_eq!(before.live_bytes, after.live_bytes);
    }
}
