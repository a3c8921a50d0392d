//! End-to-end allocation attribution with the counting global allocator
//! actually installed — integration tests get their own binary, so the
//! allocator swap is scoped to this file.
//!
//! The global profiler and the allocator counters are process/thread
//! state, so everything runs as one `#[test]` in a controlled order.

use easeml_obs::{
    counting_allocator_active, set_global_profiler, thread_alloc_stats, CountingAlloc, Profiler,
    RecorderHandle,
};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

#[test]
fn counting_allocator_attribution_lifecycle() {
    // --- the wrapper counts real allocations on this thread.
    let before = thread_alloc_stats();
    let v: Vec<u8> = Vec::with_capacity(4096);
    let mid = thread_alloc_stats();
    assert!(counting_allocator_active());
    assert!(mid.allocs > before.allocs, "Vec allocation not counted");
    assert!(mid.bytes >= before.bytes + 4096);
    assert!(mid.live_bytes >= before.live_bytes + 4096);
    drop(v);
    let after = thread_alloc_stats();
    assert!(after.frees > mid.frees, "Vec free not counted");
    assert!(after.live_bytes <= mid.live_bytes - 4096);

    // --- the noop span path allocates nothing when no profiler is
    // registered: a disabled recorder costs no heap traffic.
    let handle = RecorderHandle::noop();
    drop(handle.span("warmup")); // touch lazy statics outside the window
    let before = thread_alloc_stats();
    for _ in 0..10_000 {
        let _span = handle.span("scheduler_step");
    }
    let after = thread_alloc_stats();
    assert_eq!(
        (before.allocs, before.bytes),
        (after.allocs, after.bytes),
        "noop span path must stay allocation-free"
    );

    // --- with a profiler registered, a span's allocations land on its
    // node, and a child's allocations are *not* double-counted in the
    // parent's self-attribution.
    let profiler = Arc::new(Profiler::new());
    assert!(set_global_profiler(Some(profiler.clone())).is_none());
    {
        let _step = handle.span("scheduler_step");
        let parent_side: Vec<u8> = Vec::with_capacity(100);
        {
            let _train = handle.span("train");
            let child_side: Vec<u8> = Vec::with_capacity(10_000);
            drop(child_side);
        }
        drop(parent_side);
    }
    set_global_profiler(None);
    let snap = profiler.snapshot();
    let step = snap.find(&["scheduler_step"]).expect("step node");
    let train = snap.find(&["scheduler_step", "train"]).expect("train node");
    assert!(train.allocs >= 1, "child allocation not attributed");
    assert!(train.alloc_bytes >= 10_000);
    assert!(train.peak_bytes >= 10_000);
    assert!(step.allocs >= 1, "parent self-allocation not attributed");
    assert!(
        step.alloc_bytes >= 100 && step.alloc_bytes < 10_000,
        "parent self bytes must exclude the child's ({} bytes)",
        step.alloc_bytes
    );
    // The parent's peak covers the child's burst (inclusive watermark).
    assert!(step.peak_bytes >= train.peak_bytes);
}
