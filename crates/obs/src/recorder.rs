//! The [`Recorder`] sink trait and the cheap [`RecorderHandle`] through
//! which instrumented components reach it.

use crate::event::Event;
use crate::timer::ScopedTimer;
use std::fmt;
use std::sync::Arc;

/// A component of the system whose latency is tracked by scoped timers.
///
/// The discriminant doubles as an index into fixed-size histogram arrays,
/// so recording a timing never hashes or allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Full Cholesky factorization of a Gram matrix.
    CholeskyFactor = 0,
    /// Triangular solve against an existing factor.
    CholeskySolve = 1,
    /// The GP posterior's O(t) extension of its factor by one row.
    CholeskyExtend = 2,
    /// GP posterior mean/variance refresh after an observation.
    PosteriorRefresh = 3,
    /// One user-picking decision of a scheduler.
    SchedulerPick = 4,
    /// One arm-selection pass of a tenant's bandit policy.
    ArmSelect = 5,
    /// One full round of the simulation loop (pick + train + observe).
    SimRound = 6,
    /// One dispatch decision of the multi-device execution engine
    /// (pick user + pick arm + device placement).
    ExecDispatch = 7,
    /// One write-ahead-log commit: the staged batch's single `write(2)`,
    /// plus any segment rotation or policy fsync it triggers.
    WalAppend = 8,
    /// One explicit write-ahead-log fsync (flush or checkpoint barrier).
    WalFsync = 9,
    /// One recovered round replayed from the write-ahead log.
    WalReplay = 10,
}

impl Component {
    /// Number of components (length of per-component arrays).
    pub const COUNT: usize = 11;

    /// Every component, in index order.
    pub const ALL: [Component; Component::COUNT] = [
        Component::CholeskyFactor,
        Component::CholeskySolve,
        Component::CholeskyExtend,
        Component::PosteriorRefresh,
        Component::SchedulerPick,
        Component::ArmSelect,
        Component::SimRound,
        Component::ExecDispatch,
        Component::WalAppend,
        Component::WalFsync,
        Component::WalReplay,
    ];

    /// Stable display name, e.g. `"cholesky/factor"`.
    pub fn name(self) -> &'static str {
        match self {
            Component::CholeskyFactor => "cholesky/factor",
            Component::CholeskySolve => "cholesky/solve",
            Component::CholeskyExtend => "cholesky/extend",
            Component::PosteriorRefresh => "gp/posterior-refresh",
            Component::SchedulerPick => "sched/pick",
            Component::ArmSelect => "bandit/arm-select",
            Component::SimRound => "sim/round",
            Component::ExecDispatch => "exec/dispatch",
            Component::WalAppend => "wal/append",
            Component::WalFsync => "wal/fsync",
            Component::WalReplay => "wal/replay",
        }
    }

    /// Index into per-component arrays (`0..Component::COUNT`).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A sink for structured events, counters, gauges, and timings.
///
/// Implementations must be thread-safe: the simulator and server record
/// from whatever thread executes a round, and the parallel-cluster
/// simulation records from several.
pub trait Recorder: Send + Sync {
    /// Records one structured [`Event`].
    fn record(&self, event: Event);

    /// Adds `delta` to a named monotonic counter.
    fn add_counter(&self, name: &'static str, delta: u64);

    /// Sets a named gauge to its latest value.
    fn set_gauge(&self, name: &'static str, value: f64);

    /// Records one latency sample, in nanoseconds, for `component`.
    fn record_timing(&self, component: Component, nanos: u64);
}

/// The do-nothing recorder: every method is an empty body the optimizer
/// erases. [`RecorderHandle::noop`] does not even reach these methods — the
/// handle short-circuits on its `None` — so this type mainly exists for
/// call sites that want a `&dyn Recorder` unconditionally.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _event: Event) {}
    fn add_counter(&self, _name: &'static str, _delta: u64) {}
    fn set_gauge(&self, _name: &'static str, _value: f64) {}
    fn record_timing(&self, _component: Component, _nanos: u64) {}
}

/// A cheap, cloneable handle to an optional [`Recorder`].
///
/// This is the type instrumented components store. The default handle is
/// disabled and costs one branch per instrumentation point: event
/// construction happens inside a closure that [`RecorderHandle::emit`] only
/// invokes when a recorder is attached, so the disabled path neither
/// allocates nor formats.
#[derive(Clone, Default)]
pub struct RecorderHandle {
    inner: Option<Arc<dyn Recorder>>,
}

impl RecorderHandle {
    /// The disabled handle (same as `Default`).
    pub fn noop() -> Self {
        RecorderHandle { inner: None }
    }

    /// A handle delivering to `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle {
            inner: Some(recorder),
        }
    }

    /// Whether a recorder is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the event built by `make`, which is only called when a
    /// recorder is attached — pass a closure so the disabled path stays
    /// allocation-free.
    pub fn emit<F: FnOnce() -> Event>(&self, make: F) {
        if let Some(recorder) = &self.inner {
            recorder.record(make());
        }
    }

    /// Adds to a named counter.
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(recorder) = &self.inner {
            recorder.add_counter(name, delta);
        }
    }

    /// Sets a named gauge.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(recorder) = &self.inner {
            recorder.set_gauge(name, value);
        }
    }

    /// Starts a scoped wall-clock timer for `component`; the elapsed time
    /// is recorded when the returned guard drops. Disabled handles return
    /// an inert guard without reading the clock.
    pub fn time(&self, component: Component) -> ScopedTimer<'_> {
        ScopedTimer::new(self.inner.as_deref(), component)
    }

    /// Opens a causal span named `name`: records [`Event::SpanStart`] now
    /// and the matching [`Event::SpanEnd`] when the guard drops, and makes
    /// the span the thread's [`current_span`](crate::current_span) for its
    /// lifetime so events emitted inside it can stamp it as their `parent`.
    /// Disabled handles return an inert guard — no allocation, no clock
    /// read, no thread-local access.
    pub fn span(&self, name: &'static str) -> crate::span::SpanGuard {
        crate::span::SpanGuard::open(self.inner.as_ref(), name)
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.inner.as_ref()
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryRecorder;

    #[test]
    fn component_names_and_indices_are_consistent() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
        let mut names: Vec<_> = Component::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Component::COUNT, "duplicate component name");
    }

    #[test]
    fn disabled_handle_never_builds_events() {
        let handle = RecorderHandle::noop();
        assert!(!handle.is_enabled());
        handle.emit(|| panic!("closure must not run on a disabled handle"));
        handle.count("x", 1);
        handle.gauge("y", 2.0);
        drop(handle.time(Component::SchedulerPick));
    }

    #[test]
    fn enabled_handle_delivers() {
        let recorder = Arc::new(InMemoryRecorder::new());
        let handle = RecorderHandle::new(recorder.clone());
        assert!(handle.is_enabled());
        handle.emit(|| Event::HybridFallback {
            reason: "test".into(),
            parent: 0,
        });
        handle.count("rounds", 2);
        handle.count("rounds", 3);
        handle.gauge("budget-left", 7.5);
        drop(handle.time(Component::ArmSelect));
        assert_eq!(recorder.events().len(), 1);
        assert_eq!(recorder.counter("rounds"), 5);
        assert_eq!(recorder.gauge("budget-left"), Some(7.5));
        assert_eq!(recorder.timing(Component::ArmSelect).count(), 1);
    }
}
