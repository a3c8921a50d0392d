//! The traced run's instruments: the program's span profiler, its
//! component timers, and the benchmark's own spans around public calls.

use easeml_obs::{
    set_global_profiler, set_global_recorder, CallTreeProfile, Component, Event, Profiler,
    Recorder, RecorderHandle, SpanGuard,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Opens a benchmark span. With no profiler installed (the untraced run)
/// this costs one relaxed atomic load.
pub(crate) fn span(name: &'static str) -> SpanGuard {
    RecorderHandle::noop().span(name)
}

/// Global-recorder sink that keeps only a call count and total time per
/// component; events (e.g. Cholesky jitter retries) are dropped so memory
/// stays flat however long the run.
#[derive(Default)]
struct TimerTotals {
    calls: [AtomicU64; Component::COUNT],
    nanos: [AtomicU64; Component::COUNT],
}

impl Recorder for TimerTotals {
    fn record(&self, _event: Event) {}
    fn add_counter(&self, _name: &'static str, _delta: u64) {}
    fn set_gauge(&self, _name: &'static str, _value: f64) {}
    fn record_timing(&self, component: Component, nanos: u64) {
        // Statistics only: nothing else is published through these.
        self.calls[component.index()].fetch_add(1, Ordering::Relaxed);
        self.nanos[component.index()].fetch_add(nanos, Ordering::Relaxed);
    }
}

/// The traced run's instruments, installed process-wide.
pub(crate) struct Tracing {
    profiler: Arc<Profiler>,
    timers: Arc<TimerTotals>,
}

impl Tracing {
    /// Installs the span profiler for the rest of the process.
    pub(crate) fn install() -> Tracing {
        let profiler = Arc::new(Profiler::new());
        set_global_profiler(Some(profiler.clone()));
        Tracing {
            profiler,
            timers: Arc::new(TimerTotals::default()),
        }
    }

    /// Switches the component timers on for a measured phase, or off after
    /// it, so set-up work does not enter their totals.
    pub(crate) fn timers(&self, on: bool) {
        set_global_recorder(on.then(|| self.timers.clone() as Arc<dyn Recorder>));
    }

    /// A handle for the write-ahead log's own append timer, which
    /// `Durability` feeds when given a recorder.
    pub(crate) fn wal_recorder(&self) -> RecorderHandle {
        RecorderHandle::new(self.timers.clone())
    }

    /// `(calls, mean µs per call)` of one component timer.
    pub(crate) fn timer(&self, component: Component) -> (u64, f64) {
        let calls = self.timers.calls[component.index()].load(Ordering::Relaxed);
        let nanos = self.timers.nanos[component.index()].load(Ordering::Relaxed);
        (calls, per_call_us(nanos, calls))
    }

    /// The span profile so far.
    pub(crate) fn profile(&self) -> CallTreeProfile {
        self.profiler.snapshot()
    }
}

fn per_call_us(nanos: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        nanos as f64 / calls as f64 / 1e3
    }
}

/// Spans of one name, summed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PhaseStats {
    /// Span occurrences.
    pub(crate) calls: u64,
    /// Wall nanoseconds, children included.
    pub(crate) total_ns: u64,
    /// Wall nanoseconds not covered by child spans.
    pub(crate) self_ns: u64,
    /// Allocations made in the spans' self time.
    pub(crate) allocs: u64,
}

impl PhaseStats {
    fn add(&mut self, calls: u64, total_ns: u64, self_ns: u64, allocs: u64) {
        self.calls += calls;
        self.total_ns += total_ns;
        self.self_ns += self_ns;
        self.allocs += allocs;
    }

    /// Mean µs per occurrence, children included.
    pub(crate) fn total_us(&self) -> f64 {
        per_call_us(self.total_ns, self.calls)
    }

    /// Mean self µs per occurrence.
    pub(crate) fn self_us(&self) -> f64 {
        per_call_us(self.self_ns, self.calls)
    }
}

/// Every span inside the spans named `root`, aggregated by name.
pub(crate) struct Phases {
    /// The `root` spans themselves.
    pub(crate) root: PhaseStats,
    /// Spans below them, by name.
    pub(crate) inner: BTreeMap<String, PhaseStats>,
    /// Allocations anywhere in the subtree.
    pub(crate) allocs: u64,
}

impl Phases {
    /// Collects the subtree under every profile node named `root`.
    pub(crate) fn under(profile: &CallTreeProfile, root: &str) -> Phases {
        let nodes = profile.nodes();
        let mut inside = vec![false; nodes.len()];
        let mut phases = Phases {
            root: PhaseStats::default(),
            inner: BTreeMap::new(),
            allocs: 0,
        };
        // Parents precede children in the arena, so one forward pass
        // marks every descendant of a `root` node.
        for (i, node) in nodes.iter().enumerate() {
            let in_parent = node.parent < i && inside[node.parent];
            if node.name == root && !in_parent {
                inside[i] = true;
                phases
                    .root
                    .add(node.count, node.total_ns, node.self_ns, node.allocs);
            } else if in_parent {
                inside[i] = true;
                phases.inner.entry(node.name.clone()).or_default().add(
                    node.count,
                    node.total_ns,
                    node.self_ns,
                    node.allocs,
                );
            } else {
                continue;
            }
            phases.allocs += node.allocs;
        }
        phases
    }

    /// The aggregate for spans named `name` (zero if none ran).
    pub(crate) fn get(&self, name: &str) -> PhaseStats {
        self.inner.get(name).copied().unwrap_or_default()
    }

    /// Share of the root spans' time spent inside named phases: every
    /// nanosecond except the self time of the root spans and of
    /// `containers`, the spans that only group others.
    pub(crate) fn coverage(&self, containers: &[&str]) -> f64 {
        if self.root.total_ns == 0 {
            return 0.0;
        }
        let unnamed: u64 = self.root.self_ns
            + containers
                .iter()
                .map(|name| self.get(name).self_ns)
                .sum::<u64>();
        1.0 - unnamed as f64 / self.root.total_ns as f64
    }
}

/// `gp.obs_per_tenant`: observations a tenant's GP absorbed, on average.
/// `GpUcb::observe` runs under a `posterior_update` span, so these are the
/// `posterior_update` spans inside the spans named `roots`, divided by
/// `tenants`, the tenant instances those spans served.
pub(crate) fn set_obs_per_tenant(
    m: &mut crate::Metrics,
    tracing: &Tracing,
    roots: &[&str],
    tenants: f64,
) {
    let profile = tracing.profile();
    let updates: u64 = roots
        .iter()
        .map(|root| Phases::under(&profile, root).get("posterior_update").calls)
        .sum();
    m.set("gp.obs_per_tenant", updates as f64 / tenants, "count");
}

/// Records the span-derived metrics every workload shares. `decision` is
/// the benchmark span around each decision call.
pub(crate) fn layer_metrics(
    m: &mut crate::Metrics,
    tracing: &Tracing,
    decision: &str,
    decisions: u64,
) -> Phases {
    let profile = tracing.profile();
    let p = Phases::under(&profile, decision);
    let per_decision = |x: u64| x as f64 / decisions.max(1) as f64;
    let (extend_calls, extend_us) = tracing.timer(Component::CholeskyExtend);
    let (_, refresh_us) = tracing.timer(Component::PosteriorRefresh);
    m.set("linalg.extend_us", extend_us, "us");
    m.set("linalg.extend_calls", per_decision(extend_calls), "count");
    m.set("gp.update_us", p.get("posterior_update").total_us(), "us");
    m.set("gp.refresh_us", refresh_us, "us");
    m.set("bandit.pick_arm_us", p.get("pick_arm").total_us(), "us");
    let pick_user = p.get("pick_user");
    m.set("sched.pick_user_us", pick_user.total_us(), "us");
    m.set(
        "sched.share",
        pick_user.total_ns as f64 / p.root.total_ns.max(1) as f64,
        "ratio",
    );
    let step = p.get("scheduler_step");
    m.set("core.round_us", step.total_us(), "us");
    m.set("core.step_self_us", step.self_us(), "us");
    m.set("exec.dispatch_us", p.get("dispatch").self_us(), "us");
    m.set("exec.complete_us", p.get("complete").self_us(), "us");
    m.set("alloc.per_decision", per_decision(p.allocs), "count");
    m.set("obs.coverage", p.coverage(&["scheduler_step"]), "ratio");
    p
}
