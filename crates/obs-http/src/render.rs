//! Rendering recorder state in the Prometheus text exposition format
//! (version 0.0.4): `# HELP` / `# TYPE` headers, cumulative `le=` histogram
//! buckets with a closing `+Inf`, and escaped label values.
//!
//! Per-tenant families (`easeml_user_*`) are *capped*: they render only
//! while the snapshot holds at most [`RenderOptions::per_user_cap`]
//! tenants, so the `/metrics` body cannot grow O(U) with the tenant
//! population. Past the cap, the bounded families — regret/cost/quality
//! quantiles, top-K offenders, and telemetry self-accounting — are the
//! only per-tenant-derived output, keeping the body a constant.

use easeml_obs::{
    Component, Histogram, InMemoryRecorder, SinkStats, TimeSeriesSnapshot, WitnessRecord,
};
use std::fmt::Write as _;

/// Default cap on tenants in the per-user metric families: beyond this
/// the unbounded `easeml_user_*` families are suppressed in favor of the
/// quantile + top-K rendering.
pub const DEFAULT_PER_USER_CAP: usize = 100;

/// The quantiles rendered for every sketch-backed family.
const QUANTILES: [(f64, &str); 4] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (1.0, "1")];

/// Knobs for the `/metrics` rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderOptions {
    /// Per-family cardinality cap: `easeml_user_*` families render only
    /// when the snapshot tracks at most this many tenants.
    pub per_user_cap: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            per_user_cap: DEFAULT_PER_USER_CAP,
        }
    }
}

/// Renders the full `/metrics` payload from an in-memory recorder plus an
/// optional time-series snapshot, with default options and no sink or
/// exporter self-accounting.
pub fn render_metrics(recorder: &InMemoryRecorder, series: Option<&TimeSeriesSnapshot>) -> String {
    render_metrics_full(recorder, series, &[], (0, 0), &RenderOptions::default())
}

/// The full rendering entry point: `sinks` contributes per-sink
/// self-accounting families, `render_self` is `(cumulative ns, count)` of
/// previous `/metrics` renders (the exporter accounting for itself), and
/// `opts` caps the per-tenant families.
pub fn render_metrics_full(
    recorder: &InMemoryRecorder,
    series: Option<&TimeSeriesSnapshot>,
    sinks: &[(String, SinkStats)],
    render_self: (u64, u64),
    opts: &RenderOptions,
) -> String {
    let mut out = String::new();

    write_header(
        &mut out,
        "easeml_events_total",
        "counter",
        "Total structured events recorded.",
    );
    let _ = writeln!(out, "easeml_events_total {}", recorder.num_events());

    let by_type = recorder.event_counts();
    if !by_type.is_empty() {
        write_header(
            &mut out,
            "easeml_events_by_type_total",
            "counter",
            "Structured events recorded, by variant.",
        );
        for (name, count) in &by_type {
            let _ = writeln!(
                out,
                "easeml_events_by_type_total{{type=\"{}\"}} {count}",
                escape_label(name)
            );
        }
    }

    let counters = recorder.counters();
    if !counters.is_empty() {
        write_header(
            &mut out,
            "easeml_counter_total",
            "counter",
            "Named monotonic counters.",
        );
        for (name, value) in &counters {
            let _ = writeln!(
                out,
                "easeml_counter_total{{name=\"{}\"}} {value}",
                escape_label(name)
            );
        }
    }

    let gauges = recorder.gauges();
    if !gauges.is_empty() {
        write_header(&mut out, "easeml_gauge", "gauge", "Named gauges.");
        for (name, value) in &gauges {
            let _ = writeln!(
                out,
                "easeml_gauge{{name=\"{}\"}} {}",
                escape_label(name),
                fmt_f64(*value)
            );
        }
    }

    render_latency_histograms(&mut out, recorder);

    if let Some(snap) = series {
        render_series(&mut out, snap, opts);
    }
    render_telemetry_overhead(&mut out, series, sinks, render_self);

    out
}

fn render_latency_histograms(out: &mut String, recorder: &InMemoryRecorder) {
    let populated: Vec<(Component, Histogram)> = Component::ALL
        .iter()
        .map(|&c| (c, recorder.timing(c)))
        .filter(|(_, h)| h.count() > 0)
        .collect();
    if populated.is_empty() {
        return;
    }
    write_header(
        out,
        "easeml_component_latency_ns",
        "histogram",
        "Per-component wall-clock latency in nanoseconds.",
    );
    for (component, hist) in &populated {
        let label = escape_label(component.name());
        let mut cumulative = 0u64;
        for (i, &count) in hist.buckets().iter().enumerate() {
            cumulative += count;
            // Trim the long tail of empty buckets past the observed max,
            // but keep every populated edge so quantiles reconstruct.
            if cumulative == 0 && count == 0 {
                continue;
            }
            let Some(upper) = Histogram::bucket_upper_ns(i) else {
                break; // the overflow bucket is covered by +Inf below
            };
            let _ = writeln!(
                out,
                "easeml_component_latency_ns_bucket{{component=\"{label}\",le=\"{upper}\"}} {cumulative}",
            );
            if cumulative == hist.count() {
                break;
            }
        }
        let _ = writeln!(
            out,
            "easeml_component_latency_ns_bucket{{component=\"{label}\",le=\"+Inf\"}} {}",
            hist.count()
        );
        let _ = writeln!(
            out,
            "easeml_component_latency_ns_sum{{component=\"{label}\"}} {}",
            hist.sum_ns()
        );
        let _ = writeln!(
            out,
            "easeml_component_latency_ns_count{{component=\"{label}\"}} {}",
            hist.count()
        );
    }
}

/// A rendered metric family driven by an accessor on a stats group:
/// (family name, HELP text, accessor).
type FamilySpec<S, V> = (&'static str, &'static str, fn(&S) -> V);

/// As [`FamilySpec`], but the accessor borrows a sketch out of the
/// per-strategy group (the elided lifetimes tie input to output).
type SketchFamilySpec = (
    &'static str,
    &'static str,
    fn(&easeml_obs::StrategySketches) -> &easeml_obs::QuantileSketch,
);

/// The sketch-backed bounded families: per-strategy quantiles and top-K
/// offender boards. Body size depends only on the strategy count, the
/// quantile list, and K — never on the tenant population.
fn render_scale_families(out: &mut String, snap: &TimeSeriesSnapshot) {
    let scale = &snap.scale;
    let sketched: Vec<(&String, &easeml_obs::StrategySketches)> = scale
        .strategies
        .iter()
        .filter(|(_, g)| g.regret.count() > 0 || g.cost.count() > 0 || g.quality.count() > 0)
        .collect();
    if !sketched.is_empty() {
        let families: [SketchFamilySpec; 3] = [
            (
                "easeml_regret_quantile",
                "Quantiles of per-run regret observations (target minus quality; censored runs observe full regret).",
                |g| &g.regret,
            ),
            (
                "easeml_cost_quantile",
                "Quantiles of per-run charged cost.",
                |g| &g.cost,
            ),
            (
                "easeml_quality_quantile",
                "Quantiles of per-run observed quality (completed runs).",
                |g| &g.quality,
            ),
        ];
        for (name, help, pick) in families {
            if !sketched.iter().any(|(_, g)| pick(g).count() > 0) {
                continue;
            }
            write_header(out, name, "gauge", help);
            for (strategy, group) in &sketched {
                let sketch = pick(group);
                if sketch.count() == 0 {
                    continue;
                }
                let strategy = escape_label(strategy);
                for (q, q_label) in QUANTILES {
                    let Some(value) = sketch.quantile(q) else {
                        continue;
                    };
                    let _ = writeln!(
                        out,
                        "{name}{{strategy=\"{strategy}\",q=\"{q_label}\"}} {}",
                        fmt_f64(value)
                    );
                }
            }
        }
        write_header(
            out,
            "easeml_run_observations_total",
            "counter",
            "Training-run observations folded into the sketches, by scheduler strategy.",
        );
        for (strategy, group) in &sketched {
            let _ = writeln!(
                out,
                "easeml_run_observations_total{{strategy=\"{}\"}} {}",
                escape_label(strategy),
                group.regret.count()
            );
        }
    }

    for (name, help, board) in [
        (
            "easeml_regret_topk",
            "Worst tenants by cost-weighted regret (Space-Saving over-estimate).",
            &scale.worst_regret,
        ),
        (
            "easeml_cost_topk",
            "Worst tenants by charged cost (Space-Saving over-estimate).",
            &scale.worst_cost,
        ),
    ] {
        if board.is_empty() {
            continue;
        }
        write_header(out, name, "gauge", help);
        for (rank, entry) in board.iter().enumerate() {
            let _ = writeln!(
                out,
                "{name}{{user=\"{}\",rank=\"{}\"}} {}",
                entry.user,
                rank + 1,
                fmt_f64(entry.weight)
            );
        }
    }
}

/// Telemetry self-accounting: what the pipeline itself costs, what the
/// aggregate mode sampled away, and what each sink wrote or lost.
fn render_telemetry_overhead(
    out: &mut String,
    series: Option<&TimeSeriesSnapshot>,
    sinks: &[(String, SinkStats)],
    render_self: (u64, u64),
) {
    write_header(
        out,
        "easeml_telemetry_overhead_ns_total",
        "counter",
        "Wall-clock nanoseconds the telemetry pipeline spent on itself, per component.",
    );
    if let Some(snap) = series {
        let _ = writeln!(
            out,
            "easeml_telemetry_overhead_ns_total{{component=\"timeseries/fold\"}} {}",
            snap.scale.overhead.fold_ns
        );
    }
    let _ = writeln!(
        out,
        "easeml_telemetry_overhead_ns_total{{component=\"http/render\"}} {}",
        render_self.0
    );
    for (name, stats) in sinks {
        let _ = writeln!(
            out,
            "easeml_telemetry_overhead_ns_total{{component=\"sink/{}\"}} {}",
            escape_label(name),
            stats.append_ns
        );
    }

    if let Some(snap) = series {
        let overhead = &snap.scale.overhead;
        write_header(
            out,
            "easeml_telemetry_events_total",
            "counter",
            "Events folded by the time-series recorder, by disposition: sampled \
             events updated an exemplar tenant series, dropped events reached \
             only the bounded sketches.",
        );
        let _ = writeln!(
            out,
            "easeml_telemetry_events_total{{disposition=\"folded\"}} {}",
            overhead.events_folded
        );
        let _ = writeln!(
            out,
            "easeml_telemetry_events_total{{disposition=\"sampled\"}} {}",
            overhead.events_sampled
        );
        let _ = writeln!(
            out,
            "easeml_telemetry_events_total{{disposition=\"dropped\"}} {}",
            overhead.events_dropped
        );

        write_header(
            out,
            "easeml_telemetry_exemplar_evictions_total",
            "counter",
            "Exemplar tenant curves evicted by reservoir replacement.",
        );
        let _ = writeln!(
            out,
            "easeml_telemetry_exemplar_evictions_total {}",
            overhead.exemplar_evictions
        );
    }

    write_header(
        out,
        "easeml_telemetry_renders_total",
        "counter",
        "Completed /metrics renders.",
    );
    let _ = writeln!(out, "easeml_telemetry_renders_total {}", render_self.1);

    if let Some(snap) = series {
        write_header(
            out,
            "easeml_telemetry_state_bytes",
            "gauge",
            "Approximate in-memory footprint of the time-series recorder.",
        );
        let _ = writeln!(
            out,
            "easeml_telemetry_state_bytes {}",
            snap.scale.approx_state_bytes
        );
    }

    if !sinks.is_empty() {
        render_sink_stats(out, sinks);
    }
}

/// Per-sink write/loss counters, so silent trace loss shows on `/metrics`.
fn render_sink_stats(out: &mut String, sinks: &[(String, SinkStats)]) {
    let families: [FamilySpec<SinkStats, u64>; 4] = [
        (
            "easeml_sink_bytes_total",
            "Bytes written by the sink across all rotated segments.",
            |s| s.bytes_total,
        ),
        (
            "easeml_sink_lines_total",
            "Event lines written by the sink across all rotated segments.",
            |s| s.lines_total,
        ),
        (
            "easeml_sink_dropped_total",
            "Event lines dropped by the sink on I/O errors (trace loss).",
            |s| s.dropped,
        ),
        (
            "easeml_sink_rotations_total",
            "Segment rotations performed by the sink.",
            |s| s.rotations,
        ),
    ];
    for (name, help, pick) in families {
        write_header(out, name, "counter", help);
        for (sink, stats) in sinks {
            let _ = writeln!(
                out,
                "{name}{{sink=\"{}\"}} {}",
                escape_label(sink),
                pick(stats)
            );
        }
    }
}

fn render_series(out: &mut String, snap: &TimeSeriesSnapshot, opts: &RenderOptions) {
    write_header(
        out,
        "easeml_sim_clock",
        "gauge",
        "Simulated clock: cumulative cost across all completed runs.",
    );
    let _ = writeln!(out, "easeml_sim_clock {}", fmt_f64(snap.clock));

    write_header(
        out,
        "easeml_rounds_total",
        "counter",
        "Completed training runs.",
    );
    let _ = writeln!(out, "easeml_rounds_total {}", snap.rounds);

    write_header(
        out,
        "easeml_failed_rounds_total",
        "counter",
        "Failed (censored) training runs: charged but unobserved.",
    );
    let _ = writeln!(out, "easeml_failed_rounds_total {}", snap.failed_rounds);

    write_header(
        out,
        "easeml_scheduler_decisions_total",
        "counter",
        "Scheduler user-picking decisions.",
    );
    let _ = writeln!(out, "easeml_scheduler_decisions_total {}", snap.decisions);

    write_header(
        out,
        "easeml_fallback_active",
        "gauge",
        "1 once the hybrid scheduler has switched to round robin.",
    );
    let _ = writeln!(
        out,
        "easeml_fallback_active {}",
        u8::from(snap.fallback_active)
    );

    write_header(
        out,
        "easeml_fallback_rate",
        "gauge",
        "Fraction of scheduler decisions taken in fallback mode.",
    );
    let _ = writeln!(
        out,
        "easeml_fallback_rate {}",
        fmt_f64(snap.fallback_rate())
    );

    render_scale_families(out, snap);

    write_header(
        out,
        "easeml_tracked_tenants",
        "gauge",
        "Tenants with a materialized per-user series (exemplars only in aggregate mode).",
    );
    let _ = writeln!(out, "easeml_tracked_tenants {}", snap.users.len());

    if snap.users.is_empty() {
        return;
    }
    // Cardinality guard: unbounded per-tenant families are opt-in via the
    // cap. Past it, the bounded families above are the whole story.
    if snap.users.len() > opts.per_user_cap {
        let _ = writeln!(
            out,
            "# easeml_user_* families suppressed: {} tenants exceed per_user_cap {}; \
             use the quantile and top-K families instead.",
            snap.users.len(),
            opts.per_user_cap
        );
        return;
    }

    write_header(
        out,
        "easeml_user_regret",
        "gauge",
        "Per-tenant regret: target quality minus best quality reached.",
    );
    for (user, series) in &snap.users {
        let _ = writeln!(
            out,
            "easeml_user_regret{{user=\"{user}\"}} {}",
            fmt_f64(series.regret())
        );
    }

    write_header(
        out,
        "easeml_user_best_quality",
        "gauge",
        "Per-tenant best model quality reached so far.",
    );
    for (user, series) in &snap.users {
        let _ = writeln!(
            out,
            "easeml_user_best_quality{{user=\"{user}\"}} {}",
            fmt_f64(series.best_quality)
        );
    }

    write_header(
        out,
        "easeml_user_cost_total",
        "counter",
        "Per-tenant cumulative training cost.",
    );
    for (user, series) in &snap.users {
        let _ = writeln!(
            out,
            "easeml_user_cost_total{{user=\"{user}\"}} {}",
            fmt_f64(series.cumulative_cost)
        );
    }

    write_header(
        out,
        "easeml_user_served_total",
        "counter",
        "Per-tenant completed training runs.",
    );
    for (user, series) in &snap.users {
        let _ = writeln!(
            out,
            "easeml_user_served_total{{user=\"{user}\"}} {}",
            series.served
        );
    }

    write_header(
        out,
        "easeml_user_failed_runs_total",
        "counter",
        "Per-tenant failed (censored) training runs.",
    );
    for (user, series) in &snap.users {
        let _ = writeln!(
            out,
            "easeml_user_failed_runs_total{{user=\"{user}\"}} {}",
            series.failed
        );
    }

    write_header(
        out,
        "easeml_user_arm_pulls_total",
        "counter",
        "Per-tenant training runs per model (arm).",
    );
    for (user, series) in &snap.users {
        for (arm, pulls) in &series.arm_pulls {
            let _ = writeln!(
                out,
                "easeml_user_arm_pulls_total{{user=\"{user}\",arm=\"{arm}\"}} {pulls}"
            );
        }
    }
}

fn write_header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Escapes a Prometheus label value: backslash, double quote, newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the `/explain` aggregate decision-health report as one JSON
/// object: committed round / censor / tie counts, margin distributions,
/// and per-path / per-fallback tallies. Works off committed
/// [`WitnessRecord`]s only, so a summary scraped mid-round never counts a
/// torn witness.
pub fn render_explain_summary(records: &[WitnessRecord]) -> String {
    let censored = records.iter().filter(|r| r.censored).count();
    let ties = records
        .iter()
        .filter(|r| r.arm_margin.is_finite() && r.arm_margin.abs() < 1e-12)
        .count();
    // Small-cardinality tallies (one entry per decision path / fault
    // kind), keyed by first appearance so the output order is stable.
    let mut paths: Vec<(&str, usize, usize)> = Vec::new();
    let mut fallbacks: Vec<(&str, usize)> = Vec::new();
    for r in records {
        match paths.iter_mut().find(|(p, _, _)| *p == r.path) {
            Some((_, n, c)) => {
                *n += 1;
                *c += usize::from(r.censored);
            }
            None => paths.push((&r.path, 1, usize::from(r.censored))),
        }
        if !r.fallback.is_empty() {
            match fallbacks.iter_mut().find(|(k, _)| *k == r.fallback) {
                Some((_, n)) => *n += 1,
                None => fallbacks.push((&r.fallback, 1)),
            }
        }
    }
    let mut out = String::from("{\"schema\":\"easeml-explain\"");
    let _ = write!(
        out,
        ",\"rounds\":{},\"censored\":{censored},\"ties\":{ties}",
        records.len()
    );
    match records.last() {
        Some(r) => {
            let _ = write!(out, ",\"last_digest\":\"{}\"", escape_json(&r.digest));
        }
        None => out.push_str(",\"last_digest\":null"),
    }
    write_margin_stats(
        &mut out,
        "user_margin",
        records.iter().map(|r| r.user_margin),
    );
    write_margin_stats(&mut out, "arm_margin", records.iter().map(|r| r.arm_margin));
    out.push_str(",\"paths\":[");
    for (i, (path, n, c)) in paths.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"path\":\"{}\",\"rounds\":{n},\"censored\":{c}}}",
            if i > 0 { "," } else { "" },
            escape_json(path)
        );
    }
    out.push_str("],\"fallbacks\":[");
    for (i, (kind, n)) in fallbacks.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"kind\":\"{}\",\"count\":{n}}}",
            if i > 0 { "," } else { "" },
            escape_json(kind)
        );
    }
    out.push_str("]}");
    out
}

/// Appends `,"<name>":{"count":..,"min":..,"median":..,"max":..}` over the
/// finite margins, or `,"<name>":null` when no round scored.
fn write_margin_stats(out: &mut String, name: &str, margins: impl Iterator<Item = f64>) {
    let mut finite: Vec<f64> = margins.filter(|m| m.is_finite()).collect();
    if finite.is_empty() {
        let _ = write!(out, ",\"{name}\":null");
        return;
    }
    finite.sort_by(f64::total_cmp);
    let _ = write!(
        out,
        ",\"{name}\":{{\"count\":{},\"min\":{},\"median\":{},\"max\":{}}}",
        finite.len(),
        finite[0],
        finite[finite.len() / 2],
        finite[finite.len() - 1]
    );
}

/// Escapes a JSON string value: backslash, double quote, and control
/// characters (`\u00XX`).
fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Prometheus float formatting: finite values via Rust's shortest form,
/// non-finite as `NaN` / `+Inf` / `-Inf`.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_obs::{Event, Recorder, TimeSeriesRecorder};

    fn sample_recorder() -> InMemoryRecorder {
        let r = InMemoryRecorder::new();
        r.record(Event::TrainingCompleted {
            user: 0,
            model: 2,
            cost: 1.5,
            quality: 0.7,
            parent: 0,
        });
        r.add_counter("rounds", 3);
        r.set_gauge("budget-left", 0.25);
        r.record_timing(Component::SchedulerPick, 900);
        r.record_timing(Component::SchedulerPick, 5_000);
        r
    }

    #[test]
    fn metrics_cover_events_counters_gauges() {
        let text = render_metrics(&sample_recorder(), None);
        assert!(text.contains("easeml_events_total 1"), "{text}");
        assert!(
            text.contains("easeml_events_by_type_total{type=\"TrainingCompleted\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("easeml_counter_total{name=\"rounds\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("easeml_gauge{name=\"budget-left\"} 0.25"),
            "{text}"
        );
        // Every exposed metric family carries HELP/TYPE headers.
        for family in [
            "easeml_events_total",
            "easeml_counter_total",
            "easeml_gauge",
            "easeml_component_latency_ns",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")), "{family}");
            assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_with_inf() {
        let text = render_metrics(&sample_recorder(), None);
        // 900ns lands in [512,1024), 5000ns in [4096,8192): the le="1024"
        // bucket holds 1 cumulative sample, le="8192" both.
        assert!(
            text.contains(
                "easeml_component_latency_ns_bucket{component=\"sched/pick\",le=\"1024\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "easeml_component_latency_ns_bucket{component=\"sched/pick\",le=\"8192\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "easeml_component_latency_ns_bucket{component=\"sched/pick\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains("easeml_component_latency_ns_sum{component=\"sched/pick\"} 5900"),
            "{text}"
        );
        assert!(
            text.contains("easeml_component_latency_ns_count{component=\"sched/pick\"} 2"),
            "{text}"
        );
        // Untimed components are omitted entirely.
        assert!(!text.contains("cholesky/factor"), "{text}");
    }

    #[test]
    fn series_metrics_expose_per_user_regret() {
        let ts = TimeSeriesRecorder::new();
        ts.set_target(0, 0.9);
        ts.fold(&Event::TrainingCompleted {
            user: 0,
            model: 2,
            cost: 1.0,
            quality: 0.4, // 0.9 - 0.4 is exactly representable (0.5)
            parent: 0,
        });
        ts.fold(&Event::TrainingCompleted {
            user: 1,
            model: 0,
            cost: 2.0,
            quality: 0.75,
            parent: 0,
        });
        ts.fold(&Event::TrainingFailed {
            user: 1,
            model: 0,
            cost: 0.5,
            kind: "timeout".into(),
            attempt: 1,
            parent: 0,
        });
        let text = render_metrics(&InMemoryRecorder::new(), Some(&ts.snapshot()));
        assert!(
            text.contains("easeml_user_regret{user=\"0\"} 0.5"),
            "{text}"
        );
        assert!(
            text.contains("easeml_user_regret{user=\"1\"} 0.25"),
            "{text}"
        );
        assert!(
            text.contains("easeml_user_cost_total{user=\"1\"} 2.5"),
            "{text}"
        );
        assert!(text.contains("easeml_failed_rounds_total 1"), "{text}");
        assert!(
            text.contains("easeml_user_failed_runs_total{user=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("easeml_user_arm_pulls_total{user=\"0\",arm=\"2\"} 1"),
            "{text}"
        );
        assert!(text.contains("easeml_sim_clock 3.5"), "{text}");
        assert!(text.contains("easeml_fallback_active 0"), "{text}");
    }

    #[test]
    fn scale_families_render_quantiles_topk_and_overhead() {
        let ts = TimeSeriesRecorder::new();
        ts.fold(&Event::SchedulerDecision {
            round: 0,
            user: 0,
            rule: "hybrid".into(),
            scores: vec![],
            parent: 0,
        });
        for i in 0..20 {
            ts.fold(&Event::TrainingCompleted {
                user: i % 3,
                model: i % 2,
                cost: 1.0 + i as f64 * 0.1,
                quality: 0.5,
                parent: 0,
            });
        }
        let text = render_metrics(&InMemoryRecorder::new(), Some(&ts.snapshot()));
        for family in [
            "easeml_regret_quantile{strategy=\"hybrid\",q=\"0.5\"}",
            "easeml_cost_quantile{strategy=\"hybrid\",q=\"0.99\"}",
            "easeml_quality_quantile{strategy=\"hybrid\",q=\"0.9\"}",
            "easeml_run_observations_total{strategy=\"hybrid\"} 20",
            "easeml_regret_topk{user=\"",
            "easeml_cost_topk{user=\"",
            "easeml_telemetry_overhead_ns_total{component=\"timeseries/fold\"}",
            "easeml_telemetry_events_total{disposition=\"folded\"} 21",
            "easeml_telemetry_events_total{disposition=\"sampled\"} 20",
            "easeml_telemetry_state_bytes",
            "easeml_tracked_tenants 3",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // All runs hit quality 0.5 → the regret p50 is ~0.5 within alpha.
        let line = text
            .lines()
            .find(|l| l.starts_with("easeml_regret_quantile{strategy=\"hybrid\",q=\"0.5\"}"))
            .unwrap();
        let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((value - 0.5).abs() <= 0.01 * 0.5 + 1e-9, "{line}");
    }

    #[test]
    fn aggregate_mode_metrics_body_is_independent_of_tenant_count() {
        // The same 2,000-event stream shape over 10 and 1,000 tenants: runs
        // with seeded users, costs and qualities, and every 16th event a
        // decision cycling three rule labels, so the per-strategy sketches,
        // top-K offenders and exemplar reservoir all engage. Bounded
        // families keep the body flat within label-length jitter.
        use easeml_obs::ScaleConfig;
        const RULES: [&str; 3] = ["hybrid", "greedy(max-gap)", "round-robin"];
        let body_bytes = |users: u64| {
            let ts = TimeSeriesRecorder::aggregate(ScaleConfig::default());
            ts.set_default_target(0.95);
            let mut state = users;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for i in 0..2_000usize {
                let user = (next() % users) as usize;
                ts.fold(&if i % 16 == 0 {
                    Event::SchedulerDecision {
                        round: i as u64,
                        user,
                        rule: RULES[(i / 16) % RULES.len()].into(),
                        scores: vec![],
                        parent: 0,
                    }
                } else {
                    Event::TrainingCompleted {
                        user,
                        model: i % 20,
                        cost: 0.5 + (next() % 1_000) as f64 / 1_000.0,
                        quality: (next() % 1_000) as f64 / 1_000.0,
                        parent: 0,
                    }
                });
            }
            render_metrics(&InMemoryRecorder::new(), Some(&ts.snapshot())).len()
        };
        let (small, large) = (body_bytes(10), body_bytes(1_000));
        assert!(
            large as f64 <= 1.5 * small as f64,
            "/metrics body grew with U: {small} -> {large} bytes"
        );
    }

    #[test]
    fn per_user_families_are_suppressed_past_the_cap() {
        let ts = TimeSeriesRecorder::new();
        for user in 0..5 {
            ts.fold(&Event::TrainingCompleted {
                user,
                model: 0,
                cost: 1.0,
                quality: 0.5,
                parent: 0,
            });
        }
        let snap = ts.snapshot();
        let opts = RenderOptions { per_user_cap: 3 };
        let capped = render_metrics_full(&InMemoryRecorder::new(), Some(&snap), &[], (0, 0), &opts);
        // Bounded families still render; unbounded per-user ones do not.
        assert!(!capped.contains("easeml_user_regret{"), "{capped}");
        assert!(!capped.contains("easeml_user_arm_pulls_total{"), "{capped}");
        assert!(capped.contains("easeml_regret_quantile{"), "{capped}");
        assert!(capped.contains("easeml_tracked_tenants 5"), "{capped}");
        assert!(
            capped.contains("# easeml_user_* families suppressed: 5 tenants"),
            "{capped}"
        );
        // Under the cap the per-user families come back.
        let open = render_metrics_full(
            &InMemoryRecorder::new(),
            Some(&snap),
            &[],
            (0, 0),
            &RenderOptions { per_user_cap: 5 },
        );
        assert!(open.contains("easeml_user_regret{user=\"4\"}"), "{open}");
    }

    #[test]
    fn sink_stats_and_render_self_accounting_render() {
        let sinks = vec![(
            "trace".to_string(),
            SinkStats {
                bytes_total: 4096,
                lines_total: 37,
                dropped: 2,
                rotations: 1,
                append_ns: 999,
            },
        )];
        let ts = TimeSeriesRecorder::new();
        let text = render_metrics_full(
            &InMemoryRecorder::new(),
            Some(&ts.snapshot()),
            &sinks,
            (12345, 7),
            &RenderOptions::default(),
        );
        for line in [
            "easeml_sink_bytes_total{sink=\"trace\"} 4096",
            "easeml_sink_lines_total{sink=\"trace\"} 37",
            "easeml_sink_dropped_total{sink=\"trace\"} 2",
            "easeml_sink_rotations_total{sink=\"trace\"} 1",
            "easeml_telemetry_overhead_ns_total{component=\"sink/trace\"} 999",
            "easeml_telemetry_overhead_ns_total{component=\"http/render\"} 12345",
            "easeml_telemetry_renders_total 7",
        ] {
            assert!(text.contains(line), "missing {line} in:\n{text}");
        }
        // Without a series snapshot the sink families still render.
        let bare = render_metrics_full(
            &InMemoryRecorder::new(),
            None,
            &sinks,
            (0, 0),
            &RenderOptions::default(),
        );
        assert!(
            bare.contains("easeml_sink_dropped_total{sink=\"trace\"} 2"),
            "{bare}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain/name"), "plain/name");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn float_formatting_is_prometheus_compatible() {
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn explain_summary_tallies_paths_fallbacks_and_margins() {
        let record = |round: u64, path: &str, fallback: &str, arm_margin: f64| WitnessRecord {
            round,
            user: 0,
            arm: 1,
            user_margin: 0.5,
            arm_margin,
            path: path.to_string(),
            fallback: fallback.to_string(),
            censored: !fallback.is_empty(),
            candidates: 2,
            digest: format!("{round:016x}"),
            top_users: Vec::new(),
            top_arms: Vec::new(),
        };
        let records = [
            record(0, "greedy(max-gap)", "", 0.2),
            record(1, "greedy(max-gap)", "crash", 0.0),
            record(2, "round-robin", "", f64::NAN),
        ];
        let body = render_explain_summary(&records);
        easeml_obs::json::parse(&body).unwrap();
        assert!(body.contains("\"rounds\":3"), "{body}");
        assert!(body.contains("\"censored\":1"), "{body}");
        assert!(body.contains("\"ties\":1"), "{body}");
        assert!(
            body.contains("\"last_digest\":\"0000000000000002\""),
            "{body}"
        );
        // NaN margins are excluded from the distribution, not emitted.
        assert!(
            body.contains("\"arm_margin\":{\"count\":2,\"min\":0,\"median\":0.2,\"max\":0.2}"),
            "{body}"
        );
        assert!(
            body.contains("{\"path\":\"greedy(max-gap)\",\"rounds\":2,\"censored\":1}"),
            "{body}"
        );
        assert!(
            body.contains("\"fallbacks\":[{\"kind\":\"crash\",\"count\":1}]"),
            "{body}"
        );

        let empty = render_explain_summary(&[]);
        easeml_obs::json::parse(&empty).unwrap();
        assert!(empty.contains("\"rounds\":0"), "{empty}");
        assert!(empty.contains("\"last_digest\":null"), "{empty}");
        assert!(empty.contains("\"user_margin\":null"), "{empty}");
    }
}
