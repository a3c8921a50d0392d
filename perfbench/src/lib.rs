//! The repository benchmark: three workloads driven through the public
//! APIs of the ease.ml crates, each in its own process.
//!
//! * `zoo-batch` — the paper's repeated train/test protocol on
//!   179CLASSIFIER through [`easeml::experiment::run_experiment`];
//! * `service-1k` — the [`easeml::server::EaseMl`] façade with 1,000
//!   DSL-registered tenants, a write-ahead log, a checkpoint, a crash and
//!   [`easeml::server::EaseMl::recover`];
//! * `open-loop` — [`easeml_workload::ReplayDriver`] over
//!   [`easeml_exec::ExecEngine`]: Poisson arrivals with tenant churn on a
//!   16-device fleet.
//!
//! Each workload is a fixed amount of simulated work per seed (a *pass*),
//! repeated while the time budget lasts; every pass must reproduce the
//! first pass's decision digest. The loop is closed: each call waits for
//! the previous one. Set-up is timed apart from the measured decisions.
//!
//! The `perfbench` binary is the untraced run behind the end-to-end
//! metrics. `perfbench-traced` repeats a workload with the program's span
//! profiler, its component timers, allocation counting and the
//! benchmark's own spans switched on, and reports the per-layer metrics.
//! Both print one JSON object as their last line of output; `run.py`
//! builds them and turns their output into the benchmark's result.

use easeml::durability::Durability;
use easeml_wal::{FsyncPolicy, WalOptions};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

mod open_loop;
mod service;
mod stats;
mod trace;
mod zoo;

use stats::{median, Spread};
use trace::{span, Tracing};

/// The workload seed when none is given.
pub(crate) const DEFAULT_SEED: u64 = 20_180_801;

/// Metric values by name, each with its unit.
#[derive(Debug, Default)]
pub(crate) struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Records (or overwrites) one metric.
    pub(crate) fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    /// Records `decisions_per_s` as the median of per-input rates and logs
    /// their range.
    pub(crate) fn set_rate(&mut self, rates: &[f64]) {
        let (lo, hi) = rates.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
        let mid = median(rates);
        self.set("decisions_per_s", mid, "1/s");
        log(&format!(
            "decisions/s: median {mid:.0} of {} inputs, range {lo:.0}..{hi:.0}",
            rates.len()
        ));
    }

    /// Records the centre and tail of per-decision latencies and logs
    /// which tail quantile that was and what the samples were.
    pub(crate) fn set_latency(&mut self, spread: Spread, samples: &str) {
        self.set("decision_p50_us", spread.p50, "us");
        self.set("decision_p99_us", spread.tail, "us");
        log(&format!(
            "decision latency: p50 {:.2} us, {} {:.2} us of {} samples ({samples})",
            spread.p50,
            spread.tail_label(),
            spread.tail,
            spread.n,
        ));
    }
}

/// Each decision call's fastest time over the passes. Passes repeat
/// identical decisions, and the shared machine's neighbours slow it by up
/// to 1.7× for seconds at a stretch and only ever add time, so a call's
/// slower repetitions measure them rather than the program.
pub(crate) struct Fastest {
    /// Per input, the fastest µs of each of its decision calls, in order.
    best_us: Vec<Vec<f64>>,
    /// Per input, the decisions its calls make.
    decisions: Vec<f64>,
}

impl Fastest {
    /// Nothing measured yet for any of `inputs` inputs.
    pub(crate) fn new(inputs: usize) -> Fastest {
        Fastest {
            best_us: vec![Vec::new(); inputs],
            decisions: vec![0.0; inputs],
        }
    }

    /// Folds in one pass over input `i`: the µs of each decision call, in
    /// order, and the decisions those calls made.
    pub(crate) fn add(&mut self, i: usize, decisions: f64, us: &[f64]) {
        let best = &mut self.best_us[i];
        if best.is_empty() {
            best.extend_from_slice(us);
        } else {
            for (b, &t) in best.iter_mut().zip(us) {
                *b = b.min(t);
            }
        }
        self.decisions[i] = decisions;
    }

    /// Records `decisions_per_s` as the median over inputs of decisions
    /// per second of their calls' fastest times, and `decision_p50_us` and
    /// `decision_p99_us` over every input's fastest call times.
    pub(crate) fn report(&self, m: &mut Metrics, samples: &str) {
        let rates: Vec<f64> = self
            .best_us
            .iter()
            .zip(&self.decisions)
            .map(|(us, decisions)| decisions / (us.iter().sum::<f64>() / 1e6))
            .collect();
        m.set_rate(&rates);
        let mut all = self.best_us.concat();
        if !all.is_empty() {
            m.set_latency(Spread::of(&mut all), samples);
        }
    }
}

/// Operations attempted and failed. A failure is an `Err` from a public
/// call, a panic caught at the workload boundary, or a failed output check.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one public call; an `Err` counts as failed and is logged.
    pub(crate) fn call<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                log(&format!("FAILED {what}: {e}"));
                None
            }
        }
    }

    /// Counts one call that reports failure only by panicking (a panic is
    /// caught at the workload boundary and counted there).
    pub(crate) fn ran(&mut self) {
        self.attempted += 1;
    }

    /// Counts one output check; a false one counts as failed and is logged.
    pub(crate) fn check(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            log(&format!("CHECK FAILED: {what}"));
        }
        ok
    }

    /// Whether nothing failed so far.
    pub(crate) fn clean(&self) -> bool {
        self.failed == 0
    }
}

/// What one process needs to run a workload.
pub(crate) struct Ctx {
    /// The workload seed: every input is generated from it.
    pub(crate) seed: u64,
    /// Measurement budget in seconds.
    pub(crate) seconds: f64,
    /// A fresh directory for write-ahead logs and checkpoints.
    pub(crate) state_dir: PathBuf,
    /// Present in the traced run only.
    pub(crate) tracing: Option<Tracing>,
    /// Operations attempted and failed.
    pub(crate) tally: Tally,
}

impl Ctx {
    /// Runs `pass` at least once, then again while the time budget still
    /// holds another pass as long as the longest so far. `pass` returns
    /// false to stop early (after a failure). Returns the passes run.
    pub(crate) fn repeat(&mut self, mut pass: impl FnMut(&mut Ctx) -> bool) -> usize {
        let start = Instant::now();
        let mut longest = 0.0f64;
        let mut passes = 0;
        loop {
            let t = Instant::now();
            let go_on = pass(self);
            passes += 1;
            longest = longest.max(t.elapsed().as_secs_f64());
            if !go_on || start.elapsed().as_secs_f64() + longest > self.seconds {
                return passes;
            }
        }
    }
}

/// What a workload reports.
pub(crate) struct Report {
    /// Digest of the decisions of one pass (identical across passes).
    pub(crate) digest: String,
    /// Metric values.
    pub(crate) metrics: Metrics,
}

/// Writes a progress line to standard error.
pub(crate) fn log(line: &str) {
    eprintln!("perfbench: {line}");
}

/// The `i`-th input seed derived from the workload seed. Derived seeds of
/// nearby workload seeds do not overlap.
pub(crate) fn sub_seed(seed: u64, i: u64) -> u64 {
    easeml_wal::splitmix64(seed ^ easeml_wal::splitmix64(i + 1))
}

/// Seconds since `t` as `f64`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Counters from [`easeml::durability::Durability::stats_json`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WalStats {
    /// Records appended.
    pub(crate) appends: f64,
    /// Bytes appended.
    pub(crate) bytes: f64,
    /// Explicit fdatasync calls.
    pub(crate) fsyncs: f64,
    /// Segment rotations (each one two fdatasync calls).
    pub(crate) rotations: f64,
    /// Whether the log recorded no I/O error.
    pub(crate) healthy: bool,
}

/// The WAL settings of both durable workloads: syncing left to the OS, and
/// segments large enough that no measured phase rotates. The log lives
/// inside the benchmark's checkout, on whatever disk that is; an
/// fdatasync there (every 16 appends by default, and two at each rotation
/// of a 64 KiB segment) times the disk rather than the program. The
/// workloads open the log before their set-up clock starts, because
/// creating its first segment syncs too, and check that their measured
/// phases synced nothing.
pub(crate) fn wal_options() -> WalOptions {
    WalOptions {
        fsync: FsyncPolicy::Never,
        segment_bytes: 64 << 20,
    }
}

impl WalStats {
    /// Reads the counters of `wal`, counting the read and a check that the
    /// log recorded no I/O error.
    pub(crate) fn read(ctx: &mut Ctx, wal: &Durability) -> WalStats {
        let stats = ctx
            .tally
            .call("read WAL stats", WalStats::parse(&wal.stats_json()))
            .unwrap_or_default();
        ctx.tally.check("WAL reports no I/O error", stats.healthy);
        stats
    }

    /// Parses a `stats_json` document.
    fn parse(json: &str) -> Result<WalStats, String> {
        let doc = easeml_obs::json::parse(json)?;
        let easeml_obs::json::Json::Object(fields) = doc else {
            return Err("WAL stats are not an object".into());
        };
        let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let number = |key: &str| match field(key) {
            Some(easeml_obs::json::Json::Number(x)) => Ok(*x),
            _ => Err(format!("WAL stats lack {key}")),
        };
        Ok(WalStats {
            appends: number("appends")?,
            bytes: number("append_bytes")?,
            fsyncs: number("fsyncs")?,
            rotations: number("rotations")?,
            healthy: matches!(field("last_error"), Some(easeml_obs::json::Json::Null)),
        })
    }

    /// Counter growth from `before` to `self`.
    pub(crate) fn since(&self, before: &WalStats) -> WalStats {
        WalStats {
            appends: self.appends - before.appends,
            bytes: self.bytes - before.bytes,
            fsyncs: self.fsyncs - before.fsyncs,
            rotations: self.rotations - before.rotations,
            ..*self
        }
    }

    /// The counter growth of two phases together.
    pub(crate) fn plus(&self, other: &WalStats) -> WalStats {
        WalStats {
            appends: self.appends + other.appends,
            bytes: self.bytes + other.bytes,
            fsyncs: self.fsyncs + other.fsyncs,
            rotations: self.rotations + other.rotations,
            healthy: self.healthy && other.healthy,
        }
    }

    /// Checks that a measured phase, whose counter growth is `self`, left
    /// the disk alone: no fdatasync and no segment rotation.
    pub(crate) fn check_no_sync(&self, tally: &mut Tally) {
        tally.check(
            "the measured phase neither synced nor rotated the WAL",
            self.fsyncs == 0.0 && self.rotations == 0.0,
        );
    }

    /// Records the WAL metrics of a measured phase of `decisions`
    /// decisions that grew the counters by `self`.
    pub(crate) fn report(&self, decisions: f64, tracing: &Tracing, m: &mut Metrics) {
        m.set(
            "wal.appends_per_decision",
            self.appends / decisions,
            "count",
        );
        m.set("wal.fsyncs_per_decision", self.fsyncs / decisions, "count");
        m.set("wal.bytes_per_decision", self.bytes / decisions, "B");
        let (_, append_us) = tracing.timer(easeml_obs::Component::WalAppend);
        m.set("wal.append_ns", append_us * 1e3, "ns");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    state_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload zoo-batch|service-1k|open-loop \
                     [--seed N] --seconds S --state-dir DIR";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut state_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                );
            }
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        state_dir: state_dir.ok_or("--state-dir is required")?,
    })
}

/// Entry point of both binaries; `traced` selects the traced run.
pub fn main(traced: bool) -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&mut Ctx) -> Report = match args.workload.as_str() {
        "zoo-batch" => zoo::run,
        "service-1k" => service::run,
        "open-loop" => open_loop::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.state_dir) {
        eprintln!("cannot create {}: {e}", args.state_dir.display());
        return ExitCode::from(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        state_dir: args.state_dir,
        tracing: traced.then(Tracing::install),
        tally: Tally::default(),
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut ctx)));
    let report = match outcome {
        Ok(report) => report,
        Err(_) => {
            ctx.tally.attempted += 1;
            ctx.tally.failed += 1;
            log("FAILED: the workload panicked");
            Report {
                digest: String::new(),
                metrics: Metrics::default(),
            }
        }
    };
    let mut metrics = report.metrics;
    if let Some(mib) = peak_rss_mib() {
        metrics.set("peak_rss_mib", mib, "MiB");
    }
    let mut fields = String::new();
    for (name, (value, unit)) in &metrics.0 {
        let sep = if fields.is_empty() { "" } else { "," };
        if value.is_finite() {
            // `{:?}` prints every digit an f64 carries.
            let _ = write!(
                fields,
                "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        } else {
            ctx.tally
                .check(&format!("{name} is a finite number"), false);
        }
    }
    let line = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{traced},\"digest\":\"{}\",\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{fields}}}}}",
        args.workload,
        args.seed,
        report.digest,
        ctx.tally.clean(),
        ctx.tally.attempted,
        ctx.tally.failed,
    );
    println!("{line}");
    ExitCode::SUCCESS
}
