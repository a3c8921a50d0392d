//! A heterogeneous GPU fleet scheduling four tenants with delayed feedback.
//!
//! Runs the `easeml::exec` discrete-event engine on a synthetic workload:
//!
//! * a fleet of `--devices N` devices with mixed speed factors, kept
//!   saturated by GP-BUCB hallucinated dispatch (arms are picked while
//!   earlier runs are still in flight — feedback arrives later, in
//!   completion order);
//! * mid-run, the engine is checkpointed to JSON with runs still in
//!   flight, then restored and replayed to verify the restart is
//!   bit-identical to the uninterrupted run;
//! * with `--chaos`, a seeded fault injector crashes and times out runs —
//!   a censored run frees its device at censoring time and charges only
//!   its partial cost;
//! * with `--trace-out PATH`, the full structured-event stream (schema v4:
//!   `RunDispatched` / `RunFinished` / `DeviceIdle`) is written as JSONL,
//!   ready for `easeml-trace report PATH`.
//!
//! Run with: `cargo run --example multi_device -- --devices 4 --chaos`

use easeml::exec::{DeviceSpec, ExecCheckpoint, ExecEngine, Fleet};
use easeml::fault::FaultConfig;
use easeml::prelude::*;
use easeml_gp::ArmPrior;
use easeml_obs::{InMemoryRecorder, JsonlFileSink, RecorderHandle, StreamingSink, TeeRecorder};
use std::sync::Arc;

struct Options {
    devices: usize,
    budget: f64,
    chaos: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        devices: 4,
        budget: 60.0,
        chaos: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--devices" => {
                let value = args.next().expect("--devices needs a value");
                opts.devices = value.parse().expect("--devices must be an integer");
                assert!(opts.devices > 0, "--devices must be positive");
            }
            "--budget" => {
                let value = args.next().expect("--budget needs a value");
                opts.budget = value.parse().expect("--budget must be a number");
            }
            "--chaos" => opts.chaos = true,
            "--trace-out" => {
                let value = args.next().expect("--trace-out needs a path");
                opts.trace_out = Some(value.into());
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; flags: --devices N --budget B --chaos \
                     --trace-out PATH"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Mixed speed factors, cycled across the fleet: one hot cluster node, two
/// stock ones, one throttled.
fn fleet_specs(devices: usize) -> Vec<DeviceSpec> {
    const SPEEDS: [f64; 4] = [1.5, 1.0, 1.0, 0.75];
    (0..devices)
        .map(|d| DeviceSpec::with_speed(SPEEDS[d % SPEEDS.len()]))
        .collect()
}

fn main() {
    let opts = parse_args();
    let specs = fleet_specs(opts.devices);

    // Six tenants exploring eight models each, unit costs: every dispatch
    // charges 1.0, so `--budget` is also the total number of dispatches.
    let dataset = easeml_data::SynConfig {
        num_users: 6,
        num_models: 8,
        ..easeml_data::SynConfig::paper(0.5, 1.0)
    }
    .generate(42)
    .unit_cost_view();
    let priors: Vec<ArmPrior> = (0..dataset.num_users())
        .map(|_| ArmPrior::independent(dataset.num_models(), 0.05))
        .collect();
    let mut cfg = SimConfig::new(opts.budget);
    if opts.chaos {
        cfg.fault = Some(
            FaultConfig::new(7)
                .with_crash_rate(0.12)
                .with_timeout_rate(0.05)
                .with_stragglers(0.10, 3.0),
        );
        println!("chaos mode: seeded fault injection is ON");
    }

    // Recorder stack: the in-memory trace, teed to a JSONL file when
    // --trace-out is given.
    let primary = Arc::new(InMemoryRecorder::new());
    let file_sink = opts
        .trace_out
        .as_ref()
        .map(|path| Arc::new(JsonlFileSink::create(path).expect("create trace file")));
    let mut tee = TeeRecorder::new(primary.clone());
    if let Some(sink) = &file_sink {
        tee = tee.with_sink(sink.clone() as Arc<dyn StreamingSink>);
    }
    let tee = Arc::new(tee);
    let handle = RecorderHandle::new(tee.clone());

    println!(
        "fleet: {} device(s), speeds {:?}",
        specs.len(),
        specs.iter().map(|s| s.speed).collect::<Vec<_>>()
    );
    let mut engine = ExecEngine::new(
        &dataset,
        &priors,
        SchedulerKind::Hybrid,
        &cfg,
        Fleet::new(specs.clone()),
        11,
        handle,
    );

    // Step past the first completions, then checkpoint with runs still in
    // flight — the crash-safety path a real cluster controller would take.
    let mut ticked = 0;
    while ticked < 2 * opts.devices && engine.tick() {
        ticked += 1;
    }
    let checkpoint = engine.checkpoint();
    let encoded = checkpoint.to_json();
    println!(
        "checkpoint at t={:.2}: {} bytes, {} run(s) in flight, {:.1} cost committed",
        engine.now(),
        encoded.len(),
        engine.in_flight_len(),
        engine.committed()
    );

    // The interrupted copy restores from JSON and finishes on its own...
    let decoded = ExecCheckpoint::from_json(&encoded).expect("parse checkpoint");
    let restored = ExecEngine::restore(&dataset, &priors, &decoded).expect("restore checkpoint");
    let replayed = restored.run();
    // ...while the original keeps running uninterrupted.
    let trace = engine.run();
    let consistent = replayed == trace;
    println!("checkpoint replay consistent: {consistent}");

    println!(
        "makespan: {:.2}  completed rounds: {}  censored: {}  total charged: {:.1}",
        trace.makespan, trace.sim.rounds, trace.censored, trace.total_charged
    );
    println!("parallel dispatches: {}", trace.parallel_dispatches);
    for (d, spec) in specs.iter().enumerate() {
        let busy = trace.device_busy[d];
        let utilization = 100.0 * busy / (spec.slots as f64 * trace.makespan);
        println!(
            "device {d}: speed {:.2}  busy {:>7.2}  idle {:>7.2}  utilization {utilization:5.1}%",
            spec.speed, busy, trace.device_idle[d]
        );
    }
    let mean_loss = trace
        .sim
        .points
        .last()
        .map_or(trace.sim.initial_loss, |p| p.1);
    println!(
        "mean loss: {:.4} (from {:.4} after warm-up)",
        mean_loss, trace.sim.initial_loss
    );

    tee.flush();
    match &opts.trace_out {
        Some(path) => println!(
            "trace: {} events, JSONL at {} — analyze with: easeml-trace report {}",
            primary.num_events(),
            path.display(),
            path.display()
        ),
        None => println!("trace: {} events in memory", primary.num_events()),
    }
    if !consistent {
        eprintln!("error: restored run diverged from the uninterrupted one");
        std::process::exit(1);
    }
}
