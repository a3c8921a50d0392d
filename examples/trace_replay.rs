//! Cluster-trace CSV → open-loop replay → `workload-report`.
//!
//! The end-to-end path `easeml-workload` exists for, on a bundled
//! miniature Azure-style trace (`examples/data/azure_mini.csv`):
//!
//! * parse the CSV with [`easeml_workload::AzureTraceReader`] and fold its
//!   free-form tenant keys onto the engine's fixed user slots with
//!   [`easeml_workload::map_jobs`];
//! * turn the mapped jobs into a [`easeml_workload::WorkloadScript`] where
//!   each tenant retires right after its final arrival — the churn a
//!   bounded trace implies;
//! * replay the script open-loop through the HYBRID scheduler on a
//!   three-device fleet, recording the structured-event stream (schema v6:
//!   `JobArrived` / `TenantRetired` ride alongside the execution events);
//! * load the recorded JSONL back through `easeml-trace` and print the
//!   same report `easeml-trace workload-report` renders, then assert the
//!   invariants CI greps for: nonzero tenant churn and a consistent
//!   Theorem 1 regret decomposition.
//!
//! Run with: `cargo run --example trace_replay`
//! Flags: `--trace-out PATH` (keep the JSONL), `--report-out PATH` (write
//! the rendered report, e.g. for a CI artifact).

use easeml::exec::{ExecEngine, Fleet};
use easeml::prelude::*;
use easeml_gp::ArmPrior;
use easeml_obs::{schema_header_line, InMemoryRecorder, RecorderHandle};
use easeml_workload::{map_jobs, AzureTraceReader, ReplayDriver, TraceReader, WorkloadScript};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The bundled miniature Azure-style VM-instances table.
const MINI_TRACE: &str = include_str!("data/azure_mini.csv");

/// Engine user slots the trace's tenant keys fold onto.
const USERS: usize = 6;

/// Devices in the replay fleet.
const DEVICES: usize = 3;

/// Seed for the dataset and the engine's hallucinated-dispatch stream.
const SEED: u64 = 42;

struct Options {
    trace_out: Option<std::path::PathBuf>,
    report_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        trace_out: None,
        report_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => {
                let value = args.next().expect("--trace-out needs a path");
                opts.trace_out = Some(value.into());
            }
            "--report-out" => {
                let value = args.next().expect("--report-out needs a path");
                opts.report_out = Some(value.into());
            }
            other => {
                eprintln!("unknown argument {other:?}; flags: --trace-out PATH --report-out PATH");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn main() {
    let opts = parse_args();

    // 1. Trace CSV → time-sorted jobs → engine user slots.
    let jobs = AzureTraceReader
        .parse(MINI_TRACE)
        .expect("bundled trace parses");
    let (mapped, tenants) = map_jobs(&jobs, USERS);
    println!(
        "parsed {} azure jobs -> {} tenant(s) on {} slot(s), {} dropped",
        jobs.len(),
        tenants.names.len(),
        USERS,
        tenants.dropped,
    );
    for (slot, name) in tenants.names.iter().enumerate() {
        println!("  slot {slot}: {name}");
    }
    assert_eq!(tenants.dropped, 0, "the bundled trace fits the slot budget");

    // 2. Mapped jobs → open-loop script; a bounded trace implies churn
    //    (each tenant retires after its last arrival).
    let script = WorkloadScript::from_trace(&mapped, true);
    println!(
        "script: {} arrival(s), {} lifecycle event(s)\n",
        script.arrivals(),
        script.lifecycle_events(),
    );

    // 3. Replay through HYBRID on a uniform fleet, recording everything.
    //    The budget never binds: the trace bounds the work.
    let dataset = easeml_data::SynConfig {
        num_users: USERS,
        num_models: 6,
        ..easeml_data::SynConfig::paper(0.5, 0.5)
    }
    .generate(SEED);
    let priors: Vec<ArmPrior> = (0..USERS).map(|_| ArmPrior::independent(6, 0.05)).collect();
    let cfg = SimConfig::new(1e12);
    let rec = Arc::new(InMemoryRecorder::new());
    let driver = ReplayDriver::new(
        ExecEngine::new(
            &dataset,
            &priors,
            SchedulerKind::Hybrid,
            &cfg,
            Fleet::uniform(DEVICES),
            SEED,
            RecorderHandle::new(rec.clone()),
        ),
        script,
    );
    let exec_trace = driver.run();
    println!(
        "replayed: {} dispatch(es), makespan {:.4}\n",
        exec_trace.dispatches, exec_trace.makespan,
    );

    // 4. Recorded events → JSONL on disk → back through the trace loader,
    //    exactly what `easeml-trace workload-report FILE` would read.
    let trace_path = opts
        .trace_out
        .unwrap_or_else(|| std::env::temp_dir().join("easeml_trace_replay.jsonl"));
    let jsonl = format!("{}\n{}", schema_header_line(), rec.to_jsonl());
    std::fs::write(&trace_path, jsonl).expect("write trace jsonl");
    let loaded = easeml_trace::load_trace(&trace_path).expect("reload the recorded trace");
    let report = easeml_trace::render_workload_report(&loaded, &BTreeMap::new());
    print!("{report}");

    // 5. The invariants CI greps for, asserted in-process too.
    let fold = easeml_trace::workload_report(&loaded.events);
    assert_eq!(
        fold.arrivals as usize,
        mapped.len(),
        "every mapped job reaches the recorded trace"
    );
    assert!(
        fold.retirements as usize == tenants.names.len(),
        "each trace tenant retires after its final job"
    );
    assert!(exec_trace.dispatches > 0, "the replay dispatched work");
    assert!(
        report.contains("decomposition consistent: true"),
        "Theorem 1 regret decomposition must balance on the replayed trace"
    );
    println!(
        "\nchecks: {} arrival(s) recorded, {} retirement(s), decomposition consistent",
        fold.arrivals, fold.retirements,
    );

    if let Some(path) = opts.report_out {
        std::fs::write(&path, &report).expect("write report");
        println!("report written to {}", path.display());
    }
    println!("trace written to {}", trace_path.display());
}
