//! `easeml-trace` — offline analytics over recorded ease.ml traces.
//!
//! ```text
//! easeml-trace report <trace.jsonl> [--target USER=QUALITY]...
//! easeml-trace workload-report <trace.jsonl> [--target USER=QUALITY]...
//! easeml-trace chrome <trace.jsonl>
//! easeml-trace profile <trace.jsonl>... [--users N,N,...] [--folded PATH]
//! easeml-trace explain <trace.jsonl> [--round N]
//! easeml-trace record <scenario.json> <out.jsonl>
//! easeml-trace replay-diff <scenario.json> <trace.jsonl> [--mutate-at N]
//! easeml-trace recovery-report <wal-dir>
//! easeml-trace --version
//! ```
//!
//! `report` prints the regret decomposition (Theorem 1), the GP
//! calibration table, the hybrid-fallback timeline, and the
//! numerical-health summary. `chrome` writes Chrome trace-event JSON to
//! stdout — redirect to a file and load it in `chrome://tracing` or
//! Perfetto to see the causal span tree. `profile` folds the span stream
//! of one or more traces into an aggregated call-tree profile with a
//! per-phase self-time table; given several traces from a tenant-count
//! sweep (`--users` pins the counts, otherwise each trace's max user id
//! is used) it also fits the empirical per-phase scaling exponents, and
//! `--folded PATH` writes flamegraph-ready folded stacks.
//!
//! `explain` renders a decision-health report over the trace's witness
//! chains, or with `--round N` one round's full why-chain. `record` runs a
//! pinned [`easeml_trace::ReplayScenario`] through the simulator and
//! writes its schema-v5 trace; `replay-diff` re-executes the scenario
//! against the live scheduler (the engine at one device) and binary-searches
//! the first divergent round on the rolling state digests — `--mutate-at`
//! arms the test-only picker mutation to prove the harness catches it.
//!
//! `workload-report` renders the open-loop workload view of a schema-v6
//! trace: per-tenant arrivals, FIFO-matched queueing-delay quantiles,
//! tenant churn, the arrival-rate timeline, per-tenant regret, and device
//! utilization.
//!
//! `recovery-report` inspects a write-ahead-log directory without
//! replaying it: record counts per tag, torn-tail status, the last
//! checkpoint barrier, the replay suffix, and an independent
//! re-verification of the commit digest chain. Exits nonzero if the
//! chain does not verify.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: easeml-trace \
                     <report|workload-report|chrome|profile|explain|record|replay-diff\
                     |recovery-report> ... \
                     | --version\n\
                     \x20 report <trace.jsonl> [--target USER=QUALITY]...\n\
                     \x20 workload-report <trace.jsonl> [--target USER=QUALITY]...\n\
                     \x20 chrome <trace.jsonl>\n\
                     \x20 profile <trace.jsonl>... [--users N,N,...] [--folded PATH]\n\
                     \x20 explain <trace.jsonl> [--round N]\n\
                     \x20 record <scenario.json> <out.jsonl>\n\
                     \x20 replay-diff <scenario.json> <trace.jsonl> [--mutate-at N]\n\
                     \x20 recovery-report <wal-dir>";

/// The `--version` line: binary version plus the trace schema range this
/// build can load — the counterpart of the loader's newer-schema rejection.
fn version_line() -> String {
    format!(
        "easeml-trace {} (trace schema v{}..=v{} supported)",
        env!("CARGO_PKG_VERSION"),
        easeml_trace::MIN_SUPPORTED_SCHEMA_VERSION,
        easeml_trace::MAX_SUPPORTED_SCHEMA_VERSION,
    )
}

fn parse_targets(args: &[String]) -> Result<BTreeMap<usize, f64>, String> {
    let mut targets = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg != "--target" {
            return Err(format!("unknown argument {arg:?}\n{USAGE}"));
        }
        let spec = it
            .next()
            .ok_or_else(|| format!("--target needs USER=QUALITY\n{USAGE}"))?;
        let (user, quality) = spec
            .split_once('=')
            .ok_or_else(|| format!("--target {spec:?} is not USER=QUALITY"))?;
        let user: usize = user
            .parse()
            .map_err(|_| format!("--target user {user:?} is not an integer"))?;
        let quality: f64 = quality
            .parse()
            .map_err(|_| format!("--target quality {quality:?} is not a number"))?;
        targets.insert(user, quality);
    }
    Ok(targets)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("{}", version_line());
        return Ok(());
    }
    let (command, path, rest) = match args.as_slice() {
        [command, path, rest @ ..] => (command.as_str(), Path::new(path), rest),
        _ => return Err(USAGE.to_string()),
    };
    // `report` folds rotated siblings (`<path>.N`) back in so a rotated
    // sink's history is analyzed as one stream; `chrome` keeps the single
    // file (the span tree only makes sense within one segment).
    match command {
        "report" => {
            let trace = easeml_trace::load_trace_with_rotations(path)?;
            let targets = parse_targets(rest)?;
            print!("{}", easeml_trace::render_report(&trace, &targets));
            Ok(())
        }
        "workload-report" => {
            let trace = easeml_trace::load_trace_with_rotations(path)?;
            let targets = parse_targets(rest)?;
            print!("{}", easeml_trace::render_workload_report(&trace, &targets));
            Ok(())
        }
        "chrome" => {
            if !rest.is_empty() {
                return Err(format!("chrome takes no flags\n{USAGE}"));
            }
            let trace = easeml_trace::load_trace(path)?;
            println!("{}", easeml_trace::chrome_trace(&trace.events));
            Ok(())
        }
        "profile" => {
            let (paths, users, folded) = parse_profile_args(path, rest)?;
            if let Some(list) = &users {
                if list.len() != paths.len() {
                    return Err(format!(
                        "--users lists {} count(s) but {} trace(s) were given",
                        list.len(),
                        paths.len()
                    ));
                }
            }
            let mut runs = Vec::new();
            for (i, p) in paths.iter().enumerate() {
                let trace = easeml_trace::load_trace_with_rotations(Path::new(p))?;
                let u = users
                    .as_ref()
                    .map_or_else(|| infer_tenant_count(&trace.events), |list| list[i]);
                runs.push((u, easeml_trace::profile_of(&trace)));
            }
            print!("{}", easeml_trace::render_profile(&runs));
            if let Some(out_path) = folded {
                let mut merged = easeml_obs::CallTreeProfile::new();
                for (_, profile) in &runs {
                    merged.merge(profile);
                }
                std::fs::write(&out_path, merged.folded_stacks())
                    .map_err(|e| format!("writing {}: {e}", out_path.display()))?;
                eprintln!("folded stacks written to {}", out_path.display());
            }
            Ok(())
        }
        "explain" => {
            let round = parse_explain_args(rest)?;
            let trace = easeml_trace::load_trace_with_rotations(path)?;
            match round {
                Some(round) => {
                    print!(
                        "{}",
                        easeml_trace::render_explain_round(&trace.events, round)?
                    );
                }
                None => {
                    let records = easeml_obs::witness_records(&trace.events);
                    print!(
                        "{}",
                        easeml_trace::render_decision_health(&easeml_trace::decision_health(
                            &records
                        ))
                    );
                }
            }
            Ok(())
        }
        "record" => {
            let [out_path] = rest else {
                return Err(format!("record takes <scenario.json> <out.jsonl>\n{USAGE}"));
            };
            let scenario = load_scenario(path)?;
            let jsonl = easeml_trace::record_trace(&scenario)?;
            std::fs::write(out_path, &jsonl).map_err(|e| format!("writing {out_path}: {e}"))?;
            eprintln!(
                "recorded {} line(s) to {out_path} ({})",
                jsonl.lines().count(),
                version_line()
            );
            Ok(())
        }
        "replay-diff" => {
            let (trace_path, mutate_at) = parse_replay_args(rest)?;
            let scenario = load_scenario(path)?;
            let trace = easeml_trace::load_trace_with_rotations(Path::new(&trace_path))?;
            let live = easeml_trace::replay_diff(&scenario, &trace, mutate_at)?;
            let recorded_rounds = easeml_trace::digests_of(&trace.events).len();
            print!(
                "{}",
                easeml_trace::render_replay_diff(&scenario, recorded_rounds, &live, mutate_at)
            );
            if live.divergence.is_some() {
                return Err("replay diverged from the recorded trace".to_string());
            }
            Ok(())
        }
        "recovery-report" => {
            if !rest.is_empty() {
                return Err(format!("recovery-report takes <wal-dir>\n{USAGE}"));
            }
            let (text, chain_ok) = easeml_trace::recovery_report(path)?;
            print!("{text}");
            if !chain_ok {
                return Err("the WAL digest chain does not verify".to_string());
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Reads and parses a [`easeml_trace::ReplayScenario`] JSON file.
fn load_scenario(path: &Path) -> Result<easeml_trace::ReplayScenario, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    easeml_trace::ReplayScenario::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses `explain`'s argument tail: an optional `--round N`.
fn parse_explain_args(rest: &[String]) -> Result<Option<u64>, String> {
    match rest {
        [] => Ok(None),
        [flag, n] if flag == "--round" => n
            .parse()
            .map(Some)
            .map_err(|_| format!("--round {n:?} is not an unsigned integer")),
        _ => Err(format!("explain takes [--round N]\n{USAGE}")),
    }
}

/// Parses `replay-diff`'s argument tail: the trace path and an optional
/// `--mutate-at N`.
fn parse_replay_args(rest: &[String]) -> Result<(String, Option<u64>), String> {
    match rest {
        [trace] => Ok((trace.clone(), None)),
        [trace, flag, n] if flag == "--mutate-at" => n
            .parse()
            .map(|step| (trace.clone(), Some(step)))
            .map_err(|_| format!("--mutate-at {n:?} is not an unsigned integer")),
        _ => Err(format!(
            "replay-diff takes <scenario.json> <trace.jsonl> [--mutate-at N]\n{USAGE}"
        )),
    }
}

/// Parsed `profile` argument tail: trace paths, `--users` counts,
/// `--folded` output path.
type ProfileArgs = (Vec<PathBuf>, Option<Vec<usize>>, Option<PathBuf>);

/// Splits `profile`'s argument tail into extra trace paths and flags.
fn parse_profile_args(first: &Path, rest: &[String]) -> Result<ProfileArgs, String> {
    let mut paths = vec![first.to_path_buf()];
    let mut users = None;
    let mut folded = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--users" => {
                let spec = it
                    .next()
                    .ok_or_else(|| format!("--users needs N,N,...\n{USAGE}"))?;
                let parsed: Result<Vec<usize>, _> =
                    spec.split(',').map(str::trim).map(str::parse).collect();
                users = Some(parsed.map_err(|_| {
                    format!("--users {spec:?} is not a comma-separated integer list")
                })?);
            }
            "--folded" => {
                let p = it
                    .next()
                    .ok_or_else(|| format!("--folded needs a path\n{USAGE}"))?;
                folded = Some(PathBuf::from(p));
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument {flag:?}\n{USAGE}"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    Ok((paths, users, folded))
}

/// Tenant count implied by a trace: one past the highest user id any event
/// carries (0 when no event names a user).
fn infer_tenant_count(events: &[easeml_obs::Event]) -> usize {
    events
        .iter()
        .filter_map(easeml_obs::Event::user)
        .max()
        .map_or(0, |u| u + 1)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("easeml-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        infer_tenant_count, parse_explain_args, parse_profile_args, parse_replay_args,
        parse_targets, version_line,
    };
    use std::path::Path;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn profile_args_collect_paths_and_flags() {
        let (paths, users, folded) = parse_profile_args(
            Path::new("a.jsonl"),
            &strings(&[
                "b.jsonl",
                "--users",
                "1000, 10000",
                "--folded",
                "out.folded",
            ]),
        )
        .unwrap();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[1], Path::new("b.jsonl"));
        assert_eq!(users, Some(vec![1_000, 10_000]));
        assert_eq!(folded.as_deref(), Some(Path::new("out.folded")));

        let (paths, users, folded) = parse_profile_args(Path::new("a.jsonl"), &[]).unwrap();
        assert_eq!((paths.len(), users, folded), (1, None, None));

        assert!(parse_profile_args(Path::new("a"), &strings(&["--users"])).is_err());
        assert!(parse_profile_args(Path::new("a"), &strings(&["--users", "x,y"])).is_err());
        assert!(parse_profile_args(Path::new("a"), &strings(&["--folded"])).is_err());
        assert!(parse_profile_args(Path::new("a"), &strings(&["--bogus"])).is_err());
    }

    #[test]
    fn tenant_count_is_inferred_from_events() {
        use easeml_obs::Event;
        assert_eq!(infer_tenant_count(&[]), 0);
        let events = vec![
            Event::TrainingCompleted {
                user: 41,
                model: 0,
                cost: 1.0,
                quality: 0.5,
                parent: 0,
            },
            Event::SpanEnd { span: 1, ts_ns: 5 },
        ];
        assert_eq!(infer_tenant_count(&events), 42);
    }

    #[test]
    fn targets_parse_into_the_map() {
        let t = parse_targets(&strings(&["--target", "0=0.9", "--target", "3=0.75"])).unwrap();
        assert_eq!(t.len(), 2);
        assert!((t[&0] - 0.9).abs() < 1e-12);
        assert!((t[&3] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn version_line_names_the_supported_schema_range() {
        let line = version_line();
        assert!(line.starts_with("easeml-trace "), "{line}");
        assert!(
            line.contains(&format!(
                "schema v{}..=v{} supported",
                easeml_trace::MIN_SUPPORTED_SCHEMA_VERSION,
                easeml_trace::MAX_SUPPORTED_SCHEMA_VERSION
            )),
            "{line}"
        );
    }

    #[test]
    fn explain_and_replay_args_parse_their_flags() {
        assert_eq!(parse_explain_args(&[]).unwrap(), None);
        assert_eq!(
            parse_explain_args(&strings(&["--round", "12"])).unwrap(),
            Some(12)
        );
        assert!(parse_explain_args(&strings(&["--round", "x"])).is_err());
        assert!(parse_explain_args(&strings(&["--bogus"])).is_err());

        assert_eq!(
            parse_replay_args(&strings(&["t.jsonl"])).unwrap(),
            ("t.jsonl".to_string(), None)
        );
        assert_eq!(
            parse_replay_args(&strings(&["t.jsonl", "--mutate-at", "4"])).unwrap(),
            ("t.jsonl".to_string(), Some(4))
        );
        assert!(parse_replay_args(&[]).is_err());
        assert!(parse_replay_args(&strings(&["t", "--mutate-at", "x"])).is_err());
    }

    #[test]
    fn malformed_targets_are_rejected() {
        assert!(parse_targets(&strings(&["--target"])).is_err());
        assert!(parse_targets(&strings(&["--target", "nope"])).is_err());
        assert!(parse_targets(&strings(&["--target", "x=0.9"])).is_err());
        assert!(parse_targets(&strings(&["--target", "0=x"])).is_err());
        assert!(parse_targets(&strings(&["--bogus"])).is_err());
        assert!(parse_targets(&[]).unwrap().is_empty());
    }
}
