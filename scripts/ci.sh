#!/usr/bin/env bash
# The full CI gate, runnable locally. Mirrors .github/workflows/ci.yml.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> WAL tests, optimised (CRC kernel, group commit, every-byte crash sweep)"
# The CRC kernel and the batching are arithmetic that perfbench and users
# run optimised; the tests run again under the release profile.
cargo test --release -q -p easeml-wal
cargo test --release -q --test wal_crash_sweep

echo "==> linear-algebra and GP tests, optimised (blocked kernels, T-space LML)"
# The panel Cholesky, the column Gram and the lower-triangle
# tridiagonalization must stay bit-identical to their plain loops in the
# vectorised code that perfbench and users run; so must the certified
# prior, the tuned grid's argmax and the empirical prior.
cargo test --release -q -p easeml-linalg -p easeml-gp
cargo test --release -q -p easeml-core experiment::

echo "==> serial reference tests, optimised (the engine at one device)"
# The simulator runs on the execution engine at one unit device; the
# test-only serial loop holds it to the serial trajectory and digests in
# the build that perfbench and users run.
cargo test --release -q -p easeml-core exec::reference

echo "==> wall-clock scaling gates, optimised (ignored by the default test run)"
# The scaling windows with no work-count equivalent: the pick_user and
# posterior_update exponents over 1k-100k tenants, and the open-loop
# engine's cost per served job across arrival rates.
cargo test --release -q -p easeml-core -p easeml-workload -- --ignored

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> live_dashboard smoke run"
smoke_trace="$(mktemp -t easeml-ci-smoke-XXXXXX.jsonl)"
trap 'rm -f "$smoke_trace"' EXIT
cargo run --quiet --example live_dashboard -- \
  --rounds 5 --no-serve --trace-out "$smoke_trace"

echo "==> easeml-trace report on the smoke trace"
report="$(cargo run --quiet -p easeml-trace -- report "$smoke_trace")"
echo "$report"
# The offline analyzer must reconstruct a non-empty, internally
# consistent Theorem 1 regret decomposition from the recorded trace.
echo "$report" | grep -q "regret decomposition (Theorem 1)"
echo "$report" | grep -q "decomposition consistent: true"
if echo "$report" | grep -q "rounds: 0 "; then
  echo "error: smoke trace produced an empty regret decomposition" >&2
  exit 1
fi
# The scale section folds the trace into sketches and must agree with the
# exact per-quantile fold on a trace this small.
echo "$report" | grep -q "sketch-vs-exact cross-check: pass"

echo "==> easeml-trace profile on the smoke trace"
smoke_folded="$(mktemp -t easeml-ci-folded-XXXXXX.folded)"
trap 'rm -f "$smoke_trace" "$smoke_folded"' EXIT
profile_out="$(cargo run --quiet -p easeml-trace -- profile "$smoke_trace" \
  --folded "$smoke_folded")"
echo "$profile_out"
# The folded call tree must be non-empty and balanced (every SpanStart
# paired with its SpanEnd, none orphaned), and the scheduler's hot loop
# must attribute at least 95% of its wall time to named child phases.
echo "$profile_out" | grep -q "scheduler_step"
echo "$profile_out" | grep -q "0 unclosed, 0 orphaned"
echo "$profile_out" | grep -q "wall time attributed (pass"
test -s "$smoke_folded"

echo "==> chaos smoke run (seeded fault injection)"
chaos_trace="$(mktemp -t easeml-ci-chaos-XXXXXX.jsonl)"
trap 'rm -f "$smoke_trace" "$smoke_folded" "$chaos_trace"' EXIT
cargo run --quiet --example live_dashboard -- \
  --rounds 25 --no-serve --chaos --trace-out "$chaos_trace"

echo "==> easeml-trace report on the chaos trace"
chaos_report="$(cargo run --quiet -p easeml-trace -- report "$chaos_trace")"
echo "$chaos_report"
# The storm must actually censor runs (a zero count means the fault
# injector silently stopped firing), and the Theorem 1 decomposition must
# stay consistent with censored cost on the clock.
echo "$chaos_report" | grep -q "TrainingFailed:"
if echo "$chaos_report" | grep -q "TrainingFailed: 0 "; then
  echo "error: chaos run recorded no censored training runs" >&2
  exit 1
fi
echo "$chaos_report" | grep -q "decomposition consistent: true"
# Censored runs observe full regret; the sketch fold must still match the
# exact fold under censoring.
echo "$chaos_report" | grep -q "sketch-vs-exact cross-check: pass"

echo "==> multi-device smoke run (4 devices, chaos, mid-flight checkpoint)"
exec_trace="$(mktemp -t easeml-ci-exec-XXXXXX.jsonl)"
trap 'rm -f "$smoke_trace" "$smoke_folded" "$chaos_trace" "$exec_trace"' EXIT
exec_out="$(cargo run --quiet --example multi_device -- \
  --devices 4 --chaos --trace-out "$exec_trace")"
echo "$exec_out"
# The fleet must actually overlap runs (a zero means the dispatcher fell
# back to serial execution) and the mid-flight checkpoint must replay to
# the exact uninterrupted trajectory.
echo "$exec_out" | grep -q "parallel dispatches:"
if echo "$exec_out" | grep -q "parallel dispatches: 0$"; then
  echo "error: multi-device run made no parallel dispatches" >&2
  exit 1
fi
echo "$exec_out" | grep -q "checkpoint replay consistent: true"

echo "==> easeml-trace report on the multi-device trace"
exec_report="$(cargo run --quiet -p easeml-trace -- report "$exec_trace")"
echo "$exec_report"
# The offline analyzer must see the v4 execution stream and keep the
# Theorem 1 decomposition consistent with delayed completions on the clock.
echo "$exec_report" | grep -q "multi-device execution"
echo "$exec_report" | grep -q "decomposition consistent: true"
if echo "$exec_report" | grep -Eq "peak in-flight: [01] "; then
  echo "error: trace shows no overlapping runs on a 4-device fleet" >&2
  exit 1
fi
echo "$exec_report" | grep -q "sketch-vs-exact cross-check: pass"

echo "==> decision-provenance replay-diff smoke"
replay_scenario="$(mktemp -t easeml-ci-replay-XXXXXX.json)"
replay_trace="$(mktemp -t easeml-ci-replay-XXXXXX.jsonl)"
trap 'rm -f "$smoke_trace" "$smoke_folded" "$chaos_trace" "$exec_trace" \
  "$replay_scenario" "$replay_trace"' EXIT
printf '{"kind":"greedy(max-gap)","budget":14.0}\n' > "$replay_scenario"
cargo run --quiet -p easeml-trace -- record "$replay_scenario" "$replay_trace"
# Clean pass: the live engine at one device must reproduce every
# recorded decision digest.
replay_out="$(cargo run --quiet -p easeml-trace -- replay-diff \
  "$replay_scenario" "$replay_trace")"
echo "$replay_out"
echo "$replay_out" | grep -qx "result: CLEAN"
# Seeded-mutation pass: rotating the picker's choice from step 4 on must
# make the harness exit nonzero and pinpoint round 4 as the first
# divergence — proof the digest binary search works.
if mutated_out="$(cargo run --quiet -p easeml-trace -- replay-diff \
  "$replay_scenario" "$replay_trace" --mutate-at 4)"; then
  echo "error: replay-diff did not fail on a seeded picker mutation" >&2
  exit 1
else
  echo "$mutated_out"
fi
echo "$mutated_out" | grep -q "first divergent round: 4"
echo "$mutated_out" | grep -q "result: DIVERGED"
# The aggregate explain report must fold the same witnesses back out.
cargo run --quiet -p easeml-trace -- explain "$replay_trace" \
  | grep -q "committed rounds: 49"

echo "==> hostile replay scenarios fail cleanly"
# A scenario value the simulator cannot run from is refused with exit
# status 1 and the key's name; a panic would exit 101.
for case in users:'{"users":1e300}' budget:'{"budget":0}' budget:'{"budget":1e300}'; do
  printf '%s\n' "${case#*:}" > "$replay_scenario"
  status=0
  bad_out="$(cargo run --quiet -p easeml-trace -- record "$replay_scenario" /dev/null 2>&1)" \
    || status=$?
  echo "$bad_out (exit status $status)"
  test "$status" -eq 1
  echo "$bad_out" | grep -q "${case%%:*}"
done

echo "==> crash-recovery smoke (exec engine, chaos, seeded crash point)"
crash_dir="$(mktemp -d -t easeml-ci-crash-XXXXXX)"
trap 'rm -f "$smoke_trace" "$smoke_folded" "$chaos_trace" "$exec_trace" \
  "$replay_scenario" "$replay_trace"; rm -rf "$crash_dir"' EXIT
crash_out="$(cargo run --quiet --example crash_recovery -- \
  --chaos --seed 41 --state-dir "$crash_dir/state")"
echo "$crash_out"
# The crash point must actually fire mid-stream and the recovered engine,
# driven to completion, must land on the uninterrupted run's exact digest.
echo "$crash_out" | grep -q "crash point fired at byte"
echo "$crash_out" | grep -q "recovery digest match: true"
echo "==> easeml-trace recovery-report on the surviving WAL"
wal_report="$(cargo run --quiet -p easeml-trace -- recovery-report "$crash_dir/state/wal")"
echo "$wal_report"
# The post-recovery log must re-verify its commit digest chain offline.
echo "$wal_report" | grep -q "digest chain: verified"

echo "==> telemetry scale smoke (aggregate mode, U up to 100k)"
scale_out="$(cargo run --quiet --example telemetry_scale -- --sweep --events 30000)"
echo "$scale_out"
# The aggregate-mode recorder must keep its state and the /metrics body
# flat across a 100x tenant sweep while the sketch quantiles stay within
# the configured relative error of an exact sort — the example asserts
# both and prints the pass line only when they hold.
echo "$scale_out" | grep -q "telemetry scale check: pass"

echo "==> workload replay smoke (trace CSV, open-loop, tenant churn)"
workload_trace="$(mktemp -t easeml-ci-workload-XXXXXX.jsonl)"
workload_report_file="$(mktemp -t easeml-ci-workload-XXXXXX.txt)"
trap 'rm -f "$smoke_trace" "$smoke_folded" "$chaos_trace" "$exec_trace" \
  "$replay_scenario" "$replay_trace" "$workload_trace" \
  "$workload_report_file"; rm -rf "$crash_dir"' EXIT
workload_out="$(cargo run --quiet --example trace_replay -- \
  --trace-out "$workload_trace" --report-out "$workload_report_file")"
echo "$workload_out"
# The bundled trace must map without dropping jobs, the replay must
# retire every tenant (a bounded trace implies churn), and the Theorem 1
# decomposition must stay consistent on the open-loop event stream.
echo "$workload_out" | grep -Eq "tenant churn: [1-9][0-9]* retirement"
echo "$workload_out" | grep -q "decomposition consistent: true"
echo "$workload_out" | grep -q ", 0 dropped"
# The standalone analyzer must reproduce the fold from the JSONL alone.
cargo run --quiet -p easeml-trace -- workload-report "$workload_trace" \
  | grep -q "tenant churn: 6 retirement(s)"
test -s "$workload_report_file"

# Runs one traced perfbench smoke of workload $1. The result line (the
# last line of stdout) reports "correct": true only when every pass
# reproduces the first pass's decision digest and the traced run makes the
# untraced run's decisions. That compares a run with itself, so both runs
# must also print the default seed's recorded digest $2: a change that
# moves every decision fails here.
bench_smoke() {
  local out
  out="$(python3 perfbench/run.py --workload "$1" --trace 1 --seconds 6 2>&1)"
  echo "$out"
  echo "$out" | tail -n 1 | grep -q '"correct": true'
  echo "$out" | grep -q "digest of the perfbench run: $2"
  echo "$out" | grep -q "digest of the perfbench-traced run: $2"
}

echo "==> benchmark smoke (zoo-batch, traced)"
# Builds perfbench against the crates' current API and runs the paper
# protocol workload briefly. Its "correct" check also requires the exec
# engine at one device to make the serial simulator's decisions.
bench_smoke zoo-batch 40b4d254c60652d8

echo "==> benchmark smoke (service-1k, traced)"
# 1,000 tenants behind the EaseMl facade: HYBRID crosses from greedy to
# round robin, the checkpoint codec round-trips the service, and recovery
# from checkpoint + WAL must reproduce the live state digest.
bench_smoke service-1k ac8d71c7d61495f5

echo "==> benchmark smoke (open-loop, traced)"
# ReplayDriver over the exec engine on 16 devices: the only workload that
# dispatches while runs are in flight (GP-BUCB hallucination), and it checks
# slot-time conservation and that no more jobs are served than arrived.
bench_smoke open-loop a9b4ca10fb9c21e3

# Runs one short untraced perfbench run of workload $1 at the held-out seed
# 4242, which must print that seed's recorded digest $2: the smokes above
# pin the default seed's decisions only.
seed_smoke() {
  local out
  out="$(python3 perfbench/run.py --workload "$1" --seed 4242 --trace 0 --seconds 2 2>&1)"
  echo "$out"
  echo "$out" | tail -n 1 | grep -q '"correct": true'
  echo "$out" | grep -q "digest of the perfbench run: $2"
}

echo "==> benchmark digests at the held-out seed 4242 (untraced)"
seed_smoke zoo-batch 79424303c3af5fa2
seed_smoke service-1k 11ff70338a20c489
seed_smoke open-loop 075ca31d37015d44

echo "==> benchmark files untouched"
# A perfbench build rewrites the tracked perfbench/Cargo.lock when a crate
# it builds changes its dependencies; only a change to the benchmark itself
# may touch its files.
git diff --exit-code -- perfbench BENCHMARK.json

echo "CI gate passed."
