#!/usr/bin/env python3
"""Builds and runs the repository benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload zoo-batch|service-1k|open-loop \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark is the Cargo package in
this directory (its own workspace, depending on the crates by path); it is
built into $CARGO_TARGET_DIR, `.bench_build` when unset.

--trace 0 runs the untraced binary for S seconds and reports the
end-to-end metrics listed in BENCHMARK.json. --trace 1 runs the untraced
binary and then the traced one for S/2 seconds each, checks that both made
the same decisions, and reports the per-layer metrics; the traced run's
loss of decisions per second against the untraced one is
`obs.trace_overhead_pct`.

Progress goes to standard error. The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 whenever that line is printed, and not 0 when the
benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every run, its build excepted, must end within 180 s.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def log(line):
    print(f"perfbench: {line}", file=sys.stderr, flush=True)


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet", "--bins",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release")


def filesystem_of(path):
    """The type of the filesystem `path` lives on, from the mount table."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1].replace("\\040", " ")
                inside = path == point or path.startswith(point.rstrip("/") + "/")
                if len(fields) > 2 and inside and len(point) >= len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def run_child(binary, args, deadline):
    """Runs one benchmark process and returns its parsed result line."""
    cmd = [binary] + args
    log("running " + " ".join(os.path.relpath(c) if c.startswith("/") else c for c in cmd))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{os.path.basename(binary)} ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{os.path.basename(binary)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def select(spec, wanted, result, fill_missing):
    """Picks the metrics named in `wanted` from a child's result, checking
    names and units against BENCHMARK.json."""
    known = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in result["metrics"]:
        if name not in known:
            raise BenchError(f"metric {name} is not in BENCHMARK.json")
    picked = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not result["correct"]:
                continue
            if not fill_missing:
                raise BenchError(f"{result['workload']} did not report {name}")
            # A layer that does not run in this workload does no work.
            log(f"{name}: layer not run on {result['workload']}, reported as 0")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            raise BenchError(f"{name} measured in {got['unit']}, BENCHMARK.json says {unit}")
        picked[name] = got
    return picked


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description="Runs one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, help="workload seed (default 20180801)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    start = time.monotonic()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bin_dir = build(target_dir)
    deadline = time.monotonic() + RUN_LIMIT_S
    state_dir = os.path.join(target_dir, "perfbench-state", f"{args.workload}-{os.getpid()}")
    log(f"write-ahead logs and checkpoints in {state_dir} "
        f"({filesystem_of(os.path.dirname(state_dir))} filesystem)")

    def child(name, seconds):
        child_args = ["--workload", args.workload, "--seconds", str(seconds),
                      "--state-dir", state_dir]
        if args.seed is not None:
            child_args += ["--seed", str(args.seed)]
        try:
            result = run_child(os.path.join(bin_dir, name), child_args, deadline)
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        log(f"digest of the {name} run: {result['digest']}")
        return result

    if args.trace == 0:
        result = child("perfbench", args.seconds)
        metrics = select(spec, spec["end_to_end"], result, fill_missing=False)
        correct, attempted, failed = result["correct"], result["attempted"], result["failed"]
    else:
        plain = child("perfbench", args.seconds / 2)
        traced = child("perfbench-traced", args.seconds / 2)
        rate = plain["metrics"].get("decisions_per_s", {}).get("value")
        traced_rate = traced["metrics"].get("decisions_per_s", {}).get("value")
        if rate and traced_rate:
            traced["metrics"]["obs.trace_overhead_pct"] = {
                "value": 100.0 * (rate - traced_rate) / rate, "unit": "%"}
        metrics = select(spec, spec["per_layer"], traced, fill_missing=True)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        # The instruments must not change a single decision.
        same = plain["digest"] == traced["digest"] and all(
            plain["metrics"].get(n) == traced["metrics"].get(n)
            for n in plain["metrics"] if n.startswith("sim."))
        attempted += 1
        if not same:
            failed += 1
            log("CHECK FAILED: the traced run's decisions differ from the untraced run's")
        correct = plain["correct"] and traced["correct"] and same
    for name, m in metrics.items():
        log(f"{name:30} {m['value']:>16.6g} {m['unit']}")
    log(f"{args.workload}: correct={correct} attempted={attempted} failed={failed} "
        f"in {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
