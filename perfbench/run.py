#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <users_sweep|cluster_tier> \
        --seed <n> --seconds <s> --trace <0|1>

The simulator is built from ../src in Release into $CARGO_TARGET_DIR
(default .bench_build) under the repository root, then the workload runs in a
fresh process. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; build output goes to standard
error. With --trace 1 the spans are written to
<build dir>/traces/<workload>-seed<n>.spans.json. Exits non-zero, without a
result line, when the build fails, and with the workload's own non-zero code
when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("users_sweep", "cluster_tier")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        fail("simulator sources (../src) not found next to the benchmark")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(bench_dir, os.path.join(out_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} exited {proc.returncode} without a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    want = expected_metrics(root, args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ want)}")
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
