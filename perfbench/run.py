#!/usr/bin/env python3
"""Builds the Tableau libraries and tableau_perfbench, then runs one workload.

    python3 perfbench/run.py --workload plan_churn|host_dense|fleet_elastic \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), is incremental, and its output goes to
stderr. The stdout of tableau_perfbench is passed through; its last line is
the result object {"correct", "attempted", "failed", "metrics"}. A traced run
also writes its spans to <build dir>/trace_<workload>.json. The exit code is
nonzero when the build fails, a correctness check fails, or the printed
metrics do not match the names and units BENCHMARK.json declares.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_churn", "host_dense", "fleet_elastic")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "tableau_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", build_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None or run.returncode not in (0, 1):
        sys.stderr.write(run.stdout)
        print(f"perfbench: tableau_perfbench exited {run.returncode} without a result",
              file=sys.stderr)
        return 1
    declared = declared_metrics(args.trace == 1)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        sys.stderr.write(run.stdout)
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(declared) - set(printed))}, "
              f"extra {sorted(set(printed) - set(declared))}, units "
              f"{sorted(n for n in printed if n in declared and printed[n] != declared[n])}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
