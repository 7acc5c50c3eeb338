#!/usr/bin/env python3
"""Builds and runs the URSA benchmark.

    python3 ursabench/run.py --workload tight_small --seed 1 --seconds 30 --trace 0
    python3 ursabench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. The first call configures and builds the
repository's libraries plus the benchmark driver (Release, assertions on)
under $CARGO_TARGET_DIR/ursabench, or .bench_build/ursabench when that
variable is unset; later calls rebuild incrementally. Each workload runs
in its own process, so its set-up time and peak memory are its own.

With one workload, the driver's output is passed through and its last line
is the result JSON. With --workload all, every workload runs untraced and
then traced, and a summary of all metrics follows. See ursabench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tight_small", "large_fit", "service_mix")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "ursabench")


def build(bdir):
    """Configures (once) and builds; returns the driver's path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "ursa_perfbench"]
    if subprocess.run(cmd, stdout=log, stderr=log,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    exe = os.path.join(bdir, "ursa_perfbench")
    return exe if os.path.exists(exe) else None


def run_one(exe, bdir, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns its result object or None."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.relpath(bdir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines:
            print(line)
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_all(exe, bdir, seed, seconds):
    """Every workload untraced, then traced; prints one summary table."""
    results = {}
    for wl in WORKLOADS:
        for trace in (0, 1):
            print(f"== {wl} trace={trace}", flush=True)
            res = run_one(exe, bdir, wl, seed, seconds, trace)
            if res is None:
                return 1
            results[(wl, trace)] = res
    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced run)")):
        print(f"\n{title} metrics")
        names = list(results[(WORKLOADS[0], trace)]["metrics"])
        print(f"  {'metric':34s} {'unit':6s}" +
              "".join(f" {wl:>14s}" for wl in WORKLOADS))
        for name in names:
            unit = results[(WORKLOADS[0], trace)]["metrics"][name]["unit"]
            row = "".join(
                f" {results[(wl, trace)]['metrics'][name]['value']:14.6g}"
                for wl in WORKLOADS)
            print(f"  {name:34s} {unit:6s}{row}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{name}": m
                    for (wl, trace), r in results.items() if trace == 0
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("ursabench: build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(exe, bdir, args.seed, args.seconds)
    res = run_one(exe, bdir, args.workload, args.seed, args.seconds,
                  args.trace)
    return 0 if res is not None else 1


if __name__ == "__main__":
    sys.exit(main())
