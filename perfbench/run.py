#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the real DGCL code.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench as a Release build; later calls only
rebuild what changed. It then runs one workload and passes its output
through. The last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured with telemetry off; with --trace 1 the per-layer ones, from a traced
run (which also runs an untraced baseline to report the tracing overhead).
Every run checks its outputs and exits nonzero when a check fails. Each
run's record (metadata, result, loss trajectory) and, for traced runs, its
Chrome trace are written under .bench_build/records.

Workloads (inputs are generated from --seed; generation is not timed):

  train-orkut-4dev     Com-Orkut stand-in on 4 GPUs: set-up, then GCN epochs.
                       op = one training epoch.
  setup-orkut-16dev    the same graph on 16 GPUs over two machines: repeated
                       Init + BuildCommInfo. op = one set-up.
  serve-reddit-4shard  GraphService, 4 shards x 1 sampler, closed loop.
                       op = one request.

--selftest checks that the output checks catch corrupted outputs and that
the metric table of the binary matches BENCHMARK.json name for name, unit
for unit. perfbench/README.md says which end-to-end metric each per-layer
metric should move.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RECORDS = os.path.join(ROOT, ".bench_build", "records")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits 2 on failure."""
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def git_version():
    """'<sha>' or '<sha>-dirty' of the checkout; 'none' outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return "none"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                               env=env, capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def binary_metrics():
    out = subprocess.run([os.path.join(BUILD, "perfbench_e2e"), "--list-metrics"],
                         capture_output=True, text=True, check=True).stdout
    table = {"end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        kind, name, unit = line.split()
        table[kind][name] = unit
    return table


def selftest():
    build()
    ok = subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode == 0
    table = binary_metrics()
    for kind in ("end_to_end", "per_layer"):
        declared = declared_metrics(kind)
        if table[kind] != declared:
            ok = False
            for name in sorted(set(table[kind]) | set(declared)):
                if table[kind].get(name) != declared.get(name):
                    print(f"FAIL: {kind} metric {name}: binary unit {table[kind].get(name)}, "
                          f"BENCHMARK.json unit {declared.get(name)}")
        else:
            print(f"ok  : all {len(declared)} {kind} metrics the binary prints are declared "
                  "in BENCHMARK.json with the same unit")
    print("selftest: " + ("all passed" if ok else "FAILED"))
    return 0 if ok else 1


def run(args):
    build()
    os.makedirs(RECORDS, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git", git_version(), "--out-dir", RECORDS]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        # A failed check still prints its result (correct: false).
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} exited with {proc.returncode}")
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    kind = "per_layer" if args.trace else "end_to_end"
    if set(json.loads(lines[-1])["metrics"]) != set(declared_metrics(kind)):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"metrics printed do not match the {kind} metrics of BENCHMARK.json")
        return 3
    sys.stdout.write(proc.stdout)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
