#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
obiswap library and the perfbench binary with CMake under the directory
named by $CARGO_TARGET_DIR (default .bench_build); later runs only re-check
the build. The binary runs the workload, checks its outputs, and prints every
metric it measured; this script prints them as a table, then, as the last
line of stdout, one JSON object holding the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).

A failed build or correctness check exits non-zero without a result line.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(step)}")
                return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args, timeout):
    """Runs perfbench; returns its parsed JSON line or None on failure."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    if args.payload_cache_kib:
        cmd += ["--payload-cache-kib", str(args.payload_cache_kib)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {timeout:.0f} s")
        return None
    # The library logs expected warnings (e.g. replicas on killed stores);
    # pass on everything else and a count of those.
    warnings = 0
    for line in done.stderr.splitlines():
        if line.startswith("[W "):
            warnings += 1
        else:
            print(line, file=sys.stderr)
    if warnings:
        log(f"{warnings} library warning lines suppressed")
    if done.returncode != 0:
        log(f"{args.workload} failed (exit {done.returncode})")
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("perfbench printed no result")
        return None
    return json.loads(lines[-1])


def select_metrics(result, declared, spec, workload):
    """The declared metrics, checked against the binary's output.

    A metric the spec says is measured on this workload must be present with
    the declared unit; one that is idle here (its layer does no work in this
    workload) reports 0.
    """
    selected = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        measured_on = spec["metrics"][name]["measured_on"]
        if got is None:
            if workload in measured_on:
                log(f"{name} missing on {workload}")
                return None
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            log(f"{name} printed in {got['unit']}, declared in {unit}")
            return None
        selected[name] = {"value": got["value"], "unit": unit}
    return selected


def print_table(result, spec, workload, declared_names):
    print(f"workload {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    print(f"digest {result['digest']}  input_digest {result['input_digest']}")
    for name, metric in sorted(result["metrics"].items()):
        info = spec["metrics"].get(name, {})
        tag = "" if name in declared_names else f"  ({info.get('in', '?')})"
        print(f"  {name:<46} {metric['value']:>16.6g} {metric['unit']:<6} "
              f"{info.get('clock', '?'):<7}{tag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="",
                        help="where the traced run writes its spans (Chrome "
                             "JSON); default <build dir>/trace-<workload>.json")
    parser.add_argument("--payload-cache-kib", type=int, default=0,
                        help="device_swap: payload cache budget override")
    parser.add_argument("--all-metrics", action="store_true",
                        help="put every measured metric and the digests in "
                             "the result line (the benchmark's own tests)")
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no obiswap sources under {ROOT}/src")
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2

    binary = build()
    if binary is None:
        return 1
    if args.trace and not args.trace_out:
        args.trace_out = os.path.join(build_dir(), f"trace-{args.workload}.json")
    timeout = max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    result = run_binary(binary, args, timeout)
    if result is None or result.get("correct") is not True:
        return 1

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    declared_names = {m["name"] for m in declared}
    metrics = select_metrics(result, declared, spec, args.workload)
    if metrics is None:
        return 1
    print_table(result, spec, args.workload, declared_names)
    line = {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    if args.all_metrics:
        line["metrics"] = result["metrics"]
        line["digest"] = result["digest"]
        line["input_digest"] = result["input_digest"]
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
