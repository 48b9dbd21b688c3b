#!/usr/bin/env python3
"""Runs the byzrename benchmark; see perfbench/README.md.

From the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library from src/
plus the byzbench binary) in Release mode into .bench_build/, or into
$CARGO_TARGET_DIR when that is set. Build output goes to stderr; stdout
carries the output of byzbench, whose last line is the result object.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    return out


def byzbench(out, args, capture=False):
    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)
    command = [os.path.join(out, "byzbench"), *args, "--spans-dir", spans]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: byzbench exceeded %d s" % RUN_TIMEOUT_S)


def selftest():
    """Unit tests of the statistics, then a smoke run of every workload:
    every metric BENCHMARK.json names is emitted with its unit, and a
    corrupted expected output makes the run fail."""
    out = build(["byzbench", "byzbench_selftest"])
    if subprocess.run([os.path.join(out, "byzbench_selftest")]).returncode != 0:
        return 1
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace]
            run = byzbench(out, args, capture=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if run.returncode != 0 or not result["correct"]:
                problems.append("%s trace %s: run failed" % (workload, trace))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s trace %s: result keys %s" % (workload, trace, sorted(result)))
            if got != want:
                problems.append("%s trace %s: metrics %s, expected %s"
                                % (workload, trace, got, want))
        run = byzbench(out, ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", "0", "--corrupt"], capture=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if run.returncode == 0 or result["correct"]:
            problems.append("%s: a corrupted output did not fail the run" % workload)
        print("smoke %s: done" % workload, flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    out = build(["byzbench"])
    run = byzbench(out, ["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", repr(args.seconds), "--trace", args.trace])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
