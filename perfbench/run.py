#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is compiled from the checkout's
sources into $CARGO_TARGET_DIR (default .bench_build); each run also leaves
its result with the run's fingerprint, and a traced run its spans, under
<build dir>/results/. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 its metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/ to build")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir


def check_metrics(result, trace):
    """The printed metrics must be exactly BENCHMARK.json's, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests of the benchmark's "
                             "own arithmetic")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build("perfbench_selftest")
        sys.exit(subprocess.run([str(build_dir / "perfbench_selftest")],
                                check=False).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = build("perfbench")
    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
               "--out", str(results / f"{stem}.json")]
    if args.trace:
        command += ["--spans", str(results / f"{stem}-spans.csv")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"benchmark exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    check_metrics(result, args.trace)
    print(done.stdout, end="")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
