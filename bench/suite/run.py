#!/usr/bin/env python3
"""Runs one bench_suite workload and prints its result as one JSON line.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds bench_suite from the
checkout's sources (CMake, Release) under $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs the workload's timed rounds for S seconds and
prints bench_suite's report followed, as the last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics named in BENCHMARK.json (--trace 0), or its
per_layer metrics (--trace 1, which also writes a Chrome trace-event file
next to the build). It exits non-zero, printing no result line, when the
build fails or a metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "apps" / "rpc.hpp").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    configure = ["cmake", "-S", str(SUITE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    # Build output goes to stderr: stdout ends with the result line.
    for command in (configure,
                    ["cmake", "--build", str(build_dir), "-j", "4"]):
        try:
            subprocess.run(command, cwd=ROOT, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as error:
            fail(f"build failed: {error}")
    return build_dir / "bench_suite"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "bench_suite"
    binary = build(build_dir)

    out = build_dir / f"result-{args.workload}.json"
    out.unlink(missing_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", str(out)]
    if args.trace:
        command += ["--trace", str(build_dir / f"trace-{args.workload}.json")]
    try:
        # Report on stdout, failed checks on stderr; a return code of 1
        # means the run finished but a check failed.
        code = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except (OSError, subprocess.SubprocessError) as error:
        fail(f"bench_suite did not finish: {error}")
    if code not in (0, 1) or not out.is_file():
        fail(f"bench_suite exited with {code} and no results")

    results = json.loads(out.read_text())
    row = results[args.workload]
    source = results.get("layers", {}).get(args.workload, {}) \
        if args.trace else row
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = source.get(metric["name"])
        if value is None:
            fail(f"bench_suite reported no {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    failed = int(row["failed"])
    print(json.dumps({"correct": code == 0 and failed == 0,
                      "attempted": int(row["attempted"]),
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
