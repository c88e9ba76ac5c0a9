#!/usr/bin/env python3
"""Compares bench_suite result files against the bounds in BENCHMARK.json.

    python3 bench/suite/compare.py BASE.json NEW.json [NEW.json ...]

Each file is a bench_suite --out file: {workload: {metric: value}, ...,
"layers": {workload: {metric: value}}}. For every (workload, metric) it
prints the value in each file and the median and quartiles across all
files. BASE.json is the baseline; the candidate is the median of the other
files. It exits 1 when a candidate end-to-end metric is worse than the
baseline by more than the metric's bound, or when any file records a
failed RPC, and 0 otherwise. Per-layer metrics have no bound and are
printed only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_by(base, candidate, better):
    """Share by which candidate is worse than base (negative: better)."""
    if base == 0:
        return 0.0 if candidate == base else float("inf")
    change = (candidate - base) / abs(base)
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--benchmark", type=Path, default=DEFAULT_SPEC,
                        help="BENCHMARK.json with the bounds")
    args = parser.parse_args()
    if len(args.files) < 2:
        parser.error("need a baseline and at least one other result file")

    spec = json.loads(args.benchmark.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results = [json.loads(path.read_text()) for path in args.files]
    workloads = [w for w in results[0] if w != "layers"]

    regressions = []
    header = (f"{'workload':12} {'metric':42} "
              + " ".join(f"{'file' + str(i):>12}" for i in range(len(results)))
              + f" {'median':>12} {'q1':>12} {'q3':>12}"
              + f" {'worse':>8} {'bound':>6}")
    print(header)
    for workload in workloads:
        for metric in results[0][workload]:
            values = [r.get(workload, {}).get(metric) for r in results]
            if all(v is None for v in values):
                # Refused everywhere (e.g. a p99 with too few samples).
                print(f"{workload:12} {metric:42} n/a")
                continue
            if any(v is None for v in values):
                regressions.append(f"{workload} {metric}: missing in a file")
                continue
            q1, median, q3 = spread(values)
            line = (f"{workload:12} {metric:42} "
                    + " ".join(f"{v:12.6g}" for v in values)
                    + f" {median:12.6g} {q1:12.6g} {q3:12.6g}")
            if metric == "failed" and any(v != 0 for v in values):
                regressions.append(f"{workload}: failed RPCs {values}")
            if metric in bounds:
                bound = bounds[metric]
                candidate = statistics.median(values[1:])
                worse = worse_by(values[0], candidate, bound["better"])
                line += f" {worse:8.2%} {bound['bound']:6.1%}"
                if worse > bound["bound"]:
                    line += "  WORSE"
                    regressions.append(
                        f"{workload} {metric}: {candidate:.6g} vs "
                        f"{values[0]:.6g} is {worse:.2%} worse "
                        f"(bound {bound['bound']:.1%})")
            print(line)
        layers = [r.get("layers", {}).get(workload, {}) for r in results]
        for metric in layers[0]:
            values = [layer.get(metric) for layer in layers]
            if any(v is None for v in values):
                continue
            q1, median, q3 = spread(values)
            print(f"{workload:12} {metric:42} "
                  + " ".join(f"{v:12.6g}" for v in values)
                  + f" {median:12.6g} {q1:12.6g} {q3:12.6g}")

    for regression in regressions:
        print(f"REGRESSION: {regression}", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
