#!/usr/bin/env python3
"""Runs two bench_suite builds in alternating, pinned pairs and compares them.

    python3 tools/ab_pairs.py BIN_A BIN_B --workload W --pairs N --seconds S \\
        [--cpus LIST]
    python3 tools/ab_pairs.py --self-test

BIN_A is the parent build and BIN_B the change; each is a bench_suite
binary (or any command line, split like a shell word list, that takes
bench_suite's `--workload`, `--seed`, `--seconds` and `--out` flags and
writes the same JSON). Pair i (from 1) runs both on seed i, A first on odd
pairs and B first on even ones, so a slow phase of a shared host lands on
both sides equally. Every run is pinned to the CPUs in LIST ("2", "2,3",
"0-3"; default: the highest CPU this process may use).

For rpc_per_wall_s the report lists each pair's values, both medians, the
change's median gain, how many pairs the change won, and the parent's
quartiles: a gain counts when the change wins nearly every pair and its
median clears the parent's interquartile distance. Every other end-to-end
metric that BENCHMARK.json names gets both medians and whether the two
sides reported the same value in every pair (the sim_* metrics must).

Exit status: 0 after a report, 1 when a run fails or writes no result,
2 on a usage error. The script edits nothing; it only runs the binaries.
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIMED = "rpc_per_wall_s"


def parse_cpus(text):
    cpus = set()
    for part in text.split(","):
        low, _, high = part.partition("-")
        cpus.update(range(int(low), int(high or low) + 1))
    return cpus


def end_to_end_metrics():
    """(name, better) for BENCHMARK.json's end_to_end metrics."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [(m["name"], m["better"]) for m in spec["end_to_end"]]
    except (OSError, ValueError, KeyError):
        return [(CLAIMED, "higher")]


def run_one(command, workload, seed, seconds, cpus, out):
    out.unlink(missing_ok=True)
    argv = shlex.split(command) + ["--workload", workload, "--seed",
                                   str(seed), "--seconds", str(seconds),
                                   "--out", str(out)]
    code = subprocess.run(argv, stdout=subprocess.DEVNULL, check=False,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus)
                          ).returncode
    if code != 0 or not out.is_file():
        raise RuntimeError("%s exited with %d on seed %d" % (command, code,
                                                             seed))
    return json.loads(out.read_text())[workload]


def run_pairs(bin_a, bin_b, workload, pairs, seconds, cpus):
    """[(seed, first, row_a, row_b)], one per pair."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        for seed in range(1, pairs + 1):
            first = "A" if seed % 2 else "B"
            rows = {}
            for side in (("A", "B") if first == "A" else ("B", "A")):
                command = bin_a if side == "A" else bin_b
                rows[side] = run_one(command, workload, seed, seconds, cpus,
                                     out)
            results.append((seed, first, rows["A"], rows["B"]))
    return results


def summarize(results, metrics):
    """The claimed metric's pair table and verdict inputs, plus medians of
    every other metric both sides reported."""
    better = dict(metrics).get(CLAIMED, "higher")
    a = [row_a[CLAIMED] for _, _, row_a, _ in results]
    b = [row_b[CLAIMED] for _, _, _, row_b in results]
    won = sum((y > x) if better == "higher" else (y < x)
              for x, y in zip(a, b))
    median_a, median_b = statistics.median(a), statistics.median(b)
    quartiles = (statistics.quantiles(a, n=4, method="inclusive")
                 if len(a) > 1 else [a[0]] * 3)
    others = []
    for name, _ in metrics:
        if name == CLAIMED:
            continue
        pairs = [(row_a[name], row_b[name]) for _, _, row_a, row_b in results
                 if name in row_a and name in row_b]
        if not pairs:
            continue
        others.append({"name": name,
                       "median_a": statistics.median(x for x, _ in pairs),
                       "median_b": statistics.median(y for _, y in pairs),
                       "equal": all(x == y for x, y in pairs)})
    return {"a": a, "b": b, "won": won, "median_a": median_a,
            "median_b": median_b, "gain": median_b / median_a - 1.0,
            "q1_a": quartiles[0], "q3_a": quartiles[2], "others": others}


def report(results, summary, header):
    print(header)
    print("%4s %5s %5s %16s %16s %8s" % ("pair", "seed", "first",
                                        "A " + CLAIMED, "B " + CLAIMED,
                                        "gain"))
    for (seed, first, _, _), x, y in zip(results, summary["a"],
                                         summary["b"]):
        print("%4d %5d %5s %16.1f %16.1f %+7.1f%%" % (seed, seed, first, x, y,
                                                     100.0 * (y / x - 1.0)))
    iqr = summary["q3_a"] - summary["q1_a"]
    print("%s: median A %.1f, B %.1f, gain %+.1f%%; B won %d/%d pairs; "
          "A quartiles [%.1f, %.1f], median difference %.1f vs IQR %.1f"
          % (CLAIMED, summary["median_a"], summary["median_b"],
             100.0 * summary["gain"], summary["won"], len(results),
             summary["q1_a"], summary["q3_a"],
             summary["median_b"] - summary["median_a"], iqr))
    print("%-16s %16s %16s  %s" % ("metric", "median A", "median B",
                                  "same in every pair"))
    for other in summary["others"]:
        print("%-16s %16.9g %16.9g  %s" % (other["name"], other["median_a"],
                                          other["median_b"],
                                          "yes" if other["equal"] else "no"))


STUB = """
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
rate = %(base)r + seed %(dip)s
with open(%(log)r, "a") as log:
    log.write("%%s %%d\\n" %% (%(name)r, seed))
row = {"rpc_per_wall_s": rate, "setup_s": 0.01 * seed,
       "sim_mrpc_per_s": 1.5, "attempted": 10, "failed": 0,
       "cpus": sorted(os.sched_getaffinity(0))}
with open(args["--out"], "w") as out:
    json.dump({args["--workload"]: row}, out)
"""


def self_test():
    failures = []
    cpus = {max(os.sched_getaffinity(0))}
    with tempfile.TemporaryDirectory() as tmp:
        log = str(Path(tmp) / "log")
        commands = {}
        for name, base, dip in (("A", 100.0, ""),
                                ("B", 125.0, "- (40 if seed == 3 else 0)")):
            stub = Path(tmp) / ("stub_%s.py" % name)
            stub.write_text(STUB % {"base": base, "dip": dip, "log": log,
                                    "name": name})
            commands[name] = "%s %s" % (shlex.quote(sys.executable),
                                        shlex.quote(str(stub)))
        results = run_pairs(commands["A"], commands["B"], "stub", 4, 1, cpus)
        summary = summarize(results, [(CLAIMED, "higher"),
                                      ("setup_s", "lower"),
                                      ("sim_mrpc_per_s", "higher"),
                                      ("heap_peak_mib", "lower")])
        order = Path(log).read_text().split("\n")[:-1]
        try:
            run_pairs(commands["A"], "%s -c 'raise SystemExit(3)'"
                      % shlex.quote(sys.executable), "stub", 1, 1, cpus)
            failures.append("a failing run was not reported")
        except RuntimeError:
            pass

    def check(what, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (what, got, want))

    check("run order and seeds", order,
          ["A 1", "B 1", "B 2", "A 2", "A 3", "B 3", "B 4", "A 4"])
    check("pinning", results[0][2]["cpus"], sorted(cpus))
    check("parent values", summary["a"], [101.0, 102.0, 103.0, 104.0])
    check("change values", summary["b"], [126.0, 127.0, 88.0, 129.0])
    check("pairs won", summary["won"], 3)
    check("gain", round(summary["gain"], 6),
          round(126.5 / 102.5 - 1.0, 6))
    check("parent quartiles", (summary["q1_a"], summary["q3_a"]),
          (101.75, 103.25))
    check("other metrics", [(o["name"], o["median_a"], o["median_b"],
                             o["equal"]) for o in summary["others"]],
          [("setup_s", 0.025, 0.025, True),
           ("sim_mrpc_per_s", 1.5, 1.5, True)])
    for failure in failures:
        print("self-test FAIL: " + failure)
    if not failures:
        print("self-test OK")
    return len(failures)


def main(argv):
    if argv == ["--self-test"]:
        return 1 if self_test() else 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bin_a", metavar="BIN_A")
    parser.add_argument("bin_b", metavar="BIN_B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--cpus", type=parse_cpus,
                        default={max(os.sched_getaffinity(0))})
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        results = run_pairs(args.bin_a, args.bin_b, args.workload,
                            args.pairs, args.seconds, args.cpus)
    except (OSError, RuntimeError, ValueError, KeyError) as error:
        print("ab_pairs: %s" % error, file=sys.stderr)
        return 1
    report(results, summarize(results, end_to_end_metrics()),
           "%s: %d pairs x %d s on CPUs %s; A = %s, B = %s"
           % (args.workload, args.pairs, args.seconds,
              ",".join(map(str, sorted(args.cpus))), args.bin_a, args.bin_b))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
