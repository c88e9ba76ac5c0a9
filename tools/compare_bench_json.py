#!/usr/bin/env python3
"""Compares two directories of bench JSON result lines.

    python3 tools/compare_bench_json.py DIR_A DIR_B
    python3 tools/compare_bench_json.py --self-test

Each directory holds the `<bench>.json` files the benches write when
BENCH_JSON_DIR is set (see bench/bench_common.hpp), typically one
`--smoke` run of every bench. The `bench_golden` ctest compares the
committed bench/golden/ with the fresh `ctest -L bench_smoke` output in
build/bench-json/; two builds compare the same way:

    python3 tools/compare_bench_json.py build-a/bench-json build-b/bench-json

Every value is virtual-time and deterministic, so the two directories must
match exactly: the same files, the same keys, the same printed values. The
one exception is bench_simperf's wall-clock keys (events/s, packets/s,
wall-ms per virtual second, shard speed-ups and peak RSS), which are
skipped. Exit status: 0 when identical, 1 on any difference, 2 on a usage
error.
"""

import fnmatch
import json
import sys
import tempfile
from pathlib import Path

# bench_simperf measures the simulator itself; these keys are wall clock.
WALL_CLOCK_KEYS = {
    "bench_simperf.json": (
        "events_per_sec",
        "packets_per_sec",
        "wall_ms_per_virtual_sec",
        "*_events_per_sec",
        "*_speedup_max_vs_1",
        "peak_rss_mib",
    ),
}


def ignored(file_name, key):
    return any(fnmatch.fnmatchcase(key, pattern)
               for pattern in WALL_CLOCK_KEYS.get(file_name, ()))


def load(path):
    """The result object in `path`, or an error string."""
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        return None, "%s: unreadable: %s" % (path, error)
    if not isinstance(value, dict):
        return None, "%s: not a JSON object" % path
    return value, None


def compare(dir_a, dir_b):
    """Every difference between the two directories, one line each."""
    names_a = {p.name for p in dir_a.glob("*.json")}
    names_b = {p.name for p in dir_b.glob("*.json")}
    problems = ["%s: only in %s" % (name, dir_a)
                for name in sorted(names_a - names_b)]
    problems += ["%s: only in %s" % (name, dir_b)
                 for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        a, error_a = load(dir_a / name)
        b, error_b = load(dir_b / name)
        if error_a or error_b:
            problems += [e for e in (error_a, error_b) if e]
            continue
        for key in sorted(set(a) | set(b)):
            if ignored(name, key):
                continue
            if key not in b:
                problems.append("%s: %s only in %s" % (name, key, dir_a))
            elif key not in a:
                problems.append("%s: %s only in %s" % (name, key, dir_b))
            elif a[key] != b[key]:
                problems.append("%s: %s: %r != %r" % (name, key, a[key],
                                                      b[key]))
    return problems


def self_test():
    simperf = {"bench": "bench_simperf", "smoke": True,
               "events_per_sec": 1.3e6, "packets_per_sec": 2.3e5,
               "wall_ms_per_virtual_sec": 19680.9,
               "rpc_shard2_events_per_sec": 2.1e6,
               "rpc_shard_speedup_max_vs_1": 2.4, "peak_rss_mib": 10.0,
               "virtual_mrpc_per_sec": 1.14473, "allocs_per_rpc": 36.1297,
               "rpc_shard2_virtual_end_ns": 2.76424e7}
    fig6 = {"bench": "bench_fig6", "smoke": True, "rtt_us": 21.5,
            "events_per_sec": 5.0}

    def edit(base, **changes):
        out = dict(base)
        for key, value in changes.items():
            if value is None:
                out.pop(key)
            else:
                out[key] = value
        return out

    # (case, files in B as {name: object or raw text}, differences expected)
    cases = [
        ("identical", {}, 0),
        ("simperf wall clock moves",
         {"bench_simperf.json": edit(simperf, events_per_sec=9.9e5,
                                     packets_per_sec=1.0,
                                     wall_ms_per_virtual_sec=1.0,
                                     rpc_shard2_events_per_sec=1.0,
                                     rpc_shard_speedup_max_vs_1=1.0,
                                     peak_rss_mib=99.0)}, 0),
        ("simperf virtual value moves",
         {"bench_simperf.json": edit(simperf, allocs_per_rpc=36.13)}, 1),
        ("simperf shard end time moves",
         {"bench_simperf.json": edit(simperf,
                                     rpc_shard2_virtual_end_ns=2.76425e7)},
         1),
        ("wall-clock key names only skipped in bench_simperf",
         {"bench_fig6.json": edit(fig6, events_per_sec=6.0)}, 1),
        ("key missing", {"bench_fig6.json": edit(fig6, rtt_us=None)}, 1),
        ("key added", {"bench_fig6.json": edit(fig6, p99_us=30.0)}, 1),
        ("ignored key missing",
         {"bench_simperf.json": edit(simperf, peak_rss_mib=None)}, 0),
        ("file missing", {"bench_fig6.json": None}, 1),
        ("file added", {"bench_fig7.json": fig6}, 1),
        ("malformed file", {"bench_fig6.json": "{\"bench\":"}, 1),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index, (case, changes, want) in enumerate(cases):
            dir_a = Path(tmp) / ("a%d" % index)
            dir_b = Path(tmp) / ("b%d" % index)
            dir_a.mkdir()
            dir_b.mkdir()
            files_b = {"bench_simperf.json": simperf, "bench_fig6.json": fig6}
            for name, value in files_b.items():
                (dir_a / name).write_text(json.dumps(value) + "\n")
            files_b.update(changes)
            for name, value in files_b.items():
                if value is None:
                    continue
                text = value if isinstance(value, str) else json.dumps(value)
                (dir_b / name).write_text(text + "\n")
            got = len(compare(dir_a, dir_b))
            if got != want:
                failures += 1
                print("self-test FAIL: %s: %d difference(s), expected %d"
                      % (case, got, want))
    if not failures:
        print("self-test OK: %d cases" % len(cases))
    return failures


def main(argv):
    if argv == ["--self-test"]:
        return 1 if self_test() else 0
    if len(argv) != 2 or any(a.startswith("-") for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(a) for a in argv)
    for directory in (dir_a, dir_b):
        if not directory.is_dir():
            print("compare_bench_json: not a directory: %s" % directory,
                  file=sys.stderr)
            return 2
    count = len({p.name for p in dir_a.glob("*.json")} |
                {p.name for p in dir_b.glob("*.json")})
    if count == 0:
        print("compare_bench_json: no *.json files in either directory",
              file=sys.stderr)
        return 2
    problems = compare(dir_a, dir_b)
    for problem in problems:
        print(problem)
    if problems:
        print("%d difference(s) across %d file(s)." % (len(problems), count))
        return 1
    print("identical: %d file(s)." % count)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
