#!/usr/bin/env python3
"""Determinism linter: bans wall-clock, ambient entropy, and
iteration-order leaks from sim-visible code.

The repo's value proposition is that every simulated result is a function
of the scenario and its seeds alone (docs/determinism.md). That contract
is easy to break silently: one `steady_clock::now()` in a cost path, one
range-for over an `std::unordered_map` whose order reaches a counter, one
pointer-keyed `std::map` feeding a scheduling decision, and results stop
replaying byte-identically. This linter makes those constructs a build
failure instead of a review hazard.

Rules (each finding names its rule id):

  wall-clock            std::chrono::{steady,system,high_resolution}_clock,
                        time(), clock_gettime, gettimeofday — host time is
                        not virtual time.
  ambient-entropy       std::rand/srand/rand_r/drand48, std::random_device —
                        all randomness must come from seeded DRBG/PRNGs
                        (crypto/drbg.hpp, common/rng.hpp).
  hardware-concurrency  std::thread::hardware_concurrency,
                        sched_getaffinity, CPU_COUNT — results must
                        depend on the shard COUNT, never the machine.
  unordered-iteration   range-for over a variable declared as
                        std::unordered_{map,set} in the same file or its
                        sibling header/source — hash-table iteration order
                        is implementation- and address-dependent.
  pointer-keyed-ordered std::map/std::set keyed by a pointer type — ordered
                        iteration over addresses is ASLR-dependent.
  bad-pragma            an allow pragma with no reason text.
  unused-pragma         an allow pragma that suppresses nothing (stale
                        hatches must be removed, not accumulated).

Escape hatch — a justified, line-scoped suppression on the flagged line
or the line directly above it:

    // determinism-lint: allow(<rule>) <reason>

Allowlist — the engine/bench boundary where machine facts are legitimate
by design (the shard worker-pool cap, bench wall measurement) is
allowlisted below so it needs no pragma clutter; everything else in src/
must be clean or carry a pragma.

Dependency-free (stdlib only), like tools/check_markdown_links. Scans the
paths given on the command line (default: src). `--self-test` runs the
scanner over tools/lint/fixtures/ and checks every finding against the
`// expect-lint: <rule>` markers embedded in the fixtures.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
DEFAULT_ROOTS = ["src"]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
EXTENSIONS = {".cpp", ".hpp", ".cc", ".h"}

# (path-prefix, rule) -> reason. Matched against the repo-relative path.
ALLOWLIST = {
    ("src/netsim/shard.cpp", "hardware-concurrency"):
        "worker-pool cap — bounds wall parallelism only; the schedule "
        "depends on the shard count alone (see shard.hpp header comment)",
    ("bench/", "wall-clock"):
        "benches measure wall time by design (clearly labelled "
        "machine-relative in their output)",
    ("tests/", "wall-clock"):
        "tests may measure wall behaviour (never simulated results)",
}

SIMPLE_RULES = [
    ("wall-clock",
     re.compile(r"std::chrono::(?:steady|system|high_resolution)_clock"),
     "wall clock in sim-visible code — use virtual time (SimTime / the "
     "event loop) or inject the clock from the bench boundary"),
    ("wall-clock",
     re.compile(r"(?<![\w:])(?:clock_gettime|gettimeofday|ftime)\s*\("),
     "host time syscall in sim-visible code"),
    ("wall-clock",
     re.compile(r"(?<![\w.:>])(?:std::)?time\s*\(\s*(?:nullptr|NULL|0|&)"),
     "time() in sim-visible code — scenario timestamps must come from "
     "config, not the host"),
    ("ambient-entropy",
     re.compile(r"(?<![\w:])(?:std::)?(?:srand|rand_r|drand48)\s*\("),
     "ambient PRNG seeding/state — use a scenario-seeded generator "
     "(crypto/drbg.hpp, common/rng.hpp)"),
    ("ambient-entropy",
     re.compile(r"(?<![\w:.>])(?:std::)?rand\s*\(\s*\)"),
     "rand() — use a scenario-seeded generator (crypto/drbg.hpp, "
     "common/rng.hpp)"),
    ("ambient-entropy",
     re.compile(r"std::random_device"),
     "std::random_device is hardware entropy — seeds must come from the "
     "scenario so runs replay"),
    ("hardware-concurrency",
     re.compile(r"hardware_concurrency|sched_getaffinity|CPU_COUNT"),
     "core-count probe — simulated results must depend on the shard "
     "count alone, never the machine"),
]

PRAGMA_RE = re.compile(
    r"//\s*determinism-lint:\s*allow\(([a-z-]+)\)\s*(.*?)\s*$")
LINT_AS_RE = re.compile(r"//\s*lint-as:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")

UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set)\s*<")
ORDERED_DECL_RE = re.compile(r"std::(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(
    r"for\s*\([^;()]*?(?<!:):(?!:)\s*([A-Za-z_][\w.>-]*)\s*\)")


def strip_code(text):
    """Blanks comments, string and char literals (preserving line
    structure) so rule regexes only see code. Returns one string."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw strings: treat R"<delim>( ... )<delim>" opaquely.
                if i >= 1 and text[i - 1] == "R":
                    m = re.match(r'"([^ ()\\\t\v\f\n]*)\(', text[i:])
                    if m:
                        end = text.find(")" + m.group(1) + '"', i)
                        if end == -1:
                            end = n
                        seg = text[i:end + len(m.group(1)) + 2]
                        out.append(re.sub(r"[^\n]", " ", seg))
                        i += len(seg)
                        continue
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
            elif (state == "string" and c == '"') or \
                 (state == "char" and c == "'"):
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def template_arg_end(text, start):
    """`start` indexes just past an opening '<'; returns the index of its
    matching '>' (or len(text))."""
    depth = 1
    i = start
    while i < len(text) and depth:
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(text)


def unordered_names(stripped):
    """Identifiers declared with an std::unordered_{map,set} type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(stripped):
        end = template_arg_end(stripped, m.end())
        tail = stripped[end + 1:end + 120]
        nm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*(?:[;={(,)]|$)", tail)
        if nm:
            names.add(nm.group(1))
    return names


def first_template_arg(stripped, start):
    """First top-level template argument after an opening '<'."""
    depth, i = 1, start
    while i < len(stripped):
        c = stripped[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                break
        elif c == "," and depth == 1:
            break
        i += 1
    return stripped[start:i].strip()


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


class FileScan:
    def __init__(self, path, rel, sibling_text=""):
        self.path = path
        self.rel = rel
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.stripped = strip_code(self.text)
        self.stripped_lines = self.stripped.splitlines()
        self.sibling_stripped = strip_code(sibling_text) if sibling_text \
            else ""
        # line -> (rule, reason) pragmas, read from the ORIGINAL lines.
        self.pragmas = {}
        self.used_pragmas = set()
        self.findings = []  # (line, rule, message)
        for no, line in enumerate(self.lines, 1):
            m = PRAGMA_RE.search(line)
            if m:
                # A trailing `// ...` (e.g. a fixture's expect-lint marker)
                # is not part of the justification.
                reason = re.sub(r"//.*$", "", m.group(2)).strip()
                self.pragmas[no] = (m.group(1), reason)

    def allowlisted(self, rule):
        for (prefix, allowed_rule) in ALLOWLIST:
            if allowed_rule == rule and (self.rel == prefix or
                                         self.rel.startswith(prefix)):
                return True
        return False

    def add(self, line_no, rule, message):
        if self.allowlisted(rule):
            return
        for candidate in (line_no, line_no - 1):
            pragma = self.pragmas.get(candidate)
            if pragma and pragma[0] == rule:
                self.used_pragmas.add(candidate)
                if not pragma[1]:
                    self.findings.append(
                        (candidate, "bad-pragma",
                         "allow(%s) pragma carries no reason — say why the "
                         "construct is safe" % rule))
                return
        self.findings.append((line_no, rule, message))

    def run(self):
        for no, line in enumerate(self.stripped_lines, 1):
            for rule, regex, message in SIMPLE_RULES:
                if regex.search(line):
                    self.add(no, rule, message)
        self.check_unordered_iteration()
        self.check_pointer_keyed()
        for no in sorted(set(self.pragmas) - self.used_pragmas):
            self.findings.append(
                (no, "unused-pragma",
                 "allow(%s) pragma suppresses nothing — remove it"
                 % self.pragmas[no][0]))
        self.findings.sort()
        return self.findings

    def check_unordered_iteration(self):
        names = unordered_names(self.stripped)
        names |= unordered_names(self.sibling_stripped)
        if not names:
            return
        for m in RANGE_FOR_RE.finditer(self.stripped):
            target = re.split(r"\.|->", m.group(1))[-1]
            if target in names:
                self.add(line_of(self.stripped, m.start()),
                         "unordered-iteration",
                         "range-for over std::unordered_{map,set} `%s` — "
                         "iteration order is not deterministic; use "
                         "std::map or iterate sorted keys" % target)

    def check_pointer_keyed(self):
        for m in ORDERED_DECL_RE.finditer(self.stripped):
            key = first_template_arg(self.stripped, m.end())
            if key.endswith("*"):
                self.add(line_of(self.stripped, m.start()),
                         "pointer-keyed-ordered",
                         "ordered container keyed by pointer `%s` — "
                         "address order depends on the allocator/ASLR; key "
                         "by a stable id instead" % key)


def sibling_of(path):
    table = {".cpp": [".hpp", ".h"], ".cc": [".hpp", ".h"],
             ".hpp": [".cpp", ".cc"], ".h": [".cpp", ".cc"]}
    for ext in table.get(path.suffix, []):
        candidate = path.with_suffix(ext)
        if candidate.exists():
            return candidate.read_text(encoding="utf-8")
    return ""


def scan_file(path, rel=None):
    rel = rel or str(path.resolve().relative_to(REPO))
    scan = FileScan(path, rel, sibling_of(path))
    return scan.run()


def scan_tree(roots):
    failures = 0
    for root in roots:
        base = (REPO / root) if not Path(root).is_absolute() else Path(root)
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.suffix in EXTENSIONS)
        for path in files:
            rel = str(path.resolve().relative_to(REPO))
            for line, rule, message in scan_file(path, rel):
                print("%s:%d: [%s] %s" % (rel, line, rule, message))
                failures += 1
    if failures:
        print("\n%d determinism-lint finding(s)." % failures)
        print("Suppress a single justified line with "
              "`// determinism-lint: allow(<rule>) <reason>`; "
              "see docs/determinism.md#statically-enforced-invariants.")
    return failures


def self_test():
    """Every fixture declares its expected findings inline with
    `// expect-lint: <rule>[, <rule>]` on the offending line. A fixture may
    masquerade as a repo path (to exercise the allowlist) with a
    `// lint-as: <path>` header."""
    if not FIXTURES.is_dir():
        print("self-test: fixtures directory missing: %s" % FIXTURES)
        return 1
    failures = 0
    fixture_files = sorted(p for p in FIXTURES.iterdir()
                           if p.suffix in EXTENSIONS)
    if not fixture_files:
        print("self-test: no fixtures found in %s" % FIXTURES)
        return 1
    for path in fixture_files:
        text = path.read_text(encoding="utf-8")
        lint_as = LINT_AS_RE.search(text)
        rel = lint_as.group(1) if lint_as else \
            "tools/lint/fixtures/" + path.name
        expected = set()
        for no, line in enumerate(text.splitlines(), 1):
            m = EXPECT_RE.search(line)
            if m:
                for rule in re.split(r"\s*,\s*", m.group(1)):
                    expected.add((no, rule))
        got = {(line, rule) for line, rule, _ in scan_file(path, rel)}
        if got != expected:
            failures += 1
            print("self-test FAIL: %s" % path.name)
            for line, rule in sorted(expected - got):
                print("  missing expected finding: line %d [%s]"
                      % (line, rule))
            for line, rule in sorted(got - expected):
                print("  unexpected finding: line %d [%s]" % (line, rule))
    if not failures:
        print("self-test OK: %d fixtures, all findings as expected"
              % len(fixture_files))
    return failures


def main(argv):
    if "--self-test" in argv:
        return 1 if self_test() else 0
    roots = [a for a in argv if not a.startswith("-")] or DEFAULT_ROOTS
    return 1 if scan_tree(roots) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
