#!/usr/bin/env python3
"""Symbol census: which smt:: functions of libsmt_core.a does a binary link?

Usage: tools/census.py BUILD_DIR

Builds the tree into BUILD_DIR/tree and the standalone benchmark suite
(bench/suite) into BUILD_DIR/suite, both at -O0 with -ffunction-sections
-fdata-sections -fkeep-inline-functions and linked with -Wl,--gc-sections:
nothing is inlined away, every inline function (class-body members and
`inline` functions in headers) is emitted into the object files of
libsmt_core.a that include it, and every function a binary keeps is one it
can reach. The builds run one job per CPU, or CMAKE_BUILD_PARALLEL_LEVEL
jobs when that is set. It then compares the `nm` of the tree's
libsmt_core.a with the `nm` of every binary and prints two lists of
demangled smt:: functions (global or weak text symbols):

  * linked by no binary: dead code, candidates for deletion;
  * linked only by test binaries: code its tests alone keep alive. The
    non-test binaries are the benches (bench/bench_*.cpp), the examples
    (examples/*.cpp) and bench/suite's bench_suite.

Names the compiler makes rather than the code declares are left out of
both lists, and only their number is printed: lambdas,
EventCallback::fits_inline<> instances, and special members (default,
copy and move constructors, destructors, copy and move assignments) that
no source file under src/ declares.

Blind spots: an inline function in a header that no library source
includes (one only benches or tests include) is never emitted into
libsmt_core.a, so neither list can name it. An inline
function a binary defines in its own translation unit counts as linked
by that binary, whether or not the library copy is reached. A template
member is only emitted where it is instantiated.

The census only reports. It exits 0 whenever the builds succeed.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CENSUS_FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
    " -fkeep-inline-functions",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def build(source: Path, build_dir: Path, *extra: str) -> None:
    subprocess.run(["cmake", "-S", str(source), "-B", str(build_dir),
                    *CENSUS_FLAGS, *extra],
                   check=True, stdout=subprocess.DEVNULL)
    jobs = os.environ.get("CMAKE_BUILD_PARALLEL_LEVEL", str(os.cpu_count()))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=subprocess.DEVNULL)


# A mangled function (possibly a cv- or ref-qualified member) declared in
# namespace smt. Matching the mangled name skips std:: templates that are
# merely instantiated for smt types, and lambdas local to smt functions.
SMT_FUNCTION = re.compile(r"_ZN[KVRO]*3smt")


def functions(path: Path) -> set[str]:
    """The mangled smt:: functions `path` defines as global or weak text."""
    out = subprocess.run(["nm", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if (len(parts) == 3 and parts[1] in ("T", "W")
                and SMT_FUNCTION.match(parts[2])):
            names.add(parts[2])
    return names


def demangle(names: set[str]) -> set[str]:
    """Demangled names; constructor and destructor variants collapse."""
    out = subprocess.run(["c++filt"], input="\n".join(sorted(names)),
                         check=True, capture_output=True, text=True).stdout
    return set(out.splitlines())


# A constructor or destructor (Class::Class(args), Class::~Class()) or an
# assignment (Class::operator=(args)), with Class possibly a template.
SPECIAL = re.compile(r"(?:^|::)(\w+)(?:<.*>)?::(~?)(\1|operator=)\((.*)\)$")


def declaration(name: str, dtor: bool, assign: bool, args: str):
    """A regex for the user declaration of `name`'s special member with
    demangled `args`, or None when it is not a default, copy or move
    special member."""
    own = rf"(?:\w+::)*{name}(?:<.*>)?"
    if args == "":
        params = r"\s*\)"
    elif re.fullmatch(own + " const&", args):
        params = rf"\s*const\s+{name}\s*&[^)]*\)"
    elif re.fullmatch(own + "&&", args):
        params = rf"\s*{name}\s*&&[^)]*\)"
    else:
        return None
    if dtor:
        return re.compile(rf"~{name}\s*\(")
    if assign:
        return re.compile(rf"{name}\s*&\s*operator=\s*\({params}")
    return re.compile(rf"^\s*(?:explicit\s+|constexpr\s+)*(?:{name}::)?"
                      rf"{name}\s*\({params}", re.MULTILINE)


def generated(name: str, source: str) -> bool:
    """Whether a demangled name is one the compiler made: a lambda, an
    EventCallback::fits_inline<> instance, or a special member the source
    does not declare."""
    if "{lambda(" in name or "EventCallback::fits_inline<" in name:
        return True
    match = SPECIAL.search(name.removesuffix(" const"))
    if match is None:
        return False
    cls, tilde, member, args = match.groups()
    pattern = declaration(cls, tilde == "~", member == "operator=", args)
    return pattern is not None and pattern.search(source) is None


def binary_names() -> tuple[list[str], list[str]]:
    """(non-test, test) executables of the tree, named as CMakeLists does."""
    non_test = [p.stem for p in sorted((ROOT / "bench").glob("bench_*.cpp"))]
    non_test += [p.stem for p in sorted((ROOT / "examples").glob("*.cpp"))]
    tests = [str(p.relative_to(ROOT / "tests").with_suffix(""))
             .replace("/", "_")
             for p in sorted((ROOT / "tests").rglob("*.cpp"))]
    return non_test, tests


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("build_dir", type=Path)
    args = parser.parse_args()

    tree = args.build_dir.resolve() / "tree"
    suite = args.build_dir.resolve() / "suite"
    # -Werror stays off: -O0 sees different warnings than the gated builds.
    build(ROOT, tree, "-DSMT_WERROR=OFF")
    build(ROOT / "bench" / "suite", suite)

    library = functions(tree / "libsmt_core.a")
    non_test_names, test_names = binary_names()
    non_test = functions(suite / "bench_suite")
    for name in non_test_names:
        non_test |= functions(tree / name)
    tests = set()
    for name in test_names:
        tests |= functions(tree / name)
    library, non_test, tests = (demangle(library & s)
                                for s in (library, non_test, tests))

    source = "\n".join(p.read_text() for p in sorted((ROOT / "src").rglob("*"))
                       if p.suffix in (".hpp", ".cpp"))
    for title, names in (("that no binary links", library - non_test - tests),
                         ("that only test binaries link",
                          (library & tests) - non_test)):
        kept = sorted(n for n in names if not generated(n, source))
        print(f"smt:: functions of libsmt_core.a {title} ({len(kept)}; "
              f"{len(names) - len(kept)} compiler-generated names left "
              f"out):")
        for name in kept:
            print(f"  {name}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
