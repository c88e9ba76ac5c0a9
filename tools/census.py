#!/usr/bin/env python3
"""Symbol census: which smt:: functions of libsmt_core.a does a binary link?

Usage: tools/census.py BUILD_DIR

Builds the tree into BUILD_DIR/tree and the standalone benchmark suite
(bench/suite) into BUILD_DIR/suite, both at -O0 with -ffunction-sections
-fdata-sections and linked with -Wl,--gc-sections: nothing is inlined away,
and every function a binary keeps is one it can reach. The builds run one
job per CPU, or CMAKE_BUILD_PARALLEL_LEVEL jobs when that is set. It then
compares the `nm` of the tree's libsmt_core.a with the `nm` of every binary
and prints two lists of demangled smt:: functions (global or weak text
symbols):

  * linked by no binary: dead code, candidates for deletion;
  * linked only by test binaries: code its tests alone keep alive. The
    non-test binaries are the benches (bench/bench_*.cpp), the examples
    (examples/*.cpp) and bench/suite's bench_suite.

Blind spot: a header-only inline function that nothing calls is never
emitted, so no object file holds it and neither list can name it (an
unused one-line member in a header, say). Read the headers for those.
The converse also holds: an inline function a binary defines in its own
translation unit counts as linked by that binary.

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
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
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

    unlinked = sorted(library - non_test - tests)
    test_only = sorted((library & tests) - non_test)
    print(f"smt:: functions of libsmt_core.a that no binary links "
          f"({len(unlinked)}):")
    for name in unlinked:
        print(f"  {name}")
    print(f"\nsmt:: functions of libsmt_core.a that only test binaries link "
          f"({len(test_only)}):")
    for name in test_only:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
