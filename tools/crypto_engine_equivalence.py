#!/usr/bin/env python3
"""Checks that every crypto engine gives identical runs.

    python3 tools/crypto_engine_equivalence.py BENCH_BINARY...

Runs every given bench binary with --smoke three times, once per setting
of SMT_DISABLE_HW_CRYPTO:

    unset   the best AES-GCM engine the CPU has (wide on VAES/VPCLMULQDQ
            hosts, aesni on other AES-NI hosts);
    wide    capped at the aesni engine;
    1       the portable engine.

On a host without the wide engine the first two runs take the same engine
and the check still passes. Each run writes its JSON result line into its
own BENCH_JSON_DIR, and tools/compare_bench_json.py must find every
directory identical to the first. The benches' printed output must match
as well: outside bench_simperf every printed value is virtual time, so the
engine that computed the bytes must not show. Exit status: 0 when
identical, 1 on any difference or failed run, 2 on a usage error.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMPARE = Path(__file__).resolve().parent / "compare_bench_json.py"
RUN_TIMEOUT_S = 120

# (name, SMT_DISABLE_HW_CRYPTO value or None to unset it); the first is
# the reference the others are compared with.
SETTINGS = [("default", None), ("wide", "wide"), ("portable", "1")]


def run_all(binaries, json_dir, disable):
    """Each binary's stdout under one setting, or None after a failed run."""
    env = dict(os.environ, BENCH_JSON_DIR=str(json_dir))
    env.pop("SMT_DISABLE_HW_CRYPTO", None)
    if disable is not None:
        env["SMT_DISABLE_HW_CRYPTO"] = disable
    outputs = {}
    for binary in binaries:
        try:
            result = subprocess.run([binary, "--smoke"], env=env,
                                    capture_output=True, text=True,
                                    timeout=RUN_TIMEOUT_S, check=False)
        except (OSError, subprocess.SubprocessError) as error:
            print("%s: %s" % (binary, error))
            return None
        if result.returncode != 0:
            print("%s (SMT_DISABLE_HW_CRYPTO=%s) exited %d:\n%s" %
                  (binary, disable, result.returncode, result.stderr))
            return None
        outputs[binary] = result.stdout
    return outputs


def main():
    binaries = sys.argv[1:]
    if not binaries or any(b.startswith("-") for b in binaries):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        dirs, runs = {}, {}
        for name, disable in SETTINGS:
            dirs[name] = Path(tmp) / name
            dirs[name].mkdir()
            runs[name] = run_all(binaries, dirs[name], disable)
        if any(outputs is None for outputs in runs.values()):
            return 1
        status = 0
        reference = SETTINGS[0][0]
        for name, _ in SETTINGS[1:]:
            for binary in binaries:
                if runs[name][binary] != runs[reference][binary]:
                    print("%s: printed output differs between %s and %s" %
                          (binary, reference, name))
                    status = 1
            compared = subprocess.run(
                [sys.executable, str(COMPARE), str(dirs[reference]),
                 str(dirs[name])], check=False)
            if compared.returncode != 0:
                status = 1
    if status == 0:
        print("identical on every engine: %s" %
              " ".join(Path(b).name for b in binaries))
    return status


if __name__ == "__main__":
    sys.exit(main())
