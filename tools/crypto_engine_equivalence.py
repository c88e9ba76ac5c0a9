#!/usr/bin/env python3
"""Checks that the hardware and portable crypto engines give identical runs.

    python3 tools/crypto_engine_equivalence.py BENCH_BINARY...

Runs every given bench binary with --smoke twice: once with the hardware
AES-GCM engine the CPU selects (SMT_DISABLE_HW_CRYPTO removed from the
environment) and once with SMT_DISABLE_HW_CRYPTO=1, which forces the
portable engine. Each run writes its JSON result line into its own
BENCH_JSON_DIR, and tools/compare_bench_json.py must find the two
directories identical. The benches' printed output must match as well:
outside bench_simperf every printed value is virtual time, so the engine
that computed the bytes must not show. Exit status: 0 when identical, 1 on
any difference or failed run, 2 on a usage error.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMPARE = Path(__file__).resolve().parent / "compare_bench_json.py"
RUN_TIMEOUT_S = 120


def run_all(binaries, json_dir, portable):
    """Each binary's stdout for one engine, or None after a failed run."""
    env = dict(os.environ, BENCH_JSON_DIR=str(json_dir))
    env.pop("SMT_DISABLE_HW_CRYPTO", None)
    if portable:
        env["SMT_DISABLE_HW_CRYPTO"] = "1"
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
            print("%s (portable=%s) exited %d:\n%s" %
                  (binary, portable, result.returncode, result.stderr))
            return None
        outputs[binary] = result.stdout
    return outputs


def main():
    binaries = sys.argv[1:]
    if not binaries or any(b.startswith("-") for b in binaries):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        hw_dir = Path(tmp) / "hw"
        portable_dir = Path(tmp) / "portable"
        hw_dir.mkdir()
        portable_dir.mkdir()
        hw = run_all(binaries, hw_dir, portable=False)
        portable = run_all(binaries, portable_dir, portable=True)
        if hw is None or portable is None:
            return 1
        status = 0
        for binary in binaries:
            if hw[binary] != portable[binary]:
                print("%s: printed output differs between engines" % binary)
                status = 1
        compared = subprocess.run(
            [sys.executable, str(COMPARE), str(hw_dir), str(portable_dir)],
            check=False)
        if compared.returncode != 0:
            status = 1
    if status == 0:
        print("identical on both engines: %s" %
              " ".join(Path(b).name for b in binaries))
    return status


if __name__ == "__main__":
    sys.exit(main())
