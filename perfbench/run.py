#!/usr/bin/env python3
"""Build and run the engine benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload medical_cold --seed 1 --seconds 32 --trace 0

Workloads: medical_cold, session_warm, spill_governed (listed, with the
reason for each, in BENCHMARK.json) and pairs_cold (see README.md);
"--workload all" runs the three listed ones one after another.  The
benchmark executable is built from source with dune into .bench_build/
(release profile, no shared dune cache), then run with a private
temporary directory for spill files under .bench_build/, so the run reads
and writes only inside the checkout.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records
the environment.  Both are also written, with the trace of a --trace 1
run, under .bench_build/results/.  The exit status is non-zero when the
build fails, an answer is wrong, or an operation fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# The workloads BENCHMARK.json lists, which "--workload all" runs in turn.
LISTED = ["medical_cold", "session_warm", "spill_governed"]
WORKLOADS = ["pairs_cold"] + LISTED


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a source checkout "
                 "(dune-project and lib/ are missing)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        sys.exit("perfbench: build failed")

    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    env["TMPDIR"] = tmp
    status = 0
    for workload in LISTED if args.workload == "all" else [args.workload]:
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", commit(), "--nproc", str(os.cpu_count() or 0)]
        try:
            code = subprocess.run(cmd, env=env, timeout=170).returncode
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: %s did not finish within 170 s" % workload)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()
