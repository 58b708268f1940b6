#!/usr/bin/env python3
"""Build and run the Biscuit simulator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload tpch_suite --seed 7 --seconds 30 --trace 0

Builds perfbench/ (a stand-alone CMake package over ../src) in Release
mode under .bench_build/perfbench, then runs one workload with the
perfbench_driver binary. The driver's last line of standard output, a
JSON object with the keys correct, attempted, failed and metrics, is
printed as this script's last line. --trace 1 reports the per-layer
metrics instead of the end-to-end ones and writes benchmark spans and
the simulator's own trace next to the build. See perfbench/README.md.

Every BISCUIT_* variable is removed from the driver's environment, so
the ambient shell cannot change a workload; a traced run sets only
BISCUIT_TRACE.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("tpch_suite", "skewed_mixed", "serve_open_loop")
DRIVER_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", "4"])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def driver_env():
    """The caller's environment without any BISCUIT_* variable."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("BISCUIT_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20160618)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1

    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    env = driver_env()
    if args.trace:
        env["BISCUIT_TRACE"] = os.path.join(
            out_dir, args.workload + ".sim_trace.json")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.json"),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver exceeded %d s\n"
                         % DRIVER_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # A crash (e.g. a simulator panic) is a failed run, never a
        # result: report it and exit non-zero.
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write("perfbench: driver exited with %d\n"
                         % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
