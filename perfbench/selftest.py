#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/selftest.py                    # all checks
    python3 perfbench/selftest.py --write-reference  # regenerate digests

Checks, each workload at minimal length (one repetition):
  1. Two untraced runs print exactly the BENCHMARK.json end-to-end
     metrics, and agree exactly on every simulated metric and digest.
  2. A traced run prints exactly the BENCHMARK.json per-layer metrics,
     and its simulated outputs equal the untraced run's. Its two
     repetitions report the same attempted and failed counts as the
     untraced run's one: the counts depend on the seed only.
  3. A deliberately wrong reference digest is reported as a failed
     operation, and makes the run incorrect.
  4. The default seed reproduces reference.json with no incorrect
     operation.

--write-reference re-derives reference.json from default-seed runs;
use it only when a change is meant to alter simulated outputs, and say
why in the change description.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

SIM_METRICS = ("sim_speedup_err_pct", "sim_makespan_ms", "sim_p50_ms",
               "sim_p99_ms")
OUT = os.path.join(run.BUILD, "selftest")


def driver(workload, trace=0, reps=1, reference=None, tag=""):
    """Run the driver; return (final JSON line, details dict)."""
    out = os.path.join(OUT, workload + tag)
    os.makedirs(out, exist_ok=True)
    env = run.driver_env()
    if trace:
        env["BISCUIT_TRACE"] = os.path.join(out, workload + ".sim_trace.json")
    cmd = [run.DRIVER, "--workload", workload, "--seed", "20160618",
           "--trace", str(trace), "--reps", str(reps), "--reference",
           reference or os.path.join(run.HERE, "reference.json"),
           "--out-dir", out]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("driver failed: %s\n%s" % (" ".join(cmd), proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = "%s.seed20160618%s.details.json" % (workload,
                                                ".trace" if trace else "")
    with open(os.path.join(out, name)) as f:
        details = json.load(f)
    return result, details


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    return bool(cond)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not run.build():
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]

    if args.write_reference:
        ref = {}
        for w in workloads:
            _, det = driver(w, reference="/nonexistent")
            ref.update(det["digests"])
        with open(os.path.join(run.HERE, "reference.json"), "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %d reference digests" % len(ref))
        return 0

    ok = True
    for w in workloads:
        a, da = driver(w, tag=".a")
        b, db = driver(w, tag=".b")
        ok &= expect(list(a["metrics"]) == e2e,
                     w + ": untraced run prints the end-to-end metrics")
        ok &= expect(all(a["metrics"][m] == b["metrics"][m]
                         for m in SIM_METRICS),
                     w + ": two runs agree on every simulated metric")
        ok &= expect(da["digests"] == db["digests"],
                     w + ": two runs agree on every output digest")
        incorrect = [f for f in da["failures"] if f["kind"] == "incorrect"]
        ok &= expect(a["correct"] and not incorrect,
                     w + ": default seed reproduces reference.json "
                     "(failed %d of %d: %s)" % (
                         a["failed"], a["attempted"],
                         sorted({f["kind"] for f in da["failures"]})))

        t, dt = driver(w, trace=1, reps=2, tag=".trace")
        ok &= expect(list(t["metrics"]) == layer,
                     w + ": traced run prints the per-layer metrics")
        ok &= expect(dt["digests"] == da["digests"] and
                     all(dt["metrics"][m] == da["metrics"][m]
                         for m in SIM_METRICS) and t["correct"],
                     w + ": traced and untraced simulated outputs agree")
        ok &= expect(t["attempted"] == a["attempted"] and
                     t["failed"] == a["failed"],
                     w + ": attempted and failed do not grow with "
                     "repetitions (%d/%d vs %d/%d)" % (
                         t["failed"], t["attempted"],
                         a["failed"], a["attempted"]))

    # A wrong reference digest must surface as a failed operation.
    bad_ref = os.path.join(OUT, "wrong_reference.json")
    with open(os.path.join(run.HERE, "reference.json")) as f:
        ref = json.load(f)
    victim = "tpch_suite/q6.biscuit"
    ref[victim] = "0" * 16
    with open(bad_ref, "w") as f:
        json.dump(ref, f)
    r, dr = driver("tpch_suite", reference=bad_ref, tag=".wrongref")
    ok &= expect(r["failed"] >= 1 and not r["correct"] and
                 any(f["op"] == "q6.biscuit" for f in dr["failures"]),
                 "a wrong reference digest is reported as a failed "
                 "operation")

    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
