#!/usr/bin/env bash
# Tier-1 verification: a normal build + ctest pass, a perf-smoke pass
# that replays the paper-figure benches and diffs their simulated
# outputs against the golden transcripts in bench/golden/, a trace
# pass (fig10 with BISCUIT_TRACE: golden must still match, the JSON
# must load, two runs must be byte-identical), an oracle pass (the
# TPC-H suite's result rows and the serving tier's answers and event
# log against perfbench/reference.json), a
# multi-drive pass (fig10 at BISCUIT_DRIVES=4 against its own
# golden — same rows and planner decisions, scale-out timing), a
# serve pass (fig_serve vs its golden, two-run byte-identity,
# lane/drive env invariance), a prune pass (fig_prune vs its
# golden — statistics-driven scans must return the baseline's rows
# byte-identically while reading fewer pages), a
# placement pass (fig_place vs its golden — the cost-model placement
# must beat both static plans with byte-identical rows), a pipeline
# pass (fig_pipeline vs its golden — the searched multi-stage plan
# must beat both static plans with byte-identical rows), then
# sanitizer builds via BISCUIT_SANITIZE (ASan/UBSan ctest; TSan lane +
# serve-soak tests plus traced 2-lane fig10 runs at 1 and 4 drives so
# the trace buffers and the drive array see real thread concurrency).
#
# Usage: scripts/verify.sh [--no-sanitize] [--no-perf-smoke]
set -euo pipefail

cd "$(dirname "$0")/.."

run_sanitized=1
run_perf_smoke=1
for arg in "$@"; do
    case "$arg" in
      --no-sanitize) run_sanitized=0 ;;
      --no-perf-smoke) run_perf_smoke=0 ;;
    esac
done

echo "=== pass 1: normal build + ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "$run_perf_smoke" == 1 ]]; then
    echo
    echo "=== perf smoke: simulated outputs vs bench/golden ==="
    # bench.sh exits non-zero when any bench's simulated output
    # drifts from its golden transcript. The report goes under build/:
    # the committed BENCH_wallclock.json is bench.sh's baseline and is
    # rewritten only on purpose (scripts/bench.sh --out
    # BENCH_wallclock.json).
    scripts/bench.sh --no-build --out build/bench_out/BENCH_wallclock.json

    echo
    echo "=== trace pass: fig10 with BISCUIT_TRACE ==="
    mkdir -p build/bench_out
    BISCUIT_TRACE=build/bench_out/verify_trace_a.json \
        build/bench/fig10_tpch > build/bench_out/fig10_traced.txt
    diff -q bench/golden/fig10_tpch.txt build/bench_out/fig10_traced.txt
    BISCUIT_TRACE=build/bench_out/verify_trace_b.json \
        build/bench/fig10_tpch > /dev/null
    # The trace must be loadable JSON and deterministic run to run.
    python3 -c "import json; json.load(open('build/bench_out/verify_trace_a.json'))"
    cmp build/bench_out/verify_trace_a.json \
        build/bench_out/verify_trace_b.json
    echo "trace: golden match, JSON valid, two runs byte-identical"

    echo
    echo "=== oracle pass: fig10 rows and serving answers vs perfbench/reference.json ==="
    # The fig10 golden prints speed-ups and planner notes but no rows.
    # perfbench's tpch_suite digests every query's result rows and
    # ticks and checks them against its committed reference.
    oracle=$(python3 perfbench/run.py --workload tpch_suite --seconds 1 \
        | tail -n 1)
    python3 - "$oracle" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
if r["correct"] is not True or r["failed"] != 0:
    sys.exit("oracle: tpch_suite disagrees with perfbench/reference.json: "
             f"correct={r['correct']} failed={r['failed']}")
print(f"oracle: {r['attempted']} query runs match the reference digests")
PY
    # serve_open_loop checks every job's answer (grep and word counts
    # included) and digests the whole event log against the reference.
    oracle=$(python3 perfbench/run.py --workload serve_open_loop \
        --seconds 1 | tail -n 1)
    python3 - "$oracle" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
if r["correct"] is not True or r["failed"] != 0:
    sys.exit("oracle: serve_open_loop disagrees with its reference: "
             f"correct={r['correct']} failed={r['failed']}")
print(f"oracle: {r['attempted']} serving jobs answered correctly")
PY

    echo
    echo "=== multi-drive pass: fig10 with BISCUIT_DRIVES=4 ==="
    # The sharded suite must keep its own golden: identical rows and
    # planner decisions to the single-drive run, drive-count-specific
    # timing. Serial and parallel-lane runs must agree byte-for-byte
    # (the array freeze/fork path).
    BISCUIT_DRIVES=4 build/bench/fig10_tpch \
        > build/bench_out/fig10_drives4.txt
    diff -q bench/golden/fig10_tpch_drives4.txt \
        build/bench_out/fig10_drives4.txt
    BISCUIT_DRIVES=4 BISCUIT_LANES=2 build/bench/fig10_tpch \
        > build/bench_out/fig10_drives4_lanes.txt
    diff -q bench/golden/fig10_tpch_drives4.txt \
        build/bench_out/fig10_drives4_lanes.txt
    echo "multi-drive: 4-drive golden match, serial == 2-lane"

    echo
    echo "=== serve pass: open-loop serving determinism ==="
    # fig_serve fixes its own drive counts and ignores the lane/obs
    # env, so one golden covers every environment; two fresh runs and
    # a BISCUIT_LANES=2 run must all be byte-identical to it.
    build/bench/fig_serve > build/bench_out/fig_serve_a.txt
    diff -q bench/golden/fig_serve.txt build/bench_out/fig_serve_a.txt
    build/bench/fig_serve > build/bench_out/fig_serve_b.txt
    cmp build/bench_out/fig_serve_a.txt build/bench_out/fig_serve_b.txt
    BISCUIT_LANES=2 BISCUIT_DRIVES=4 build/bench/fig_serve \
        > build/bench_out/fig_serve_env.txt
    cmp build/bench_out/fig_serve_a.txt build/bench_out/fig_serve_env.txt
    echo "serve: golden match, two runs byte-identical, env-invariant"

    echo
    echo "=== prune pass: statistics-driven scan pruning ==="
    # fig_prune exits non-zero unless rows stay byte-identical across
    # planner modes and drive counts; its transcript must match the
    # golden, repeat byte-for-byte, and ignore the lane/obs/drive env
    # (the bench fixes its own drive counts).
    build/bench/fig_prune > build/bench_out/fig_prune_a.txt
    diff -q bench/golden/fig_prune.txt build/bench_out/fig_prune_a.txt
    build/bench/fig_prune > build/bench_out/fig_prune_b.txt
    cmp build/bench_out/fig_prune_a.txt build/bench_out/fig_prune_b.txt
    BISCUIT_OBS=0 BISCUIT_LANES=2 BISCUIT_DRIVES=4 build/bench/fig_prune \
        > build/bench_out/fig_prune_env.txt
    cmp build/bench_out/fig_prune_a.txt build/bench_out/fig_prune_env.txt
    echo "prune: golden match, two runs byte-identical, env-invariant"

    echo
    echo "=== placement pass: cost-model SSDlet placement ==="
    # fig_place exits non-zero unless the cost-model placement beats
    # both static plans with rows byte-identical across placements and
    # drive counts; the transcript must match its golden, repeat
    # byte-for-byte, and ignore the lane/drive env (drive counts and
    # the annealer seed are fixed in the bench).
    build/bench/fig_place > build/bench_out/fig_place_a.txt
    diff -q bench/golden/fig_place.txt build/bench_out/fig_place_a.txt
    build/bench/fig_place > build/bench_out/fig_place_b.txt
    cmp build/bench_out/fig_place_a.txt build/bench_out/fig_place_b.txt
    BISCUIT_LANES=2 BISCUIT_DRIVES=4 build/bench/fig_place \
        > build/bench_out/fig_place_env.txt
    cmp build/bench_out/fig_place_a.txt build/bench_out/fig_place_env.txt
    echo "place: golden match, two runs byte-identical, env-invariant"

    echo
    echo "=== pipeline pass: multi-stage FBP pipeline placement ==="
    # fig_pipeline exits non-zero unless the searched stage->site
    # assignment beats both static plans with rows byte-identical
    # across placements and drive counts; the transcript must match
    # its golden, repeat byte-for-byte, and ignore the lane/drive/
    # pipeline env (drive counts, the gate, and the annealer seed are
    # fixed in the bench).
    build/bench/fig_pipeline > build/bench_out/fig_pipeline_a.txt
    diff -q bench/golden/fig_pipeline.txt build/bench_out/fig_pipeline_a.txt
    build/bench/fig_pipeline > build/bench_out/fig_pipeline_b.txt
    cmp build/bench_out/fig_pipeline_a.txt build/bench_out/fig_pipeline_b.txt
    BISCUIT_LANES=2 BISCUIT_DRIVES=4 BISCUIT_PIPELINE_PLACE=0 \
        build/bench/fig_pipeline > build/bench_out/fig_pipeline_env.txt
    cmp build/bench_out/fig_pipeline_a.txt build/bench_out/fig_pipeline_env.txt
    echo "pipeline: golden match, two runs byte-identical, env-invariant"

    echo
    echo "=== hetero pass: jointly planned mixed workloads ==="
    # fig_hetero exits non-zero unless the session-planned mixed batch
    # (greps + word counts + a TPC-H scan sharing one
    # db::PlacementSession) strictly beats both static plans with scan
    # rows and word counts byte-identical across modes; the transcript
    # must match its golden, repeat byte-for-byte, and ignore the
    # lane/drive/gate env (drive counts, the gate, and the annealer
    # seed are fixed in the bench).
    build/bench/fig_hetero > build/bench_out/fig_hetero_a.txt
    diff -q bench/golden/fig_hetero.txt build/bench_out/fig_hetero_a.txt
    build/bench/fig_hetero > build/bench_out/fig_hetero_b.txt
    cmp build/bench_out/fig_hetero_a.txt build/bench_out/fig_hetero_b.txt
    BISCUIT_LANES=2 BISCUIT_DRIVES=4 BISCUIT_UNIFIED_PIPELINES=0 \
        build/bench/fig_hetero > build/bench_out/fig_hetero_env.txt
    cmp build/bench_out/fig_hetero_a.txt build/bench_out/fig_hetero_env.txt
    echo "hetero: golden match, two runs byte-identical, env-invariant"
fi

if [[ "$run_sanitized" == 1 ]]; then
    echo
    echo "=== pass 2: ASan/UBSan build + ctest ==="
    cmake -B build-san -S . "-DBISCUIT_SANITIZE=address;undefined" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-san -j "$(nproc)"
    ASAN_OPTIONS=detect_leaks=0 \
        ctest --test-dir build-san --output-on-failure -j "$(nproc)"

    echo
    echo "=== pass 3: TSan build + parallel-lane tests ==="
    # The lane runner is the only code that creates OS threads; TSan
    # covers it via the snapshot/fork and lane-runner tests plus a
    # 2-lane fig10 run (fibers + threads together). BISCUIT_TRACE is
    # on for that run so the per-lane trace buffers — registration
    # under the session mutex, single-writer pushes, exit-time export
    # — are exercised under real thread concurrency.
    cmake -B build-tsan -S . "-DBISCUIT_SANITIZE=thread" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-tsan -j "$(nproc)"
    ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
        -R "SnapshotFork|LaneRunner|ServeSoak|PlaceLane|PipelineLane|HeteroLane"
    BISCUIT_LANES=2 BISCUIT_TRACE=build-tsan/fig10_trace.json \
        build-tsan/bench/fig10_tpch \
        > build-tsan/fig10_lanes.txt
    diff -q bench/golden/fig10_tpch.txt build-tsan/fig10_lanes.txt
    python3 -c "import json; json.load(open('build-tsan/fig10_trace.json'))"
    # Same under a 4-drive array: each lane forks all four per-drive
    # stacks, so cross-thread hand-off of the whole DriveArray image
    # runs under TSan too.
    BISCUIT_DRIVES=4 BISCUIT_LANES=2 build-tsan/bench/fig10_tpch \
        > build-tsan/fig10_drives4_lanes.txt
    diff -q bench/golden/fig10_tpch_drives4.txt \
        build-tsan/fig10_drives4_lanes.txt
fi

echo
echo "verify: all passes clean"
