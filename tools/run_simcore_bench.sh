#!/usr/bin/env sh
# Runs the simulator-substrate micro-benchmarks and writes the machine-
# readable results to BENCH_simcore_perf.json (git-ignored), then smoke-runs
# the cluster planet-scale bench at a small configuration (its exit status
# enforces the zero-loss migration invariant) and a scaled copy of its
# --million mode (digest identity across worker counts, ghost ledger).
#
#   tools/run_simcore_bench.sh [build-dir] [extra google-benchmark args...]
#
# Compare two checkouts with google-benchmark's compare.py, or just diff the
# items_per_second fields. BM_RelayBroadcast reports allocs_per_forward and
# BM_UdpSteadyStatePacketPool reports pool_hit_rate and allocs_per_datagram —
# the steady-state heap budgets of the relay and link hot paths. Skip the cluster smoke with
# MSIM_SKIP_CLUSTER_SMOKE=1.
#
# Set MSIM_BENCH_BASELINE=path/to/old.json to diff the fresh results against
# a recorded baseline via tools/bench_diff.py. With MSIM_BENCH_GATE=PCT the
# diff becomes a gate: the script fails when a hot-path row (interest fan-out
# / SoA broadcast / session delivery / warm UDP link / event queue / timer
# re-arm / AP capture, see MSIM_BENCH_ONLY) regresses beyond PCT percent or
# any allocs_per_* counter exceeds MSIM_BENCH_MAX_ALLOC (default 1e-6 — i.e.
# the relay, link, event-queue, timer and capture hot paths must stay
# allocation-free).
set -eu

BUILD_DIR="${1:-build}"
[ $# -gt 0 ] && shift

# Refuse non-Release builds: numbers recorded from a Debug / RelWithDebInfo
# tree are not comparable to the committed baseline (the pre-fix baseline
# was once recorded from a Debug build, which made the trajectory
# meaningless). Override with MSIM_ALLOW_NON_RELEASE=1 for local smoke
# runs; the output is then watermarked on stderr instead of refused.
CACHE="$BUILD_DIR/CMakeCache.txt"
BUILD_TYPE=""
[ -f "$CACHE" ] && BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")
if [ "$BUILD_TYPE" != "Release" ]; then
  if [ "${MSIM_ALLOW_NON_RELEASE:-0}" = "1" ]; then
    echo "warning: $BUILD_DIR is CMAKE_BUILD_TYPE='$BUILD_TYPE', not Release;" >&2
    echo "warning: results are NOT baseline-comparable (MSIM_ALLOW_NON_RELEASE=1)" >&2
  else
    echo "error: $BUILD_DIR is CMAKE_BUILD_TYPE='$BUILD_TYPE', not Release." >&2
    echo "error: benchmark numbers from non-Release builds are meaningless;" >&2
    echo "error: reconfigure with -DCMAKE_BUILD_TYPE=Release, or set" >&2
    echo "error: MSIM_ALLOW_NON_RELEASE=1 to run anyway (results watermarked)." >&2
    exit 1
  fi
fi

BIN="$BUILD_DIR/bench/bench_simcore_perf"
if [ ! -x "$BIN" ]; then
  echo "error: $BIN not built (cmake --build $BUILD_DIR --target bench_simcore_perf)" >&2
  exit 1
fi

OUT="BENCH_simcore_perf.json"
"$BIN" \
  --benchmark_format=console \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${MSIM_BENCH_REPS:-1}" \
  "$@"
echo "wrote $OUT"

if [ -n "${MSIM_BENCH_BASELINE:-}" ]; then
  echo ""
  echo "== bench diff vs $MSIM_BENCH_BASELINE =="
  DIFF_ARGS=""
  [ -n "${MSIM_BENCH_GATE:-}" ] && DIFF_ARGS="--gate $MSIM_BENCH_GATE \
    --max-alloc ${MSIM_BENCH_MAX_ALLOC:-1e-6}"
  # shellcheck disable=SC2086
  python3 "$(dirname "$0")/bench_diff.py" "$MSIM_BENCH_BASELINE" "$OUT" \
    --only "${MSIM_BENCH_ONLY:-BM_InterestGridFanout|BM_RelayBroadcastSoA|BM_SessionChurnSteady|BM_UdpSteadyStatePacketPool|BM_EventQueueScheduleRunDistinct|BM_EventQueueScheduleRunAligned|BM_EventQueueCascade|BM_TimerRearm|BM_CaptureOnPacket}" \
    $DIFF_ARGS
fi

if [ "${MSIM_SKIP_CLUSTER_SMOKE:-0}" = "1" ]; then
  exit 0
fi
CLUSTER_BIN="$BUILD_DIR/bench/bench_cluster_planet_scale"
if [ ! -x "$CLUSTER_BIN" ]; then
  echo "note: $CLUSTER_BIN not built; skipping cluster smoke run" >&2
  exit 0
fi
echo ""
echo "== cluster smoke run (scaled down; full run is the bench's defaults) =="
MSIM_CLUSTER_USERS="${MSIM_CLUSTER_USERS:-400}" \
MSIM_CLUSTER_INSTANCES="${MSIM_CLUSTER_INSTANCES:-8}" \
MSIM_SEEDS="${MSIM_SEEDS:-2}" \
MSIM_MEASURE_S="${MSIM_MEASURE_S:-3}" \
  "$CLUSTER_BIN"

echo ""
echo "== million-mode smoke (scaled down; the real thing is --million at 1M) =="
# A scaled copy of the 1M-user partitioned run: same 64-shard direct-link
# mesh, adaptive windows, AOI lattice and mid-run drain, with the user count
# shrunk so the smoke stays in CI time. Its exit status enforces the digest
# identity across {1,2,8} workers, the zero-loss invariant, and the ghost
# ledger balance. MSIM_MILLION_USERS overrides the smoke population.
MSIM_CLUSTER_USERS="${MSIM_MILLION_USERS:-20000}" \
MSIM_CLUSTER_INSTANCES=64 \
MSIM_MEASURE_S="${MSIM_MEASURE_S:-1}" \
  "$CLUSTER_BIN" --million

CHURN_BIN="$BUILD_DIR/bench/bench_session_churn"
if [ ! -x "$CHURN_BIN" ]; then
  echo "note: $CHURN_BIN not built; skipping session churn smoke run" >&2
  exit 0
fi
echo ""
echo "== session churn smoke run (zero-loss + herd-jitter + digest gates) =="
MSIM_CHURN_SESSIONS="${MSIM_CHURN_SESSIONS:-400}" \
MSIM_SEEDS="${MSIM_SEEDS:-2}" \
  "$CHURN_BIN"
