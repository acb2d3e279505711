#!/usr/bin/env bash
#===- scripts/bench_net.sh - reactor-count scaling rows for BENCH_net ----===#
#
# Measures dvs-server's warm-cache serving capacity at 1, 2, and 4
# reactors on loopback, plus one cluster row (dvs-router sharding over
# three single-reactor backends), and merges the rows into one
# BENCH_net.json:
#
#   {"tool":"bench_net","host_cores":N,"build_type":"...","git_sha":"...",
#    "rows":[<dvs-loadgen row>, ...]}
#
# Each row is one dvs-loadgen record (its "reactors" field carries the
# server's --reactors value; the cluster row instead carries
# "cluster":{"backends":3,...}). The load is open-loop at a rate well above
# capacity with an admission queue deeper than the request count, so
# every request completes "done" and done_rps measures the end-to-end
# serving rate — rejects cannot inflate it.
#
# host_cores is recorded because reactor scaling is physical: on a
# single-core host the rows collapse to ~1x and scripts/check.sh skips
# its multi-reactor speedup floor (the single-reactor rps floor always
# applies). build_type (build/CMakeCache.txt, else CMakeLists.txt's
# default) and git_sha (git describe, "-dirty" for uncommitted edits)
# say what was measured.
#
# Usage: scripts/bench_net.sh [out.json] [schedules_dir]
#   out.json       merged results (default BENCH_net.json)
#   schedules_dir  when set, the reactors=1 row also writes
#                  <fingerprint>.cdvs files there (byte-identity diffs)
#
# Env: BENCH_NET_REQUESTS (default 18000), BENCH_NET_RATE (default
# 40000), BENCH_NET_DISTINCT (default 16).
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_net.json}"
SCHED="${2:-}"
REQS="${BENCH_NET_REQUESTS:-18000}"
RATE="${BENCH_NET_RATE:-40000}"
DISTINCT="${BENCH_NET_DISTINCT:-16}"
CORES="$(nproc)"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}" # CMakeLists.txt's default
GIT_SHA="$(git describe --always --dirty 2>/dev/null || echo unknown)"

TMP="$(mktemp -d)"
SRV=""
CLUSTER_PIDS=()
cleanup() {
  [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
  for P in "${CLUSTER_PIDS[@]}"; do
    kill "$P" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

for R in 1 2 4; do
  rm -f "$TMP/port"
  ./build/tools/dvs-server --port=0 --reactors="$R" --threads=0 \
    --queue=$((REQS + 64)) --cache=64 \
    --port-file="$TMP/port" > "$TMP/server_$R.log" 2>&1 &
  SRV=$!
  for _ in $(seq 1 100); do
    [ -s "$TMP/port" ] && break
    sleep 0.1
  done
  [ -s "$TMP/port" ] || { echo "dvs-server (reactors=$R) never listened"; exit 1; }

  EXTRA=()
  if [ "$R" = 1 ] && [ -n "$SCHED" ]; then
    mkdir -p "$SCHED"
    EXTRA+=("--schedules=$SCHED")
  fi
  ./build/tools/dvs-loadgen --port="$(cat "$TMP/port")" \
    --connections=8 --rate="$RATE" --requests="$REQS" \
    --distinct="$DISTINCT" --drain-timeout-ms=120000 \
    --meta-reactors="$R" --benchmark_out="$TMP/row_$R.json" \
    "${EXTRA[@]}" > /dev/null

  kill -TERM "$SRV" 2>/dev/null || true
  wait "$SRV" 2>/dev/null || true
  SRV=""
done

# Cluster row: the same load through dvs-router sharding across three
# single-reactor backends — what one routing hop plus the ring's cache
# partitioning costs (or saves) against the single-node rows above.
BPORTS=()
for B in 1 2 3; do
  rm -f "$TMP/bport_$B"
  ./build/tools/dvs-server --port=0 --reactors=1 --threads=0 \
    --queue=$((REQS + 64)) --cache=64 \
    --port-file="$TMP/bport_$B" > "$TMP/backend_$B.log" 2>&1 &
  CLUSTER_PIDS+=($!)
done
for B in 1 2 3; do
  for _ in $(seq 1 100); do
    [ -s "$TMP/bport_$B" ] && break
    sleep 0.1
  done
  [ -s "$TMP/bport_$B" ] || { echo "cluster backend $B never listened"; exit 1; }
  BPORTS+=("127.0.0.1:$(cat "$TMP/bport_$B")")
done
rm -f "$TMP/rport"
./build/tools/dvs-router --port=0 \
  --backends="$(IFS=,; echo "${BPORTS[*]}")" \
  --port-file="$TMP/rport" > "$TMP/router.log" 2>&1 &
CLUSTER_PIDS+=($!)
for _ in $(seq 1 100); do
  [ -s "$TMP/rport" ] && break
  sleep 0.1
done
[ -s "$TMP/rport" ] || { echo "dvs-router never listened"; exit 1; }
./build/tools/dvs-loadgen --port="$(cat "$TMP/rport")" \
  --connections=8 --rate="$RATE" --requests="$REQS" \
  --distinct="$DISTINCT" --drain-timeout-ms=120000 \
  --meta-backends=3 --benchmark_out="$TMP/row_cluster.json" > /dev/null
for P in "${CLUSTER_PIDS[@]}"; do
  kill -TERM "$P" 2>/dev/null || true
done
for P in "${CLUSTER_PIDS[@]}"; do
  wait "$P" 2>/dev/null || true
done
CLUSTER_PIDS=()

printf '{"tool":"bench_net","host_cores":%s,"build_type":"%s","git_sha":"%s","rows":[%s,%s,%s,%s]}\n' \
  "$CORES" "$BUILD_TYPE" "$GIT_SHA" \
  "$(cat "$TMP/row_1.json")" "$(cat "$TMP/row_2.json")" \
  "$(cat "$TMP/row_4.json")" "$(cat "$TMP/row_cluster.json")" > "$OUT"

echo "bench_net: wrote $OUT"
for R in 1 2 4; do
  awk -F'"done_rps":' -v r="$R" \
    '{split($2,a,","); printf "  reactors=%s  done_rps=%s\n", r, a[1]}' \
    "$TMP/row_$R.json"
done
awk -F'"done_rps":' \
  '{split($2,a,","); printf "  cluster(1 router + 3 backends)  done_rps=%s\n", a[1]}' \
  "$TMP/row_cluster.json"
