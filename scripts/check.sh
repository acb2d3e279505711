#!/usr/bin/env bash
#===- scripts/check.sh - tier-1 tests + TSan solver pass ------------------===#
#
# The repo's verification gate:
#   1. default build + full ctest suite (the tier-1 command of ROADMAP.md);
#   2. ThreadSanitizer build of the solver stack, running the LP and MILP
#      test binaries (the concurrent pieces: work-stealing branch-and-
#      bound, shared incumbent, warm-start engines);
#   3. ThreadSanitizer pass over the scheduling service (owned worker
#      threads, single-flight memos, admission queue) and the metrics/
#      trace instruments (obs_test's concurrent-increment tests), plus
#      bench_service, whose asserts prove cache-hit schedules
#      byte-identical to fresh solves and 16 concurrent duplicates
#      collapse to one MILP;
#   4. observability smoke: a dvsd batch with tracing enabled must emit
#      a Prometheus snapshot that dvs-stat --check validates (format +
#      every canonical family from scripts/metric_names.txt present)
#      and a Chrome trace with the per-job pipeline spans (sim_run
#      included); eight racing same-key jobs must collect one profile,
#      which counts exactly one simulator run per mode lane;
#   5. static analysis: dvs-lint audits every bundled workload's CFG and
#      profile (and, with --solve, certifies one MILP solution and every
#      input's unfiltered schedule), and
#      scripts/lint.sh diffs clang-tidy findings against the committed
#      baseline (scripts/clang-tidy-baseline.txt) — any NEW finding
#      fails the gate (skipped when clang-tidy is not installed);
#   6. verification round trip: dvsd re-runs the observability batch
#      under --verify=strict, so every schedule the service emits is
#      independently audited (legality + MILP certificate) and any
#      verification error fails the job, and therefore this gate;
#   7. ASan+UBSan build of the full test suite (memory errors and UB in
#      the solver arithmetic and the service lifecycle);
#   8. network round trip: dvs-server (--reactors=2) + dvs-loadgen over
#      loopback under TSan, then scripts/bench_net.sh rows at 1/2/4
#      reactors (into the temp dir; the tracked BENCH_net.json is left
#      alone) with a 5k req/s single-reactor floor
#      and, on hosts with >= 4 cores, a >= 2x-of-single-reactor floor
#      for the 4-reactor row; the reactors=1 row's schedules must be
#      byte-identical to dvsd's for the same jobs; a malformed-frame +
#      slow-client probe the server must survive; an overload probe
#      (connection churn + slowloris alongside healthy traffic) in
#      which healthy p99 stays near the unloaded baseline and the
#      attacks draw structured Rejects visible in cdvs_net_sheds_total;
#      and dvs-stat --check over the server's metrics snapshot
#      (scripts/metric_names_net.txt);
#   9. cluster failover: the cluster test binary under TSan, then a
#      kill-a-backend drill — dvs-router over three TSan dvs-servers,
#      dvs-loadgen SIGKILLs one backend mid-run and every admitted
#      request must still answer (zero unanswered) with at least one
#      eviction in the router's metrics; the dead backend then restarts
#      with --peers/--self and a hot-key rerun must warm its cache over
#      PeerFetch (cdvs_cluster_peer_fills_total >= 1), its schedules
#      byte-identical to dvsd's for the same jobs; dvs-stat --check
#      validates the router + peer-fill metric families
#      (scripts/metric_names_cluster.txt).
#  10. distributed observability: dvs-router + two traced backends in a
#      forced peer-fetch topology, dvs-loadgen stamping every request
#      with a trace id (--trace-sample-pct=100); dvs-stat --scrape then
#      pulls metrics + span rings + the flight recorder from all three
#      processes over the wire (StatsFetch), validates the merged
#      exposition against scripts/metric_names_obs.txt, assembles one
#      clock-aligned Chrome trace, and the summary must show a single
#      trace id spanning router -> backend -> peer (>= 3 processes,
#      >= 4 spans); the router's --slow-log-ms JSON lines must carry
#      verdicts and trace ids.
#  11. certified presolve: dvs-lint --static sweeps every bundled
#      workload's CFG (reachability, loop forest, irreducibility,
#      frequency intervals) under TSan, then dvsd solves the full
#      workload x tightness grid twice — --presolve=on vs
#      --presolve=off — and every emitted schedule must be
#      byte-identical across the two runs (diff -r), with the presolve
#      runs re-audited under --verify=strict so the reduction
#      certificates replay clean.
#  12. task graphs: the taskgraph test binary (including the
#      slack-reclamation determinism suite's 8-thread race) under TSan;
#      dvsd --taskgraph over the full canned DAG corpus under
#      --verify=strict at two worker counts with byte-identical
#      .taskplan files (diff -r); an end-to-end dvs-server +
#      dvs-loadgen graph-job run whose live scrape must validate every
#      canonical cdvs_taskgraph_* family
#      (scripts/metric_names_taskgraph.txt) and show
#      cdvs_taskgraph_replans_total >= 1 — online slack reclamation
#      actually re-planned on the server; and the dvs-lint --ir
#      regression — an unknown or empty --ir path in --static mode is
#      a structured usage error (exit 2), never a silent exit 0.
#
# Usage: scripts/check.sh [jobs]   (default: nproc)
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== tier-1: default build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
(cd build && ctest --output-on-failure -j"$JOBS")

echo
echo "== TSan: solver stack (lp_test, milp_test) =="
cmake --preset tsan >/dev/null
cmake --build build-tsan -j"$JOBS" --target lp_test milp_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lp_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/milp_test

echo
echo "== TSan: scheduling service (support_test, service_test, obs_test) =="
cmake --build build-tsan -j"$JOBS" --target support_test service_test obs_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/support_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/service_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/obs_test

echo
echo "== bench_service: cached == fresh, duplicates collapse =="
cmake --build build -j"$JOBS" --target bench_service
(cd build/bench && ./bench_service)

echo
echo "== observability: dvsd metrics + trace round trip =="
cmake --build build -j"$JOBS" --target dvsd dvs-stat
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
printf '%s\n' \
  '{"id":"a","workload":"gsm","tightness":0.5}' \
  '{"id":"b","workload":"gsm","tightness":0.5}' \
  '{"id":"c","workload":"adpcm","tightness":0.3}' \
  > "$OBS_TMP/jobs.jsonl"
./build/tools/dvsd --threads=2 --repeat=2 --quiet \
  --metrics-out="$OBS_TMP/metrics.prom" \
  --metrics-json="$OBS_TMP/metrics.json" \
  --trace-out="$OBS_TMP/trace.json" \
  "$OBS_TMP/jobs.jsonl"
# Prometheus format + every canonical family present.
./build/tools/dvs-stat --check --names=scripts/metric_names.txt \
  "$OBS_TMP/metrics.prom"
# The trace must carry the per-job pipeline spans.
for span in '"job"' '"profile"' '"sim_run"' '"bound"' '"solve"' '"milp_solve"'; do
  grep -q "$span" "$OBS_TMP/trace.json" \
    || { echo "trace is missing span $span"; exit 1; }
done
# The registry's JSON dump must stay parseable (obs_test proves this
# in-process; this catches drift in the dvsd wiring).
grep -q '"cdvs_stage_latency_seconds"' "$OBS_TMP/metrics.json" \
  || { echo "metrics JSON dump is missing stage latencies"; exit 1; }
# Single-flight profiles: eight jobs on one cold (workload, input, mode
# table) key, four workers racing on it, exactly one collection. That
# collection is one simulator pass with one timing lane per level, and
# each lane counts one run: a 4-level key adds exactly 4 runs.
: > "$OBS_TMP/race_jobs.jsonl"
for i in 0 1 2 3 4 5 6 7; do
  echo "{\"id\":\"race$i\",\"workload\":\"adpcm\",\"input\":\"rossini\",\"levels\":4,\"tightness\":0.$((2 + i))}" \
    >> "$OBS_TMP/race_jobs.jsonl"
done
./build/tools/dvsd --threads=4 --quiet --metrics-out="$OBS_TMP/race.prom" \
  "$OBS_TMP/race_jobs.jsonl" \
  | grep '"type":"stats"' | grep -q '"profile_cache":{"hits":[0-9]*,"misses":1,' \
  || { echo "racing same-key jobs collected the profile more than once"; exit 1; }
grep -qx 'cdvs_sim_runs_total 4' "$OBS_TMP/race.prom" \
  || { echo "a 4-level profile collection must count 4 simulator runs:"; \
       grep '^cdvs_sim_runs_total' "$OBS_TMP/race.prom"; exit 1; }

echo
echo "== static analysis: dvs-lint over the bundled workloads =="
cmake --build build -j"$JOBS" --target dvs-lint
# Every workload x input: CFG structure + profile conservation laws.
./build/tools/dvs-lint
# One solved instance end to end: schedule legality + MILP certificate.
./build/tools/dvs-lint --solve --workload=gsm --quiet
# Every workload x input unfiltered: each schedule must cost exactly
# the objective the solver claims.
./build/tools/dvs-lint --solve --filter=0 --quiet

echo
echo "== static analysis: clang-tidy vs the committed baseline =="
scripts/lint.sh build

echo
echo "== dvsd --verify=strict: every emitted schedule audits clean =="
# bench_service's job set: every bundled workload at three deadline
# tightnesses, run twice (cold solve + cached verdict). Any audit error
# fails the job under strict mode, and dvsd's exit code fails the gate.
: > "$OBS_TMP/verify_jobs.jsonl"
for w in adpcm epic gsm mpeg_decode mpg123 ghostscript; do
  for t in 0.15 0.5 0.85; do
    echo "{\"id\":\"$w@$t\",\"workload\":\"$w\",\"tightness\":$t}" \
      >> "$OBS_TMP/verify_jobs.jsonl"
  done
done
./build/tools/dvsd --threads="$JOBS" --repeat=2 --quiet --verify=strict \
  "$OBS_TMP/verify_jobs.jsonl"

echo
echo "== ASan+UBSan: full test suite =="
cmake --preset asan-ubsan >/dev/null
cmake --build build-asan-ubsan -j"$JOBS"
(cd build-asan-ubsan && ctest --output-on-failure -j"$JOBS")

echo
echo "== net: TSan loopback round trip (net_test, dvs-server + dvs-loadgen) =="
cmake --build build-tsan -j"$JOBS" --target net_test dvs-server dvs-loadgen
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/net_test
NET_TMP="$OBS_TMP/net"
mkdir -p "$NET_TMP"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvs-server \
  --port=0 --threads=2 --reactors=2 --port-file="$NET_TMP/tsan_port" \
  > "$NET_TMP/tsan_server.log" &
TSAN_SRV=$!
for _ in $(seq 1 100); do
  [ -s "$NET_TMP/tsan_port" ] && break
  sleep 0.1
done
[ -s "$NET_TMP/tsan_port" ] || { echo "TSan dvs-server never listened"; exit 1; }
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvs-loadgen \
  --port="$(cat "$NET_TMP/tsan_port")" --connections=4 --rate=1000 \
  --requests=2000 --distinct=8 \
  --benchmark_out="$NET_TMP/tsan_bench.json"
kill -TERM "$TSAN_SRV"
wait "$TSAN_SRV"

echo
echo "== net: reactor-count scaling rows (scripts/bench_net.sh) =="
cmake --build build -j"$JOBS" --target dvs-server dvs-loadgen
DISTINCT=16
# The rows go to the temp dir: the tracked BENCH_net.json is only ever
# rewritten by a deliberate scripts/bench_net.sh run.
NET_ROWS="$NET_TMP/bench_net.json"
BENCH_NET_DISTINCT="$DISTINCT" \
  scripts/bench_net.sh "$NET_ROWS" "$NET_TMP/netsched"
# The cached steady state must sustain at least 5k served req/s end to
# end on one reactor.
DONE1="$(awk -F'"done_rps":' '{split($2,a,","); printf "%s", a[1]}' \
  "$NET_ROWS")"
DONE4="$(awk -F'"done_rps":' '{split($4,a,","); printf "%s", a[1]}' \
  "$NET_ROWS")"
CORES="$(awk -F'"host_cores":' '{split($2,a,","); printf "%s", a[1]}' \
  "$NET_ROWS")"
awk -v d="$DONE1" 'BEGIN { if (d + 0 < 5000.0) {
  printf "single-reactor rate %.0f rps is below the 5000 rps floor\n", d;
  exit 1 } }'
# Reactor scaling is physical — the speedup floor only means something
# with cores to scale onto.
if [ "$CORES" -ge 4 ]; then
  awk -v d1="$DONE1" -v d4="$DONE4" 'BEGIN {
    if (d4 + 0 < 2.0 * d1) {
      printf "4-reactor rate %.0f rps is below 2x the single-reactor %.0f\n",
             d4, d1;
      exit 1 } }'
else
  echo "  ($CORES-core host: skipping the 4-reactor >= 2x floor)"
fi

echo
echo "== net: malformed-frame + slow-client probes =="
./build/tools/dvs-server --port=0 --threads="$JOBS" --reactors=2 \
  --idle-timeout-ms=500 --port-file="$NET_TMP/port" \
  --metrics-out="$NET_TMP/net_metrics.prom" \
  > "$NET_TMP/server.log" &
NET_SRV=$!
for _ in $(seq 1 100); do
  [ -s "$NET_TMP/port" ] && break
  sleep 0.1
done
[ -s "$NET_TMP/port" ] || { echo "dvs-server never listened"; exit 1; }
NET_PORT="$(cat "$NET_TMP/port")"

# A garbage frame draws a reject, then a close — and must not take the
# server down.
exec 3<>"/dev/tcp/127.0.0.1/$NET_PORT"
printf 'NOT A CDVS FRAME' >&3
timeout 5 head -c 1 <&3 >/dev/null
exec 3<&- 3>&-
# A silent client is evicted by the idle timeout, nothing more.
exec 4<>"/dev/tcp/127.0.0.1/$NET_PORT"
sleep 1
exec 4<&- 4>&-
# The server still serves after both probes.
./build/tools/dvs-loadgen --port="$NET_PORT" --connections=2 \
  --rate=1000 --requests=500 --distinct=4 \
  --benchmark_out="$NET_TMP/probe_bench.json"
kill -TERM "$NET_SRV"
wait "$NET_SRV"
grep -q '"protocol_errors":1,' "$NET_TMP/server.log" \
  || { echo "garbage frame was not counted as a protocol error"; exit 1; }
grep -q '"idle_closes":1,' "$NET_TMP/server.log" \
  || { echo "silent client was not evicted by the idle timeout"; exit 1; }

echo
echo "== net: overload probe (churn + slowloris vs healthy traffic) =="
./build/tools/dvs-server --port=0 --threads="$JOBS" --reactors=2 \
  --queue=4096 --slow-frame-timeout-ms=200 --shed-high=256 \
  --port-file="$NET_TMP/ol_port" \
  --metrics-out="$NET_TMP/ol_metrics.prom" \
  > "$NET_TMP/ol_server.log" &
OL_SRV=$!
for _ in $(seq 1 100); do
  [ -s "$NET_TMP/ol_port" ] && break
  sleep 0.1
done
[ -s "$NET_TMP/ol_port" ] || { echo "overload dvs-server never listened"; exit 1; }
OL_PORT="$(cat "$NET_TMP/ol_port")"
# Unloaded baseline: healthy traffic alone. Stringent deadlines keep
# the healthy class out of the lax shed band.
./build/tools/dvs-loadgen --port="$OL_PORT" --connections=2 \
  --rate=1000 --requests=3000 --tightness=0.3 \
  --benchmark_out="$NET_TMP/ol_base.json" > /dev/null
# The same healthy load inside a churn + slowloris storm.
./build/tools/dvs-loadgen --port="$OL_PORT" --connections=2 \
  --rate=1000 --requests=3000 --tightness=0.3 \
  --churn=2 --slowloris=4 --dribble-interval-ms=100 \
  --benchmark_out="$NET_TMP/ol_load.json" > /dev/null
kill -TERM "$OL_SRV"
wait "$OL_SRV"
# The attacks drew structured Rejects...
awk -F'"attack_rejects":' '{split($2,a,"}"); if (a[1] + 0 < 1) {
  print "slowloris clients were never rejected"; exit 1 } }' \
  "$NET_TMP/ol_load.json"
# ...the sheds are visible in the metrics snapshot...
awk '/^cdvs_net_sheds_total\{/ { total += $NF }
  END { if (total + 0 < 1) {
    print "cdvs_net_sheds_total recorded no sheds"; exit 1 } }' \
  "$NET_TMP/ol_metrics.prom"
# ...and healthy-connection p99 stayed within 2x of the unloaded
# baseline (with an absolute 20 ms guard against micro-baseline noise).
BASE_P99="$(awk -F'"p99":' '{split($2,a,","); printf "%s", a[1]}' \
  "$NET_TMP/ol_base.json")"
LOAD_P99="$(awk -F'"p99":' '{split($2,a,","); printf "%s", a[1]}' \
  "$NET_TMP/ol_load.json")"
awk -v b="$BASE_P99" -v l="$LOAD_P99" 'BEGIN {
  lim = 2.0 * b; if (lim < 0.020) lim = 0.020;
  if (l + 0 > lim) {
    printf "healthy p99 %.6fs under attack vs %.6fs unloaded (limit %.6fs)\n",
           l, b, lim;
    exit 1 } }'

# The wire serves bit-for-bit what dvsd serves: solve the same distinct
# jobs through the CLI and diff the schedule files.
: > "$NET_TMP/net_jobs.jsonl"
for k in $(seq 0 $((DISTINCT - 1))); do
  awk -v k="$k" -v n="$DISTINCT" 'BEGIN {
    printf "{\"id\":\"k%d\",\"workload\":\"gsm\",\"tightness\":%.17g}\n",
           k, 0.2 + 0.6 * k / n }' >> "$NET_TMP/net_jobs.jsonl"
done
mkdir -p "$NET_TMP/dsched"
./build/tools/dvsd --threads="$JOBS" --quiet \
  --schedules="$NET_TMP/dsched" "$NET_TMP/net_jobs.jsonl"
diff -r "$NET_TMP/netsched" "$NET_TMP/dsched" \
  || { echo "wire schedules differ from dvsd schedules"; exit 1; }

# Every canonical net metric family made it into the snapshot.
./build/tools/dvs-stat --check --names=scripts/metric_names_net.txt \
  "$NET_TMP/net_metrics.prom"

echo
echo "== cluster: TSan cluster tests + kill-a-backend failover drill =="
cmake --build build-tsan -j"$JOBS" \
  --target cluster_test dvs-router dvs-server dvs-loadgen
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/cluster_test

CL_TMP="$OBS_TMP/cluster"
mkdir -p "$CL_TMP"
CL_DISTINCT=32
CL_PIDS=()
for B in 1 2 3; do
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvs-server \
    --port=0 --threads=2 --queue=4096 \
    --port-file="$CL_TMP/b$B.port" > "$CL_TMP/b$B.log" &
  CL_PIDS+=($!)
done
BACKENDS=""
for B in 1 2 3; do
  for _ in $(seq 1 100); do
    [ -s "$CL_TMP/b$B.port" ] && break
    sleep 0.1
  done
  [ -s "$CL_TMP/b$B.port" ] \
    || { echo "cluster backend $B never listened"; exit 1; }
  BACKENDS="$BACKENDS${BACKENDS:+,}127.0.0.1:$(cat "$CL_TMP/b$B.port")"
done
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvs-router \
  --port=0 --backends="$BACKENDS" \
  --health-interval-ms=100 --fail-threshold=1 \
  --port-file="$CL_TMP/router.port" \
  --metrics-out="$CL_TMP/router.prom" > "$CL_TMP/router.log" &
CL_RTR=$!
for _ in $(seq 1 100); do
  [ -s "$CL_TMP/router.port" ] && break
  sleep 0.1
done
[ -s "$CL_TMP/router.port" ] || { echo "dvs-router never listened"; exit 1; }
CL_PORT="$(cat "$CL_TMP/router.port")"

# Kill backend 1 mid-run: its in-flight requests fail over to the next
# ring owner, and the survivors absorb its key share — zero lost
# responses is the whole point of the retry machinery.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvs-loadgen \
  --port="$CL_PORT" --connections=4 --rate=1000 --requests=2000 \
  --distinct="$CL_DISTINCT" --drain-timeout-ms=120000 \
  --kill-backend-pid="${CL_PIDS[0]}" --kill-backend-after-ms=400 \
  --benchmark_out="$CL_TMP/kill_bench.json"
grep -q '"kill_fired":true' "$CL_TMP/kill_bench.json" \
  || { echo "loadgen never killed the backend"; exit 1; }
grep -q '"unanswered":0,' "$CL_TMP/kill_bench.json" \
  || { echo "responses were lost across the backend kill"; exit 1; }

# The dead backend returns on its old port, peer-fill wired to the full
# membership; a hot-key rerun routes its keys home and the cold cache
# must fill from the interim owners over PeerFetch, not re-solve.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvs-server \
  --port="$(cat "$CL_TMP/b1.port")" --threads=2 --queue=4096 \
  --self="127.0.0.1:$(cat "$CL_TMP/b1.port")" --peers="$BACKENDS" \
  --metrics-out="$CL_TMP/b1.prom" > "$CL_TMP/b1_reborn.log" &
CL_PIDS[0]=$!
# A TSan server can take seconds to reach listen() on one CPU; wait for
# it before counting health intervals, or the hot-key replay races the
# router's reinstatement probe and no peer fill ever happens.
for _ in $(seq 1 200); do
  grep -q '"type":"listening"' "$CL_TMP/b1_reborn.log" 2>/dev/null && break
  sleep 0.1
done
grep -q '"type":"listening"' "$CL_TMP/b1_reborn.log" \
  || { echo "restarted backend never listened"; exit 1; }
sleep 1 # one health-interval round trip reinstates it
mkdir -p "$CL_TMP/rsched"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvs-loadgen \
  --port="$CL_PORT" --connections=4 --rate=1000 --requests=2000 \
  --distinct="$CL_DISTINCT" --hot-key-pct=25 --drain-timeout-ms=120000 \
  --schedules="$CL_TMP/rsched" \
  --benchmark_out="$CL_TMP/warm_bench.json"
grep -q '"unanswered":0,' "$CL_TMP/warm_bench.json" \
  || { echo "responses were lost after the backend restart"; exit 1; }

kill -TERM "$CL_RTR" 2>/dev/null || true
wait "$CL_RTR" 2>/dev/null || true
for P in "${CL_PIDS[@]}"; do
  kill -TERM "$P" 2>/dev/null || true
done
for P in "${CL_PIDS[@]}"; do
  wait "$P" 2>/dev/null || true
done

awk '/^cdvs_cluster_backend_evictions_total/ { total += $NF }
  END { if (total + 0 < 1) {
    print "the killed backend was never evicted"; exit 1 } }' \
  "$CL_TMP/router.prom"
awk '/^cdvs_cluster_peer_fills_total/ { total += $NF }
  END { if (total + 0 < 1) {
    print "the restarted backend never peer-filled its cache"; exit 1 } }' \
  "$CL_TMP/b1.prom"

# Routed schedules are bit-for-bit what dvsd emits for the same jobs.
mkdir -p "$CL_TMP/dsched"
: > "$CL_TMP/cl_jobs.jsonl"
for k in $(seq 0 $((CL_DISTINCT - 1))); do
  awk -v k="$k" -v n="$CL_DISTINCT" 'BEGIN {
    printf "{\"id\":\"k%d\",\"workload\":\"gsm\",\"tightness\":%.17g}\n",
           k, 0.2 + 0.6 * k / n }' >> "$CL_TMP/cl_jobs.jsonl"
done
./build/tools/dvsd --threads="$JOBS" --quiet \
  --schedules="$CL_TMP/dsched" "$CL_TMP/cl_jobs.jsonl"
diff -r "$CL_TMP/rsched" "$CL_TMP/dsched" \
  || { echo "cluster schedules differ from dvsd schedules"; exit 1; }

# Every canonical cluster family, across both processes' snapshots.
# Passed as separate files (not concatenated): dvs-stat parses each and
# merges like --scrape, since families shared across roles — e.g.
# cdvs_trace_dropped_total — would be duplicate series in one file.
./build/tools/dvs-stat --check --names=scripts/metric_names_cluster.txt \
  "$CL_TMP/router.prom" "$CL_TMP/b1.prom"

echo
echo "== observability: live scrape + cross-process trace (dvs-stat --scrape) =="
cmake --build build -j"$JOBS" \
  --target dvs-server dvs-router dvs-loadgen dvs-stat
TR_TMP="$OBS_TMP/tracing"
mkdir -p "$TR_TMP"
# Backend A: a plain traced solver. Backend B: traced, peer-filling
# from A. The router shards over B alone, so every key A owns reaches B
# as a non-owner and B must peer-fetch — that forces the
# router -> backend -> peer span chain the merged trace must show under
# one trace id. B needs its own address in --self before it starts, so
# grab an ephemeral port first and reuse it (the gate-9 restart idiom).
./build/tools/dvs-server --port=0 --threads=2 --trace \
  --port-file="$TR_TMP/a.port" > "$TR_TMP/a.log" &
TR_A=$!
./build/tools/dvs-server --port=0 \
  --port-file="$TR_TMP/b0.port" > /dev/null &
TR_B0=$!
for f in a.port b0.port; do
  for _ in $(seq 1 100); do
    [ -s "$TR_TMP/$f" ] && break
    sleep 0.1
  done
  [ -s "$TR_TMP/$f" ] \
    || { echo "traced backend ($f) never listened"; exit 1; }
done
TR_PA="$(cat "$TR_TMP/a.port")"
TR_PB="$(cat "$TR_TMP/b0.port")"
kill -TERM "$TR_B0"
wait "$TR_B0"
./build/tools/dvs-server --port="$TR_PB" --threads=2 --trace \
  --self="127.0.0.1:$TR_PB" \
  --peers="127.0.0.1:$TR_PA,127.0.0.1:$TR_PB" \
  --port-file="$TR_TMP/b.port" > "$TR_TMP/b.log" &
TR_B=$!
./build/tools/dvs-router --port=0 --backends="127.0.0.1:$TR_PB" \
  --trace --slow-log-ms=1 --slow-log="$TR_TMP/slow.jsonl" \
  --port-file="$TR_TMP/r.port" > "$TR_TMP/r.log" &
TR_R=$!
for f in b.port r.port; do
  for _ in $(seq 1 100); do
    [ -s "$TR_TMP/$f" ] && break
    sleep 0.1
  done
  [ -s "$TR_TMP/$f" ] \
    || { echo "traced cluster ($f) never listened"; exit 1; }
done
TR_PORT="$(cat "$TR_TMP/r.port")"

# Every request carries a fresh trace id; zero lost answers.
./build/tools/dvs-loadgen --port="$TR_PORT" --connections=4 \
  --rate=500 --requests=200 --distinct=16 --trace-sample-pct=100 \
  --drain-timeout-ms=120000 \
  --benchmark_out="$TR_TMP/trace_bench.json"
grep -q '"unanswered":0,' "$TR_TMP/trace_bench.json" \
  || { echo "responses were lost in the traced run"; exit 1; }
grep -q '"traced_sent":200' "$TR_TMP/trace_bench.json" \
  || { echo "loadgen did not stamp every request with a trace id"; exit 1; }

# Scrape all three live processes over the wire and merge.
# stderr holds the (expected) notes about families outside the obs
# list — merged scrapes see every family of every role; surfaced only
# on failure.
./build/tools/dvs-stat \
  --scrape "127.0.0.1:$TR_PORT,127.0.0.1:$TR_PA,127.0.0.1:$TR_PB" \
  --check --names=scripts/metric_names_obs.txt \
  --merge-trace="$TR_TMP/merged_trace.json" > "$TR_TMP/scrape.out" \
  2> "$TR_TMP/scrape.err" \
  || { cat "$TR_TMP/scrape.out" "$TR_TMP/scrape.err"
       echo "scrape --check failed"; exit 1; }

kill -TERM "$TR_R" 2>/dev/null || true
wait "$TR_R" 2>/dev/null || true
for PROC in "$TR_A" "$TR_B"; do
  kill -TERM "$PROC" 2>/dev/null || true
done
for PROC in "$TR_A" "$TR_B"; do
  wait "$PROC" 2>/dev/null || true
done

# One trace id must span the whole chain: the router's route span, the
# backend's frame/job spans, and the peer's peer_serve — >= 3 processes
# and >= 4 spans on the best trace, with a real 128-bit id.
grep -Eq '"top_trace":\{"id":"[0-9a-f]{32}"' "$TR_TMP/scrape.out" \
  || { echo "scrape summary has no 128-bit top trace id"; exit 1; }
awk -F'"top_trace":' 'NR==1 {
  split($2, s, "\"spans\":"); split(s[2], sv, ",");
  split($2, p, "\"procs\":"); split(p[2], pv, "}");
  if (sv[1] + 0 < 4 || pv[1] + 0 < 3) {
    printf "top trace spans=%s procs=%s (need >= 4 spans, >= 3 procs)\n",
           sv[1], pv[1];
    exit 1 } }' "$TR_TMP/scrape.out"
# Ring saturation is surfaced even when zero.
grep -q '"trace_dropped_total":' "$TR_TMP/scrape.out" \
  || { echo "scrape summary does not surface trace_dropped"; exit 1; }
# The merged Chrome trace names all three processes and carries the
# cross-process chain's spans on one timeline.
for span in '"route"' '"frame"' '"peer_fill"' '"peer_serve"' \
            '"dvs-router"' '"dvs-server"'; do
  grep -q "$span" "$TR_TMP/merged_trace.json" \
    || { echo "merged trace is missing $span"; exit 1; }
done
# The router's slow log dumped structured records with verdicts.
[ -s "$TR_TMP/slow.jsonl" ] \
  || { echo "the router slow log is empty"; exit 1; }
grep -q '"verdict":"response"' "$TR_TMP/slow.jsonl" \
  || { echo "the slow log has no response verdicts"; exit 1; }
grep -Eq '"trace_id":"[0-9a-f]{32}"' "$TR_TMP/slow.jsonl" \
  || { echo "the slow log records carry no trace ids"; exit 1; }

echo
echo "== presolve: static CFG sweep + on/off byte-identity (TSan) =="
cmake --build build-tsan -j"$JOBS" --target dvs-lint dvsd
# Every bundled workload's CFG through the full static audit: dominator
# trees, loop forest, irreducibility, dead blocks, frequency intervals.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvs-lint --static
PS_TMP="$OBS_TMP/presolve"
mkdir -p "$PS_TMP/on" "$PS_TMP/off"
# The gate-6 grid again: every workload at three tightnesses. The
# presolve may only remove structurally-irrelevant MILP columns, so the
# schedules it emits must be byte-for-byte those of the full instance.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvsd \
  --threads="$JOBS" --quiet --presolve=on --verify=strict \
  --schedules="$PS_TMP/on" "$OBS_TMP/verify_jobs.jsonl"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/dvsd \
  --threads="$JOBS" --quiet --presolve=off \
  --schedules="$PS_TMP/off" "$OBS_TMP/verify_jobs.jsonl"
diff -r "$PS_TMP/on" "$PS_TMP/off" \
  || { echo "presolve changed an emitted schedule"; exit 1; }

echo
echo "== task graphs: TSan suite + strict round trip + live replan metrics =="
cmake --build build-tsan -j"$JOBS" --target taskgraph_test
# The slack-reclamation determinism suite — including the 8-thread race
# on runOnline — under ThreadSanitizer.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/taskgraph_test
TG_TMP="$OBS_TMP/taskgraph"
mkdir -p "$TG_TMP/t1" "$TG_TMP/tN" "$TG_TMP/wire"
cmake --build build -j"$JOBS" \
  --target dvsd dvs-server dvs-loadgen dvs-stat dvs-lint
# The full canned DAG corpus, strictly verified, at two worker counts:
# every emitted .taskplan must audit clean and be byte-identical across
# the counts (the determinism contract at the CLI layer).
./build/tools/dvsd --taskgraph --verify=strict --quiet --threads=1 \
  --schedules="$TG_TMP/t1"
./build/tools/dvsd --taskgraph --verify=strict --quiet --threads="$JOBS" \
  --schedules="$TG_TMP/tN"
diff -r "$TG_TMP/t1" "$TG_TMP/tN" \
  || { echo "task plans differ across dvsd worker counts"; exit 1; }
# End to end over the wire: graph jobs through dvs-server, then a live
# scrape that must validate every canonical cdvs_taskgraph_* family and
# show that online slack reclamation actually re-planned.
./build/tools/dvs-server --port=0 --threads=2 --reactors=2 \
  --verify=strict --port-file="$TG_TMP/port" > "$TG_TMP/server.log" &
TG_SRV=$!
for _ in $(seq 1 100); do
  [ -s "$TG_TMP/port" ] && break
  sleep 0.1
done
[ -s "$TG_TMP/port" ] \
  || { echo "taskgraph dvs-server never listened"; exit 1; }
TG_PORT="$(cat "$TG_TMP/port")"
./build/tools/dvs-loadgen --port="$TG_PORT" --connections=2 --rate=500 \
  --requests=8 --graph=pair2-early --graph=chain4-early \
  --schedules="$TG_TMP/wire" \
  --benchmark_out="$TG_TMP/taskgraph_bench.json"
./build/tools/dvs-stat --scrape="127.0.0.1:$TG_PORT" --check \
  --names=scripts/metric_names_taskgraph.txt > "$TG_TMP/scrape.out" \
  2> "$TG_TMP/scrape.err" \
  || { cat "$TG_TMP/scrape.out" "$TG_TMP/scrape.err"
       echo "taskgraph scrape --check failed"; exit 1; }
# A second scrape without --check renders the family table; the replan
# counter must show the online loop actually re-solved on the server.
./build/tools/dvs-stat --scrape="127.0.0.1:$TG_PORT" \
  > "$TG_TMP/table.out" 2> /dev/null
awk -F'|' '/cdvs_taskgraph_replans_total/ {
    gsub(/ /, "", $5); found = 1
    if ($5 + 0 < 1) {
      printf "expected cdvs_taskgraph_replans_total >= 1, got %s\n", $5
      exit 1 } }
  END { if (!found) {
    print "scrape shows no cdvs_taskgraph_replans_total"; exit 1 } }' \
  "$TG_TMP/table.out"
kill -TERM "$TG_SRV"
wait "$TG_SRV"
# The wire plans are the same bytes dvsd emitted for the same graphs.
for f in "$TG_TMP/wire"/*.taskplan; do
  cmp "$f" "$TG_TMP/t1/$(basename "$f")" \
    || { echo "wire task plan differs from dvsd's"; exit 1; }
done
# dvs-lint regression: a bad --ir in --static mode is a structured
# usage error (exit 2) naming the path — never a silent exit 0 that
# falls through to the bundled-workload audit.
for BAD_IR in /nonexistent/probe.ir ""; do
  set +e
  ./build/tools/dvs-lint --static --ir="$BAD_IR" > "$TG_TMP/lint.out" 2>&1
  LINT_RC=$?
  set -e
  [ "$LINT_RC" -eq 2 ] \
    || { cat "$TG_TMP/lint.out"
         echo "dvs-lint --ir='$BAD_IR' exited $LINT_RC, want 2"; exit 1; }
  grep -q "error:" "$TG_TMP/lint.out" \
    || { echo "dvs-lint --ir='$BAD_IR' printed no structured error"
         exit 1; }
done

echo
echo "All checks passed."
