#!/usr/bin/env python3
"""End-to-end serving benchmark of the cdvs scheduling server.

    python3 servbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RECORD.json] [--smoke]

Builds dvs-server, dvs-router and the benchmark's own load driver from the
sources in this checkout (servbench/CMakeLists.txt), starts the servers as
child processes with --verify=strict and presolve on, drives them over
cdvs-wire from one single-threaded epoll process (servbench-drive), checks
every returned schedule against an in-process reference, and prints one
JSON result as the last stdout line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
BENCHMARK.json and servbench/NOTES.md for definitions). The seed only
shapes the generated requests; the programs receive nothing else. Results
are written to a file only when --out names one.
"""

import argparse
import json
import os
import random
import select
import signal
import socket
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
NPROC = os.cpu_count() or 1
TICKS = os.sysconf("SC_CLK_TCK")

# Per-workload settings. Server flags are fixed here and recorded with
# every result. `rate` is the open-loop offered rate, 15-25% of the
# closed-loop peak measured when the benchmark was defined; `window` is
# the latency window in requests, about 50-80 ms of traffic (see
# NOTES.md). Server-side threads plus the driver stay within nproc.
COMMON_SERVER = {"verify": "strict", "idle-timeout-ms": 0}
WORKLOADS = {
    "warm_hits": {
        "why": "every timed request is a primed result-cache hit: the warm "
               "ceiling; net, service and fingerprint do all the work",
        # The queue holds 200 ms of the open-loop rate: a stall of the
        # host is then measured as latency, not failed as rejects.
        "server": {"reactors": 1, "threads": 2, "queue": 4096, "cache": 4096},
        "depth": 16, "rate": 20000.0, "window": 1000, "tightnesses": 16,
    },
    "miss_solve": {
        "why": "profiles primed, every timed request a fresh tightness that "
               "misses the cache: fingerprint, presolve, B&B, verify",
        "server": {"reactors": 1, "threads": 2, "queue": 1024, "cache": 256},
        "depth": 1, "rate": 2500.0, "window": 200, "tightnesses": 200,
    },
    "cold_batch": {
        "why": "fresh server per batch, nproc clients awaiting replies: "
               "simulator profiling does ~all the work",
        "server": {"reactors": 1, "threads": NPROC, "queue": 256,
                   "cache": 512},
        "tightnesses": 3,
    },
    "cluster_hits": {
        "why": "warm_hits keys through dvs-router over two single-reactor "
               "backends: isolates the router hop",
        "server": {"reactors": 1, "threads": 1, "queue": 1024, "cache": 4096},
        # A stalled host can hold a Pong past the default 500 ms probe
        # deadline three times running; the eviction that follows moves
        # half the keys to a cold owner. Failover is not what this
        # workload measures.
        "router": {"vnodes": 64, "health-interval-ms": 5000},
        "backends": 2, "depth": 16, "rate": 10000.0, "window": 500,
        "tightnesses": 16,
    },
}
SETUPS = 5          # set-ups per run; setup_s is their median
COLD_EXTRA_SPAWNS = 19
TRACE_EVERY = 8     # traced runs stamp every 8th request with a trace id
# Simulator runs one profile collection needs, by level table (0 is the
# three-mode XScale table).
MODE_RUNS = {0: 3, 2: 2, 3: 3, 4: 4}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build

def build(build_dir):
    src = os.path.join(ROOT, "src", "net", "Wire.h")
    if not os.path.exists(src) or not os.path.exists(
            os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no cdvs sources next to servbench/; run from a "
                         "full checkout")
    os.makedirs(build_dir, exist_ok=True)
    logf = os.path.join(build_dir, "build.log")
    with open(logf, "a") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
        r = subprocess.run(["cmake", "--build", build_dir, "-j", str(NPROC),
                            "--target", "servbench-drive", "dvs-server",
                            "dvs-router"],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
    if r.returncode != 0:
        with open(logf) as f:
            tail = f.read()[-3000:]
        raise BenchError("build failed (see %s):\n%s" % (logf, tail))
    tools = os.path.join(build_dir, "cdvs", "tools")
    return {"drive": os.path.join(build_dir, "servbench-drive"),
            "server": os.path.join(tools, "dvs-server"),
            "router": os.path.join(tools, "dvs-router")}


# --------------------------------------------------------------------------
# Request generation (the seed's only consumer)

def profile_groups(rng, catalog):
    """One (workload, input, levels) profile key per shipped workload
    input, the level tables {0, 2, 3, 4} dealt in catalog order. The keys
    are the same for every seed, which shapes only their order and the
    tightnesses: profiling cost differs by up to 10x between keys, and a
    seeded deal would make the seed, not the program, set the figures."""
    combos = [(w, i) for w in sorted(catalog) for i in catalog[w]]
    groups = [(w, i, (0, 2, 3, 4)[k % 4]) for k, (w, i) in enumerate(combos)]
    rng.shuffle(groups)
    return groups


def req_json(w, inp, levels, t):
    return json.dumps({"workload": w, "input": inp, "levels": levels,
                       "tightness": t}, separators=(",", ":"))


def fresh_tightnesses(rng, n, used):
    out = []
    while len(out) < n:
        t = round(rng.uniform(0.1, 0.9), 6)
        if t not in used:
            used.add(t)
            out.append(t)
    return out


def needed_sim_runs(lines):
    """Simulator runs that collecting each distinct profile key of
    `lines` once takes."""
    groups = {(d["workload"], d["input"], d["levels"])
              for d in map(json.loads, lines)}
    return sum(MODE_RUNS[l] for _, _, l in groups)


def make_keys(workload, rng, catalog, smoke):
    spec = WORKLOADS[workload]
    groups = profile_groups(rng, catalog)
    if smoke:
        groups = groups[:3]
    # miss_solve keeps its full key count: it must outnumber the cache.
    n_t = spec["tightnesses"]
    if smoke and workload != "miss_solve":
        n_t = min(n_t, 4)
    used = set()
    leaders = [req_json(w, i, l, t) for (w, i, l), t in
               zip(groups, fresh_tightnesses(rng, len(groups), used))]
    keys = []
    for (w, i, l) in groups:
        keys += [req_json(w, i, l, t) for t in fresh_tightnesses(rng, n_t,
                                                                  used)]
    if workload in ("warm_hits", "cluster_hits"):
        keys = leaders + keys  # primed and timed alike
    return groups, leaders, keys


# --------------------------------------------------------------------------
# Processes, /proc and StatsFetch

class Proc:
    def __init__(self, argv, name, logdir):
        self.name = name
        self.err = open(os.path.join(logdir, name + ".log"), "w")
        self.t0 = time.monotonic()
        self.p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                  stderr=self.err)
        line = self._readline(30.0)
        try:
            self.port = json.loads(line)["port"]
        except (ValueError, KeyError, TypeError):
            self.stop()
            raise BenchError("%s did not report a port: %r" % (name, line))
        self.listen_s = time.monotonic() - self.t0

    def _readline(self, timeout):
        fd = self.p.stdout.fileno()
        buf = b""
        end = time.monotonic() + timeout
        while not buf.endswith(b"\n"):
            left = end - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return buf.decode(errors="replace")
            chunk = os.read(fd, 1)
            if not chunk:
                break
            buf += chunk
        return buf.decode(errors="replace")

    def cpu_s(self):
        with open("/proc/%d/stat" % self.p.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / TICKS

    def hwm_mb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, kill=False):
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
            try:
                self.p.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        self.p.stdout.close()
        self.err.close()


def host_steal_s():
    """CPU seconds the hypervisor took from this host's vCPUs so far
    (steal column of /proc/stat). Recorded so that a run measured while
    the host was taken away shows it."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / TICKS


def frame(ftype, corr, payload=b""):
    return (b"CDVS" + struct.pack("<BBBBQI", 1, ftype, 0, 0, corr,
                                  len(payload)) + payload)


def recv_exact(sock, n):
    out = bytearray()
    while len(out) < n:
        chunk = sock.recv(n - len(out))
        if not chunk:
            raise BenchError("connection closed during scrape")
        out += chunk
    return bytes(out)


def scrape(port):
    """StatsFetch one process: (parsed metrics, trace events)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(frame(8, 1))
        while True:
            hdr = recv_exact(s, 20)
            if hdr[:4] != b"CDVS":
                raise BenchError("bad frame from scrape")
            ftype, ext = hdr[5], hdr[6]
            corr, length = struct.unpack("<QI", hdr[8:20])
            recv_exact(s, ext)
            payload = recv_exact(s, length)
            if ftype == 9 and corr == 1:
                break
    d = json.loads(payload)
    return parse_prom(d.get("metrics", "")), d.get("trace", {}).get(
        "traceEvents", [])


def parse_prom(text):
    """Prometheus text -> {family_sample_name: summed value}; gauges that
    carry a max (completion queue depth) are summed too, which over one
    process's reactors is an upper bound on the deepest batch."""
    out = {}
    for line in text.splitlines():
        if not line or line[0] == "#":
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        try:
            out[name] = out.get(name, 0.0) + float(value)
        except ValueError:
            pass
    return out


def delta(after, before, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


def sum_counters(scrapes):
    tot = {}
    for s in scrapes:
        for k, v in s.items():
            tot[k] = tot.get(k, 0.0) + v
    return tot


# --------------------------------------------------------------------------
# Deployments

def server_argv(tools, flags, trace):
    argv = [tools["server"], "--port=0"]
    for k, v in sorted({**COMMON_SERVER, **flags}.items()):
        argv.append("--%s=%s" % (k, v))
    if trace:
        argv.append("--trace")
    return argv


class Deployment:
    """The server-side processes of one workload; `port` is where the
    driver connects (the router in cluster mode)."""

    def __init__(self, workload, tools, logdir, trace, tag):
        spec = WORKLOADS[workload]
        self.procs = []
        try:
            if "router" in spec:
                backends = []
                for b in range(spec["backends"]):
                    p = Proc(server_argv(tools, spec["server"], trace),
                             "%s-backend%d" % (tag, b), logdir)
                    self.procs.append(p)
                    backends.append("127.0.0.1:%d" % p.port)
                argv = [tools["router"], "--port=0",
                        "--backends=" + ",".join(backends)]
                argv += ["--%s=%s" % kv for kv in sorted(spec["router"].items())]
                if trace:
                    argv.append("--trace")
                self.router = Proc(argv, tag + "-router", logdir)
                self.procs.append(self.router)
            else:
                self.router = None
                self.procs.append(Proc(server_argv(tools, spec["server"],
                                                   trace), tag + "-server",
                                       logdir))
        except BaseException:
            self.stop()
            raise
        self.port = self.procs[-1].port

    def cpu_s(self):
        return sum(p.cpu_s() for p in self.procs)

    def hwm_mb(self):
        return max(p.hwm_mb() for p in self.procs)

    def scrape(self):
        return [scrape(p.port) for p in self.procs]

    def stop(self, kill=False):
        for p in reversed(self.procs):
            p.stop(kill)


def drive(tools, args, what):
    r = subprocess.run([tools["drive"]] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=170)
    if r.stderr.strip():
        log(r.stderr.strip())
    if r.returncode != 0:
        raise BenchError("%s: driver exited %d" % (what, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def prime(tools, dep, rundir, leaders, keys):
    """Leaders first (one per profile key, so no two requests race on a
    collection), then every key; all must come back done. Sorted, the
    leaders come in the same profile-key order for every seed: the order
    in which the workers pick up collections of 24-580 ms sets the
    set-up's wall time."""
    for name, lines in (("leaders", sorted(leaders)), ("prime", keys)):
        out = drive(tools, ["load", "--port=%d" % dep.port, "--batch",
                            "--keys=" + write_lines(
                                os.path.join(rundir, name + ".jsonl"), lines)],
                    "priming")
        if out["failed"]:
            raise BenchError("priming failed: %s" %
                             json.dumps(out["phases"][0]["fail_reasons"]))


def screen(tools, rundir, lines, result):
    """The oracle's reference result for every distinct request. The
    program fails a rare few itself (strict verify, see NOTES.md): those
    are left out of the run, and more than 1% of them fails it."""
    lines = list(dict.fromkeys(lines))
    ref = os.path.join(rundir, "reference.tsv")
    out = drive(tools, ["screen", "--reference-out=" + ref, "--keys=" +
                        write_lines(os.path.join(rundir, "candidates.jsonl"),
                                    lines)], "reference")
    with open(ref) as f:
        good = {line.split("\t", 1)[0] for line in f}
    result["excluded_keys"] = out["excluded"]
    if out["excluded"] > 0.01 * len(lines):
        result["problems"].append("%d of %d requests fail in the reference"
                                  % (out["excluded"], len(lines)))
    return good, ref


# --------------------------------------------------------------------------
# Trace analysis

SPAN_LAYER = {
    "frame": "net", "peer_serve": "net",
    "admit": "service", "job": "service", "cache_wait": "service",
    "profile": "profile", "sim_run": "profile", "analyze": "analysis",
    "bound": "milp", "milp_solve": "milp", "peer_fill": "milp",
    "solve": "dvs", "serialize": "dvs", "verify": "verify",
    "route": "cluster",
}
LAYERS = ["gen", "unattributed", "net", "service", "profile", "analysis",
          "milp", "dvs", "verify", "cluster"]


def union_len(intervals, lo, hi):
    spans = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0, None, None
    for a, b in spans:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans_path, events_by_role):
    """Per traced request, each layer's self time (ns): a span's duration
    minus the part its descendants cover. The driver's root span (due ->
    answer parsed) keeps what no program span covers: wire, kernel and
    queue waits ("unattributed")."""
    by_trace = {}
    for role, events in events_by_role:
        for e in events:
            tid = e.get("trace_id")
            if e.get("ph") != "X" or not tid or set(tid) == {"0"}:
                continue
            start = int(round(float(e["ts"]) * 1000))
            span = {"id": e.get("span_id"), "parent": e.get("parent_span_id"),
                    "a": start, "b": start + int(round(float(e["dur"]) * 1000)),
                    "layer": "cluster" if role == "router" else
                             SPAN_LAYER.get(e.get("name"), "service")}
            by_trace.setdefault(tid, []).append(span)
    rows, route_self = [], []
    with open(spans_path) as f:
        for line in f:
            d = json.loads(line)
            spans = by_trace.get(d["trace_id"])
            if not spans or not any(s["parent"] == d["root"] for s in spans):
                continue  # the trace ring already overwrote this request
            root = {"id": d["root"], "parent": None, "a": d["due"],
                    "b": max(d["done"], d["parse_end"]),
                    "layer": "unattributed"}
            gen = [{"id": "g%d" % i, "parent": d["root"], "a": a, "b": b,
                    "layer": "gen"} for i, (a, b) in enumerate(
                        [(d["sent"], d["send_end"]),
                         (d["recv_begin"], d["parse_end"])])]
            allspans = [root] + gen + spans
            kids = {}
            for s in allspans:
                kids.setdefault(s["parent"], []).append(s)

            def subtree(s):
                out, stack = [], list(kids.get(s["id"], []))
                while stack:
                    c = stack.pop()
                    out.append((c["a"], c["b"]))
                    stack += kids.get(c["id"], [])
                return out
            row = dict.fromkeys(LAYERS, 0)
            for s in allspans:
                own = max(0, s["b"] - s["a"]) - union_len(subtree(s), s["a"],
                                                          s["b"])
                row[s["layer"]] += own
                if s["layer"] == "cluster" and s["parent"] == d["root"]:
                    route_self.append(own)
            rows.append(row)
    return rows, route_self


# --------------------------------------------------------------------------
# Statistics

def pct(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(int(q * len(v)), len(v) - 1)]


def median(values):
    return pct(values, 0.5)


def tail_percentile(n):
    """Highest whole percentile that leaves at least ten samples above."""
    for p in range(99, 0, -1):
        if n - int(p / 100.0 * n) - 1 >= 10:
            return p
    return 50


# --------------------------------------------------------------------------
# Workloads

def run_serving(workload, tools, rundir, seed, seconds, rng, catalog, trace,
                smoke, result):
    spec = WORKLOADS[workload]
    groups, leaders, keys = make_keys(workload, rng, catalog, smoke)
    good, ref = screen(tools, rundir, leaders + keys, result)
    leaders = [k for k in leaders if k in good]
    keys = [k for k in keys if k in good]
    miss = workload == "miss_solve"
    prime_keys = leaders if miss else keys
    keys_path = write_lines(os.path.join(rundir, "keys.jsonl"), keys)
    setups = 1 if (smoke or trace) else SETUPS
    closed_s, open_s = 0.4 * seconds, 0.6 * seconds

    setup, dep = [], None
    try:
        for i in range(setups):
            t0 = time.monotonic()
            dep = Deployment(workload, tools, rundir, False, "s%d" % i)
            prime(tools, dep, rundir, leaders, prime_keys)
            setup.append(time.monotonic() - t0)
            if i + 1 < setups:
                dep.stop()
                dep = None
        before = dep.scrape()
        cpu0, w0, steal0 = dep.cpu_s(), time.monotonic(), host_steal_s()
        router_cpu0 = dep.router.cpu_s() if dep.router else 0.0
        out = drive(tools, [
            "load", "--port=%d" % dep.port, "--keys=" + keys_path,
            "--shuffle-seed=%d" % (seed + 1),
            "--closed-seconds=%g" % closed_s, "--depth=%d" % spec["depth"],
            "--open-seconds=%g" % open_s, "--rate=%g" % spec["rate"],
            "--window=%d" % spec["window"], "--reference=" + ref],
            "timed phases")
        cpu_s = dep.cpu_s() - cpu0
        wall = time.monotonic() - w0
        result["host_steal_vcpu"] = (host_steal_s() - steal0) / wall
        router_busy = ((dep.router.cpu_s() - router_cpu0) / wall
                       if dep.router else 0.0)
        after = dep.scrape()
        hwm = dep.hwm_mb()
        closed, opened = out["phases"]
        result["tail_percentile"] = opened["tail_percentile"]
        done = closed["done"] + opened["done"]
        result["attempted"] = out["sent"]
        result["failed"] = out["failed"]
        for ph in out["phases"]:
            if ph["failed"]:
                result["problems"].append("%d failed requests in the %s "
                                          "phase: %s" % (ph["failed"],
                                                         ph["mode"],
                                                         ph["fail_reasons"]))
        if out["gen_late"]:
            result["problems"].append("generator fell behind its schedule")
        if out["oracle_mismatches"]:
            result["problems"].append("schedules differ from the reference")
        if out["oracle_checked"] < len(keys):
            result["problems"].append("only %d of %d keys answered" % (
                out["oracle_checked"], len(keys)))
        e2e = {
            "setup_s": median(setup),
            "peak_rps": closed["done_rps"],
            "p50_ms": opened["lat_p50_ms"],
            "tail_ms": opened["lat_tail_windowed_ms"],
            "done_ratio": (done - out["oracle_mismatches"]) / max(1, out["sent"]),
            "cpu_ms_per_req": 1000.0 * cpu_s / max(1, done),
            "peak_rss_mb": hwm,
        }
        b = sum_counters([m for m, _ in before])
        a = sum_counters([m for m, _ in after])
        hits = delta(a, b, "cdvs_cache_hits_total")
        misses = delta(a, b, "cdvs_cache_misses_total")
        sim_runs = delta(a, b, "cdvs_sim_runs_total")
        if miss and (sim_runs or hits):
            result["problems"].append(
                "miss_solve invariant: %d sim runs, %d cache hits in the "
                "timed phases" % (sim_runs, hits))
        if not miss and (sim_runs or misses):
            result["problems"].append(
                "%s invariant: %d sim runs, %d cache misses in the timed "
                "phases" % (workload, sim_runs, misses))
        evictions = delta(a, b, "cdvs_cluster_backend_evictions_total")
        if evictions:
            result["problems"].append("the router evicted a backend %d "
                                      "times in the timed phases" % evictions)
        solves = delta(a, b, "cdvs_milp_solves_total")
        layer = {
            "net.overhead_ms.p50": opened["overhead_p50_ms"],
            "net.overhead_ms.p99": opened["overhead_p99_ms"],
            "net.completion_queue_depth.peak":
                a.get("cdvs_net_completion_queue_depth", 0.0),
            "service.queue_ms.p50": opened["queue_p50_ms"],
            "service.queue_ms.p99": opened["queue_p99_ms"],
            "service.total_ms.p50": opened["total_p50_ms"],
            "service.rejects": delta(a, b, "cdvs_jobs_rejected_total"),
            "cache.hit_ratio": hits / max(1.0, hits + misses),
            "cache.shared_ratio":
                delta(a, b, "cdvs_cache_shared_flights_total") /
                max(1.0, hits + misses),
            "cache.evictions": delta(a, b, "cdvs_cache_evictions_total"),
            "profile.ms.p50": opened["profile_p50_ms"],
            "sim.runs": sim_runs,
            # No simulator runs in the timed phases: the ratio covers the
            # deployment's lifetime, i.e. the priming collections.
            "sim.useful_ratio": needed_sim_runs(prime_keys) /
                max(1.0, a.get("cdvs_sim_runs_total", 0.0)),
            "milp.solve_ms.p50": opened["solve_p50_ms"],
            "milp.solve_ms.p99": opened["solve_p99_ms"],
            "milp.nodes_per_solve":
                delta(a, b, "cdvs_milp_nodes_total") / max(1.0, solves),
            "milp.presolve_vars_fixed":
                delta(a, b, "cdvs_presolve_vars_fixed_total") /
                max(1.0, solves),
            "verify.ms.p50": opened["verify_p50_ms"],
            "cluster.router_cpu_busy": router_busy,
            "cluster.retries": delta(a, b, "cdvs_cluster_retries_total"),
            "cluster.rejects": delta(a, b, "cdvs_cluster_rejects_total"),
            "gen.late_ms.p99": opened["late_p99_ms"],
            "gen.cpu_busy": out["gen_cpu_busy"],
        }
        result["phases"] = out["phases"]
        peak = closed["done_rps"]
    finally:
        if dep:
            dep.stop()

    if trace:
        # Overload probe: offer more than the closed loop's peak. The
        # driver must finish (every request answered, rejects allowed).
        dep = Deployment(workload, tools, rundir, False, "overload")
        try:
            prime(tools, dep, rundir, leaders, prime_keys)
            over = drive(tools, [
                "load", "--port=%d" % dep.port, "--keys=" + keys_path,
                "--overload-rate=%g" % (1.5 * peak)], "overload")
            result["overload"] = over["overload"]
            if over["overload"]["unanswered"]:
                result["problems"].append("overload probe left %d requests "
                                          "unanswered" %
                                          over["overload"]["unanswered"])
        finally:
            dep.stop()
        traced_layers(workload, tools, rundir, keys_path, leaders,
                      prime_keys, seed, spec["rate"], min(2.0, open_s),
                      e2e["p50_ms"], layer, False)
    return e2e, layer


def traced_layers(workload, tools, rundir, keys_path, leaders, prime_keys,
                  seed, rate, seconds, untraced_p50, layer, batch):
    """Re-runs the latency phase on servers started with --trace, stamps
    every TRACE_EVERY-th request, scrapes the span rings and folds them
    into per-layer self times."""
    dep = Deployment(workload, tools, rundir, True, "traced")
    spans = os.path.join(rundir, "spans.jsonl")
    try:
        if batch:
            out = drive(tools, ["load", "--port=%d" % dep.port,
                                "--keys=" + keys_path, "--batch",
                                "--trace-every=1", "--spans-out=" + spans],
                        "traced batch")
            p50 = out["phases"][0]["lat_p50_ms"]
        else:
            prime(tools, dep, rundir, leaders, prime_keys)
            out = drive(tools, [
                "load", "--port=%d" % dep.port, "--keys=" + keys_path,
                "--shuffle-seed=%d" % (seed + 2),
                "--open-seconds=%g" % seconds, "--rate=%g" % rate,
                "--window=%d" % WORKLOADS[workload]["window"],
                "--trace-every=%d" % TRACE_EVERY, "--spans-out=" + spans],
                "traced phase")
            p50 = out["phases"][0]["lat_p50_ms"]
        scraped = [("router" if dep.router is p else "server", s[1])
                   for p, s in zip(dep.procs, dep.scrape())]
    finally:
        dep.stop()
    rows, route_self = self_times(spans, scraped)
    for name in LAYERS:
        layer[name + ".self_ms"] = median([r[name] for r in rows]) * 1e-6
    layer["cluster.overhead_ms.p50"] = median(route_self) * 1e-6
    layer["cluster.overhead_ms.p99"] = pct(route_self, 0.99) * 1e-6
    layer["trace.overhead_ms"] = p50 - untraced_p50
    layer["trace.requests"] = float(len(rows))


def run_cold(tools, rundir, seed, seconds, rng, catalog, trace, smoke,
             result):
    groups, _, keys = make_keys("cold_batch", rng, catalog, smoke)
    good, ref = screen(tools, rundir, keys, result)
    # Each key's tightnesses stay next to each other, so concurrent clients
    # race on one profile key. Every batch deals the keys in a fresh seeded
    # order: which collection comes last sets a batch's wall time.
    per = len(keys) // len(groups)
    blocks = [[k for k in keys[g * per:(g + 1) * per] if k in good]
              for g in range(len(groups))]
    keys_path = os.path.join(rundir, "keys.jsonl")
    needed = needed_sim_runs([k for b in blocks for k in b])
    setup, lat, walls, cpu, hwm = [], [], [], 0.0, 0.0
    batches, sent, failed, runs, problems = [], 0, 0, 0.0, []
    gen_busy, steal, timed_s = [], 0.0, 0.0
    layer = {}
    # A cold set-up is only spawn-to-listening, a few milliseconds: time
    # extra spawns beside the batch servers so the median is steady.
    for i in range(0 if smoke else COLD_EXTRA_SPAWNS):
        t0 = time.monotonic()
        Deployment("cold_batch", tools, rundir, False, "spawn").stop(True)
        setup.append(time.monotonic() - t0)
    t_start = time.monotonic()
    n_batches = 1 if smoke else 0
    while True:
        rng.shuffle(blocks)
        write_lines(keys_path, [k for b in blocks for k in b])
        t0 = time.monotonic()
        dep = Deployment("cold_batch", tools, rundir, False, "b%d" % len(walls))
        setup.append(time.monotonic() - t0)
        try:
            before = dep.scrape()
            cpu0, w0, steal0 = dep.cpu_s(), time.monotonic(), host_steal_s()
            out = drive(tools, ["load", "--port=%d" % dep.port,
                                "--keys=" + keys_path, "--batch",
                                "--reference=" + ref], "batch")
            cpu += dep.cpu_s() - cpu0
            steal += host_steal_s() - steal0
            timed_s += time.monotonic() - w0
            after = dep.scrape()
            hwm = max(hwm, dep.hwm_mb())
        finally:
            dep.stop()
        ph = out["phases"][0]
        batches.append(ph)
        gen_busy.append(out["gen_cpu_busy"])
        lat += ph["lat_ms"]
        walls.append(ph["seconds"])
        sent += out["sent"]
        failed += out["failed"]
        b = sum_counters([m for m, _ in before])
        a = sum_counters([m for m, _ in after])
        runs += delta(a, b, "cdvs_sim_runs_total")
        for k in ("cdvs_cache_hits_total", "cdvs_cache_misses_total",
                  "cdvs_cache_shared_flights_total",
                  "cdvs_cache_evictions_total", "cdvs_jobs_rejected_total",
                  "cdvs_milp_solves_total", "cdvs_milp_nodes_total",
                  "cdvs_presolve_vars_fixed_total"):
            layer[k] = layer.get(k, 0.0) + delta(a, b, k)
        layer["cq"] = max(layer.get("cq", 0.0),
                          a.get("cdvs_net_completion_queue_depth", 0.0))
        if out["oracle_mismatches"]:
            problems.append("schedules differ from the reference")
        if ph["failed"]:
            problems.append("%d failed requests in a batch: %s" % (
                ph["failed"], ph["fail_reasons"]))
        if smoke and len(walls) >= n_batches:
            break
        if not smoke and len(walls) >= 2 and \
                time.monotonic() - t_start >= seconds:
            break
    result["attempted"], result["failed"] = sent, failed
    result["host_steal_vcpu"] = steal / timed_s
    result["problems"] += problems
    result["phases"] = batches
    tp = tail_percentile(len(lat))
    result["tail_percentile"] = tp
    jobs = sum(b["done"] for b in batches)
    e2e = {
        "setup_s": median(setup),
        # Per-batch figures, then the median over batches: how many racing
        # collections a batch pays for varies from batch to batch.
        "peak_rps": median([b["done"] / b["seconds"] for b in batches]),
        "p50_ms": median([b["lat_p50_ms"] for b in batches]),
        "tail_ms": pct(lat, tp / 100.0),
        "done_ratio": jobs / max(1, sent),
        "cpu_ms_per_req": 1000.0 * cpu / max(1, jobs),
        "peak_rss_mb": hwm,
    }
    hits = layer["cdvs_cache_hits_total"]
    misses = layer["cdvs_cache_misses_total"]
    solves = layer["cdvs_milp_solves_total"]
    prof = [b["profile_p50_ms"] for b in batches]
    lay = {
        "net.overhead_ms.p50": median([b["overhead_p50_ms"] for b in batches]),
        "net.overhead_ms.p99": median([b["overhead_p99_ms"] for b in batches]),
        "net.completion_queue_depth.peak": layer["cq"],
        "service.queue_ms.p50": median([b["queue_p50_ms"] for b in batches]),
        "service.queue_ms.p99": median([b["queue_p99_ms"] for b in batches]),
        "service.total_ms.p50": median([b["total_p50_ms"] for b in batches]),
        "service.rejects": layer["cdvs_jobs_rejected_total"],
        "cache.hit_ratio": hits / max(1.0, hits + misses),
        "cache.shared_ratio": layer["cdvs_cache_shared_flights_total"] /
                              max(1.0, hits + misses),
        "cache.evictions": layer["cdvs_cache_evictions_total"],
        "profile.ms.p50": median(prof),
        "sim.runs": runs,
        "sim.useful_ratio": needed * len(walls) / max(1.0, runs),
        "milp.solve_ms.p50": median([b["solve_p50_ms"] for b in batches]),
        "milp.solve_ms.p99": median([b["solve_p99_ms"] for b in batches]),
        "milp.nodes_per_solve": layer["cdvs_milp_nodes_total"] /
                                max(1.0, solves),
        "milp.presolve_vars_fixed": layer["cdvs_presolve_vars_fixed_total"] /
                                    max(1.0, solves),
        "verify.ms.p50": median([b["verify_p50_ms"] for b in batches]),
        "cluster.router_cpu_busy": 0.0,
        "cluster.retries": 0.0,
        "cluster.rejects": 0.0,
        "gen.late_ms.p99": median([b["late_p99_ms"] for b in batches]),
        "gen.cpu_busy": median(gen_busy),
    }
    if trace:
        traced_layers("cold_batch", tools, rundir, keys_path, [], [], seed,
                      0, 0, e2e["p50_ms"], lay, True)
    return e2e, lay


def isolate(tools, rundir, e2e, layer, workload):
    """Layer-isolation pass: each entry point alone on this workload's
    keys, summed along the request's path next to the end-to-end p50."""
    iso = drive(tools, ["isolate", "--keys=" + os.path.join(rundir,
                                                            "keys.jsonl")],
                "isolation")
    for k in ("net.decode_ns", "net.encode_ns", "service.hit_us",
              "jobio.parse_us", "jobio.write_us", "profile.collect_ms",
              "sim.minstr_per_s", "analysis.analyze_ms", "milp.fingerprint_us",
              "dvs.schedule_ms", "dvs.serialize_us", "verify.audit_ms",
              "cluster.key_ns"):
        layer[k] = iso[k]
    ms = {"net.decode_ns": 1e-6, "net.encode_ns": 1e-6, "jobio.parse_us": 1e-3,
          "jobio.write_us": 1e-3, "milp.fingerprint_us": 1e-3,
          "service.hit_us": 1e-3, "dvs.schedule_ms": 1.0,
          "dvs.serialize_us": 1e-3, "verify.audit_ms": 1.0,
          "profile.collect_ms": 1.0, "analysis.analyze_ms": 1.0,
          "cluster.key_ns": 1e-6}
    path = ["net.decode_ns", "jobio.parse_us"]
    if workload in ("warm_hits", "cluster_hits"):
        path += ["service.hit_us"]
    else:
        path += ["milp.fingerprint_us", "dvs.schedule_ms", "dvs.serialize_us",
                 "verify.audit_ms"]
    if workload == "cold_batch":
        path += ["profile.collect_ms", "analysis.analyze_ms"]
    path += ["jobio.write_us", "net.encode_ns"]
    if workload == "cluster_hits":
        path += ["cluster.key_ns", "net.decode_ns", "net.encode_ns"]
    total = sum(iso[k] * ms[k] for k in path)
    layer["ledger.isolated_sum_ms"] = total
    print("ledger %s: isolated path costs (ms)" % workload)
    for k in path:
        print("  %-24s %10.4f" % (k, iso[k] * ms[k]))
    print("  %-24s %10.4f" % ("sum", total))
    print("  %-24s %10.4f  (untraced end to end)" % ("p50_ms", e2e["p50_ms"]))


# --------------------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "peak_rps": "req/s", "p50_ms": "ms",
             "tail_ms": "ms", "done_ratio": "ratio", "cpu_ms_per_req": "ms",
             "peak_rss_mb": "MB"}


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def run_all(args):
    """--workload all: each workload in turn, as its own run (a record per
    workload when --out names a directory). Exits nonzero if any did."""
    rc = 0
    for w in sorted(WORKLOADS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            argv += ["--out", os.path.join(args.out, "%s-trace%d.json" % (
                w, args.trace))]
        if args.smoke:
            argv.append("--smoke")
        print("== %s" % w, flush=True)
        p = subprocess.Popen(argv)
        try:
            rc = max(rc, p.wait())
        finally:
            if p.poll() is None:  # let it stop its servers
                p.terminate()
                p.wait()
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record here")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run: every metric, little work")
    args = ap.parse_args()
    # A SIGTERM unwinds through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)

    try:
        build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                      ".bench_build"),
                                 "servbench")
        tools = build(build_dir)
        rundir = os.path.join(build_dir, "runs", "%s-%d-%d" % (
            args.workload, args.seed, os.getpid()))
        os.makedirs(rundir, exist_ok=True)
        r = subprocess.run([tools["drive"], "catalog"], stdout=subprocess.PIPE,
                           text=True, check=True)
        catalog = {d["workload"]: d["inputs"] for d in
                   map(json.loads, r.stdout.split("\n")[:-1])}
        rng = random.Random(args.seed)
        result = {"problems": []}
        if args.workload == "cold_batch":
            e2e, layer = run_cold(tools, rundir, args.seed, args.seconds, rng,
                                  catalog, args.trace, args.smoke, result)
        else:
            e2e, layer = run_serving(args.workload, tools, rundir, args.seed,
                                     args.seconds, rng, catalog, args.trace,
                                     args.smoke, result)
        if args.trace:
            isolate(tools, rundir, e2e, layer, args.workload)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        log("servbench: %s" % e)
        return 1

    for p in result["problems"]:
        log("servbench: FAILED CHECK: %s" % p)
    if args.trace:
        units = per_layer_units()
        missing = sorted(set(units) - set(layer))
        if missing:
            log("servbench: per-layer metrics not computed: %s" %
                ", ".join(missing))
            return 1
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e.items()}
    for k, m in metrics.items():
        print("%-34s %14.6g %s" % (k, m["value"], m["unit"]))
    if not args.trace:
        # Reported as done_ratio (a metric may not read 0); shown for people.
        print("%-34s %14.6g %s" % ("fail_ratio", 1.0 - e2e["done_ratio"],
                                   "ratio"))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host_cores": NPROC, "build_type": BUILD_TYPE, "git_sha": git_sha(),
        "server_flags": {**COMMON_SERVER, **WORKLOADS[args.workload]["server"],
                         "presolve": "on"},
        "workload_spec": {k: v for k, v in WORKLOADS[args.workload].items()
                          if k != "server"},
        "connections": NPROC,
        "end_to_end": e2e, "per_layer": layer,
        "problems": result["problems"],
        "excluded_keys": result.get("excluded_keys", 0),
        "tail_percentile": result.get("tail_percentile", 99),
        "host_steal_vcpu": result["host_steal_vcpu"],
        "overload": result.get("overload"),
        "phases": [{k: v for k, v in p.items() if k != "lat_ms"}
                   for p in result.get("phases", [])],
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print("record " + json.dumps({k: record[k] for k in (
        "workload", "seed", "host_cores", "build_type", "git_sha",
        "server_flags", "tail_percentile", "host_steal_vcpu")},
        sort_keys=True))
    print(json.dumps({"correct": not result["problems"],
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
