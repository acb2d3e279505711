//===- tools/dvs-loadgen.cpp - Open-loop load generator for dvs-server -----===//
//
// Drives a running dvs-server with an open-loop request schedule: sends
// at a fixed aggregate rate across N connections regardless of how fast
// responses come back (so server-side queueing shows up as latency, not
// as a slowed-down generator), pipelining on each connection and
// matching responses by correlation id. Reports throughput and latency
// quantiles as one JSON record on stdout, and into --benchmark_out=FILE
// when given (only scripts/bench_*.sh write the tracked BENCH_* files).
//
// The default workload is one request repeated, which after the first
// solve is a pure result-cache hit — the sustained-throughput number
// measures the wire + event loop + cache path, not the MILP. Pass
// --distinct=K to spread requests over K deadline variants instead.
// Repeated --graph=NAME options switch to graph mode: requests become
// task-graph jobs (GraphRequest frames) cycling over the named canned
// instances (taskgraph/Generator.h), and returned plans land under
// --schedules=DIR as <fingerprint>.taskplan.
//
// --schedules=DIR writes each distinct returned schedule to
// DIR/<fingerprint>.cdvs (the same canonical form dvsd --schedules
// writes), which is what the byte-identity gate diffs.
//
// --churn=N and --slowloris=N add adversarial side traffic (connect/
// drop storms, byte-dribbling partial frames) while the measured load
// runs, for overload probes: the healthy connections' quantiles tell
// whether the server sheds attackers without stalling everyone else.
// Attack-thread outcomes are reported under "attack" but never fail
// the exit code — being rejected is the expected result.
//
// --trace-sample-pct=N stamps every Nth-percentile request with a
// fresh 128-bit trace id over the cdvs-wire extension block, so the
// server (and router) rings record attributable spans that dvs-stat
// --scrape can assemble into one cross-process timeline. The "trace"
// block in the JSON output compares end-to-end latency against the
// backend's own TotalSeconds accounting — the gap is pure wire +
// event-loop + router overhead.
//
//===----------------------------------------------------------------------===//

#include "dvs/ScheduleIO.h"
#include "net/Client.h"
#include "obs/Trace.h"
#include "service/JobIO.h"
#include "support/ArgParse.h"
#include "support/Clock.h"
#include "taskgraph/Generator.h"
#include "taskgraph/PlanIO.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/types.h>

using namespace cdvs;

namespace {

struct SharedTally {
  std::mutex Mu;
  std::vector<double> LatenciesSec;
  long Sent = 0;
  long TracedSent = 0; ///< requests stamped with a trace context
  long Done = 0;       ///< status "done"
  long OtherStatus = 0; ///< completed, but rejected/infeasible/failed
  long WireRejects = 0; ///< Reject frames
  long Errors = 0;      ///< transport errors
  long Unanswered = 0;  ///< outstanding at drain timeout
  long CacheHits = 0;
  std::map<std::string, std::string> Schedules; ///< fingerprint -> text
  /// Latencies keyed by the router's "backend" response annotation
  /// (empty single-node): the per-backend breakdown of a cluster run.
  std::map<std::string, std::vector<double>> BackendLat;
  /// The server's own admission-to-completion accounting
  /// (JobResult.TotalSeconds), paired with the end-to-end quantiles:
  /// the gap between the two is wire + event loop + router overhead.
  std::vector<double> BackendReportedSec;
  std::vector<double> OverheadSec; ///< end-to-end minus backend-reported
};

constexpr const char *kTimeoutMsg = "timed out waiting for a frame";

struct WorkerConfig {
  std::string Host;
  uint16_t Port = 0;
  long Quota = 0;
  uint64_t IntervalNs = 0;
  uint64_t StartNs = 0;
  int Distinct = 1;
  /// Percent of requests pinned to deadline variant 0 (the hot key);
  /// the rest spread over the remaining variants.
  int HotKeyPct = 0;
  /// Percent of requests stamped with a fresh 128-bit trace id and the
  /// sampled bit set (deterministic: every request with
  /// Sent % 100 < pct is traced).
  int TraceSamplePct = 0;
  int DrainTimeoutMs = 10'000;
  JobRequest Base;
  /// Graph mode: requests cycle over these canned graphs instead of
  /// deadline variants (empty = single-program mode).
  std::vector<std::shared_ptr<const taskgraph::TaskGraph>> Graphs;
};

void runWorker(int Index, const WorkerConfig &Cfg, SharedTally &Tally) {
  ErrorOr<net::Client> C = net::Client::connect(Cfg.Host, Cfg.Port);
  if (!C) {
    std::lock_guard<std::mutex> L(Tally.Mu);
    ++Tally.Errors;
    return;
  }
  std::map<uint64_t, uint64_t> PendingNs; // correlation -> send time
  std::vector<double> Latencies;
  long Sent = 0, Traced = 0, Done = 0, Other = 0, Rejects = 0,
       Errors = 0, Hits = 0;
  std::map<std::string, std::string> Schedules;
  std::map<std::string, std::vector<double>> BackendLat;
  std::vector<double> BackendReported, Overhead;

  // Stagger workers across one send interval so the aggregate stream
  // is evenly spaced, not N-bursty.
  uint64_t NextSend = Cfg.StartNs + static_cast<uint64_t>(Index) *
                                        (Cfg.IntervalNs / 4 + 1);
  uint64_t DrainDeadline = 0;

  auto handleFrame = [&](const net::Frame &F) {
    double Lat = -1.0;
    auto It = PendingNs.find(F.Correlation);
    if (It != PendingNs.end()) {
      Lat = static_cast<double>(monotonicNanos() - It->second) * 1e-9;
      Latencies.push_back(Lat);
      PendingNs.erase(It);
    }
    if (F.Type == net::FrameType::Reject) {
      ++Rejects;
      return;
    }
    if (F.Type != net::FrameType::Response &&
        F.Type != net::FrameType::GraphResponse)
      return;
    ErrorOr<JobResult> R = jobResultFromJsonText(F.Payload);
    if (!R) {
      ++Errors;
      return;
    }
    if (!R->Backend.empty() && Lat >= 0.0)
      BackendLat[R->Backend].push_back(Lat);
    if (R->TotalSeconds > 0.0 && Lat >= 0.0) {
      BackendReported.push_back(R->TotalSeconds);
      Overhead.push_back(Lat - R->TotalSeconds);
    }
    if (R->Status == JobStatus::Done) {
      ++Done;
      if (R->CacheHit)
        ++Hits;
      if (!R->Fingerprint.empty() && !R->ScheduleText.empty())
        Schedules.emplace(R->Fingerprint, R->ScheduleText);
    } else {
      ++Other;
    }
  };

  bool Alive = true;
  while (Alive) {
    uint64_t Now = monotonicNanos();
    if (Sent < Cfg.Quota && Now >= NextSend) {
      JobRequest R = Cfg.Base;
      R.Id = "c" + std::to_string(Index) + "-" + std::to_string(Sent);
      if (!Cfg.Graphs.empty())
        R.Graph = Cfg.Graphs[static_cast<size_t>(Sent) %
                             Cfg.Graphs.size()];
      else if (Cfg.Distinct > 1) {
        long Variant = Sent % Cfg.Distinct;
        // Hot-key skew: the configured share of sends collapses onto
        // variant 0, so one ring owner sees concentrated load.
        if (Cfg.HotKeyPct > 0 && Sent % 100 < Cfg.HotKeyPct)
          Variant = 0;
        R.DeadlineTightness =
            0.2 + 0.6 * static_cast<double>(Variant) /
                      static_cast<double>(Cfg.Distinct);
      }
      net::TraceContext TC;
      bool Sample = Cfg.TraceSamplePct > 0 &&
                    Sent % 100 < Cfg.TraceSamplePct;
      if (Sample) {
        // A fresh 128-bit trace id per sampled request; span ids from
        // the same generator, so they are unique but not guessable.
        TC.TraceHi = obs::nextSpanId();
        TC.TraceLo = obs::nextSpanId();
        TC.ParentSpan = obs::nextSpanId();
        TC.Sampled = true;
      }
      ErrorOr<uint64_t> Corr =
          C->sendRequest(R, 0, Sample ? &TC : nullptr);
      if (!Corr) {
        ++Errors;
        break;
      }
      if (Sample)
        ++Traced;
      PendingNs[*Corr] = Now;
      ++Sent;
      // Open loop: the schedule marches on even when we fall behind.
      NextSend += Cfg.IntervalNs;
      continue;
    }
    if (Sent >= Cfg.Quota) {
      if (PendingNs.empty())
        break;
      if (DrainDeadline == 0)
        DrainDeadline =
            Now + static_cast<uint64_t>(Cfg.DrainTimeoutMs) * 1'000'000;
      if (Now >= DrainDeadline)
        break;
    }
    int TimeoutMs;
    if (Sent < Cfg.Quota) {
      uint64_t Until = NextSend > Now ? NextSend - Now : 0;
      TimeoutMs = static_cast<int>(Until / 1'000'000);
      if (TimeoutMs < 1)
        TimeoutMs = PendingNs.empty() ? 1 : 0;
    } else {
      TimeoutMs = 50;
    }
    ErrorOr<net::Frame> F = C->readFrame(TimeoutMs);
    if (F) {
      handleFrame(*F);
      continue;
    }
    if (F.message() == kTimeoutMsg)
      continue;
    ++Errors;
    Alive = false;
  }

  std::lock_guard<std::mutex> L(Tally.Mu);
  Tally.Sent += Sent;
  Tally.TracedSent += Traced;
  Tally.Done += Done;
  Tally.OtherStatus += Other;
  Tally.WireRejects += Rejects;
  Tally.Errors += Errors;
  Tally.Unanswered += static_cast<long>(PendingNs.size());
  Tally.CacheHits += Hits;
  Tally.LatenciesSec.insert(Tally.LatenciesSec.end(), Latencies.begin(),
                            Latencies.end());
  for (auto &[Fp, Text] : Schedules)
    Tally.Schedules.emplace(Fp, std::move(Text));
  for (auto &[Name, Lats] : BackendLat) {
    std::vector<double> &Dst = Tally.BackendLat[Name];
    Dst.insert(Dst.end(), Lats.begin(), Lats.end());
  }
  Tally.BackendReportedSec.insert(Tally.BackendReportedSec.end(),
                                  BackendReported.begin(),
                                  BackendReported.end());
  Tally.OverheadSec.insert(Tally.OverheadSec.end(), Overhead.begin(),
                           Overhead.end());
}

double quantile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  size_t I = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
  if (I >= Sorted.size())
    I = Sorted.size() - 1;
  return Sorted[I];
}

/// Attack-traffic counters (churn + slowloris). Attack threads are
/// best-effort adversaries: their connect/send errors are expected
/// (that is the server defending itself) and never fail the run.
struct AttackTally {
  std::atomic<long> ChurnConns{0};
  std::atomic<long> SlowConns{0};
  std::atomic<long> AttackRejects{0}; ///< Reject frames drawn by attacks
};

/// Connection-churn storm: connect and immediately drop, as fast as the
/// server lets us, until \p Stop.
void runChurn(const std::string &Host, uint16_t Port,
              std::atomic<bool> &Stop, AttackTally &T) {
  while (!Stop.load(std::memory_order_relaxed)) {
    ErrorOr<net::Client> C = net::Client::connect(Host, Port);
    if (!C) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    T.ChurnConns.fetch_add(1, std::memory_order_relaxed);
    // Scope end closes the socket with data possibly in flight — the
    // nastiest polite thing a client can do.
  }
}

/// Slowloris: park on a partial frame, dribbling one byte per interval
/// and never completing it, reconnecting each time the server evicts
/// us. Rejects the server answers with (slow_frame, shed, overloaded)
/// are counted as AttackRejects.
void runSlowloris(const std::string &Host, uint16_t Port, int IntervalMs,
                  std::atomic<bool> &Stop, AttackTally &T) {
  std::string F =
      net::encodeFrame(net::FrameType::Request, 1, "{\"workload\":\"gsm\"}");
  while (!Stop.load(std::memory_order_relaxed)) {
    ErrorOr<net::Client> C = net::Client::connect(Host, Port);
    if (!C) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    T.SlowConns.fetch_add(1, std::memory_order_relaxed);
    size_t Off = 0;
    while (!Stop.load(std::memory_order_relaxed) && Off + 1 < F.size()) {
      size_t Chunk = Off == 0 ? 4 : 1; // header prefix, then a dribble
      if (!C->sendRaw(F.data() + Off, Chunk))
        break; // server closed on us — reconnect
      Off += Chunk;
      // readFrame doubles as the dribble pacing and catches the
      // eviction Reject when the guard fires.
      ErrorOr<net::Frame> Got = C->readFrame(IntervalMs);
      if (Got) {
        if (Got->Type == net::FrameType::Reject)
          T.AttackRejects.fetch_add(1, std::memory_order_relaxed);
      } else if (Got.message() != kTimeoutMsg) {
        break; // EOF: evicted
      }
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  ArgParser P("dvs-loadgen",
              "open-loop load generator for dvs-server: fixed-rate "
              "cdvs-wire requests, latency quantiles out");
  std::string &Host = P.addString("host", "127.0.0.1", "server address");
  int &Port = P.addInt("port", 0, "server port (required)");
  int &Connections = P.addInt("connections", 4, "parallel connections");
  double &Rate = P.addDouble(
      "rate", 2000.0, "aggregate requests/second across connections");
  int &Requests =
      P.addInt("requests", 10000, "total requests to send");
  int &Distinct = P.addInt(
      "distinct", 1,
      "spread requests over this many deadline variants (1 = pure "
      "cache-hit load)");
  std::string &WorkloadName =
      P.addString("workload", "gsm", "workload to schedule");
  std::vector<std::string> &GraphNames = P.addStringList(
      "graph", "graph mode: cycle task-graph jobs over this canned "
               "instance (repeat for several; overrides --workload/"
               "--distinct)");
  double &Tightness =
      P.addDouble("tightness", 0.5, "relative deadline tightness");
  int &Warmup = P.addInt(
      "warmup", 1,
      "synchronous priming calls before the timed run (fills the "
      "result cache); 0 measures cold");
  int &DrainTimeoutMs = P.addInt(
      "drain-timeout-ms", 10000,
      "how long to wait for outstanding responses after the last send");
  std::string &SchedulesDir = P.addString(
      "schedules", "",
      "directory for <fingerprint>.cdvs files (byte-identity checks)");
  std::string &OutPath = P.addString(
      "benchmark_out", "",
      "also write the JSON record to this file (default: stdout only)");
  int &Churn = P.addInt(
      "churn", 0,
      "connection-churn attack threads (connect/drop storms) running "
      "alongside the measured load");
  int &Slowloris = P.addInt(
      "slowloris", 0,
      "slowloris attack threads (byte-dribbling partial frames) "
      "running alongside the measured load");
  int &DribbleMs = P.addInt(
      "dribble-interval-ms", 50,
      "ms between slowloris bytes (should exceed the server's "
      "slow-frame budget divided by frame size)");
  int &MetaReactors = P.addInt(
      "meta-reactors", 0,
      "recorded in the JSON output as the server's --reactors value "
      "(bench bookkeeping only)");
  int &MetaBackends = P.addInt(
      "meta-backends", 0,
      "recorded in the JSON output as the cluster's backend count "
      "(bench bookkeeping only)");
  int &HotKeyPct = P.addInt(
      "hot-key-pct", 0,
      "percent of requests pinned to deadline variant 0 (hot-key skew "
      "for cluster runs); 0 = uniform");
  int &TraceSamplePct = P.addInt(
      "trace-sample-pct", 0,
      "percent of requests stamped with a fresh 128-bit trace id "
      "(sampled bit set); the server/router rings record their spans "
      "for dvs-stat --scrape to assemble");
  int &KillPid = P.addInt(
      "kill-backend-pid", 0,
      "SIGKILL this pid mid-run (cluster failover drills); 0 = off");
  int &KillAfterMs = P.addInt(
      "kill-backend-after-ms", 500,
      "when --kill-backend-pid is set: ms after the timed run starts "
      "to fire the kill");
  if (!P.parseOrExit(argc, argv))
    return 0;
  if (Port <= 0 || Port > 65535) {
    std::fprintf(stderr, "dvs-loadgen: --port is required\n");
    return 1;
  }
  if (Connections < 1)
    Connections = 1;
  if (Rate <= 0.0)
    Rate = 1.0;

  std::vector<std::shared_ptr<const taskgraph::TaskGraph>> Graphs;
  for (const std::string &Name : GraphNames) {
    ErrorOr<taskgraph::TaskGraph> G = taskgraph::cannedTaskGraph(Name);
    if (!G) {
      std::fprintf(stderr, "dvs-loadgen: %s\n", G.message().c_str());
      return 1;
    }
    Graphs.push_back(
        std::make_shared<const taskgraph::TaskGraph>(std::move(*G)));
  }

  JobRequest Base;
  if (Graphs.empty()) {
    Base.Workload = WorkloadName;
    Base.DeadlineTightness = Tightness;
  }

  // Prime the cache (and fail fast on a bad port/workload) before the
  // clock starts.
  for (int I = 0; I < (Warmup < 0 ? 0 : Warmup); ++I) {
    ErrorOr<net::Client> C =
        net::Client::connect(Host, static_cast<uint16_t>(Port));
    if (!C) {
      std::fprintf(stderr, "dvs-loadgen: connect failed: %s\n",
                   C.message().c_str());
      return 1;
    }
    JobRequest W = Base;
    W.Id = "warmup-" + std::to_string(I);
    if (!Graphs.empty())
      W.Graph = Graphs[static_cast<size_t>(I) % Graphs.size()];
    // Trace the warmup too when sampling is on: it is the one request
    // guaranteed to pay every cold-start cost, so it reliably lands in
    // the router's slow log with a trace id attached. Not counted in
    // traced_sent (warmups are outside the measured window).
    net::TraceContext WTC;
    WTC.TraceHi = obs::nextSpanId();
    WTC.TraceLo = obs::nextSpanId();
    WTC.ParentSpan = obs::nextSpanId();
    WTC.Sampled = true;
    ErrorOr<JobResult> R =
        C->call(W, 120'000, TraceSamplePct > 0 ? &WTC : nullptr);
    if (!R) {
      std::fprintf(stderr, "dvs-loadgen: warmup call failed: %s\n",
                   R.message().c_str());
      return 1;
    }
  }

  SharedTally Tally;
  WorkerConfig Cfg;
  Cfg.Host = Host;
  Cfg.Port = static_cast<uint16_t>(Port);
  Cfg.IntervalNs = static_cast<uint64_t>(
      1e9 * static_cast<double>(Connections) / Rate);
  Cfg.Distinct = Distinct < 1 ? 1 : Distinct;
  Cfg.HotKeyPct = HotKeyPct < 0 ? 0 : (HotKeyPct > 100 ? 100 : HotKeyPct);
  Cfg.TraceSamplePct =
      TraceSamplePct < 0 ? 0
                         : (TraceSamplePct > 100 ? 100 : TraceSamplePct);
  Cfg.DrainTimeoutMs = DrainTimeoutMs < 0 ? 0 : DrainTimeoutMs;
  Cfg.Base = Base;
  Cfg.Graphs = Graphs;

  long PerConn = Requests / Connections;
  uint64_t T0 = monotonicNanos();
  Cfg.StartNs = T0;

  // Failover drill: SIGKILL a backend partway into the timed run. The
  // router must answer every admitted request anyway.
  std::atomic<bool> KillFired{false};
  std::atomic<bool> StopKill{false};
  std::thread KillThread;
  if (KillPid > 0) {
    KillThread = std::thread([&] {
      uint64_t Deadline =
          T0 + static_cast<uint64_t>(KillAfterMs < 0 ? 0 : KillAfterMs) *
                   1'000'000ull;
      while (!StopKill.load(std::memory_order_relaxed) &&
             monotonicNanos() < Deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (StopKill.load(std::memory_order_relaxed))
        return;
      if (::kill(static_cast<pid_t>(KillPid), SIGKILL) == 0)
        KillFired.store(true, std::memory_order_relaxed);
    });
  }

  // Attack traffic starts first so the measured (healthy) load runs
  // entirely inside the storm.
  AttackTally Attacks;
  std::atomic<bool> StopAttacks{false};
  std::vector<std::thread> AttackThreads;
  for (int I = 0; I < (Churn < 0 ? 0 : Churn); ++I)
    AttackThreads.emplace_back([&] {
      runChurn(Host, static_cast<uint16_t>(Port), StopAttacks, Attacks);
    });
  for (int I = 0; I < (Slowloris < 0 ? 0 : Slowloris); ++I)
    AttackThreads.emplace_back([&] {
      runSlowloris(Host, static_cast<uint16_t>(Port),
                   DribbleMs < 1 ? 1 : DribbleMs, StopAttacks, Attacks);
    });

  std::vector<std::thread> Threads;
  for (int I = 0; I < Connections; ++I) {
    WorkerConfig C = Cfg;
    C.Quota = PerConn + (I < Requests % Connections ? 1 : 0);
    Threads.emplace_back(
        [I, C, &Tally] { runWorker(I, C, Tally); });
  }
  for (std::thread &T : Threads)
    T.join();
  double Elapsed = static_cast<double>(monotonicNanos() - T0) * 1e-9;
  StopAttacks.store(true, std::memory_order_relaxed);
  for (std::thread &T : AttackThreads)
    T.join();
  StopKill.store(true, std::memory_order_relaxed);
  if (KillThread.joinable())
    KillThread.join();

  long Completed = Tally.Done + Tally.OtherStatus + Tally.WireRejects;
  std::sort(Tally.LatenciesSec.begin(), Tally.LatenciesSec.end());
  std::sort(Tally.BackendReportedSec.begin(),
            Tally.BackendReportedSec.end());
  std::sort(Tally.OverheadSec.begin(), Tally.OverheadSec.end());
  double P50 = quantile(Tally.LatenciesSec, 0.50);
  double P90 = quantile(Tally.LatenciesSec, 0.90);
  double P95 = quantile(Tally.LatenciesSec, 0.95);
  double P99 = quantile(Tally.LatenciesSec, 0.99);
  double Max = Tally.LatenciesSec.empty() ? 0.0
                                          : Tally.LatenciesSec.back();
  double Throughput = Elapsed > 0.0
                          ? static_cast<double>(Completed) / Elapsed
                          : 0.0;
  // Served throughput: only status-done answers count, so admission
  // rejects under overload cannot inflate the number.
  double DoneRps =
      Elapsed > 0.0 ? static_cast<double>(Tally.Done) / Elapsed : 0.0;

  int ScheduleWriteErrors = 0;
  if (!SchedulesDir.empty()) {
    for (const auto &[Fp, Text] : Tally.Schedules) {
      if (Text.rfind("cdvs-taskplan", 0) == 0) {
        // Graph plans: parse round trip, then the bytes land verbatim
        // (the byte-identity gate diffs the text itself).
        ErrorOr<taskgraph::OnlineResult> Plan =
            taskgraph::readTaskPlan(Text);
        bool Wrote = false;
        std::string Path = SchedulesDir + "/" + Fp + ".taskplan";
        if (Plan) {
          if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
            Wrote = std::fwrite(Text.data(), 1, Text.size(), F) ==
                    Text.size();
            std::fclose(F);
          }
          if (!Wrote)
            std::fprintf(stderr, "dvs-loadgen: cannot write '%s'\n",
                         Path.c_str());
        } else {
          std::fprintf(stderr, "dvs-loadgen: %s\n",
                       Plan.message().c_str());
        }
        if (!Wrote)
          ++ScheduleWriteErrors;
        continue;
      }
      ErrorOr<ModeAssignment> A = readSchedule(Text);
      ErrorOr<bool> Wrote =
          A ? writeScheduleFile(SchedulesDir + "/" + Fp + ".cdvs", *A)
            : ErrorOr<bool>(Err(A.message()));
      if (!Wrote) {
        std::fprintf(stderr, "dvs-loadgen: %s\n",
                     Wrote.message().c_str());
        ++ScheduleWriteErrors;
      }
    }
  }

  char Buf[2048];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"tool\":\"dvs-loadgen\",\"connections\":%d,\"reactors\":%d,"
      "\"rate_target_rps\":%.1f,\"requests\":%d,\"sent\":%ld,"
      "\"completed\":%ld,\"done\":%ld,\"other_status\":%ld,"
      "\"wire_rejects\":%ld,\"errors\":%ld,\"unanswered\":%ld,"
      "\"cache_hits\":%ld,\"elapsed_s\":%.3f,"
      "\"throughput_rps\":%.1f,\"done_rps\":%.1f,"
      "\"latency_s\":{\"p50\":%.6f,"
      "\"p90\":%.6f,\"p95\":%.6f,\"p99\":%.6f,\"max\":%.6f},"
      "\"trace\":{\"sample_pct\":%d,\"traced_sent\":%ld,"
      "\"backend_reported_s\":{\"p50\":%.6f,\"p99\":%.6f},"
      "\"net_overhead_s\":{\"p50\":%.6f,\"p99\":%.6f}},"
      "\"attack\":{\"churn_threads\":%d,\"slowloris_threads\":%d,"
      "\"churn_conns\":%ld,\"slowloris_conns\":%ld,"
      "\"attack_rejects\":%ld},"
      "\"cluster\":{\"backends\":%d,\"hot_key_pct\":%d,"
      "\"kill_pid\":%d,\"kill_fired\":%s},"
      "\"distinct_schedules\":%zu}",
      Connections, MetaReactors, Rate, Requests, Tally.Sent, Completed,
      Tally.Done, Tally.OtherStatus, Tally.WireRejects, Tally.Errors,
      Tally.Unanswered, Tally.CacheHits, Elapsed, Throughput, DoneRps,
      P50, P90, P95, P99, Max, Cfg.TraceSamplePct, Tally.TracedSent,
      quantile(Tally.BackendReportedSec, 0.50),
      quantile(Tally.BackendReportedSec, 0.99),
      quantile(Tally.OverheadSec, 0.50),
      quantile(Tally.OverheadSec, 0.99), Churn < 0 ? 0 : Churn,
      Slowloris < 0 ? 0 : Slowloris,
      Attacks.ChurnConns.load(), Attacks.SlowConns.load(),
      Attacks.AttackRejects.load(), MetaBackends, Cfg.HotKeyPct,
      KillPid < 0 ? 0 : KillPid, KillFired.load() ? "true" : "false",
      Tally.Schedules.size());

  // Per-backend breakdown (cluster runs only): keyed by the router's
  // response annotation, so it shows how load and latency spread over
  // the ring — and shifts when a backend dies.
  std::string Out(Buf);
  if (!Tally.BackendLat.empty()) {
    std::string B = ",\"backends\":{";
    bool First = true;
    for (auto &[Name, Lats] : Tally.BackendLat) {
      std::sort(Lats.begin(), Lats.end());
      char Ent[256];
      std::snprintf(Ent, sizeof(Ent),
                    "%s\"%s\":{\"answered\":%zu,\"p50\":%.6f,"
                    "\"p99\":%.6f,\"max\":%.6f}",
                    First ? "" : ",", Name.c_str(), Lats.size(),
                    quantile(Lats, 0.50), quantile(Lats, 0.99),
                    Lats.empty() ? 0.0 : Lats.back());
      B += Ent;
      First = false;
    }
    B += "}";
    Out.insert(Out.rfind('}'), B);
  }

  std::printf("%s\n", Out.c_str());
  if (!OutPath.empty()) {
    std::FILE *F = std::fopen(OutPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "dvs-loadgen: cannot write '%s'\n",
                   OutPath.c_str());
      return 1;
    }
    std::fprintf(F, "%s\n", Out.c_str());
    std::fclose(F);
  }

  if (Tally.Errors > 0 || Tally.Unanswered > 0 ||
      ScheduleWriteErrors > 0)
    return 1;
  return Completed > 0 ? 0 : 1;
}
