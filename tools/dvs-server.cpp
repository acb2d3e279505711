//===- tools/dvs-server.cpp - cdvs-wire network scheduling server ----------===//
//
// Serves the batch DVS-scheduling pipeline over TCP: net::Server
// (src/net) accepts cdvs-wire v1 frames, runs each Request through the
// same SchedulerService dvsd drives, and streams Response frames back
// out of order as jobs finish. --reactors N spreads socket work over N
// event-loop threads (each with its own SO_REUSEPORT listener; handoff
// fallback via --no-reuseport); MILP solving stays on the service's
// worker pool. --shed-high/--shed-hard arm per-reactor overload
// shedding by deadline class, --slow-frame-timeout-ms the slowloris
// guard.
//
// Lifecycle: on start the server prints one JSON line to stdout —
//   {"type":"listening","port":12345,"backend":"epoll",
//    "reactors":4,"reuseport":true}
// — so scripts can scrape the ephemeral port (or use --port-file).
// SIGTERM and SIGINT begin a graceful drain: the listener closes,
// in-flight jobs complete and flush, connections close, and the process
// exits with a final stats record. --max-seconds bounds the lifetime for
// CI runs the same way.
//
// Observability matches dvsd: --metrics-out/--metrics-json snapshot the
// process registry (now including the cdvs_net_* families) after the
// drain; --trace-out captures conn/frame spans as Chrome trace JSON.
//
//===----------------------------------------------------------------------===//

#include "cluster/PeerFill.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ArgParse.h"
#include "support/Clock.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include <unistd.h>

using namespace cdvs;

namespace {

net::Server *GServer = nullptr;

void onSignal(int) {
  if (GServer)
    GServer->beginDrain(); // one atomic store + one write(2)
}

bool writeTextFile(const std::string &Path, const std::string &Text,
                   const char *What) {
  std::FILE *F = Path == "-" ? stderr : std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "dvs-server: cannot write %s file '%s'\n", What,
                 Path.c_str());
    return false;
  }
  std::fwrite(Text.data(), 1, Text.size(), F);
  if (F != stderr)
    std::fclose(F);
  return true;
}

/// Reads one of the service's process-wide job counters; the registry is
/// their only record.
long jobCounter(const char *Name) {
  return static_cast<long>(obs::metrics().counter(Name, "").value());
}

} // namespace

int main(int argc, char **argv) {
  ArgParser P("dvs-server",
              "network front end of the DVS-scheduling service: "
              "cdvs-wire v1 requests in, schedules out");
  std::string &Bind =
      P.addString("bind", "127.0.0.1", "address to listen on");
  int &Port = P.addInt("port", 0, "TCP port; 0 picks an ephemeral one");
  int &Reactors = P.addInt(
      "reactors", 1,
      "event-loop (reactor) threads, each with its own SO_REUSEPORT "
      "listener; 0 = one per core");
  bool &NoReusePort = P.addFlag(
      "no-reuseport",
      "use the single-acceptor fd-handoff path even where SO_REUSEPORT "
      "exists");
  int &Threads =
      P.addInt("threads", 0, "pipeline workers; 0 = one per core");
  int &QueueCap = P.addInt("queue", 128, "admission queue capacity");
  int &CacheCap = P.addInt("cache", 512, "result cache entries");
  int &MaxConns =
      P.addInt("max-conns", 256, "connection limit (over it: reject)");
  int &MaxFrameKb =
      P.addInt("max-frame-kb", 1024, "per-frame payload cap in KiB");
  int &IdleMs = P.addInt("idle-timeout-ms", 60000,
                         "close silent connections after this; 0 = off");
  int &ReqMs = P.addInt("request-timeout-ms", 0,
                        "reject requests in flight longer than this; "
                        "0 = off");
  int &SlowMs = P.addInt(
      "slow-frame-timeout-ms", 10000,
      "close connections that sit on a partial frame this long "
      "(slowloris guard); 0 = off");
  int &ShedHigh = P.addInt(
      "shed-high", 0,
      "per-reactor pending-job watermark: at it, lax requests answer "
      "Reject{\"shed\"}; 0 = off");
  int &ShedHard = P.addInt(
      "shed-hard", 0,
      "pending-job watermark past which every request sheds; 0 = "
      "2 * shed-high");
  double &ShedLax = P.addDouble(
      "shed-lax-tightness", 0.5,
      "deadline-tightness boundary of the sheddable (lax) class");
  bool &ForcePoll =
      P.addFlag("poll", "use the portable poll(2) backend, not epoll");
  double &MaxSeconds = P.addDouble(
      "max-seconds", 0.0, "drain and exit after this long; 0 = forever");
  std::string &PortFile = P.addString(
      "port-file", "", "write the bound port here once listening");
  std::string &VerifyArg = P.addString(
      "verify", "off",
      "post-solve static verification: off, warn, or strict");
  std::string &Self = P.addString(
      "self", "",
      "this backend's advertised host:port on the cluster ring");
  std::string &Peers = P.addString(
      "peers", "",
      "comma-separated cluster membership (host:port,...); enables "
      "peer cache fill on local misses (requires --self)");
  int &VNodes = P.addInt(
      "vnodes", 64,
      "consistent-ring virtual nodes per member; must match the "
      "router's --vnodes");
  std::string &MetricsOut = P.addString(
      "metrics-out", "",
      "write Prometheus text metrics here after the drain ('-' = "
      "stderr)");
  std::string &MetricsJson = P.addString(
      "metrics-json", "", "write the metrics registry as JSON here");
  std::string &TraceOut = P.addString(
      "trace-out", "",
      "enable span tracing; write Chrome trace_event JSON here");
  bool &TraceOn = P.addFlag(
      "trace",
      "enable span tracing into the in-memory ring without writing a "
      "file (scrape it live with dvs-stat --scrape)");
  if (!P.parseOrExit(argc, argv))
    return 0;

  net::ServerOptions O;
  O.BindAddress = Bind;
  O.Port = static_cast<uint16_t>(Port);
  O.MaxConnections = static_cast<size_t>(MaxConns < 1 ? 1 : MaxConns);
  O.MaxFrameBytes =
      static_cast<size_t>(MaxFrameKb < 1 ? 1 : MaxFrameKb) * 1024;
  O.IdleTimeoutMs = static_cast<uint64_t>(IdleMs < 0 ? 0 : IdleMs);
  O.RequestTimeoutMs = static_cast<uint64_t>(ReqMs < 0 ? 0 : ReqMs);
  O.SlowFrameTimeoutMs = static_cast<uint64_t>(SlowMs < 0 ? 0 : SlowMs);
  O.Reactors = Reactors;
  O.ForceAcceptHandoff = NoReusePort;
  O.ShedHighWater = static_cast<size_t>(ShedHigh < 0 ? 0 : ShedHigh);
  O.ShedHardWater = static_cast<size_t>(ShedHard < 0 ? 0 : ShedHard);
  O.ShedLaxTightness = ShedLax;
  O.ForcePoll = ForcePoll;
  O.Service.NumWorkers = Threads;
  O.Service.QueueCapacity =
      static_cast<size_t>(QueueCap < 1 ? 1 : QueueCap);
  O.Service.CacheCapacity =
      static_cast<size_t>(CacheCap < 1 ? 1 : CacheCap);
  if (!parseVerifyMode(VerifyArg, O.Service.Verify)) {
    std::fprintf(stderr,
                 "dvs-server: --verify must be off, warn, or strict "
                 "(got '%s')\n",
                 VerifyArg.c_str());
    return 1;
  }

  std::unique_ptr<cluster::PeerFiller> Filler;
  if (!Peers.empty()) {
    if (Self.empty()) {
      std::fprintf(stderr, "dvs-server: --peers requires --self\n");
      return 1;
    }
    ErrorOr<std::vector<cluster::Address>> List =
        cluster::parseAddressList(Peers);
    if (!List) {
      std::fprintf(stderr, "dvs-server: --peers: %s\n",
                   List.message().c_str());
      return 1;
    }
    cluster::PeerFillOptions FO;
    FO.Self = Self;
    for (const cluster::Address &A : *List)
      FO.Peers.push_back(A.name());
    FO.VirtualNodes = VNodes < 1 ? 1 : VNodes;
    Filler = std::make_unique<cluster::PeerFiller>(std::move(FO));
    O.Service.PeerFill = Filler->asFn();
  }

  std::signal(SIGPIPE, SIG_IGN);
  if (!TraceOut.empty() || TraceOn)
    obs::trace().setEnabled(true);

  net::Server Server(O);
  ErrorOr<bool> Started = Server.start();
  if (!Started) {
    std::fprintf(stderr, "dvs-server: %s\n", Started.message().c_str());
    return 1;
  }

  std::printf("{\"type\":\"listening\",\"port\":%u,\"backend\":\"%s\","
              "\"reactors\":%d,\"reuseport\":%s}\n",
              Server.port(), Server.backendName(), Server.reactors(),
              Server.usingReusePort() ? "true" : "false");
  std::fflush(stdout);
  if (!PortFile.empty())
    writeTextFile(PortFile, std::to_string(Server.port()) + "\n",
                  "port");

  GServer = &Server;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);

  uint64_t StartNs = monotonicNanos();
  for (;;) {
    if (Server.waitDrained(0.2))
      break;
    if (MaxSeconds > 0.0 &&
        static_cast<double>(monotonicNanos() - StartNs) * 1e-9 >=
            MaxSeconds)
      Server.beginDrain();
  }
  GServer = nullptr;
  net::ServerStats NS = Server.stats();
  CacheStats CS = Server.service().cacheStats();
  cluster::PeerFillStats FS = Filler ? Filler->stats() : cluster::PeerFillStats();
  Server.stop();

  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"type\":\"stats\",\"accepted\":%ld,\"conn_rejected\":%ld,"
      "\"closed\":%ld,\"frames_in\":%ld,\"frames_out\":%ld,"
      "\"bytes_in\":%lld,\"bytes_out\":%lld,\"rejects\":%ld,"
      "\"protocol_errors\":%ld,\"idle_closes\":%ld,"
      "\"request_timeouts\":%ld,\"read_pauses\":%ld,"
      "\"orphan_completions\":%ld,\"load_sheds\":%ld,"
      "\"slow_frame_closes\":%ld,\"handoff_accepts\":%ld,"
      "\"jobs\":{\"submitted\":%ld,\"completed\":%ld,\"rejected\":%ld,"
      "\"infeasible\":%ld,\"failed\":%ld},"
      "\"cache\":{\"hits\":%ld,\"misses\":%ld},"
      "\"peer\":{\"fills\":%ld,\"fetches\":%ld,\"served\":%ld}}",
      NS.ConnectionsAccepted, NS.ConnectionsRejected,
      NS.ConnectionsClosed, NS.FramesIn, NS.FramesOut, NS.BytesIn,
      NS.BytesOut, NS.RejectsSent, NS.ProtocolErrors, NS.IdleCloses,
      NS.RequestTimeouts, NS.ReadPauses, NS.OrphanCompletions,
      NS.LoadSheds, NS.SlowFrameCloses, NS.HandoffAccepts,
      jobCounter("cdvs_jobs_submitted_total"),
      jobCounter("cdvs_jobs_completed_total"),
      jobCounter("cdvs_jobs_rejected_total"),
      jobCounter("cdvs_jobs_infeasible_total"),
      jobCounter("cdvs_jobs_failed_total"), CS.Hits, CS.Misses,
      FS.Fills, FS.Fetches, NS.PeerFetches);
  std::printf("%s\n", Buf);
  std::fflush(stdout);

  if (!MetricsOut.empty())
    writeTextFile(MetricsOut, obs::metrics().renderPrometheus(),
                  "metrics");
  if (!MetricsJson.empty())
    writeTextFile(MetricsJson, obs::metrics().renderJson(),
                  "metrics JSON");
  if (!TraceOut.empty())
    writeTextFile(TraceOut,
                  obs::trace().renderChromeTrace(
                      static_cast<int>(getpid()), "dvs-server"),
                  "trace");
  return 0;
}
