//===- tools/dvs-router.cpp - cluster sharding front end -------------------===//
//
// Shards cdvs-wire v1 requests across dvs-server backends on a
// consistent-hash ring (cluster::Router, hosted by a one-reactor
// net::Server). Clients speak to the router exactly as they would to
// one dvs-server, guards included; the router keys each request
// (cluster/Key.h), proxies it to the ring owner, health-checks backends
// on a timer (evicting after --fail-threshold consecutive transport
// failures, reinstating on an answered probe), and fails idempotent
// solves over to the next ring owner within --retry-budget. Relayed
// Responses carry a "backend":"host:port" annotation for dvs-loadgen's
// per-backend latency breakdown (--no-annotate turns it off).
//
// Lifecycle mirrors dvs-server: one {"type":"listening",...} JSON line
// on stdout once bound (or --port-file), SIGTERM/SIGINT begin a
// graceful drain, and the process exits with one {"type":"stats",...}
// line. --metrics-out snapshots the cdvs_cluster_* families after the
// drain; a live view needs no files at all — dvs-stat --scrape sends a
// StatsFetch frame and gets metrics, the trace ring, and the flight
// recorder (the last --flight-capacity request records) back over the
// wire. --slow-log-ms dumps slow or failed requests as JSON lines.
//
//===----------------------------------------------------------------------===//

#include "cluster/Router.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ArgParse.h"
#include "support/Clock.h"

#include <csignal>
#include <cstdio>
#include <string>

#include <unistd.h>

using namespace cdvs;

namespace {

cluster::Router *GRouter = nullptr;

void onSignal(int) {
  if (GRouter)
    GRouter->beginDrain();
}

bool writeTextFile(const std::string &Path, const std::string &Text,
                   const char *What) {
  std::FILE *F = Path == "-" ? stderr : std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "dvs-router: cannot write %s file '%s'\n", What,
                 Path.c_str());
    return false;
  }
  std::fwrite(Text.data(), 1, Text.size(), F);
  if (F != stderr)
    std::fclose(F);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  ArgParser P("dvs-router",
              "consistent-hash sharding front end over dvs-server "
              "backends: one wire endpoint, N solvers");
  std::string &Bind =
      P.addString("bind", "127.0.0.1", "address to listen on");
  int &Port = P.addInt("port", 0, "TCP port; 0 picks an ephemeral one");
  std::string &BackendsArg = P.addString(
      "backends", "",
      "comma-separated dvs-server addresses (host:port,...); required");
  int &VNodes = P.addInt(
      "vnodes", 64,
      "consistent-ring virtual nodes per backend; must match the "
      "backends' --vnodes");
  int &MaxConns =
      P.addInt("max-conns", 256, "client connection limit");
  int &MaxFrameKb =
      P.addInt("max-frame-kb", 1024, "per-frame payload cap in KiB");
  int &HealthMs = P.addInt(
      "health-interval-ms", 500,
      "backend probe cadence; also the ping-answer deadline");
  int &FailThreshold = P.addInt(
      "fail-threshold", 3,
      "consecutive transport failures that evict a backend");
  int &ConnectMs =
      P.addInt("connect-timeout-ms", 1000, "backend connect deadline");
  int &UpstreamMs = P.addInt(
      "upstream-timeout-ms", 0,
      "re-route a request unanswered this long; 0 = off (backends own "
      "solve timeouts)");
  int &RetryBudget = P.addInt(
      "retry-budget", 2,
      "failover retries per request after its first routing");
  bool &NoAnnotate = P.addFlag(
      "no-annotate",
      "do not splice \"backend\":\"host:port\" into relayed Responses");
  bool &ForcePoll =
      P.addFlag("poll", "use the portable poll(2) backend, not epoll");
  double &MaxSeconds = P.addDouble(
      "max-seconds", 0.0, "drain and exit after this long; 0 = forever");
  std::string &PortFile = P.addString(
      "port-file", "", "write the bound port here once listening");
  std::string &MetricsOut = P.addString(
      "metrics-out", "",
      "write Prometheus text metrics here after the drain ('-' = "
      "stderr)");
  std::string &MetricsJson = P.addString(
      "metrics-json", "", "write the metrics registry as JSON here");
  int &FlightCap = P.addInt(
      "flight-capacity", 256,
      "flight-recorder depth: recent request records kept for "
      "StatsFetch scrapes; 0 = off");
  int &SlowLogMs = P.addInt(
      "slow-log-ms", 0,
      "dump requests slower than this (or failed) as JSON lines to "
      "--slow-log; 0 = off");
  std::string &SlowLogPath = P.addString(
      "slow-log", "",
      "slow-log destination ('' or '-' = stderr)");
  std::string &TraceOut = P.addString(
      "trace-out", "",
      "enable span tracing; write Chrome trace_event JSON here on "
      "exit");
  bool &TraceOn = P.addFlag(
      "trace",
      "enable span tracing into the in-memory ring without writing a "
      "file (scrape it live with dvs-stat --scrape)");
  if (!P.parseOrExit(argc, argv))
    return 0;

  if (BackendsArg.empty()) {
    std::fprintf(stderr, "dvs-router: --backends is required\n");
    return 1;
  }
  ErrorOr<std::vector<cluster::Address>> List =
      cluster::parseAddressList(BackendsArg);
  if (!List) {
    std::fprintf(stderr, "dvs-router: --backends: %s\n",
                 List.message().c_str());
    return 1;
  }

  cluster::RouterOptions O;
  O.Server.BindAddress = Bind;
  O.Server.Port = static_cast<uint16_t>(Port);
  O.Server.MaxConnections =
      static_cast<size_t>(MaxConns < 1 ? 1 : MaxConns);
  O.Server.MaxFrameBytes =
      static_cast<size_t>(MaxFrameKb < 1 ? 1 : MaxFrameKb) * 1024;
  O.Server.ForcePoll = ForcePoll;
  for (const cluster::Address &A : *List)
    O.Backends.push_back(A.name());
  O.VirtualNodes = VNodes < 1 ? 1 : VNodes;
  O.HealthIntervalMs =
      static_cast<uint64_t>(HealthMs < 1 ? 1 : HealthMs);
  O.FailThreshold = FailThreshold < 1 ? 1 : FailThreshold;
  O.ConnectTimeoutMs =
      static_cast<uint64_t>(ConnectMs < 1 ? 1 : ConnectMs);
  O.UpstreamTimeoutMs =
      static_cast<uint64_t>(UpstreamMs < 0 ? 0 : UpstreamMs);
  O.RetryBudget = RetryBudget < 0 ? 0 : RetryBudget;
  O.AnnotateBackend = !NoAnnotate;
  O.FlightCapacity = static_cast<size_t>(FlightCap < 0 ? 0 : FlightCap);
  O.SlowLogMs = static_cast<uint64_t>(SlowLogMs < 0 ? 0 : SlowLogMs);
  O.SlowLogPath = SlowLogPath;

  std::signal(SIGPIPE, SIG_IGN);
  if (!TraceOut.empty() || TraceOn)
    obs::trace().setEnabled(true);

  cluster::Router Router(O);
  ErrorOr<bool> Started = Router.start();
  if (!Started) {
    std::fprintf(stderr, "dvs-router: %s\n", Started.message().c_str());
    return 1;
  }

  std::printf("{\"type\":\"listening\",\"port\":%u,\"backend\":\"%s\","
              "\"backends\":%zu}\n",
              Router.port(), Router.backendName(), O.Backends.size());
  std::fflush(stdout);
  if (!PortFile.empty())
    writeTextFile(PortFile, std::to_string(Router.port()) + "\n",
                  "port");

  GRouter = &Router;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);

  uint64_t StartNs = monotonicNanos();
  for (;;) {
    if (Router.waitDrained(0.2))
      break;
    if (MaxSeconds > 0.0 &&
        static_cast<double>(monotonicNanos() - StartNs) * 1e-9 >=
            MaxSeconds)
      Router.beginDrain();
  }
  GRouter = nullptr;
  net::ServerStats NS = Router.server().stats();
  cluster::RouterStats S = Router.stats();
  Router.stop();

  std::printf(
      "{\"type\":\"stats\",\"accepted\":%ld,\"conn_rejected\":%ld,"
      "\"closed\":%ld,\"frames_in\":%ld,\"frames_out\":%ld,"
      "\"routed\":%ld,\"responses\":%ld,\"rejects_relayed\":%ld,"
      "\"rejects_sent\":%ld,\"retries\":%ld,\"evictions\":%ld,"
      "\"reinstatements\":%ld,\"upstream_timeouts\":%ld,"
      "\"orphans\":%ld,\"protocol_errors\":%ld,"
      "\"healthy_backends\":%zu}\n",
      NS.ConnectionsAccepted, NS.ConnectionsRejected, NS.ConnectionsClosed,
      NS.FramesIn, NS.FramesOut, S.RequestsRouted, S.ResponsesRelayed,
      S.RejectsRelayed, NS.RejectsSent, S.Retries, S.BackendEvictions,
      S.BackendReinstatements, S.UpstreamTimeouts, S.OrphanResponses,
      NS.ProtocolErrors, S.HealthyBackends);
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
                      static_cast<int>(getpid()), "dvs-router"),
                  "trace");
  return 0;
}
