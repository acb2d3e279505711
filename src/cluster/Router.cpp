//===- cluster/Router.cpp - Sharding front end over dvs-servers ------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "cluster/Router.h"

#include "cluster/Key.h"
#include "obs/Trace.h"
#include "service/JobIO.h"
#include "service/JsonLite.h"
#include "support/Clock.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace cdvs;
using namespace cdvs::cluster;

Router::Router(RouterOptions O)
    : Opts(std::move(O)), Ring(Opts.VirtualNodes),
      Flight(Opts.FlightCapacity), Host(Opts.Server, *this) {}

namespace {

std::string hex128(uint64_t Hi, uint64_t Lo) {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(Hi),
                static_cast<unsigned long long>(Lo));
  return Buf;
}

std::string flightRecordJson(const FlightRecord &R) {
  char Num[64];
  std::string J = "{\"trace_id\":\"" + R.TraceId + "\",\"key\":\"" +
                  R.Key + "\",\"client\":" + std::to_string(R.ClientId) +
                  ",\"corr\":" + std::to_string(R.ClientCorr) +
                  ",\"owner\":\"" + jsonEscape(R.Owner) +
                  "\",\"retries\":" + std::to_string(R.Retries) +
                  ",\"hops\":[";
  for (size_t I = 0; I < R.Hops.size(); ++I) {
    if (I)
      J += ',';
    std::snprintf(Num, sizeof(Num), "%.6f", R.Hops[I].second);
    J += "{\"backend\":\"" + jsonEscape(R.Hops[I].first) +
         "\",\"seconds\":" + Num + "}";
  }
  std::snprintf(Num, sizeof(Num), "%.6f", R.TotalSeconds);
  J += std::string("],\"verdict\":\"") + jsonEscape(R.Verdict) +
       "\",\"seconds\":" + Num + "}";
  return J;
}

} // namespace

Router::~Router() { stop(); }

Router::Backend *Router::backendByName(const std::string &Name) {
  for (auto &B : Backends)
    if (B->Name == Name)
      return B.get();
  return nullptr;
}

ErrorOr<bool> Router::start() {
  if (!Backends.empty())
    return makeError("router already started");
  if (Opts.Backends.empty())
    return makeError("router needs at least one backend");
  if (Opts.Server.Reactors != 1)
    return makeError("the router runs on exactly one reactor");

  for (const std::string &Text : Opts.Backends) {
    ErrorOr<Address> A = parseAddress(Text);
    if (!A)
      return makeError(A.message());
    const std::string Name = A->name();
    if (backendByName(Name))
      return makeError("duplicate backend '" + Name + "'");
    auto B = std::make_unique<Backend>();
    B->Index = static_cast<int>(Backends.size());
    B->Addr = *A;
    B->Name = Name;
    B->RequestsCtr = &obs::metrics().counter(
        "cdvs_cluster_requests_total",
        "requests proxied to each backend, retries included",
        {{"backend", Name}});
    B->UpGauge = &obs::metrics().gauge(
        "cdvs_cluster_backend_up",
        "1 while the backend is on the ring, 0 while evicted",
        {{"backend", Name}});
    B->UpGauge->set(1);
    B->LatencyHist = &obs::metrics().histogram(
        "cdvs_cluster_upstream_latency_seconds",
        "router-observed time from proxied send to backend answer",
        obs::latencyBucketsSeconds(), {{"backend", Name}});
    Ring.add(Name);
    Backends.push_back(std::move(B));
  }

  BackendsGauge = &obs::metrics().gauge(
      "cdvs_cluster_backends", "backends currently on the ring");
  BackendsGauge->set(static_cast<double>(Ring.size()));
  RetriesCtr = &obs::metrics().counter(
      "cdvs_cluster_retries_total",
      "in-flight requests re-routed to the next ring owner");
  EvictionsCtr = &obs::metrics().counter(
      "cdvs_cluster_backend_evictions_total",
      "backends evicted from the ring after consecutive transport "
      "failures");
  ReinstatementsCtr = &obs::metrics().counter(
      "cdvs_cluster_backend_reinstatements_total",
      "evicted backends that answered a probe and rejoined the ring");
  RejectsCtr = &obs::metrics().counter(
      "cdvs_cluster_rejects_total",
      "router-originated rejects (bad request, no backends, exhausted "
      "retry budget)");
  SlowCtr = &obs::metrics().counter(
      "cdvs_cluster_slow_requests_total",
      "requests the flight recorder saw finish over the slow-log "
      "threshold, or fail");

  if (Opts.SlowLogMs > 0) {
    if (Opts.SlowLogPath.empty() || Opts.SlowLogPath == "-") {
      SlowLog = stderr;
    } else {
      SlowLog = std::fopen(Opts.SlowLogPath.c_str(), "a");
      if (!SlowLog)
        return makeError("cannot open slow log '" + Opts.SlowLogPath +
                         "'");
      SlowLogOwned = true;
    }
  }

  return Host.start(); // onStart dials every backend
}

void Router::stop() {
  Host.stop();
  if (SlowLogOwned && SlowLog)
    std::fclose(SlowLog);
  SlowLog = nullptr;
  SlowLogOwned = false;
}

void Router::bump(long RouterStats::*Field) {
  std::lock_guard<std::mutex> Lock(StatsMu);
  ++(Counters.*Field);
}

RouterStats Router::stats() const {
  RouterStats S;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    S = Counters;
  }
  for (const auto &B : Backends)
    S.HealthyBackends += B->Healthy;
  return S;
}

std::vector<std::pair<std::string, bool>> Router::backendHealth() const {
  std::vector<std::pair<std::string, bool>> Out;
  for (const auto &B : Backends)
    Out.emplace_back(B->Name, B->Healthy);
  return Out;
}

std::vector<FlightRecord> Router::flightRecords() const {
  std::lock_guard<std::mutex> Lock(FlightMu);
  std::vector<FlightRecord> Out;
  Out.reserve(Flight.size());
  Flight.forEach([&Out](const FlightRecord &R) { Out.push_back(R); });
  return Out;
}

void Router::recordFlight(const PendingRequest &P,
                          const std::string &Verdict, uint64_t NowNs) {
  double Total = static_cast<double>(NowNs - P.StartNs) * 1e-9;
  int Retries = std::max(0, static_cast<int>(P.Tried.size()) - 1);
  if (P.Trace.valid() && obs::trace().enabled()) {
    // The router's span for this request: admission to answer, parented
    // under the client's span, parent of every upstream send — the hinge
    // of the cross-process timeline.
    obs::TraceEvent E;
    E.Name = "route";
    E.Cat = "cluster";
    E.Phase = 'X';
    E.Tid = obs::traceThreadId();
    E.StartNs = P.StartNs;
    E.DurNs = NowNs - P.StartNs;
    E.TraceHi = P.Trace.TraceHi;
    E.TraceLo = P.Trace.TraceLo;
    E.SpanId = P.RouteSpanId;
    E.ParentSpan = P.Trace.ParentSpan;
    E.ArgKey0 = "retries";
    E.ArgVal0 = Retries;
    obs::trace().record(E);
  }
  if (Opts.FlightCapacity == 0)
    return;
  FlightRecord R;
  if (P.Trace.valid())
    R.TraceId = hex128(P.Trace.TraceHi, P.Trace.TraceLo);
  R.Key = P.Key.toHex();
  R.ClientId = P.ClientId;
  R.ClientCorr = P.ClientCorr;
  R.Owner = P.Tried.empty() ? std::string() : P.Tried.front();
  R.Retries = Retries;
  R.Hops = P.Hops;
  R.Verdict = Verdict;
  R.TotalSeconds = Total;
  bool Slow = Opts.SlowLogMs > 0 &&
              (Verdict != "response" ||
               Total * 1e3 >= static_cast<double>(Opts.SlowLogMs));
  if (Slow) {
    SlowCtr->inc();
    if (SlowLog) {
      std::string Line = flightRecordJson(R);
      std::fprintf(SlowLog, "%s\n", Line.c_str());
      std::fflush(SlowLog);
    }
  }
  std::lock_guard<std::mutex> Lock(FlightMu);
  Flight.push(std::move(R));
}

//===----------------------------------------------------------------------===//
// Client side: the hosting server admits, the router routes
//===----------------------------------------------------------------------===//

std::string Router::statsExtras() {
  std::string Flights = ",\"flight\":[";
  std::lock_guard<std::mutex> Lock(FlightMu);
  bool First = true;
  Flight.forEach([&Flights, &First](const FlightRecord &R) {
    if (!First)
      Flights += ',';
    First = false;
    Flights += flightRecordJson(R);
  });
  return Flights + ']';
}

void Router::onStart(net::Reactor &R, uint64_t NowNs) {
  Loop = &R;
  for (auto &B : Backends)
    connect(*B, NowNs);
  armHealthTimer(NowNs);
}

void Router::onRequest(net::Reactor &R, net::Conn &C, net::Frame &F,
                       uint64_t NowNs) {
  ErrorOr<JobRequest> Req = jobRequestFromJsonText(F.Payload);
  const char *Code = !Req ? "bad_request" : Ring.empty() ? "no_backends"
                                                         : nullptr;
  if (Code) {
    RejectsCtr->inc();
    Host.reject(R, C.Id, F.Correlation, Code,
                !Req ? Req.message() : "no healthy backends on the ring");
    return;
  }
  PendingRequest P;
  P.ClientId = C.Id;
  P.ClientCorr = F.Correlation;
  P.Payload = std::move(F.Payload);
  P.Kind = F.Type;
  P.Key = requestKey(*Req);
  P.StartNs = NowNs;
  if (F.HasTrace && F.Trace.valid()) {
    P.Trace = F.Trace;
    // Allocated now so upstream sends can name it as their parent; the
    // span's completion event is recorded when the request retires.
    P.RouteSpanId = obs::nextSpanId();
  }
  const std::string *Owner = Ring.ownerOf(P.Key);
  Backend *B = Owner ? backendByName(*Owner) : nullptr;
  if (!B) {
    rejectPending(P, "no_backends", "ring lookup failed");
    return;
  }
  sendToBackend(*B, std::move(P), NowNs);
}

//===----------------------------------------------------------------------===//
// Backend side
//===----------------------------------------------------------------------===//

void Router::connect(Backend &B, uint64_t NowNs) {
  if (B.Link)
    return;
  ErrorOr<net::Conn *> L = Host.dial(*Loop, B.Addr.Host, B.Addr.Port,
                                     Opts.ConnectTimeoutMs, B.Index);
  if (!L) {
    transportFailure(B, NowNs);
    return;
  }
  B.Link = *L;
  // Probe ping, first out once the connect settles: reinstatement is
  // gated on an answered Pong, so a process that accepts but cannot
  // speak the protocol never rejoins.
  B.PingCorr = B.NextCorr++;
  Host.send(*Loop, *B.Link, net::FrameType::Ping, B.PingCorr, "");
}

void Router::onUpstreamDown(net::Reactor &, int Link, uint64_t NowNs) {
  Backend &B = *Backends[static_cast<size_t>(Link)];
  B.Link = nullptr; // the server already closed it
  transportFailure(B, NowNs);
}

void Router::onUpstreamFrame(net::Reactor &R, net::Conn &L, net::Frame &F,
                             uint64_t NowNs) {
  Backend &B = *Backends[static_cast<size_t>(L.Link)];
  // Any frame proves the link moves bytes; the health tick's ping only
  // decides for a link that carried nothing else.
  B.Heard = true;
  switch (F.Type) {
  case net::FrameType::Pong:
    if (F.Correlation == B.PingCorr && B.PingCorr != 0) {
      B.PingCorr = 0;
      recover(B);
    }
    break;
  case net::FrameType::Response:
  case net::FrameType::GraphResponse:
  case net::FrameType::Reject:
    deliver(B, F, NowNs);
    break;
  case net::FrameType::Ping:
    Host.send(R, L, net::FrameType::Pong, F.Correlation, "");
    break;
  default:
    transportFailure(B, NowNs); // not a frame a backend sends
    break;
  }
}

void Router::deliver(Backend &B, net::Frame &F, uint64_t NowNs) {
  auto It = B.InFlight.find(F.Correlation);
  if (It == B.InFlight.end()) {
    // A late answer for a request that timed out upstream and was
    // retried elsewhere: drop it.
    bump(&RouterStats::OrphanResponses);
    return;
  }
  PendingRequest P = std::move(It->second);
  B.InFlight.erase(It);
  if (P.TimerId) {
    Host.wheel(*Loop).cancel(P.TimerId);
    P.TimerId = 0;
  }
  // An answered request proves the transport works end to end.
  B.Failures = 0;
  B.LatencyHist->observe(static_cast<double>(NowNs - P.StartNs) * 1e-9);
  P.endHop(NowNs);

  if (!Host.awaiting(*Loop, P.ClientId, P.ClientCorr)) {
    orphan(P, NowNs);
    return;
  }
  bool IsReject = F.Type == net::FrameType::Reject;
  recordFlight(P, IsReject ? "reject" : "response", NowNs);
  bump(IsReject ? &RouterStats::RejectsRelayed
                : &RouterStats::ResponsesRelayed);
  if (!IsReject && Opts.AnnotateBackend && !F.Payload.empty() &&
      F.Payload.front() == '{') {
    size_t Close = F.Payload.rfind('}');
    if (Close != std::string::npos)
      F.Payload.insert(Close, ",\"backend\":\"" + jsonEscape(B.Name) + "\"");
  }
  Host.answer(*Loop, P.ClientId, P.ClientCorr, F.Type, F.Payload);
}

void Router::sendToBackend(Backend &B, PendingRequest P, uint64_t NowNs) {
  P.Tried.push_back(B.Name);
  P.HopStartNs = NowNs;
  uint64_t Corr = B.NextCorr++;
  bump(&RouterStats::RequestsRouted);
  B.RequestsCtr->inc();
  if (Opts.UpstreamTimeoutMs > 0) {
    Backend *BP = &B;
    P.TimerId = Host.wheel(*Loop).schedule(
        NowNs, Opts.UpstreamTimeoutMs * 1'000'000ull, [this, BP, Corr] {
          auto It = BP->InFlight.find(Corr);
          if (It == BP->InFlight.end())
            return;
          PendingRequest Timed = std::move(It->second);
          BP->InFlight.erase(It);
          Timed.TimerId = 0;
          bump(&RouterStats::UpstreamTimeouts);
          retryPending(std::move(Timed), monotonicNanos());
        });
  }
  const PendingRequest &Q =
      B.InFlight.emplace(Corr, std::move(P)).first->second;
  // An idle backend dials first; a connect that fails at once re-enters
  // transportFailure -> retryPending, which takes this request along.
  connect(B, NowNs);
  if (!B.Link)
    return;
  // Re-emit the client's trace context upstream with the router's route
  // span as parent, so backend spans nest under the router's hop.
  net::TraceContext Upstream = Q.Trace;
  Upstream.ParentSpan = Q.RouteSpanId;
  Host.send(*Loop, *B.Link, Q.Kind, Corr, Q.Payload,
            Q.Trace.valid() ? &Upstream : nullptr);
}

void Router::transportFailure(Backend &B, uint64_t NowNs) {
  obs::traceInstant("cluster_backend_failure", "cluster", "failures",
                    static_cast<double>(B.Failures + 1));
  if (B.Link) {
    Host.close(*Loop, B.Link->Id);
    B.Link = nullptr;
  }
  // Take the requests that were riding the link.
  std::vector<PendingRequest> Orphans;
  Orphans.reserve(B.InFlight.size());
  for (auto &KV : B.InFlight) {
    if (KV.second.TimerId)
      Host.wheel(*Loop).cancel(KV.second.TimerId);
    KV.second.TimerId = 0;
    Orphans.push_back(std::move(KV.second));
  }
  B.InFlight.clear();
  B.PingCorr = 0;
  B.Heard = false;
  ++B.Failures;
  if (B.Healthy && B.Failures >= Opts.FailThreshold)
    markDown(B);
  for (PendingRequest &P : Orphans)
    retryPending(std::move(P), NowNs);
}

void Router::markDown(Backend &B) {
  Ring.remove(B.Name);
  B.UpGauge->set(0);
  EvictionsCtr->inc();
  BackendsGauge->set(static_cast<double>(Ring.size()));
  bump(&RouterStats::BackendEvictions);
  B.Healthy = false; // last: whoever sees it also sees the count
}

void Router::recover(Backend &B) {
  B.Failures = 0;
  if (B.Healthy)
    return;
  Ring.add(B.Name);
  B.UpGauge->set(1);
  ReinstatementsCtr->inc();
  BackendsGauge->set(static_cast<double>(Ring.size()));
  bump(&RouterStats::BackendReinstatements);
  B.Healthy = true;
}

void Router::retryPending(PendingRequest P, uint64_t NowNs) {
  P.endHop(NowNs); // the hop that just failed or timed out
  if (!Host.awaiting(*Loop, P.ClientId, P.ClientCorr)) {
    orphan(P, NowNs);
    return;
  }
  if (static_cast<int>(P.Tried.size()) > Opts.RetryBudget) {
    rejectPending(P, "upstream", "retry budget exhausted");
    return;
  }
  Backend *Next = nullptr;
  for (const std::string &Name :
       Ring.ownersOf(P.Key, Backends.size())) {
    if (std::find(P.Tried.begin(), P.Tried.end(), Name) ==
        P.Tried.end()) {
      Next = backendByName(Name);
      break;
    }
  }
  if (!Next) {
    rejectPending(P, "upstream",
                  "no healthy backend remains for this key");
    return;
  }
  bump(&RouterStats::Retries);
  RetriesCtr->inc();
  sendToBackend(*Next, std::move(P), NowNs);
}

void Router::orphan(PendingRequest &P, uint64_t NowNs) {
  recordFlight(P, "orphan", NowNs);
  bump(&RouterStats::OrphanResponses);
  // Sends nothing: it only settles the request's admission.
  Host.answer(*Loop, P.ClientId, P.ClientCorr, net::FrameType::Reject, "");
}

void Router::rejectPending(PendingRequest &P, const std::string &Code,
                           const std::string &Reason) {
  if (P.TimerId) {
    Host.wheel(*Loop).cancel(P.TimerId);
    P.TimerId = 0;
  }
  recordFlight(P, Code, monotonicNanos());
  if (Host.awaiting(*Loop, P.ClientId, P.ClientCorr))
    RejectsCtr->inc();
  Host.reject(*Loop, P.ClientId, P.ClientCorr, Code, Reason);
}

void Router::healthTick(uint64_t NowNs) {
  for (auto &BP : Backends) {
    Backend &B = *BP;
    if (!B.Link) {
      connect(B, NowNs);
      continue;
    }
    if (B.Link->Connecting)
      continue; // the connect deadline owns this
    bool Heard = std::exchange(B.Heard, false);
    if (B.PingCorr != 0 && !Heard) {
      // Last tick's probe is unanswered and nothing else arrived since:
      // the link is not moving frames, whatever the solvers are doing.
      transportFailure(B, NowNs);
      continue;
    }
    if (B.PingCorr == 0) {
      B.PingCorr = B.NextCorr++;
      Host.send(*Loop, *B.Link, net::FrameType::Ping, B.PingCorr, "");
    }
  }
  armHealthTimer(monotonicNanos());
}

void Router::armHealthTimer(uint64_t NowNs) {
  Host.wheel(*Loop).schedule(NowNs, Opts.HealthIntervalMs * 1'000'000ull,
                             [this] { healthTick(monotonicNanos()); });
}
