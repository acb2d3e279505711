//===- tests/cluster/RouterTest.cpp - sharding front end end to end -------===//
//
// cluster::Router over real loopback sockets against real net::Server
// backends: proxying with the backend annotation, deterministic ring
// routing (predicted by an independently built HashRing), mid-flight
// backend kill with exactly one answer, the eviction/reinstatement
// state machine, the no_backends reject, and both PeerFetch outcomes
// (miss → cold solve; hit → cache fill after a restart).
//
// Backends solve real MILPs, so timeouts are generous (sanitizer builds
// run these too); assertions are on ordering and state, never speed.
// The health-liveness cases run against a scripted fake backend that
// can withhold Pongs or fall silent on demand; the guard cases check
// that the hosting net::Server's reject-then-close contract (the one
// the net tests pin) holds on the router too.
//
//===----------------------------------------------------------------------===//

#include "cluster/Key.h"
#include "cluster/PeerFill.h"
#include "cluster/Ring.h"
#include "cluster/Router.h"

#include "net/Client.h"
#include "net/EventLoop.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "service/JobIO.h"
#include "service/JsonLite.h"
#include "support/Clock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cdvs;
using namespace cdvs::cluster;

namespace {

constexpr int kFrameWaitMs = 120'000; // MILP under TSan can be slow

net::ServerOptions backendOptions() {
  net::ServerOptions O;
  O.Service.NumWorkers = 2;
  O.Service.QueueCapacity = 64;
  return O;
}

JobRequest gsmJob(const std::string &Id, double Tightness = 0.5) {
  JobRequest R;
  R.Id = Id;
  R.Workload = "gsm";
  R.DeadlineTightness = Tightness;
  return R;
}

void startOrDie(net::Server &S) {
  ErrorOr<bool> R = S.start();
  ASSERT_TRUE(R.hasValue()) << R.message();
}

std::string nameOf(const net::Server &S) {
  return "127.0.0.1:" + std::to_string(S.port());
}

RouterOptions routerOptions(std::vector<std::string> Backends) {
  RouterOptions O;
  O.Backends = std::move(Backends);
  O.HealthIntervalMs = 50;
  O.FailThreshold = 1; // loopback transport failures are never transient
  O.ConnectTimeoutMs = 500;
  return O;
}

net::Client connectOrDie(const Router &R) {
  ErrorOr<net::Client> C = net::Client::connect("127.0.0.1", R.port());
  EXPECT_TRUE(C.hasValue()) << C.message();
  return C ? std::move(*C) : net::Client();
}

/// Jobs admitted by every service in this process: the registry is the
/// only job counter, so tests wait on its rise from a baseline.
double jobsSubmitted() {
  return obs::metrics().counter("cdvs_jobs_submitted_total", "").value();
}

/// Polls \p Pred for up to \p Seconds.
bool eventually(double Seconds, const std::function<bool()> &Pred) {
  uint64_t Deadline =
      monotonicNanos() + static_cast<uint64_t>(Seconds * 1e9);
  while (monotonicNanos() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Pred();
}

bool backendOnRing(const Router &R, const std::string &Name) {
  for (const auto &[B, Up] : R.backendHealth())
    if (B == Name)
      return Up;
  ADD_FAILURE() << Name << " is not a configured backend";
  return false;
}

/// A tightness whose request key the ring assigns to \p Owner. The
/// local ring is built exactly as the router builds its own, so this is
/// a prediction, not a probe — the routing test closes the loop.
double tightnessOwnedBy(const HashRing &Ring, const std::string &Owner) {
  for (int I = 0; I <= 500; ++I) {
    double T = 0.45 + 0.001 * I;
    const std::string *O = Ring.ownerOf(requestKey(gsmJob("probe", T)));
    if (O && *O == Owner)
      return T;
  }
  ADD_FAILURE() << "no tightness in [0.45, 0.95] maps to " << Owner;
  return 0.5;
}

/// Reads the next frame and expects Reject{\p Code}, then the server's
/// close: the contract every net::Server guard keeps.
void expectRejectThenClose(net::Client &C, const std::string &Code) {
  ErrorOr<net::Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, net::FrameType::Reject);
  ErrorOr<net::RejectInfo> R = net::decodeReject(F->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, Code);
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue()) << "expected EOF";
}

/// A scripted backend on a test thread: a listenTcp socket plus one
/// FrameParser per accepted connection. It answers Requests with a
/// canned Response and Pings with Pongs, as the mode allows.
class FakeBackend {
public:
  enum Mode { AnswerAll, WithholdPongs, Silent };
  std::atomic<int> Behavior{AnswerAll};
  std::atomic<int> PongsSent{0};

  FakeBackend() {
    ErrorOr<int> L = net::listenTcp("127.0.0.1", 0, 16);
    EXPECT_TRUE(L.hasValue()) << L.message();
    ListenFd = L ? *L : -1;
    ErrorOr<uint16_t> P = net::localPort(ListenFd);
    Port = P ? *P : 0;
    Thread = std::thread([this] { run(); });
  }
  ~FakeBackend() {
    Stop = true;
    Thread.join();
    ::close(ListenFd);
  }
  std::string name() const { return "127.0.0.1:" + std::to_string(Port); }

private:
  struct Peer {
    int Fd;
    net::FrameParser Parser;
  };

  void run() {
    std::vector<std::unique_ptr<Peer>> Peers;
    while (!Stop) {
      std::vector<pollfd> Fds{{ListenFd, POLLIN, 0}};
      for (const auto &P : Peers)
        Fds.push_back({P->Fd, POLLIN, 0});
      if (::poll(Fds.data(), Fds.size(), 5) <= 0)
        continue;
      if (Fds[0].revents) {
        int Fd = ::accept(ListenFd, nullptr, nullptr);
        if (Fd >= 0)
          Peers.push_back(std::make_unique<Peer>(Peer{Fd, net::FrameParser()}));
      }
      for (size_t I = 1; I < Fds.size(); ++I) {
        if (!Fds[I].revents)
          continue;
        Peer &P = *Peers[I - 1];
        char Buf[4096];
        ssize_t N = ::recv(P.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
        if (N == 0) {
          ::close(P.Fd);
          P.Fd = -1;
          continue;
        }
        if (N > 0)
          P.Parser.feed(Buf, static_cast<size_t>(N));
        net::Frame F;
        while (P.Parser.next(F) == net::FrameParser::Next::Frame)
          answer(P, F);
      }
      for (size_t I = Peers.size(); I-- > 0;)
        if (Peers[I]->Fd < 0)
          Peers.erase(Peers.begin() + static_cast<long>(I));
    }
    for (const auto &P : Peers)
      ::close(P->Fd);
  }

  void answer(Peer &P, const net::Frame &F) {
    int M = Behavior.load();
    std::string Out;
    if (F.Type == net::FrameType::Request && M != Silent)
      Out = net::encodeFrame(net::FrameType::Response, F.Correlation,
                             "{\"id\":\"fake\",\"status\":\"done\"}");
    else if (F.Type == net::FrameType::Ping && M == AnswerAll)
      Out = net::encodeFrame(net::FrameType::Pong, F.Correlation, "");
    if (Out.empty())
      return;
    (void)::send(P.Fd, Out.data(), Out.size(), MSG_NOSIGNAL);
    if (F.Type == net::FrameType::Ping)
      ++PongsSent;
  }

  int ListenFd = -1;
  uint16_t Port = 0;
  std::atomic<bool> Stop{false};
  std::thread Thread;
};

TEST(ClusterRouter, ProxiesAndAnnotatesTheBackend) {
  net::Server B(backendOptions());
  startOrDie(B);
  Router R(routerOptions({nameOf(B)}));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();

  net::Client C = connectOrDie(R);
  ErrorOr<JobResult> Res = C.call(gsmJob("via-router"), kFrameWaitMs);
  ASSERT_TRUE(Res.hasValue()) << Res.message();
  EXPECT_EQ(Res->Status, JobStatus::Done) << Res->Reason;
  EXPECT_EQ(Res->Id, "via-router");
  EXPECT_EQ(Res->Backend, nameOf(B))
      << "the router must stamp the serving backend into the response";
  EXPECT_FALSE(Res->ScheduleText.empty());

  // The same problem again is the same shard's cache hit.
  ErrorOr<JobResult> Again = C.call(gsmJob("again"), kFrameWaitMs);
  ASSERT_TRUE(Again.hasValue()) << Again.message();
  EXPECT_TRUE(Again->CacheHit);
  EXPECT_EQ(Again->ScheduleText, Res->ScheduleText);

  RouterStats S = R.stats();
  EXPECT_EQ(R.server().stats().ConnectionsAccepted, 1);
  EXPECT_GE(S.RequestsRouted, 2);
  EXPECT_EQ(S.ResponsesRelayed, 2);
  EXPECT_EQ(R.server().stats().RejectsSent, 0);
  EXPECT_EQ(S.OrphanResponses, 0);
}

TEST(ClusterRouter, RoutesEachKeyToItsPredictedRingOwner) {
  net::Server B1(backendOptions()), B2(backendOptions()),
      B3(backendOptions());
  startOrDie(B1);
  startOrDie(B2);
  startOrDie(B3);
  std::vector<std::string> Names = {nameOf(B1), nameOf(B2), nameOf(B3)};

  Router R(routerOptions(Names));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();

  HashRing Local;
  for (const std::string &N : Names)
    Local.add(N);

  net::Client C = connectOrDie(R);
  for (const std::string &Owner : Names) {
    double T = tightnessOwnedBy(Local, Owner);
    ErrorOr<JobResult> Res =
        C.call(gsmJob("owned-" + Owner, T), kFrameWaitMs);
    ASSERT_TRUE(Res.hasValue()) << Res.message();
    EXPECT_EQ(Res->Backend, Owner)
        << "tightness " << T << " routed off its predicted owner";
  }
}

TEST(ClusterRouter, MidFlightKillRetriesOnNextOwnerWithoutDuplicates) {
  // The victim's service starts paused so the request is parked in its
  // admission queue — guaranteed in flight through the router — when
  // the backend dies under it.
  net::ServerOptions Paused = backendOptions();
  Paused.Service.StartPaused = true;
  net::Server Victim(Paused);
  net::Server B2(backendOptions()), B3(backendOptions());
  startOrDie(Victim);
  startOrDie(B2);
  startOrDie(B3);
  std::vector<std::string> Names = {nameOf(Victim), nameOf(B2),
                                    nameOf(B3)};

  Router R(routerOptions(Names));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();

  HashRing Local;
  for (const std::string &N : Names)
    Local.add(N);
  double T = tightnessOwnedBy(Local, nameOf(Victim));

  // Only the victim is sent a request, so the process-wide admission
  // count rising by one means it is parked in the victim's queue.
  double Base = jobsSubmitted();
  net::Client C = connectOrDie(R);
  ErrorOr<uint64_t> Corr = C.sendRequest(gsmJob("fail-over", T));
  ASSERT_TRUE(Corr.hasValue());
  ASSERT_TRUE(eventually(120.0, [&] { return jobsSubmitted() - Base == 1; }))
      << "request never reached the victim backend";

  Victim.stop(); // EOF on the router's upstream connection

  // Exactly one answer, from a surviving backend.
  ErrorOr<net::Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, net::FrameType::Response);
  EXPECT_EQ(F->Correlation, *Corr);
  ErrorOr<JobResult> Res = jobResultFromJsonText(F->Payload);
  ASSERT_TRUE(Res.hasValue()) << Res.message();
  EXPECT_EQ(Res->Status, JobStatus::Done) << Res->Reason;
  EXPECT_NE(Res->Backend, nameOf(Victim));
  EXPECT_FALSE(Res->Backend.empty());

  RouterStats S = R.stats();
  EXPECT_GE(S.Retries, 1);
  EXPECT_GE(S.BackendEvictions, 1);
  EXPECT_EQ(R.server().stats().RejectsSent, 0);

  // ... and only one: nothing else arrives for this connection.
  ErrorOr<net::Frame> Extra = C.readFrame(400);
  EXPECT_FALSE(Extra.hasValue());
  EXPECT_NE(Extra.message().find("timed out"), std::string::npos)
      << Extra.message();
}

TEST(ClusterRouter, EvictsDeadBackendAndReinstatesOnAnsweredProbe) {
  net::Server Stable(backendOptions());
  startOrDie(Stable);
  net::Server Flaky(backendOptions());
  startOrDie(Flaky);
  uint16_t FlakyPort = Flaky.port();
  std::string FlakyName = nameOf(Flaky);

  Router R(routerOptions({nameOf(Stable), FlakyName}));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();
  ASSERT_TRUE(eventually(
      30.0, [&] { return R.stats().HealthyBackends == 2; }));

  Flaky.stop();
  ASSERT_TRUE(
      eventually(30.0, [&] { return !backendOnRing(R, FlakyName); }))
      << "dead backend never left the ring";
  EXPECT_GE(R.stats().BackendEvictions, 1);

  // While evicted, the survivor owns the whole key space.
  {
    net::Client C = connectOrDie(R);
    ErrorOr<JobResult> Res = C.call(gsmJob("during"), kFrameWaitMs);
    ASSERT_TRUE(Res.hasValue()) << Res.message();
    EXPECT_EQ(Res->Backend, nameOf(Stable));
  }

  // Same address comes back; an answered probe reinstates it.
  net::ServerOptions O = backendOptions();
  O.Port = FlakyPort;
  net::Server Reborn(O);
  startOrDie(Reborn);
  ASSERT_EQ(nameOf(Reborn), FlakyName);
  ASSERT_TRUE(
      eventually(30.0, [&] { return backendOnRing(R, FlakyName); }))
      << "restarted backend never rejoined the ring";
  EXPECT_GE(R.stats().BackendReinstatements, 1);

  // And it serves again: a key it owns routes to it.
  HashRing Local;
  Local.add(nameOf(Stable));
  Local.add(FlakyName);
  double T = tightnessOwnedBy(Local, FlakyName);
  net::Client C = connectOrDie(R);
  ErrorOr<JobResult> Res = C.call(gsmJob("after", T), kFrameWaitMs);
  ASSERT_TRUE(Res.hasValue()) << Res.message();
  EXPECT_EQ(Res->Status, JobStatus::Done) << Res->Reason;
  EXPECT_EQ(Res->Backend, FlakyName);
}

TEST(ClusterRouter, EmptyRingDrawsNoBackendsReject) {
  // Nothing listens on the victim port (bind-then-close reserves one).
  uint16_t Dead = 0;
  {
    net::Server Probe(backendOptions());
    startOrDie(Probe);
    Dead = Probe.port();
    Probe.stop();
  }
  Router R(routerOptions({"127.0.0.1:" + std::to_string(Dead)}));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();
  ASSERT_TRUE(eventually(
      30.0, [&] { return R.stats().HealthyBackends == 0; }))
      << "unreachable backend never evicted";

  net::Client C = connectOrDie(R);
  ErrorOr<JobResult> Res = C.call(gsmJob("nowhere"), kFrameWaitMs);
  ASSERT_FALSE(Res.hasValue());
  EXPECT_NE(Res.message().find("no_backends"), std::string::npos)
      << Res.message();
  EXPECT_GE(R.server().stats().RejectsSent, 1);
}

TEST(ClusterRouter, FlightRecorderCapturesTracedRequestAndStatsScrape) {
  net::Server B(backendOptions());
  startOrDie(B);
  RouterOptions O = routerOptions({nameOf(B)});
  O.FlightCapacity = 16;
  O.SlowLogMs = 1; // a cold MILP solve always clears 1ms
  O.SlowLogPath = ::testing::TempDir() + "cdvs-router-slow-" +
                  std::to_string(::getpid()) + ".jsonl";
  Router R(O);
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();

  net::Client C = connectOrDie(R);
  net::TraceContext T;
  T.TraceHi = 0x1234;
  T.TraceLo = 0x5678;
  T.ParentSpan = 7;
  T.Sampled = true;
  ErrorOr<uint64_t> Corr = C.sendRequest(gsmJob("flight"), 0, &T);
  ASSERT_TRUE(Corr.hasValue()) << Corr.message();
  for (;;) {
    ErrorOr<net::Frame> F = C.readFrame(kFrameWaitMs);
    ASSERT_TRUE(F.hasValue()) << F.message();
    if (F->Correlation != *Corr)
      continue;
    ASSERT_EQ(F->Type, net::FrameType::Response);
    break;
  }

  std::vector<FlightRecord> Recs = R.flightRecords();
  ASSERT_EQ(Recs.size(), 1u);
  const FlightRecord &Rec = Recs[0];
  EXPECT_EQ(Rec.Verdict, "response");
  EXPECT_EQ(Rec.Owner, nameOf(B));
  EXPECT_EQ(Rec.Retries, 0);
  EXPECT_EQ(Rec.TraceId, "00000000000012340000000000005678");
  EXPECT_EQ(Rec.Key.size(), 32u);
  ASSERT_EQ(Rec.Hops.size(), 1u);
  EXPECT_EQ(Rec.Hops[0].first, nameOf(B));
  EXPECT_GT(Rec.Hops[0].second, 0.0);
  EXPECT_GE(Rec.TotalSeconds, Rec.Hops[0].second);

  // The slow log got the same record as a JSON line (fsynced per line,
  // so it is readable while the router runs).
  {
    std::ifstream Slow(O.SlowLogPath);
    ASSERT_TRUE(Slow.good()) << "slow log was not created";
    std::string Line;
    ASSERT_TRUE(std::getline(Slow, Line));
    EXPECT_NE(Line.find("\"verdict\":\"response\""), std::string::npos)
        << Line;
    EXPECT_NE(Line.find(Rec.TraceId), std::string::npos) << Line;
  }

  // A StatsFetch over the same connection answers the live view:
  // role, metrics exposition, and the flight ring.
  ErrorOr<uint64_t> SCorr = C.sendStatsFetch();
  ASSERT_TRUE(SCorr.hasValue()) << SCorr.message();
  for (;;) {
    ErrorOr<net::Frame> F = C.readFrame(kFrameWaitMs);
    ASSERT_TRUE(F.hasValue()) << F.message();
    if (F->Correlation != *SCorr)
      continue;
    ASSERT_EQ(F->Type, net::FrameType::StatsData);
    ErrorOr<JsonValue> V = parseJson(F->Payload);
    ASSERT_TRUE(V.hasValue()) << V.message();
    EXPECT_EQ(V->find("role")->Str, "router");
    EXPECT_GT(V->find("pid")->Num, 0.0);
    EXPECT_GT(V->find("now_ns")->Num, 0.0);
    const JsonValue *Flight = V->find("flight");
    ASSERT_NE(Flight, nullptr);
    ASSERT_EQ(Flight->Arr.size(), 1u);
    EXPECT_EQ(Flight->Arr[0].find("trace_id")->Str, Rec.TraceId);
    const JsonValue *Metrics = V->find("metrics");
    ASSERT_NE(Metrics, nullptr);
    EXPECT_NE(Metrics->Str.find("cdvs_cluster_requests_total"),
              std::string::npos);
    EXPECT_NE(Metrics->Str.find("cdvs_cluster_slow_requests_total"),
              std::string::npos);
    // The hosting server's series: this very probe is counted, and the
    // open client connections are gauged.
    EXPECT_NE(Metrics->Str.find(
                  "cdvs_net_frames_total{type=\"stats_fetch\",dir=\"in\""),
              std::string::npos);
    EXPECT_NE(Metrics->Str.find("cdvs_net_connections{state=\"open\""),
              std::string::npos);
    break;
  }
  std::remove(O.SlowLogPath.c_str());
}

TEST(ClusterRouter, PeerFetchMissFallsBackToColdSolve) {
  // Fresh cluster, nothing cached anywhere: the owner's PeerFiller asks
  // its peer, records a miss, and solves cold — correctness never
  // depends on the peer having the key.
  net::Server Plain(backendOptions());
  startOrDie(Plain);

  net::ServerOptions FO = backendOptions();
  // Two-step start: the filler needs both final addresses, but Self's
  // port is only known after start() — so install the fill hook through
  // an indirection filled in afterwards.
  struct Holder {
    PeerFillFn F;
  };
  auto H = std::make_shared<Holder>();
  FO.Service.PeerFill = [H](const JobRequest &Req,
                            const std::string &Fp) {
    return H->F ? H->F(Req, Fp) : nullptr;
  };
  net::Server Owner(FO);
  startOrDie(Owner);

  PeerFillOptions PO;
  PO.Self = nameOf(Owner);
  PO.Peers = {nameOf(Owner), nameOf(Plain)};
  PeerFiller Filler(PO);
  H->F = Filler.asFn();

  Router R(routerOptions({nameOf(Owner), nameOf(Plain)}));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();

  HashRing Local;
  Local.add(nameOf(Owner));
  Local.add(nameOf(Plain));
  double T = tightnessOwnedBy(Local, nameOf(Owner));

  net::Client C = connectOrDie(R);
  ErrorOr<JobResult> Res = C.call(gsmJob("cold", T), kFrameWaitMs);
  ASSERT_TRUE(Res.hasValue()) << Res.message();
  EXPECT_EQ(Res->Status, JobStatus::Done) << Res->Reason;
  EXPECT_EQ(Res->Backend, nameOf(Owner));
  EXPECT_FALSE(Res->CacheHit);

  PeerFillStats FS = Filler.stats();
  EXPECT_GE(FS.Fetches, 1);
  EXPECT_GE(FS.Misses, 1);
  EXPECT_EQ(FS.Fills, 0);
  EXPECT_EQ(Owner.service().cacheStats().Misses, 1); // solved cold
  EXPECT_GE(Plain.stats().PeerFetches, 1);
  EXPECT_EQ(Plain.stats().PeerFetchHits, 0);
}

TEST(ClusterRouter, RestartedOwnerFillsItsCacheFromThePreviousOwner) {
  // The full migration story: the owner dies, a survivor solves (and
  // caches) its keys, the owner returns cold and pulls the schedule
  // over PeerFetch instead of re-solving — byte-identical.
  net::Server B2(backendOptions()), B3(backendOptions());
  startOrDie(B2);
  startOrDie(B3);
  net::Server First(backendOptions());
  startOrDie(First);
  uint16_t OwnerPort = First.port();
  std::string OwnerName = nameOf(First);
  std::vector<std::string> Names = {OwnerName, nameOf(B2), nameOf(B3)};

  Router R(routerOptions(Names));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();

  HashRing Local;
  for (const std::string &N : Names)
    Local.add(N);
  double T = tightnessOwnedBy(Local, OwnerName);

  // Kill the owner before it ever sees the key.
  First.stop();
  ASSERT_TRUE(
      eventually(30.0, [&] { return !backendOnRing(R, OwnerName); }));

  // A survivor solves and caches the key while the owner is out; the
  // interim ring is exactly Names minus the owner.
  HashRing Interim;
  for (const std::string &N : Names)
    if (N != OwnerName)
      Interim.add(N);
  const std::string Previous =
      *Interim.ownerOf(requestKey(gsmJob("x", T)));

  net::Client C = connectOrDie(R);
  ErrorOr<JobResult> Warm = C.call(gsmJob("warm", T), kFrameWaitMs);
  ASSERT_TRUE(Warm.hasValue()) << Warm.message();
  ASSERT_EQ(Warm->Status, JobStatus::Done) << Warm->Reason;
  EXPECT_EQ(Warm->Backend, Previous);

  // The owner returns on its old address, peer-fill wired up.
  net::ServerOptions RO = backendOptions();
  RO.Port = OwnerPort;
  PeerFillOptions PO;
  PO.Self = OwnerName;
  PO.Peers = Names;
  PeerFiller Filler(PO);
  RO.Service.PeerFill = Filler.asFn();
  net::Server Reborn(RO);
  startOrDie(Reborn);
  ASSERT_EQ(nameOf(Reborn), OwnerName);
  ASSERT_TRUE(
      eventually(30.0, [&] { return backendOnRing(R, OwnerName); }))
      << "owner never reinstated";

  // The key routes home; the cold cache fills from the previous owner.
  ErrorOr<JobResult> Back = C.call(gsmJob("back", T), kFrameWaitMs);
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  EXPECT_EQ(Back->Status, JobStatus::Done) << Back->Reason;
  EXPECT_EQ(Back->Backend, OwnerName);
  EXPECT_EQ(Back->Fingerprint, Warm->Fingerprint);
  EXPECT_EQ(Back->ScheduleText, Warm->ScheduleText)
      << "peer-filled schedule must be byte-identical to the origin's";

  PeerFillStats FS = Filler.stats();
  EXPECT_GE(FS.Fills, 1);
  EXPECT_EQ(FS.Errors, 0);
  // The one cache miss was the fill: the key was never solved here.
  EXPECT_EQ(Reborn.service().cacheStats().Misses, 1);
}

TEST(ClusterRouter, DrainAnswersInFlightThenCloses) {
  net::Server B(backendOptions());
  startOrDie(B);
  Router R(routerOptions({nameOf(B)}));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();

  net::Client C = connectOrDie(R);
  ErrorOr<uint64_t> Corr = C.sendRequest(gsmJob("draining"));
  ASSERT_TRUE(Corr.hasValue());
  ASSERT_TRUE(eventually(
      120.0, [&] { return R.stats().RequestsRouted >= 1; }));

  R.beginDrain();
  ErrorOr<net::Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, net::FrameType::Response);
  EXPECT_EQ(F->Correlation, *Corr);
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue()) << "expected EOF";
  EXPECT_TRUE(R.waitDrained(120.0));
  // The listener is gone.
  EXPECT_FALSE(net::Client::connect("127.0.0.1", R.port()).hasValue());
}

TEST(ClusterRouter, LatePongsDoNotEvictABackendThatIsAnswering) {
  // A stalled host answers requests but holds its Pongs past the probe
  // deadline. Frames on the link prove it alive: no eviction.
  FakeBackend Fake;
  Router R(routerOptions({Fake.name()}));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();
  ASSERT_TRUE(eventually(30.0, [&] { return Fake.PongsSent >= 1; }))
      << "the router never probed the fake backend";
  Fake.Behavior = FakeBackend::WithholdPongs;

  net::Client C = connectOrDie(R);
  int Answered = 0;
  uint64_t End = monotonicNanos() + 8 * 50'000'000ull; // 8 intervals
  while (monotonicNanos() < End) {
    ErrorOr<uint64_t> Corr = C.sendRequest(gsmJob("busy"));
    ASSERT_TRUE(Corr.hasValue()) << Corr.message();
    ErrorOr<net::Frame> F = C.readFrame(kFrameWaitMs);
    ASSERT_TRUE(F.hasValue()) << F.message();
    ASSERT_EQ(F->Type, net::FrameType::Response) << F->Payload;
    ++Answered;
  }
  EXPECT_GT(Answered, 0);
  EXPECT_TRUE(backendOnRing(R, Fake.name()));
  EXPECT_EQ(R.stats().BackendEvictions, 0);
}

TEST(ClusterRouter, SilentBackendIsStillEvicted) {
  // A backend that stops answering anything fails its next probe.
  FakeBackend Fake;
  Router R(routerOptions({Fake.name()}));
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();
  ASSERT_TRUE(eventually(30.0, [&] { return Fake.PongsSent >= 1; }));
  ASSERT_TRUE(backendOnRing(R, Fake.name()));

  Fake.Behavior = FakeBackend::Silent;
  ASSERT_TRUE(eventually(30.0, [&] { return !backendOnRing(R, Fake.name()); }))
      << "a silent backend stayed on the ring";
  EXPECT_GE(R.stats().BackendEvictions, 1);
}

TEST(ClusterRouter, SlowFrameDrawsTheServersRejectThenClose) {
  FakeBackend Fake;
  RouterOptions O = routerOptions({Fake.name()});
  O.Server.SlowFrameTimeoutMs = 60;
  Router R(O);
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();
  net::Client C = connectOrDie(R);

  // Dribble half a header, then stall — classic slowloris.
  std::string F = net::encodeFrame(net::FrameType::Request, 9, "{\"x\":1}");
  ASSERT_TRUE(C.sendRaw(F.data(), 6).hasValue());
  expectRejectThenClose(C, "slow_frame");
  EXPECT_EQ(R.server().stats().SlowFrameCloses, 1);
}

TEST(ClusterRouter, ConnectionLimitDrawsTheServersOverloadedReject) {
  FakeBackend Fake;
  RouterOptions O = routerOptions({Fake.name()});
  O.Server.MaxConnections = 1;
  Router R(O);
  ErrorOr<bool> Started = R.start();
  ASSERT_TRUE(Started.hasValue()) << Started.message();

  net::Client C1 = connectOrDie(R);
  ASSERT_TRUE(C1.ping().hasValue());
  ASSERT_TRUE(C1.readFrame(kFrameWaitMs).hasValue());

  net::Client C2 = connectOrDie(R);
  expectRejectThenClose(C2, "overloaded");
  EXPECT_EQ(R.server().stats().ConnectionsRejected, 1);
}

} // namespace
