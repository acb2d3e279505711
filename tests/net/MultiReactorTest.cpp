//===- tests/net/MultiReactorTest.cpp - N-reactor server lifecycle ---------===//
//
// net::Server with Reactors > 1 over real loopback sockets: requests
// served across four SO_REUSEPORT listeners, out-of-order pipelining
// with connections spread over reactors, graceful drain quiescing every
// reactor, the single-acceptor fd-handoff fallback, overload shedding by
// deadline class against the per-reactor pending watermark, and the
// slow-frame (slowloris) guard. TSan runs these too — the per-reactor
// completion queues and handoff paths are exactly what it watches.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Server.h"
#include "obs/Metrics.h"

#include "service/JobIO.h"
#include "support/Clock.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace cdvs;
using namespace cdvs::net;

namespace {

constexpr int kFrameWaitMs = 120'000; // MILP under TSan can be slow

ServerOptions reactorOptions(int Reactors) {
  ServerOptions O;
  O.Reactors = Reactors;
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

void startOrDie(Server &S) {
  ErrorOr<bool> R = S.start();
  ASSERT_TRUE(R.hasValue()) << R.message();
}

Client connectOrDie(const Server &S) {
  ErrorOr<Client> C = Client::connect("127.0.0.1", S.port());
  EXPECT_TRUE(C.hasValue()) << C.message();
  return C ? std::move(*C) : Client();
}

/// Jobs admitted by every service in this process: the registry is the
/// only job counter, so tests wait on its rise from a baseline.
double jobsSubmitted() {
  return obs::metrics().counter("cdvs_jobs_submitted_total", "").value();
}

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

TEST(MultiReactor, ServesAcrossFourReactors) {
  Server S(reactorOptions(4));
  startOrDie(S);
  EXPECT_EQ(S.reactors(), 4);

  const int kClients = 8;
  std::vector<Client> Clients;
  for (int I = 0; I < kClients; ++I)
    Clients.push_back(connectOrDie(S));
  for (int I = 0; I < kClients; ++I) {
    ErrorOr<JobResult> R =
        Clients[I].call(gsmJob("mr" + std::to_string(I)), kFrameWaitMs);
    ASSERT_TRUE(R.hasValue()) << R.message();
    EXPECT_EQ(R->Status, JobStatus::Done) << R->Reason;
    EXPECT_EQ(R->Id, "mr" + std::to_string(I));
  }

  ServerStats NS = S.stats();
  EXPECT_EQ(NS.ConnectionsAccepted, kClients);
  EXPECT_GE(NS.FramesIn, kClients);
  EXPECT_GE(NS.FramesOut, kClients);
}

TEST(MultiReactor, PipelinedResponsesSpreadAcrossReactors) {
  Server S(reactorOptions(4));
  startOrDie(S);

  // Warm the (service-wide) cache so pipelined requests answer in
  // microseconds and genuinely interleave across reactors.
  {
    Client Warm = connectOrDie(S);
    ErrorOr<JobResult> R = Warm.call(gsmJob("warm"), kFrameWaitMs);
    ASSERT_TRUE(R.hasValue()) << R.message();
  }

  const int kClients = 4;
  const int kPerClient = 8;
  std::vector<Client> Clients;
  std::vector<std::set<uint64_t>> Sent(kClients);
  for (int I = 0; I < kClients; ++I)
    Clients.push_back(connectOrDie(S));
  for (int I = 0; I < kClients; ++I)
    for (int J = 0; J < kPerClient; ++J) {
      ErrorOr<uint64_t> Corr = Clients[I].sendRequest(
          gsmJob("p" + std::to_string(I) + "." + std::to_string(J)));
      ASSERT_TRUE(Corr.hasValue()) << Corr.message();
      Sent[I].insert(*Corr);
    }

  // Every response arrives on the connection that asked, matched by
  // correlation id; cross-connection order is unconstrained.
  for (int I = 0; I < kClients; ++I) {
    std::set<uint64_t> Got;
    for (int J = 0; J < kPerClient; ++J) {
      ErrorOr<Frame> F = Clients[I].readFrame(kFrameWaitMs);
      ASSERT_TRUE(F.hasValue())
          << "client " << I << " response " << J << ": " << F.message();
      EXPECT_EQ(F->Type, FrameType::Response);
      Got.insert(F->Correlation);
    }
    EXPECT_EQ(Got, Sent[I]);
  }
}

TEST(MultiReactor, GracefulDrainQuiescesAllReactors) {
  ServerOptions O = reactorOptions(4);
  O.Service.StartPaused = true; // queue everything before the drain
  Server S(O);
  startOrDie(S);
  double Base = jobsSubmitted();

  const int kClients = 4;
  std::vector<Client> Clients;
  std::vector<uint64_t> Corrs(kClients);
  for (int I = 0; I < kClients; ++I)
    Clients.push_back(connectOrDie(S));
  for (int I = 0; I < kClients; ++I) {
    ErrorOr<uint64_t> Corr =
        Clients[I].sendRequest(gsmJob("d" + std::to_string(I)));
    ASSERT_TRUE(Corr.hasValue());
    Corrs[I] = *Corr;
  }
  ASSERT_TRUE(eventually(120.0, [&] {
    return jobsSubmitted() - Base == kClients;
  }));

  S.beginDrain();
  S.service().resume();

  // Every admitted job answers on its own connection, then EOF.
  for (int I = 0; I < kClients; ++I) {
    ErrorOr<Frame> F = Clients[I].readFrame(kFrameWaitMs);
    ASSERT_TRUE(F.hasValue()) << "client " << I << ": " << F.message();
    EXPECT_EQ(F->Type, FrameType::Response);
    EXPECT_EQ(F->Correlation, Corrs[I]);
    EXPECT_FALSE(Clients[I].readFrame(kFrameWaitMs).hasValue());
  }

  EXPECT_TRUE(S.waitDrained(120.0));
  EXPECT_FALSE(Client::connect("127.0.0.1", S.port()).hasValue());
  EXPECT_EQ(S.stats().OpenConnections, 0u);
}

TEST(MultiReactor, AcceptHandoffFallbackServes) {
  ServerOptions O = reactorOptions(2);
  O.ForceAcceptHandoff = true;
  Server S(O);
  startOrDie(S);
  EXPECT_FALSE(S.usingReusePort());
  EXPECT_EQ(S.reactors(), 2);

  // Reactor 0 accepts and round-robins; every other connection crosses
  // the handoff queue to reactor 1 and must still serve.
  const int kClients = 4;
  std::vector<Client> Clients;
  for (int I = 0; I < kClients; ++I)
    Clients.push_back(connectOrDie(S));
  for (int I = 0; I < kClients; ++I) {
    ErrorOr<uint64_t> Corr = Clients[I].ping(100 + I);
    ASSERT_TRUE(Corr.hasValue());
    ErrorOr<Frame> F = Clients[I].readFrame(kFrameWaitMs);
    ASSERT_TRUE(F.hasValue()) << F.message();
    EXPECT_EQ(F->Type, FrameType::Pong);
    EXPECT_EQ(F->Correlation, 100u + I);
  }

  ServerStats NS = S.stats();
  EXPECT_EQ(NS.ConnectionsAccepted, kClients);
  EXPECT_EQ(NS.HandoffAccepts, kClients / 2);
}

TEST(MultiReactor, ShedsLaxThenEverythingPastTheWatermarks) {
  ServerOptions O = reactorOptions(1);
  O.Service.StartPaused = true; // admitted jobs stay pending
  O.ShedHighWater = 2;          // hard water defaults to 4
  Server S(O);
  startOrDie(S);
  double Base = jobsSubmitted();
  Client C = connectOrDie(S);

  // Two urgent jobs fill the reactor to the high-water mark.
  ASSERT_TRUE(C.sendRequest(gsmJob("u1", 0.2)).hasValue());
  ASSERT_TRUE(C.sendRequest(gsmJob("u2", 0.2)).hasValue());
  ASSERT_TRUE(eventually(
      120.0, [&] { return jobsSubmitted() - Base == 2; }));

  // At the mark, a lax request sheds before it is parsed...
  ErrorOr<uint64_t> LaxCorr = C.sendRequest(gsmJob("lax", 0.8));
  ASSERT_TRUE(LaxCorr.hasValue());
  ErrorOr<Frame> Shed = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(Shed.hasValue()) << Shed.message();
  EXPECT_EQ(Shed->Type, FrameType::Reject);
  EXPECT_EQ(Shed->Correlation, *LaxCorr);
  ErrorOr<RejectInfo> R1 = decodeReject(Shed->Payload);
  ASSERT_TRUE(R1.hasValue());
  EXPECT_EQ(R1->Code, "shed");

  // ...while urgent requests stay admitted up to the hard water mark.
  ASSERT_TRUE(C.sendRequest(gsmJob("u3", 0.2)).hasValue());
  ASSERT_TRUE(C.sendRequest(gsmJob("u4", 0.2)).hasValue());
  ASSERT_TRUE(eventually(
      120.0, [&] { return jobsSubmitted() - Base == 4; }));

  // Past it, even urgent requests shed.
  ErrorOr<uint64_t> HardCorr = C.sendRequest(gsmJob("u5", 0.2));
  ASSERT_TRUE(HardCorr.hasValue());
  ErrorOr<Frame> Hard = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(Hard.hasValue()) << Hard.message();
  EXPECT_EQ(Hard->Type, FrameType::Reject);
  EXPECT_EQ(Hard->Correlation, *HardCorr);
  ErrorOr<RejectInfo> R2 = decodeReject(Hard->Payload);
  ASSERT_TRUE(R2.hasValue());
  EXPECT_EQ(R2->Code, "shed");
  EXPECT_EQ(S.stats().LoadSheds, 2);

  // Release the backlog: every admitted job still answers.
  S.service().resume();
  std::set<std::string> Ids;
  for (int I = 0; I < 4; ++I) {
    ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
    ASSERT_TRUE(F.hasValue()) << "response " << I << ": " << F.message();
    EXPECT_EQ(F->Type, FrameType::Response);
    ErrorOr<JobResult> JR = jobResultFromJsonText(F->Payload);
    ASSERT_TRUE(JR.hasValue()) << JR.message();
    Ids.insert(JR->Id);
  }
  EXPECT_EQ(Ids, (std::set<std::string>{"u1", "u2", "u3", "u4"}));
}

TEST(MultiReactor, SlowClientDrawsSlowFrameRejectThenClose) {
  ServerOptions O = reactorOptions(1);
  O.SlowFrameTimeoutMs = 60;
  Server S(O);
  startOrDie(S);
  Client C = connectOrDie(S);

  // Dribble half a header, then stall — classic slowloris.
  std::string F = encodeFrame(FrameType::Request, 9, "{\"x\":1}");
  ASSERT_TRUE(C.sendRaw(F.data(), 6).hasValue());

  ErrorOr<Frame> Got = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(Got.hasValue()) << Got.message();
  EXPECT_EQ(Got->Type, FrameType::Reject);
  ErrorOr<RejectInfo> R = decodeReject(Got->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "slow_frame");
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue());
  EXPECT_EQ(S.stats().SlowFrameCloses, 1);
}

TEST(MultiReactor, SteadyDribbleAcrossFramesNeverTripsTheGuard) {
  ServerOptions O = reactorOptions(1);
  O.SlowFrameTimeoutMs = 120;
  Server S(O);
  startOrDie(S);
  Client C = connectOrDie(S);

  // Three pings, each delivered in two chunks with a pause well inside
  // the window: every complete frame restarts the clock, so a slow but
  // steady client is never punished.
  for (int I = 0; I < 3; ++I) {
    std::string F = encodeFrame(FrameType::Ping, 10 + I, "");
    ASSERT_TRUE(C.sendRaw(F.data(), 8).hasValue());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(C.sendRaw(F.data() + 8, F.size() - 8).hasValue());
    ErrorOr<Frame> Pong = C.readFrame(kFrameWaitMs);
    ASSERT_TRUE(Pong.hasValue()) << Pong.message();
    EXPECT_EQ(Pong->Type, FrameType::Pong);
    EXPECT_EQ(Pong->Correlation, 10u + I);
  }
  EXPECT_EQ(S.stats().SlowFrameCloses, 0);
}

} // namespace
