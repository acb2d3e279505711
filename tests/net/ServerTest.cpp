//===- tests/net/ServerTest.cpp - loopback server end to end ---------------===//
//
// net::Server over real loopback sockets: frame round trips onto the
// scheduling pipeline, out-of-order pipelining by correlation id, the
// reject-then-close protocol-error path, idle and request timeouts,
// write backpressure against a non-reading client, connection limits,
// and graceful drain. Deterministic sequencing leans on the embedded
// service's pause()/resume() (hold jobs in the admission queue) and on
// pre-warming the result cache so "fast" requests answer in
// microseconds while "slow" ones solve a MILP.
//
// Timeouts are generous (sanitizer builds run these too); tests assert
// on ordering and state, never on wall-clock speed.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Server.h"
#include "obs/Metrics.h"

#include "net/EventLoop.h"
#include "service/JobIO.h"
#include "support/Clock.h"
#include "taskgraph/Generator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

using namespace cdvs;
using namespace cdvs::net;

namespace {

constexpr int kFrameWaitMs = 120'000; // MILP under TSan can be slow

ServerOptions quickOptions() {
  ServerOptions O;
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

/// start()s or fails the test.
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

TEST(NetServer, SolvesARequestOverLoopback) {
  Server S(quickOptions());
  startOrDie(S);
  ASSERT_GT(S.port(), 0);
  Client C = connectOrDie(S);

  ErrorOr<JobResult> R = C.call(gsmJob("wire1"), kFrameWaitMs);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Status, JobStatus::Done) << R->Reason;
  EXPECT_EQ(R->Id, "wire1");
  EXPECT_FALSE(R->ScheduleText.empty());
  EXPECT_EQ(R->Fingerprint.size(), 32u);

  ServerStats NS = S.stats();
  EXPECT_EQ(NS.ConnectionsAccepted, 1);
  EXPECT_GE(NS.FramesIn, 1);
  EXPECT_GE(NS.FramesOut, 1);
  EXPECT_GT(NS.BytesIn, 0);
  EXPECT_GT(NS.BytesOut, 0);
}

TEST(NetServer, PingPongEchoesCorrelationWithClockStamp) {
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);

  ErrorOr<uint64_t> Corr = C.ping(42);
  ASSERT_TRUE(Corr.hasValue());
  ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, FrameType::Pong);
  EXPECT_EQ(F->Correlation, 42u);
  // The payload carries the server's monotonic clock so scrapers can
  // align per-process timelines from the RTT midpoint.
  EXPECT_NE(F->Payload.find("\"now_ns\":"), std::string::npos);
}

TEST(NetServer, PipelinedResponsesReturnOutOfOrderByCorrelation) {
  // One worker + the service's deadline-urgency priority queue makes
  // response order deterministic: with both jobs admitted before the
  // worker runs, the stringent one dequeues (and answers) first even
  // though it was pipelined second.
  ServerOptions O = quickOptions();
  O.Service.NumWorkers = 1;
  O.Service.StartPaused = true;
  Server S(O);
  startOrDie(S);
  double Base = jobsSubmitted();

  Client C = connectOrDie(S);
  ErrorOr<uint64_t> Lax = C.sendRequest(gsmJob("lax", 0.8));
  ErrorOr<uint64_t> Urgent = C.sendRequest(gsmJob("urgent", 0.31));
  ASSERT_TRUE(Lax.hasValue());
  ASSERT_TRUE(Urgent.hasValue());
  ASSERT_NE(*Lax, *Urgent);
  ASSERT_TRUE(eventually(
      120.0, [&] { return jobsSubmitted() - Base == 2; }));
  S.service().resume();

  ErrorOr<Frame> First = C.readFrame(kFrameWaitMs);
  ErrorOr<Frame> Second = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(First.hasValue()) << First.message();
  ASSERT_TRUE(Second.hasValue()) << Second.message();

  // The urgent job answers first even though it was sent second.
  EXPECT_EQ(First->Correlation, *Urgent);
  EXPECT_EQ(Second->Correlation, *Lax);
  ErrorOr<JobResult> UrgentR = jobResultFromJsonText(First->Payload);
  ErrorOr<JobResult> LaxR = jobResultFromJsonText(Second->Payload);
  ASSERT_TRUE(UrgentR.hasValue()) << UrgentR.message();
  ASSERT_TRUE(LaxR.hasValue()) << LaxR.message();
  EXPECT_EQ(UrgentR->Id, "urgent");
  EXPECT_EQ(LaxR->Id, "lax");
}

TEST(NetServer, DuplicateInFlightCorrelationIdIsRejected) {
  ServerOptions O = quickOptions();
  O.Service.StartPaused = true; // hold the first request in flight
  Server S(O);
  startOrDie(S);
  Client C = connectOrDie(S);

  ASSERT_TRUE(C.sendRequest(gsmJob("a"), 77).hasValue());
  ASSERT_TRUE(C.sendRequest(gsmJob("b"), 77).hasValue());
  ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, FrameType::Reject);
  EXPECT_EQ(F->Correlation, 77u);
  ErrorOr<RejectInfo> R = decodeReject(F->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "bad_request");
  S.service().resume();
}

TEST(NetServer, BadMagicDrawsRejectThenClose) {
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);

  std::string Bad = encodeFrame(FrameType::Ping, 1, "");
  Bad[0] = 'Z';
  ASSERT_TRUE(C.sendRaw(Bad.data(), Bad.size()).hasValue());

  ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, FrameType::Reject);
  ErrorOr<RejectInfo> R = decodeReject(F->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "bad_magic");
  // ... then close.
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue());
  EXPECT_EQ(S.stats().ProtocolErrors, 1);
}

TEST(NetServer, OversizedFrameDrawsTooLargeRejectThenClose) {
  ServerOptions O = quickOptions();
  O.MaxFrameBytes = 1024;
  Server S(O);
  startOrDie(S);
  Client C = connectOrDie(S);

  // Announce a payload over the cap; never send it.
  FrameHeader H;
  H.Type = FrameType::Request;
  H.Correlation = 3;
  H.PayloadBytes = 4096;
  unsigned char Hdr[kFrameHeaderBytes];
  encodeFrameHeader(H, Hdr);
  ASSERT_TRUE(C.sendRaw(Hdr, sizeof(Hdr)).hasValue());

  ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, FrameType::Reject);
  ErrorOr<RejectInfo> R = decodeReject(F->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "too_large");
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue());
}

TEST(NetServer, TruncatedFrameAtEofDrawsRejectThenClose) {
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);

  std::string Partial = encodeFrame(FrameType::Request, 8, "{\"x\":1}");
  ASSERT_TRUE(C.sendRaw(Partial.data(), Partial.size() - 4).hasValue());
  C.shutdownWrite();

  ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, FrameType::Reject);
  ErrorOr<RejectInfo> R = decodeReject(F->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "bad_frame");
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue());
}

TEST(NetServer, ClientSentResponseFrameDrawsRejectThenClose) {
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);

  std::string F = encodeFrame(FrameType::Response, 4, "{}");
  ASSERT_TRUE(C.sendRaw(F.data(), F.size()).hasValue());
  ErrorOr<Frame> Got = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(Got.hasValue()) << Got.message();
  EXPECT_EQ(Got->Type, FrameType::Reject);
  ErrorOr<RejectInfo> R = decodeReject(Got->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "bad_frame");
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue());
}

TEST(NetServer, MalformedRequestJsonRejectsButKeepsTheConnection) {
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);

  std::string F = encodeFrame(FrameType::Request, 5, "{\"nope\":true}");
  ASSERT_TRUE(C.sendRaw(F.data(), F.size()).hasValue());
  ErrorOr<Frame> Got = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(Got.hasValue()) << Got.message();
  EXPECT_EQ(Got->Type, FrameType::Reject);
  EXPECT_EQ(Got->Correlation, 5u);
  ErrorOr<RejectInfo> R = decodeReject(Got->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "bad_request");

  // A bad request is the client's problem, not a framing error — the
  // connection still works.
  ErrorOr<uint64_t> Corr = C.ping();
  ASSERT_TRUE(Corr.hasValue());
  ErrorOr<Frame> Pong = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(Pong.hasValue()) << Pong.message();
  EXPECT_EQ(Pong->Type, FrameType::Pong);
}

JobRequest cannedGraphJob(const std::string &Id) {
  ErrorOr<taskgraph::TaskGraph> G =
      taskgraph::cannedTaskGraph("pair2-early");
  EXPECT_TRUE(G.hasValue()) << G.message();
  JobRequest R;
  R.Id = Id;
  R.Graph = std::make_shared<const taskgraph::TaskGraph>(std::move(*G));
  return R;
}

TEST(NetServer, GraphJobsRoundTripOnGraphFrames) {
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);

  // call() picks the graph frame kind from the request and accepts the
  // graph response kind; the result carries the task-plan pairing.
  ErrorOr<JobResult> R = C.call(cannedGraphJob("g1"), kFrameWaitMs);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Status, JobStatus::Done) << R->Reason;
  EXPECT_GE(R->Replans, 1);
  EXPECT_EQ(R->ScheduleText.rfind("cdvs-taskplan v1\n", 0), 0u);
  EXPECT_LE(R->PredictedEnergyJoules, R->StaticEnergyJoules);

  // And the same job again is a cache hit across the wire.
  ErrorOr<JobResult> R2 = C.call(cannedGraphJob("g2"), kFrameWaitMs);
  ASSERT_TRUE(R2.hasValue()) << R2.message();
  EXPECT_TRUE(R2->CacheHit);
  EXPECT_EQ(R2->ScheduleText, R->ScheduleText);
}

TEST(NetServer, FrameKindMustMatchPayloadKind) {
  // A graph payload on a plain Request frame (and vice versa) is a
  // malformed request: routers key graph jobs off the frame type alone,
  // so a mismatch would silently shard-split the cache. Reject, keep
  // the connection.
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);

  std::string GraphPayload = jobRequestToJson(cannedGraphJob("m1"));
  std::string F = encodeFrame(FrameType::Request, 21, GraphPayload);
  ASSERT_TRUE(C.sendRaw(F.data(), F.size()).hasValue());
  ErrorOr<Frame> Got = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(Got.hasValue()) << Got.message();
  EXPECT_EQ(Got->Type, FrameType::Reject);
  EXPECT_EQ(Got->Correlation, 21u);
  ErrorOr<RejectInfo> RI = decodeReject(Got->Payload);
  ASSERT_TRUE(RI.hasValue());
  EXPECT_EQ(RI->Code, "bad_request");

  std::string PlainPayload = jobRequestToJson(gsmJob("m2"));
  std::string F2 = encodeFrame(FrameType::GraphRequest, 22, PlainPayload);
  ASSERT_TRUE(C.sendRaw(F2.data(), F2.size()).hasValue());
  ErrorOr<Frame> Got2 = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(Got2.hasValue()) << Got2.message();
  EXPECT_EQ(Got2->Type, FrameType::Reject);
  ErrorOr<RejectInfo> RI2 = decodeReject(Got2->Payload);
  ASSERT_TRUE(RI2.hasValue());
  EXPECT_EQ(RI2->Code, "bad_request");

  // The connection survived both rejects.
  ErrorOr<uint64_t> Corr = C.ping();
  ASSERT_TRUE(Corr.hasValue());
  ErrorOr<Frame> Pong = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(Pong.hasValue()) << Pong.message();
  EXPECT_EQ(Pong->Type, FrameType::Pong);
}

TEST(NetServer, IdleConnectionIsRejectedAndClosed) {
  ServerOptions O = quickOptions();
  O.IdleTimeoutMs = 60;
  Server S(O);
  startOrDie(S);
  Client C = connectOrDie(S);

  // Send nothing; the server should evict us.
  ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, FrameType::Reject);
  ErrorOr<RejectInfo> R = decodeReject(F->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "idle_timeout");
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue());
  EXPECT_EQ(S.stats().IdleCloses, 1);
}

TEST(NetServer, RequestTimeoutRejectsAndDropsTheLateResult) {
  ServerOptions O = quickOptions();
  O.RequestTimeoutMs = 60;
  O.Service.StartPaused = true; // guarantee the deadline hits first
  Server S(O);
  startOrDie(S);
  Client C = connectOrDie(S);

  ErrorOr<uint64_t> Corr = C.sendRequest(gsmJob("late"));
  ASSERT_TRUE(Corr.hasValue());
  ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, FrameType::Reject);
  EXPECT_EQ(F->Correlation, *Corr);
  ErrorOr<RejectInfo> R = decodeReject(F->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "timeout");
  EXPECT_EQ(S.stats().RequestTimeouts, 1);

  // Release the job; its result must be swallowed as an orphan, not
  // sent as a second answer for the same correlation id.
  S.service().resume();
  EXPECT_TRUE(eventually(
      120.0, [&] { return S.stats().OrphanCompletions == 1; }));

  // The connection survives and still serves fresh requests.
  ErrorOr<JobResult> Again = C.call(gsmJob("after"), kFrameWaitMs);
  ASSERT_TRUE(Again.hasValue()) << Again.message();
  EXPECT_EQ(Again->Status, JobStatus::Done) << Again->Reason;
}

TEST(NetServer, WriteBackpressurePausesReadingUntilTheClientDrains) {
  ServerOptions O = quickOptions();
  O.SocketSendBufferBytes = 4096; // keep kernel slack tiny
  O.WriteQueueHighWater = 16 * 1024;
  O.WriteQueueLowWater = 4 * 1024;
  Server S(O);
  startOrDie(S);

  {
    Client Warm = connectOrDie(S);
    ErrorOr<JobResult> R = Warm.call(gsmJob("warm"), kFrameWaitMs);
    ASSERT_TRUE(R.hasValue()) << R.message();
  }

  // Pipeline many cached requests without reading a byte back. Each
  // response carries the schedule (~1 KiB), so the write queue blows
  // through the high-water mark once the 4 KiB socket buffer fills.
  Client C = connectOrDie(S);
  // The client's receive buffer must be small too: a default loopback
  // one can absorb all the pipelined responses, and then the server's
  // write queue never reaches high water.
  int RcvBuf = 4096;
  ASSERT_EQ(setsockopt(C.fd(), SOL_SOCKET, SO_RCVBUF, &RcvBuf,
                       sizeof RcvBuf),
            0);
  const int N = 200;
  for (int I = 0; I < N; ++I)
    ASSERT_TRUE(C.sendRequest(gsmJob("bp" + std::to_string(I)))
                    .hasValue());

  ASSERT_TRUE(
      eventually(120.0, [&] { return S.stats().ReadPauses >= 1; }))
      << "server never paused reading";

  // Now drain: every response must still arrive, in-order per
  // correlation id assignment (1..N).
  for (int I = 0; I < N; ++I) {
    ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
    ASSERT_TRUE(F.hasValue()) << "response " << I << ": " << F.message();
    EXPECT_EQ(F->Type, FrameType::Response);
  }

  // Reading resumed; the connection is fully usable again.
  ErrorOr<JobResult> R = C.call(gsmJob("post-bp"), kFrameWaitMs);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Status, JobStatus::Done);
}

TEST(NetServer, ConnectionLimitDrawsOverloadedReject) {
  ServerOptions O = quickOptions();
  O.MaxConnections = 1;
  Server S(O);
  startOrDie(S);

  Client C1 = connectOrDie(S);
  ASSERT_TRUE(C1.ping().hasValue());
  ASSERT_TRUE(C1.readFrame(kFrameWaitMs).hasValue());

  Client C2 = connectOrDie(S);
  ErrorOr<Frame> F = C2.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, FrameType::Reject);
  ErrorOr<RejectInfo> R = decodeReject(F->Payload);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Code, "overloaded");
  EXPECT_FALSE(C2.readFrame(kFrameWaitMs).hasValue());
  EXPECT_EQ(S.stats().ConnectionsRejected, 1);
}

TEST(NetServer, GracefulDrainAnswersEveryAcceptedJobThenCloses) {
  ServerOptions O = quickOptions();
  O.Service.StartPaused = true; // queue everything before the drain
  Server S(O);
  startOrDie(S);
  double Base = jobsSubmitted();
  Client C = connectOrDie(S);

  const int N = 5;
  std::vector<uint64_t> Corrs;
  for (int I = 0; I < N; ++I) {
    ErrorOr<uint64_t> Corr =
        C.sendRequest(gsmJob("drain" + std::to_string(I)));
    ASSERT_TRUE(Corr.hasValue());
    Corrs.push_back(*Corr);
  }
  // Let the loop admit all five before it stops reading.
  ASSERT_TRUE(eventually(
      120.0, [&] { return jobsSubmitted() - Base == N; }));

  S.beginDrain();
  S.service().resume();

  // Every accepted job answers (out-of-order is fine), then EOF.
  std::set<uint64_t> Answered;
  for (int I = 0; I < N; ++I) {
    ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
    ASSERT_TRUE(F.hasValue()) << "response " << I << ": " << F.message();
    EXPECT_EQ(F->Type, FrameType::Response);
    Answered.insert(F->Correlation);
  }
  EXPECT_EQ(Answered.size(), Corrs.size());
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue());

  EXPECT_TRUE(S.waitDrained(120.0));
  // The listener is gone: new connections are refused.
  EXPECT_FALSE(Client::connect("127.0.0.1", S.port()).hasValue());
  EXPECT_EQ(S.stats().OpenConnections, 0u);
}

TEST(NetServer, DrainingServerRejectsNewRequestsOnOpenConnections) {
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);
  ASSERT_TRUE(C.ping().hasValue());
  ASSERT_TRUE(C.readFrame(kFrameWaitMs).hasValue());

  S.beginDrain();
  EXPECT_TRUE(S.waitDrained(120.0));
  // The drained server closed this idle connection.
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue());
}

TEST(NetServer, HalfCloseAnswersInFlightThenCloses) {
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);

  ErrorOr<uint64_t> Corr = C.sendRequest(gsmJob("halfclose"));
  ASSERT_TRUE(Corr.hasValue());
  C.shutdownWrite();

  ErrorOr<Frame> F = C.readFrame(kFrameWaitMs);
  ASSERT_TRUE(F.hasValue()) << F.message();
  EXPECT_EQ(F->Type, FrameType::Response);
  EXPECT_EQ(F->Correlation, *Corr);
  EXPECT_FALSE(C.readFrame(kFrameWaitMs).hasValue());
}

TEST(NetServer, PollBackendServesRequestsToo) {
  ServerOptions O = quickOptions();
  O.ForcePoll = true;
  Server S(O);
  startOrDie(S);
  EXPECT_STREQ(S.backendName(), "poll");
  Client C = connectOrDie(S);
  ErrorOr<JobResult> R = C.call(gsmJob("pollwire"), kFrameWaitMs);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Status, JobStatus::Done) << R->Reason;
}

TEST(NetServer, StopWithoutDrainShutsDownCleanly) {
  Server S(quickOptions());
  startOrDie(S);
  Client C = connectOrDie(S);
  ASSERT_TRUE(C.sendRequest(gsmJob("abandoned")).hasValue());
  // Destructor path: stop() with a request possibly in flight must not
  // hang or leak (ASan/TSan would flag it).
  S.stop();
}

} // namespace
