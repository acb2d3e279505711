//===- net/Server.cpp - multi-reactor cdvs-wire server ---------------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/JobIO.h"
#include "service/JsonLite.h"
#include "support/Clock.h"

#include <algorithm>
#include <cerrno>
#include <map>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cdvs;
using namespace cdvs::net;

namespace {

std::string reactorLabel(int Index) { return std::to_string(Index); }

obs::Counter &shedsCounter(int Reactor, const char *Class) {
  return obs::metrics().counter(
      "cdvs_net_sheds_total",
      "Load-shedding rejects by reactor and deadline class",
      {{"reactor", reactorLabel(Reactor)}, {"class", Class}});
}

/// One slot per wire frame type (FrameType values are 1..11).
constexpr size_t kFrameTypeSlots = 12;

} // namespace

/// Everything one reactor thread owns. Only Handoff(+mutex), Wakeup,
/// and the Counters mutex are ever touched by other threads.
struct cdvs::net::Reactor {
  int Index = 0;
  std::unique_ptr<Poller> Io;
  TimerWheel Wheel;
  WakeupFd Wakeup;
  int ListenFd = -1; ///< own REUSEPORT listener, or reactor 0's only
  std::thread Thread;

  // Reactor-thread-only connection state: accepted clients and
  // upstream links alike.
  std::map<int, std::unique_ptr<Conn>> ByFd;
  std::map<uint64_t, Conn *> ById;
  size_t Clients = 0;      ///< accepted connections open
  uint64_t NextConnId = 1; ///< seeded Index+1, stepped by NumReactors
  /// Connections with frames queued since the last flush pass, which
  /// runs once per loop turn before the poll: a burst of answers to one
  /// peer costs one send(2).
  std::vector<uint64_t> Dirty;
  /// Fds closed during the current event wave; later events in the same
  /// wave that name them are stale (the number may already be reused by
  /// an accept or a dial) and are skipped.
  std::vector<int> Tombstones;
  bool DrainStarted = false;
  bool DrainedLocal = false;
  /// Requests admitted on this reactor, not yet settled — the shedding
  /// watermark input.
  long PendingJobs = 0;

  /// Accept-handoff fallback: reactor 0 pushes accepted fds here.
  std::mutex HandoffMu;
  std::vector<int> Handoff;

  mutable std::mutex StatsMu;
  ServerStats Counters; ///< guarded by StatsMu

  // Per-reactor instruments, registered in Server::start() (frame
  // counters on first use) so the frame hot path never touches the
  // registry lock.
  obs::Counter *AcceptsCtr = nullptr;
  obs::Counter *FramesCtr[2][kFrameTypeSlots] = {}; ///< [out][type]
  obs::Counter *BytesInCtr = nullptr;
  obs::Counter *BytesOutCtr = nullptr;
  obs::Gauge *OpenGauge = nullptr;
  obs::Gauge *DrainGauge = nullptr;
  obs::Histogram *LatencyHist = nullptr;

  Conn *find(uint64_t Id) const {
    auto It = ById.find(Id);
    return It == ById.end() ? nullptr : It->second;
  }

  void bump(long ServerStats::*Field) {
    std::lock_guard<std::mutex> L(StatsMu);
    ++(Counters.*Field);
  }

  /// Counts one frame in cdvs_net_frames_total and the stats.
  void countFrame(FrameType Type, bool Out) {
    obs::Counter *&C = FramesCtr[Out][static_cast<size_t>(Type)];
    if (!C)
      C = &obs::metrics().counter(
          "cdvs_net_frames_total", "cdvs-wire frames by type and direction",
          {{"type", frameTypeName(Type)},
           {"dir", Out ? "out" : "in"},
           {"reactor", reactorLabel(Index)}});
    C->inc();
    std::lock_guard<std::mutex> L(StatsMu);
    ++(Out ? Counters.FramesOut : Counters.FramesIn);
  }
};

//===----------------------------------------------------------------------===//
// The SchedulerService bridge (dvs-server's handler)
//===----------------------------------------------------------------------===//

/// Job frames become SchedulerService::submitAsync() calls. The
/// callback runs on a pipeline worker (or inline when admission
/// rejects): it serializes there, pushes the bytes onto the owning
/// reactor's lock-free completion queue and wakes that reactor, which
/// drains the queue into Server::answer(). It never touches connection
/// state directly.
class Server::ServiceBridge final : public ServerHandler {
public:
  ServiceBridge(Server &Host, const ServiceOptions &O)
      : Host(Host), Service(O) {}

  const char *role() const override { return "server"; }
  void onStart(Reactor &R, uint64_t) override {
    Slots.push_back(std::make_unique<Slot>());
    Slots.back()->DepthGauge = &obs::metrics().gauge(
        "cdvs_net_completion_queue_depth",
        "Peak completions drained from one reactor's queue in a batch",
        {{"reactor", reactorLabel(R.Index)}});
  }
  void onWake(Reactor &R, uint64_t NowNs) override;
  void onRequest(Reactor &R, Conn &C, Frame &F, uint64_t NowNs) override;
  bool onPeerFetch(Reactor &R, Conn &C, Frame &F) override;

  Server &Host;
  SchedulerService Service;

private:
  struct Completion {
    uint64_t ConnId = 0;
    uint64_t Correlation = 0;
    std::string Payload; ///< response JSON, serialized on the worker
    /// Response for single-program jobs, GraphResponse for graph jobs —
    /// the answer frame mirrors the request frame's kind.
    FrameType Type = FrameType::Response;
  };

  /// Lock-free MPSC handoff from pipeline workers to one reactor:
  /// push() is a CAS loop on an intrusive Treiber list (any thread),
  /// drainTo() exchanges the whole list and reverses it (owner reactor
  /// only).
  class CompletionQueue {
  public:
    ~CompletionQueue();
    void push(Completion C);
    /// Appends all pending completions to \p Out in rough FIFO order.
    void drainTo(std::vector<Completion> &Out);

  private:
    struct Node {
      Completion C;
      Node *Next = nullptr;
    };
    std::atomic<Node *> Head{nullptr};
  };

  struct Slot {
    CompletionQueue CQ;
    obs::Gauge *DepthGauge = nullptr;
  };
  /// One per reactor, by reactor index; filled by onStart().
  std::vector<std::unique_ptr<Slot>> Slots;
};

Server::ServiceBridge::CompletionQueue::~CompletionQueue() {
  Node *N = Head.exchange(nullptr, std::memory_order_acquire);
  while (N) {
    Node *Next = N->Next;
    delete N;
    N = Next;
  }
}

void Server::ServiceBridge::CompletionQueue::push(Completion C) {
  Node *N = new Node{std::move(C), nullptr};
  Node *Old = Head.load(std::memory_order_relaxed);
  do {
    N->Next = Old;
  } while (!Head.compare_exchange_weak(Old, N, std::memory_order_release,
                                       std::memory_order_relaxed));
}

void Server::ServiceBridge::CompletionQueue::drainTo(
    std::vector<Completion> &Out) {
  Node *N = Head.exchange(nullptr, std::memory_order_acquire);
  // The Treiber list is LIFO; reverse it so completions deliver in
  // rough arrival order.
  Node *Prev = nullptr;
  while (N) {
    Node *Next = N->Next;
    N->Next = Prev;
    Prev = N;
    N = Next;
  }
  for (N = Prev; N;) {
    Out.push_back(std::move(N->C));
    Node *Next = N->Next;
    delete N;
    N = Next;
  }
}

void Server::ServiceBridge::onWake(Reactor &R, uint64_t) {
  Slot &S = *Slots[static_cast<size_t>(R.Index)];
  std::vector<Completion> Batch;
  S.CQ.drainTo(Batch);
  if (Batch.empty())
    return;
  S.DepthGauge->max(static_cast<double>(Batch.size()));
  for (Completion &Cp : Batch)
    Host.answer(R, Cp.ConnId, Cp.Correlation, Cp.Type, Cp.Payload);
}

void Server::ServiceBridge::onRequest(Reactor &R, Conn &C, Frame &F,
                                      uint64_t) {
  obs::TraceSpan Span("frame", "net");
  Span.arg("bytes", static_cast<double>(F.Payload.size()));
  ErrorOr<JobRequest> Req = jobRequestFromJsonText(F.Payload);
  if (!Req) {
    Host.reject(R, C.Id, F.Correlation, "bad_request", Req.message());
    return;
  }
  // The frame kind must match the payload kind: routers key graph jobs
  // on graph content from the frame type alone, so a mismatch means
  // someone is mislabeling traffic — refuse it rather than schedule it.
  bool IsGraph = F.Type == FrameType::GraphRequest;
  if ((Req->Graph != nullptr) != IsGraph) {
    Host.reject(R, C.Id, F.Correlation, "bad_request",
                IsGraph ? "graph_request frame without a graph payload"
                        : "graph payloads must use graph_request frames");
    return;
  }
  // Hand the pipeline the thread's current context (the frame span when
  // tracing is on, else the sender's raw context): the job span and
  // everything under it, including peer fills, join the same trace.
  obs::SpanContext Ctx = obs::currentSpanContext();
  if (Ctx.valid()) {
    Req->TraceHi = Ctx.TraceHi;
    Req->TraceLo = Ctx.TraceLo;
    Req->TraceParentSpan = Ctx.Span;
    Req->TraceSampled = Ctx.Sampled;
  }
  Slot *S = Slots[static_cast<size_t>(R.Index)].get();
  Reactor *RP = &R;
  uint64_t ConnId = C.Id;
  uint64_t Corr = F.Correlation;
  FrameType AnswerType =
      IsGraph ? FrameType::GraphResponse : FrameType::Response;
  Service.submitAsync(std::move(*Req),
                      [S, RP, ConnId, Corr, AnswerType](JobResult Res) {
    S->CQ.push({ConnId, Corr, jobResultToJson(Res, /*IncludeSchedule=*/true),
                AnswerType});
    RP->Wakeup.notify();
  });
}

bool Server::ServiceBridge::onPeerFetch(Reactor &R, Conn &C, Frame &F) {
  // Served inline on the reactor: a peek is two map lookups under a
  // shard lock, orders of magnitude under a frame round trip, and peer
  // probes must stay cheap even while the pipeline is saturated. A
  // peek never skews hit/miss counters or LRU recency.
  ErrorOr<std::string> Fp = peerFetchFromJsonText(F.Payload);
  if (!Fp) {
    Host.sendReject(R, C, F.Correlation, "bad_request", Fp.message());
    return true;
  }
  obs::TraceSpan Span("peer_serve", "net");
  std::shared_ptr<const CachedSchedule> Hit = Service.cachePeek(*Fp);
  Span.arg("hit", Hit ? 1.0 : 0.0);
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.PeerFetches;
    if (Hit)
      ++R.Counters.PeerFetchHits;
  }
  Host.send(R, C, FrameType::PeerData, F.Correlation,
            peerDataToJson(Hit.get()));
  return true;
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O)
    : Opts(std::move(O)),
      Bridge(std::make_unique<ServiceBridge>(*this, Opts.Service)),
      H(Bridge.get()) {}

Server::Server(ServerOptions O, ServerHandler &Handler)
    : Opts(std::move(O)), H(&Handler) {}

Server::~Server() { stop(); }

SchedulerService &Server::service() { return Bridge->Service; }

ErrorOr<bool> Server::start() {
  if (!Reactors.empty())
    return makeError("server already started");

  NumReactors = Opts.Reactors;
  if (NumReactors <= 0) {
    unsigned HW = std::thread::hardware_concurrency();
    NumReactors = HW == 0 ? 1 : static_cast<int>(HW);
  }
  NumReactors = std::min(NumReactors, 64);

  for (int I = 0; I < NumReactors; ++I) {
    auto R = std::make_unique<Reactor>();
    R->Index = I;
    R->NextConnId = static_cast<uint64_t>(I) + 1;
    if (!R->Wakeup.valid())
      return makeError("wakeup descriptor unavailable");
    R->Io = Poller::create(Opts.ForcePoll);
    if (!R->Io)
      return makeError("no poll backend available");
    Reactors.push_back(std::move(R));
  }
  Backend = Reactors[0]->Io->backendName();

  auto CloseListeners = [this] {
    for (auto &R : Reactors)
      if (R->ListenFd >= 0) {
        ::close(R->ListenFd);
        R->ListenFd = -1;
      }
  };

  // One REUSEPORT listener per reactor lets the kernel spread accepts;
  // any bind failure (kernel without reusable ports) falls back to a
  // single listener owned by reactor 0 plus fd handoff.
  ReusePortActive = false;
  if (NumReactors > 1 && !Opts.ForceAcceptHandoff) {
    ErrorOr<int> First =
        listenTcp(Opts.BindAddress, Opts.Port, Opts.Backlog,
                  /*ReusePort=*/true);
    if (First) {
      Reactors[0]->ListenFd = *First;
      ErrorOr<uint16_t> P = localPort(*First);
      if (!P) {
        CloseListeners();
        return makeError(P.message());
      }
      BoundPort = *P;
      ReusePortActive = true;
      for (int I = 1; I < NumReactors && ReusePortActive; ++I) {
        ErrorOr<int> LFd = listenTcp(Opts.BindAddress, BoundPort,
                                     Opts.Backlog, /*ReusePort=*/true);
        if (LFd)
          Reactors[I]->ListenFd = *LFd;
        else
          ReusePortActive = false;
      }
      if (!ReusePortActive)
        CloseListeners();
    }
  }
  if (!ReusePortActive) {
    ErrorOr<int> LFd =
        listenTcp(Opts.BindAddress, Opts.Port, Opts.Backlog);
    if (!LFd)
      return makeError(LFd.message());
    Reactors[0]->ListenFd = *LFd;
    ErrorOr<uint16_t> P = localPort(*LFd);
    if (!P) {
      CloseListeners();
      return makeError(P.message());
    }
    BoundPort = *P;
  }

  for (auto &R : Reactors) {
    if ((R->ListenFd >= 0 && !R->Io->add(R->ListenFd, EvIn)) ||
        !R->Io->add(R->Wakeup.fd(), EvIn)) {
      CloseListeners();
      return makeError("failed to register listener with poller");
    }
  }

  obs::metrics()
      .gauge("cdvs_net_reactors", "Reactor threads serving this process")
      .set(static_cast<double>(NumReactors));
  // Pre-registered so the family exists (at zero) in every scrape even
  // before the trace ring first overwrites.
  obs::metrics().counter(
      "cdvs_trace_dropped_total",
      "Trace events lost to ring-buffer overwrite since process start.");
  uint64_t Now = monotonicNanos();
  for (auto &RPtr : Reactors) {
    Reactor &R = *RPtr;
    obs::Labels L{{"reactor", reactorLabel(R.Index)}};
    R.AcceptsCtr = &obs::metrics().counter(
        "cdvs_net_accepts_total", "Connections accepted per reactor", L);
    R.BytesInCtr = &obs::metrics().counter(
        "cdvs_net_bytes_total",
        "cdvs-wire payload+header bytes by direction",
        {{"dir", "in"}, {"reactor", reactorLabel(R.Index)}});
    R.BytesOutCtr = &obs::metrics().counter(
        "cdvs_net_bytes_total",
        "cdvs-wire payload+header bytes by direction",
        {{"dir", "out"}, {"reactor", reactorLabel(R.Index)}});
    R.OpenGauge = &obs::metrics().gauge(
        "cdvs_net_connections", "Open server connections by state",
        {{"state", "open"}, {"reactor", reactorLabel(R.Index)}});
    R.DrainGauge = &obs::metrics().gauge(
        "cdvs_net_connections", "Open server connections by state",
        {{"state", "draining"}, {"reactor", reactorLabel(R.Index)}});
    R.LatencyHist = &obs::metrics().histogram(
        "cdvs_net_request_latency_seconds",
        "Request receipt to answer enqueue, per answered request",
        obs::latencyBucketsSeconds(), L);
    // Pre-register the shed classes this server can count so
    // cdvs_net_sheds_total exists in every snapshot (dvs-stat --check),
    // sheds or none.
    if (Opts.ShedHighWater > 0) {
      (void)shedsCounter(R.Index, "lax");
      (void)shedsCounter(R.Index, "hard");
    }
    (void)shedsCounter(R.Index, "slow_frame");
    H->onStart(R, Now);
  }

  for (auto &R : Reactors) {
    Reactor *RP = R.get();
    R->Thread = std::thread([this, RP] { loop(*RP); });
  }
  return true;
}

void Server::beginDrain() {
  DrainRequested.store(true, std::memory_order_release);
  for (auto &R : Reactors)
    R->Wakeup.notify();
}

bool Server::waitDrained(double TimeoutSeconds) {
  std::unique_lock<std::mutex> L(StateMu);
  if (TimeoutSeconds <= 0)
    return Drained;
  return DrainedCv.wait_for(L,
                            std::chrono::duration<double>(TimeoutSeconds),
                            [this] { return Drained; });
}

void Server::stop() {
  StopRequested.store(true, std::memory_order_release);
  for (auto &R : Reactors)
    R->Wakeup.notify();
  for (auto &R : Reactors)
    if (R->Thread.joinable())
      R->Thread.join();
  // The reactors are gone: late worker callbacks only push onto a
  // completion queue and poke a wakeup fd, both of which stay valid
  // until the members destruct — after this shutdown() returns, no
  // callback is running.
  if (Bridge)
    Bridge->Service.shutdown();
}

ServerStats Server::stats() const {
  ServerStats Out;
  for (const auto &R : Reactors) {
    std::lock_guard<std::mutex> L(R->StatsMu);
    const ServerStats &C = R->Counters;
    Out.ConnectionsAccepted += C.ConnectionsAccepted;
    Out.ConnectionsRejected += C.ConnectionsRejected;
    Out.ConnectionsClosed += C.ConnectionsClosed;
    Out.FramesIn += C.FramesIn;
    Out.FramesOut += C.FramesOut;
    Out.BytesIn += C.BytesIn;
    Out.BytesOut += C.BytesOut;
    Out.RejectsSent += C.RejectsSent;
    Out.ProtocolErrors += C.ProtocolErrors;
    Out.IdleCloses += C.IdleCloses;
    Out.RequestTimeouts += C.RequestTimeouts;
    Out.SlowFrameCloses += C.SlowFrameCloses;
    Out.LoadSheds += C.LoadSheds;
    Out.PeerFetches += C.PeerFetches;
    Out.PeerFetchHits += C.PeerFetchHits;
    Out.HandoffAccepts += C.HandoffAccepts;
    Out.ReadPauses += C.ReadPauses;
    Out.OrphanCompletions += C.OrphanCompletions;
    Out.OpenConnections += C.OpenConnections;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Handler calls
//===----------------------------------------------------------------------===//

bool Server::answer(Reactor &R, uint64_t ConnId, uint64_t Corr,
                    FrameType Type, const std::string &Payload) {
  --R.PendingJobs;
  Conn *C = R.find(ConnId);
  if (!C || !C->StartNs.count(Corr)) {
    // The connection closed, or the client already got
    // Reject{"timeout"}: drop the late answer.
    if (C)
      C->TimedOut.erase(Corr);
    R.bump(&ServerStats::OrphanCompletions);
    return false;
  }
  auto SIt = C->StartNs.find(Corr);
  R.LatencyHist->observe(
      static_cast<double>(monotonicNanos() - SIt->second) * 1e-9);
  C->StartNs.erase(SIt);
  if (auto TIt = C->RequestTimers.find(Corr);
      TIt != C->RequestTimers.end()) {
    R.Wheel.cancel(TIt->second);
    C->RequestTimers.erase(TIt);
  }
  --C->InFlight;
  send(R, *C, Type, Corr, Payload);
  return true;
}

bool Server::reject(Reactor &R, uint64_t ConnId, uint64_t Corr,
                    const std::string &Code, const std::string &Reason) {
  if (awaiting(R, ConnId, Corr))
    R.bump(&ServerStats::RejectsSent);
  return answer(R, ConnId, Corr, FrameType::Reject,
                encodeReject(Code, Reason));
}

bool Server::awaiting(Reactor &R, uint64_t ConnId, uint64_t Corr) const {
  Conn *C = R.find(ConnId);
  return C && C->StartNs.count(Corr);
}

ErrorOr<Conn *> Server::dial(Reactor &R, const std::string &Host,
                             uint16_t Port, uint64_t TimeoutMs, int Link) {
  ErrorOr<int> Fd = startConnectTcp(Host, Port);
  if (!Fd)
    return makeError(Fd.message());
  auto Owned = std::make_unique<Conn>(*Fd, R.NextConnId, Opts.MaxFrameBytes);
  R.NextConnId += static_cast<uint64_t>(NumReactors);
  Conn *C = Owned.get();
  C->Link = Link;
  // Settled on the next poll even when connect() already completed, so
  // sends never race the handshake and no callback precedes the return.
  C->Connecting = true;
  C->Subscribed = EvOut;
  if (!R.Io->add(*Fd, EvOut))
    return makeError("poller add failed");
  R.ById[C->Id] = C;
  R.ByFd[*Fd] = std::move(Owned);
  Reactor *RP = &R;
  uint64_t Id = C->Id;
  C->IdleTimer = R.Wheel.schedule(
      monotonicNanos(), TimeoutMs * 1'000'000ull, [this, RP, Id] {
        Conn *L = RP->find(Id);
        if (!L || !L->Connecting)
          return;
        L->IdleTimer = 0;
        close(*RP, Id, /*Failed=*/true); // connect timeout
      });
  return C;
}

TimerWheel &Server::wheel(Reactor &R) { return R.Wheel; }

//===----------------------------------------------------------------------===//
// Reactor loop (everything below runs on one reactor's thread only)
//===----------------------------------------------------------------------===//

void Server::loop(Reactor &R) {
  std::vector<PollEvent> Events;
  while (!StopRequested.load(std::memory_order_acquire)) {
    if (DrainRequested.load(std::memory_order_acquire) && !R.DrainStarted)
      startDrainOnLoop(R);

    uint64_t Now = monotonicNanos();
    adoptHandoff(R, Now);
    H->onWake(R, Now);
    finishDrainIfIdle(R);
    if (StopRequested.load(std::memory_order_acquire))
      break;

    flushDirty(R);
    R.Io->wait(Events, R.Wheel.pollTimeoutMs(monotonicNanos()));
    Now = monotonicNanos();
    R.Tombstones.clear();
    for (const PollEvent &E : Events) {
      if (E.Fd == R.Wakeup.fd()) {
        R.Wakeup.drain();
        continue;
      }
      if (E.Fd == R.ListenFd && R.ListenFd >= 0) {
        acceptReady(R, Now);
        continue;
      }
      if (std::find(R.Tombstones.begin(), R.Tombstones.end(), E.Fd) !=
          R.Tombstones.end())
        continue;
      auto It = R.ByFd.find(E.Fd);
      if (It == R.ByFd.end())
        continue;
      Conn &C = *It->second;
      uint64_t Id = C.Id;
      if (C.Connecting) {
        if (E.Events & (EvOut | EvErr | EvHup))
          connectSettled(R, C);
        continue;
      }
      if (E.Events & EvErr) {
        close(R, Id, /*Failed=*/true);
        continue;
      }
      if (E.Events & EvOut) {
        writeReady(R, C);
        if (!R.find(Id))
          continue;
      }
      if (E.Events & (EvIn | EvHup))
        readReady(R, C, Now);
    }
    // Deadlines fire after the wave's I/O: one that passed while this
    // thread stalled first sees what arrived meanwhile.
    R.Wheel.advance(monotonicNanos());
  }
  teardown(R);
}

void Server::teardown(Reactor &R) {
  std::vector<uint64_t> Ids;
  Ids.reserve(R.ById.size());
  for (const auto &[Id, C] : R.ById)
    Ids.push_back(Id);
  for (uint64_t Id : Ids)
    close(R, Id);
  if (R.ListenFd >= 0) {
    R.Io->remove(R.ListenFd);
    ::close(R.ListenFd);
    R.ListenFd = -1;
  }
  // Handed-off fds this reactor never adopted still need closing.
  std::vector<int> Orphans;
  {
    std::lock_guard<std::mutex> L(R.HandoffMu);
    Orphans.swap(R.Handoff);
  }
  for (int Fd : Orphans)
    ::close(Fd);
  R.Io->remove(R.Wakeup.fd());
}

void Server::acceptReady(Reactor &R, uint64_t NowNs) {
  for (;;) {
    int Fd = ::accept(R.ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // EAGAIN, or transient (ECONNABORTED, EMFILE): retry on
             // the next readiness edge
    }
    setNonBlocking(Fd);
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    if (Opts.SocketSendBufferBytes > 0)
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Opts.SocketSendBufferBytes,
                   sizeof(Opts.SocketSendBufferBytes));

    if (OpenConns.load(std::memory_order_relaxed) >=
        static_cast<long>(Opts.MaxConnections)) {
      rejectAccept(R, Fd);
      continue;
    }

    if (!ReusePortActive && NumReactors > 1) {
      // Handoff fallback: round-robin accepted fds across the peers
      // (including this reactor, so the acceptor serves its share).
      Reactor &Target = *Reactors[HandoffCursor++ % NumReactors];
      if (&Target != &R) {
        {
          std::lock_guard<std::mutex> L(Target.HandoffMu);
          Target.Handoff.push_back(Fd);
        }
        Target.Wakeup.notify();
        continue;
      }
    }
    adoptConnection(R, Fd, NowNs);
  }
}

void Server::rejectAccept(Reactor &R, int Fd) {
  // Over the limit: one structured Reject, best effort, then close.
  std::string F = encodeFrame(FrameType::Reject, 0,
                              encodeReject("overloaded",
                                           "connection limit reached"));
  (void)::send(Fd, F.data(), F.size(), MSG_NOSIGNAL);
  // Count before close: a peer that has seen EOF must also see the
  // rejection in stats().
  R.countFrame(FrameType::Reject, /*Out=*/true);
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.ConnectionsRejected;
    ++R.Counters.RejectsSent;
  }
  ::close(Fd);
  obs::traceInstant("conn_reject", "net");
}

void Server::adoptHandoff(Reactor &R, uint64_t NowNs) {
  std::vector<int> Fds;
  {
    std::lock_guard<std::mutex> L(R.HandoffMu);
    Fds.swap(R.Handoff);
  }
  for (int Fd : Fds) {
    if (R.DrainStarted || StopRequested.load(std::memory_order_acquire)) {
      ::close(Fd);
      continue;
    }
    adoptConnection(R, Fd, NowNs);
    R.bump(&ServerStats::HandoffAccepts);
  }
}

void Server::adoptConnection(Reactor &R, int Fd, uint64_t NowNs) {
  auto C = std::make_unique<Conn>(Fd, R.NextConnId, Opts.MaxFrameBytes);
  R.NextConnId += static_cast<uint64_t>(NumReactors);
  C->Span = std::make_unique<obs::TraceSpan>("conn", "net");
  C->Subscribed = EvIn;
  R.Io->add(Fd, EvIn);
  C->LastActiveNs = NowNs;
  armIdleTimer(R, *C, NowNs, Opts.IdleTimeoutMs * 1'000'000ull);
  R.ById[C->Id] = C.get();
  R.ByFd[Fd] = std::move(C);
  ++R.Clients;
  OpenConns.fetch_add(1, std::memory_order_relaxed);
  R.AcceptsCtr->inc();
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.ConnectionsAccepted;
    R.Counters.OpenConnections = R.Clients;
  }
  updateConnectionGauges(R);
}

void Server::connectSettled(Reactor &R, Conn &L) {
  uint64_t Id = L.Id;
  if (socketError(L.Fd) != 0) {
    close(R, Id, /*Failed=*/true); // refused or unreachable
    return;
  }
  if (L.IdleTimer) {
    R.Wheel.cancel(L.IdleTimer);
    L.IdleTimer = 0;
  }
  L.Connecting = false;
  writeReady(R, L); // what queued while connecting
}

void Server::readReady(Reactor &R, Conn &C, uint64_t NowNs) {
  if (!C.upstream() &&
      (C.ReadPaused || C.CloseAfterFlush || C.SawEof || R.DrainStarted))
    return;
  uint64_t Id = C.Id;
  Conn::Io In = C.readAll();
  if (In.Bytes > 0) {
    R.BytesInCtr->inc(static_cast<double>(In.Bytes));
    std::lock_guard<std::mutex> L(R.StatsMu);
    R.Counters.BytesIn += In.Bytes;
  }
  if (C.upstream()) {
    // A link's EOF is a failure, not a half close: answer what arrived
    // first, then report it.
    if (!In.Failed)
      processFrames(R, C, NowNs);
    if (R.find(Id) && (In.Eof || In.Failed))
      close(R, Id, /*Failed=*/true);
    return;
  }
  if (In.Failed) {
    close(R, Id);
    return;
  }
  C.LastActiveNs = NowNs;
  size_t Extracted = processFrames(R, C, NowNs);
  if (!R.find(Id))
    return;
  trackFrameProgress(R, C, Extracted, NowNs);
  if (In.Eof) {
    if (C.Parser.buffered() > 0 && C.Parser.error() == WireStatus::Ok &&
        !C.CloseAfterFlush) {
      // Peer hung up mid-frame: a truncated frame is a framing error.
      protocolError(R, C, 0, "bad_frame", "connection closed mid-frame");
      if (!R.find(Id))
        return;
    }
    // Half close: no more requests will arrive; answer what is in
    // flight, flush, then close.
    C.SawEof = true;
    writeReady(R, C);
  }
}

size_t Server::processFrames(Reactor &R, Conn &C, uint64_t NowNs) {
  uint64_t Id = C.Id;
  size_t Extracted = 0;
  for (;;) {
    if (C.CloseAfterFlush)
      return Extracted;
    Frame F;
    FrameParser::Next Res = C.Parser.next(F);
    if (Res == FrameParser::Next::NeedMore)
      return Extracted;
    if (Res == FrameParser::Next::Error) {
      // The stream cannot be resynchronized: name the error, close.
      const char *Code = wireStatusName(C.Parser.error());
      protocolError(R, C, 0, Code, std::string("framing error: ") + Code);
      return Extracted;
    }

    ++Extracted;
    R.countFrame(F.Type, /*Out=*/false);
    if (C.upstream()) {
      H->onUpstreamFrame(R, C, F, NowNs);
      if (!R.find(Id))
        return Extracted;
      continue;
    }
    // Install the frame's trace context (or clear any stale one) so
    // every span below — and whatever the handler forwards — inherits
    // the sender's trace id.
    obs::SpanContext FrameCtx;
    if (F.HasTrace) {
      FrameCtx.TraceHi = F.Trace.TraceHi;
      FrameCtx.TraceLo = F.Trace.TraceLo;
      FrameCtx.Span = F.Trace.ParentSpan;
      FrameCtx.Sampled = F.Trace.Sampled;
    }
    obs::ScopedSpanContext CtxGuard(FrameCtx);
    if (F.Type == FrameType::Request || F.Type == FrameType::GraphRequest) {
      // The handler opens its own span: a router's "route" span must be
      // its only span under the client's.
      handleRequest(R, C, F, NowNs);
    } else {
      obs::TraceSpan Span("frame", "net");
      Span.arg("bytes", static_cast<double>(F.Payload.size()));
      if (F.Type == FrameType::Ping) {
        // The monotonic-clock stamp lets scrapers align per-process
        // clocks from the RTT midpoint; old clients ignore Pong
        // payloads.
        send(R, C, FrameType::Pong, F.Correlation,
             "{\"now_ns\":" + std::to_string(monotonicNanos()) + "}");
      } else if (F.Type == FrameType::StatsFetch) {
        handleStatsFetch(R, C, F);
      } else if (F.Type != FrameType::PeerFetch ||
                 !H->onPeerFetch(R, C, F)) {
        // Response/Reject/Pong/PeerData are server-to-client only.
        protocolError(R, C, F.Correlation, "bad_frame",
                      std::string("unexpected client frame type '") +
                          frameTypeName(F.Type) + "'");
        return Extracted;
      }
    }
    if (!R.find(Id))
      return Extracted;
  }
}

void Server::protocolError(Reactor &R, Conn &C, uint64_t Correlation,
                           const std::string &Code,
                           const std::string &Reason) {
  uint64_t Id = C.Id;
  R.bump(&ServerStats::ProtocolErrors);
  if (C.upstream()) {
    close(R, Id, /*Failed=*/true); // the handler judges link failures
    return;
  }
  sendReject(R, C, Correlation, Code, Reason);
  if (!R.find(Id))
    return;
  C.CloseAfterFlush = true;
  writeReady(R, C);
}

const char *Server::shedClass(const Reactor &R, const Frame &F) const {
  if (Opts.ShedHighWater == 0 ||
      static_cast<size_t>(R.PendingJobs) < Opts.ShedHighWater)
    return nullptr;
  size_t Hard = Opts.ShedHardWater ? Opts.ShedHardWater
                                   : Opts.ShedHighWater * 2;
  if (static_cast<size_t>(R.PendingJobs) >= Hard)
    return "hard";
  // Deadline class from a cheap payload scan — the full JSON parse is
  // exactly what an overloaded reactor must not pay per shed request.
  if (peekDeadlineTightness(F.Payload, /*Fallback=*/0.5) >=
      Opts.ShedLaxTightness)
    return "lax";
  return nullptr;
}

void Server::handleRequest(Reactor &R, Conn &C, Frame &F, uint64_t NowNs) {
  if (R.DrainStarted) {
    sendReject(R, C, F.Correlation, "draining", "server is draining");
    return;
  }
  if (C.StartNs.count(F.Correlation) || C.TimedOut.count(F.Correlation)) {
    sendReject(R, C, F.Correlation, "bad_request",
               "correlation id already in flight");
    return;
  }
  if (const char *Class = shedClass(R, F)) {
    shedsCounter(R.Index, Class).inc();
    R.bump(&ServerStats::LoadSheds);
    sendReject(R, C, F.Correlation, "shed",
               std::string("overloaded: ") + Class +
                   "-class request shed at " +
                   std::to_string(R.PendingJobs) + " pending");
    return;
  }

  uint64_t ConnId = C.Id;
  uint64_t Corr = F.Correlation;
  C.StartNs[Corr] = NowNs;
  ++C.InFlight;
  ++R.PendingJobs;
  if (Opts.RequestTimeoutMs > 0) {
    Reactor *RP = &R;
    uint64_t Tid = R.Wheel.schedule(
        NowNs, Opts.RequestTimeoutMs * 1'000'000ull,
        [this, RP, ConnId, Corr] {
          Conn *TC = RP->find(ConnId);
          if (!TC || !TC->StartNs.erase(Corr))
            return; // already answered
          TC->RequestTimers.erase(Corr);
          TC->TimedOut.insert(Corr);
          --TC->InFlight;
          RP->bump(&ServerStats::RequestTimeouts);
          sendReject(*RP, *TC, Corr, "timeout", "request timed out");
        });
    C.RequestTimers[Corr] = Tid;
  }
  H->onRequest(R, C, F, NowNs);
}

void Server::handleStatsFetch(Reactor &R, Conn &C, Frame &F) {
  // Served inline on the reactor: the renders take the registry/ring
  // locks briefly, and scrapes are rare (human or CI cadence) next to
  // request traffic.
  static obs::Counter &Scrapes = obs::metrics().counter(
      "cdvs_stats_scrapes_total",
      "StatsFetch scrapes answered over the wire.");
  Scrapes.inc();
  std::string Role = H->role();
  std::string Payload =
      "{\"role\":\"" + Role + "\",\"pid\":" +
      std::to_string(static_cast<long>(getpid())) + ",\"now_ns\":" +
      std::to_string(monotonicNanos()) + ",\"trace_dropped\":" +
      std::to_string(obs::trace().dropped()) + H->statsExtras() +
      ",\"metrics\":\"" + jsonEscape(obs::metrics().renderPrometheus()) +
      "\",\"trace\":" +
      obs::trace().renderChromeTrace(static_cast<int>(getpid()),
                                     ("dvs-" + Role).c_str()) +
      "}";
  send(R, C, FrameType::StatsData, F.Correlation, Payload);
}

void Server::send(Reactor &R, Conn &C, FrameType Type,
                  uint64_t Correlation, const std::string &Payload,
                  const TraceContext *Trace) {
  C.enqueue(encodeFrame(Type, Correlation, Payload, Trace));
  R.countFrame(Type, /*Out=*/true);
  if (!C.Dirty) {
    C.Dirty = true;
    R.Dirty.push_back(C.Id);
  }
  if (!C.upstream() && !C.ReadPaused &&
      C.WriteQBytes > Opts.WriteQueueHighWater) {
    // Backpressure: stop reading this connection; the kernel socket
    // buffer then pushes back on the sender.
    C.ReadPaused = true;
    R.bump(&ServerStats::ReadPauses);
    obs::traceInstant("read_pause", "net", "queued_bytes",
                      static_cast<double>(C.WriteQBytes));
    updateSubscription(R, C);
  }
}

void Server::sendReject(Reactor &R, Conn &C, uint64_t Correlation,
                        const std::string &Code,
                        const std::string &Reason) {
  R.bump(&ServerStats::RejectsSent);
  send(R, C, FrameType::Reject, Correlation, encodeReject(Code, Reason));
}

void Server::flushDirty(Reactor &R) {
  // A failed write may fail a link over, queueing frames on other
  // connections: walk by index while the list grows.
  for (size_t I = 0; I < R.Dirty.size(); ++I)
    if (Conn *C = R.find(R.Dirty[I])) {
      C->Dirty = false;
      writeReady(R, *C);
    }
  R.Dirty.clear();
}

void Server::writeReady(Reactor &R, Conn &C) {
  if (C.Connecting)
    return; // queued frames go out once the connect settles
  uint64_t Id = C.Id;
  Conn::Io Out;
  {
    // Count under the lock, held across the sends: a peer that has
    // received a frame and then asks stats() must see its bytes — the
    // snapshot blocks until this loop's increments are in.
    std::lock_guard<std::mutex> L(R.StatsMu);
    Out = C.flush();
    R.Counters.BytesOut += Out.Bytes;
  }
  if (Out.Failed) {
    close(R, Id, /*Failed=*/true);
    return;
  }
  if (Out.Bytes > 0)
    R.BytesOutCtr->inc(static_cast<double>(Out.Bytes));
  if (C.ReadPaused && !C.CloseAfterFlush &&
      C.WriteQBytes < Opts.WriteQueueLowWater) {
    C.ReadPaused = false;
    obs::traceInstant("read_resume", "net");
  }
  if (C.WriteQ.empty() && !C.upstream()) {
    bool Done = C.CloseAfterFlush ||
                ((C.SawEof || R.DrainStarted) && C.InFlight == 0);
    if (Done) {
      close(R, Id);
      return;
    }
  }
  updateSubscription(R, C);
}

void Server::updateSubscription(Reactor &R, Conn &C) {
  unsigned Want = C.wanted(C.upstream() ||
                           (!C.ReadPaused && !C.CloseAfterFlush &&
                            !C.SawEof && !R.DrainStarted));
  if (Want != C.Subscribed) {
    R.Io->update(C.Fd, Want);
    C.Subscribed = Want;
  }
}

void Server::armIdleTimer(Reactor &R, Conn &C, uint64_t NowNs,
                          uint64_t DelayNs) {
  if (Opts.IdleTimeoutMs == 0)
    return;
  // One timer per connection, re-armed lazily when it fires: reads only
  // stamp LastActiveNs, so the hot path never cancels a wheel entry.
  uint64_t ConnId = C.Id;
  Reactor *RP = &R;
  C.IdleTimer = R.Wheel.schedule(NowNs, DelayNs, [this, RP, ConnId] {
    Conn *IC = RP->find(ConnId);
    if (!IC)
      return;
    IC->IdleTimer = 0;
    uint64_t Now = monotonicNanos();
    uint64_t Idle = Opts.IdleTimeoutMs * 1'000'000ull;
    if (Now - IC->LastActiveNs < Idle) {
      armIdleTimer(*RP, *IC, Now, IC->LastActiveNs + Idle - Now);
      return;
    }
    if (IC->InFlight > 0 || !IC->WriteQ.empty()) {
      // Waiting on our own pipeline is not idleness; re-arm.
      armIdleTimer(*RP, *IC, Now, Idle);
      return;
    }
    RP->bump(&ServerStats::IdleCloses);
    IC->CloseAfterFlush = true;
    sendReject(*RP, *IC, 0, "idle_timeout", "connection idle");
  });
}

void Server::trackFrameProgress(Reactor &R, Conn &C, size_t Extracted,
                                uint64_t NowNs) {
  if (Opts.SlowFrameTimeoutMs == 0 || C.CloseAfterFlush)
    return;
  if (C.Parser.buffered() == 0) {
    // Clean frame boundary: nothing half-received, no deadline.
    if (C.SlowTimer) {
      R.Wheel.cancel(C.SlowTimer);
      C.SlowTimer = 0;
    }
    return;
  }
  // A partial frame is buffered. Restart the clock when the connection
  // made frame progress; keep the old deadline when it only dribbled.
  if (C.SlowTimer) {
    if (Extracted == 0)
      return;
    R.Wheel.cancel(C.SlowTimer);
  }
  uint64_t ConnId = C.Id;
  Reactor *RP = &R;
  C.SlowTimer = R.Wheel.schedule(
      NowNs, Opts.SlowFrameTimeoutMs * 1'000'000ull, [this, RP, ConnId] {
        Conn *SC = RP->find(ConnId);
        if (!SC)
          return;
        SC->SlowTimer = 0;
        if (SC->Parser.buffered() == 0 || SC->CloseAfterFlush)
          return; // completed in the same tick, or already closing
        shedsCounter(RP->Index, "slow_frame").inc();
        RP->bump(&ServerStats::SlowFrameCloses);
        sendReject(*RP, *SC, 0, "slow_frame", "frame not completed in time");
        if (RP->find(ConnId)) {
          SC->CloseAfterFlush = true;
          writeReady(*RP, *SC);
        }
      });
}

void Server::close(Reactor &R, uint64_t ConnId, bool Failed) {
  auto It = R.ById.find(ConnId);
  if (It == R.ById.end())
    return;
  Conn *C = It->second;
  if (C->IdleTimer)
    R.Wheel.cancel(C->IdleTimer);
  if (C->SlowTimer)
    R.Wheel.cancel(C->SlowTimer);
  for (const auto &[Corr, Tid] : C->RequestTimers)
    R.Wheel.cancel(Tid);
  int Fd = C->Fd;
  int Link = C->Link;
  R.Io->remove(Fd);
  R.Tombstones.push_back(Fd);
  R.ById.erase(It);
  R.ByFd.erase(Fd); // closes the fd; its Span records the lifetime
  if (Link >= 0) {
    if (Failed)
      H->onUpstreamDown(R, Link, monotonicNanos());
    return;
  }
  --R.Clients;
  OpenConns.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.ConnectionsClosed;
    R.Counters.OpenConnections = R.Clients;
  }
  updateConnectionGauges(R);
  finishDrainIfIdle(R);
}

void Server::startDrainOnLoop(Reactor &R) {
  R.DrainStarted = true;
  obs::traceInstant("drain_begin", "net");
  if (R.ListenFd >= 0) {
    R.Io->remove(R.ListenFd);
    ::close(R.ListenFd);
    R.ListenFd = -1;
  }
  // Connections handed off but not yet adopted close unopened.
  adoptHandoff(R, monotonicNanos());
  std::vector<uint64_t> Ids;
  Ids.reserve(R.ById.size());
  for (const auto &[Id, C] : R.ById)
    if (!C->upstream())
      Ids.push_back(Id);
  for (uint64_t Id : Ids) {
    // Stop reading; flush what is queued; writeReady closes the
    // connection once nothing is queued and nothing is in flight.
    if (Conn *C = R.find(Id))
      writeReady(R, *C);
  }
  updateConnectionGauges(R);
  finishDrainIfIdle(R);
}

void Server::finishDrainIfIdle(Reactor &R) {
  if (!R.DrainStarted || R.DrainedLocal || R.Clients > 0)
    return;
  R.DrainedLocal = true;
  obs::traceInstant("drain_done", "net");
  if (DrainedReactors.fetch_add(1, std::memory_order_acq_rel) + 1 <
      NumReactors)
    return;
  {
    std::lock_guard<std::mutex> L(StateMu);
    Drained = true;
  }
  DrainedCv.notify_all();
}

void Server::updateConnectionGauges(Reactor &R) {
  R.OpenGauge->set(static_cast<double>(R.Clients));
  R.DrainGauge->set(R.DrainStarted ? static_cast<double>(R.Clients) : 0.0);
}
