//===- net/Server.h - multi-reactor DVS scheduling server -------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front end of the scheduling service: N reactor threads
/// (ServerOptions::Reactors) each own a full event-loop stack — their
/// own Poller, timer wheel, wakeup fd, and listening socket bound with
/// SO_REUSEPORT — so accept/read/write and all per-connection state stay
/// reactor-local and lock-free on the hot path. The kernel's reuseport
/// hash spreads incoming connections across the reactors; on stacks
/// without SO_REUSEPORT (or under ForceAcceptHandoff) reactor 0 owns the
/// one listener and round-robins accepted fds to its peers through
/// per-reactor handoff queues and a wakeup-fd nudge.
///
/// Jobs run on the embedded SchedulerService's worker threads;
/// completions come back through a *per-reactor* lock-free MPSC queue
/// (worker threads push, the owning reactor drains on wakeup), so
/// response routing never takes a lock shared between reactors.
/// Responses stream out of order per connection, matched by the
/// correlation id the client chose.
///
/// Robustness edges, all enforced per connection on its owning reactor:
///
///  * framing errors (bad magic/version/type/reserved, oversized
///    payloads, a peer that hangs up mid-frame) answer with one
///    structured Reject frame, then close — the stream cannot be
///    resynchronized;
///  * write backpressure: when a connection's queued response bytes
///    exceed WriteQueueHighWater the reactor stops reading it (the
///    kernel socket buffer then pushes back on the client) and resumes
///    below WriteQueueLowWater;
///  * idle, request, and slow-frame timeouts ride each reactor's hashed
///    timer wheel: a silent connection is closed after IdleTimeoutMs, a
///    request older than RequestTimeoutMs answers Reject{"timeout"} (the
///    late result is dropped when it eventually lands), and a connection
///    that dribbles bytes without completing a frame within
///    SlowFrameTimeoutMs (slowloris) draws Reject{"slow_frame"} and
///    closes;
///  * overload shedding: when a reactor's count of admitted-but-
///    unanswered jobs crosses ShedHighWater, lax requests (deadline
///    tightness at or above ShedLaxTightness, peeked from the payload
///    without a full JSON parse) answer Reject{"shed"}; past
///    ShedHardWater every request sheds, regardless of class — so a
///    stampede costs the reactor one cheap scan per frame instead of a
///    parse, an admission, and a solve;
///  * MaxConnections (server-wide): surplus accepts get
///    Reject{"overloaded"} and an immediate close; admission-queue
///    backpressure inside the service surfaces as an ordinary rejected
///    Response, exactly like dvsd;
///  * graceful drain (beginDrain(), wired to SIGTERM in dvs-server):
///    every reactor closes its listener, stops reading, lets every
///    already-admitted job complete and flush, then closes its
///    connections; waitDrained() observers wake once the last reactor
///    quiesces.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_NET_SERVER_H
#define CDVS_NET_SERVER_H

#include "net/EventLoop.h"
#include "net/Wire.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/Service.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace cdvs {
namespace net {

/// Sizing and policy knobs for a net::Server.
struct ServerOptions {
  std::string BindAddress = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via Server::port().
  uint16_t Port = 0;
  int Backlog = 128;
  /// Reactor (event-loop) threads; 0 means one per hardware core.
  int Reactors = 1;
  /// Use the single-acceptor round-robin handoff path even where
  /// SO_REUSEPORT exists (tests; kernels without reusable ports fall
  /// back to this automatically).
  bool ForceAcceptHandoff = false;
  /// Accepted connections beyond this (server-wide) answer
  /// Reject{"overloaded"}.
  size_t MaxConnections = 256;
  /// Per-frame payload cap; longer headers answer Reject{"too_large"}.
  size_t MaxFrameBytes = kDefaultMaxPayloadBytes;
  /// Stop reading a connection once its queued response bytes pass
  /// this...
  size_t WriteQueueHighWater = 4u << 20;
  /// ...and resume once they fall below this.
  size_t WriteQueueLowWater = 1u << 20;
  /// Close connections silent for this long; 0 disables.
  uint64_t IdleTimeoutMs = 60'000;
  /// Reject{"timeout"} requests in flight longer than this; 0 disables.
  uint64_t RequestTimeoutMs = 0;
  /// Reject{"slow_frame"} connections that sit on a partial frame this
  /// long without completing it (slowloris guard); 0 disables. The
  /// clock restarts whenever a complete frame is extracted, so slow but
  /// steady pipelines never trip it.
  uint64_t SlowFrameTimeoutMs = 10'000;
  /// Overload shedding: once a reactor's admitted-but-unanswered job
  /// count reaches this, lax-class requests answer Reject{"shed"}
  /// before the payload is parsed. 0 disables shedding.
  size_t ShedHighWater = 0;
  /// Past this pending count every request sheds regardless of class;
  /// 0 defaults to 2 * ShedHighWater.
  size_t ShedHardWater = 0;
  /// Deadline-class boundary: requests whose peeked tightness is at or
  /// above this are "lax" (sheddable at ShedHighWater); tighter
  /// deadlines stay admitted until ShedHardWater.
  double ShedLaxTightness = 0.5;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests
  /// shrink it so write backpressure triggers with small payloads.
  int SocketSendBufferBytes = 0;
  /// Use the portable poll(2) backend even where epoll exists.
  bool ForcePoll = false;
  /// Configuration of the embedded SchedulerService.
  ServiceOptions Service;
};

/// Reactor-side counters, aggregated across reactors by Server::stats().
struct ServerStats {
  long ConnectionsAccepted = 0;
  long ConnectionsRejected = 0; ///< over MaxConnections
  long ConnectionsClosed = 0;
  long FramesIn = 0;
  long FramesOut = 0;
  long long BytesIn = 0;
  long long BytesOut = 0;
  long RejectsSent = 0;    ///< Reject frames of any code
  long ProtocolErrors = 0; ///< framing errors (reject-then-close)
  long IdleCloses = 0;
  long RequestTimeouts = 0;
  long SlowFrameCloses = 0;    ///< slowloris guard firings
  long LoadSheds = 0;          ///< Reject{"shed"} answers (any class)
  long PeerFetches = 0;        ///< PeerFetch cache probes served
  long PeerFetchHits = 0;      ///< ...that found a cached schedule
  long HandoffAccepts = 0;     ///< connections adopted via fd handoff
  long ReadPauses = 0;         ///< backpressure engagements
  long OrphanCompletions = 0;  ///< job finished after its conn closed
  size_t OpenConnections = 0;  ///< currently open
};

/// The scheduling server; see the file comment.
class Server {
public:
  explicit Server(ServerOptions Opts = ServerOptions());
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and spawns the reactor threads. Errors (port in
  /// use, bad address) are returned, not retried.
  ErrorOr<bool> start();

  /// The bound port (after start(); useful with Port = 0). All reactors
  /// share it (SO_REUSEPORT) or funnel through it (handoff fallback).
  uint16_t port() const { return BoundPort; }
  /// "epoll" or "poll" (after start()).
  const char *backendName() const { return Backend; }
  /// Reactor threads actually running (after start()).
  int reactors() const { return NumReactors; }
  /// True when the reactors share the port via SO_REUSEPORT, false on
  /// the accept-handoff fallback (after start()).
  bool usingReusePort() const { return ReusePortActive; }

  /// The embedded scheduling service (tests pause/resume it; the tool
  /// reads its stats).
  SchedulerService &service() { return Service; }

  /// Starts a graceful drain: stop accepting, stop reading, let every
  /// admitted job complete and flush, then close. Idempotent,
  /// thread-safe, safe from signal-handler-adjacent contexts (one
  /// atomic store + N write syscalls).
  void beginDrain();

  /// Waits until the drain finished (every reactor closed every
  /// connection). \returns false on timeout. TimeoutSeconds <= 0 polls
  /// once.
  bool waitDrained(double TimeoutSeconds);

  /// Hard stop: drains nothing, closes everything, joins the reactors,
  /// and shuts the service down. The destructor calls this.
  void stop();

  ServerStats stats() const;

private:
  struct Connection {
    int Fd = -1;
    uint64_t Id = 0;
    FrameParser Parser;
    std::deque<std::string> WriteQ;
    size_t WriteQBytes = 0;
    size_t WriteOff = 0; ///< bytes of WriteQ.front() already sent
    int InFlight = 0;    ///< jobs admitted, response not yet queued
    bool ReadPaused = false;
    /// Hard close: drop the connection once WriteQ drains (framing
    /// error, idle timeout).
    bool CloseAfterFlush = false;
    /// Soft close (peer half-closed): close once WriteQ drains AND
    /// every in-flight job has answered.
    bool SawEof = false;
    unsigned Subscribed = 0; ///< EvIn/EvOut bits currently registered
    uint64_t IdleTimer = 0;  ///< wheel id, 0 = none
    uint64_t SlowTimer = 0;  ///< partial-frame (slowloris) wheel id
    /// In-flight request bookkeeping, keyed by correlation id.
    std::map<uint64_t, uint64_t> StartNs;
    std::map<uint64_t, uint64_t> RequestTimers;
    std::set<uint64_t> TimedOut;
    /// Lifetime span ("conn" on the net category); ends at close.
    std::unique_ptr<obs::TraceSpan> Span;

    explicit Connection(size_t MaxPayload) : Parser(MaxPayload) {}
  };

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
  /// only). Depth is tracked for the completion-queue-depth gauge.
  class CompletionQueue {
  public:
    ~CompletionQueue();
    void push(Completion C);
    /// Appends all pending completions to \p Out in rough FIFO order.
    void drainTo(std::vector<Completion> &Out);
    long depth() const { return Depth.load(std::memory_order_relaxed); }

  private:
    struct Node {
      Completion C;
      Node *Next = nullptr;
    };
    std::atomic<Node *> Head{nullptr};
    std::atomic<long> Depth{0};
  };

  /// Everything one reactor thread owns. Only CQ, Handoff(+mutex),
  /// Wakeup, and the Counters mutex are ever touched by other threads.
  struct Reactor {
    int Index = 0;
    std::unique_ptr<Poller> Io;
    TimerWheel Wheel;
    WakeupFd Wakeup;
    int ListenFd = -1; ///< own REUSEPORT listener, or reactor 0's only
    std::thread Thread;

    // Reactor-thread-only connection state.
    std::map<int, std::unique_ptr<Connection>> ByFd;
    std::map<uint64_t, Connection *> ById;
    uint64_t NextConnId = 1; ///< seeded Index+1, stepped by NumReactors
    bool DrainStarted = false;
    bool DrainedLocal = false;
    /// Jobs admitted from this reactor, completion not yet delivered —
    /// the shedding watermark input.
    long PendingJobs = 0;

    /// Worker threads push completed jobs here; Wakeup nudges the loop.
    CompletionQueue CQ;
    /// Accept-handoff fallback: reactor 0 pushes accepted fds here.
    std::mutex HandoffMu;
    std::vector<int> Handoff;

    mutable std::mutex StatsMu;
    ServerStats Counters; ///< guarded by StatsMu

    // Per-reactor instruments, registered once in Server::start() so
    // the frame hot path never touches the registry lock.
    obs::Counter *AcceptsCtr = nullptr;
    obs::Counter *FramesInCtr = nullptr;
    obs::Counter *FramesOutCtr = nullptr;
    obs::Counter *BytesInCtr = nullptr;
    obs::Counter *BytesOutCtr = nullptr;
    obs::Gauge *OpenGauge = nullptr;
    obs::Gauge *DrainGauge = nullptr;
    obs::Gauge *CqDepthGauge = nullptr;
    obs::Histogram *LatencyHist = nullptr;
  };

  void loop(Reactor &R);
  void teardown(Reactor &R);
  void acceptReady(Reactor &R, uint64_t NowNs);
  void adoptHandoff(Reactor &R, uint64_t NowNs);
  void adoptConnection(Reactor &R, int Fd, uint64_t NowNs);
  void rejectAccept(Reactor &R, int Fd);
  void readReady(Reactor &R, Connection &C, uint64_t NowNs);
  void writeReady(Reactor &R, Connection &C);
  /// \returns the number of complete frames extracted (slow-frame
  /// progress tracking).
  size_t processFrames(Reactor &R, Connection &C, uint64_t NowNs);
  /// Admits one job frame (Request or GraphRequest — the frame kind
  /// must match the payload: a Request carrying a "graph" object, or a
  /// GraphRequest without one, draws Reject{"bad_request"}). The
  /// completion answers with the mirroring response frame kind.
  void handleRequest(Reactor &R, Connection &C, Frame &F, uint64_t NowNs);
  /// Answers a backend-to-backend PeerFetch cache probe with PeerData
  /// (found + serialized schedule, or a miss) from the service's result
  /// cache — a peek, so peer probes never skew hit/miss counters or LRU
  /// recency.
  void handlePeerFetch(Reactor &R, Connection &C, Frame &F);
  /// Answers a StatsFetch live-scrape probe with a StatsData bundle:
  /// process role, metrics exposition, and the recent trace buffer
  /// (dvs-stat --scrape merges these across endpoints).
  void handleStatsFetch(Reactor &R, Connection &C, Frame &F);
  /// \returns the shed class ("lax"/"hard") when the reactor's pending
  /// count says this request must be refused, nullptr to admit.
  const char *shedClass(const Reactor &R, const Frame &F) const;
  void handleCompletions(Reactor &R, uint64_t NowNs);
  void enqueueFrame(Reactor &R, Connection &C, FrameType Type,
                    uint64_t Correlation, const std::string &Payload);
  void sendReject(Reactor &R, Connection &C, uint64_t Correlation,
                  const std::string &Code, const std::string &Reason);
  void updateSubscription(Reactor &R, Connection &C);
  void armIdleTimer(Reactor &R, Connection &C, uint64_t NowNs);
  void trackFrameProgress(Reactor &R, Connection &C, size_t Extracted,
                          uint64_t NowNs);
  void closeConnection(Reactor &R, uint64_t ConnId);
  void startDrainOnLoop(Reactor &R);
  void finishDrainIfIdle(Reactor &R);
  void updateConnectionGauges(Reactor &R);

  ServerOptions Opts;
  SchedulerService Service;

  std::vector<std::unique_ptr<Reactor>> Reactors;
  int NumReactors = 0;
  bool ReusePortActive = false;
  uint16_t BoundPort = 0;
  const char *Backend = "";
  /// Handoff fallback: reactor 0's round-robin cursor (loop-thread
  /// only).
  size_t HandoffCursor = 0;
  /// Server-wide open-connection count for the MaxConnections limit
  /// (each reactor only sees its own ByFd).
  std::atomic<long> OpenConns{0};

  // Cross-thread lifecycle.
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> DrainRequested{false};
  std::atomic<int> DrainedReactors{0};

  mutable std::mutex StateMu;
  std::condition_variable DrainedCv;
  bool Drained = false;
};

} // namespace net
} // namespace cdvs

#endif // CDVS_NET_SERVER_H
