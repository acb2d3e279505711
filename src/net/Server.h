//===- net/Server.h - multi-reactor cdvs-wire server ------------*- C++ -*-===//
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
/// What a job frame means is the ServerHandler's business. The default
/// handler bridges job frames onto an embedded SchedulerService
/// (dvs-server): jobs run on the service's worker threads, and
/// completions come back through a *per-reactor* lock-free MPSC queue
/// (worker threads push, the owning reactor drains on wakeup), so
/// response routing never takes a lock shared between reactors.
/// cluster::Router is the other handler (dvs-router): it forwards each
/// request over an upstream link — a Conn it dials on the same reactor,
/// polled beside the accepted connections — and relays the answer.
/// Either way responses stream out of order per connection, matched by
/// the correlation id the client chose, and the server owns everything
/// around the handler: sockets, framing, admission bookkeeping, Ping,
/// StatsFetch, and the guards below.
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
///    unanswered requests crosses ShedHighWater, lax requests (deadline
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
///    already-admitted request answer and flush, then closes its client
///    connections; waitDrained() observers wake once the last reactor
///    quiesces. Upstream links stay up until stop().
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_NET_SERVER_H
#define CDVS_NET_SERVER_H

#include "net/Conn.h"
#include "net/EventLoop.h"
#include "net/Wire.h"
#include "service/Service.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
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
  /// Configuration of the embedded SchedulerService (the default
  /// handler only).
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
  long RejectsSent = 0;    ///< Reject frames this server originated
  long ProtocolErrors = 0; ///< framing errors (reject-then-close)
  long IdleCloses = 0;
  long RequestTimeouts = 0;
  long SlowFrameCloses = 0;    ///< slowloris guard firings
  long LoadSheds = 0;          ///< Reject{"shed"} answers (any class)
  long PeerFetches = 0;        ///< PeerFetch cache probes served
  long PeerFetchHits = 0;      ///< ...that found a cached schedule
  long HandoffAccepts = 0;     ///< connections adopted via fd handoff
  long ReadPauses = 0;         ///< backpressure engagements
  long OrphanCompletions = 0;  ///< answer came after its conn closed
  size_t OpenConnections = 0;  ///< client connections currently open
};

/// One reactor thread's event loop and everything it owns. Opaque
/// outside Server.cpp: handlers pass it back to the Server calls below.
struct Reactor;

/// The role-specific half of a Server; see the file comment. Every call
/// runs on the thread of the reactor it names.
class ServerHandler {
public:
  virtual ~ServerHandler() = default;
  /// The StatsData "role"; the trace render names the process
  /// "dvs-<role>".
  virtual const char *role() const = 0;
  /// Extra StatsData members, each with a leading comma.
  virtual std::string statsExtras() { return {}; }
  /// Once per reactor, from Server::start() before the reactor's thread
  /// runs.
  virtual void onStart(Reactor &, uint64_t /*NowNs*/) {}
  /// Once per loop turn, before the reactor polls.
  virtual void onWake(Reactor &, uint64_t /*NowNs*/) {}
  /// An admitted job frame (Request or GraphRequest) on client \p C,
  /// with the frame's trace context installed. Settle it exactly once,
  /// now or later, with Server::answer() or Server::reject().
  virtual void onRequest(Reactor &R, Conn &C, Frame &F,
                         uint64_t NowNs) = 0;
  /// A PeerFetch probe. \returns false when this role takes none, and
  /// the server rejects the frame as one a client may not send.
  virtual bool onPeerFetch(Reactor &, Conn &, Frame &) { return false; }
  /// Upstream links (Server::dial): a frame arrived, or the link failed
  /// (it is already closed).
  virtual void onUpstreamFrame(Reactor &, Conn &, Frame &,
                               uint64_t /*NowNs*/) {}
  virtual void onUpstreamDown(Reactor &, int /*Link*/,
                              uint64_t /*NowNs*/) {}
};

/// The cdvs-wire server; see the file comment.
class Server {
public:
  /// A scheduling server: job frames run on an embedded
  /// SchedulerService configured by Opts.Service.
  explicit Server(ServerOptions Opts = ServerOptions());
  /// A server whose job frames go to \p H, which must outlive it.
  Server(ServerOptions Opts, ServerHandler &H);
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

  /// The embedded scheduling service (default handler only; tests
  /// pause/resume it, the tool reads its stats).
  SchedulerService &service();

  /// Starts a graceful drain: stop accepting, stop reading, let every
  /// admitted request answer and flush, then close. Idempotent,
  /// thread-safe, safe from signal-handler-adjacent contexts (one
  /// atomic store + N write syscalls).
  void beginDrain();

  /// Waits until the drain finished (every reactor closed every client
  /// connection). \returns false on timeout. TimeoutSeconds <= 0 polls
  /// once.
  bool waitDrained(double TimeoutSeconds);

  /// Hard stop: drains nothing, closes everything, joins the reactors,
  /// and shuts the service down. The destructor calls this.
  void stop();

  ServerStats stats() const;

  // Handler calls: reactor thread only, naming the calling reactor.

  /// Settles admitted request \p Corr of connection \p ConnId with one
  /// frame. \returns false, sending nothing, when the connection closed
  /// or the request timed out meanwhile (an orphan).
  bool answer(Reactor &R, uint64_t ConnId, uint64_t Corr, FrameType Type,
              const std::string &Payload);
  /// answer() with a Reject{Code, Reason} frame.
  bool reject(Reactor &R, uint64_t ConnId, uint64_t Corr,
              const std::string &Code, const std::string &Reason);
  /// True while request \p Corr of \p ConnId still awaits its answer.
  bool awaiting(Reactor &R, uint64_t ConnId, uint64_t Corr) const;
  /// Opens an upstream link tagged \p Link to \p Host:\p Port. Frames
  /// sent before the connect settles queue; a connect that fails, or is
  /// still pending after \p TimeoutMs, ends in onUpstreamDown.
  /// \returns the error of a connect that fails at once.
  ErrorOr<Conn *> dial(Reactor &R, const std::string &Host, uint16_t Port,
                       uint64_t TimeoutMs, int Link);
  /// Queues one frame on \p C; the reactor writes it before it next
  /// polls. A link whose write fails then closes with onUpstreamDown.
  void send(Reactor &R, Conn &C, FrameType Type, uint64_t Corr,
            const std::string &Payload,
            const TraceContext *Trace = nullptr);
  /// Closes connection \p ConnId; on an upstream link, \p Failed
  /// reports it to onUpstreamDown.
  void close(Reactor &R, uint64_t ConnId, bool Failed = false);
  TimerWheel &wheel(Reactor &R);

private:
  class ServiceBridge;

  void loop(Reactor &R);
  void teardown(Reactor &R);
  void acceptReady(Reactor &R, uint64_t NowNs);
  void adoptHandoff(Reactor &R, uint64_t NowNs);
  void adoptConnection(Reactor &R, int Fd, uint64_t NowNs);
  void rejectAccept(Reactor &R, int Fd);
  void connectSettled(Reactor &R, Conn &L);
  void readReady(Reactor &R, Conn &C, uint64_t NowNs);
  void writeReady(Reactor &R, Conn &C);
  void flushDirty(Reactor &R);
  /// \returns the number of complete frames extracted (slow-frame
  /// progress tracking).
  size_t processFrames(Reactor &R, Conn &C, uint64_t NowNs);
  /// Admits one job frame (duplicate id, drain and shed checks, then
  /// the in-flight bookkeeping) and hands it to the handler.
  void handleRequest(Reactor &R, Conn &C, Frame &F, uint64_t NowNs);
  /// Answers a StatsFetch live-scrape probe with a StatsData bundle:
  /// process role, metrics exposition, and the recent trace buffer
  /// (dvs-stat --scrape merges these across endpoints).
  void handleStatsFetch(Reactor &R, Conn &C, Frame &F);
  /// Reject-then-close for a framing error or a frame a client may not
  /// send; a link just closes.
  void protocolError(Reactor &R, Conn &C, uint64_t Correlation,
                     const std::string &Code, const std::string &Reason);
  /// \returns the shed class ("lax"/"hard") when the reactor's pending
  /// count says this request must be refused, nullptr to admit.
  const char *shedClass(const Reactor &R, const Frame &F) const;
  void sendReject(Reactor &R, Conn &C, uint64_t Correlation,
                  const std::string &Code, const std::string &Reason);
  void updateSubscription(Reactor &R, Conn &C);
  void armIdleTimer(Reactor &R, Conn &C, uint64_t NowNs,
                    uint64_t DelayNs);
  void trackFrameProgress(Reactor &R, Conn &C, size_t Extracted,
                          uint64_t NowNs);
  void startDrainOnLoop(Reactor &R);
  void finishDrainIfIdle(Reactor &R);
  void updateConnectionGauges(Reactor &R);

  ServerOptions Opts;
  std::unique_ptr<ServiceBridge> Bridge; ///< default handler, if used
  ServerHandler *H = nullptr;

  std::vector<std::unique_ptr<Reactor>> Reactors;
  int NumReactors = 0;
  bool ReusePortActive = false;
  uint16_t BoundPort = 0;
  const char *Backend = "";
  /// Handoff fallback: reactor 0's round-robin cursor (loop-thread
  /// only).
  size_t HandoffCursor = 0;
  /// Server-wide open-connection count for the MaxConnections limit
  /// (each reactor only sees its own clients).
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
