//===- cluster/Router.h - Sharding front end over dvs-servers ---*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster front end: the request handler of a one-reactor
/// net::Server. The server owns the client side — listener, framing,
/// write backpressure, idle and slow-frame guards, rejects, drain,
/// StatsFetch — and the router decides what a request means. It is
/// parsed (strictly — garbage is rejected here, not after burning a
/// backend hop), keyed (cluster/Key.h), hashed onto the consistent ring
/// (cluster/Ring.h), and proxied to the owning backend over an upstream
/// link, a net::Conn the router dials on the same reactor, by
/// correlation-id remapping: the router assigns its own upstream id per
/// link, remembers (client connection, client id), and rewrites the
/// header on the way back — payloads cross untouched except for an
/// optional `"backend":"host:port"` annotation spliced into Responses
/// for loadgen's per-backend breakdown.
///
/// Health and failover, all on the reactor's timer wheel:
///
///  * every HealthIntervalMs each Up backend is Pinged; a link that
///    carried no frame at all since the previous tick while its ping is
///    unanswered, a failed/timed-out connect, a framing error, or an
///    unexpected EOF is a transport failure (a slow solve or a late
///    Pong on a link that is answering is NOT — solver latency must
///    never evict a healthy backend);
///  * FailThreshold consecutive failures evict the backend from the
///    ring (its keys reassign to ring successors — consistent hashing
///    moves only the dead member's ~1/N share);
///  * eviction is not forever: the health tick keeps probing, and a
///    completed connect + Pong reinstates the backend onto the ring
///    (probe-based, so a half-dead process that accepts but does not
///    answer never rejoins);
///  * requests in flight on a failed backend retry on the next ring
///    owner with a per-request budget (RetryBudget) and a tried-set so
///    a retry never lands on the backend that just failed it; solves
///    are idempotent and content-addressed, so a retry is safe and a
///    duplicate response for an already-answered id is dropped. An
///    exhausted budget answers Reject{"upstream"} — every admitted
///    request gets exactly one answer.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_CLUSTER_ROUTER_H
#define CDVS_CLUSTER_ROUTER_H

#include "cluster/Address.h"
#include "cluster/Ring.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "support/RingBuffer.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cdvs {
namespace cluster {

/// Sizing and policy knobs for a Router.
struct RouterOptions {
  /// The hosting server: bind address, port, connection limit, frame
  /// cap (both directions), poll backend, and the idle, slow-frame and
  /// backpressure guards. Reactors must stay 1.
  net::ServerOptions Server;
  /// Backend addresses ("host:port" each); fixed membership, dynamic
  /// health.
  std::vector<std::string> Backends;
  /// Ring points per backend; must match the backends' PeerFiller.
  int VirtualNodes = 64;
  /// Health-probe cadence; also the ping-answer deadline of a link that
  /// carries nothing else.
  uint64_t HealthIntervalMs = 500;
  /// Consecutive transport failures that evict a backend.
  int FailThreshold = 3;
  /// Nonblocking upstream connect deadline.
  uint64_t ConnectTimeoutMs = 1'000;
  /// Per proxied request: re-route to the next owner after this long
  /// without an answer. 0 disables (backends own solve timeouts).
  uint64_t UpstreamTimeoutMs = 0;
  /// Failover retries per request after its first routing.
  int RetryBudget = 2;
  /// Splice "backend":"host:port" into relayed Responses.
  bool AnnotateBackend = true;
  /// Flight-recorder depth: the newest completed proxied requests are
  /// kept (key, owner, per-hop latencies, verdict) for StatsFetch
  /// scrapes and post-mortems. 0 disables recording.
  size_t FlightCapacity = 256;
  /// Dump a JSON line for every request slower than this (or answered
  /// with a reject) to SlowLogPath. 0 disables the slow log.
  uint64_t SlowLogMs = 0;
  /// Slow-log destination; empty or "-" writes to stderr.
  std::string SlowLogPath;
};

/// One completed proxied request, as the router's bounded flight
/// recorder remembers it: identity, routing history, outcome. Hops are
/// (backend name, seconds from send to answer/failure), in routing
/// order — a clean request has exactly one.
struct FlightRecord {
  /// 32 lowercase hex chars, empty when the client sent no trace
  /// context.
  std::string TraceId;
  /// Request fingerprint (32 hex chars) — joins against cache keys.
  std::string Key;
  uint64_t ClientId = 0;
  uint64_t ClientCorr = 0;
  /// First backend this request was routed to (the ring owner at
  /// admission).
  std::string Owner;
  int Retries = 0;
  std::vector<std::pair<std::string, double>> Hops;
  /// "response", "reject" (relayed), "orphan", or a router reject code
  /// ("upstream", "no_backends", ...).
  std::string Verdict;
  double TotalSeconds = 0.0;
};

/// Routing counters, snapshotted by Router::stats(). Connection, frame,
/// reject and protocol-error counts are the hosting server's
/// (Router::server().stats()).
struct RouterStats {
  long RequestsRouted = 0;    ///< proxied sends, retries included
  long ResponsesRelayed = 0;
  long RejectsRelayed = 0;    ///< backend rejects passed through
  long Retries = 0;
  long BackendEvictions = 0;
  long BackendReinstatements = 0;
  long UpstreamTimeouts = 0;
  long OrphanResponses = 0;   ///< answer landed after client/id vanished
  size_t HealthyBackends = 0;
};

/// The cluster router; see the file comment.
class Router final : private net::ServerHandler {
public:
  explicit Router(RouterOptions Opts = RouterOptions());
  ~Router() override;

  Router(const Router &) = delete;
  Router &operator=(const Router &) = delete;

  /// Binds, listens, and starts the reactor thread. Backends start
  /// optimistic (on the ring, connecting); the first failed probes
  /// evict the ones that are not actually there.
  ErrorOr<bool> start();

  /// The bound port (after start(); useful with Port = 0).
  uint16_t port() const { return Host.port(); }
  /// "epoll" or "poll" (after start()).
  const char *backendName() const { return Host.backendName(); }

  /// Stop accepting, answer what is in flight, close when quiet.
  /// Idempotent, thread-safe.
  void beginDrain() { Host.beginDrain(); }
  /// Waits for the drain to finish. \returns false on timeout;
  /// TimeoutSeconds <= 0 polls once.
  bool waitDrained(double TimeoutSeconds) {
    return Host.waitDrained(TimeoutSeconds);
  }

  /// Hard stop: closes everything and joins the reactor. The destructor
  /// calls this.
  void stop();

  /// The hosting server (its stats() count connections, frames and
  /// rejects).
  const net::Server &server() const { return Host; }
  RouterStats stats() const;
  /// (backend name, on-the-ring) pairs — the tests' view of the health
  /// state machine.
  std::vector<std::pair<std::string, bool>> backendHealth() const;
  /// Snapshot of the flight recorder, oldest first. Thread-safe.
  std::vector<FlightRecord> flightRecords() const;

private:
  /// One proxied request, owned by the backend link carrying it.
  struct PendingRequest {
    uint64_t ClientId = 0;
    uint64_t ClientCorr = 0;
    /// Request JSON, kept so a failover can resend it.
    std::string Payload;
    /// The client's request frame kind (Request or GraphRequest),
    /// re-emitted verbatim on every upstream send and failover.
    net::FrameType Kind = net::FrameType::Request;
    Fingerprint128 Key;
    /// Backends this request was already sent to; a retry skips them.
    std::vector<std::string> Tried;
    uint64_t TimerId = 0; ///< upstream-timeout wheel id, 0 = none
    uint64_t StartNs = 0;
    /// Trace context from the client's Request frame (invalid when it
    /// carried none), re-emitted with the router's route span as parent
    /// on every upstream send.
    net::TraceContext Trace;
    /// The router's own span id for this request ("route"), allocated
    /// at admission so upstream sends can name it as parent before the
    /// span's completion event is recorded at answer time.
    uint64_t RouteSpanId = 0;
    uint64_t HopStartNs = 0; ///< when the current upstream send left
    /// Completed hops: (backend, seconds from send to answer/failure).
    std::vector<std::pair<std::string, double>> Hops;

    /// Closes the current hop, once.
    void endHop(uint64_t NowNs) {
      if (HopStartNs && Hops.size() < Tried.size())
        Hops.emplace_back(Tried.back(),
                          static_cast<double>(NowNs - HopStartNs) * 1e-9);
    }
  };

  struct Backend {
    int Index = 0; ///< position in Backends; the link's tag
    Address Addr;
    std::string Name; ///< Addr.name(), the ring member string
    /// On the ring? Written by the reactor, read by stats() and
    /// backendHealth() from any thread.
    std::atomic<bool> Healthy{true};
    int Failures = 0;    ///< consecutive transport failures
    /// The upstream link: null while idle, Connecting until it settles.
    net::Conn *Link = nullptr;
    /// Any frame arrived on the link since the last health tick.
    bool Heard = false;
    uint64_t NextCorr = 1;
    /// Upstream correlation id -> the proxied request it carries.
    std::map<uint64_t, PendingRequest> InFlight;
    uint64_t PingCorr = 0; ///< outstanding health probe, 0 = none

    obs::Counter *RequestsCtr = nullptr;
    obs::Gauge *UpGauge = nullptr;
    obs::Histogram *LatencyHist = nullptr;
  };

  // net::ServerHandler.
  const char *role() const override { return "router"; }
  /// The flight records, for StatsFetch scrapes.
  std::string statsExtras() override;
  void onStart(net::Reactor &R, uint64_t NowNs) override;
  void onRequest(net::Reactor &R, net::Conn &C, net::Frame &F,
                 uint64_t NowNs) override;
  void onUpstreamFrame(net::Reactor &R, net::Conn &L, net::Frame &F,
                       uint64_t NowNs) override;
  void onUpstreamDown(net::Reactor &R, int Link, uint64_t NowNs) override;

  void bump(long RouterStats::*Field);
  Backend *backendByName(const std::string &Name);
  void connect(Backend &B, uint64_t NowNs);
  void deliver(Backend &B, net::Frame &F, uint64_t NowNs);
  void sendToBackend(Backend &B, PendingRequest P, uint64_t NowNs);
  /// One consecutive transport failure: close the link, maybe evict,
  /// fail over whatever was in flight.
  void transportFailure(Backend &B, uint64_t NowNs);
  void markDown(Backend &B);
  /// A completed probe: failures reset, evicted backends rejoin.
  void recover(Backend &B);
  void retryPending(PendingRequest P, uint64_t NowNs);
  /// Retires \p P, whose client is gone or no longer waits.
  void orphan(PendingRequest &P, uint64_t NowNs);
  /// Answers the client with a router-originated Reject (routing
  /// failure, exhausted budget).
  void rejectPending(PendingRequest &P, const std::string &Code,
                     const std::string &Reason);
  /// Retires \p P into the flight recorder and, when it was slow or
  /// failed and the slow log is on, dumps it as a JSON line. Also emits
  /// the request's "route" span when it carried a trace context.
  void recordFlight(const PendingRequest &P, const std::string &Verdict,
                    uint64_t NowNs);
  void healthTick(uint64_t NowNs);
  void armHealthTimer(uint64_t NowNs);

  RouterOptions Opts;

  // Reactor-thread-only state (Backends itself is fixed by start()).
  net::Reactor *Loop = nullptr;
  std::vector<std::unique_ptr<Backend>> Backends;
  HashRing Ring;

  // Cross-thread observation.
  mutable std::mutex StatsMu;
  RouterStats Counters; ///< guarded by StatsMu

  // Flight recorder: written by the reactor thread, snapshotted by
  // flightRecords()/StatsFetch scrapes.
  mutable std::mutex FlightMu;
  RingBuffer<FlightRecord> Flight; ///< guarded by FlightMu
  std::FILE *SlowLog = nullptr; ///< reactor-only, owned iff not stderr
  bool SlowLogOwned = false;

  obs::Gauge *BackendsGauge = nullptr;
  obs::Counter *RetriesCtr = nullptr;
  obs::Counter *EvictionsCtr = nullptr;
  obs::Counter *ReinstatementsCtr = nullptr;
  obs::Counter *RejectsCtr = nullptr;
  obs::Counter *SlowCtr = nullptr;

  /// Last: destroyed (and its reactor joined) first.
  net::Server Host;
};

} // namespace cluster
} // namespace cdvs

#endif // CDVS_CLUSTER_ROUTER_H
