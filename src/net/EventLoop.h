//===- net/EventLoop.h - Readiness polling, timers, sockets -----*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OS-facing substrate of net::Server: a readiness Poller (epoll on
/// Linux, poll(2) everywhere — and on Linux too when forced, so the
/// fallback stays tested), a hashed TimerWheel for the server's idle and
/// request deadlines, a WakeupFd that lets worker threads nudge the
/// event loop (eventfd, or a self-pipe where eventfd is unavailable),
/// and small nonblocking-TCP helpers shared by net::Server (its listeners
/// and upstream links) and net::Client.
///
/// Everything here is single-owner: a Poller/TimerWheel belongs to one
/// loop thread and is not thread-safe; WakeupFd::notify() is the one
/// cross-thread entry point (a single write syscall, async-signal-safe).
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_NET_EVENTLOOP_H
#define CDVS_NET_EVENTLOOP_H

#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cdvs {
namespace net {

/// Readiness bits, backend-neutral.
enum : unsigned {
  EvIn = 1u << 0,  ///< readable (or pending accept)
  EvOut = 1u << 1, ///< writable
  EvErr = 1u << 2, ///< error condition
  EvHup = 1u << 3, ///< peer hung up
};

/// One ready descriptor from Poller::wait().
struct PollEvent {
  int Fd = -1;
  unsigned Events = 0;
};

/// Readiness notification backend. add/update/remove return false on OS
/// errors (a closed fd, exhausted watch table); wait() returns the
/// number of events delivered, 0 on timeout, -1 on unrecoverable error.
class Poller {
public:
  virtual ~Poller() = default;

  virtual bool add(int Fd, unsigned Events) = 0;
  virtual bool update(int Fd, unsigned Events) = 0;
  virtual bool remove(int Fd) = 0;
  /// Blocks up to \p TimeoutMs (-1 = forever) and appends ready fds to
  /// \p Out (cleared first).
  virtual int wait(std::vector<PollEvent> &Out, int TimeoutMs) = 0;
  virtual const char *backendName() const = 0;

  /// Builds the platform's best backend; \p ForcePoll selects the
  /// portable poll(2) backend even where epoll exists (tests, the
  /// server's --poll escape hatch).
  static std::unique_ptr<Poller> create(bool ForcePoll = false);
};

/// Hashed timer wheel: O(1) schedule/cancel, ticks scanned lazily from
/// advance(). Deadlines farther out than one rotation stay filed in
/// their slot and are skipped (by deadline comparison) until their
/// rotation comes around. Granularity is TickNanos — callbacks fire on
/// the first advance() past their deadline, so they can be late by one
/// tick plus the poll latency, which is exactly right for multi-second
/// idle/request timeouts.
class TimerWheel {
public:
  explicit TimerWheel(uint64_t TickNanos = 10'000'000 /* 10 ms */,
                      size_t Slots = 512);

  /// Files \p Fn to run once \p DelayNanos after \p NowNanos.
  /// \returns a nonzero id for cancel().
  uint64_t schedule(uint64_t NowNanos, uint64_t DelayNanos,
                    std::function<void()> Fn);

  /// Unfiles a pending timer. \returns false when the id already fired,
  /// was cancelled, or never existed.
  bool cancel(uint64_t Id);

  /// Fires every timer whose deadline is <= \p NowNanos. Callbacks run
  /// after the wheel's bookkeeping, so they may schedule() and cancel()
  /// freely. \returns the number fired.
  size_t advance(uint64_t NowNanos);

  size_t pending() const { return Count; }

  /// Poll timeout that will not oversleep the next tick: -1 when no
  /// timers are filed, otherwise the ms until the next tick boundary
  /// (at least 1).
  int pollTimeoutMs(uint64_t NowNanos) const;

private:
  struct Timer {
    uint64_t Id = 0;
    uint64_t DeadlineNanos = 0;
    std::function<void()> Fn;
  };

  size_t slotOf(uint64_t DeadlineNanos) const {
    return static_cast<size_t>((DeadlineNanos / TickNanos) %
                               Slots.size());
  }

  std::vector<std::vector<Timer>> Slots;
  uint64_t TickNanos;
  uint64_t NextId = 1;
  size_t Count = 0;
  /// Last tick advance() scanned; rescanned by the next advance() since
  /// timers later in it may not have been due yet. ~0 until first call.
  uint64_t DoneTick = ~uint64_t{0};
};

/// Cross-thread wakeup for the event loop: notify() from any thread
/// makes the loop's poll return; the loop drains with drain(). Backed
/// by eventfd(2) on Linux, a nonblocking self-pipe elsewhere.
class WakeupFd {
public:
  WakeupFd();
  ~WakeupFd();
  WakeupFd(const WakeupFd &) = delete;
  WakeupFd &operator=(const WakeupFd &) = delete;

  bool valid() const { return ReadEnd >= 0; }
  /// The fd the loop registers for EvIn.
  int fd() const { return ReadEnd; }
  /// Thread-safe; coalesces with pending notifications.
  void notify();
  /// Loop-side: consumes all pending notifications.
  void drain();

private:
  int ReadEnd = -1;
  int WriteEnd = -1; ///< == ReadEnd for eventfd
};

/// Marks \p Fd nonblocking (O_NONBLOCK). \returns false on error.
bool setNonBlocking(int Fd);

/// Opens a nonblocking listening TCP socket on \p BindAddress:\p Port
/// (SO_REUSEADDR; port 0 picks an ephemeral port). With \p ReusePort
/// the socket also sets SO_REUSEPORT so several listeners can share the
/// port (one per reactor) and the kernel spreads accepts across them;
/// where the platform lacks SO_REUSEPORT the call fails rather than
/// silently binding exclusively, so callers can fall back to a
/// single-acceptor handoff. \returns the fd.
ErrorOr<int> listenTcp(const std::string &BindAddress, uint16_t Port,
                       int Backlog, bool ReusePort = false);

/// The locally bound port of \p Fd (after listenTcp with port 0).
ErrorOr<uint16_t> localPort(int Fd);

/// Starts a nonblocking TCP connect to numeric IPv4 \p Host:\p Port
/// and returns the nonblocking socket (TCP_NODELAY set — the wire
/// protocol is request/response and Nagle would serialize pipelined
/// frames). The connect may still be in progress: the socket turns
/// writable when it settles, and socketError() then tells how.
ErrorOr<int> startConnectTcp(const std::string &Host, uint16_t Port);

/// The pending error of \p Fd (SO_ERROR): 0 once a nonblocking connect
/// has succeeded, an errno value when it failed.
int socketError(int Fd);

/// Blocking connect with a timeout: startConnectTcp() plus a wait,
/// returning a *blocking* connected socket.
ErrorOr<int> connectTcp(const std::string &Host, uint16_t Port,
                        int TimeoutMs);

} // namespace net
} // namespace cdvs

#endif // CDVS_NET_EVENTLOOP_H
