//===- net/EventLoop.cpp - Readiness polling, timers, sockets --------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/EventLoop.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#define CDVS_NET_HAVE_EPOLL 1
#endif

using namespace cdvs;
using namespace cdvs::net;

//===----------------------------------------------------------------------===//
// Pollers
//===----------------------------------------------------------------------===//

namespace {

#if CDVS_NET_HAVE_EPOLL

unsigned fromEpoll(uint32_t E) {
  unsigned Out = 0;
  if (E & (EPOLLIN | EPOLLRDHUP))
    Out |= EvIn;
  if (E & EPOLLOUT)
    Out |= EvOut;
  if (E & EPOLLERR)
    Out |= EvErr;
  if (E & EPOLLHUP)
    Out |= EvHup;
  return Out;
}

uint32_t toEpoll(unsigned E) {
  uint32_t Out = 0;
  if (E & EvIn)
    Out |= EPOLLIN | EPOLLRDHUP;
  if (E & EvOut)
    Out |= EPOLLOUT;
  return Out;
}

class EpollPoller final : public Poller {
public:
  EpollPoller() : Ep(epoll_create1(EPOLL_CLOEXEC)) {}
  ~EpollPoller() override {
    if (Ep >= 0)
      ::close(Ep);
  }

  bool valid() const { return Ep >= 0; }

  bool add(int Fd, unsigned Events) override {
    return ctl(EPOLL_CTL_ADD, Fd, Events);
  }
  bool update(int Fd, unsigned Events) override {
    return ctl(EPOLL_CTL_MOD, Fd, Events);
  }
  bool remove(int Fd) override { return ctl(EPOLL_CTL_DEL, Fd, 0); }

  int wait(std::vector<PollEvent> &Out, int TimeoutMs) override {
    Out.clear();
    epoll_event Evs[64];
    int N = epoll_wait(Ep, Evs, 64, TimeoutMs);
    if (N < 0)
      return errno == EINTR ? 0 : -1;
    for (int I = 0; I < N; ++I)
      Out.push_back({Evs[I].data.fd, fromEpoll(Evs[I].events)});
    return N;
  }

  const char *backendName() const override { return "epoll"; }

private:
  bool ctl(int Op, int Fd, unsigned Events) {
    epoll_event E{};
    E.events = toEpoll(Events);
    E.data.fd = Fd;
    return epoll_ctl(Ep, Op, Fd, &E) == 0;
  }

  int Ep;
};

#endif // CDVS_NET_HAVE_EPOLL

/// Portable fallback: rebuilds the pollfd array from the watch map on
/// every wait. O(n) per call, which is fine at this server's connection
/// counts — correctness and portability are the point of this backend.
class PollPoller final : public Poller {
public:
  bool add(int Fd, unsigned Events) override {
    return Watches.emplace(Fd, Events).second;
  }
  bool update(int Fd, unsigned Events) override {
    auto It = Watches.find(Fd);
    if (It == Watches.end())
      return false;
    It->second = Events;
    return true;
  }
  bool remove(int Fd) override { return Watches.erase(Fd) > 0; }

  int wait(std::vector<PollEvent> &Out, int TimeoutMs) override {
    Out.clear();
    Fds.clear();
    for (const auto &[Fd, Events] : Watches) {
      pollfd P{};
      P.fd = Fd;
      P.events = static_cast<short>(((Events & EvIn) ? POLLIN : 0) |
                                    ((Events & EvOut) ? POLLOUT : 0));
      Fds.push_back(P);
    }
    int N = ::poll(Fds.data(), Fds.size(), TimeoutMs);
    if (N < 0)
      return errno == EINTR ? 0 : -1;
    for (const pollfd &P : Fds) {
      if (!P.revents)
        continue;
      unsigned E = 0;
      if (P.revents & POLLIN)
        E |= EvIn;
      if (P.revents & POLLOUT)
        E |= EvOut;
      if (P.revents & POLLERR)
        E |= EvErr;
      if (P.revents & (POLLHUP | POLLNVAL))
        E |= EvHup;
      Out.push_back({P.fd, E});
    }
    return N;
  }

  const char *backendName() const override { return "poll"; }

private:
  std::map<int, unsigned> Watches;
  std::vector<pollfd> Fds;
};

} // namespace

std::unique_ptr<Poller> Poller::create(bool ForcePoll) {
#if CDVS_NET_HAVE_EPOLL
  if (!ForcePoll) {
    auto Ep = std::make_unique<EpollPoller>();
    if (Ep->valid())
      return Ep;
  }
#else
  (void)ForcePoll;
#endif
  return std::make_unique<PollPoller>();
}

//===----------------------------------------------------------------------===//
// TimerWheel
//===----------------------------------------------------------------------===//

TimerWheel::TimerWheel(uint64_t TickNanos, size_t Slots_)
    : Slots(Slots_ < 2 ? 2 : Slots_),
      TickNanos(TickNanos < 1 ? 1 : TickNanos) {}

uint64_t TimerWheel::schedule(uint64_t NowNanos, uint64_t DelayNanos,
                              std::function<void()> Fn) {
  Timer T;
  T.Id = NextId++;
  T.DeadlineNanos = NowNanos + DelayNanos;
  T.Fn = std::move(Fn);
  uint64_t Id = T.Id;
  Slots[slotOf(T.DeadlineNanos)].push_back(std::move(T));
  ++Count;
  return Id;
}

bool TimerWheel::cancel(uint64_t Id) {
  for (auto &Slot : Slots) {
    for (auto It = Slot.begin(); It != Slot.end(); ++It) {
      if (It->Id == Id) {
        Slot.erase(It);
        --Count;
        return true;
      }
    }
  }
  return false;
}

size_t TimerWheel::advance(uint64_t NowNanos) {
  uint64_t NowTick = NowNanos / TickNanos;
  if (DoneTick == ~uint64_t{0} || DoneTick > NowTick)
    DoneTick = NowTick;

  // Collect first, fire after: callbacks may re-enter schedule/cancel.
  std::vector<std::function<void()>> Due;
  // Rescan from DoneTick itself: the current tick is never fully done —
  // a timer filed there with a deadline later in the tick must fire on
  // a later advance() within the same tick, not one rotation later.
  uint64_t FirstTick = DoneTick;
  // A gap longer than one rotation still only needs each slot once.
  if (NowTick - FirstTick + 1 >= Slots.size())
    FirstTick = NowTick + 1 - Slots.size();
  for (uint64_t Tick = FirstTick; Tick <= NowTick; ++Tick) {
    auto &Slot = Slots[static_cast<size_t>(Tick % Slots.size())];
    for (auto It = Slot.begin(); It != Slot.end();) {
      if (It->DeadlineNanos <= NowNanos) {
        Due.push_back(std::move(It->Fn));
        It = Slot.erase(It);
        --Count;
      } else {
        ++It;
      }
    }
  }
  DoneTick = NowTick;
  for (auto &Fn : Due)
    Fn();
  return Due.size();
}

int TimerWheel::pollTimeoutMs(uint64_t NowNanos) const {
  if (Count == 0)
    return -1;
  uint64_t NextTickNanos = (NowNanos / TickNanos + 1) * TickNanos;
  uint64_t DeltaMs = (NextTickNanos - NowNanos) / 1'000'000;
  return static_cast<int>(std::max<uint64_t>(1, DeltaMs));
}

//===----------------------------------------------------------------------===//
// WakeupFd
//===----------------------------------------------------------------------===//

WakeupFd::WakeupFd() {
#if CDVS_NET_HAVE_EPOLL
  int Fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (Fd >= 0) {
    ReadEnd = WriteEnd = Fd;
    return;
  }
#endif
  int Fds[2];
  if (::pipe(Fds) == 0) {
    setNonBlocking(Fds[0]);
    setNonBlocking(Fds[1]);
    ReadEnd = Fds[0];
    WriteEnd = Fds[1];
  }
}

WakeupFd::~WakeupFd() {
  if (ReadEnd >= 0)
    ::close(ReadEnd);
  if (WriteEnd >= 0 && WriteEnd != ReadEnd)
    ::close(WriteEnd);
}

void WakeupFd::notify() {
  if (WriteEnd < 0)
    return;
  uint64_t One = 1;
  // EAGAIN means a wakeup is already pending — exactly what we want.
  ssize_t R = ::write(WriteEnd, &One, sizeof(One));
  (void)R;
}

void WakeupFd::drain() {
  if (ReadEnd < 0)
    return;
  uint64_t Buf[32];
  while (::read(ReadEnd, Buf, sizeof(Buf)) > 0)
    ;
}

//===----------------------------------------------------------------------===//
// Socket helpers
//===----------------------------------------------------------------------===//

bool cdvs::net::setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

ErrorOr<int> cdvs::net::listenTcp(const std::string &BindAddress,
                                  uint16_t Port, int Backlog,
                                  bool ReusePort) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeError(std::string("socket: ") + std::strerror(errno));
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (ReusePort) {
#ifdef SO_REUSEPORT
    if (::setsockopt(Fd, SOL_SOCKET, SO_REUSEPORT, &One, sizeof(One)) !=
        0) {
      std::string E = std::strerror(errno);
      ::close(Fd);
      return makeError("setsockopt(SO_REUSEPORT): " + E);
    }
#else
    // Callers fall back to the accept-handoff path on this error.
    ::close(Fd);
    return makeError("SO_REUSEPORT unsupported on this platform");
#endif
  }

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, BindAddress.c_str(), &Addr.sin_addr) != 1) {
    ::close(Fd);
    return makeError("invalid bind address '" + BindAddress + "'");
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return makeError("bind " + BindAddress + ":" + std::to_string(Port) +
                     ": " + E);
  }
  if (::listen(Fd, Backlog) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return makeError("listen: " + E);
  }
  if (!setNonBlocking(Fd)) {
    ::close(Fd);
    return makeError("cannot set listener nonblocking");
  }
  return Fd;
}

ErrorOr<uint16_t> cdvs::net::localPort(int Fd) {
  sockaddr_in Addr{};
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0)
    return makeError(std::string("getsockname: ") + std::strerror(errno));
  return static_cast<uint16_t>(ntohs(Addr.sin_port));
}

ErrorOr<int> cdvs::net::startConnectTcp(const std::string &Host,
                                        uint16_t Port) {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1)
    return makeError("invalid address '" + Host +
                     "' (numeric IPv4 expected)");
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeError(std::string("socket: ") + std::strerror(errno));
  if (!setNonBlocking(Fd)) {
    ::close(Fd);
    return makeError("cannot set socket nonblocking");
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 &&
      errno != EINPROGRESS) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return makeError("connect " + Host + ":" + std::to_string(Port) +
                     ": " + E);
  }
  return Fd;
}

int cdvs::net::socketError(int Fd) {
  int Err = 0;
  socklen_t Len = sizeof(Err);
  if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Err, &Len) != 0)
    return errno ? errno : EIO;
  return Err;
}

ErrorOr<int> cdvs::net::connectTcp(const std::string &Host, uint16_t Port,
                                   int TimeoutMs) {
  ErrorOr<int> Fd = startConnectTcp(Host, Port);
  if (!Fd)
    return Fd;
  // Wait for the connect to settle, then flip back to blocking for the
  // client's simple read/write loop.
  pollfd P{};
  P.fd = *Fd;
  P.events = POLLOUT;
  int N = ::poll(&P, 1, TimeoutMs);
  int Err = N > 0 ? socketError(*Fd) : 0;
  if (N <= 0 || Err != 0) {
    ::close(*Fd);
    return makeError("connect " + Host + ":" + std::to_string(Port) +
                     ": " + (N <= 0 ? "timed out" : std::strerror(Err)));
  }
  int Flags = ::fcntl(*Fd, F_GETFL, 0);
  ::fcntl(*Fd, F_SETFL, Flags & ~O_NONBLOCK);
  return Fd;
}
