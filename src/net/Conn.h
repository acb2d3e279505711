//===- net/Conn.h - One framed nonblocking connection -----------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One cdvs-wire stream on a nonblocking socket: its FrameParser, a
/// write queue with byte accounting, the readiness bits it is registered
/// for, and its close state. net::Server runs accepted client
/// connections and outbound upstream links (cluster::Router's backend
/// links) as Conns on one reactor; the reactor owns the poller, the
/// timers and the counters, a Conn owns its socket, its bytes and its
/// per-request bookkeeping. A Conn is not thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_NET_CONN_H
#define CDVS_NET_CONN_H

#include "net/Wire.h"
#include "obs/Trace.h"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>

namespace cdvs {
namespace net {

struct Conn {
  /// Takes ownership of \p Fd (closed by the destructor).
  Conn(int Fd, uint64_t Id, size_t MaxPayload)
      : Fd(Fd), Id(Id), Parser(MaxPayload) {}
  ~Conn();

  /// What one read or write burst did.
  struct Io {
    long long Bytes = 0;
    bool Eof = false;    ///< the peer closed its side (reads only)
    bool Failed = false; ///< the socket is dead
  };

  /// Reads everything the socket has into Parser.
  Io readAll();
  /// Appends one encoded frame to the write queue.
  void enqueue(std::string Data);
  /// Sends as much of the write queue as the socket takes.
  Io flush();
  /// The readiness bits this connection needs: EvOut while connecting
  /// or while bytes are queued, EvIn while \p Reading.
  unsigned wanted(bool Reading) const;
  bool upstream() const { return Link >= 0; }

  const int Fd;
  const uint64_t Id;
  FrameParser Parser;
  std::deque<std::string> WriteQ;
  size_t WriteQBytes = 0;
  size_t WriteOff = 0; ///< bytes of WriteQ.front() already sent
  unsigned Subscribed = 0; ///< EvIn/EvOut bits currently registered
  /// Write backpressure: reading stops while queued bytes sit above
  /// the high-water mark (client connections only).
  bool ReadPaused = false;
  /// Hard close: drop the connection once WriteQ drains (framing
  /// error, idle timeout).
  bool CloseAfterFlush = false;
  /// Soft close (peer half-closed): close once WriteQ drains and every
  /// in-flight request has answered.
  bool SawEof = false;
  /// Upstream link whose nonblocking connect has not settled.
  bool Connecting = false;
  /// Frames queued since the reactor's last flush pass.
  bool Dirty = false;
  /// Upstream links: the dialing handler's tag for the link; -1 on an
  /// accepted client connection.
  int Link = -1;

  // Reactor bookkeeping.
  uint64_t LastActiveNs = 0; ///< last read, for the idle deadline
  /// Idle deadline (clients) or connect deadline (links); wheel id, 0 =
  /// none.
  uint64_t IdleTimer = 0;
  uint64_t SlowTimer = 0; ///< partial-frame (slowloris) wheel id
  int InFlight = 0;       ///< requests admitted, answer not yet queued
  /// In-flight request bookkeeping, keyed by correlation id.
  std::map<uint64_t, uint64_t> StartNs;
  std::map<uint64_t, uint64_t> RequestTimers;
  std::set<uint64_t> TimedOut;
  /// Lifetime span ("conn" on the net category); ends at close.
  std::unique_ptr<obs::TraceSpan> Span;
};

} // namespace net
} // namespace cdvs

#endif // CDVS_NET_CONN_H
