//===- net/Conn.cpp - One framed nonblocking connection --------------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Conn.h"

#include "net/EventLoop.h"

#include <cerrno>

#include <sys/socket.h>
#include <unistd.h>

using namespace cdvs;
using namespace cdvs::net;

Conn::~Conn() { ::close(Fd); }

Conn::Io Conn::readAll() {
  Io R;
  char Buf[64 * 1024];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      Parser.feed(Buf, static_cast<size_t>(N));
      R.Bytes += N;
      continue;
    }
    if (N == 0)
      R.Eof = true;
    else if (errno == EINTR)
      continue;
    else if (errno != EAGAIN && errno != EWOULDBLOCK)
      R.Failed = true;
    return R;
  }
}

void Conn::enqueue(std::string Data) {
  WriteQBytes += Data.size();
  WriteQ.push_back(std::move(Data));
}

Conn::Io Conn::flush() {
  Io R;
  while (!WriteQ.empty()) {
    const std::string &Front = WriteQ.front();
    ssize_t N = ::send(Fd, Front.data() + WriteOff, Front.size() - WriteOff,
                       MSG_NOSIGNAL);
    if (N > 0) {
      R.Bytes += N;
      WriteOff += static_cast<size_t>(N);
      if (WriteOff == Front.size()) {
        WriteQBytes -= Front.size();
        WriteQ.pop_front();
        WriteOff = 0;
      }
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    R.Failed = true;
    break;
  }
  return R;
}

unsigned Conn::wanted(bool Reading) const {
  if (Connecting)
    return EvOut;
  return (Reading ? EvIn : 0u) | (WriteQ.empty() ? 0u : EvOut);
}
