//===- servbench/drive.cpp - Serving benchmark driver ------------------===//
//
// The native half of the serving benchmark (servbench/run.py is the
// other half). Subcommands:
//
//   catalog   print the workload registry: one {"workload","inputs"} line
//             per workload, so the request generator draws from what the
//             program actually ships.
//   screen    the correctness oracle: run every key through an in-process
//             SchedulerService built with the servers' options (strict
//             verify, presolve on) and write its results; keys whose
//             reference is not done are reported and left out.
//   load      drive a running dvs-server / dvs-router over cdvs-wire from
//             ONE thread and ONE epoll loop with non-blocking sockets. It
//             keeps reading while it sends, so a server that pauses
//             reading (write-queue backpressure) can never wedge it.
//             Phases: a closed loop with a fixed number of outstanding
//             requests per connection (peak throughput), an open loop at
//             a fixed rate timed from each request's scheduled send time
//             (latency, corrected for coordinated omission), an optional
//             overload probe, or a batch in which every key is sent once
//             by clients that each await their reply. With --reference
//             every key's returned schedule is compared byte for byte with
//             the oracle's, and every later answer with the first.
//   isolate   time each layer's public entry point alone on the
//             workload's own keys (the layer-isolation ledger).
//
// Every subcommand prints one JSON object as its last stdout line.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "cluster/Key.h"
#include "cluster/Ring.h"
#include "dvs/DvsScheduler.h"
#include "dvs/ScheduleIO.h"
#include "milp/Fingerprint.h"
#include "net/Wire.h"
#include "obs/Metrics.h"
#include "power/ModeTable.h"
#include "power/TransitionModel.h"
#include "power/VfModel.h"
#include "profile/Profile.h"
#include "service/JobIO.h"
#include "service/Service.h"
#include "sim/Simulator.h"
#include "support/Clock.h"
#include "verify/Verify.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

using namespace cdvs;

namespace {

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "servbench-drive: %s\n", Msg.c_str());
  std::exit(2);
}

/// --name=value / --flag options after the subcommand.
class Args {
public:
  Args(int Argc, char **Argv, int First) {
    for (int I = First; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A.rfind("--", 0) != 0)
        die("unexpected argument '" + A + "'");
      size_t Eq = A.find('=');
      if (Eq == std::string::npos)
        Map[A.substr(2)] = "1";
      else
        Map[A.substr(2, Eq - 2)] = A.substr(Eq + 1);
    }
  }
  std::string str(const std::string &K, const std::string &Def = "") {
    Used.insert(K);
    auto It = Map.find(K);
    return It == Map.end() ? Def : It->second;
  }
  double num(const std::string &K, double Def) {
    std::string S = str(K);
    if (S.empty())
      return Def;
    char *End = nullptr;
    double V = std::strtod(S.c_str(), &End);
    if (*End != '\0')
      die("--" + K + " wants a number, got '" + S + "'");
    return V;
  }
  bool flag(const std::string &K) { return !str(K).empty(); }
  void done() {
    for (auto &[K, V] : Map)
      if (!Used.count(K))
        die("unknown option --" + K);
  }

private:
  std::map<std::string, std::string> Map;
  std::set<std::string> Used;
};

/// One distinct request of the workload: the JSON line as sent and its
/// decoded form (the oracle and the isolation pass need the latter).
struct Key {
  std::string Json;
  JobRequest Req;
};

std::vector<Key> loadKeys(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read keys file '" + Path + "'");
  std::vector<Key> Keys;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    ErrorOr<JobRequest> R = jobRequestFromJsonText(Line);
    if (!R)
      die("bad key line '" + Line + "': " + R.message());
    Keys.push_back({Line, std::move(*R)});
  }
  if (Keys.empty())
    die("keys file '" + Path + "' is empty");
  return Keys;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(Q * static_cast<double>(V.size()));
  return V[std::min(I, V.size() - 1)];
}

std::string hex64(uint64_t V) {
  char B[17];
  std::snprintf(B, sizeof(B), "%016llx", static_cast<unsigned long long>(V));
  return B;
}

/// Minimal JSON object writer for the summary lines.
class JsonOut {
public:
  JsonOut &num(const std::string &K, double V) {
    char B[64];
    std::snprintf(B, sizeof(B), "%.9g", V);
    return raw(K, B);
  }
  JsonOut &str(const std::string &K, const std::string &V) {
    return raw(K, "\"" + V + "\"");
  }
  JsonOut &raw(const std::string &K, const std::string &V) {
    S += (S.empty() ? "{\"" : ",\"") + K + "\":" + V;
    return *this;
  }
  std::string done() const { return S.empty() ? "{}" : S + "}"; }

private:
  std::string S;
};

//===----------------------------------------------------------------------===//
// Response scanning. The driver must not become the bottleneck it is
// measuring, so responses are not parsed into a tree on the hot path:
// the fields it needs are located by key, and the schedule is compared
// in its escaped wire form (equal escaped bytes <=> equal text). The
// first answer per key is kept whole and fully decoded by the oracle.
//===----------------------------------------------------------------------===//

std::string_view fieldRaw(std::string_view P, std::string_view Name) {
  std::string Pat = "\"" + std::string(Name) + "\":";
  size_t At = P.find(Pat);
  if (At == std::string_view::npos)
    return {};
  size_t B = At + Pat.size();
  size_t E = B;
  if (E < P.size() && P[E] == '"') {
    ++E;
    while (E < P.size() && P[E] != '"')
      E += P[E] == '\\' ? 2 : 1;
    return P.substr(B, std::min(E + 1, P.size()) - B);
  }
  while (E < P.size() && P[E] != ',' && P[E] != '}')
    ++E;
  return P.substr(B, E - B);
}

double fieldNum(std::string_view P, std::string_view Name) {
  std::string_view V = fieldRaw(P, Name);
  if (V.empty())
    return 0.0;
  return std::strtod(std::string(V).c_str(), nullptr);
}

//===----------------------------------------------------------------------===//
// load
//===----------------------------------------------------------------------===//

enum class Mode { Closed, Open, Batch, Overload };

const char *modeName(Mode M) {
  switch (M) {
  case Mode::Closed:
    return "closed";
  case Mode::Open:
    return "open";
  case Mode::Batch:
    return "batch";
  case Mode::Overload:
    return "overload";
  }
  return "?";
}

/// After a phase stops sending, answers still outstanding are awaited this
/// long; any left then count as unanswered.
constexpr double kDrainSeconds = 20.0;

/// One request sent: the correlation id is its index + 1.
struct Rec {
  uint32_t Key = 0;
  uint32_t Win = 0;    ///< latency window within its phase
  uint64_t DueNs = 0;  ///< scheduled send time (open loop), else send time
  uint64_t SentNs = 0; ///< when the generator handed it to its socket
  uint64_t DoneNs = 0; ///< 0 while unanswered
  // Driver-side spans of a traced request (zero when untraced).
  uint64_t TraceHi = 0, TraceLo = 0, RootSpan = 0;
  uint64_t SendEndNs = 0, RecvBeginNs = 0, RecvEndNs = 0, ParseEndNs = 0;
};

struct Conn {
  int Fd = -1;
  std::string Out;
  size_t OutOff = 0;
  bool WantOut = false;
  std::string In;
  size_t InOff = 0;
  long Outstanding = 0;
};

/// Per-phase tallies.
struct PhaseStats {
  Mode M = Mode::Open;
  double Seconds = 0.0;   ///< timed window
  double TargetRate = 0.0;
  long Sent = 0, Done = 0, Failed = 0, Rejects = 0, NotDone = 0,
       Unanswered = 0, Mismatches = 0, Hits = 0, Shared = 0;
  long DoneInWindow = 0;
  std::vector<double> LatMs, LateMs, OverheadMs, QueueMs, TotalMs,
      ProfileMs, SolveMs, VerifyMs;
  /// Latencies are also grouped in windows of WindowRequests consecutive
  /// sends: the windowed tail is the median over all windows of each
  /// window's tail.
  long WindowRequests = 1000;
  std::vector<uint32_t> LatWin;
  std::map<std::string, long> FailReasons;
  uint64_t T0 = 0, TEnd = 0;

  /// The highest quantile that leaves ten samples of a window above it.
  double tailQ() const {
    return 1.0 - 10.0 / static_cast<double>(WindowRequests);
  }
};

/// The median over windows of each window's \p Q quantile.
double windowed(const std::vector<double> &V, const std::vector<uint32_t> &W,
                double Q) {
  std::map<uint32_t, std::vector<double>> By;
  for (size_t I = 0; I < V.size(); ++I)
    By[W[I]].push_back(V[I]);
  std::vector<double> Per;
  for (auto &[Win, Vals] : By)
    Per.push_back(quantile(Vals, Q));
  return quantile(Per, 0.5);
}

std::string jsonArray(const std::vector<double> &V) {
  std::string A = "[";
  for (size_t I = 0; I < V.size(); ++I) {
    char B[32];
    std::snprintf(B, sizeof(B), "%s%.4f", I ? "," : "", V[I]);
    A += B;
  }
  return A + "]";
}

class Driver {
public:
  Driver(std::vector<Key> Keys, std::vector<uint32_t> Order,
         const std::string &Host, int Port, int NumConns)
      : Keys(std::move(Keys)), Order(std::move(Order)),
        FirstAnswer(this->Keys.size()), SchedRaw(this->Keys.size()) {
    Ep = epoll_create1(EPOLL_CLOEXEC);
    if (Ep < 0)
      die("epoll_create1 failed");
    for (int I = 0; I < NumConns; ++I)
      Conns.push_back(connectTo(Host, Port, I));
  }
  ~Driver() {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
    if (Ep >= 0)
      ::close(Ep);
  }
  Driver(const Driver &) = delete;
  Driver &operator=(const Driver &) = delete;

  /// Requests per latency window (see PhaseStats).
  long WindowRequests = 1000;

  /// Runs one phase; see the file comment. \p TraceEvery > 0 stamps a
  /// trace context on every such request.
  PhaseStats run(Mode M, double Seconds, double Rate, int Depth,
                 int TraceEvery) {
    PhaseStats S;
    S.M = M;
    S.Seconds = Seconds;
    S.TargetRate = Rate;
    S.WindowRequests = WindowRequests;
    Cur = &S;
    CurMode = M;
    TraceN = TraceEvery;
    uint64_t T0 = monotonicNanos();
    S.T0 = T0;
    uint64_t End = T0 + static_cast<uint64_t>(Seconds * 1e9);
    BatchNext = 0;
    PhaseFirstRec = Recs.size();
    Sending = true;

    if (M == Mode::Closed || M == Mode::Batch) {
      int PerConn = M == Mode::Batch ? 1 : Depth;
      for (size_t C = 0; C < Conns.size(); ++C)
        for (int D = 0; D < PerConn; ++D)
          if (!sendNext(static_cast<uint32_t>(C), monotonicNanos(), 0))
            break;
      flushAll();
      uint64_t DrainUntil = 0;
      while (Sending || outstanding() > 0) {
        uint64_t Now = monotonicNanos();
        if (M == Mode::Closed && Sending && Now >= End)
          Sending = false;
        if (!Sending && DrainUntil == 0) {
          S.TEnd = Now;
          DrainUntil = Now + static_cast<uint64_t>(kDrainSeconds * 1e9);
        }
        if (!Sending && Now >= DrainUntil)
          break;
        pump(M == Mode::Closed && Sending ? End - Now : 50'000'000);
      }
      if (M == Mode::Batch)
        S.TEnd = monotonicNanos();
    } else {
      // Open loop: request i is due at T0 + i / Rate, whatever the
      // server is doing; lateness is how far behind that the generator
      // itself ran.
      double IntervalNs = 1e9 / Rate;
      uint64_t I = 0;
      uint32_t NextConn = 0;
      for (;;) {
        uint64_t Now = monotonicNanos();
        if (Now >= End)
          break;
        bool Any = false;
        for (;;) {
          uint64_t Due = T0 + static_cast<uint64_t>(
                                  static_cast<double>(I) * IntervalNs);
          if (Due > Now || Due >= End)
            break;
          sendNext(NextConn, monotonicNanos(), Due);
          NextConn = (NextConn + 1) % static_cast<uint32_t>(Conns.size());
          ++I;
          Any = true;
        }
        if (Any)
          flushAll();
        uint64_t Due =
            T0 + static_cast<uint64_t>(static_cast<double>(I) * IntervalNs);
        Now = monotonicNanos();
        pump(Due > Now ? std::min<uint64_t>(Due - Now, End - Now) : 0);
      }
      Sending = false;
      S.TEnd = monotonicNanos();
      uint64_t DrainUntil =
          S.TEnd + static_cast<uint64_t>(kDrainSeconds * 1e9);
      while (outstanding() > 0 && monotonicNanos() < DrainUntil)
        pump(20'000'000);
    }
    for (size_t R = PhaseFirstRec; R < Recs.size(); ++R)
      if (Recs[R].DoneNs == 0) {
        ++S.Unanswered;
        ++S.Failed;
        ++S.FailReasons["unanswered"];
      }
    if (S.Unanswered > 0)
      for (Conn &C : Conns)
        C.Outstanding = 0;
    Cur = nullptr;
    return S;
  }

  /// Keys that drew a done answer, with that answer's payload.
  const std::vector<std::string> &firstAnswers() const {
    return FirstAnswer;
  }
  const std::vector<Key> &keys() const { return Keys; }
  const std::vector<Rec> &records() const { return Recs; }

private:
  Conn connectTo(const std::string &Host, int Port, int Index) {
    Conn C;
    C.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (C.Fd < 0)
      die("socket failed");
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_port = htons(static_cast<uint16_t>(Port));
    if (inet_pton(AF_INET, Host.c_str(), &A.sin_addr) != 1)
      die("bad host '" + Host + "'");
    if (::connect(C.Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0)
      die("connect to " + Host + ":" + std::to_string(Port) +
          " failed: " + std::strerror(errno));
    int One = 1;
    ::setsockopt(C.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    int Fl = ::fcntl(C.Fd, F_GETFL);
    if (Fl < 0 || ::fcntl(C.Fd, F_SETFL, Fl | O_NONBLOCK) != 0)
      die("cannot make socket non-blocking");
    epoll_event E{};
    E.events = EPOLLIN;
    E.data.u32 = static_cast<uint32_t>(Index);
    if (epoll_ctl(Ep, EPOLL_CTL_ADD, C.Fd, &E) != 0)
      die("epoll_ctl failed");
    return C;
  }

  long outstanding() const {
    long N = 0;
    for (const Conn &C : Conns)
      N += C.Outstanding;
    return N;
  }

  /// Queues the phase's next request on connection \p Ci. \returns false
  /// when a batch has no key left.
  bool sendNext(uint32_t Ci, uint64_t NowNs, uint64_t DueNs) {
    uint32_t K;
    if (CurMode == Mode::Batch) {
      if (BatchNext >= Keys.size()) {
        Sending = false;
        return false;
      }
      K = static_cast<uint32_t>(BatchNext++);
    } else {
      K = Order[Cursor % Order.size()];
      ++Cursor;
    }
    Rec R;
    R.Key = K;
    R.Win = static_cast<uint32_t>(Cur->Sent / Cur->WindowRequests);
    R.DueNs = DueNs ? DueNs : NowNs;
    R.SentNs = NowNs;
    uint64_t Corr = Recs.size() + 1;
    net::TraceContext TC;
    bool Traced = TraceN > 0 && CurMode != Mode::Closed &&
                  (Cur->Sent % TraceN) == 0;
    if (Traced) {
      TC.TraceHi = splitmix();
      TC.TraceLo = splitmix();
      TC.ParentSpan = splitmix();
      TC.Sampled = true;
      R.TraceHi = TC.TraceHi;
      R.TraceLo = TC.TraceLo;
      R.RootSpan = TC.ParentSpan;
    }
    Conn &C = Conns[Ci];
    C.Out += net::encodeFrame(net::FrameType::Request, Corr, Keys[K].Json,
                              Traced ? &TC : nullptr);
    if (Traced)
      R.SendEndNs = monotonicNanos();
    Recs.push_back(R);
    ++C.Outstanding;
    ++Cur->Sent;
    Cur->LateMs.push_back(static_cast<double>(NowNs - R.DueNs) * 1e-6);
    return true;
  }

  uint64_t splitmix() {
    uint64_t Z = (SpanSeed += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    Z ^= Z >> 31;
    return Z ? Z : 1;
  }

  void flushAll() {
    for (size_t I = 0; I < Conns.size(); ++I)
      flush(static_cast<uint32_t>(I));
  }

  void flush(uint32_t Ci) {
    Conn &C = Conns[Ci];
    while (C.OutOff < C.Out.size()) {
      ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff,
                         C.Out.size() - C.OutOff, MSG_NOSIGNAL);
      if (N > 0) {
        C.OutOff += static_cast<size_t>(N);
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      die(std::string("send failed: ") + std::strerror(errno));
    }
    if (C.OutOff == C.Out.size()) {
      C.Out.clear();
      C.OutOff = 0;
    } else if (C.OutOff > (1u << 20)) {
      C.Out.erase(0, C.OutOff);
      C.OutOff = 0;
    }
    bool Want = !C.Out.empty();
    if (Want != C.WantOut) {
      epoll_event E{};
      E.events = EPOLLIN | (Want ? EPOLLOUT : 0u);
      E.data.u32 = Ci;
      epoll_ctl(Ep, EPOLL_CTL_MOD, C.Fd, &E);
      C.WantOut = Want;
    }
  }

  void pump(uint64_t TimeoutNs) {
    epoll_event Ev[64];
    timespec Ts{static_cast<time_t>(TimeoutNs / 1'000'000'000ull),
                static_cast<long>(TimeoutNs % 1'000'000'000ull)};
    int N = epoll_pwait2(Ep, Ev, 64, &Ts, nullptr);
    if (N < 0) {
      if (errno == EINTR)
        return;
      die(std::string("epoll_pwait2 failed: ") + std::strerror(errno));
    }
    for (int I = 0; I < N; ++I) {
      uint32_t Ci = Ev[I].data.u32;
      if (Ev[I].events & (EPOLLIN | EPOLLERR | EPOLLHUP))
        readConn(Ci);
      if (Ev[I].events & EPOLLOUT)
        flush(Ci);
    }
    // Closed loop and batch refill from inside onFrame; push the bytes.
    if (CurMode != Mode::Open && CurMode != Mode::Overload)
      flushAll();
  }

  void readConn(uint32_t Ci) {
    for (;;) {
      Conn &C = Conns[Ci];
      char Buf[65536];
      uint64_t R0 = monotonicNanos();
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return;
      if (N <= 0)
        die("server closed connection " + std::to_string(Ci));
      uint64_t R1 = monotonicNanos();
      C.In.append(Buf, static_cast<size_t>(N));
      for (;;) {
        net::FrameHeader H;
        size_t Avail = C.In.size() - C.InOff;
        const auto *P =
            reinterpret_cast<const unsigned char *>(C.In.data()) + C.InOff;
        net::WireStatus St =
            net::decodeFrameHeader(P, Avail, 64u << 20, H);
        if (St == net::WireStatus::NeedMore)
          break;
        if (St != net::WireStatus::Ok)
          die(std::string("framing error from server: ") +
              net::wireStatusName(St));
        size_t Total = net::kFrameHeaderBytes + H.ExtBytes + H.PayloadBytes;
        if (Avail < Total)
          break;
        std::string_view Payload(
            C.In.data() + C.InOff + net::kFrameHeaderBytes + H.ExtBytes,
            H.PayloadBytes);
        C.InOff += Total;
        onFrame(Ci, H, Payload, R0, R1);
      }
      if (C.InOff == C.In.size()) {
        C.In.clear();
        C.InOff = 0;
      } else if (C.InOff > (1u << 20)) {
        C.In.erase(0, C.InOff);
        C.InOff = 0;
      }
    }
  }

  void fail(const std::string &Why) {
    ++Cur->Failed;
    ++Cur->FailReasons[Why];
  }

  void onFrame(uint32_t Ci, const net::FrameHeader &H,
               std::string_view Payload, uint64_t RecvBegin,
               uint64_t RecvEnd) {
    uint64_t Now = monotonicNanos();
    // An answer to an earlier phase (past its drain) was already counted
    // as unanswered there.
    if (H.Correlation == 0 || H.Correlation > Recs.size() ||
        H.Correlation <= PhaseFirstRec || !Cur)
      return;
    Rec &R = Recs[H.Correlation - 1];
    if (R.DoneNs != 0)
      return;
    R.DoneNs = Now;
    --Conns[Ci].Outstanding;
    PhaseStats &S = *Cur;
    if (S.M != Mode::Closed || Now <= S.TEnd || S.TEnd == 0)
      ++S.DoneInWindow;
    double LatMs = static_cast<double>(Now - R.DueNs) * 1e-6;
    if (H.Type == net::FrameType::Reject) {
      ++S.Rejects;
      fail("reject");
    } else if (H.Type != net::FrameType::Response) {
      fail("frame_type");
    } else {
      std::string_view Status = fieldRaw(Payload, "status");
      if (Status != "\"done\"") {
        ++S.NotDone;
        fail("status_" + std::string(Status.size() > 2
                                         ? Status.substr(1, Status.size() - 2)
                                         : Status));
      } else {
        std::string_view Sched = fieldRaw(Payload, "schedule");
        std::string &Seen = SchedRaw[R.Key];
        if (Sched.empty()) {
          fail("no_schedule");
        } else if (Seen.empty()) {
          Seen.assign(Sched);
          FirstAnswer[R.Key].assign(Payload);
          ++S.Done;
        } else if (Seen != Sched) {
          ++S.Mismatches;
          fail("schedule_changed");
        } else {
          ++S.Done;
        }
        double Total = fieldNum(Payload, "total_ms");
        S.LatMs.push_back(LatMs);
        S.LatWin.push_back(R.Win);
        S.OverheadMs.push_back(
            static_cast<double>(Now - R.SentNs) * 1e-6 - Total);
        S.TotalMs.push_back(Total);
        S.QueueMs.push_back(fieldNum(Payload, "queue_ms"));
        S.ProfileMs.push_back(fieldNum(Payload, "profile_ms"));
        bool Hit = fieldRaw(Payload, "cache_hit") == "true";
        bool Shared = fieldRaw(Payload, "shared_flight") == "true";
        S.Hits += Hit;
        S.Shared += Shared;
        if (!Hit && !Shared) {
          S.SolveMs.push_back(fieldNum(Payload, "solve_ms"));
          S.VerifyMs.push_back(fieldNum(Payload, "verify_ms"));
        }
      }
    }
    if (R.TraceHi != 0) {
      R.RecvBeginNs = RecvBegin;
      R.RecvEndNs = RecvEnd;
      R.ParseEndNs = monotonicNanos();
    }
    // A closed-loop refill is due when the answer that frees its slot
    // arrived: its lateness is the driver's own read and parse time.
    if (Sending && (CurMode == Mode::Closed || CurMode == Mode::Batch))
      sendNext(Ci, monotonicNanos(), RecvBegin);
  }

  std::vector<Key> Keys;
  std::vector<uint32_t> Order;
  /// Per key: the first done answer (whole payload) and its escaped
  /// schedule, against which every later answer is compared.
  std::vector<std::string> FirstAnswer, SchedRaw;
  std::vector<Conn> Conns;
  std::vector<Rec> Recs;
  int Ep = -1;
  PhaseStats *Cur = nullptr;
  Mode CurMode = Mode::Open;
  bool Sending = false;
  int TraceN = 0;
  size_t Cursor = 0, BatchNext = 0, PhaseFirstRec = 0;
  uint64_t SpanSeed = 0x5eed5eed;
};

std::string phaseJson(const PhaseStats &S) {
  double Wall = static_cast<double>(S.TEnd - S.T0) * 1e-9;
  std::string Reasons = "{";
  for (auto &[K, V] : S.FailReasons)
    Reasons += (Reasons.size() > 1 ? ",\"" : "\"") + K +
               "\":" + std::to_string(V);
  Reasons += "}";
  JsonOut J;
  J.str("mode", modeName(S.M))
      .num("seconds", Wall)
      .num("target_rps", S.TargetRate)
      .num("sent", static_cast<double>(S.Sent))
      .num("done", static_cast<double>(S.Done))
      .num("failed", static_cast<double>(S.Failed))
      .num("rejects", static_cast<double>(S.Rejects))
      .num("not_done", static_cast<double>(S.NotDone))
      .num("unanswered", static_cast<double>(S.Unanswered))
      .num("mismatches", static_cast<double>(S.Mismatches))
      .num("cache_hits", static_cast<double>(S.Hits))
      .num("shared_flights", static_cast<double>(S.Shared))
      .num("done_rps",
           Wall > 0 ? static_cast<double>(S.DoneInWindow) / Wall : 0.0)
      .num("samples", static_cast<double>(S.LatMs.size()))
      .num("lat_p50_ms", quantile(S.LatMs, 0.50))
      .num("lat_p99_ms", quantile(S.LatMs, 0.99))
      .num("tail_percentile", 100.0 * S.tailQ())
      .num("lat_tail_windowed_ms", windowed(S.LatMs, S.LatWin, S.tailQ()))
      // Batches are small: the whole sample rides along so the caller can
      // pool batches and pick the tail percentile the sample supports.
      .raw("lat_ms", jsonArray(S.M == Mode::Batch ? S.LatMs
                                                  : std::vector<double>()))
      .num("late_p50_ms", quantile(S.LateMs, 0.50))
      .num("late_p99_ms", quantile(S.LateMs, 0.99))
      .num("overhead_p50_ms", quantile(S.OverheadMs, 0.50))
      .num("overhead_p99_ms", quantile(S.OverheadMs, 0.99))
      .num("queue_p50_ms", quantile(S.QueueMs, 0.50))
      .num("queue_p99_ms", quantile(S.QueueMs, 0.99))
      .num("total_p50_ms", quantile(S.TotalMs, 0.50))
      .num("profile_p50_ms", quantile(S.ProfileMs, 0.50))
      .num("solve_p50_ms", quantile(S.SolveMs, 0.50))
      .num("solve_p99_ms", quantile(S.SolveMs, 0.99))
      .num("fresh_solves", static_cast<double>(S.SolveMs.size()))
      .num("verify_p50_ms", quantile(S.VerifyMs, 0.50))
      .raw("fail_reasons", Reasons);
  return J.done();
}

/// Profile-sharing groups: requests with the same (workload, inputs,
/// levels) need one profile. Submitting one leader per group first keeps
/// racing duplicate collections out of the reference's cost.
std::string profileGroup(const JobRequest &R) {
  std::string G = R.Workload + "|" + std::to_string(R.NumLevels);
  for (const JobCategory &C : R.Categories)
    G += "|" + C.Input;
  return G;
}

ServiceOptions referenceOptions(size_t NumKeys) {
  ServiceOptions O;
  O.NumWorkers = static_cast<int>(std::thread::hardware_concurrency());
  O.QueueCapacity = NumKeys + 16;
  O.CacheCapacity = NumKeys + 16;
  O.Verify = VerifyMode::Strict;
  O.Presolve = true;
  return O;
}

/// Runs every key through an in-process SchedulerService built with the
/// servers' options (strict verify, presolve on).
std::vector<JobResult> referenceResults(const std::vector<Key> &Keys) {
  SchedulerService Ref(referenceOptions(Keys.size()));
  std::vector<JobResult> Results(Keys.size());
  std::set<std::string> Led;
  std::vector<size_t> Leaders, Rest;
  for (size_t I = 0; I < Keys.size(); ++I)
    (Led.insert(profileGroup(Keys[I].Req)).second ? Leaders : Rest)
        .push_back(I);
  for (const std::vector<size_t> *Wave : {&Leaders, &Rest}) {
    std::vector<std::future<JobResult>> Fs;
    for (size_t I : *Wave)
      Fs.push_back(Ref.submit(Keys[I].Req));
    for (size_t J = 0; J < Wave->size(); ++J)
      Results[(*Wave)[J]] = Fs[J].get();
  }
  return Results;
}

/// Reads the "<key json>\t<result json>" lines `screen` wrote.
std::map<std::string, JobResult> loadReference(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read reference file '" + Path + "'");
  std::map<std::string, JobResult> Out;
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Tab = Line.find('\t');
    ErrorOr<JobResult> R = jobResultFromJsonText(
        Tab == std::string::npos ? "" : Line.substr(Tab + 1));
    if (!R)
      die("bad reference line: " + R.message());
    Out[Line.substr(0, Tab)] = std::move(*R);
  }
  return Out;
}

/// Compares each answered key's schedule with the reference byte for
/// byte. \returns {checked, mismatches}.
std::pair<long, long>
checkAnswers(const std::vector<Key> &Keys,
             const std::vector<std::string> &Answers,
             const std::map<std::string, JobResult> &Reference,
             std::string &FirstProblem) {
  long Checked = 0, Mismatch = 0;
  for (size_t I = 0; I < Keys.size(); ++I) {
    if (Answers[I].empty())
      continue;
    ++Checked;
    ErrorOr<JobResult> Got = jobResultFromJsonText(Answers[I]);
    auto Want = Reference.find(Keys[I].Json);
    std::string Problem;
    if (!Got)
      Problem = "undecodable answer: " + Got.message();
    else if (Want == Reference.end())
      Problem = "no reference result";
    else if (Got->ScheduleText != Want->second.ScheduleText)
      Problem = "schedule differs from the reference";
    else if (Got->Fingerprint != Want->second.Fingerprint)
      Problem = "fingerprint differs from the reference";
    if (!Problem.empty()) {
      ++Mismatch;
      if (FirstProblem.empty())
        FirstProblem = "key " + std::to_string(I) + " (" + Keys[I].Json +
                       "): " + Problem;
    }
  }
  return {Checked, Mismatch};
}

/// screen: computes the reference for every key and writes, per key whose
/// reference is done, "<key json>\t<result json>". The rest are reported;
/// the caller decides how many exclusions a run may tolerate.
int cmdScreen(Args &A) {
  std::vector<Key> Keys = loadKeys(A.str("keys"));
  std::string RefOut = A.str("reference-out");
  A.done();
  std::vector<JobResult> Results = referenceResults(Keys);
  std::ofstream Ref(RefOut);
  if (!Ref)
    die("cannot write '" + RefOut + "'");
  long Excluded = 0;
  for (size_t I = 0; I < Keys.size(); ++I) {
    if (Results[I].Status != JobStatus::Done) {
      if (!Excluded++)
        std::fprintf(stderr, "servbench-drive: excluded %s: %s\n",
                     Keys[I].Json.c_str(), Results[I].Reason.c_str());
      continue;
    }
    Ref << Keys[I].Json << '\t' << jobResultToJson(Results[I], true) << '\n';
  }
  std::printf("{\"keys\":%zu,\"excluded\":%ld}\n", Keys.size(), Excluded);
  return 0;
}

/// A run fails when the median open-loop send went out later than this
/// behind its schedule: the generator, not the server, was the bottleneck.
constexpr double kMaxLateMs = 1.0;
/// How long the overload probe offers its rate.
constexpr double kOverloadSeconds = 1.0;

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

int cmdLoad(Args &A) {
  int Port = static_cast<int>(A.num("port", 0));
  std::string Host = A.str("host", "127.0.0.1");
  std::vector<Key> Keys = loadKeys(A.str("keys"));
  uint64_t Shuffle = static_cast<uint64_t>(A.num("shuffle-seed", 0));
  double ClosedS = A.num("closed-seconds", 0), OpenS = A.num("open-seconds", 0);
  double Rate = A.num("rate", 0), OverRate = A.num("overload-rate", 0);
  int Depth = static_cast<int>(A.num("depth", 1));
  bool Batch = A.flag("batch");
  std::string RefPath = A.str("reference");
  int TraceEvery = static_cast<int>(A.num("trace-every", 0));
  std::string SpansOut = A.str("spans-out");
  long Window = static_cast<long>(A.num("window", 1000));
  A.done();
  if (Window < 20)
    die("--window must leave ten samples above its tail: at least 20");
  if (Port <= 0 || Depth < 1)
    die("load needs --port and --depth >= 1");
  // One connection per core: the load comes from one thread, and a
  // server sees as many clients as the host has cores.
  int NumConns =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // The default 50 us timer slack would make every open-loop send that
  // late, and that lateness counts in the latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::vector<uint32_t> Order(Keys.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = static_cast<uint32_t>(I);
  if (Shuffle) {
    std::mt19937_64 Rng(Shuffle);
    std::shuffle(Order.begin(), Order.end(), Rng);
  }

  Driver D(std::move(Keys), std::move(Order), Host, Port, NumConns);
  D.WindowRequests = Window;
  std::vector<PhaseStats> Phases;
  double Cpu0 = cpuSeconds();
  uint64_t W0 = monotonicNanos();
  if (Batch)
    Phases.push_back(D.run(Mode::Batch, 0, 0, 1, TraceEvery));
  if (ClosedS > 0)
    Phases.push_back(D.run(Mode::Closed, ClosedS, 0, Depth, 0));
  if (OpenS > 0 && Rate > 0)
    Phases.push_back(D.run(Mode::Open, OpenS, Rate, 1, TraceEvery));
  double GenBusy = (cpuSeconds() - Cpu0) /
                   (static_cast<double>(monotonicNanos() - W0) * 1e-9);
  // The overload probe offers more than the server can take; rejects
  // and queueing are expected there, a hang is not. It is not timed.
  PhaseStats Over;
  bool HaveOver = OverRate > 0;
  if (HaveOver)
    Over = D.run(Mode::Overload, kOverloadSeconds, OverRate, 1, 0);

  long Sent = 0, Failed = 0, Mismatch = 0;
  for (const PhaseStats &S : Phases) {
    Sent += S.Sent;
    Failed += S.Failed;
  }
  bool GenLate = false;
  for (const PhaseStats &S : Phases)
    // Behind means a backlog: most sends late, not a stall of the host
    // that delays a few (gen.late_ms.p99 reports those).
    if (S.M == Mode::Open && quantile(S.LateMs, 0.5) > kMaxLateMs)
      GenLate = true;

  long Checked = 0;
  std::string Problem;
  if (!RefPath.empty()) {
    auto [C, M] =
        checkAnswers(D.keys(), D.firstAnswers(), loadReference(RefPath),
                     Problem);
    Checked = C;
    Mismatch = M;
  }

  if (!SpansOut.empty()) {
    std::FILE *F = std::fopen(SpansOut.c_str(), "w");
    if (!F)
      die("cannot write '" + SpansOut + "'");
    for (const Rec &R : D.records()) {
      if (R.TraceHi == 0 || R.DoneNs == 0)
        continue;
      std::fprintf(F,
                   "{\"trace_id\":\"%s%s\",\"root\":\"%s\",\"due\":%llu,"
                   "\"sent\":%llu,\"send_end\":%llu,\"recv_begin\":%llu,"
                   "\"recv_end\":%llu,\"parse_end\":%llu,\"done\":%llu}\n",
                   hex64(R.TraceHi).c_str(), hex64(R.TraceLo).c_str(),
                   hex64(R.RootSpan).c_str(),
                   static_cast<unsigned long long>(R.DueNs),
                   static_cast<unsigned long long>(R.SentNs),
                   static_cast<unsigned long long>(R.SendEndNs),
                   static_cast<unsigned long long>(R.RecvBeginNs),
                   static_cast<unsigned long long>(R.RecvEndNs),
                   static_cast<unsigned long long>(R.ParseEndNs),
                   static_cast<unsigned long long>(R.DoneNs));
    }
    std::fclose(F);
  }

  std::string PhasesJson = "[";
  for (size_t I = 0; I < Phases.size(); ++I)
    PhasesJson += (I ? "," : "") + phaseJson(Phases[I]);
  PhasesJson += "]";
  JsonOut J;
  J.num("sent", static_cast<double>(Sent))
      .num("failed", static_cast<double>(Failed + Mismatch))
      .num("oracle_checked", static_cast<double>(Checked))
      .num("oracle_mismatches", static_cast<double>(Mismatch))
      .str("oracle_problem", Problem.empty() ? "" : "see stderr")
      .raw("gen_late", GenLate ? "true" : "false")
      .num("gen_cpu_busy", GenBusy)
      .raw("phases", PhasesJson);
  if (HaveOver)
    J.raw("overload", phaseJson(Over));
  if (!Problem.empty())
    std::fprintf(stderr, "servbench-drive: oracle: %s\n", Problem.c_str());
  std::printf("%s\n", J.done().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// isolate
//===----------------------------------------------------------------------===//

/// The isolation pass times its entry points on this many of the
/// workload's profile keys, each for about this many seconds.
constexpr size_t kIsolateKeys = 2;
constexpr double kIsolateBudgetS = 0.05;

/// Median per-call seconds of \p Fn, repeated until kIsolateBudgetS is
/// spent (at least 3 calls), in rounds of \p Batch calls.
template <typename F> double timeIt(F &&Fn, int Batch = 1) {
  std::vector<double> Per;
  uint64_t Start = monotonicNanos();
  do {
    uint64_t T0 = monotonicNanos();
    for (int I = 0; I < Batch; ++I)
      Fn();
    Per.push_back(static_cast<double>(monotonicNanos() - T0) * 1e-9 / Batch);
  } while (Per.size() < 3 ||
           static_cast<double>(monotonicNanos() - Start) * 1e-9 <
               kIsolateBudgetS);
  return quantile(Per, 0.5);
}

ModeTable modesFor(const JobRequest &R) {
  return R.NumLevels == 0 ? ModeTable::xscale3()
                          : ModeTable::evenVoltageLevels(
                                R.NumLevels, 0.7, 1.65, VfModel::paperDefault());
}

int cmdIsolate(Args &A) {
  std::vector<Key> Keys = loadKeys(A.str("keys"));
  A.done();

  // The workload's own keys: the first few distinct profile groups.
  std::vector<const Key *> Picked;
  std::set<std::string> Groups;
  for (const Key &K : Keys)
    if (Picked.size() < kIsolateKeys &&
        Groups.insert(profileGroup(K.Req)).second)
      Picked.push_back(&K);

  std::map<std::string, std::vector<double>> M; // metric -> per-key values
  obs::Counter &SimInstr = obs::metrics().counter(
      "cdvs_sim_instructions_total", "Simulated instructions retired");
  ServiceOptions SO = referenceOptions(Keys.size());
  SO.NumWorkers = 1;
  SchedulerService Svc(SO);
  cluster::HashRing Ring(64);
  Ring.add("127.0.0.1:1");
  Ring.add("127.0.0.1:2");

  for (const Key *KP : Picked) {
    const JobRequest &Req = KP->Req;
    Workload W = workloadByName(Req.Workload);
    ModeTable Modes = modesFor(Req);
    TransitionModel Tr(Req.CapacitanceF, 0.9, 1.0);
    int Init = Req.InitialMode < 0 ? static_cast<int>(Modes.size()) - 1
                                   : Req.InitialMode;

    // profile + sim: one collection per category input.
    std::vector<CategoryProfile> Cats;
    std::vector<JobCategory> Want = Req.Categories;
    if (Want.empty())
      Want.push_back({W.defaultInput().Name, 1.0});
    double WSum = 0;
    for (const JobCategory &C : Want)
      WSum += C.Weight;
    double CollectS = 0, Instr0 = SimInstr.value();
    for (const JobCategory &C : Want) {
      Simulator Sim(*W.Fn);
      W.input(C.Input).Setup(Sim);
      uint64_t T0 = monotonicNanos();
      Profile P = collectProfile(Sim, Modes);
      CollectS += static_cast<double>(monotonicNanos() - T0) * 1e-9;
      Cats.push_back({std::move(P), C.Weight / WSum});
    }
    M["profile.collect_ms"].push_back(CollectS * 1e3);
    M["sim.minstr_per_s"].push_back((SimInstr.value() - Instr0) / CollectS *
                                    1e-6);

    analysis::FunctionAnalysis FA = analysis::analyzeFunction(*W.Fn);
    M["analysis.analyze_ms"].push_back(
        timeIt([&] { (void)analysis::analyzeFunction(*W.Fn); }) * 1e3);

    std::vector<double> Deadlines;
    for (const CategoryProfile &C : Cats) {
      double TFast = C.Data.TotalTimeAtMode.back();
      double TSlow = C.Data.TotalTimeAtMode.front();
      Deadlines.push_back(Req.DeadlineSeconds > 0
                              ? Req.DeadlineSeconds
                              : TFast + Req.DeadlineTightness * (TSlow - TFast));
    }
    M["milp.fingerprint_us"].push_back(
        timeIt(
            [&] {
              (void)fingerprintDvsInstance(Cats, Deadlines, Modes, Tr,
                                           Req.FilterThreshold, Init);
            },
            8) *
        1e6);

    DvsOptions O;
    O.FilterThreshold = Req.FilterThreshold;
    O.InitialMode = Init;
    O.Milp.NumThreads = 1;
    O.KeepArtifacts = true;
    O.Presolve = true;
    O.Analysis = &FA;
    ErrorOr<ScheduleResult> SR = DvsScheduler(*W.Fn, Cats, Modes, Tr, O)
                                     .schedule(Deadlines);
    if (!SR)
      die("isolated schedule failed for " + KP->Json + ": " + SR.message());
    M["dvs.schedule_ms"].push_back(
        timeIt(
            [&] {
              (void)DvsScheduler(*W.Fn, Cats, Modes, Tr, O)
                  .schedule(Deadlines);
            }) *
        1e3);
    std::string Text = writeSchedule(SR->Assignment);
    M["dvs.serialize_us"].push_back(
        timeIt([&] { (void)writeSchedule(SR->Assignment); }, 8) * 1e6);
    verify::AuditOptions AO;
    AO.FilterThreshold = Req.FilterThreshold;
    M["verify.audit_ms"].push_back(
        timeIt(
            [&] {
              (void)verify::auditScheduleResult(*W.Fn, Cats, Modes, Tr, *SR,
                                                Deadlines, AO);
            }) *
        1e3);

    // service: JobIO both ways, then a primed in-process hit.
    M["jobio.parse_us"].push_back(
        timeIt([&] { (void)jobRequestFromJsonText(KP->Json); }, 16) * 1e6);
    JobResult First = Svc.submit(Req).get();
    if (First.Status != JobStatus::Done)
      die("isolated service job failed for " + KP->Json + ": " +
          First.Reason);
    M["service.hit_us"].push_back(
        timeIt([&] { (void)Svc.submit(Req).get(); }, 16) * 1e6);
    std::string ResultJson = jobResultToJson(First, true);
    M["jobio.write_us"].push_back(
        timeIt([&] { (void)jobResultToJson(First, true); }, 16) * 1e6);

    // net: one request frame through the decoder, one response encoded.
    std::string ReqFrame =
        net::encodeFrame(net::FrameType::Request, 7, KP->Json);
    M["net.decode_ns"].push_back(
        timeIt(
            [&] {
              net::FrameParser FP;
              net::Frame F;
              FP.feed(ReqFrame.data(), ReqFrame.size());
              (void)FP.next(F);
            },
            64) *
        1e9);
    M["net.encode_ns"].push_back(
        timeIt(
            [&] {
              (void)net::encodeFrame(net::FrameType::Response, 7, ResultJson);
            },
            64) *
        1e9);

    // cluster: the router's per-request key + owner lookup.
    M["cluster.key_ns"].push_back(
        timeIt([&] { (void)Ring.ownerOf(cluster::requestKey(Req)); }, 64) *
        1e9);
  }

  JsonOut J;
  J.num("keys", static_cast<double>(Picked.size()));
  for (auto &[Name, V] : M)
    J.num(Name, quantile(V, 0.5));
  std::printf("%s\n", J.done().c_str());
  return 0;
}

int cmdCatalog(Args &A) {
  A.done();
  for (const Workload &W : allWorkloads()) {
    std::string In = "[";
    for (const WorkloadInput &I : W.Inputs)
      In += (In.size() > 1 ? ",\"" : "\"") + I.Name + "\"";
    std::printf("{\"workload\":\"%s\",\"inputs\":%s]}\n", W.Name.c_str(),
                In.c_str());
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    die("usage: servbench-drive catalog|screen|load|isolate "
        "[--opt=value ...]");
  std::string Cmd = argv[1];
  Args A(argc, argv, 2);
  if (Cmd == "catalog")
    return cmdCatalog(A);
  if (Cmd == "screen")
    return cmdScreen(A);
  if (Cmd == "load")
    return cmdLoad(A);
  if (Cmd == "isolate")
    return cmdIsolate(A);
  die("unknown subcommand '" + Cmd + "'");
}
