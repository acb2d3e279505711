//===- service/SingleFlight.h - Memo with single-flight fills ---*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's one memoization primitive: a string-keyed store of
/// immutable values in which each key is computed at most once at a
/// time. When N threads ask for the same missing key, the first becomes
/// the leader and computes with no lock held while the other N-1 wait on
/// its flight and share the value, so N racing requests cost one
/// computation. The result cache (one instance per shard), the profile
/// memo, and the static-analysis memo are all instances of it.
///
/// The store, its recency list, and the in-flight table sit under one
/// mutex that is only ever held for map operations. A nullptr value
/// (a transient failure) is handed to the waiters of its flight but not
/// stored, so a later request computes again.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_SERVICE_SINGLEFLIGHT_H
#define CDVS_SERVICE_SINGLEFLIGHT_H

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace cdvs {

/// Counters of a memo (or, summed over its shards, of the result cache).
struct CacheStats {
  long Hits = 0;
  long Misses = 0;        ///< leader computes
  long SharedFlights = 0; ///< followers that waited on a leader
  long Evictions = 0;
  size_t Entries = 0;
};

/// Memo with single-flight fills; see the file comment.
template <typename T> class SingleFlight {
public:
  using ValuePtr = std::shared_ptr<const T>;

  /// Optional process-registry mirrors of the counters plus the name of
  /// the trace span a follower's wait records as. Null members export
  /// nothing; the memo's own counts (stats()) are always kept.
  struct Instruments {
    const char *WaitSpan = nullptr;
    obs::Counter *Hits = nullptr, *Misses = nullptr, *Shared = nullptr,
                 *Evictions = nullptr;
  };

  /// What getOrCompute observed for a key.
  struct Lookup {
    ValuePtr Value;
    bool Hit = false;    ///< served from the store
    bool Shared = false; ///< served by waiting on another's compute
  };

  /// \p Capacity bounds the store, evicting the least recently used
  /// entry first; 0 leaves it unbounded.
  explicit SingleFlight(size_t Capacity = 0, Instruments I = {})
      : Capacity(Capacity), Instr(I) {}

  SingleFlight(const SingleFlight &) = delete;
  SingleFlight &operator=(const SingleFlight &) = delete;

  /// \returns the stored value for \p Key, computing it with \p Compute
  /// (a callable returning ValuePtr) on a miss.
  template <typename ComputeFn>
  Lookup getOrCompute(const std::string &Key, ComputeFn &&Compute) {
    std::shared_ptr<Flight> F;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      auto It = Map.find(Key);
      if (It != Map.end()) {
        Lru.splice(Lru.begin(), Lru, It->second.LruIt);
        ++Stats.Hits;
        bump(Instr.Hits);
        return {It->second.Value, /*Hit=*/true, /*Shared=*/false};
      }
      auto FIt = InFlight.find(Key);
      if (FIt != InFlight.end()) {
        F = FIt->second;
        ++Stats.SharedFlights;
        bump(Instr.Shared);
        // The wait is where followers spend their stage time; a named
        // span lets a trace show the collapse instead of a hang.
        std::optional<obs::TraceSpan> Wait;
        if (Instr.WaitSpan)
          Wait.emplace(Instr.WaitSpan, "cache");
        F->Cv.wait(Lock, [&] { return F->Done; });
        Lock.unlock(); // the span records after the memo lock is free
        return {F->Value, /*Hit=*/false, /*Shared=*/true};
      }
      F = std::make_shared<Flight>();
      InFlight.emplace(Key, F);
      ++Stats.Misses;
      bump(Instr.Misses);
    }

    ValuePtr Value = Compute();

    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Value) {
        Lru.push_front(Key);
        Map[Key] = {Value, Lru.begin()};
        while (Capacity > 0 && Map.size() > Capacity) {
          Map.erase(Lru.back());
          Lru.pop_back();
          ++Stats.Evictions;
          bump(Instr.Evictions);
        }
      }
      F->Value = Value;
      F->Done = true;
      InFlight.erase(Key);
    }
    F->Cv.notify_all();
    return {Value, /*Hit=*/false, /*Shared=*/false};
  }

  /// Non-computing probe: touches neither the counters nor recency.
  ValuePtr peek(const std::string &Key) const {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    return It == Map.end() ? nullptr : It->second.Value;
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> Lock(Mu);
    CacheStats S = Stats;
    S.Entries = Map.size();
    return S;
  }

private:
  /// One leader's computation in progress; guarded by Mu.
  struct Flight {
    std::condition_variable Cv;
    bool Done = false;
    ValuePtr Value;
  };
  struct Entry {
    ValuePtr Value;
    std::list<std::string>::iterator LruIt;
  };

  static void bump(obs::Counter *C) {
    if (C)
      C->inc();
  }

  const size_t Capacity;
  const Instruments Instr;

  mutable std::mutex Mu;
  /// Most recently used first; entries hold iterators into it.
  std::list<std::string> Lru;
  std::unordered_map<std::string, Entry> Map;
  std::unordered_map<std::string, std::shared_ptr<Flight>> InFlight;
  CacheStats Stats; ///< Entries is filled in by stats()
};

} // namespace cdvs

#endif // CDVS_SERVICE_SINGLEFLIGHT_H
