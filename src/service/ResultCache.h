//===- service/ResultCache.h - Sharded LRU schedule cache -------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content-addressed result store at the heart of the scheduling
/// service: solved schedules keyed by instance fingerprint
/// (milp/Fingerprint.h) in a sharded LRU map, with single-flight
/// deduplication — when N workers ask for the same key concurrently, one
/// becomes the leader and solves while the other N-1 block on the
/// leader's flight and share its result, so N identical requests cost
/// one solve.
///
/// Each shard is a SingleFlight memo (service/SingleFlight.h) bounded
/// to its share of the capacity, whose counters mirror into the
/// shard-labeled cdvs_cache_* registry series. Values are immutable
/// shared_ptrs, so readers never copy the schedule text under a lock.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_SERVICE_RESULTCACHE_H
#define CDVS_SERVICE_RESULTCACHE_H

#include "milp/MilpSolver.h"
#include "service/SingleFlight.h"

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cdvs {

/// An immutable cached solve outcome. Infeasible outcomes are cached
/// too (Feasible = false): infeasibility is as deterministic a property
/// of the instance as the optimal schedule is.
struct CachedSchedule {
  bool Feasible = true;
  std::string Reason; ///< infeasibility explanation when !Feasible
  std::string ScheduleText;
  double PredictedEnergyJoules = 0.0;
  double LowerBoundJoules = 0.0;
  MilpStatus Milp = MilpStatus::Limit;
  double SolveSeconds = 0.0; ///< MILP time of the original solve
  double SerializeSeconds = 0.0; ///< schedule emission time, ditto
  /// Post-solve verification outcome of the original solve: number of
  /// error-severity diagnostics, or -1 when the verify stage did not
  /// run (ServiceOptions::Verify == Off, or an infeasible instance).
  int VerifyErrors = -1;
  std::string VerifyDetail; ///< first error line when VerifyErrors > 0
  double VerifySeconds = 0.0; ///< verify-pass time, ditto

  /// Task-graph extension. Replans == -1 (the default) marks a
  /// single-program entry; every serialization omits the fields below in
  /// that case so pre-graph peer data stays byte-identical. For graph
  /// entries ScheduleText holds `cdvs-taskplan v1` text instead of a
  /// schedule.
  int Replans = -1;
  int ReplansAccepted = 0;
  double StaticEnergyJoules = 0.0;
  double ActualEnergyJoules = 0.0;
  double MakespanSeconds = 0.0;
};

/// Sharded LRU + single-flight store; see the file comment.
class ResultCache {
public:
  /// \p Capacity total entries, split evenly over \p NumShards shards
  /// (each shard keeps at least one entry).
  explicit ResultCache(size_t Capacity, size_t NumShards = 8);

  using Shard = SingleFlight<CachedSchedule>;
  using Lookup = Shard::Lookup;

  /// \returns the cached value for \p Key, computing it with \p Compute
  /// on a miss. Concurrent calls for the same key collapse to one
  /// Compute. A Compute returning nullptr (transient failure) is handed
  /// to its waiters but not stored, so a later request retries.
  template <typename ComputeFn>
  Lookup getOrCompute(const std::string &Key, ComputeFn &&Compute) {
    return shardOf(Key).getOrCompute(Key, std::forward<ComputeFn>(Compute));
  }

  /// Non-computing probe (does not touch hit/miss counters or recency).
  std::shared_ptr<const CachedSchedule> peek(const std::string &Key) const {
    return shardOf(Key).peek(Key);
  }

  CacheStats stats() const;
  size_t capacity() const { return PerShardCap * Shards.size(); }

private:
  Shard &shardOf(const std::string &Key) const {
    return *Shards[std::hash<std::string>{}(Key) % Shards.size()];
  }

  size_t PerShardCap;
  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace cdvs

#endif // CDVS_SERVICE_RESULTCACHE_H
