//===- sim/Cache.h - Set-associative LRU cache model -------------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic set-associative LRU cache used for the L1 data cache and the
/// unified L2 of the profiling simulator (the paper's Table 2 uses
/// 64 KB 4-way 32 B-block L1s and a 512 KB 4-way 32 B-block L2).
/// Timing lives in the simulator; this class tracks only hit/miss state.
/// The sets share one flat tag array (Ways slots per set, most recently
/// used first) with a fill count per set, so a lookup touches one
/// contiguous run of tags and the cache allocates once.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_SIM_CACHE_H
#define CDVS_SIM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cdvs {

/// Geometry of one cache level.
struct CacheConfig {
  size_t SizeBytes = 64 * 1024;
  int Ways = 4;
  int BlockBytes = 32;
};

/// Set-associative LRU cache.
class Cache {
public:
  explicit Cache(CacheConfig Config);

  /// Looks up \p Addr; on a miss the block is filled (LRU evicted).
  /// \returns true on hit.
  bool access(uint64_t Addr);

  /// Invalidates all contents and clears statistics.
  void reset();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  size_t numSets() const { return Fill.size(); }
  const CacheConfig &config() const { return Config; }

private:
  CacheConfig Config;
  /// Set S owns Tags[S * Ways, S * Ways + Fill[S]), in LRU order: the
  /// front is the most recently used block.
  std::vector<uint64_t> Tags;
  std::vector<int> Fill;
  uint64_t SetMask = 0;
  int BlockShift = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace cdvs

#endif // CDVS_SIM_CACHE_H
