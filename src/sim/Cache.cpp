//===- sim/Cache.cpp - Set-associative LRU cache model --------------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"

#include <algorithm>
#include <cassert>

using namespace cdvs;

static bool isPowerOfTwo(uint64_t X) { return X != 0 && (X & (X - 1)) == 0; }

Cache::Cache(CacheConfig InConfig) : Config(InConfig) {
  assert(Config.BlockBytes > 0 && isPowerOfTwo(Config.BlockBytes) &&
         "block size must be a power of two");
  assert(Config.Ways > 0 && "need at least one way");
  size_t NumSets =
      Config.SizeBytes / (static_cast<size_t>(Config.Ways) *
                          static_cast<size_t>(Config.BlockBytes));
  assert(NumSets > 0 && isPowerOfTwo(NumSets) &&
         "sets must be a nonzero power of two");
  Tags.assign(NumSets * Config.Ways, 0);
  Fill.assign(NumSets, 0);
  SetMask = NumSets - 1;
  BlockShift = 0;
  while ((1 << BlockShift) < Config.BlockBytes)
    ++BlockShift;
}

bool Cache::access(uint64_t Addr) {
  uint64_t Block = Addr >> BlockShift; // full block id as tag
  size_t Set = Block & SetMask;
  uint64_t *First = &Tags[Set * Config.Ways];
  int &Used = Fill[Set];
  uint64_t *Last = First + Used;
  uint64_t *It = std::find(First, Last, Block);
  bool Hit = It != Last;
  if (Hit) {
    ++Hits;
  } else {
    ++Misses;
    // Fill an empty way, or evict the LRU block at the back.
    if (Used < Config.Ways)
      ++Used;
    It = First + Used - 1;
  }
  // Move to front (most recently used).
  std::copy_backward(First, It, It + 1);
  *First = Block;
  return Hit;
}

void Cache::reset() {
  std::fill(Fill.begin(), Fill.end(), 0);
  Hits = 0;
  Misses = 0;
}
