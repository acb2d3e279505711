//===- service/ResultCache.cpp - Sharded LRU schedule cache ----------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/ResultCache.h"

using namespace cdvs;

ResultCache::ResultCache(size_t Capacity, size_t NumShards) {
  if (NumShards == 0)
    NumShards = 1;
  PerShardCap = Capacity / NumShards;
  if (PerShardCap == 0)
    PerShardCap = 1;
  Shards.reserve(NumShards);
  for (size_t I = 0; I < NumShards; ++I) {
    obs::Labels L{{"shard", std::to_string(I)}};
    Shard::Instruments In;
    In.WaitSpan = "cache_wait";
    In.Hits = &obs::metrics().counter(
        "cdvs_cache_hits_total", "Result-cache lookups served from the store", L);
    In.Misses = &obs::metrics().counter(
        "cdvs_cache_misses_total",
        "Result-cache lookups that led a fresh solve", L);
    In.Shared = &obs::metrics().counter(
        "cdvs_cache_shared_flights_total",
        "Lookups that waited on another request's in-flight solve", L);
    In.Evictions = &obs::metrics().counter(
        "cdvs_cache_evictions_total", "LRU entries displaced", L);
    Shards.push_back(std::make_unique<Shard>(PerShardCap, In));
  }
}

CacheStats ResultCache::stats() const {
  CacheStats Total;
  for (const auto &S : Shards) {
    CacheStats One = S->stats();
    Total.Hits += One.Hits;
    Total.Misses += One.Misses;
    Total.SharedFlights += One.SharedFlights;
    Total.Evictions += One.Evictions;
    Total.Entries += One.Entries;
  }
  return Total;
}
