//===- support/ThreadPool.cpp - Fork/join worker pool ---------------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>

using namespace cdvs;

int cdvs::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : static_cast<int>(N);
}

int cdvs::resolveThreads(int Requested) {
  if (Requested <= 0)
    return hardwareThreads();
  return Requested;
}

void cdvs::runOnWorkers(int NumThreads,
                        const std::function<void(int)> &Body) {
  if (NumThreads <= 1) {
    Body(0);
    return;
  }
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads - 1);
  for (int W = 1; W < NumThreads; ++W)
    Threads.emplace_back([&Body, W] { Body(W); });
  Body(0);
  for (std::thread &T : Threads)
    T.join();
}

void cdvs::parallelFor(int End, int NumThreads,
                       const std::function<void(int)> &Body) {
  int Workers = std::min(resolveThreads(NumThreads), End < 1 ? 1 : End);
  if (Workers <= 1) {
    for (int I = 0; I < End; ++I)
      Body(I);
    return;
  }
  std::atomic<int> Next{0};
  runOnWorkers(Workers, [&](int) {
    for (;;) {
      int I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= End)
        return;
      Body(I);
    }
  });
}
