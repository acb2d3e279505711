//===- support/ThreadPool.h - Fork/join worker pool -------------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fork/join pool for the solver stack: run the same worker
/// function on N threads (the caller doubles as worker 0) and join.
/// Scheduling policy — e.g. the branch-and-bound's work-stealing node
/// deques — lives with the caller; this file only owns thread lifetime,
/// so it stays reusable for the bench drivers' independent-point sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_SUPPORT_THREADPOOL_H
#define CDVS_SUPPORT_THREADPOOL_H

#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cdvs {

/// \returns the number of hardware threads, always at least 1.
int hardwareThreads();

/// Resolves a user thread-count knob: \p Requested <= 0 means "one per
/// hardware core"; anything else is clamped to at least 1.
int resolveThreads(int Requested);

/// Fork/join pool: runs \p Body as Body(WorkerIndex) on \p NumThreads
/// workers concurrently and returns when all have finished. Worker 0 runs
/// on the calling thread, so NumThreads == 1 spawns nothing and is an
/// ordinary call. \p Body must not throw.
void runOnWorkers(int NumThreads, const std::function<void(int)> &Body);

/// Dynamic parallel-for over [0, End): workers pull the next index from a
/// shared counter, so uneven per-index costs (e.g. MILP solves at
/// different deadlines) balance automatically. Runs on
/// resolveThreads(NumThreads) workers; \p Body must not throw and must
/// synchronize any shared writes itself (writing to distinct slots of a
/// pre-sized vector is safe).
void parallelFor(int End, int NumThreads,
                 const std::function<void(int)> &Body);

/// Per-worker LIFO deques with front-stealing — the scheduling policy of
/// the branch-and-bound extracted so any owner of worker loops can reuse
/// it and so the steal traffic is observable. Each worker pushes and
/// pops at the back of its own deque (depth-first; the hot path stays on
/// one worker, which is what keeps warm-started LP bases relevant) while
/// idle workers steal from the FRONT of a victim's deque (the
/// shallowest, largest subtrees). Mutex-per-deque: contention is one
/// cache line per steal attempt, and the owner's uncontended
/// lock/unlock pair is a few nanoseconds.
template <typename T> class WorkStealingDeques {
public:
  explicit WorkStealingDeques(int NumWorkers)
      : Deques(static_cast<size_t>(NumWorkers < 1 ? 1 : NumWorkers)) {}

  int numWorkers() const { return static_cast<int>(Deques.size()); }

  /// Pushes \p Item onto \p Worker's own deque (LIFO end).
  void push(int Worker, T Item) {
    Deque &D = Deques[Worker];
    std::lock_guard<std::mutex> Lock(D.Mu);
    D.Q.push_back(std::move(Item));
    size_t Depth = D.Q.size();
    size_t Peak = PeakDepth.load(std::memory_order_relaxed);
    while (Depth > Peak &&
           !PeakDepth.compare_exchange_weak(Peak, Depth,
                                            std::memory_order_relaxed))
      ;
  }

  /// Pops \p Worker's newest item, or steals another worker's oldest.
  /// \returns false when every deque is empty (the caller decides
  /// whether that means "done" or "spin").
  bool tryPop(int Worker, T &Out) {
    {
      Deque &D = Deques[Worker];
      std::lock_guard<std::mutex> Lock(D.Mu);
      if (!D.Q.empty()) {
        Out = std::move(D.Q.back());
        D.Q.pop_back();
        return true;
      }
    }
    int N = numWorkers();
    for (int Off = 1; Off < N; ++Off) {
      Deque &V = Deques[(Worker + Off) % N];
      std::lock_guard<std::mutex> Lock(V.Mu);
      if (!V.Q.empty()) {
        Out = std::move(V.Q.front());
        V.Q.pop_front();
        Steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Items taken from a deque their owner did not push them to.
  long steals() const { return Steals.load(std::memory_order_relaxed); }
  /// Deepest any single deque has been.
  size_t peakDepth() const {
    return PeakDepth.load(std::memory_order_relaxed);
  }

private:
  struct Deque {
    std::mutex Mu;
    std::deque<T> Q;
  };
  std::deque<Deque> Deques; ///< deque: Deque holds a mutex, is immovable
  std::atomic<long> Steals{0};
  std::atomic<size_t> PeakDepth{0};
};

} // namespace cdvs

#endif // CDVS_SUPPORT_THREADPOOL_H
