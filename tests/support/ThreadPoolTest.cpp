//===- tests/support/ThreadPoolTest.cpp - worker counts + stealing deques -===//
//
// The thread-count knob's "0 means one per core" rule and the
// work-stealing deques the branch-and-bound schedules its nodes on.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>

using namespace cdvs;

namespace {

TEST(ThreadCount, ZeroMeansOnePerCore) {
  EXPECT_GE(hardwareThreads(), 1);
  EXPECT_EQ(resolveThreads(0), hardwareThreads());
  EXPECT_EQ(resolveThreads(-3), hardwareThreads());
  EXPECT_EQ(resolveThreads(3), 3);
}

TEST(WorkStealingDeques, OwnPopIsLifo) {
  WorkStealingDeques<int> D(2);
  D.push(0, 1);
  D.push(0, 2);
  D.push(0, 3);
  int Out = 0;
  ASSERT_TRUE(D.tryPop(0, Out));
  EXPECT_EQ(Out, 3); // newest first: depth-first traversal
  ASSERT_TRUE(D.tryPop(0, Out));
  EXPECT_EQ(Out, 2);
  EXPECT_EQ(D.steals(), 0); // own pops are not steals
}

TEST(WorkStealingDeques, StealsTakeTheVictimsOldest) {
  WorkStealingDeques<int> D(2);
  D.push(0, 1);
  D.push(0, 2);
  D.push(0, 3);
  int Out = 0;
  // Worker 1 has nothing; it must steal worker 0's OLDEST item (the
  // shallowest, largest subtree in B&B terms).
  ASSERT_TRUE(D.tryPop(1, Out));
  EXPECT_EQ(Out, 1);
  EXPECT_EQ(D.steals(), 1);
  ASSERT_TRUE(D.tryPop(1, Out));
  EXPECT_EQ(Out, 2);
  EXPECT_EQ(D.steals(), 2);
  // Owner still holds its newest.
  ASSERT_TRUE(D.tryPop(0, Out));
  EXPECT_EQ(Out, 3);
  EXPECT_EQ(D.steals(), 2);
  EXPECT_FALSE(D.tryPop(0, Out));
  EXPECT_FALSE(D.tryPop(1, Out));
}

TEST(WorkStealingDeques, PeakDepthTracksTheDeepestDeque) {
  WorkStealingDeques<int> D(3);
  for (int I = 0; I < 5; ++I)
    D.push(1, I);
  D.push(0, 99);
  EXPECT_EQ(D.peakDepth(), 5u);
  int Out = 0;
  while (D.tryPop(1, Out))
    ;
  EXPECT_EQ(D.peakDepth(), 5u); // peak is monotone
}

TEST(WorkStealingDeques, ConcurrentProducersAndThievesLoseNothing) {
  // Regression for the steal counter: total items popped across all
  // workers must equal items pushed, and steals must be counted exactly
  // for pops from foreign deques.
  constexpr int Workers = 4, PerWorker = 2000;
  WorkStealingDeques<int> D(Workers);
  std::atomic<long> Popped{0};
  std::vector<std::thread> Ts;
  for (int W = 0; W < Workers; ++W)
    Ts.emplace_back([&D, &Popped, W] {
      for (int I = 0; I < PerWorker; ++I)
        D.push(W, I);
      int Out = 0;
      while (D.tryPop(W, Out))
        Popped.fetch_add(1);
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Popped.load(), long(Workers) * PerWorker);
  EXPECT_GE(D.steals(), 0);
  EXPECT_LE(D.steals(), long(Workers) * PerWorker);
  EXPECT_GE(D.peakDepth(), 1u);
}

} // namespace
