//===- tests/sim/LaneTest.cpp - multi-lane passes equal solo runs ---------===//
//
// Simulator::runLanes times every level of a table in one functional
// pass. Each lane must equal its level run alone, bit for bit. The golden
// record pins the bundled workloads; these cases reach the paths no
// bundled workload does: the I-cache (its fetch charge and DRAM wait are
// per lane), the instruction cap, a CondBr whose two successor slots name
// one block, and a 13-level table. One pass of N lanes counts N runs.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "workloads/Workloads.h"

#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace cdvs;

namespace {

uint64_t bits(double V) {
  uint64_t B = 0;
  std::memcpy(&B, &V, sizeof B);
  return B;
}

std::vector<uint64_t> bits(const std::vector<double> &Vs) {
  std::vector<uint64_t> Out;
  for (double V : Vs)
    Out.push_back(bits(V));
  return Out;
}

void expectBitIdentical(const RunStats &Lane, const RunStats &Solo) {
  EXPECT_EQ(Lane.Completed, Solo.Completed);
  EXPECT_EQ(bits(Lane.TimeSeconds), bits(Solo.TimeSeconds));
  EXPECT_EQ(bits(Lane.EnergyJoules), bits(Solo.EnergyJoules));
  EXPECT_EQ(Lane.Instructions, Solo.Instructions);
  EXPECT_EQ(Lane.Loads, Solo.Loads);
  EXPECT_EQ(Lane.Stores, Solo.Stores);
  EXPECT_EQ(Lane.L1DMisses, Solo.L1DMisses);
  EXPECT_EQ(Lane.L1IMisses, Solo.L1IMisses);
  EXPECT_EQ(Lane.L2Misses, Solo.L2Misses);
  EXPECT_EQ(Lane.BlockExecs, Solo.BlockExecs);
  EXPECT_EQ(bits(Lane.BlockTimeSeconds), bits(Solo.BlockTimeSeconds));
  EXPECT_EQ(bits(Lane.BlockEnergyJoules), bits(Solo.BlockEnergyJoules));
  EXPECT_EQ(Lane.EdgeCounts, Solo.EdgeCounts);
  EXPECT_EQ(Lane.PathCounts, Solo.PathCounts);
  EXPECT_EQ(Lane.QuadCounts, Solo.QuadCounts);
  EXPECT_EQ(Lane.Transitions, Solo.Transitions);
  EXPECT_EQ(bits(Lane.TransitionSeconds), bits(Solo.TransitionSeconds));
  EXPECT_EQ(bits(Lane.TransitionJoules), bits(Solo.TransitionJoules));
  EXPECT_EQ(Lane.FinalRegs, Solo.FinalRegs);
  EXPECT_EQ(Lane.NoverlapCycles, Solo.NoverlapCycles);
  EXPECT_EQ(Lane.NdependentCycles, Solo.NdependentCycles);
  EXPECT_EQ(Lane.NcacheCycles, Solo.NcacheCycles);
  EXPECT_EQ(bits(Lane.TinvariantSeconds), bits(Solo.TinvariantSeconds));
  EXPECT_EQ(bits(Lane.GatedSeconds), bits(Solo.GatedSeconds));
}

/// Runs \p Levels as lanes of one pass and each level alone; every lane
/// must match its solo run. \returns the lanes.
std::vector<RunStats> expectLanesMatchSoloRuns(Simulator &Sim,
                                               const ModeTable &Levels) {
  std::vector<RunStats> Lanes = Sim.runLanes(Levels);
  EXPECT_EQ(Lanes.size(), Levels.size());
  for (size_t M = 0; M < Lanes.size(); ++M) {
    SCOPED_TRACE("lane " + std::to_string(M));
    expectBitIdentical(Lanes[M], Sim.runAtLevel(Levels.level(M)));
  }
  return Lanes;
}

TEST(Lanes, ICacheFetchChargesArePerLane) {
  // Small caches so fetches keep missing L1I and, through L2, DRAM.
  Workload W = workloadByName("adpcm");
  SimConfig C;
  C.ModelICache = true;
  C.L1I = {128, 1, 32};
  C.L2 = {4096, 1, 32};
  Simulator Sim(*W.Fn, C);
  W.defaultInput().Setup(Sim);
  std::vector<RunStats> Lanes =
      expectLanesMatchSoloRuns(Sim, ModeTable::xscale3());
  ASSERT_FALSE(Lanes.empty());
  EXPECT_GT(Lanes[0].L1IMisses, 1000u);
  // The fetch's DRAM wait differs by lane: slower clocks hide more of it.
  EXPECT_NE(bits(Lanes[0].GatedSeconds), bits(Lanes[2].GatedSeconds));
}

TEST(Lanes, InstructionCapStopsEveryLane) {
  Workload W = workloadByName("gsm");
  SimConfig C;
  C.MaxInstructions = 123457; // lands mid-block, mid-run
  Simulator Sim(*W.Fn, C);
  W.defaultInput().Setup(Sim);
  for (const RunStats &S :
       expectLanesMatchSoloRuns(Sim, ModeTable::xscale3())) {
    EXPECT_FALSE(S.Completed);
    EXPECT_GE(S.Instructions, C.MaxInstructions);
  }
}

TEST(Lanes, EqualSuccessorSlotsFoldIntoOneEdgeAndPath) {
  // entry -> loop; loop: r1 -= 1, branch on r1's low bit to "join"
  // through either slot; join: loop while r1 != 0, else exit.
  Function F("twin", 8, 64);
  IRBuilder B(F);
  int Entry = B.createBlock("entry");
  int Loop = B.createBlock("loop");
  int Join = B.createBlock("join");
  int Exit = B.createBlock("exit");
  int Other = B.createBlock("other");
  B.setInsertPoint(Entry);
  B.movImm(1, 10);
  B.movImm(2, 1);
  B.jump(Loop);
  B.setInsertPoint(Loop);
  B.sub(1, 1, 2);
  B.and_(3, 1, 2);
  B.condBr(3, Join, Other);
  B.setInsertPoint(Join);
  B.movImm(5, 0);
  B.cmpNe(4, 1, 5);
  B.condBr(4, Loop, Exit);
  B.setInsertPoint(Other);
  B.jump(Join);
  B.setInsertPoint(Exit);
  B.ret();
  Simulator Sim(F);
  // The verifier refuses a CondBr with equal successors, so point the
  // false slot at "join" only after construction: the simulator keeps a
  // reference to F. Both slots of "loop" then count the same edge.
  F.block(Loop).Succs[1] = Join;

  std::vector<RunStats> Lanes =
      expectLanesMatchSoloRuns(Sim, ModeTable::xscale3());
  ASSERT_FALSE(Lanes.empty());
  const RunStats &S = Lanes[0];
  ASSERT_TRUE(S.Completed);
  EXPECT_EQ(S.BlockExecs[Other], 0u);
  EXPECT_EQ(S.EdgeCounts.count({Loop, Other}), 0u);
  EXPECT_EQ(S.EdgeCounts.at({Loop, Join}), 10u);
  EXPECT_EQ(S.PathCounts.at({Entry, Loop, Join}), 1u);
  EXPECT_EQ(S.PathCounts.at({Join, Loop, Join}), 9u);
  EXPECT_EQ(S.QuadCounts.at({Loop, Join, Loop, Join}), 9u);
  uint64_t PathsThroughLoop = 0;
  for (const auto &[P, N] : S.PathCounts)
    if (std::get<1>(P) == Loop)
      PathsThroughLoop += N;
  EXPECT_EQ(PathsThroughLoop, 10u);
}

TEST(Lanes, ThirteenLevels) {
  Workload W = workloadByName("mpg123");
  Simulator Sim(*W.Fn);
  W.defaultInput().Setup(Sim);
  ModeTable Levels =
      ModeTable::evenVoltageLevels(13, 0.7, 1.65, VfModel::paperDefault());
  std::vector<RunStats> Lanes = expectLanesMatchSoloRuns(Sim, Levels);
  ASSERT_EQ(Lanes.size(), 13u);
  for (size_t M = 1; M < Lanes.size(); ++M)
    EXPECT_LT(Lanes[M].TimeSeconds, Lanes[M - 1].TimeSeconds);
}

TEST(Lanes, EachLaneCountsOneRun) {
  obs::Counter &Runs = obs::metrics().counter(
      "cdvs_sim_runs_total", "Simulated executions completed");
  obs::Counter &Insts = obs::metrics().counter(
      "cdvs_sim_instructions_total", "Simulated instructions retired");
  Workload W = workloadByName("ghostscript");
  Simulator Sim(*W.Fn);
  W.defaultInput().Setup(Sim);
  ModeTable Levels =
      ModeTable::evenVoltageLevels(4, 0.7, 1.65, VfModel::paperDefault());
  double Runs0 = Runs.value();
  double Insts0 = Insts.value();
  std::vector<RunStats> Lanes = Sim.runLanes(Levels);
  EXPECT_EQ(Runs.value() - Runs0, 4.0);
  EXPECT_EQ(Insts.value() - Insts0, 4.0 * Lanes[0].Instructions);
  Sim.runAtLevel(Levels.level(0));
  EXPECT_EQ(Runs.value() - Runs0, 5.0);
}

} // namespace
