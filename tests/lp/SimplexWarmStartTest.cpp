//===- tests/lp/SimplexWarmStartTest.cpp - warm-start cross-checks --------===//
//
// Property tests for SimplexEngine: a warm re-solve after bound changes
// must agree with a cold solve of the same problem — same status, same
// objective — on randomized instances and bound-change sequences. Also
// covers the basis export/import roundtrip and warm infeasibility
// detection.
//
//===----------------------------------------------------------------------===//

#include "../common/RandomMilp.h"
#include "lp/SimplexSolver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

#include <cmath>

using namespace cdvs;
using testutil::makeModeAssignment;
using testutil::makeRandomLp;

namespace {

/// Solves P cold and compares against the engine's (usually warm) view.
void expectMatchesCold(SimplexEngine &Engine) {
  LpSolution Warm = Engine.solve();
  LpSolution Cold = solveLp(Engine.problem());
  ASSERT_EQ(Warm.Status, Cold.Status)
      << "warm " << lpStatusName(Warm.Status) << " vs cold "
      << lpStatusName(Cold.Status);
  if (Warm.Status == LpStatus::Optimal) {
    EXPECT_NEAR(Warm.Objective, Cold.Objective,
                1e-6 * (1.0 + std::fabs(Cold.Objective)));
    EXPECT_TRUE(Engine.problem().isFeasible(Warm.X, 1e-5));
  }
}

TEST(SimplexWarmStart, RandomBoundChangesMatchColdSolve) {
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    Rng R(1000 + Seed);
    int Vars = 6 + static_cast<int>(R.nextBelow(20));
    int Rows = 3 + static_cast<int>(R.nextBelow(12));
    LpProblem P = makeRandomLp(Vars, Rows, 77 * Seed + 3);
    SimplexEngine Engine(P);
    expectMatchesCold(Engine);
    for (int Step = 0; Step < 12; ++Step) {
      int V = static_cast<int>(R.nextBelow(Vars));
      double Ub = P.upperBound(V);
      switch (R.nextBelow(3)) {
      case 0: // tighten the upper bound
        Engine.setBounds(V, 0.0, R.nextDouble() * Ub);
        break;
      case 1: // fix to a point
        Engine.setBounds(V, 0.5 * Ub, 0.5 * Ub);
        break;
      default: // restore the original box
        Engine.setBounds(V, 0.0, Ub);
        break;
      }
      expectMatchesCold(Engine);
    }
    EXPECT_GT(Engine.warmSolves(), 0) << "warm path never exercised";
  }
}

TEST(SimplexWarmStart, BranchingStyleFixingsMatchColdSolve) {
  // The branch-and-bound's access pattern: fix SOS1 binaries to 0/1,
  // solve, relax, fix others.
  for (uint64_t Seed = 0; Seed < 10; ++Seed) {
    auto C = makeModeAssignment(8, 0.15, 500 + Seed);
    Rng R(Seed);
    SimplexEngine Engine(C.P);
    expectMatchesCold(Engine);
    for (int Step = 0; Step < 16; ++Step) {
      int V = C.Integers[R.nextBelow(C.Integers.size())];
      switch (R.nextBelow(3)) {
      case 0:
        Engine.setBounds(V, 0.0, 0.0);
        break;
      case 1:
        Engine.setBounds(V, 1.0, 1.0);
        break;
      default:
        Engine.setBounds(V, 0.0, 1.0);
        break;
      }
      expectMatchesCold(Engine);
    }
  }
}

TEST(SimplexWarmStart, DetectsInfeasibilityWarm) {
  // x0 + x1 = 1 with both variables fixed at zero is infeasible; the
  // warm dual simplex must report it just like the cold phase 1 does.
  LpProblem P;
  int X0 = P.addVariable(0.0, 1.0, 1.0);
  int X1 = P.addVariable(0.0, 1.0, 2.0);
  P.addRow(RowSense::EQ, 1.0, {{X0, 1.0}, {X1, 1.0}});
  SimplexEngine Engine(P);
  ASSERT_EQ(Engine.solve().Status, LpStatus::Optimal);
  Engine.setBounds(X0, 0.0, 0.0);
  Engine.setBounds(X1, 0.0, 0.0);
  EXPECT_EQ(Engine.solve().Status, LpStatus::Infeasible);
  // Relaxing again must recover.
  Engine.setBounds(X0, 0.0, 1.0);
  LpSolution S = Engine.solve();
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Objective, 1.0, 1e-9);
}

TEST(SimplexWarmStart, BasisRoundTripSeedsAnotherEngine) {
  LpProblem P = makeRandomLp(12, 6, 99);
  SimplexEngine A(P);
  LpSolution SA = A.solve();
  ASSERT_EQ(SA.Status, LpStatus::Optimal);
  SimplexBasis B;
  A.exportBasis(B);
  ASSERT_FALSE(B.empty());

  SimplexEngine C(P);
  ASSERT_TRUE(C.loadBasis(B));
  LpSolution SC = C.solve();
  ASSERT_EQ(SC.Status, LpStatus::Optimal);
  EXPECT_NEAR(SC.Objective, SA.Objective,
              1e-8 * (1.0 + std::fabs(SA.Objective)));
  // The loaded basis is already optimal: the warm solve needs no cold
  // fallback.
  EXPECT_EQ(C.coldSolves(), 0);
  EXPECT_EQ(C.warmSolves(), 1);
}

TEST(SimplexWarmStart, LoadedBasisKeepsItsColumns) {
  // Regression: the rebuild pivoted each basic column on the row it was
  // basic in, where the raw matrix can hold a zero, and silently swapped
  // in other columns. Re-entering an optimal basis must keep the basic
  // set, so the warm solve that follows needs no pivot at all.
  for (unsigned Seed = 1; Seed <= 20; ++Seed) {
    LpProblem P = makeRandomLp(12, 6, Seed);
    SimplexBasis B;
    LpSolution Cold = SimplexSolver(P).solve(B);
    if (Cold.Status != LpStatus::Optimal)
      continue;
    SimplexEngine E(P);
    ASSERT_TRUE(E.loadBasis(B)) << "seed " << Seed;
    SimplexBasis Loaded;
    E.exportBasis(Loaded);
    std::vector<int> Want = B.BasisOfRow, Got = Loaded.BasisOfRow;
    std::sort(Want.begin(), Want.end());
    std::sort(Got.begin(), Got.end());
    EXPECT_EQ(Got, Want) << "seed " << Seed;
    LpSolution Warm = E.solve();
    ASSERT_EQ(Warm.Status, LpStatus::Optimal) << "seed " << Seed;
    EXPECT_EQ(Warm.Iterations, 0) << "seed " << Seed;
  }
}

TEST(SimplexWarmStart, SolverExportsBasisThatReenters) {
  LpProblem P = makeRandomLp(10, 5, 123);
  SimplexBasis B;
  SimplexSolver S(P);
  LpSolution Sol = S.solve(B);
  ASSERT_EQ(Sol.Status, LpStatus::Optimal);
  ASSERT_FALSE(B.empty());
  SimplexEngine E(P);
  ASSERT_TRUE(E.loadBasis(B));
  LpSolution Warm = E.solve();
  ASSERT_EQ(Warm.Status, LpStatus::Optimal);
  EXPECT_NEAR(Warm.Objective, Sol.Objective,
              1e-8 * (1.0 + std::fabs(Sol.Objective)));
}

} // namespace
