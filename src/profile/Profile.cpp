//===- profile/Profile.cpp - Profiles feeding the DVS MILP ----------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "profile/Profile.h"

#include <cassert>

using namespace cdvs;

Profile cdvs::collectProfile(Simulator &Sim, const ModeTable &Modes,
                             int ReferenceMode) {
  const int NumModes = static_cast<int>(Modes.size());
  if (ReferenceMode < 0)
    ReferenceMode = NumModes - 1; // fastest
  assert(ReferenceMode < NumModes && "reference mode out of range");

  Profile P;
  P.NumBlocks = Sim.function().numBlocks();
  P.NumModes = NumModes;
  P.TimePerInvocation.assign(P.NumBlocks,
                             std::vector<double>(NumModes, 0.0));
  P.EnergyPerInvocation.assign(P.NumBlocks,
                               std::vector<double>(NumModes, 0.0));
  P.TotalTimeAtMode.assign(NumModes, 0.0);
  P.TotalEnergyAtMode.assign(NumModes, 0.0);

  // One functional pass times every mode: control flow is mode-invariant
  // (paper assumption 1) by construction, not by a check.
  std::vector<RunStats> Runs = Sim.runLanes(Modes);
  for (int M = 0; M < NumModes; ++M) {
    const RunStats &S = Runs[M];
    assert(S.Completed && "profiling run hit the instruction cap");
    P.TotalTimeAtMode[M] = S.TimeSeconds;
    P.TotalEnergyAtMode[M] = S.EnergyJoules;
    for (int B = 0; B < P.NumBlocks; ++B) {
      if (S.BlockExecs[B] == 0)
        continue;
      double Execs = static_cast<double>(S.BlockExecs[B]);
      P.TimePerInvocation[B][M] = S.BlockTimeSeconds[B] / Execs;
      P.EnergyPerInvocation[B][M] = S.BlockEnergyJoules[B] / Execs;
    }
  }
  RunStats &Ref = Runs[ReferenceMode];
  P.BlockExecs = Ref.BlockExecs;
  P.EdgeCounts = Ref.EdgeCounts;
  P.PathCounts = Ref.PathCounts;
  P.Reference = std::move(Ref);
  return P;
}
