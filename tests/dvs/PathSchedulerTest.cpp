//===- tests/dvs/PathSchedulerTest.cpp - path-context scheduling ----------===//

#include "dvs/PathScheduler.h"

#include "verify/Verify.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace cdvs;

namespace {

struct Rig {
  Workload W;
  std::unique_ptr<Simulator> Sim;
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Reg = TransitionModel::paperTypical();
  Profile Prof;
  double Deadline = 0.0;

  explicit Rig(const std::string &Name) : W(workloadByName(Name)) {
    Sim = std::make_unique<Simulator>(*W.Fn);
    W.defaultInput().Setup(*Sim);
    Prof = collectProfile(*Sim, Modes);
    Deadline = 0.5 * (Prof.TotalTimeAtMode.front() +
                      Prof.TotalTimeAtMode.back());
  }
};

/// Every answer must pass the MILP certificate and the schedule audit.
void expectAuditClean(const Function &Fn, const Profile &Prof,
                      const ModeTable &Modes, const TransitionModel &Reg,
                      const ScheduleResult &S, double Deadline) {
  ASSERT_TRUE(S.Artifacts) << "path-context solves keep artifacts";
  verify::Audit A = verify::auditScheduleResult(Fn, {{Prof, 1.0}}, Modes,
                                                Reg, S, {Deadline});
  EXPECT_TRUE(A.ok()) << A.R.render();
}

DvsOptions auditedOptions() {
  DvsOptions O;
  O.InitialMode = 2;
  O.KeepArtifacts = true;
  return O;
}

TEST(PathScheduler, MeetsDeadlineAndMatchesPrediction) {
  Rig R("gsm");
  ErrorOr<ScheduleResult> S = schedulePathContext(
      *R.W.Fn, R.Prof, R.Modes, R.Reg, R.Deadline, auditedOptions());
  ASSERT_TRUE(S.hasValue()) << S.message();
  expectAuditClean(*R.W.Fn, R.Prof, R.Modes, R.Reg, *S, R.Deadline);
  RunStats Run = R.Sim->run(R.Modes, S->Assignment, R.Reg);
  EXPECT_LE(Run.TimeSeconds, R.Deadline * 1.0001);
  EXPECT_NEAR(Run.EnergyJoules, S->PredictedEnergyJoules,
              0.03 * Run.EnergyJoules);
}

TEST(PathScheduler, GeneralizesEdgeScheduling) {
  // Every edge-based schedule is expressible with path context, so the
  // path optimum's *prediction* can never be worse than the unfiltered
  // edge optimum's.
  for (const char *Name : {"mpeg_decode", "ghostscript"}) {
    Rig R(Name);
    DvsOptions O = auditedOptions();
    O.FilterThreshold = 0.0; // unfiltered edge baseline
    DvsScheduler Edge(*R.W.Fn, R.Prof, R.Modes, R.Reg, O);
    ErrorOr<ScheduleResult> ER = Edge.schedule(R.Deadline);
    ASSERT_TRUE(ER.hasValue()) << Name << ": " << ER.message();
    ErrorOr<ScheduleResult> PR = schedulePathContext(
        *R.W.Fn, R.Prof, R.Modes, R.Reg, R.Deadline, O);
    ASSERT_TRUE(PR.hasValue()) << Name << ": " << PR.message();
    expectAuditClean(*R.W.Fn, R.Prof, R.Modes, R.Reg, *PR, R.Deadline);
    EXPECT_LE(PR->PredictedEnergyJoules,
              ER->PredictedEnergyJoules * (1.0 + 1e-6))
        << Name;
    // More context, more variables.
    EXPECT_GE(PR->NumIndependentGroups, ER->NumIndependentGroups)
        << Name;
  }
}

TEST(PathScheduler, DumpsTheMilpItSolves) {
  Rig R("gsm");
  DvsOptions O = auditedOptions();
  O.DumpLp = true;
  ErrorOr<ScheduleResult> S = schedulePathContext(
      *R.W.Fn, R.Prof, R.Modes, R.Reg, R.Deadline, O);
  ASSERT_TRUE(S.hasValue()) << S.message();
  EXPECT_NE(S->LpText.find("p_u0_m0"), std::string::npos);
  ASSERT_TRUE(S->Artifacts);
  EXPECT_EQ(S->Artifacts->Problem.numVariables(), S->NumVars);
  EXPECT_EQ(S->Artifacts->Problem.numRows(), S->NumRows);
}

TEST(PathScheduler, InfeasibleDeadlineErrs) {
  Rig R("ghostscript");
  DvsOptions O;
  O.InitialMode = 2;
  ErrorOr<ScheduleResult> S = schedulePathContext(
      *R.W.Fn, R.Prof, R.Modes, R.Reg,
      R.Prof.TotalTimeAtMode.back() * 0.5, O);
  EXPECT_FALSE(S.hasValue());
}

TEST(PathScheduler, AssignmentCarriesPathAndEdgeFallback) {
  Rig R("mpeg_decode");
  ErrorOr<ScheduleResult> S = schedulePathContext(
      *R.W.Fn, R.Prof, R.Modes, R.Reg, R.Deadline, auditedOptions());
  ASSERT_TRUE(S.hasValue()) << S.message();
  expectAuditClean(*R.W.Fn, R.Prof, R.Modes, R.Reg, *S, R.Deadline);
  EXPECT_FALSE(S->Assignment.PathMode.empty());
  // Every CFG edge has a fallback mode (profiled majority or slowest).
  EXPECT_EQ(S->Assignment.EdgeMode.size(), R.W.Fn->edges().size());
  // The fallback agrees with path decisions where the edge has a single
  // profiled context.
  for (const auto &[Path, Mode] : S->Assignment.PathMode) {
    auto [H, I, J] = Path;
    (void)H;
    int Fallback = S->Assignment.EdgeMode.at({I, J});
    EXPECT_GE(Fallback, 0);
    EXPECT_LT(Fallback, static_cast<int>(R.Modes.size()));
    (void)Mode;
  }
}

TEST(PathScheduler, CrossInputRunStillCompletes) {
  // Apply a path schedule from one mpeg input to another: unprofiled
  // contexts fall back to the per-edge majority, so execution is sane.
  Workload W = workloadByName("mpeg_decode");
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Reg = TransitionModel::paperTypical();
  Simulator SimA(*W.Fn);
  W.input("100b").Setup(SimA);
  Profile ProfA = collectProfile(SimA, Modes);
  double Deadline = 0.5 * (ProfA.TotalTimeAtMode.front() +
                           ProfA.TotalTimeAtMode.back());
  ErrorOr<ScheduleResult> S = schedulePathContext(
      *W.Fn, ProfA, Modes, Reg, Deadline, auditedOptions());
  ASSERT_TRUE(S.hasValue()) << S.message();
  expectAuditClean(*W.Fn, ProfA, Modes, Reg, *S, Deadline);

  Simulator SimB(*W.Fn);
  W.input("bbc").Setup(SimB);
  RunStats Run = SimB.run(Modes, S->Assignment, Reg);
  EXPECT_TRUE(Run.Completed);
}

} // namespace
