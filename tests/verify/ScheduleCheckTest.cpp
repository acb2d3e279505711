//===- tests/verify/ScheduleCheckTest.cpp - Schedule legality pass --------===//

#include "verify/ScheduleChecker.h"

#include "dvs/DvsScheduler.h"
#include "dvs/EdgeGroups.h"
#include "dvs/PathScheduler.h"
#include "verify/CertificateChecker.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace cdvs;
using verify::Diagnostic;
using verify::ScheduleCheck;
using verify::ScheduleCheckOptions;
using verify::Severity;

namespace {

/// Everything the legality checker consumes, built once from a real
/// scheduled workload.
struct Fixture {
  std::shared_ptr<Function> Fn;
  std::vector<CategoryProfile> Categories;
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Transitions = TransitionModel::paperTypical();
  ScheduleResult SR;
  double Deadline = 0.0;
  double Filter = 0.02;
};

Fixture makeScheduledGsm() {
  Fixture F;
  Workload W = workloadByName("gsm");
  F.Fn = W.Fn;
  Simulator Sim(*W.Fn);
  W.defaultInput().Setup(Sim);
  Profile P = collectProfile(Sim, F.Modes);
  F.Deadline = 0.5 * (P.TotalTimeAtMode.front() +
                      P.TotalTimeAtMode.back());
  F.Categories.push_back({std::move(P), 1.0});

  DvsOptions O;
  O.FilterThreshold = F.Filter;
  O.InitialMode = static_cast<int>(F.Modes.size()) - 1;
  DvsScheduler Sched(*F.Fn, F.Categories, F.Modes, F.Transitions, O);
  ErrorOr<ScheduleResult> R = Sched.schedule(F.Deadline);
  EXPECT_TRUE(static_cast<bool>(R)) << R.message();
  F.SR = *R;
  return F;
}

ScheduleCheck checkOf(const Fixture &F, const ModeAssignment &A,
                      double ClaimedJoules = -1.0) {
  ScheduleCheckOptions Opts;
  Opts.FilterThreshold = F.Filter;
  Opts.ClaimedEnergyJoules = ClaimedJoules;
  return verify::checkSchedule(*F.Fn, F.Categories, F.Modes,
                               F.Transitions, A, {F.Deadline}, Opts);
}

bool hasError(const ScheduleCheck &C, const std::string &Needle) {
  for (const Diagnostic &D : C.R.diagnostics())
    if (D.Sev == Severity::Error &&
        D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

TEST(ScheduleCheck, SolverOutputIsLegal) {
  Fixture F = makeScheduledGsm();
  ScheduleCheck C =
      checkOf(F, F.SR.Assignment, F.SR.PredictedEnergyJoules);
  EXPECT_TRUE(C.R.ok()) << C.R.render();
  ASSERT_EQ(C.CategoryTimeSeconds.size(), 1u);
  EXPECT_LE(C.CategoryTimeSeconds[0], F.Deadline * (1.0 + 1e-6));
  // The recomputed energy is the MILP objective, independently summed.
  EXPECT_NEAR(C.EnergyJoules, F.SR.PredictedEnergyJoules,
              1e-6 * F.SR.PredictedEnergyJoules);
}

TEST(ScheduleCheck, UniformAssignmentIsLegalViaInheritedModes) {
  // An empty edge map is a valid schedule: the initial mode persists
  // everywhere (silent mode-sets), resolved by the fixpoint.
  Fixture F = makeScheduledGsm();
  ModeAssignment A =
      ModeAssignment::uniform(static_cast<int>(F.Modes.size()) - 1);
  ScheduleCheck C = checkOf(F, A);
  EXPECT_TRUE(C.R.ok()) << C.R.render();
}

TEST(ScheduleCheck, OutOfRangeModeIsAnError) {
  Fixture F = makeScheduledGsm();
  ModeAssignment A = F.SR.Assignment;
  ASSERT_FALSE(A.EdgeMode.empty());
  A.EdgeMode.begin()->second = static_cast<int>(F.Modes.size());
  ScheduleCheck C = checkOf(F, A);
  EXPECT_TRUE(hasError(C, "not in the mode table")) << C.R.render();
}

TEST(ScheduleCheck, NonCfgEdgeAssignmentIsAnError) {
  Fixture F = makeScheduledGsm();
  ModeAssignment A = F.SR.Assignment;
  A.EdgeMode[{97, 98}] = 0;
  ScheduleCheck C = checkOf(F, A);
  EXPECT_TRUE(hasError(C, "not in the CFG")) << C.R.render();
}

TEST(ScheduleCheck, MissedDeadlineIsAnError) {
  // Force every edge to the slowest mode but keep the mid deadline: the
  // recomputed time must exceed it.
  Fixture F = makeScheduledGsm();
  ModeAssignment A = F.SR.Assignment;
  A.InitialMode = 0;
  for (auto &[E, M] : A.EdgeMode)
    M = 0;
  ScheduleCheck C = checkOf(F, A);
  EXPECT_TRUE(hasError(C, "exceeds the deadline")) << C.R.render();
}

TEST(ScheduleCheck, EnergyMismatchAgainstClaimIsAnError) {
  Fixture F = makeScheduledGsm();
  ScheduleCheck C =
      checkOf(F, F.SR.Assignment, F.SR.PredictedEnergyJoules * 1.5);
  EXPECT_TRUE(hasError(C, "claimed objective")) << C.R.render();
}

TEST(ScheduleCheck, SlacksAreRelativeToTheComparedValue) {
  // Joules and seconds are far below 1, so a half-microjoule or
  // half-microsecond miss is a large relative error and must not hide
  // under an absolute slack.
  Fixture F = makeScheduledGsm();
  ScheduleCheck Exact = checkOf(F, F.SR.Assignment);
  ASSERT_TRUE(Exact.R.ok()) << Exact.R.render();
  ScheduleCheck Claim =
      checkOf(F, F.SR.Assignment, Exact.EnergyJoules + 0.5e-6);
  EXPECT_TRUE(hasError(Claim, "claimed objective")) << Claim.R.render();
  F.Deadline = Exact.CategoryTimeSeconds[0] - 0.5e-6;
  ScheduleCheck Late = checkOf(F, F.SR.Assignment);
  EXPECT_TRUE(hasError(Late, "exceeds the deadline")) << Late.R.render();
}

TEST(ScheduleCheck, PathContextScheduleIsChargedPerPath) {
  // Path-context modes are charged per local path and switches per
  // 4-gram, as the simulator runs them; first-order edge contexts miss
  // a switch on this schedule.
  Fixture F = makeScheduledGsm();
  Workload W = workloadByName("gsm");
  DvsOptions O;
  O.InitialMode = static_cast<int>(F.Modes.size()) - 1;
  O.Milp.NumThreads = 1;
  O.KeepArtifacts = true;
  ErrorOr<ScheduleResult> R =
      schedulePathContext(*F.Fn, F.Categories[0].Data, F.Modes,
                          F.Transitions, F.Deadline, O);
  ASSERT_TRUE(R.hasValue()) << R.message();
  ASSERT_FALSE(R->Assignment.PathMode.empty());
  verify::Certificate Cert =
      verify::checkCertificate(R->Artifacts->Problem,
                               R->Artifacts->IntegerVars,
                               R->Artifacts->Solution);
  EXPECT_TRUE(Cert.R.ok()) << Cert.R.render();
  F.Filter = 0.0; // path schedules ignore the edge filter
  ScheduleCheck C = checkOf(F, R->Assignment, R->PredictedEnergyJoules);
  EXPECT_TRUE(C.R.ok()) << C.R.render();
  Simulator Sim(*W.Fn);
  W.defaultInput().Setup(Sim);
  RunStats Run = Sim.run(F.Modes, R->Assignment, F.Transitions);
  EXPECT_NEAR(C.EnergyJoules, Run.EnergyJoules, 1e-9 * Run.EnergyJoules);
}

TEST(ScheduleCheck, FilteredGroupModeSwitchIsAnError) {
  // Find a filter group with at least two member edges and split their
  // modes: the Section 5.2 soundness condition must flag it.
  Fixture F = makeScheduledGsm();
  EdgeGroups G = computeEdgeGroups(*F.Fn, F.Categories, F.Filter);
  int TargetGroup = -1;
  std::vector<int> Members;
  for (int Grp = 0; Grp < G.NumGroups && TargetGroup < 0; ++Grp) {
    Members.clear();
    for (size_t E = 0; E < G.Edges.size(); ++E)
      if (G.GroupOf[E] == Grp && G.Edges[E].From != -1)
        Members.push_back(static_cast<int>(E));
    if (Members.size() >= 2)
      TargetGroup = Grp;
  }
  ASSERT_GE(TargetGroup, 0)
      << "expected the 2% filter to tie at least one edge pair on gsm";

  ModeAssignment A = F.SR.Assignment;
  const CfgEdge &E0 = G.Edges[Members[0]];
  const CfgEdge &E1 = G.Edges[Members[1]];
  int M = A.EdgeMode.count(E0) ? A.EdgeMode[E0] : A.InitialMode;
  A.EdgeMode[E0] = M;
  A.EdgeMode[E1] = (M + 1) % static_cast<int>(F.Modes.size());
  ScheduleCheck C = checkOf(F, A);
  EXPECT_TRUE(hasError(C, "filtered edge carries a mode switch"))
      << C.R.render();
}

} // namespace
