//===- tests/dvs/DvsSchedulerTest.cpp - MILP DVS scheduling ---------------===//

#include "dvs/DvsScheduler.h"

#include "ir/IRBuilder.h"
#include "verify/Verify.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace cdvs;

namespace {

/// Two-phase program: a compute-bound loop followed by a memory-bound
/// loop streaming a large buffer. The classic compile-time DVS win is to
/// run the memory phase slow and the compute phase fast.
std::shared_ptr<Function> makeTwoPhase() {
  auto Fn = std::make_shared<Function>("two_phase", 16, 1024 * 1024);
  IRBuilder B(*Fn);
  int Entry = B.createBlock("entry");
  int CHead = B.createBlock("compute_head");
  int CBody = B.createBlock("compute_body");
  int MHead = B.createBlock("mem_head");
  int MBody = B.createBlock("mem_body");
  int Exit = B.createBlock("exit");

  B.setInsertPoint(Entry);
  B.movImm(1, 0);     // i
  B.movImm(2, 6000);  // compute trips
  B.movImm(3, 1);
  B.movImm(4, 0);     // acc
  B.movImm(10, 12000);// memory trips
  B.movImm(11, 0);    // membase
  B.movImm(12, 2);
  B.jump(CHead);

  B.setInsertPoint(CHead);
  B.cmpLt(5, 1, 2);
  B.condBr(5, CBody, MHead);

  B.setInsertPoint(CBody);
  B.mul(4, 4, 3);
  B.add(4, 4, 1);
  B.mul(6, 4, 4);
  B.shr(4, 6, 3);
  B.add(1, 1, 3);
  B.jump(CHead);

  B.setInsertPoint(MHead);
  B.movImm(1, 0);
  B.cmpLt(5, 1, 10);
  B.condBr(5, MBody, Exit);

  B.setInsertPoint(MBody);
  // Streaming loads over ~768 KB: addr = i * 16 words * 4 B = i * 64.
  B.movImm(7, 16);
  B.mul(6, 1, 7);
  B.shl(6, 6, 12); // reg 12 holds 2: words -> bytes
  B.add(6, 6, 11);
  B.load(8, 6, 0);
  B.add(4, 4, 8);
  B.add(1, 1, 3);
  B.cmpLt(5, 1, 10);
  B.condBr(5, MBody, Exit);

  B.setInsertPoint(Exit);
  B.ret();
  return Fn;
}

struct Pipeline {
  std::shared_ptr<Function> Fn;
  std::unique_ptr<Simulator> Sim;
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Regulator = TransitionModel::paperTypical();
  Profile Prof;

  explicit Pipeline(std::shared_ptr<Function> F)
      : Fn(std::move(F)), Sim(std::make_unique<Simulator>(*Fn)) {
    Prof = collectProfile(*Sim, Modes);
  }
};

TEST(DvsScheduler, LaxDeadlineRunsEverythingSlow) {
  Pipeline P(makeTwoPhase());
  double Deadline = P.Prof.TotalTimeAtMode[0] * 1.05;
  DvsScheduler S(*P.Fn, P.Prof, P.Modes, P.Regulator);
  ErrorOr<ScheduleResult> R = S.schedule(Deadline);
  ASSERT_TRUE(R.hasValue()) << R.message();
  RunStats Run = P.Sim->run(P.Modes, R->Assignment, P.Regulator);
  EXPECT_LE(Run.TimeSeconds, Deadline * 1.0001);
  // Energy near the all-slow run (one initial transition allowed).
  EXPECT_LT(Run.EnergyJoules, P.Prof.TotalEnergyAtMode[0] * 1.05 +
                                  2e-6);
}

TEST(DvsScheduler, TightDeadlineRunsFast) {
  Pipeline P(makeTwoPhase());
  double Deadline = P.Prof.TotalTimeAtMode[2] * 1.01;
  DvsOptions O;
  O.InitialMode = 2;
  DvsScheduler S(*P.Fn, P.Prof, P.Modes, P.Regulator, O);
  ErrorOr<ScheduleResult> R = S.schedule(Deadline);
  ASSERT_TRUE(R.hasValue()) << R.message();
  RunStats Run = P.Sim->run(P.Modes, R->Assignment, P.Regulator);
  EXPECT_LE(Run.TimeSeconds, Deadline * 1.0001);
}

TEST(DvsScheduler, InfeasibleDeadlineReportsError) {
  Pipeline P(makeTwoPhase());
  DvsScheduler S(*P.Fn, P.Prof, P.Modes, P.Regulator);
  ErrorOr<ScheduleResult> R =
      S.schedule(P.Prof.TotalTimeAtMode[2] * 0.5);
  EXPECT_FALSE(R.hasValue());
}

TEST(DvsScheduler, MidDeadlineMixesModesAndBeatsSingleFrequency) {
  Pipeline P(makeTwoPhase());
  // Cheap regulator so phase-boundary switches are clearly worthwhile.
  TransitionModel Cheap = TransitionModel::withCapacitance(0.01e-6);
  double Deadline =
      0.5 * (P.Prof.TotalTimeAtMode[0] + P.Prof.TotalTimeAtMode[2]);
  DvsOptions O;
  O.InitialMode = 2;
  DvsScheduler S(*P.Fn, P.Prof, P.Modes, Cheap, O);
  ErrorOr<ScheduleResult> R = S.schedule(Deadline);
  ASSERT_TRUE(R.hasValue()) << R.message();
  RunStats Run = P.Sim->run(P.Modes, R->Assignment, Cheap);
  EXPECT_LE(Run.TimeSeconds, Deadline * 1.0001);

  // Best single mode meeting the deadline.
  double BestSingle = -1.0;
  for (size_t M = 0; M < P.Modes.size(); ++M)
    if (P.Prof.TotalTimeAtMode[M] <= Deadline &&
        (BestSingle < 0.0 ||
         P.Prof.TotalEnergyAtMode[M] < BestSingle))
      BestSingle = P.Prof.TotalEnergyAtMode[M];
  ASSERT_GT(BestSingle, 0.0);
  EXPECT_LT(Run.EnergyJoules, BestSingle);
  EXPECT_GE(Run.Transitions, 1u); // really mixed modes
}

TEST(DvsScheduler, PredictionMatchesRealizedRun) {
  // Profile input == run input, so the MILP's objective must equal the
  // realized energy almost exactly.
  Pipeline P(makeTwoPhase());
  double Deadline =
      0.6 * P.Prof.TotalTimeAtMode[0] + 0.4 * P.Prof.TotalTimeAtMode[2];
  DvsOptions O;
  O.InitialMode = 2;
  DvsScheduler S(*P.Fn, P.Prof, P.Modes, P.Regulator, O);
  ErrorOr<ScheduleResult> R = S.schedule(Deadline);
  ASSERT_TRUE(R.hasValue()) << R.message();
  RunStats Run = P.Sim->run(P.Modes, R->Assignment, P.Regulator);
  EXPECT_NEAR(Run.EnergyJoules, R->PredictedEnergyJoules,
              0.02 * Run.EnergyJoules);
}

TEST(DvsScheduler, FilteringShrinksGroupsWithoutBreakingDeadline) {
  Pipeline P(makeTwoPhase());
  double Deadline =
      0.5 * (P.Prof.TotalTimeAtMode[0] + P.Prof.TotalTimeAtMode[2]);

  DvsOptions NoFilter;
  NoFilter.FilterThreshold = 0.0;
  NoFilter.InitialMode = 2;
  DvsScheduler S1(*P.Fn, P.Prof, P.Modes, P.Regulator, NoFilter);
  ErrorOr<ScheduleResult> R1 = S1.schedule(Deadline);
  ASSERT_TRUE(R1.hasValue()) << R1.message();

  DvsOptions Filter;
  Filter.FilterThreshold = 0.02;
  Filter.InitialMode = 2;
  DvsScheduler S2(*P.Fn, P.Prof, P.Modes, P.Regulator, Filter);
  ErrorOr<ScheduleResult> R2 = S2.schedule(Deadline);
  ASSERT_TRUE(R2.hasValue()) << R2.message();

  EXPECT_LT(R2->NumIndependentGroups, R1->NumIndependentGroups);
  RunStats Run1 = P.Sim->run(P.Modes, R1->Assignment, P.Regulator);
  RunStats Run2 = P.Sim->run(P.Modes, R2->Assignment, P.Regulator);
  EXPECT_LE(Run1.TimeSeconds, Deadline * 1.0001);
  EXPECT_LE(Run2.TimeSeconds, Deadline * 1.0001);
  // The sound ordering is on the MILP objective: filtering restricts
  // the feasible set, so the unfiltered optimum predicts no more
  // energy. Realized energies may deviate slightly in either direction
  // (per-mode profiles average out cross-mode stall interactions) but
  // must stay close (paper Table 3).
  EXPECT_LE(R1->PredictedEnergyJoules,
            R2->PredictedEnergyJoules * (1.0 + 1e-6));
  EXPECT_LE(Run1.EnergyJoules, Run2.EnergyJoules * 1.06);
  EXPECT_LE(Run2.EnergyJoules, Run1.EnergyJoules * 1.10);
}

TEST(DvsScheduler, SilentModeSetsOnBackEdgesAreFree) {
  // A loop edge whose assigned mode equals the loop's mode must cost no
  // transitions at run time.
  Pipeline P(makeTwoPhase());
  double Deadline = P.Prof.TotalTimeAtMode[0] * 1.05;
  DvsOptions O;
  O.InitialMode = 0;
  DvsScheduler S(*P.Fn, P.Prof, P.Modes, P.Regulator, O);
  ErrorOr<ScheduleResult> R = S.schedule(Deadline);
  ASSERT_TRUE(R.hasValue()) << R.message();
  RunStats Run = P.Sim->run(P.Modes, R->Assignment, P.Regulator);
  // All-slow schedule starting slow: zero transitions despite ~36000
  // traversed mode-set edges.
  EXPECT_EQ(Run.Transitions, 0u);
}

TEST(DvsScheduler, MultiCategoryRespectsBothDeadlines) {
  auto Fn = makeTwoPhase();
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Reg = TransitionModel::paperTypical();

  // Two "input categories" from the same program but different inputs:
  // vary the streamed buffer contents (control flow identical, timings
  // identical here — the point is the formulation's plumbing).
  Simulator SimA(*Fn);
  Profile PA = collectProfile(SimA, Modes);
  Simulator SimB(*Fn);
  for (uint64_t A = 0; A < 1024; A += 4)
    SimB.setInitialMem32(A, 7);
  Profile PB = collectProfile(SimB, Modes);

  std::vector<CategoryProfile> Cats = {{PA, 0.5}, {PB, 0.5}};
  DvsOptions O;
  O.InitialMode = 2;
  DvsScheduler S(*Fn, Cats, Modes, Reg, O);
  double DeadA = 0.5 * (PA.TotalTimeAtMode[0] + PA.TotalTimeAtMode[2]);
  double DeadB = PB.TotalTimeAtMode[2] * 1.2;
  ErrorOr<ScheduleResult> R = S.schedule({DeadA, DeadB});
  ASSERT_TRUE(R.hasValue()) << R.message();
  RunStats RunA = SimA.run(Modes, R->Assignment, Reg);
  RunStats RunB = SimB.run(Modes, R->Assignment, Reg);
  EXPECT_LE(RunA.TimeSeconds, DeadA * 1.0001);
  EXPECT_LE(RunB.TimeSeconds, DeadB * 1.0001);
}

/// One bundled workload input's xscale3 profile and the service's
/// deadline at \p Tightness (TFast + t * (TSlow - TFast)).
struct WorkloadRig {
  Workload W;
  std::unique_ptr<Simulator> Sim;
  ModeTable Modes;
  Profile Prof;
  double Deadline = 0.0;

  WorkloadRig(const std::string &Name, const std::string &Input,
              double Tightness, ModeTable InModes = ModeTable::xscale3())
      : W(workloadByName(Name)), Modes(std::move(InModes)) {
    Sim = std::make_unique<Simulator>(*W.Fn);
    W.input(Input).Setup(*Sim);
    Prof = collectProfile(*Sim, Modes);
    Deadline = Prof.TotalTimeAtMode.back() +
               Tightness * (Prof.TotalTimeAtMode.front() -
                            Prof.TotalTimeAtMode.back());
  }
};

TEST(DvsScheduler, UnfilteredScheduleRunsAtItsPredictedEnergy) {
  // Groups with no execution energy that still sit in a transition pair
  // (the edge into the zero-cost exit block) keep the solver's mode, so
  // the run pays exactly the switches the MILP chose.
  TransitionModel Reg = TransitionModel::paperTypical();
  for (auto [Name, Input, Tightness] :
       {std::tuple<const char *, const char *, double>{"adpcm", "clinton",
                                                       0.15},
        {"gsm", "speech1", 0.5}}) {
    WorkloadRig Rig(Name, Input, Tightness);
    DvsOptions O;
    O.FilterThreshold = 0.0;
    O.InitialMode = static_cast<int>(Rig.Modes.size()) - 1;
    O.KeepArtifacts = true;
    DvsScheduler S(*Rig.W.Fn, Rig.Prof, Rig.Modes, Reg, O);
    ErrorOr<ScheduleResult> R = S.schedule(Rig.Deadline);
    ASSERT_TRUE(R.hasValue()) << Name << ": " << R.message();
    RunStats Run = Rig.Sim->run(Rig.Modes, R->Assignment, Reg);
    EXPECT_NEAR(Run.EnergyJoules, R->PredictedEnergyJoules,
                1e-9 * R->PredictedEnergyJoules)
        << Name;
    verify::Audit A = verify::auditScheduleResult(
        *Rig.W.Fn, {{Rig.Prof, 1.0}}, Rig.Modes, Reg, *R, {Rig.Deadline});
    EXPECT_TRUE(A.ok()) << Name << ":\n" << A.R.render();
  }
}

TEST(DvsScheduler, RowViolatingRootPointIsNeverOptimal) {
  // At the presolved root of this instance the cold simplex returns an
  // integral "optimal" point that breaks transition and deadline rows
  // (its schedule runs 42.2 ms against a 13.2 ms deadline). B&B must
  // refuse it as an incumbent; today that leaves no answer. Without
  // presolve the solve finds a feasible optimum.
  ModeTable Modes =
      ModeTable::evenVoltageLevels(13, 0.7, 1.65, VfModel::paperDefault());
  TransitionModel Reg = TransitionModel::withCapacitance(1e-6);
  WorkloadRig A("gsm", "speech1", 0.5, Modes);
  WorkloadRig B("gsm", "speech2", 0.5, Modes);
  std::vector<CategoryProfile> Cats = {{A.Prof, 0.5}, {B.Prof, 0.5}};
  std::vector<double> Deadlines = {A.Deadline, B.Deadline};
  for (bool Presolve : {true, false}) {
    DvsOptions O;
    O.InitialMode = static_cast<int>(Modes.size()) - 1;
    O.KeepArtifacts = true;
    O.Presolve = Presolve;
    O.Milp.NumThreads = 1;
    DvsScheduler S(*A.W.Fn, Cats, Modes, Reg, O);
    ErrorOr<ScheduleResult> R = S.schedule(Deadlines);
    if (Presolve && !R)
      continue; // refused: no incumbent survived the feasibility check
    ASSERT_TRUE(R.hasValue()) << R.message();
    EXPECT_EQ(R->Status, MilpStatus::Optimal);
    verify::Audit Audit = verify::auditScheduleResult(
        *A.W.Fn, Cats, Modes, Reg, *R, Deadlines);
    EXPECT_TRUE(Audit.ok())
        << "presolve " << Presolve << ":\n" << Audit.R.render();
  }
}

TEST(DvsScheduler, MismatchedDeadlineCountFails) {
  Pipeline P(makeTwoPhase());
  DvsScheduler S(*P.Fn, P.Prof, P.Modes, P.Regulator);
  ErrorOr<ScheduleResult> R = S.schedule(std::vector<double>{1.0, 2.0});
  EXPECT_FALSE(R.hasValue());
}

} // namespace
