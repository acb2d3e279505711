//===- tests/golden/GoldenScheduleTest.cpp - committed schedule record ----===//
//
// Recomputes every entry of tests/golden/schedules.txt and names each one
// whose digest moved. Every solve runs one B&B thread on ModeTable::
// xscale3(), starts in the fastest mode and pays the paper's typical
// 10 uF regulator. The record holds, for every bundled workload x input
// x deadline tightness 0.15, 0.5 and 0.85 (the deadline is
// TFast + tightness * (TSlow - TFast), as the service resolves it):
//  * edge schedules at the default 2% filter and with the filter off,
//    each with presolve on and off: the instance fingerprint, a digest
//    of the MILP handed to the solver taken bit for bit (every cost,
//    bound, name, row sense, rhs and term, and the integer variables),
//    a digest of the cdvs-schedule bytes, and the objective's bits;
//  * the path-context schedule: schedule digest and objective bits;
// and for every workload with more than one input, one multi-category
// edge schedule over all its inputs with equal weights at tightness
// 0.5, presolve on and off. For each workload's default input the 2%
// presolved entries are the schedules check.sh's strict-verify gate
// emits.
//
// After an intended change, rewrite the record with
//   golden_test --update
// and list every moved entry and its cause in CHANGES.md.
//
//===----------------------------------------------------------------------===//

#include "GoldenRecord.h"
#include "dvs/PathScheduler.h"
#include "dvs/ScheduleIO.h"
#include "milp/Fingerprint.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace cdvs;
using namespace cdvs::golden;

namespace {

const double Tightnesses[] = {0.15, 0.5, 0.85};

std::string problemDigest(const SolverArtifacts &A) {
  const LpProblem &P = A.Problem;
  HashBuilder H;
  H.add(P.numVariables());
  for (int V = 0; V < P.numVariables(); ++V) {
    addBits(H, P.cost(V));
    addBits(H, P.lowerBound(V));
    addBits(H, P.upperBound(V));
    H.add(P.name(V));
  }
  H.add(P.numRows());
  for (int Row = 0; Row < P.numRows(); ++Row) {
    H.add(static_cast<int>(P.sense(Row)));
    addBits(H, P.rhs(Row));
    H.add(static_cast<uint64_t>(P.rowTerms(Row).size()));
    for (const LpTerm &T : P.rowTerms(Row)) {
      H.add(T.Var);
      addBits(H, T.Coeff);
    }
  }
  H.add(static_cast<uint64_t>(A.IntegerVars.size()));
  for (int V : A.IntegerVars)
    H.add(V);
  return H.digest();
}

/// The schedule bytes' digest and the objective's bits, or the error.
std::string answer(const ErrorOr<ScheduleResult> &R) {
  if (!R)
    return "error=" + R.message();
  HashBuilder Schedule;
  Schedule.add(writeSchedule(R->Assignment));
  return "schedule=" + Schedule.digest() +
         " objective=" + bitsHex(R->PredictedEnergyJoules);
}

std::string tightnessName(double T) {
  char Buf[16];
  std::snprintf(Buf, sizeof Buf, "%g", T);
  return Buf;
}

DvsOptions options(double FilterThreshold, bool Presolve) {
  DvsOptions O;
  O.FilterThreshold = FilterThreshold;
  O.Presolve = Presolve;
  O.InitialMode = static_cast<int>(ModeTable::xscale3().size()) - 1;
  O.KeepArtifacts = true;
  O.Milp.NumThreads = 1;
  return O;
}

/// The edge schedule entries of one instance: "<prefix>edge-filter<F>
/// [-presolve]@<tightness>" for filter 2% or 0, presolve on or off.
void addEdgeEntries(Entries &Out, const std::string &Prefix,
                    const Workload &W,
                    const std::vector<CategoryProfile> &Cats,
                    const std::vector<double> &Deadlines,
                    const std::string &Tightness,
                    std::vector<double> Filters) {
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Regulator = TransitionModel::paperTypical();
  for (double Filter : Filters)
    for (bool Presolve : {true, false}) {
      DvsOptions O = options(Filter, Presolve);
      DvsScheduler S(*W.Fn, Cats, Modes, Regulator, O);
      ErrorOr<ScheduleResult> R = S.schedule(Deadlines);
      std::string Entry =
          "fingerprint=" +
          fingerprintDvsInstance(Cats, Deadlines, Modes, Regulator, Filter,
                                 O.InitialMode) +
          " problem=" +
          (R && R->Artifacts ? problemDigest(*R->Artifacts) : "none") +
          " " + answer(R);
      Out[Prefix + "edge-filter" + (Filter > 0.0 ? "2" : "0") +
          (Presolve ? "-presolve" : "") + "@" + Tightness] = Entry;
    }
}

double deadlineAt(const Profile &P, double Tightness) {
  double TFast = P.TotalTimeAtMode.back();
  double TSlow = P.TotalTimeAtMode.front();
  return TFast + Tightness * (TSlow - TFast);
}

Entries computeEntries(const Workload &W) {
  Entries Out;
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Regulator = TransitionModel::paperTypical();
  std::vector<CategoryProfile> All;
  for (const WorkloadInput &In : W.Inputs) {
    Simulator Sim(*W.Fn);
    In.Setup(Sim);
    Profile P = collectProfile(Sim, Modes);
    std::string Prefix = W.Name + " " + In.Name + " ";
    for (double T : Tightnesses) {
      double Deadline = deadlineAt(P, T);
      addEdgeEntries(Out, Prefix, W, {{P, 1.0}}, {Deadline},
                     tightnessName(T), {0.02, 0.0});
      Out[Prefix + "path@" + tightnessName(T)] =
          answer(schedulePathContext(*W.Fn, P, Modes, Regulator, Deadline,
                                     options(0.0, false)));
    }
    All.push_back({std::move(P), 0.0});
  }
  if (All.size() > 1) {
    std::vector<double> Deadlines;
    for (CategoryProfile &C : All) {
      C.Probability = 1.0 / static_cast<double>(All.size());
      Deadlines.push_back(deadlineAt(C.Data, 0.5));
    }
    addEdgeEntries(Out, W.Name + " all ", W, All, Deadlines,
                   tightnessName(0.5), {0.02});
  }
  return Out;
}

} // namespace

const RecordFile &golden::scheduleRecord() {
  static const RecordFile F = {
      CDVS_GOLDEN_SCHEDULES,
      "# Golden schedule record: <workload> <input> <case> <digests>.\n"
      "# Regenerate with `golden_test --update` (tests/golden/"
      "GoldenScheduleTest.cpp).\n",
      computeEntries};
  return F;
}

namespace {

class GoldenSchedules : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenSchedules, MatchRecord) {
  expectMatchesRecord(scheduleRecord(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GoldenSchedules, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

} // namespace
