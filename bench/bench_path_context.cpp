//===- bench/bench_path_context.cpp - Section 7 extension study ------------===//
//
// Evaluates the paper's stated future-work direction ("moving from
// edges to paths would allow us to build more program context into our
// analysis of mode-set positioning", Section 7), implemented in
// dvs/PathScheduler.h. For each benchmark at a mid deadline, compares
//  * the paper's edge-based MILP with the 2% filter,
//  * the unfiltered edge-based MILP, and
//  * the path-context MILP (one SOS1 group per profiled local path),
// on MILP size, solve time, predicted energy, and realized energy.
// Expected: path context never predicts worse than unfiltered edges;
// whether it *helps* depends on how often a block's criticality differs
// by entry path — on these CFGs the gains are small, which is itself an
// instructive data point for the paper's speculation. Every path-context
// answer is certificate-checked and audited; a failed audit exits 1.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "dvs/PathScheduler.h"
#include "verify/Verify.h"

#include <cstdio>

using namespace cdvs;
using namespace cdvs::bench;

int main() {
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Reg = TransitionModel::paperTypical();

  std::printf("== Edge-based vs path-context scheduling (mid deadline) "
              "==\n");
  Table T({"benchmark", "scheduler", "groups", "binaries", "solve ms",
           "predicted uJ", "realized uJ", "time ms"});

  for (const std::string &Name : milpBenchmarks()) {
    Workload W = workloadByName(Name);
    auto Sim = makeSimulator(W, W.defaultInput());
    Profile Prof = collectProfile(*Sim, Modes);
    double Deadline =
        0.5 * (Prof.TotalTimeAtMode.front() + Prof.TotalTimeAtMode.back());

    auto addRow = [&](const char *Label, const ScheduleResult &R) {
      RunStats Run = Sim->run(Modes, R.Assignment, Reg);
      T.addRow({Name, Label, formatInt(R.NumIndependentGroups),
                formatInt(R.NumBinaries),
                formatDouble(R.SolveSeconds * 1e3, 2),
                formatDouble(R.PredictedEnergyJoules * 1e6, 1),
                formatDouble(Run.EnergyJoules * 1e6, 1),
                formatDouble(Run.TimeSeconds * 1e3, 2)});
    };

    DvsOptions Filtered;
    Filtered.InitialMode = 2;
    DvsScheduler E1(*W.Fn, Prof, Modes, Reg, Filtered);
    if (ErrorOr<ScheduleResult> R = E1.schedule(Deadline))
      addRow("edges (2% filter)", *R);

    DvsOptions Unfiltered;
    Unfiltered.InitialMode = 2;
    Unfiltered.FilterThreshold = 0.0;
    DvsScheduler E2(*W.Fn, Prof, Modes, Reg, Unfiltered);
    if (ErrorOr<ScheduleResult> R = E2.schedule(Deadline))
      addRow("edges (all)", *R);

    DvsOptions Paths = Unfiltered;
    Paths.KeepArtifacts = true;
    if (ErrorOr<ScheduleResult> R = schedulePathContext(
            *W.Fn, Prof, Modes, Reg, Deadline, Paths)) {
      verify::Audit A = verify::auditScheduleResult(
          *W.Fn, {{Prof, 1.0}}, Modes, Reg, *R, {Deadline});
      if (!A.ok()) {
        std::fprintf(stderr, "%s: path-context audit failed:\n%s",
                     Name.c_str(), A.R.render().c_str());
        return 1;
      }
      addRow("paths", *R);
    }
  }
  T.print();
  std::printf("\n(every path-context answer passed the MILP certificate "
              "and the schedule audit)\n");
  return 0;
}
