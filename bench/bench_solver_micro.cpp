//===- bench/bench_solver_micro.cpp - solver microbenchmarks ---------------===//
//
// google-benchmark timings of the from-scratch substrates: the dense
// bounded-variable simplex, the branch-and-bound MILP (warm-started and
// cold, serial and threaded), the cycle-level simulator, and end-to-end
// DVS scheduling. These are the pieces whose wall-clock cost the paper's
// Figures 14/18 measure; the microbenches track their throughput across
// instance sizes. The binary writes a results file only when given
// --benchmark_out=FILE; the tracked record is re-made with
//   bench_solver_micro --benchmark_out=BENCH_solver.json
//     --benchmark_context=git_sha=<sha>,build_type=<type>
//
//===----------------------------------------------------------------------===//

#include "../tests/common/RandomMilp.h"
#include "BenchCommon.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace cdvs;
using namespace cdvs::bench;
using testutil::makeModeAssignment;
using testutil::makeRandomLp;
using testutil::ModeAssignmentCase;

namespace {

void BM_SimplexDense(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  LpProblem P = makeRandomLp(N, N / 2, 42);
  for (auto _ : State) {
    LpSolution S = solveLp(P);
    benchmark::DoNotOptimize(S.Objective);
  }
}
BENCHMARK(BM_SimplexDense)->Arg(20)->Arg(60)->Arg(120)->Arg(240);

/// Warm re-solve throughput: one engine, a bound toggled per iteration.
/// The cold equivalent is BM_SimplexDense — here only a few dual pivots
/// run per solve.
void BM_SimplexWarmResolve(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  LpProblem P = makeRandomLp(N, N / 2, 42);
  SimplexEngine Engine(P);
  benchmark::DoNotOptimize(Engine.solve().Objective);
  double Hi = P.upperBound(0);
  bool Shrunk = false;
  for (auto _ : State) {
    Shrunk = !Shrunk;
    Engine.setBounds(0, 0.0, Shrunk ? 0.25 * Hi : Hi);
    LpSolution S = Engine.solve();
    benchmark::DoNotOptimize(S.Objective);
  }
}
BENCHMARK(BM_SimplexWarmResolve)->Arg(20)->Arg(60)->Arg(120)->Arg(240);

/// Solves one mode-assignment instance with the given options.
double solveModeAssignment(const ModeAssignmentCase &C,
                           const MilpOptions &Opts) {
  MilpSolver S(C.P, C.Integers, Opts);
  for (const auto &G : C.Groups)
    S.addSos1Group(G);
  return S.solve().Objective;
}

/// Mode-assignment MILP with the historical mid-range deadline
/// (tightness 0.5): the rounding heuristic proves optimality at the
/// root, so this tracks root-LP + heuristic cost, not tree search.
void BM_MilpModeAssignment(benchmark::State &State) {
  int Groups = static_cast<int>(State.range(0));
  ModeAssignmentCase C = makeModeAssignment(Groups, 0.5, 7);
  for (auto _ : State)
    benchmark::DoNotOptimize(solveModeAssignment(C, MilpOptions()));
}
BENCHMARK(BM_MilpModeAssignment)->Arg(6)->Arg(12)->Arg(24);

/// Tight-deadline mode assignment: range(1) is the deadline tightness in
/// percent. Tight deadlines force real branch-and-bound trees (tens to
/// hundreds of nodes), which is where warm-started node LPs pay off.
void BM_MilpTightDeadline(benchmark::State &State) {
  ModeAssignmentCase C = makeModeAssignment(
      static_cast<int>(State.range(0)),
      static_cast<double>(State.range(1)) / 100.0, 7);
  for (auto _ : State)
    benchmark::DoNotOptimize(solveModeAssignment(C, MilpOptions()));
}
BENCHMARK(BM_MilpTightDeadline)
    ->Args({24, 15})
    ->Args({24, 5})
    ->Args({48, 10});

/// The same instances with warm starting disabled: every node runs the
/// cold two-phase simplex, which is what the solver did before the
/// persistent-engine rework. The ratio to BM_MilpTightDeadline is the
/// warm-start speedup.
void BM_MilpColdStart(benchmark::State &State) {
  ModeAssignmentCase C = makeModeAssignment(
      static_cast<int>(State.range(0)),
      static_cast<double>(State.range(1)) / 100.0, 7);
  MilpOptions O;
  O.WarmStart = false;
  for (auto _ : State)
    benchmark::DoNotOptimize(solveModeAssignment(C, O));
}
BENCHMARK(BM_MilpColdStart)->Args({24, 15})->Args({24, 5})->Args({48, 10});

/// Thread scaling on one hard instance; range(0) is NumThreads. On a
/// single-core container this mostly measures the coordination overhead
/// of the work-stealing pool.
void BM_MilpThreads(benchmark::State &State) {
  ModeAssignmentCase C = makeModeAssignment(48, 0.10, 7);
  MilpOptions O;
  O.NumThreads = static_cast<int>(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(solveModeAssignment(C, O));
}
BENCHMARK(BM_MilpThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_SimulatorThroughput(benchmark::State &State) {
  Workload W = workloadByName("gsm");
  Simulator Sim(*W.Fn);
  W.defaultInput().Setup(Sim);
  uint64_t Insts = 0;
  for (auto _ : State) {
    RunStats S = Sim.runAtLevel({1.65, 800e6});
    Insts += S.Instructions;
    benchmark::DoNotOptimize(S.EnergyJoules);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

void BM_ProfileCollection(benchmark::State &State) {
  Workload W = workloadByName("ghostscript");
  Simulator Sim(*W.Fn);
  W.defaultInput().Setup(Sim);
  ModeTable Modes = ModeTable::xscale3();
  for (auto _ : State) {
    Profile P = collectProfile(Sim, Modes);
    benchmark::DoNotOptimize(P.TotalTimeAtMode[0]);
  }
}
BENCHMARK(BM_ProfileCollection)->Unit(benchmark::kMillisecond);

void BM_EndToEndSchedule(benchmark::State &State) {
  Workload W = workloadByName("mpeg_decode");
  auto Sim = makeSimulator(W, W.defaultInput());
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Reg = TransitionModel::paperTypical();
  Profile Prof = collectProfile(*Sim, Modes);
  double Deadline =
      0.5 * (Prof.TotalTimeAtMode.front() + Prof.TotalTimeAtMode.back());
  for (auto _ : State) {
    DvsOptions O;
    O.InitialMode = 2;
    DvsScheduler Sched(*W.Fn, Prof, Modes, Reg, O);
    ErrorOr<ScheduleResult> R = Sched.schedule(Deadline);
    benchmark::DoNotOptimize(R.hasValue());
  }
}
BENCHMARK(BM_EndToEndSchedule)->Unit(benchmark::kMillisecond);

/// Certified presolve on/off over the Section 6 MILP instances at the
/// Figure 17/18 mid-range deadline (the ladder's Deadline 4, the widest
/// real branch-and-bound tree). range(0) indexes milpBenchmarks(),
/// range(1) toggles the presolve; counters record the instance size,
/// the reduction, and the tree the solver actually explored, so the
/// JSON record shows what the presolve buys per workload.
void BM_SchedulePresolve(benchmark::State &State) {
  std::vector<std::string> Names = milpBenchmarks();
  size_t WI = static_cast<size_t>(State.range(0)) % Names.size();
  bool Presolve = State.range(1) != 0;
  Workload W = workloadByName(Names[WI]);
  auto Sim = makeSimulator(W, W.defaultInput());
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Reg = TransitionModel::paperTypical();
  Profile Prof = collectProfile(*Sim, Modes);
  // Deadline 2 of the Figure 16 ladder: stringent enough to force a
  // real branch-and-bound tree instead of a root-LP round-off.
  double Deadline = fiveDeadlines(Prof)[1];
  // Amortize the static analysis across solves, as the service does.
  analysis::FunctionAnalysis FA = analysis::analyzeFunction(*W.Fn);
  DvsOptions O;
  O.InitialMode = static_cast<int>(Modes.size()) - 1;
  O.Presolve = Presolve;
  O.Analysis = &FA;

  ScheduleResult Last;
  for (auto _ : State) {
    DvsScheduler Sched(*W.Fn, Prof, Modes, Reg, O);
    ErrorOr<ScheduleResult> R = Sched.schedule(Deadline);
    if (!R) {
      State.SkipWithError(R.message().c_str());
      return;
    }
    Last = *R;
    benchmark::DoNotOptimize(Last.PredictedEnergyJoules);
  }
  State.SetLabel(Names[WI] + (Presolve ? "/presolve" : "/full"));
  State.counters["vars"] = static_cast<double>(Last.NumVars);
  State.counters["rows"] = static_cast<double>(Last.NumRows);
  State.counters["solved_vars"] = static_cast<double>(Last.SolvedVars);
  State.counters["solved_rows"] = static_cast<double>(Last.SolvedRows);
  State.counters["vars_fixed"] =
      static_cast<double>(Last.PresolveVarsFixed);
  State.counters["rows_dropped"] =
      static_cast<double>(Last.PresolveRowsDropped);
  State.counters["bb_nodes"] = static_cast<double>(Last.Nodes);
}
BENCHMARK(BM_SchedulePresolve)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
