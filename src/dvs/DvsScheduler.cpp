//===- dvs/DvsScheduler.cpp - Profile-driven MILP DVS scheduling ----------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
//
// One MILP builder serves both schedulers. Each enumerates *decision
// units*, sets of CFG edge traversals that must share one mode: an edge
// group for DvsScheduler, one profiled local path (h, i, j) for
// schedulePathContext. The enumeration supplies per-unit energy and
// per-category time coefficients, per-category switch counts on unit
// pairs and the pinned entry unit; solveUnits builds the variables and
// rows, presolves, solves and decodes one mode per unit, and each
// scheduler maps unit modes back onto its edges or paths.
//
//===----------------------------------------------------------------------===//

#include "dvs/DvsScheduler.h"

#include "dvs/EdgeGroups.h"
#include "dvs/PathScheduler.h"
#include "lp/LpWriter.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <memory>

using namespace cdvs;

namespace {

/// A DVS MILP over decision units. Unit u has a SOS1 group of mode
/// binaries k[u][m] named Prefix + "<u>_m<m>".
struct UnitModel {
  const char *Prefix = "k_g";
  int NumUnits = 0;
  /// The unit holding the virtual launch traversal, pinned to the
  /// initial mode: the OS sets the voltage before launch, and the paper
  /// does not let the program choose its entry operating point for free.
  int EntryUnit = 0;
  /// Category probabilities (the objective's weights).
  std::vector<double> Weight;
  /// Energy[u][m]: objective coefficient of k[u][m].
  std::vector<std::vector<double>> Energy;
  /// Time[c][u][m]: coefficient of k[u][m] in category c's deadline row.
  std::vector<std::vector<std::vector<double>>> Time;
  /// Switches[{u1, u2}][c], u1 < u2: how often category c traverses u1
  /// and u2 back to back, in either order. Each pair gets the |dV^2| and
  /// |dV| transition variables e and t.
  std::map<std::pair<int, int>, std::vector<double>> Switches;
  /// Dead[u]: the unit is structurally dead (presolve statistics only;
  /// may be empty).
  std::vector<char> Dead;
};

/// Builds \p U's MILP under one deadline per category, presolves it when
/// Opts.Presolve is set, solves it, and decodes \p UnitMode: a unit with
/// no energy, time or switch weight runs at the slowest mode (no profile
/// evidence, so assume it is not time-critical; this is what makes
/// cross-category profile mismatch observable, as in the paper's Section
/// 6.4, where a no-B-frames profile leaves the B-frame paths at the
/// lowest speed), and every other unit takes the solver's mode.
ErrorOr<ScheduleResult> solveUnits(const UnitModel &U, const Function &Fn,
                                   const ModeTable &Modes,
                                   const TransitionModel &Transitions,
                                   const std::vector<double> &Deadlines,
                                   const DvsOptions &Opts,
                                   std::vector<int> &UnitMode) {
  const int NumModes = static_cast<int>(Modes.size());
  const int NumCats = static_cast<int>(U.Weight.size());

  LpProblem P;
  std::vector<std::vector<int>> K(U.NumUnits, std::vector<int>(NumModes));
  for (int G = 0; G < U.NumUnits; ++G)
    for (int M = 0; M < NumModes; ++M)
      K[G][M] = P.addVariable(0.0, 1.0, 0.0,
                              U.Prefix + std::to_string(G) + "_m" +
                                  std::to_string(M));
  for (int G = 0; G < U.NumUnits; ++G)
    for (int M = 0; M < NumModes; ++M)
      P.setCost(K[G][M], U.Energy[G][M]);

  // Transition variables per unit pair: the objective gets
  // CE * sum_c p_c * D_c, each category's deadline row CT * D_c.
  const double CE = Transitions.energyConstant();
  const double CT = Transitions.timeConstant();
  std::vector<int> TVar;
  for (const auto &[Key, Count] : U.Switches) {
    double ObjWeight = 0.0;
    for (int C = 0; C < NumCats; ++C)
      ObjWeight += U.Weight[C] * Count[C] * CE;
    std::string Pair =
        std::to_string(Key.first) + "_" + std::to_string(Key.second);
    int EVar = P.addVariable(0.0, lpInf(), ObjWeight, "e_" + Pair);
    TVar.push_back(P.addVariable(0.0, lpInf(), 0.0, "t_" + Pair));
    // |sum_m (k1m - k2m) Vm^2| <= e ; |sum_m (k1m - k2m) Vm| <= t.
    auto addAbsRows = [&](int Var, bool Squared) {
      std::vector<LpTerm> Minus;
      for (int M = 0; M < NumModes; ++M) {
        double V = Modes.level(M).Volts;
        double Coeff = Squared ? V * V : V;
        Minus.push_back({K[Key.first][M], Coeff});
        Minus.push_back({K[Key.second][M], -Coeff});
      }
      std::vector<LpTerm> Plus = Minus;
      Minus.push_back({Var, -1.0});
      P.addRow(RowSense::LE, 0.0, Minus); // diff - var <= 0
      Plus.push_back({Var, 1.0});
      P.addRow(RowSense::GE, 0.0, Plus); // diff + var >= 0
    };
    addAbsRows(EVar, true);
    addAbsRows(TVar.back(), false);
  }

  // SOS1 rows: each unit picks exactly one mode.
  for (int G = 0; G < U.NumUnits; ++G) {
    std::vector<LpTerm> Sum;
    for (int M = 0; M < NumModes; ++M)
      Sum.push_back({K[G][M], 1.0});
    P.addRow(RowSense::EQ, 1.0, Sum);
  }

  for (int M = 0; M < NumModes; ++M) {
    double Fix = M == Opts.InitialMode ? 1.0 : 0.0;
    P.setBounds(K[U.EntryUnit][M], Fix, Fix);
  }

  // Deadline row per category.
  for (int C = 0; C < NumCats; ++C) {
    std::vector<LpTerm> Row;
    for (int G = 0; G < U.NumUnits; ++G)
      for (int M = 0; M < NumModes; ++M)
        if (U.Time[C][G][M] != 0.0)
          Row.push_back({K[G][M], U.Time[C][G][M]});
    size_t Pair = 0;
    for (const auto &[Key, Count] : U.Switches) {
      if (Count[C] > 0.0)
        Row.push_back({TVar[Pair], CT * Count[C]});
      ++Pair;
    }
    P.addRow(RowSense::LE, Deadlines[C], Row);
  }

  std::vector<int> Integers;
  for (auto &Group : K)
    Integers.insert(Integers.end(), Group.begin(), Group.end());
  std::string LpText;
  if (Opts.DumpLp)
    LpText = writeLpFormat(P, Integers);
  // Copy (problem, integer vars) before the solve: the solver owns its
  // own copy and mutates bounds while branching, so this snapshot is the
  // instance the certificate is checked against.
  std::shared_ptr<SolverArtifacts> Artifacts;
  if (Opts.KeepArtifacts) {
    Artifacts = std::make_shared<SolverArtifacts>();
    Artifacts->Problem = P;
    Artifacts->IntegerVars = Integers;
  }

  ScheduleResult R;
  R.NumVars = P.numVariables();
  R.NumRows = P.numRows();

  // A unit is weighted when its mode choice moves the objective, a
  // deadline row or a transition; the entry unit is pinned.
  std::vector<char> Weighted(U.NumUnits, 0);
  Weighted[U.EntryUnit] = 1;
  for (const auto &[Key, Count] : U.Switches)
    Weighted[Key.first] = Weighted[Key.second] = 1;
  for (int G = 0; G < U.NumUnits; ++G)
    for (int M = 0; M < NumModes; ++M) {
      Weighted[G] |= U.Energy[G][M] != 0.0;
      for (int C = 0; C < NumCats; ++C)
        Weighted[G] |= U.Time[C][G][M] != 0.0;
    }

  // Certified presolve: an unweighted unit appears only in its own SOS1
  // row, so any unit assignment is optimal; pin it to mode 0, the mode
  // the decoder gives it. Structurally dead edges, which the Section 5.2
  // filter always leaves as independent single-edge groups, are the
  // canonical case; the static analysis tells the two apart for
  // reporting.
  PresolveResult PR;
  R.SolvedVars = R.NumVars;
  R.SolvedRows = R.NumRows;
  if (Opts.Presolve) {
    auto TP0 = std::chrono::steady_clock::now();
    std::vector<int> FixedVars;
    std::vector<double> FixedVals;
    for (int G = 0; G < U.NumUnits; ++G) {
      if (Weighted[G])
        continue;
      if (!U.Dead.empty() && U.Dead[G])
        ++R.PresolveDeadGroups;
      for (int M = 0; M < NumModes; ++M) {
        FixedVars.push_back(K[G][M]);
        FixedVals.push_back(M == 0 ? 1.0 : 0.0);
      }
    }
    PR = presolve(P, Integers, FixedVars, FixedVals);
    auto TP1 = std::chrono::steady_clock::now();
    R.PresolveSeconds = std::chrono::duration<double>(TP1 - TP0).count();
    if (PR.Infeasible)
      return makeError("presolve found the instance infeasible: " +
                       PR.InfeasibleReason);
    R.PresolveVarsFixed = PR.Cert.varsFixed();
    R.PresolveRowsDropped = PR.Cert.rowsDropped();
    R.SolvedVars = PR.Cert.ReducedVars;
    R.SolvedRows = PR.Cert.ReducedRows;
  }

  MilpSolver Solver(Opts.Presolve ? PR.Reduced : P,
                    Opts.Presolve ? PR.IntegerVars : Integers, Opts.Milp);
  for (auto &Group : K) {
    std::vector<int> Mapped;
    for (int Var : Group)
      if (int To = Opts.Presolve ? PR.Cert.VarMap[Var] : Var; To >= 0)
        Mapped.push_back(To);
    if (Mapped.size() > 1)
      Solver.addSos1Group(Mapped);
  }
  auto T0 = std::chrono::steady_clock::now();
  MilpSolution Sol = Solver.solve();
  auto T1 = std::chrono::steady_clock::now();
  R.SolveSeconds = std::chrono::duration<double>(T1 - T0).count();
  if (Opts.Presolve) {
    if (Artifacts) {
      Artifacts->Presolved = true;
      Artifacts->ReducedProblem = PR.Reduced;
      Artifacts->ReducedIntegerVars = PR.IntegerVars;
      Artifacts->ReducedSolution = Sol;
      Artifacts->Reduction = PR.Cert;
    }
    if (Sol.Status == MilpStatus::Optimal ||
        Sol.Status == MilpStatus::Feasible) {
      Sol.X = PR.Cert.expandSolution(Sol.X);
      Sol.Objective += PR.Cert.ObjectiveOffset;
    }
  }

  R.Status = Sol.Status;
  R.Nodes = Sol.Nodes;
  R.LpIterations = Sol.LpIterations;
  R.NumEdges = static_cast<int>(Fn.edges().size());
  R.NumIndependentGroups = U.NumUnits;
  R.NumBinaries = static_cast<int>(Integers.size());
  R.LpText = std::move(LpText);
  if (Artifacts) {
    Artifacts->Solution = Sol;
    R.Artifacts = Artifacts;
  }

  if (Sol.Status == MilpStatus::Infeasible)
    return makeError("deadline is infeasible for this program");
  if (Sol.Status == MilpStatus::Unbounded ||
      Sol.Status == MilpStatus::Limit)
    return makeError("MILP search failed: " +
                     std::string(milpStatusName(Sol.Status)));

  R.PredictedEnergyJoules = Sol.Objective;
  UnitMode.assign(U.NumUnits, 0);
  for (int G = 0; G < U.NumUnits; ++G) {
    if (!Weighted[G])
      continue;
    double BestVal = -1.0;
    for (int M = 0; M < NumModes; ++M)
      if (Sol.X[K[G][M]] > BestVal) {
        BestVal = Sol.X[K[G][M]];
        UnitMode[G] = M;
      }
  }
  return R;
}

} // namespace

DvsScheduler::DvsScheduler(const Function &Fn, const Profile &Prof,
                           const ModeTable &Modes,
                           const TransitionModel &Transitions,
                           DvsOptions Opts)
    : DvsScheduler(Fn, std::vector<CategoryProfile>{{Prof, 1.0}}, Modes,
                   Transitions, Opts) {}

DvsScheduler::DvsScheduler(const Function &Fn,
                           const std::vector<CategoryProfile> &InCategories,
                           const ModeTable &Modes,
                           const TransitionModel &Transitions,
                           DvsOptions Opts)
    : Fn(Fn), Categories(InCategories), Modes(Modes),
      Transitions(Transitions), Opts(Opts) {
  assert(!Categories.empty() && "need at least one input category");
  for (const CategoryProfile &C : Categories) {
    assert(C.Data.NumBlocks == Fn.numBlocks() &&
           "profile does not match function");
    assert(C.Data.NumModes == static_cast<int>(Modes.size()) &&
           "profile does not match mode table");
    (void)C;
  }
  assert(Opts.InitialMode >= 0 &&
         Opts.InitialMode < static_cast<int>(Modes.size()) &&
         "initial mode out of range");
  // Shared with the static verifier (verify/ScheduleChecker), which must
  // recompute exactly this partition to audit filtered placements.
  EdgeGroups G = computeEdgeGroups(Fn, Categories, Opts.FilterThreshold);
  Edges = std::move(G.Edges);
  GroupOf = std::move(G.GroupOf);
  NumGroups = G.NumGroups;
}

int DvsScheduler::numIndependentGroups() const { return NumGroups; }

ErrorOr<ScheduleResult> DvsScheduler::schedule(double DeadlineSeconds) {
  return schedule(
      std::vector<double>(Categories.size(), DeadlineSeconds));
}

ErrorOr<ScheduleResult>
DvsScheduler::schedule(const std::vector<double> &DeadlineSeconds) {
  if (DeadlineSeconds.size() != Categories.size())
    return makeError("deadline count does not match category count");

  const int NumModes = static_cast<int>(Modes.size());
  const int NumEdges = static_cast<int>(Edges.size());
  const int NumCats = static_cast<int>(Categories.size());

  // Units are the edge groups. Edge e costs G_e executions of its
  // destination block; the virtual entry edge executes once.
  UnitModel U;
  U.NumUnits = NumGroups;
  U.EntryUnit = GroupOf[0];
  U.Energy.assign(NumGroups, std::vector<double>(NumModes, 0.0));
  U.Time.assign(NumCats, U.Energy);
  for (int C = 0; C < NumCats; ++C) {
    const CategoryProfile &Cat = Categories[C];
    U.Weight.push_back(Cat.Probability);
    for (int E = 0; E < NumEdges; ++E) {
      double G = E == 0 ? 1.0 : 0.0;
      if (E != 0) {
        auto It = Cat.Data.EdgeCounts.find(Edges[E]);
        if (It != Cat.Data.EdgeCounts.end())
          G = static_cast<double>(It->second);
      }
      if (G == 0.0)
        continue;
      int To = Edges[E].To;
      int Grp = GroupOf[E];
      for (int M = 0; M < NumModes; ++M) {
        U.Energy[Grp][M] += Cat.Probability * G *
                            Cat.Data.EnergyPerInvocation[To][M];
        U.Time[C][Grp][M] += G * Cat.Data.TimePerInvocation[To][M];
      }
    }
  }

  // A local path (h, i, j) switches between the groups of (h, i) and
  // (i, j) D_hij times; a path inside one group is a silent mode-set.
  std::map<CfgEdge, int> EdgeIndex;
  for (int I = 0; I < NumEdges; ++I)
    EdgeIndex[Edges[I]] = I;
  for (int C = 0; C < NumCats; ++C) {
    for (const auto &[Path, D] : Categories[C].Data.PathCounts) {
      auto [H, I, J] = Path;
      auto ItIn = EdgeIndex.find({H, I});
      auto ItOut = EdgeIndex.find({I, J});
      assert(ItIn != EdgeIndex.end() && ItOut != EdgeIndex.end() &&
             "profiled path not in CFG");
      int G1 = GroupOf[ItIn->second];
      int G2 = GroupOf[ItOut->second];
      if (G1 == G2)
        continue;
      std::vector<double> &Count = U.Switches[std::minmax(G1, G2)];
      if (Count.empty())
        Count.assign(NumCats, 0.0);
      Count[C] += static_cast<double>(D);
    }
  }

  // Split the groups presolve fixes into analysis-certified dead vs
  // merely unprofiled, for the presolve statistics.
  if (Opts.Presolve) {
    std::unique_ptr<analysis::FunctionAnalysis> Own;
    const analysis::FunctionAnalysis *FA = Opts.Analysis;
    if (!FA) {
      Own = std::make_unique<analysis::FunctionAnalysis>(
          analysis::analyzeFunction(Fn));
      FA = Own.get();
    }
    U.Dead.assign(NumGroups, 1);
    for (int E = 1; E < NumEdges; ++E)
      if (FA->Reach.live(Edges[E]))
        U.Dead[GroupOf[E]] = 0;
  }

  std::vector<int> GroupMode;
  ErrorOr<ScheduleResult> R = solveUnits(U, Fn, Modes, Transitions,
                                         DeadlineSeconds, Opts, GroupMode);
  if (!R)
    return R;
  R->Assignment.InitialMode = GroupMode[GroupOf[0]];
  assert(R->Assignment.InitialMode == Opts.InitialMode &&
         "entry mode must honor the pin");
  for (int E = 1; E < NumEdges; ++E)
    R->Assignment.EdgeMode[Edges[E]] = GroupMode[GroupOf[E]];
  return R;
}

ErrorOr<ScheduleResult> cdvs::schedulePathContext(
    const Function &Fn, const Profile &Prof, const ModeTable &Modes,
    const TransitionModel &Transitions, double DeadlineSeconds,
    DvsOptions Opts) {
  const int NumModes = static_cast<int>(Modes.size());
  assert(Prof.NumModes == NumModes && "profile does not match modes");
  assert(Prof.NumBlocks == Fn.numBlocks() &&
         "profile does not match function");

  // Units: the virtual pre-entry path, covering the entry block's first
  // invocation, then every profiled path (h, i, j), covering D_hij
  // invocations of block j.
  std::vector<LocalPath> Paths = {{-2, -1, 0}};
  std::vector<double> Counts = {1.0};
  std::map<LocalPath, int> UnitOf = {{Paths[0], 0}};
  for (const auto &[Path, D] : Prof.PathCounts)
    if (D != 0) {
      UnitOf[Path] = static_cast<int>(Paths.size());
      Paths.push_back(Path);
      Counts.push_back(static_cast<double>(D));
    }

  UnitModel U;
  U.Prefix = "p_u";
  U.NumUnits = static_cast<int>(Paths.size());
  U.Weight = {1.0};
  U.Energy.assign(U.NumUnits, std::vector<double>(NumModes, 0.0));
  U.Time.assign(1, U.Energy);
  for (int P = 0; P < U.NumUnits; ++P) {
    int Block = std::get<2>(Paths[P]);
    for (int M = 0; M < NumModes; ++M) {
      U.Energy[P][M] = Counts[P] * Prof.EnergyPerInvocation[Block][M];
      U.Time[0][P][M] = Counts[P] * Prof.TimePerInvocation[Block][M];
    }
  }
  // The 4-gram (a, b, c, d) switches from path (a, b, c) to (b, c, d).
  for (const auto &[Quad, Q] : Prof.Reference.QuadCounts) {
    auto [A, B, C, D] = Quad;
    auto ItF = UnitOf.find({A, B, C});
    auto ItT = UnitOf.find({B, C, D});
    if (ItF == UnitOf.end() || ItT == UnitOf.end() ||
        ItF->second == ItT->second)
      continue;
    std::vector<double> &Count =
        U.Switches[std::minmax(ItF->second, ItT->second)];
    Count.resize(1, 0.0);
    Count[0] += static_cast<double>(Q);
  }

  // Every path unit is profiled, so presolve could only drop the pinned
  // entry unit; the path instance is solved whole.
  Opts.Presolve = false;
  std::vector<int> UnitMode;
  ErrorOr<ScheduleResult> R = solveUnits(
      U, Fn, Modes, Transitions, {DeadlineSeconds}, Opts, UnitMode);
  if (!R)
    return R;

  // Path-context decisions plus a majority-vote per-edge fallback for
  // contexts the profile never saw.
  R->Assignment.InitialMode = UnitMode[0];
  std::map<CfgEdge, std::map<int, double>> Votes;
  for (int P = 1; P < U.NumUnits; ++P) {
    R->Assignment.PathMode[Paths[P]] = UnitMode[P];
    CfgEdge Out{std::get<1>(Paths[P]), std::get<2>(Paths[P])};
    Votes[Out][UnitMode[P]] += Counts[P];
  }
  for (const CfgEdge &E : Fn.edges()) {
    int Best = 0; // unprofiled: slowest
    double BestCount = 0.0;
    for (const auto &[Mode, Count] : Votes[E])
      if (Count > BestCount) {
        BestCount = Count;
        Best = Mode;
      }
    R->Assignment.EdgeMode[E] = Best;
  }
  return R;
}
