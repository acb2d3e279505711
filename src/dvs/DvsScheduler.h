//===- dvs/DvsScheduler.h - Profile-driven MILP DVS scheduling --*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution (Sections 4–5): choose a DVS mode for
/// every CFG edge so that total program energy is minimized subject to a
/// deadline, accounting exactly for the regulator's transition energy and
/// time.
///
/// For each independent edge e and mode m there is a binary k[e][m] with
/// sum_m k[e][m] = 1. Using profiled per-mode block costs (Tjm, Ejm),
/// edge counts Gij and local-path counts Dhij, the MILP is
///
///   min  sum_e sum_m G[e]·k[e][m]·E[to(e)][m]
///        + sum_(h,i,j) D[hij] · CE · e_hij
///   s.t. sum_e sum_m G[e]·k[e][m]·T[to(e)][m]
///        + sum_(h,i,j) D[hij] · CT · t_hij  <=  deadline
///        -e_hij <= sum_m (k[hi][m] − k[ij][m])·Vm² <= e_hij
///        -t_hij <= sum_m (k[hi][m] − k[ij][m])·Vm  <= t_hij
///
/// which linearizes SE = CE·|Vi²−Vj²| and ST = CT·|Vi−Vj| exactly
/// (Section 4.2). A virtual entry edge (-1 -> 0) carries the initial mode
/// the OS programs before launch; the first real transition out of it is
/// costed through the path counts like any other.
///
/// Edge filtering (Section 5.2): edges whose destination energy falls in
/// the cumulative low-energy tail (default 2%) are tied to the dominant
/// incoming edge of their source block, shrinking the number of
/// independent mode variables; deadlines remain exact, only energy
/// optimality may be (negligibly) affected.
///
/// Multiple input categories (Section 4.3): the objective becomes the
/// probability-weighted sum of category energies and each category gets
/// its own deadline row, over shared mode variables.
///
/// One builder (DvsScheduler.cpp) makes, presolves and solves this MILP
/// for edge groups and for the path-context scheduler's local paths
/// (PathScheduler.h). A group with no energy, time or transition weight
/// decodes to the slowest mode; every other group takes the solver's.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_DVS_DVSSCHEDULER_H
#define CDVS_DVS_DVSSCHEDULER_H

#include "analysis/Analysis.h"
#include "milp/MilpSolver.h"
#include "milp/Presolve.h"
#include "power/TransitionModel.h"
#include "profile/Profile.h"
#include "sim/ModeAssignment.h"
#include "support/Error.h"

#include <memory>
#include <vector>

namespace cdvs {

/// Knobs for the scheduler.
struct DvsOptions {
  /// Cumulative destination-energy fraction below which edges lose their
  /// independent mode variable (paper default 2%). Zero disables
  /// filtering.
  double FilterThreshold = 0.02;
  /// Mode the processor is in before the program starts.
  int InitialMode = 0;
  /// When set, ScheduleResult::LpText carries the full MILP in CPLEX
  /// LP format (the AMPL/CPLEX escape hatch; see lp/LpWriter.h).
  bool DumpLp = false;
  /// When set, ScheduleResult::Artifacts carries the exact LpProblem
  /// handed to the solver plus the raw solution, so an independent
  /// certificate check (verify/CertificateChecker.h) can re-evaluate
  /// every constraint row instead of trusting the solver's objective.
  bool KeepArtifacts = false;
  /// Certified structural presolve: eliminate mode binaries of edge
  /// groups that carry no objective, deadline, or transition weight
  /// (structurally dead edges always qualify — the §5.2 filter keeps
  /// them as independent groups) plus the bound-pinned entry group, and
  /// drop the rows they fully determine, before handing the MILP to
  /// branch-and-bound. The reduction is recorded in a
  /// ReductionCertificate (Artifacts) that verify::
  /// checkReductionCertificate replays against the original problem;
  /// decoded schedules are byte-identical with presolve on or off.
  bool Presolve = true;
  /// Optional precomputed static CFG analysis for Fn (borrowed, not
  /// owned; must outlive the scheduler). When null and a caller asks
  /// for presolve stats, the scheduler computes its own. Used to split
  /// the fixed groups into structurally-dead vs merely-unprofiled in
  /// ScheduleResult.
  const analysis::FunctionAnalysis *Analysis = nullptr;
  MilpOptions Milp;
};

/// The solver-facing instance and its raw answer, retained for
/// independent verification (DvsOptions::KeepArtifacts).
struct SolverArtifacts {
  LpProblem Problem;            ///< bounds include the entry-mode pin
  std::vector<int> IntegerVars; ///< the mode binaries, group-major
  /// Solution in ORIGINAL variable space: with presolve on this is the
  /// reduced optimum expanded through the reduction certificate, so
  /// existing checkCertificate call sites keep working unchanged.
  MilpSolution Solution;
  /// Presolve audit trail (Presolved == false leaves the rest empty).
  bool Presolved = false;
  LpProblem ReducedProblem;
  std::vector<int> ReducedIntegerVars;
  MilpSolution ReducedSolution; ///< raw reduced-space optimum
  ReductionCertificate Reduction;
};

/// Outcome of scheduling: the per-edge assignment plus solver metrics.
struct ScheduleResult {
  ModeAssignment Assignment;
  MilpStatus Status = MilpStatus::Limit;
  double PredictedEnergyJoules = 0.0; ///< MILP objective value
  double SolveSeconds = 0.0;
  long Nodes = 0;
  long LpIterations = 0;
  int NumEdges = 0;
  int NumIndependentGroups = 0;
  int NumBinaries = 0;
  /// MILP size before presolve.
  int NumVars = 0;
  int NumRows = 0;
  /// MILP size actually handed to branch-and-bound (== NumVars/NumRows
  /// when presolve is off).
  int SolvedVars = 0;
  int SolvedRows = 0;
  /// Presolve effect: eliminated columns / dropped rows, how many of
  /// the fixed edge groups were analysis-certified structurally dead
  /// (vs merely unprofiled by these inputs), and the time spent.
  int PresolveVarsFixed = 0;
  int PresolveRowsDropped = 0;
  int PresolveDeadGroups = 0;
  double PresolveSeconds = 0.0;
  /// CPLEX LP-format dump of the solved MILP (only with DvsOptions::
  /// DumpLp).
  std::string LpText;
  /// Problem + raw solution for certificate checking (only with
  /// DvsOptions::KeepArtifacts; shared so results stay cheap to copy).
  std::shared_ptr<const SolverArtifacts> Artifacts;
};

/// Profile-driven MILP DVS scheduler.
class DvsScheduler {
public:
  /// Single-input scheduling. \p Fn must be the function \p Prof was
  /// collected from.
  DvsScheduler(const Function &Fn, const Profile &Prof,
               const ModeTable &Modes, const TransitionModel &Transitions,
               DvsOptions Opts = DvsOptions());

  /// Multi-category scheduling (weighted-average energy objective, one
  /// deadline row per category).
  DvsScheduler(const Function &Fn,
               const std::vector<CategoryProfile> &Categories,
               const ModeTable &Modes, const TransitionModel &Transitions,
               DvsOptions Opts = DvsOptions());

  /// Solves with one common deadline applied to every category.
  ErrorOr<ScheduleResult> schedule(double DeadlineSeconds);

  /// Solves with a per-category deadline (size must match categories).
  ErrorOr<ScheduleResult>
  schedule(const std::vector<double> &DeadlineSeconds);

  /// The number of edges that kept an independent mode variable after
  /// filtering (diagnostics for Figure 14 / Table 3).
  int numIndependentGroups() const;

private:
  const Function &Fn;
  std::vector<CategoryProfile> Categories;
  const ModeTable &Modes;
  const TransitionModel &Transitions;
  DvsOptions Opts;

  /// All edges incl. the virtual entry edge at index 0.
  std::vector<CfgEdge> Edges;
  /// Group representative index per edge (into Edges).
  std::vector<int> GroupOf;
  int NumGroups = 0;
};

} // namespace cdvs

#endif // CDVS_DVS_DVSSCHEDULER_H
