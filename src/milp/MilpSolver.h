//===- milp/MilpSolver.h - Branch-and-bound MILP solver ---------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact branch-and-bound mixed-integer linear program solver built on
/// the bounded-variable simplex (lp/SimplexSolver.h). The paper solves its
/// DVS mode-assignment MILP with CPLEX; this is the from-scratch
/// replacement.
///
/// Structure exploited for the DVS formulation:
///  * SOS1 groups — each CFG edge's mode variables satisfy sum_m k = 1, so
///    branching picks the most fractional *group* and fixes its most
///    fractional member to 1 / 0 (fixing to 1 collapses the whole group);
///  * a rounding heuristic that snaps each group to its largest LP value
///    and re-solves the continuous rest, giving an early incumbent that
///    makes best-bound pruning effective.
///
/// Search architecture: an explicit node list on a work-stealing worker
/// pool. Each node stores only its bound-change delta against its parent
/// (an O(depth) chain shared between siblings); each worker owns a
/// persistent SimplexEngine whose LP is morphed from node to node by
/// applying the bound diff and re-solving warm from the previous basis —
/// a handful of dual-simplex pivots instead of a cold two-phase solve.
/// Workers share an atomic incumbent used for best-bound pruning.
///
/// The search is exact on natural termination: node exploration order
/// varies with thread count, but every pruning decision compares against
/// a proven incumbent, so the returned objective is the true optimum
/// (within AbsGap) for any NumThreads. An incumbent, from a node or from
/// rounding, must satisfy every row and bound within 1e-6
/// (LpProblem::isFeasible); a candidate LP point that does not marks the
/// search truncated, so the solve ends Feasible or Limit, never Optimal.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_MILP_MILPSOLVER_H
#define CDVS_MILP_MILPSOLVER_H

#include "lp/LpProblem.h"
#include "lp/SimplexSolver.h"

#include <memory>
#include <vector>

namespace cdvs {

/// Outcome of a MILP solve.
enum class MilpStatus {
  Optimal,   ///< Proven optimal incumbent.
  Feasible,  ///< Incumbent found but search truncated (node/time limit).
  Infeasible,///< No integer-feasible point exists.
  Unbounded, ///< LP relaxation unbounded.
  Limit      ///< Search truncated with no incumbent.
};

/// \returns a printable name for a MilpStatus.
const char *milpStatusName(MilpStatus Status);

/// Solution of a MILP solve. The counter block doubles as the solver's
/// Stats surface: tests and the metrics exporter read search effort
/// (nodes, prunes, steals, LP work) from here.
struct MilpSolution {
  MilpStatus Status = MilpStatus::Limit;
  double Objective = 0.0;
  std::vector<double> X;
  long Nodes = 0;
  long LpIterations = 0;
  double RootBound = 0.0;
  long WarmLps = 0; ///< Node LPs solved warm from a held basis.
  long ColdLps = 0; ///< Node LPs that ran the cold two-phase path.
  long LpPivots = 0; ///< Engine pivots, refactorization included.
  long Pruned = 0; ///< Nodes discarded by best-bound pruning.
  long Steals = 0; ///< Nodes a worker took from another's deque.
  long IncumbentUpdates = 0; ///< Times a better integer point was found.
  double SolveSeconds = 0.0; ///< Wall time of the whole search.
};

/// Tuning knobs for the branch-and-bound.
struct MilpOptions {
  double IntTol = 1e-6;     ///< |x - round(x)| below this is integral.
  /// Prune nodes within this of the incumbent. Small because DVS
  /// objectives are joules (~1e-4): a gap of 1e-9 let two searches for
  /// the same optimum stop 1e-5 apart.
  double AbsGap = 1e-12;
  long MaxNodes = 2000000;  ///< Node budget.
  double TimeLimitSec = 600.0;
  bool UseRounding = true;  ///< Enable the group-rounding heuristic.
  /// Worker threads for the tree search; 0 means one per hardware core.
  /// The effective count is additionally capped by the number of integer
  /// variables (tiny trees cannot feed many workers).
  int NumThreads = 0;
  /// Warm-start node LPs from the previous basis (dual simplex repair).
  /// Disable to force the cold two-phase path at every node (ablation).
  bool WarmStart = true;
  SimplexOptions LpOpts;
};

/// Branch-and-bound solver; minimizes the problem's objective.
class MilpSolver {
public:
  /// Takes the problem by value: branching mutates variable bounds.
  MilpSolver(LpProblem Problem, std::vector<int> IntegerVars,
             MilpOptions Opts = MilpOptions());

  /// Registers a SOS1 group: binary variables constrained elsewhere to
  /// sum to one (the caller must have added that row). Improves
  /// branching; membership must be a subset of the integer variables.
  void addSos1Group(std::vector<int> Vars);

  /// Runs the search.
  MilpSolution solve();

private:
  struct Shared;
  struct Worker;
  struct Node;
  void workerLoop(Shared &S, int WorkerIndex);
  void processNode(Shared &S, Worker &W, const std::shared_ptr<Node> &N);
  bool offerIncumbent(Shared &S, double Objective,
                      const std::vector<double> &X);
  bool tryRounding(Shared &S, Worker &W, const std::vector<double> &Relaxed);
  int pickBranchVariable(const std::vector<double> &X) const;

  LpProblem Problem;
  std::vector<int> IntegerVars;
  std::vector<std::vector<int>> Sos1Groups;
  std::vector<int> GroupOfVar; // -1 if not in a group
  MilpOptions Opts;
};

} // namespace cdvs

#endif // CDVS_MILP_MILPSOLVER_H
