//===- lp/SimplexSolver.h - Bounded-variable primal simplex -----*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact dense two-phase primal simplex solver with native variable
/// bounds (no bound rows). This is the substrate under the MILP
/// branch-and-bound used by the paper's DVS scheduling formulation; the
/// original work used CPLEX, which is proprietary, so we implement the
/// solver from scratch.
///
/// Features:
///  * bounded variables (finite lower bound required, upper may be +inf)
///    handled natively with bound-flip ratio tests;
///  * phase 1 via artificial variables on infeasible rows;
///  * Dantzig pricing with a Bland's-rule fallback after a run of
///    degenerate steps (anti-cycling);
///  * periodic recomputation of basic values from the transformed
///    right-hand side to bound numerical drift.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_LP_SIMPLEXSOLVER_H
#define CDVS_LP_SIMPLEXSOLVER_H

#include "lp/LpProblem.h"

#include <memory>
#include <vector>

namespace cdvs {

/// Outcome of an LP solve.
enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

/// \returns a printable name for an LpStatus.
const char *lpStatusName(LpStatus Status);

/// Solution of an LP: status, objective, and structural variable values.
struct LpSolution {
  LpStatus Status = LpStatus::IterationLimit;
  double Objective = 0.0;
  std::vector<double> X;
  long Iterations = 0;
};

/// Tuning knobs for the simplex solver.
struct SimplexOptions {
  long MaxIterations = 500000;
  /// Entries smaller than this never serve as pivots.
  double PivotTol = 1e-9;
  /// Reduced costs within this of zero count as optimal.
  double CostTol = 1e-7;
  /// Row/bound violations within this count as feasible.
  double FeasTol = 1e-7;
  /// Consecutive degenerate steps before switching to Bland's rule.
  int BlandThreshold = 64;
  /// Recompute basic values from the transformed RHS this often.
  int RefreshInterval = 256;
};

/// Snapshot of a simplex basis over the structural and slack columns.
/// A basis is valid for any problem with the same rows and costs — the
/// branch-and-bound exports a parent node's basis and re-enters it in a
/// child whose only difference is one variable-bound change.
struct SimplexBasis {
  /// Per-column resting state (VarState as unsigned char), size
  /// numVariables() + numRows(). Basic columns are identified by
  /// BasisOfRow, not by this array.
  std::vector<unsigned char> ColState;
  /// Column basic in each row; -1 marks a row whose basic column cannot
  /// be exported (a phase-1 artificial pinned in a redundant row) — the
  /// importer substitutes the row's own slack.
  std::vector<int> BasisOfRow;

  bool empty() const { return BasisOfRow.empty(); }
};

/// Dense two-phase bounded-variable primal simplex.
class SimplexSolver {
public:
  explicit SimplexSolver(const LpProblem &Problem,
                         SimplexOptions Opts = SimplexOptions());

  /// Runs phase 1 (if needed) and phase 2. The solution's X holds only
  /// the structural variables of the original problem.
  LpSolution solve();

  /// Like solve(), but also exports the final basis for warm starts.
  LpSolution solve(SimplexBasis &ExportBasis);

private:
  struct Impl;
  const LpProblem &Problem;
  SimplexOptions Opts;
};

/// Convenience: build a solver and solve.
LpSolution solveLp(const LpProblem &Problem,
                   SimplexOptions Opts = SimplexOptions());

/// A persistent simplex engine for sequences of related solves.
///
/// The engine owns a copy of the problem and keeps the factorized
/// tableau alive between solves. After setBounds() the previous optimal
/// basis is usually dual feasible (costs are unchanged), so solve()
/// repairs primal feasibility with a bounded-variable dual simplex and
/// polishes with primal phase 2 — no tableau rebuild, no phase 1. This
/// is the branch-and-bound's per-node path: one bound change between
/// parent and child, a handful of dual pivots instead of a cold solve.
///
/// Robustness: any numerical doubt (failed refactorization, iteration
/// cap, a warm "optimal" that fails a feasibility check) falls back to
/// the cold two-phase path. After an ill-conditioned pivot a warm
/// verdict must also survive a re-solve on a tableau refactorized from
/// the original rows around the final basis, without a pivot.
class SimplexEngine {
public:
  explicit SimplexEngine(LpProblem Problem,
                         SimplexOptions Opts = SimplexOptions());
  ~SimplexEngine();
  SimplexEngine(SimplexEngine &&) noexcept;
  SimplexEngine &operator=(SimplexEngine &&) noexcept;

  /// The engine's problem copy; bounds reflect every setBounds() call.
  const LpProblem &problem() const;

  /// Changes one structural variable's bounds. Cheap: O(rows) when the
  /// variable is nonbasic, O(1) when basic (the violation, if any, is
  /// repaired by the next solve()).
  void setBounds(int Var, double Lo, double Hi);

  /// Solves the problem at the current bounds: warm from the held basis
  /// when one exists, cold otherwise.
  LpSolution solve();

  /// Exports the basis held after the last solve (empty if none).
  void exportBasis(SimplexBasis &Out) const;

  /// Re-enters \p Basis by refactorizing the tableau around it.
  /// \returns false (and keeps no basis) if the refactorization fails;
  /// the next solve() then runs cold.
  bool loadBasis(const SimplexBasis &Basis);

  /// Solve-path counters (diagnostics for benches/tests/metrics).
  long warmSolves() const;
  long coldSolves() const;
  /// Simplex pivots executed over the engine's lifetime, refactorization
  /// re-pivots included — the truest "simplex effort" odometer the
  /// observability layer exports per B&B worker.
  long totalPivots() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace cdvs

#endif // CDVS_LP_SIMPLEXSOLVER_H
