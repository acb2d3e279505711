//===- lp/SimplexSolver.cpp - Bounded-variable primal simplex ------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
//
// Tableau layout: one dense row per constraint over columns
//   [0, n)            structural variables
//   [n, n+m)          slack variables (one per row; GE rows are negated to
//                     LE on input, so every slack has bounds [0, +inf) for
//                     LE rows and [0, 0] for EQ rows)
//   [n+m, n+m+a)      phase-1 artificial variables
//   n+m+a             the transformed right-hand side
//
// Nonbasic variables rest at a bound (every variable has a finite lower
// bound by LpProblem's contract). Basic values are maintained
// incrementally in Beta and refreshed periodically from the transformed
// RHS to bound numerical drift.
//
// The same Core drives two front ends:
//  * SimplexSolver — one-shot cold solve: build, phase 1 via artificials,
//    phase 2 primal;
//  * SimplexEngine — persistent warm solves: after a bound change the old
//    basis stays dual feasible (costs are untouched), so a bounded-
//    variable dual simplex restores primal feasibility and primal phase 2
//    finishes. A basis snapshot (SimplexBasis) can be exported and
//    re-entered by refactorizing a raw tableau around it.
//
// The dual phase's infeasibility verdict does not lean on reduced costs:
// when no entering column is sign-eligible for a violated row, that row
// alone certifies primal infeasibility (every nonbasic movement pushes
// the basic variable further out of bounds), which is what makes it safe
// for branch-and-bound pruning.
//
//===----------------------------------------------------------------------===//

#include "lp/SimplexSolver.h"

#include "support/Error.h"

#include <algorithm>
#include <cmath>

using namespace cdvs;

const char *cdvs::lpStatusName(LpStatus Status) {
  switch (Status) {
  case LpStatus::Optimal:
    return "optimal";
  case LpStatus::Infeasible:
    return "infeasible";
  case LpStatus::Unbounded:
    return "unbounded";
  case LpStatus::IterationLimit:
    return "iteration-limit";
  }
  cdvsUnreachable("bad LpStatus");
}

namespace {

enum class VarState : unsigned char { AtLower, AtUpper, Basic };

struct Core {
  const LpProblem *P;
  SimplexOptions O;

  int NumStruct = 0;
  int NumRows = 0;
  int NumArt = 0;
  int NumCols = 0; // structural + slack + artificial
  int RhsCol = 0;  // == NumCols

  std::vector<double> Tab; // NumRows x (NumCols + 1)
  std::vector<double> Lo, Hi;
  std::vector<VarState> State;
  std::vector<int> BasisOfRow;
  std::vector<int> RowOfBasic;
  std::vector<double> Beta;
  std::vector<double> D;
  long Iterations = 0;
  long IterBase = 0; // Iterations at the start of the current solve
  long TotalPivots = 0;
  int DegenRun = 0;
  /// Set by a pivot on an entry tiny against its column, which can
  /// leave the tableau far from the original rows; cleared by a rebuild.
  bool IllConditioned = false;

  Core(const LpProblem *P, SimplexOptions O) : P(P), O(O) {}

  double &at(int R, int C) {
    return Tab[static_cast<size_t>(R) * (NumCols + 1) + C];
  }
  double atC(int R, int C) const {
    return Tab[static_cast<size_t>(R) * (NumCols + 1) + C];
  }

  bool isArtificial(int C) const { return C >= NumStruct + NumRows; }

  double boundValue(int C) const {
    return State[C] == VarState::AtUpper ? Hi[C] : Lo[C];
  }

  void buildCold();
  void buildRaw();
  void computeReducedCosts(const std::vector<double> &Costs);
  void computePhase2Costs();
  void pivot(int Row, int Col);
  void refreshBeta();
  LpStatus runPhase();
  LpStatus dualPhase(long Cap);
  bool driveOutArtificials();
  double phase1Infeasibility() const;
  LpSolution finish(LpStatus Status);

  LpSolution solveCold();
  LpSolution solveWarm(long DualCap);

  void setBounds(int Var, double Lo, double Hi);
  void exportBasis(SimplexBasis &B) const;
  bool refactorizeFrom(const SimplexBasis &B);
};

void Core::buildCold() {
  NumStruct = P->numVariables();
  NumRows = P->numRows();

  // First pass: initial slack values with all structurals at lower bound.
  std::vector<double> SlackVal(NumRows, 0.0);
  std::vector<bool> NeedsArt(NumRows, false);
  for (int I = 0; I < NumRows; ++I) {
    double Sign = P->sense(I) == RowSense::GE ? -1.0 : 1.0;
    double Act = 0.0;
    for (const LpTerm &T : P->rowTerms(I))
      Act += Sign * T.Coeff * P->lowerBound(T.Var);
    double B = Sign * P->rhs(I);
    double S = B - Act;
    SlackVal[I] = S;
    bool IsEq = P->sense(I) == RowSense::EQ;
    if (S < -O.FeasTol || (IsEq && S > O.FeasTol))
      NeedsArt[I] = true;
  }
  NumArt = static_cast<int>(
      std::count(NeedsArt.begin(), NeedsArt.end(), true));
  NumCols = NumStruct + NumRows + NumArt;
  RhsCol = NumCols;

  IllConditioned = false;
  Tab.assign(static_cast<size_t>(NumRows) * (NumCols + 1), 0.0);
  Lo.assign(NumCols, 0.0);
  Hi.assign(NumCols, 0.0);
  State.assign(NumCols, VarState::AtLower);
  BasisOfRow.assign(NumRows, -1);
  RowOfBasic.assign(NumCols, -1);
  Beta.assign(NumRows, 0.0);
  D.assign(NumCols, 0.0);

  for (int J = 0; J < NumStruct; ++J) {
    Lo[J] = P->lowerBound(J);
    Hi[J] = P->upperBound(J);
  }

  int NextArt = NumStruct + NumRows;
  for (int I = 0; I < NumRows; ++I) {
    double Sign = P->sense(I) == RowSense::GE ? -1.0 : 1.0;
    for (const LpTerm &T : P->rowTerms(I))
      at(I, T.Var) += Sign * T.Coeff;
    int SlackCol = NumStruct + I;
    at(I, SlackCol) = 1.0;
    Lo[SlackCol] = 0.0;
    Hi[SlackCol] = P->sense(I) == RowSense::EQ ? 0.0 : lpInf();
    at(I, RhsCol) = Sign * P->rhs(I);

    if (NeedsArt[I]) {
      int ArtCol = NextArt++;
      double G = SlackVal[I] < 0.0 ? -1.0 : 1.0;
      // The artificial must enter the basis as a unit column: scale the
      // whole row by G so the artificial's coefficient is +1 and its
      // basic value |SlackVal| is nonnegative.
      if (G < 0.0)
        for (int C = 0; C <= NumCols; ++C)
          at(I, C) = -at(I, C);
      at(I, ArtCol) = 1.0;
      Lo[ArtCol] = 0.0;
      Hi[ArtCol] = lpInf();
      BasisOfRow[I] = ArtCol;
      RowOfBasic[ArtCol] = I;
      State[ArtCol] = VarState::Basic;
      State[SlackCol] = VarState::AtLower;
      Beta[I] = std::fabs(SlackVal[I]);
    } else {
      BasisOfRow[I] = SlackCol;
      RowOfBasic[SlackCol] = I;
      State[SlackCol] = VarState::Basic;
      Beta[I] = SlackVal[I];
    }
  }
}

void Core::buildRaw() {
  // Artificial-free layout with the all-slack basis; used as the canvas
  // for refactorizing around an imported basis.
  NumStruct = P->numVariables();
  NumRows = P->numRows();
  NumArt = 0;
  NumCols = NumStruct + NumRows;
  RhsCol = NumCols;

  IllConditioned = false;
  Tab.assign(static_cast<size_t>(NumRows) * (NumCols + 1), 0.0);
  Lo.assign(NumCols, 0.0);
  Hi.assign(NumCols, 0.0);
  State.assign(NumCols, VarState::AtLower);
  BasisOfRow.assign(NumRows, -1);
  RowOfBasic.assign(NumCols, -1);
  Beta.assign(NumRows, 0.0);
  D.assign(NumCols, 0.0);

  for (int J = 0; J < NumStruct; ++J) {
    Lo[J] = P->lowerBound(J);
    Hi[J] = P->upperBound(J);
  }
  for (int I = 0; I < NumRows; ++I) {
    double Sign = P->sense(I) == RowSense::GE ? -1.0 : 1.0;
    for (const LpTerm &T : P->rowTerms(I))
      at(I, T.Var) += Sign * T.Coeff;
    int SlackCol = NumStruct + I;
    at(I, SlackCol) = 1.0;
    Lo[SlackCol] = 0.0;
    Hi[SlackCol] = P->sense(I) == RowSense::EQ ? 0.0 : lpInf();
    at(I, RhsCol) = Sign * P->rhs(I);
  }
}

void Core::computeReducedCosts(const std::vector<double> &Costs) {
  D = Costs;
  D.resize(NumCols, 0.0);
  for (int I = 0; I < NumRows; ++I) {
    double Cb = Costs[BasisOfRow[I]];
    if (Cb == 0.0)
      continue;
    for (int C = 0; C < NumCols; ++C)
      D[C] -= Cb * atC(I, C);
  }
  for (int I = 0; I < NumRows; ++I)
    D[BasisOfRow[I]] = 0.0;
}

void Core::computePhase2Costs() {
  // Pricing compares reduced costs with an absolute CostTol, so scale
  // the costs to a largest magnitude of 1. DVS costs are joules
  // (1e-9..1e-4), where an unscaled 1e-7 would call whole transition-
  // energy columns optimal already.
  double MaxCost = 0.0;
  for (int C = 0; C < NumStruct; ++C)
    MaxCost = std::max(MaxCost, std::fabs(P->cost(C)));
  double Scale = MaxCost > 0.0 ? 1.0 / MaxCost : 1.0;
  std::vector<double> Costs(NumCols, 0.0);
  for (int C = 0; C < NumStruct; ++C)
    Costs[C] = P->cost(C) * Scale;
  computeReducedCosts(Costs);
}

void Core::pivot(int Row, int Col) {
  double Piv = at(Row, Col);
  assert(std::fabs(Piv) > 1e-12 && "pivot too small");
  // DVS rows put joules beside seconds, so the ratio tests can pick an
  // entry nine orders below its column's largest; such a pivot amplifies
  // rounding into the whole tableau. Flag it for the engine's re-check.
  double ColMax = 0.0;
  for (int I = 0; I < NumRows; ++I)
    ColMax = std::max(ColMax, std::fabs(atC(I, Col)));
  if (std::fabs(Piv) < 1e-9 * ColMax)
    IllConditioned = true;
  double Inv = 1.0 / Piv;
  for (int C = 0; C <= NumCols; ++C)
    at(Row, C) *= Inv;
  at(Row, Col) = 1.0;
  for (int I = 0; I < NumRows; ++I) {
    if (I == Row)
      continue;
    // Eliminate every nonzero: skipping a "tiny" one (the old 1e-13
    // cut) leaves that row out of step with the basis, and entries that
    // small are real here — the tableau then certified optima that were
    // not (adpcm/rossini at 4 levels: 335.575 uJ claimed, 329.810 true).
    double F = at(I, Col);
    if (F == 0.0) {
      at(I, Col) = 0.0;
      continue;
    }
    for (int C = 0; C <= NumCols; ++C)
      at(I, C) -= F * at(Row, C);
    at(I, Col) = 0.0;
  }
  double Fd = D[Col];
  if (Fd != 0.0) {
    for (int C = 0; C < NumCols; ++C)
      D[C] -= Fd * at(Row, C);
    D[Col] = 0.0;
  }
  ++TotalPivots;
}

void Core::refreshBeta() {
  // Beta = transformed RHS minus contributions of nonbasic columns that
  // rest at a nonzero bound.
  std::vector<std::pair<int, double>> NonzeroNonbasic;
  for (int C = 0; C < NumCols; ++C) {
    if (State[C] == VarState::Basic)
      continue;
    double V = boundValue(C);
    if (V != 0.0)
      NonzeroNonbasic.push_back({C, V});
  }
  for (int I = 0; I < NumRows; ++I) {
    double V = atC(I, RhsCol);
    for (const auto &[C, Val] : NonzeroNonbasic)
      V -= atC(I, C) * Val;
    Beta[I] = V;
  }
}

LpStatus Core::runPhase() {
  for (;;) {
    if (Iterations - IterBase >= O.MaxIterations)
      return LpStatus::IterationLimit;
    bool UseBland = DegenRun > O.BlandThreshold;

    // Pricing: pick the entering column.
    int Enter = -1;
    double BestScore = 0.0;
    for (int C = 0; C < NumCols; ++C) {
      if (State[C] == VarState::Basic || Lo[C] == Hi[C])
        continue;
      double Dc = D[C];
      bool Eligible = (State[C] == VarState::AtLower && Dc < -O.CostTol) ||
                      (State[C] == VarState::AtUpper && Dc > O.CostTol);
      if (!Eligible)
        continue;
      if (UseBland) {
        Enter = C;
        break;
      }
      double Score = std::fabs(Dc);
      if (Score > BestScore) {
        BestScore = Score;
        Enter = C;
      }
    }
    if (Enter < 0)
      return LpStatus::Optimal;

    double Dir = State[Enter] == VarState::AtLower ? 1.0 : -1.0;

    // Ratio test: smallest step that drives a basic variable to a bound,
    // or the entering variable's own bound span (a bound flip).
    double BestT = Hi[Enter] - Lo[Enter]; // may be +inf
    int LeaveRow = -1;
    bool LeaveAtUpper = false;
    double BestAlpha = 0.0;
    for (int I = 0; I < NumRows; ++I) {
      double Alpha = atC(I, Enter);
      double W = Dir * Alpha;
      int BCol = BasisOfRow[I];
      double Lim;
      bool ToUpper;
      if (W > O.PivotTol) {
        Lim = (Beta[I] - Lo[BCol]) / W;
        ToUpper = false;
      } else if (W < -O.PivotTol && std::isfinite(Hi[BCol])) {
        Lim = (Hi[BCol] - Beta[I]) / (-W);
        ToUpper = true;
      } else {
        continue;
      }
      if (Lim < 0.0)
        Lim = 0.0;
      bool Better = Lim < BestT - 1e-12;
      bool Tie = !Better && Lim < BestT + 1e-12 && LeaveRow >= 0;
      if (Tie) {
        if (UseBland)
          Better = BCol < BasisOfRow[LeaveRow];
        else
          Better = std::fabs(Alpha) > std::fabs(BestAlpha);
      } else if (!Better && LeaveRow < 0 && Lim <= BestT) {
        Better = true;
      }
      if (Better) {
        BestT = Lim;
        LeaveRow = I;
        LeaveAtUpper = ToUpper;
        BestAlpha = Alpha;
      }
    }

    if (!std::isfinite(BestT))
      return LpStatus::Unbounded;
    if (BestT < 0.0)
      BestT = 0.0;

    ++Iterations;
    if (BestT < 1e-11)
      ++DegenRun;
    else
      DegenRun = 0;

    if (LeaveRow < 0) {
      // Bound flip: the entering variable runs to its opposite bound.
      for (int I = 0; I < NumRows; ++I)
        Beta[I] -= Dir * BestT * atC(I, Enter);
      State[Enter] = State[Enter] == VarState::AtLower ? VarState::AtUpper
                                                       : VarState::AtLower;
    } else {
      double EnterVal = boundValue(Enter) + Dir * BestT;
      for (int I = 0; I < NumRows; ++I) {
        if (I != LeaveRow)
          Beta[I] -= Dir * BestT * atC(I, Enter);
      }
      int LeaveCol = BasisOfRow[LeaveRow];
      State[LeaveCol] =
          LeaveAtUpper ? VarState::AtUpper : VarState::AtLower;
      RowOfBasic[LeaveCol] = -1;
      BasisOfRow[LeaveRow] = Enter;
      RowOfBasic[Enter] = LeaveRow;
      State[Enter] = VarState::Basic;
      Beta[LeaveRow] = EnterVal;
      pivot(LeaveRow, Enter);
    }

    if ((Iterations - IterBase) % O.RefreshInterval == 0)
      refreshBeta();
  }
}

LpStatus Core::dualPhase(long Cap) {
  // Bounded-variable dual simplex: drive out basic variables that violate
  // their bounds while the (unchanged) costs keep the basis dual feasible.
  long Start = Iterations;
  for (;;) {
    if (Iterations - Start >= Cap)
      return LpStatus::IterationLimit;

    // Leaving: the most-violated basic variable.
    int Row = -1;
    bool ViolLower = false;
    double BestViol = O.FeasTol;
    for (int I = 0; I < NumRows; ++I) {
      int B = BasisOfRow[I];
      double VLo = Lo[B] - Beta[I];
      if (VLo > BestViol) {
        BestViol = VLo;
        Row = I;
        ViolLower = true;
      }
      if (std::isfinite(Hi[B])) {
        double VHi = Beta[I] - Hi[B];
        if (VHi > BestViol) {
          BestViol = VHi;
          Row = I;
          ViolLower = false;
        }
      }
    }
    if (Row < 0)
      return LpStatus::Optimal; // primal feasible

    int BCol = BasisOfRow[Row];
    double Delta = ViolLower ? Beta[Row] - Lo[BCol] : Beta[Row] - Hi[BCol];

    // Entering: minimum dual ratio |D|/|alpha| over sign-eligible
    // nonbasic columns. If none is eligible, the row itself certifies
    // primal infeasibility: every admissible nonbasic move pushes the
    // basic variable further outside its bound, independent of D.
    int Enter = -1;
    double BestRatio = std::numeric_limits<double>::infinity();
    double BestAlpha = 0.0;
    for (int C = 0; C < NumCols; ++C) {
      if (State[C] == VarState::Basic || Lo[C] == Hi[C])
        continue;
      double Alpha = atC(Row, C);
      bool AtLowerC = State[C] == VarState::AtLower;
      bool Eligible;
      if (ViolLower)
        Eligible = (AtLowerC && Alpha < -O.PivotTol) ||
                   (!AtLowerC && Alpha > O.PivotTol);
      else
        Eligible = (AtLowerC && Alpha > O.PivotTol) ||
                   (!AtLowerC && Alpha < -O.PivotTol);
      if (!Eligible)
        continue;
      double Ratio = std::fabs(D[C]) / std::fabs(Alpha);
      bool Better =
          Ratio < BestRatio - 1e-12 ||
          (Ratio < BestRatio + 1e-12 &&
           std::fabs(Alpha) > std::fabs(BestAlpha));
      if (Better) {
        BestRatio = Ratio;
        Enter = C;
        BestAlpha = Alpha;
      }
    }
    if (Enter < 0)
      return LpStatus::Infeasible;

    ++Iterations;
    double T = Delta / BestAlpha; // entering step away from its bound
    double EnterVal = boundValue(Enter) + T;
    for (int I = 0; I < NumRows; ++I)
      if (I != Row)
        Beta[I] -= T * atC(I, Enter);
    State[BCol] = ViolLower ? VarState::AtLower : VarState::AtUpper;
    RowOfBasic[BCol] = -1;
    BasisOfRow[Row] = Enter;
    RowOfBasic[Enter] = Row;
    State[Enter] = VarState::Basic;
    Beta[Row] = EnterVal;
    pivot(Row, Enter);

    if ((Iterations - Start) % O.RefreshInterval == 0)
      refreshBeta();
  }
}

double Core::phase1Infeasibility() const {
  double Sum = 0.0;
  for (int I = 0; I < NumRows; ++I)
    if (isArtificial(BasisOfRow[I]))
      Sum += std::max(0.0, Beta[I]);
  return Sum;
}

bool Core::driveOutArtificials() {
  for (int I = 0; I < NumRows; ++I) {
    int BCol = BasisOfRow[I];
    if (!isArtificial(BCol))
      continue;
    // The artificial sits at value ~0. Exchange it for any real column
    // with a usable pivot entry; if none, the row is redundant and the
    // artificial stays basic, pinned to zero.
    int Pick = -1;
    for (int C = 0; C < NumStruct + NumRows; ++C) {
      if (State[C] == VarState::Basic)
        continue;
      if (std::fabs(atC(I, C)) > 1e-7) {
        Pick = C;
        break;
      }
    }
    if (Pick < 0)
      continue;
    double EnterVal = boundValue(Pick);
    State[BCol] = VarState::AtLower;
    RowOfBasic[BCol] = -1;
    BasisOfRow[I] = Pick;
    RowOfBasic[Pick] = I;
    State[Pick] = VarState::Basic;
    Beta[I] = EnterVal;
    pivot(I, Pick);
  }
  // Pin every artificial (basic or not) to zero so phase 2 cannot use it.
  for (int C = NumStruct + NumRows; C < NumCols; ++C) {
    Lo[C] = 0.0;
    Hi[C] = 0.0;
  }
  return true;
}

LpSolution Core::finish(LpStatus Status) {
  LpSolution Sol;
  Sol.Status = Status;
  Sol.Iterations = Iterations - IterBase;
  Sol.X.assign(NumStruct, 0.0);
  for (int J = 0; J < NumStruct; ++J) {
    if (State[J] == VarState::Basic)
      Sol.X[J] = Beta[RowOfBasic[J]];
    else
      Sol.X[J] = boundValue(J);
    // Clamp tiny bound violations from numerical drift.
    Sol.X[J] = std::min(std::max(Sol.X[J], Lo[J]), Hi[J]);
  }
  Sol.Objective = P->objectiveAt(Sol.X);
  return Sol;
}

LpSolution Core::solveCold() {
  IterBase = Iterations;
  buildCold();

  if (NumArt > 0) {
    std::vector<double> Phase1Cost(NumCols, 0.0);
    for (int C = NumStruct + NumRows; C < NumCols; ++C)
      Phase1Cost[C] = 1.0;
    DegenRun = 0;
    computeReducedCosts(Phase1Cost);
    LpStatus S = runPhase();
    if (S == LpStatus::IterationLimit)
      return finish(S);
    assert(S != LpStatus::Unbounded && "phase 1 cannot be unbounded");
    refreshBeta();
    if (phase1Infeasibility() > O.FeasTol * 10.0)
      return finish(LpStatus::Infeasible);
    driveOutArtificials();
  }

  DegenRun = 0;
  computePhase2Costs();
  LpStatus S = runPhase();
  refreshBeta();
  return finish(S);
}

LpSolution Core::solveWarm(long DualCap) {
  IterBase = Iterations;
  // Costs never change between warm solves, so the held basis is dual
  // feasible; recompute D and Beta exactly to shed incremental drift.
  computePhase2Costs();
  refreshBeta();
  DegenRun = 0;
  LpStatus S = dualPhase(DualCap);
  if (S == LpStatus::Optimal)
    S = runPhase();
  refreshBeta();
  return finish(S);
}

void Core::setBounds(int Var, double NewLo, double NewHi) {
  assert(Var >= 0 && Var < NumStruct && "not a structural variable");
  Lo[Var] = NewLo;
  Hi[Var] = NewHi;
  // A nonbasic variable must rest at an existing bound; Beta is
  // recomputed from the resting values at the start of the next warm
  // solve (refreshBeta), so only the state needs fixing here.
  if (State[Var] == VarState::AtUpper && !std::isfinite(NewHi))
    State[Var] = VarState::AtLower;
}

void Core::exportBasis(SimplexBasis &B) const {
  int NumReal = NumStruct + NumRows;
  B.ColState.assign(NumReal, 0);
  for (int C = 0; C < NumReal; ++C)
    B.ColState[C] = static_cast<unsigned char>(State[C]);
  B.BasisOfRow.assign(NumRows, -1);
  for (int I = 0; I < NumRows; ++I)
    if (!isArtificial(BasisOfRow[I]))
      B.BasisOfRow[I] = BasisOfRow[I];
}

bool Core::refactorizeFrom(const SimplexBasis &B) {
  if (static_cast<int>(B.BasisOfRow.size()) != P->numRows() ||
      static_cast<int>(B.ColState.size()) !=
          P->numVariables() + P->numRows())
    return false;
  buildRaw();

  // Nonbasic resting states from the snapshot (Basic entries are set
  // below as rows are pivoted in).
  for (int C = 0; C < NumCols; ++C) {
    auto S = static_cast<VarState>(B.ColState[C]);
    State[C] = S == VarState::AtUpper && std::isfinite(Hi[C])
                   ? VarState::AtUpper
                   : VarState::AtLower;
  }

  // The basic set: the snapshot's basic columns, plus the own slack of
  // each row whose export was an artificial (-1), when still free.
  std::vector<int> Cols;
  std::vector<char> ColUsed(NumCols, 0);
  for (int I = 0; I < NumRows; ++I) {
    int C = B.BasisOfRow[I];
    if (C >= 0 && C < NumCols && !ColUsed[C]) {
      Cols.push_back(C);
      ColUsed[C] = 1;
    }
  }
  for (int I = 0; I < NumRows; ++I) {
    int SlackCol = NumStruct + I;
    if (B.BasisOfRow[I] < 0 && !ColUsed[SlackCol]) {
      Cols.push_back(SlackCol);
      ColUsed[SlackCol] = 1;
    }
  }

  auto installBasic = [&](int Row, int Col) {
    State[Col] = VarState::Basic;
    BasisOfRow[Row] = Col;
    RowOfBasic[Col] = Row;
    pivot(Row, Col);
  };

  // Gaussian elimination with partial pivoting: each basic column enters
  // on the unassigned row where its entry is largest. The snapshot's
  // row of a column is irrelevant (a column basic in row I of the
  // transformed tableau may be zero in raw row I); only the set counts.
  // A column with no usable entry left depends on those before it and
  // gives its place to the largest remaining entry of an unused column.
  std::vector<char> Done(NumRows, 0);
  int Remaining = NumRows;
  for (int C : Cols) {
    int Row = -1;
    double BestA = O.PivotTol;
    for (int I = 0; I < NumRows; ++I)
      if (!Done[I] && std::fabs(at(I, C)) > BestA) {
        BestA = std::fabs(at(I, C));
        Row = I;
      }
    if (Row < 0) {
      ColUsed[C] = 0;
      continue;
    }
    installBasic(Row, C);
    Done[Row] = 1;
    --Remaining;
  }
  while (Remaining > 0) {
    int PickRow = -1, PickCol = -1;
    double BestA = O.PivotTol;
    for (int I = 0; I < NumRows; ++I) {
      if (Done[I])
        continue;
      for (int C = 0; C < NumCols; ++C)
        if (!ColUsed[C] && std::fabs(at(I, C)) > BestA) {
          BestA = std::fabs(at(I, C));
          PickRow = I;
          PickCol = C;
        }
    }
    if (PickRow < 0)
      return false;
    ColUsed[PickCol] = 1;
    installBasic(PickRow, PickCol);
    Done[PickRow] = 1;
    --Remaining;
  }

  refreshBeta();
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// SimplexSolver: one-shot cold solves
//===----------------------------------------------------------------------===//

struct SimplexSolver::Impl : Core {
  using Core::Core;
};

SimplexSolver::SimplexSolver(const LpProblem &Problem, SimplexOptions Opts)
    : Problem(Problem), Opts(Opts) {}

LpSolution SimplexSolver::solve() {
  Impl I(&Problem, Opts);
  return I.solveCold();
}

LpSolution SimplexSolver::solve(SimplexBasis &ExportBasis) {
  Impl I(&Problem, Opts);
  LpSolution S = I.solveCold();
  I.exportBasis(ExportBasis);
  return S;
}

LpSolution cdvs::solveLp(const LpProblem &Problem, SimplexOptions Opts) {
  return SimplexSolver(Problem, Opts).solve();
}

//===----------------------------------------------------------------------===//
// SimplexEngine: persistent warm-started solves
//===----------------------------------------------------------------------===//

struct SimplexEngine::Impl {
  LpProblem P; // owned; address-stable behind the unique_ptr
  Core C;
  bool HasBasis = false;
  long PivotsAtRebuild = 0;
  long Warm = 0, Cold = 0;

  /// Full refactorization cadence: a cold solve performs on the order of
  /// rows-many pivots with no refactorization at all, so re-pivoting the
  /// basis from a raw tableau every few thousand pivots keeps the warm
  /// path's accumulated error no worse than the cold baseline's.
  static constexpr long RebuildPivots = 2048;

  Impl(LpProblem Problem, SimplexOptions Opts)
      : P(std::move(Problem)), C(&P, Opts) {}

  LpSolution solve();
};

LpSolution SimplexEngine::Impl::solve() {
  if (HasBasis && C.TotalPivots - PivotsAtRebuild > RebuildPivots) {
    SimplexBasis B;
    C.exportBasis(B);
    HasBasis = C.refactorizeFrom(B);
    PivotsAtRebuild = C.TotalPivots;
  }

  if (HasBasis) {
    long DualCap = 64 + 4L * (C.NumRows + C.NumStruct);
    LpSolution S = C.solveWarm(DualCap);
    bool Trust = false;
    switch (S.Status) {
    case LpStatus::Optimal:
      // Cheap end-to-end check against the original rows; any violation
      // beyond what the cold path would tolerate voids the warm result.
      Trust = P.isFeasible(S.X, 1e-5);
      break;
    case LpStatus::Infeasible:
    case LpStatus::Unbounded:
      Trust = true;
      break;
    case LpStatus::IterationLimit:
      Trust = false;
      break;
    }
    if (Trust && C.IllConditioned && S.Status != LpStatus::Unbounded) {
      // An ill-conditioned pivot since the last rebuild can leave a
      // tableau that claims optimality or infeasibility for a basis with
      // neither property, while the primal check above still passes.
      // The verdict stands only if a tableau rebuilt from the original
      // rows around the final basis reaches it again without a pivot.
      SimplexBasis B;
      C.exportBasis(B);
      Trust = C.refactorizeFrom(B);
      PivotsAtRebuild = C.TotalPivots;
      if (Trust) {
        LpSolution Check = C.solveWarm(DualCap);
        Trust = Check.Status == S.Status && Check.Iterations == 0;
        Check.Iterations = S.Iterations;
        S = std::move(Check);
      }
    }
    if (Trust) {
      ++Warm;
      return S;
    }
    HasBasis = false;
  }

  ++Cold;
  LpSolution S = C.solveCold();
  PivotsAtRebuild = C.TotalPivots;
  HasBasis = S.Status == LpStatus::Optimal;
  return S;
}

SimplexEngine::SimplexEngine(LpProblem Problem, SimplexOptions Opts)
    : I(std::make_unique<Impl>(std::move(Problem), Opts)) {}

SimplexEngine::~SimplexEngine() = default;
SimplexEngine::SimplexEngine(SimplexEngine &&) noexcept = default;
SimplexEngine &SimplexEngine::operator=(SimplexEngine &&) noexcept = default;

const LpProblem &SimplexEngine::problem() const { return I->P; }

void SimplexEngine::setBounds(int Var, double Lo, double Hi) {
  I->P.setBounds(Var, Lo, Hi);
  // Before any solve the tableau is empty; bounds are picked up by the
  // first (cold) build instead.
  if (I->C.NumCols > 0)
    I->C.setBounds(Var, Lo, Hi);
}

LpSolution SimplexEngine::solve() { return I->solve(); }

void SimplexEngine::exportBasis(SimplexBasis &Out) const {
  if (I->HasBasis)
    I->C.exportBasis(Out);
  else {
    Out.ColState.clear();
    Out.BasisOfRow.clear();
  }
}

bool SimplexEngine::loadBasis(const SimplexBasis &Basis) {
  if (Basis.empty()) {
    I->HasBasis = false;
    return false;
  }
  I->HasBasis = I->C.refactorizeFrom(Basis);
  I->PivotsAtRebuild = I->C.TotalPivots;
  return I->HasBasis;
}

long SimplexEngine::warmSolves() const { return I->Warm; }
long SimplexEngine::coldSolves() const { return I->Cold; }
long SimplexEngine::totalPivots() const { return I->C.TotalPivots; }
