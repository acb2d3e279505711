//===- milp/MilpSolver.cpp - Branch-and-bound MILP solver ----------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
//
// Parallel explicit-node-list branch-and-bound.
//
// Each worker owns a mutex-guarded deque of nodes: it pushes/pops children
// at the back (depth-first, so the engine's basis is almost always the
// just-solved parent's) and victims are stolen from the front (the
// shallowest, largest subtrees — the classic B&B stealing policy). A node
// is just a bound-change delta chained to its parent, so the live tree
// costs O(depth) per branch path and siblings share their prefix.
//
// Per worker there is one persistent SimplexEngine; moving from the
// previously solved node to the next applies the bound diff between the
// two and re-solves warm (dual simplex repair from the held basis). The
// incumbent is shared through an atomic mirror for lock-free pruning
// reads, with a mutex protecting the authoritative value and its X.
//
// The search never prunes against anything but a proven incumbent, so the
// final objective equals the serial solver's within AbsGap regardless of
// thread count or exploration order. An incumbent is proven when the
// point satisfies the problem's rows and bounds; a candidate that does
// not truncates the search rather than becoming the answer.
//
//===----------------------------------------------------------------------===//

#include "milp/MilpSolver.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Clock.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

using namespace cdvs;

const char *cdvs::milpStatusName(MilpStatus Status) {
  switch (Status) {
  case MilpStatus::Optimal:
    return "optimal";
  case MilpStatus::Feasible:
    return "feasible";
  case MilpStatus::Infeasible:
    return "infeasible";
  case MilpStatus::Unbounded:
    return "unbounded";
  case MilpStatus::Limit:
    return "limit";
  }
  cdvsUnreachable("bad MilpStatus");
}

/// Deeper nodes re-run the rounding heuristic after this many nodes have
/// been processed by the *same worker* since its last rounding attempt.
/// (A global node counter would almost never hit an exact multiple per
/// worker once several workers interleave increments.)
static constexpr long RoundingInterval = 512;

/// One tree node: a single bound change relative to the parent. The root
/// has Var == -1 and carries no change.
struct MilpSolver::Node {
  std::shared_ptr<const Node> Parent;
  int Var = -1;
  double Lo = 0.0, Hi = 0.0;
  /// Parent's LP relaxation objective: a valid lower bound for the whole
  /// subtree, used for best-bound pruning before the node's LP is solved.
  double Bound = -std::numeric_limits<double>::infinity();
  int Depth = 0;
};

struct MilpSolver::Worker {
  /// Lazily built so workers that never receive a node (tiny trees)
  /// never pay for a problem copy or tableau.
  std::unique_ptr<SimplexEngine> Engine;
  /// Bounds currently applied to Engine, indexed by variable.
  std::vector<double> CurLo, CurHi;
  /// Scratch for resolving a node's absolute bounds.
  std::vector<double> NewLo, NewHi;
  std::vector<long> Mark; // epoch marks for delta-chain resolution
  long Epoch = 0;
  long SinceRounding = 0;
  long LpIterations = 0;
  long ColdLps = 0; // cold solves issued outside the engine (WarmStart off)
  long Pruned = 0;  // best-bound prunes (pre-LP and post-LP)
  int Index = 0;    // this worker's slot in Shared::Queues
};

struct MilpSolver::Shared {
  std::deque<Worker> Workers; // deque: Worker holds an engine, keep stable
  /// The node deques, one per worker, with front-stealing (see
  /// support/ThreadPool.h). Built once NumWorkers is known.
  std::unique_ptr<WorkStealingDeques<std::shared_ptr<Node>>> Queues;
  std::atomic<long> NodesSolved{0};
  std::atomic<long> IncumbentUpdates{0};
  /// Nodes pushed but not yet fully processed; 0 means the tree is
  /// exhausted and idle workers may exit.
  std::atomic<long> Outstanding{0};
  std::atomic<bool> Truncated{false};
  std::atomic<bool> RootUnbounded{false};
  /// Lock-free mirror of IncumbentVal for pruning reads.
  std::atomic<double> Incumbent{std::numeric_limits<double>::infinity()};
  std::mutex IncM;
  double IncumbentVal = std::numeric_limits<double>::infinity();
  std::vector<double> BestX; // guarded by IncM
  double RootBound = 0.0;    // written only by the root node's worker
  std::chrono::steady_clock::time_point Deadline;
  int NumWorkers = 1;
};

MilpSolver::MilpSolver(LpProblem Problem, std::vector<int> IntegerVars,
                       MilpOptions Opts)
    : Problem(std::move(Problem)), IntegerVars(std::move(IntegerVars)),
      Opts(Opts) {
  GroupOfVar.assign(this->Problem.numVariables(), -1);
}

void MilpSolver::addSos1Group(std::vector<int> Vars) {
  int Group = static_cast<int>(Sos1Groups.size());
  for (int V : Vars) {
    assert(V >= 0 && V < Problem.numVariables() && "unknown variable");
    assert(GroupOfVar[V] == -1 && "variable in two SOS1 groups");
    GroupOfVar[V] = Group;
  }
  Sos1Groups.push_back(std::move(Vars));
}

/// Distance of \p X from the nearest integer.
static double fractionality(double X) {
  return std::fabs(X - std::round(X));
}

int MilpSolver::pickBranchVariable(const std::vector<double> &X) const {
  // Prefer SOS1-group branching: pick the group with the largest total
  // fractionality, then its most fractional member.
  int BestVar = -1;
  double BestGroupScore = 0.0;
  for (const auto &Group : Sos1Groups) {
    double Score = 0.0;
    int GroupVar = -1;
    double GroupVarFrac = 0.0;
    for (int V : Group) {
      double F = fractionality(X[V]);
      Score += F;
      if (F > GroupVarFrac) {
        GroupVarFrac = F;
        GroupVar = V;
      }
    }
    if (Score > BestGroupScore + Opts.IntTol && GroupVarFrac > Opts.IntTol) {
      BestGroupScore = Score;
      BestVar = GroupVar;
    }
  }
  if (BestVar >= 0)
    return BestVar;

  // Fall back to the most fractional integer variable overall.
  double BestFrac = Opts.IntTol;
  for (int V : IntegerVars) {
    double F = fractionality(X[V]);
    if (F > BestFrac) {
      BestFrac = F;
      BestVar = V;
    }
  }
  return BestVar;
}

/// Solves a worker's LP at its currently applied bounds: warm through
/// the engine, or cold when warm starting is disabled (ablation path).
static LpSolution solveNodeLpImpl(SimplexEngine &Engine, bool WarmStart,
                                  const SimplexOptions &LpOpts,
                                  long &ColdLps) {
  if (WarmStart)
    return Engine.solve();
  ++ColdLps;
  return solveLp(Engine.problem(), LpOpts);
}

bool MilpSolver::offerIncumbent(Shared &S, double Objective,
                                const std::vector<double> &X) {
  if (Objective >= S.Incumbent.load() - Opts.AbsGap)
    return false;
  // A cold simplex solve can call a row-violating point optimal, and an
  // integral one would end the search as a proven optimum. Refuse it and
  // truncate the search instead (1e-6 is the certificate checker's
  // tolerance; every DVS rhs is at most 1).
  if (!Problem.isFeasible(X, 1e-6)) {
    S.Truncated.store(true);
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(S.IncM);
    if (Objective >= S.IncumbentVal - Opts.AbsGap)
      return false;
    S.IncumbentVal = Objective;
    S.BestX = X;
    S.Incumbent.store(Objective);
  }
  S.IncumbentUpdates.fetch_add(1, std::memory_order_relaxed);
  obs::traceInstant("incumbent", "milp", "objective", Objective);
  return true;
}

bool MilpSolver::tryRounding(Shared &S, Worker &W,
                             const std::vector<double> &Relaxed) {
  // Save bounds we are about to clobber.
  std::vector<std::pair<int, std::pair<double, double>>> Saved;
  auto fixVar = [&](int V, double Value) {
    Saved.push_back({V, {W.CurLo[V], W.CurHi[V]}});
    W.Engine->setBounds(V, Value, Value);
    W.CurLo[V] = Value;
    W.CurHi[V] = Value;
  };

  // Snap each SOS1 group to its largest LP value.
  std::vector<bool> Handled(Problem.numVariables(), false);
  for (const auto &Group : Sos1Groups) {
    int Arg = Group.front();
    for (int V : Group)
      if (Relaxed[V] > Relaxed[Arg])
        Arg = V;
    for (int V : Group) {
      // Respect pre-existing fixings from the current branch.
      if (W.CurLo[V] == W.CurHi[V]) {
        Handled[V] = true;
        continue;
      }
      fixVar(V, V == Arg ? 1.0 : 0.0);
      Handled[V] = true;
    }
  }
  for (int V : IntegerVars) {
    if (Handled[V] || W.CurLo[V] == W.CurHi[V])
      continue;
    double R = std::round(Relaxed[V]);
    R = std::min(std::max(R, W.CurLo[V]), W.CurHi[V]);
    fixVar(V, R);
  }

  LpSolution R = solveNodeLpImpl(*W.Engine, Opts.WarmStart, Opts.LpOpts,
                                 W.ColdLps);
  W.LpIterations += R.Iterations;
  bool Improved =
      R.Status == LpStatus::Optimal && offerIncumbent(S, R.Objective, R.X);

  for (auto It = Saved.rbegin(); It != Saved.rend(); ++It) {
    W.Engine->setBounds(It->first, It->second.first, It->second.second);
    W.CurLo[It->first] = It->second.first;
    W.CurHi[It->first] = It->second.second;
  }
  return Improved;
}

void MilpSolver::processNode(Shared &S, Worker &W,
                             const std::shared_ptr<Node> &N) {
  // Best-bound prune on the parent relaxation before any LP work.
  if (N->Bound >= S.Incumbent.load() - Opts.AbsGap) {
    ++W.Pruned;
    return;
  }
  if (S.NodesSolved.load() >= Opts.MaxNodes ||
      std::chrono::steady_clock::now() > S.Deadline) {
    S.Truncated.store(true);
    return;
  }

  if (!W.Engine) {
    W.Engine = std::make_unique<SimplexEngine>(Problem, Opts.LpOpts);
    int N2 = Problem.numVariables();
    W.CurLo.resize(N2);
    W.CurHi.resize(N2);
    for (int V = 0; V < N2; ++V) {
      W.CurLo[V] = Problem.lowerBound(V);
      W.CurHi[V] = Problem.upperBound(V);
    }
    W.NewLo = W.CurLo;
    W.NewHi = W.CurHi;
    W.Mark.assign(N2, 0);
  }

  // Resolve the node's absolute bounds: root bounds overlaid with the
  // delta chain, child-most change winning. Only the integer-variable
  // entries of NewLo/NewHi are ever read.
  ++W.Epoch;
  for (int V : IntegerVars) {
    W.NewLo[V] = Problem.lowerBound(V);
    W.NewHi[V] = Problem.upperBound(V);
  }
  for (const Node *A = N.get(); A && A->Var >= 0; A = A->Parent.get()) {
    if (W.Mark[A->Var] != W.Epoch) {
      W.Mark[A->Var] = W.Epoch;
      W.NewLo[A->Var] = A->Lo;
      W.NewHi[A->Var] = A->Hi;
    }
  }
  // Only integer variables ever carry branch or rounding fixings, so the
  // diff against the engine's applied bounds is confined to them.
  for (int V : IntegerVars) {
    if (W.NewLo[V] != W.CurLo[V] || W.NewHi[V] != W.CurHi[V]) {
      W.Engine->setBounds(V, W.NewLo[V], W.NewHi[V]);
      W.CurLo[V] = W.NewLo[V];
      W.CurHi[V] = W.NewHi[V];
    }
  }

  LpSolution R = solveNodeLpImpl(*W.Engine, Opts.WarmStart, Opts.LpOpts,
                                 W.ColdLps);
  S.NodesSolved.fetch_add(1);
  W.LpIterations += R.Iterations;

  if (R.Status == LpStatus::Infeasible)
    return;
  if (R.Status == LpStatus::Unbounded) {
    if (N->Depth == 0)
      S.RootUnbounded.store(true);
    // An unbounded node with integer restrictions still pending cannot be
    // pruned soundly in general; for our formulations (bounded binaries,
    // nonnegative costs) this never happens below the root.
    return;
  }
  if (R.Status == LpStatus::IterationLimit) {
    S.Truncated.store(true);
    return;
  }

  if (N->Depth == 0) {
    S.RootBound = R.Objective;
    if (Opts.UseRounding)
      tryRounding(S, W, R.X);
  }

  if (R.Objective >= S.Incumbent.load() - Opts.AbsGap) {
    ++W.Pruned;
    return; // Prune: cannot beat the incumbent.
  }

  int BranchVar = pickBranchVariable(R.X);
  if (BranchVar < 0) {
    // Integer feasible: candidate incumbent.
    offerIncumbent(S, R.Objective, R.X);
    return;
  }

  // Periodic rounding deeper in the tree keeps the incumbent fresh.
  if (Opts.UseRounding && N->Depth > 0 &&
      ++W.SinceRounding >= RoundingInterval) {
    W.SinceRounding = 0;
    tryRounding(S, W, R.X);
  }

  double Value = R.X[BranchVar];
  double SavedLo = W.CurLo[BranchVar];
  double SavedHi = W.CurHi[BranchVar];
  bool IsBinary = SavedLo >= -Opts.IntTol && SavedHi <= 1.0 + Opts.IntTol;

  auto makeChild = [&](double Lo, double Hi) {
    auto C = std::make_shared<Node>();
    C->Parent = N;
    C->Var = BranchVar;
    C->Lo = Lo;
    C->Hi = Hi;
    C->Bound = R.Objective;
    C->Depth = N->Depth + 1;
    return C;
  };

  std::shared_ptr<Node> First, Second;
  if (IsBinary) {
    // The likelier side is explored first: it is pushed last so the
    // depth-first pop-from-back takes it next, while the other side
    // waits at the front where idle workers steal.
    double Likely = Value >= 0.5 ? 1.0 : 0.0;
    First = makeChild(1.0 - Likely, 1.0 - Likely);
    Second = makeChild(Likely, Likely);
  } else {
    // General integer: floor/ceiling split, floor side first (as the
    // serial solver did).
    double Floor = std::floor(Value);
    First = makeChild(Floor + 1.0, SavedHi);
    Second = makeChild(SavedLo, Floor);
  }

  S.Outstanding.fetch_add(2);
  S.Queues->push(W.Index, std::move(First));
  S.Queues->push(W.Index, std::move(Second));
}

void MilpSolver::workerLoop(Shared &S, int WorkerIndex) {
  Worker &W = S.Workers[WorkerIndex];
  for (;;) {
    if (S.Truncated.load())
      return;

    // Own newest node first (depth-first), else steal a victim's
    // shallowest; the deques count the steal traffic for us.
    std::shared_ptr<Node> N;
    if (!S.Queues->tryPop(WorkerIndex, N)) {
      if (S.Outstanding.load() == 0)
        return;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }

    processNode(S, W, N);
    S.Outstanding.fetch_sub(1);
  }
}

/// Folds one finished solve into the process-wide registry. Instrument
/// references are resolved once and cached (static locals), so the per-
/// solve cost is a handful of relaxed atomic adds.
static void exportSolveMetrics(const MilpSolution &Sol) {
  using namespace obs;
  static Counter &Solves = metrics().counter(
      "cdvs_milp_solves_total", "Branch-and-bound searches run");
  static Counter &Nodes = metrics().counter(
      "cdvs_milp_nodes_total", "B&B nodes whose LP relaxation was solved");
  static Counter &Pruned = metrics().counter(
      "cdvs_milp_nodes_pruned_total",
      "B&B nodes discarded by best-bound pruning");
  static Counter &Stolen = metrics().counter(
      "cdvs_milp_nodes_stolen_total",
      "B&B nodes taken from another worker's deque");
  static Counter &LpIters = metrics().counter(
      "cdvs_milp_lp_iterations_total",
      "Simplex iterations across all node LPs");
  static Counter &Warm = metrics().counter(
      "cdvs_milp_warm_lps_total",
      "Node LPs re-solved warm from a held basis");
  static Counter &Cold = metrics().counter(
      "cdvs_milp_cold_lps_total",
      "Node LPs solved through the cold two-phase path");
  static Counter &Pivots = metrics().counter(
      "cdvs_milp_lp_pivots_total",
      "Simplex pivots across the workers' engines, refactorization "
      "included");
  static Counter &Incumbents = metrics().counter(
      "cdvs_milp_incumbent_updates_total",
      "Improving integer-feasible points found");
  static Histogram &SolveLatency = metrics().histogram(
      "cdvs_milp_solve_seconds", "Wall time of one B&B search",
      latencyBucketsSeconds());
  Solves.inc();
  Nodes.inc(static_cast<double>(Sol.Nodes));
  Pruned.inc(static_cast<double>(Sol.Pruned));
  Stolen.inc(static_cast<double>(Sol.Steals));
  LpIters.inc(static_cast<double>(Sol.LpIterations));
  Warm.inc(static_cast<double>(Sol.WarmLps));
  Cold.inc(static_cast<double>(Sol.ColdLps));
  Pivots.inc(static_cast<double>(Sol.LpPivots));
  Incumbents.inc(static_cast<double>(Sol.IncumbentUpdates));
  SolveLatency.observe(Sol.SolveSeconds);
}

MilpSolution MilpSolver::solve() {
  obs::TraceSpan Span("milp_solve", "milp");
  uint64_t T0 = monotonicNanos();
  Shared S;
  S.Deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(Opts.TimeLimitSec));

  // A tree over k integer variables cannot keep more than ~k workers
  // busy; capping also spares thread spawns on the many tiny MILPs the
  // schedulers produce.
  int Threads = resolveThreads(Opts.NumThreads);
  Threads = std::min(
      Threads, 1 + static_cast<int>(IntegerVars.size()) / 4);
  S.NumWorkers = std::max(1, Threads);
  S.Queues = std::make_unique<WorkStealingDeques<std::shared_ptr<Node>>>(
      S.NumWorkers);
  for (int W = 0; W < S.NumWorkers; ++W) {
    S.Workers.emplace_back();
    S.Workers.back().Index = W;
  }

  auto Root = std::make_shared<Node>();
  S.Queues->push(0, std::move(Root));
  S.Outstanding.store(1);

  runOnWorkers(S.NumWorkers, [&](int W) { workerLoop(S, W); });

  MilpSolution Sol;
  Sol.Nodes = S.NodesSolved.load();
  for (Worker &W : S.Workers) {
    Sol.LpIterations += W.LpIterations;
    Sol.ColdLps += W.ColdLps;
    Sol.Pruned += W.Pruned;
    if (W.Engine) {
      Sol.WarmLps += W.Engine->warmSolves();
      Sol.ColdLps += W.Engine->coldSolves();
      Sol.LpPivots += W.Engine->totalPivots();
    }
  }
  Sol.Steals = S.Queues->steals();
  Sol.IncumbentUpdates = S.IncumbentUpdates.load();
  Sol.SolveSeconds = nanosToSeconds(monotonicNanos() - T0);
  Sol.RootBound = S.RootBound;
  if (S.RootUnbounded.load()) {
    Sol.Status = MilpStatus::Unbounded;
  } else {
    bool Truncated = S.Truncated.load();
    bool HasIncumbent = !S.BestX.empty();
    if (HasIncumbent) {
      Sol.Status = Truncated ? MilpStatus::Feasible : MilpStatus::Optimal;
      Sol.Objective = S.IncumbentVal;
      Sol.X = S.BestX;
    } else {
      Sol.Status = Truncated ? MilpStatus::Limit : MilpStatus::Infeasible;
    }
  }
  Span.arg("nodes", static_cast<double>(Sol.Nodes));
  Span.arg("steals", static_cast<double>(Sol.Steals));
  exportSolveMetrics(Sol);
  return Sol;
}
