//===- verify/ScheduleChecker.cpp - Schedule legality checking ------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/ScheduleChecker.h"

#include "dvs/EdgeGroups.h"
#include "support/Numeric.h"

#include <cmath>
#include <set>
#include <string>

using namespace cdvs;
using namespace cdvs::verify;

namespace {

const char *PassName = "schedule";

std::string edgeLoc(const CfgEdge &E) {
  return "edge " + std::to_string(E.From) + "->" + std::to_string(E.To);
}

} // namespace

ScheduleCheck
verify::checkSchedule(const Function &Fn,
                      const std::vector<CategoryProfile> &Categories,
                      const ModeTable &Modes,
                      const TransitionModel &Transitions,
                      const ModeAssignment &A,
                      const std::vector<double> &DeadlineSeconds,
                      const ScheduleCheckOptions &Opts) {
  ScheduleCheck Out;
  Report &R = Out.R;
  const int NumModes = static_cast<int>(Modes.size());
  const CfgEdge Launch{-1, 0};

  if (A.InitialMode < 0 || A.InitialMode >= NumModes) {
    R.error(PassName, "initial mode",
            "mode " + std::to_string(A.InitialMode) +
                " is not in the mode table (" +
                std::to_string(NumModes) + " modes)");
    return Out;
  }

  std::set<CfgEdge> CfgEdges;
  for (const CfgEdge &E : Fn.edges())
    CfgEdges.insert(E);

  // Assigned modes must exist; assigned edges must lie on the CFG.
  for (const auto &[E, M] : A.EdgeMode) {
    if (M < 0 || M >= NumModes)
      R.error(PassName, edgeLoc(E),
              "assigned mode " + std::to_string(M) +
                  " is not in the mode table");
    if (E == Launch) {
      if (M != A.InitialMode)
        R.error(PassName, edgeLoc(E),
                "launch edge mode " + std::to_string(M) +
                    " contradicts the initial mode " +
                    std::to_string(A.InitialMode));
    } else if (!CfgEdges.count(E)) {
      R.error(PassName, edgeLoc(E),
              "mode-set placed on an edge that is not in the CFG");
    }
  }
  for (const auto &[P, M] : A.PathMode) {
    auto [H, I, J] = P;
    std::string Loc = "path (" + std::to_string(H) + "," +
                      std::to_string(I) + "," + std::to_string(J) + ")";
    if (M < 0 || M >= NumModes)
      R.error(PassName, Loc,
              "assigned mode " + std::to_string(M) +
                  " is not in the mode table");
    if (!CfgEdges.count({I, J}))
      R.error(PassName, Loc, "path leaves along a non-CFG edge");
    if (H != -1 && !CfgEdges.count({H, I}))
      R.error(PassName, Loc, "path enters along a non-CFG edge");
  }

  // Resolve the static mode carried on every edge. Edges absent from
  // EdgeMode mean "the current mode persists", so the mode entering a
  // block flows through them; a forward fixpoint over the flat lattice
  // {Unknown, mode, Conflict} decides whether that inherited mode is
  // statically unique. Conflict means the edge's mode depends on the
  // path taken — illegal for a static schedule on an executed edge.
  const int Unknown = -2, Conflict = -1;
  auto join = [&](int X, int Y) {
    return X == Unknown ? Y : Y == Unknown ? X : X == Y ? X : Conflict;
  };
  std::vector<int> ModeIn(Fn.numBlocks(), Unknown);
  ModeIn[0] = A.InitialMode; // the launch programs the initial mode
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int B = 0; B < Fn.numBlocks(); ++B)
      for (int S : Fn.block(B).Succs) {
        auto It = A.EdgeMode.find({B, S});
        int M = It != A.EdgeMode.end()
                    ? (It->second >= 0 && It->second < NumModes
                           ? It->second
                           : Conflict)
                    : ModeIn[B];
        int J = join(ModeIn[S], M);
        if (J != ModeIn[S]) {
          ModeIn[S] = J;
          Changed = true;
        }
      }
  }
  // The statically resolved mode on an edge: Unknown for never-reached
  // edges, Conflict for path-dependent inherited modes.
  auto modeOf = [&](const CfgEdge &E) -> int {
    if (E.From == -1)
      return A.InitialMode;
    auto It = A.EdgeMode.find(E);
    if (It != A.EdgeMode.end())
      return It->second >= 0 && It->second < NumModes ? It->second
                                                      : Conflict;
    return ModeIn[E.From];
  };
  // The mode traversing (H, I, J) sets, as the simulator resolves it:
  // the path's own entry, else the edge's static mode.
  auto pathModeOf = [&](int H, int I, int J) -> int {
    auto It = A.PathMode.find({H, I, J});
    if (It == A.PathMode.end())
      return modeOf({I, J});
    return It->second >= 0 && It->second < NumModes ? It->second
                                                     : Conflict;
  };
  auto onCfg = [&](int H, int I, int J) {
    return CfgEdges.count({I, J}) && (H == -1 || CfgEdges.count({H, I}));
  };
  // Path-context schedules are charged exactly: executions per local
  // path at that path's mode, switches per profiled 4-gram.
  const bool PerPath = !A.PathMode.empty();

  if (DeadlineSeconds.size() != Categories.size())
    R.error(PassName, "deadlines",
            std::to_string(DeadlineSeconds.size()) +
                " deadlines for " + std::to_string(Categories.size()) +
                " categories");

  // Recompute each category's cost in compensated arithmetic.
  KahanSum WeightedEnergy;
  std::set<CfgEdge> MissingReported;
  for (size_t C = 0; C < Categories.size(); ++C) {
    const Profile &P = Categories[C].Data;
    std::string CatLoc = "category " + std::to_string(C);
    if (P.NumModes != NumModes) {
      R.error(PassName, CatLoc,
              "profile has " + std::to_string(P.NumModes) +
                  " modes but the table has " + std::to_string(NumModes));
      continue;
    }
    KahanSum Time, Energy;
    // The launch: one traversal of the virtual entry edge into block 0.
    int LaunchMode = modeOf(Launch);
    Time.add(P.TimePerInvocation[0][LaunchMode]);
    Energy.add(P.EnergyPerInvocation[0][LaunchMode]);

    for (const auto &[E, G] : P.EdgeCounts) {
      if (!CfgEdges.count(E)) {
        R.error(PassName, edgeLoc(E), "profiled edge is not a CFG edge");
        continue;
      }
      int M = modeOf(E);
      if (M < 0) {
        // Conflict: the inherited mode differs per path, so the speed
        // after this edge is not a compile-time constant. Unknown on an
        // executed edge means the counts contradict reachability (the
        // cfg pass reports the root cause); both fail legality.
        if (MissingReported.insert(E).second)
          R.error(PassName, edgeLoc(E),
                  M == Conflict
                      ? "edge executed " + std::to_string(G) +
                            " times inherits a path-dependent mode"
                      : "edge executed " + std::to_string(G) +
                            " times is statically unreachable");
        continue;
      }
      if (PerPath)
        continue;
      double Cnt = static_cast<double>(G);
      Time.add(Cnt * P.TimePerInvocation[E.To][M]);
      Energy.add(Cnt * P.EnergyPerInvocation[E.To][M]);
    }

    // Transition costs on exactly the switching consecutive traversals;
    // cfg-pass defects and missing modes are reported elsewhere, and a
    // same-mode pair is silent.
    auto chargeSwitch = [&](int MIn, int MOut, uint64_t N) {
      if (MIn < 0 || MOut < 0 || MIn == MOut)
        return;
      double Cnt = static_cast<double>(N);
      double Vi = Modes.level(MIn).Volts, Vj = Modes.level(MOut).Volts;
      Time.add(Cnt * Transitions.switchTime(Vi, Vj));
      Energy.add(Cnt * Transitions.switchEnergy(Vi, Vj));
    };
    if (PerPath) {
      for (const auto &[Path, D] : P.PathCounts) {
        auto [H, I, J] = Path;
        int M = onCfg(H, I, J) ? pathModeOf(H, I, J) : -1;
        if (M < 0)
          continue;
        double Cnt = static_cast<double>(D);
        Time.add(Cnt * P.TimePerInvocation[J][M]);
        Energy.add(Cnt * P.EnergyPerInvocation[J][M]);
      }
      // The 4-gram (G, H, I, J) moves from path (G, H, I) to (H, I, J);
      // G == -2 is the launch, still in the initial mode.
      for (const auto &[Quad, Q] : P.Reference.QuadCounts) {
        auto [G, H, I, J] = Quad;
        if (onCfg(H, I, J) && (G == -2 || onCfg(G, H, I)))
          chargeSwitch(G == -2 ? A.InitialMode : pathModeOf(G, H, I),
                       pathModeOf(H, I, J), Q);
      }
    } else {
      for (const auto &[Path, D] : P.PathCounts) {
        auto [H, I, J] = Path;
        if (onCfg(H, I, J))
          chargeSwitch(modeOf({H, I}), modeOf({I, J}), D);
      }
    }

    Out.CategoryTimeSeconds.push_back(Time.value());
    Out.CategoryEnergyJoules.push_back(Energy.value());
    WeightedEnergy.add(Categories[C].Probability * Energy.value());

    if (C < DeadlineSeconds.size()) {
      double D = DeadlineSeconds[C];
      double Slack = Opts.Tolerance * std::fabs(D);
      if (Time.value() > D + Slack)
        R.error(PassName, CatLoc,
                "recomputed time " + std::to_string(Time.value() * 1e3) +
                    " ms exceeds the deadline " + std::to_string(D * 1e3) +
                    " ms");
    }
  }
  Out.EnergyJoules = WeightedEnergy.value();

  // Edge-filtering soundness: edges tied into one group by the filter
  // must share one mode — a filtered edge must not carry a mode switch.
  if (Opts.FilterThreshold > 0.0 && !Categories.empty()) {
    EdgeGroups G =
        computeEdgeGroups(Fn, Categories, Opts.FilterThreshold);
    std::vector<int> GroupMode(G.NumGroups, -2); // -2 = unseen
    std::vector<int> GroupRep(G.NumGroups, -1);
    for (size_t E = 0; E < G.Edges.size(); ++E) {
      int M = modeOf(G.Edges[E]);
      if (M < 0)
        continue;
      int Grp = G.GroupOf[E];
      if (GroupMode[Grp] == -2) {
        GroupMode[Grp] = M;
        GroupRep[Grp] = static_cast<int>(E);
      } else if (GroupMode[Grp] != M) {
        R.error(PassName, edgeLoc(G.Edges[E]),
                "filtered edge carries a mode switch: mode " +
                    std::to_string(M) + " differs from mode " +
                    std::to_string(GroupMode[Grp]) + " of its group (" +
                    edgeLoc(G.Edges[GroupRep[Grp]]) + ")");
      }
    }
  }

  // Objective cross-check against the solver's claim.
  if (Opts.ClaimedEnergyJoules >= 0.0) {
    double Claimed = Opts.ClaimedEnergyJoules;
    double Diff = std::fabs(Out.EnergyJoules - Claimed);
    double Slack = Opts.Tolerance * std::fabs(Claimed);
    if (Diff > Slack)
      R.error(PassName, "objective",
              "recomputed energy " + std::to_string(Out.EnergyJoules) +
                  " J differs from the claimed objective " +
                  std::to_string(Claimed) + " J by " +
                  std::to_string(Diff) + " J");
  }

  return Out;
}
