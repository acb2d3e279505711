//===- verify/ScheduleChecker.h - Schedule legality checking ----*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pass 2 of the static verifier: legality of a DVS schedule against the
/// profiles and cost model it was derived from. The checker re-derives,
/// in compensated arithmetic and with no reference to the MILP, what the
/// schedule costs:
///
///   time_g   = sum_e G_e * T[to(e)][mode(e)] + sum_hij D_hij * ST
///   energy_g = sum_e G_e * E[to(e)][mode(e)] + sum_hij D_hij * SE
///
/// with SE/ST charged on exactly the switching path pairs (same-mode
/// pairs cost zero by |Vi - Vj| = 0), the virtual launch edge included
/// at count 1. A schedule with path-context entries (PathMode) is
/// charged as the simulator runs it: each local path's D_hij executions
/// of block j at that path's mode, and SE/ST on each profiled 4-gram
/// Q_ghij (Profile::Reference.QuadCounts) whose two paths' modes differ.
/// It checks:
///
///  * every assigned mode index exists in the ModeTable;
///  * every assigned edge lies on the CFG, and every executed edge has
///    a statically unique mode — edges without a mode-set inherit the
///    current mode (a silent mode-set), which a forward fixpoint
///    resolves; an executed edge whose inherited mode depends on the
///    path taken fails legality;
///  * edge-filtering soundness — with the threshold the scheduler used,
///    edges tied into one filter group must share one mode, i.e. no
///    filtered edge carries a mode switch (Section 5.2's legality
///    condition);
///  * the recomputed time meets every category deadline;
///  * the recomputed energy matches the solver's claimed objective.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_VERIFY_SCHEDULECHECKER_H
#define CDVS_VERIFY_SCHEDULECHECKER_H

#include "power/ModeTable.h"
#include "power/TransitionModel.h"
#include "profile/Profile.h"
#include "sim/ModeAssignment.h"
#include "verify/Report.h"

#include <vector>

namespace cdvs {
namespace verify {

/// Knobs for the schedule legality check.
struct ScheduleCheckOptions {
  /// Relative tolerance on deadline and energy comparisons (scaled by
  /// |reference|: deadlines and energies are seconds and joules, far
  /// below 1).
  double Tolerance = 1e-6;
  /// The edge-filter threshold the schedule was produced with; > 0
  /// enables the filtered-placement soundness audit.
  double FilterThreshold = 0.0;
  /// The solver's claimed objective (joules); < 0 skips the cross-check.
  double ClaimedEnergyJoules = -1.0;
};

/// Outcome of the legality check: the report plus the independently
/// recomputed cost of the schedule.
struct ScheduleCheck {
  Report R;
  /// Recomputed wall time per category (seconds, transitions included).
  std::vector<double> CategoryTimeSeconds;
  /// Recomputed energy per category (joules, transitions included).
  std::vector<double> CategoryEnergyJoules;
  /// Probability-weighted energy across categories — the quantity the
  /// MILP objective claims to be.
  double EnergyJoules = 0.0;
};

/// Checks \p A against the profiles and cost model. \p DeadlineSeconds
/// must have one entry per category. Diagnostics carry pass name
/// "schedule".
ScheduleCheck
checkSchedule(const Function &Fn,
              const std::vector<CategoryProfile> &Categories,
              const ModeTable &Modes, const TransitionModel &Transitions,
              const ModeAssignment &A,
              const std::vector<double> &DeadlineSeconds,
              const ScheduleCheckOptions &Opts = ScheduleCheckOptions());

} // namespace verify
} // namespace cdvs

#endif // CDVS_VERIFY_SCHEDULECHECKER_H
