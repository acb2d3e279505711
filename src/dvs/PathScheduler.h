//===- dvs/PathScheduler.h - Path-context MILP DVS scheduling ---*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 7 "future work" direction, implemented: attach
/// mode variables to *local paths* (H, I, J) — the mode set on edge
/// (I, J) may depend on which block H the program entered I from —
/// instead of to bare edges. Edge-based scheduling is the special case
/// where all contexts of an edge share one variable, so path context
/// strictly generalizes it: more program context in exchange for a
/// larger MILP.
///
/// The MILP is the edge scheduler's, built by the same code
/// (dvs/DvsScheduler.cpp) over different decision units: one SOS1
/// group per profiled local path (h, i, j), costing Dhij executions of
/// block j, plus the virtual pre-entry path (-2, -1, 0) pinned to the
/// initial mode; transitions between consecutive paths are weighted by
/// the 4-gram counts Q(h,i,j,k) the simulator collects; one deadline
/// row. The decoded ModeAssignment carries PathMode entries, with a
/// majority-vote EdgeMode fallback for run-time contexts the profile
/// never observed.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_DVS_PATHSCHEDULER_H
#define CDVS_DVS_PATHSCHEDULER_H

#include "dvs/DvsScheduler.h"

namespace cdvs {

/// Path-context scheduling over a single profile.
///
/// \p Opts: InitialMode, DumpLp, KeepArtifacts and Milp apply as in
/// DvsScheduler. FilterThreshold is ignored (path instances are already
/// profile-pruned), and so is Presolve: every path unit is profiled, so
/// presolve could only drop the pinned entry unit.
ErrorOr<ScheduleResult>
schedulePathContext(const Function &Fn, const Profile &Prof,
                    const ModeTable &Modes,
                    const TransitionModel &Transitions,
                    double DeadlineSeconds,
                    DvsOptions Opts = DvsOptions());

} // namespace cdvs

#endif // CDVS_DVS_PATHSCHEDULER_H
