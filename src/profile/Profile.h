//===- profile/Profile.h - Profiles feeding the DVS MILP --------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profiling data in exactly the shape the paper's MILP consumes
/// (Section 4.2): per-block, per-mode invocation time Tjm and energy Ejm,
/// edge counts Gij, and local-path counts Dhij. collectProfile produces
/// one Profile per input from one Simulator::runLanes pass: the program
/// is interpreted once, and one timing lane per mode measures its time
/// and energy. Per-mode timing is required because memory asynchrony
/// makes execution time a non-linear function of clock frequency; the
/// functional state (control flow, memory, cache contents, counts) is
/// mode-invariant and shared. Each lane repeats the floating-point
/// operations of a solo run in order, so every Tjm and Ejm is
/// bit-identical to running that mode alone, and each lane still counts
/// as one run in the cdvs_sim_* counters.
///
/// Multiple input categories (Section 4.3) are a vector of Profiles with
/// occurrence probabilities.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_PROFILE_PROFILE_H
#define CDVS_PROFILE_PROFILE_H

#include "sim/Simulator.h"

#include <map>
#include <vector>

namespace cdvs {

/// Profile of one program on one input over all modes of a ModeTable.
struct Profile {
  int NumBlocks = 0;
  int NumModes = 0;

  /// TimePerInvocation[j][m] — seconds per invocation of block j at
  /// mode m (Tjm). Blocks never executed have zero rows.
  std::vector<std::vector<double>> TimePerInvocation;
  /// EnergyPerInvocation[j][m] — joules per invocation (Ejm).
  std::vector<std::vector<double>> EnergyPerInvocation;

  std::vector<uint64_t> BlockExecs;         ///< at the reference mode
  std::map<CfgEdge, uint64_t> EdgeCounts;   ///< Gij
  std::map<LocalPath, uint64_t> PathCounts; ///< Dhij

  /// Whole-program time/energy when run entirely at each mode
  /// (Table 4's "exec time at 200/600/800 MHz" columns).
  std::vector<double> TotalTimeAtMode;
  std::vector<double> TotalEnergyAtMode;

  /// Reference-mode run statistics (analytic parameter extraction).
  RunStats Reference;
};

/// One input category for the multi-data-set formulation: a profile plus
/// its probability pg.
struct CategoryProfile {
  Profile Data;
  double Probability = 1.0;
};

/// Times every mode of \p Modes in one multi-lane simulator pass and
/// assembles a Profile.
///
/// The caller owns simulator setup (registers/memory = the input data
/// set). The reference mode (default: fastest) provides the Reference
/// run; edge/path counts come from the shared functional pass, so they
/// agree across modes by construction.
Profile collectProfile(Simulator &Sim, const ModeTable &Modes,
                       int ReferenceMode = -1);

} // namespace cdvs

#endif // CDVS_PROFILE_PROFILE_H
