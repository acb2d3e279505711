//===- sim/Simulator.h - Cycle-level CPU/memory simulator -------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling simulator standing in for Wattch/SimpleScalar. It
/// interprets the register-machine IR with an in-order, single-issue
/// scoreboard core, non-blocking loads (one outstanding DRAM miss), an
/// L1/L2 LRU hierarchy, an asynchronous DRAM whose service time is fixed
/// in *seconds* (frequency invariant), and perfect clock gating while the
/// core waits on memory. Energy is Ceff(class)·V² per operation; gated
/// time consumes nothing; memory energy is not modeled (the paper keeps
/// it constant and out of the optimization).
///
/// The same run produces everything the paper's toolchain needs:
///  * wall time and processor energy under any per-edge mode assignment,
///  * per-block, per-mode time/energy profiles (Tjm, Ejm),
///  * edge counts Gij and local-path counts Dhij,
///  * the analytic model's program parameters Noverlap, Ndependent,
///    Ncache (cycles) and tinvariant (seconds).
///
/// One interpreter loop serves every entry point. It makes one
/// functional pass — registers, memory, cache contents and hit/miss
/// outcomes, block/edge/path/4-gram and instruction counts, none of
/// which depend on the clock (the paper's assumption 1) — and drives one
/// timing lane per operating point: core time, register ready times,
/// the outstanding DRAM miss, per-block time/energy, the overlap/
/// dependent/cache cycle split and gated time. runLanes() times every
/// level of a table in one pass; runAtLevel() and the DVS-controlled
/// run() are one-lane passes. Each lane performs the same floating-point
/// operations in the same order as a pass with that lane alone, so a
/// lane's numbers are bit-identical to its level run by itself. Every
/// lane is one run to the cdvs_sim_* counters: a pass of N lanes adds N
/// to cdvs_sim_runs_total and N times the instruction count, so the
/// instruction counter reads mode-instructions.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_SIM_SIMULATOR_H
#define CDVS_SIM_SIMULATOR_H

#include "ir/Function.h"
#include "power/ModeTable.h"
#include "power/TransitionModel.h"
#include "sim/Cache.h"
#include "sim/ModeAssignment.h"
#include "sim/SimConfig.h"

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

namespace cdvs {

/// A local path through a block: entered via (H, I), left via (I, J).
/// H == -1 marks entry-block invocations with no incoming edge.
using LocalPath = std::tuple<int, int, int>;

/// Two consecutive local paths: (H,I,J) followed by (I,J,K). H == -2
/// marks the virtual pre-entry context.
using PathPair = std::tuple<int, int, int, int>;

/// Everything measured during one simulated execution.
struct RunStats {
  bool Completed = false; ///< False if the instruction cap was hit.
  double TimeSeconds = 0.0;
  double EnergyJoules = 0.0;

  uint64_t Instructions = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t L1DMisses = 0;
  uint64_t L1IMisses = 0; ///< only with SimConfig::ModelICache
  uint64_t L2Misses = 0;

  std::vector<uint64_t> BlockExecs;
  std::vector<double> BlockTimeSeconds;
  std::vector<double> BlockEnergyJoules;

  std::map<CfgEdge, uint64_t> EdgeCounts;   ///< Gij
  std::map<LocalPath, uint64_t> PathCounts; ///< Dhij
  /// 4-gram counts: consecutive local-path pairs, for the path-context
  /// scheduler's transition terms.
  std::map<PathPair, uint64_t> QuadCounts;

  uint64_t Transitions = 0;
  double TransitionSeconds = 0.0;
  double TransitionJoules = 0.0;

  /// Register file at exit (functional results for tests/examples).
  std::vector<int64_t> FinalRegs;

  // Analytic-model program parameters (Section 3), measured at the run's
  // operating point(s).
  uint64_t NoverlapCycles = 0;   ///< compute cycles under an open miss
  uint64_t NdependentCycles = 0; ///< compute cycles with no open miss
  uint64_t NcacheCycles = 0;     ///< core cycles of cache-serviced memory
  double TinvariantSeconds = 0.0;///< DRAM service time (asynchronous)
  double GatedSeconds = 0.0;     ///< clock-gated stall time (zero energy)
};

/// Interpreter + timing/energy model over one Function.
class Simulator {
public:
  explicit Simulator(const Function &F, SimConfig Config = SimConfig());

  /// Pre-run machine state: registers and the initial memory image.
  void setInitialReg(int Reg, int64_t Value);
  void setInitialMem32(uint64_t Addr, uint32_t Value);
  /// Direct access to the initial memory image (size = F.memBytes()).
  std::vector<uint8_t> &initialMemory() { return InitMem; }

  /// Runs the program with DVS control: \p Assignment names a mode of
  /// \p Modes per edge; real mode changes pay \p Transitions costs.
  RunStats run(const ModeTable &Modes, const ModeAssignment &Assignment,
               const TransitionModel &Transitions);

  /// Runs entirely at one operating point with no transition costs.
  RunStats runAtLevel(const VoltageLevel &Level);

  /// Runs entirely at each level of \p Levels in one functional pass;
  /// element M equals runAtLevel(Levels.level(M)) bit for bit.
  std::vector<RunStats> runLanes(const ModeTable &Levels);

  const Function &function() const { return F; }
  const SimConfig &config() const { return Config; }

private:
  /// The interpreter loop. Without \p Control: one fixed-mode lane per
  /// level of \p Modes. With it: one lane that starts at
  /// Control->InitialMode and switches modes as \p Control assigns,
  /// paying \p Transitions costs.
  std::vector<RunStats> execute(const ModeTable &Modes,
                                const ModeAssignment *Control,
                                const TransitionModel *Transitions);

  const Function &F;
  SimConfig Config;
  std::vector<int64_t> InitRegs;
  std::vector<uint8_t> InitMem;
};

} // namespace cdvs

#endif // CDVS_SIM_SIMULATOR_H
