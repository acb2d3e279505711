//===- sim/Simulator.cpp - Cycle-level CPU/memory simulator ---------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
//
// Timing model. All times are absolute seconds so that mid-run frequency
// changes compose naturally:
//  * each register has a ready time RT[r];
//  * compute op: issues at max(core time, source RTs); occupies the core
//    for latency(class)/f; the wait before issue is clock-gated;
//  * load: L1 hit and L2 hit occupy the core for their hit latencies in
//    cycles (these scale with f and are the paper's "Ncache" memory
//    cycles); an L2 miss additionally puts DRAM service time — a fixed
//    number of *seconds* — on the destination register's ready time
//    while the core moves on (non-blocking, one outstanding miss);
//  * store: occupies the core for the L1 hit latency; a write buffer
//    hides any miss (no invariant time, no stall);
//  * compute issued while a DRAM miss is outstanding counts toward
//    Noverlap, otherwise Ndependent — the operational version of the
//    paper's overlap/dependent split.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace cdvs;

Simulator::Simulator(const Function &F, SimConfig InConfig)
    : F(F), Config(InConfig), InitRegs(F.numRegs(), 0),
      InitMem(F.memBytes(), 0) {
  ErrorOr<bool> Ok = F.verify();
  if (!Ok)
    cdvsUnreachable(("simulating invalid function: " + Ok.message()).c_str());
  assert(F.memBytes() >= 4 && "memory image must hold at least one word");
}

void Simulator::setInitialReg(int Reg, int64_t Value) {
  assert(Reg >= 0 && Reg < F.numRegs() && "register out of range");
  InitRegs[Reg] = Value;
}

void Simulator::setInitialMem32(uint64_t Addr, uint32_t Value) {
  assert(Addr + 4 <= InitMem.size() && "address out of range");
  std::memcpy(&InitMem[Addr], &Value, 4);
}

namespace {

/// The mode-invariant machine: registers and memory.
struct Machine {
  std::vector<int64_t> Regs;
  std::vector<uint8_t> Mem;
  uint64_t Cap = 0; ///< addressable bytes: a multiple of 4, >= 4 (verified)

  uint64_t maskAddr(int64_t Addr) const {
    // Word-align and wrap into the memory image: the interpreter is
    // total so profiling runs can never trap.
    uint64_t A = static_cast<uint64_t>(Addr) & ~static_cast<uint64_t>(3);
    return A < Cap ? A : A % Cap;
  }

  uint32_t read32(uint64_t A) const {
    uint32_t V;
    std::memcpy(&V, &Mem[A], 4);
    return V;
  }

  void write32(uint64_t A, uint32_t V) { std::memcpy(&Mem[A], &V, 4); }
};

constexpr int NumOpClasses = static_cast<int>(OpClass::MemStore) + 1;

/// The timing state of one operating point: everything a pass computes
/// that depends on the clock. Each method does the floating-point
/// operations of one charge in the order a single-lane pass does them.
struct Lane {
  RunStats S; ///< the clock-dependent fields; finish() adds the rest
  std::vector<double> RegReady; ///< seconds
  double Now = 0.0;             ///< core time, seconds
  double MissBusyUntil = 0.0;   ///< DRAM busy until (one outstanding miss)
  int Mode = 0;

  // Charges at the current mode, each computed by the expression it
  // stands for: Cycles * CycleTime and Ceff(class) * V * V.
  double OpTime[NumOpClasses] = {};
  double OpEnergy[NumOpClasses] = {};
  double BranchTime = 0.0;    ///< one cycle
  double L1MissTime = 0.0;    ///< L1 + L2 hit cycles
  double FetchMissTime = 0.0; ///< L2 hit cycles

  void setMode(const ModeTable &Modes, int NewMode, const SimConfig &C) {
    Mode = NewMode;
    double Volts = Modes.level(Mode).Volts;
    double Freq = Modes.level(Mode).Hertz;
    double CycleTime = 1.0 / Freq;
    for (int K = 0; K < NumOpClasses; ++K) {
      OpClass Class = static_cast<OpClass>(K);
      OpTime[K] = C.latency(Class) * CycleTime;
      OpEnergy[K] = C.ceff(Class) * Volts * Volts;
    }
    BranchTime = 1 * CycleTime;
    L1MissTime = (C.L1HitCycles + C.L2HitCycles) * CycleTime;
    FetchMissTime = C.L2HitCycles * CycleTime;
  }

  void gatedWait(int Block, double Until) {
    if (Until > Now) {
      S.GatedSeconds += Until - Now;
      S.BlockTimeSeconds[Block] += Until - Now;
      Now = Until;
    }
  }

  void charge(int Block, double Dt, double E) {
    S.BlockTimeSeconds[Block] += Dt;
    S.BlockEnergyJoules[Block] += E;
    S.EnergyJoules += E;
    Now += Dt;
  }

  /// Charges \p Cycles of compute issued now.
  void compute(int Block, OpClass Class, double Dt, int Cycles) {
    double Issue = Now;
    charge(Block, Dt, OpEnergy[static_cast<int>(Class)]);
    if (Issue < MissBusyUntil)
      S.NoverlapCycles += Cycles;
    else
      S.NdependentCycles += Cycles;
  }

  /// Charges \p Cycles of cache-serviced memory work issued now. Cycles
  /// issued while a DRAM miss is outstanding are hidden under the miss:
  /// they belong to the overlap stream in the analytic model's region
  /// structure, not to Ncache.
  void memory(int Block, OpClass Class, double Dt, int Cycles) {
    bool UnderMiss = Now < MissBusyUntil;
    charge(Block, Dt, OpEnergy[static_cast<int>(Class)]);
    if (UnderMiss)
      S.NoverlapCycles += Cycles;
    else
      S.NcacheCycles += Cycles;
  }

  /// Queues a DRAM access behind the outstanding one; \returns when it
  /// completes.
  double startMiss(double DramSeconds) {
    double Start = std::max(Now, MissBusyUntil);
    double Done = Start + DramSeconds;
    MissBusyUntil = Done;
    return Done;
  }
};

int64_t evalBinary(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::FAdd:
    return A + B;
  case Opcode::Sub:
  case Opcode::FSub:
    return A - B;
  case Opcode::Mul:
  case Opcode::FMul:
    return A * B;
  case Opcode::Div:
  case Opcode::FDiv:
    return B == 0 ? 0 : A / B;
  case Opcode::Rem:
    return B == 0 ? 0 : A % B;
  case Opcode::And:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Xor:
    return A ^ B;
  case Opcode::Shl:
    return A << (B & 63);
  case Opcode::Shr:
    return static_cast<int64_t>(static_cast<uint64_t>(A) >> (B & 63));
  case Opcode::CmpEq:
    return A == B;
  case Opcode::CmpNe:
    return A != B;
  case Opcode::CmpLt:
    return A < B;
  case Opcode::CmpLe:
    return A <= B;
  default:
    cdvsUnreachable("not a binary opcode");
  }
}

} // namespace

/// Folds one finished run into the process-wide registry: simulated
/// instruction/cycle/energy/stall totals, so a service or bench exposes
/// how much simulation work hid behind its profiling stages. Called once
/// per lane of a finished pass — the per-instruction hot loop is
/// untouched.
static void exportRunMetrics(const RunStats &S) {
  using namespace obs;
  static Counter &Runs = metrics().counter(
      "cdvs_sim_runs_total", "Simulated executions completed");
  static Counter &Insts = metrics().counter(
      "cdvs_sim_instructions_total", "Simulated instructions retired");
  static Counter &SimSeconds = metrics().counter(
      "cdvs_sim_simulated_seconds_total",
      "Simulated wall time accumulated across runs");
  static Counter &Energy = metrics().counter(
      "cdvs_sim_energy_joules_total",
      "Simulated processor energy accumulated across runs");
  static Counter &Gated = metrics().counter(
      "cdvs_sim_gated_seconds_total",
      "Simulated clock-gated (memory stall) time");
  static Counter &Transitions = metrics().counter(
      "cdvs_sim_mode_transitions_total",
      "Voltage/frequency transitions executed in simulation");
  static Counter &Overlap = metrics().counter(
      "cdvs_sim_overlap_cycles_total",
      "Compute cycles overlapped with an open DRAM miss");
  static Counter &Dependent = metrics().counter(
      "cdvs_sim_dependent_cycles_total",
      "Compute cycles with no open DRAM miss");
  static Counter &L2Misses = metrics().counter(
      "cdvs_sim_l2_misses_total", "Simulated L2 misses (DRAM accesses)");
  Runs.inc();
  Insts.inc(static_cast<double>(S.Instructions));
  SimSeconds.inc(S.TimeSeconds);
  Energy.inc(S.EnergyJoules);
  Gated.inc(S.GatedSeconds);
  Transitions.inc(static_cast<double>(S.Transitions));
  Overlap.inc(static_cast<double>(S.NoverlapCycles));
  Dependent.inc(static_cast<double>(S.NdependentCycles));
  L2Misses.inc(static_cast<double>(S.L2Misses));
}

RunStats Simulator::run(const ModeTable &Modes,
                        const ModeAssignment &Assignment,
                        const TransitionModel &Transitions) {
  return std::move(execute(Modes, &Assignment, &Transitions).front());
}

RunStats Simulator::runAtLevel(const VoltageLevel &Level) {
  return std::move(execute(ModeTable({Level}), nullptr, nullptr).front());
}

std::vector<RunStats> Simulator::runLanes(const ModeTable &Levels) {
  return execute(Levels, nullptr, nullptr);
}

std::vector<RunStats> Simulator::execute(const ModeTable &Modes,
                                         const ModeAssignment *Control,
                                         const TransitionModel *Transitions) {
  obs::TraceSpan Span("sim_run", "sim");
  const int NumBlocks = F.numBlocks();
  Machine M;
  M.Regs = InitRegs;
  M.Mem = InitMem;
  M.Cap = (M.Mem.size() / 4) * 4;

  Cache L1(Config.L1);
  Cache L2(Config.L2);
  Cache L1I(Config.L1I);

  // Synthetic code layout for instruction fetch: blocks packed in id
  // order, 4 bytes per instruction plus 4 for the terminator. Mapped
  // beyond the data image so code and data never alias in L2.
  std::vector<uint64_t> CodeBase(NumBlocks, 0);
  if (Config.ModelICache) {
    uint64_t Addr = (InitMem.size() + 63) & ~uint64_t(63);
    for (int B = 0; B < NumBlocks; ++B) {
      CodeBase[B] = Addr;
      Addr += 4 * (F.block(B).Insts.size() + 1);
    }
  }

  std::vector<Lane> Lanes(Control ? 1 : Modes.size());
  for (size_t K = 0; K < Lanes.size(); ++K) {
    Lane &L = Lanes[K];
    int Mode = Control ? Control->InitialMode : static_cast<int>(K);
    assert(Mode >= 0 && Mode < static_cast<int>(Modes.size()) &&
           "initial mode out of range");
    L.setMode(Modes, Mode, Config);
    L.RegReady.assign(F.numRegs(), 0.0);
    L.S.BlockTimeSeconds.assign(NumBlocks, 0.0);
    L.S.BlockEnergyJoules.assign(NumBlocks, 0.0);
  }

  // The mode-invariant results every lane shares.
  RunStats Shared;
  Shared.BlockExecs.assign(NumBlocks, 0);

  // Dense path counting. Edge id 2 * B + Slot is the edge leaving block B
  // through Succs[Slot] (a block has at most two successors); EntryEdge
  // is the virtual edge into the entry block. Local path id 2 * In + Slot
  // is the path entered by edge In and left through Slot; EntryPath is
  // the virtual path before the first block. Each executed branch counts
  // one (previous path, slot) pair, the 4-gram; finish() folds the
  // 4-grams into the 4-gram, path and edge maps once per pass.
  const size_t EntryEdge = 2 * static_cast<size_t>(NumBlocks);
  const size_t EntryPath = 2 * (EntryEdge + 1);
  std::vector<uint64_t> PathPairs(2 * (EntryPath + 1), 0);
  size_t InEdge = EntryEdge;
  size_t PrevPath = EntryPath;

  auto finish = [&](bool Completed) {
    auto edgeOf = [&](size_t Edge) {
      if (Edge == EntryEdge)
        return CfgEdge{-1, 0};
      int From = static_cast<int>(Edge / 2);
      return CfgEdge{From, F.block(From).Succs[Edge % 2]};
    };
    for (size_t Pair = 0; Pair < PathPairs.size(); ++Pair) {
      uint64_t N = PathPairs[Pair];
      if (N == 0)
        continue;
      size_t Prev = Pair / 2;
      int G = -2, H = -1, I = 0;
      if (Prev != EntryPath) {
        CfgEdge In = edgeOf(Prev / 2);
        G = In.From;
        H = In.To;
        I = F.block(H).Succs[Prev % 2];
      }
      int J = F.block(I).Succs[Pair % 2];
      Shared.QuadCounts[{G, H, I, J}] += N;
      Shared.PathCounts[{H, I, J}] += N;
      Shared.EdgeCounts[{I, J}] += N;
    }
    std::vector<RunStats> Runs;
    for (Lane &L : Lanes) {
      RunStats &S = L.S;
      S.Completed = Completed;
      S.TimeSeconds = L.Now;
      S.Instructions = Shared.Instructions;
      S.Loads = Shared.Loads;
      S.Stores = Shared.Stores;
      S.L1DMisses = Shared.L1DMisses;
      S.L1IMisses = Shared.L1IMisses;
      S.L2Misses = Shared.L2Misses;
      S.BlockExecs = Shared.BlockExecs;
      S.EdgeCounts = Shared.EdgeCounts;
      S.PathCounts = Shared.PathCounts;
      S.QuadCounts = Shared.QuadCounts;
      S.FinalRegs = M.Regs;
      S.TinvariantSeconds = Shared.TinvariantSeconds;
      exportRunMetrics(S);
      Runs.push_back(std::move(S));
    }
    Span.arg("instructions", static_cast<double>(Shared.Instructions));
    Span.arg("lanes", static_cast<double>(Lanes.size()));
    return Runs;
  };

  int Block = 0;
  int PrevBlock = -1; // block we arrived from (the assignment's context)
  while (true) {
    if (Shared.Instructions >= Config.MaxInstructions)
      return finish(false);
    ++Shared.BlockExecs[Block];
    const BasicBlock &BB = F.block(Block);

    for (size_t Index = 0; Index < BB.Insts.size(); ++Index) {
      const Instruction &I = BB.Insts[Index];
      uint64_t Pc = CodeBase[Block] + 4 * static_cast<uint64_t>(Index);
      if (Config.ModelICache && !L1I.access(Pc)) {
        // I-fetch misses stall the front end: charge the L2 cycles (and
        // the DRAM wait on an L2 miss) before the instruction issues.
        ++Shared.L1IMisses;
        bool Dram = !L2.access(Pc);
        if (Dram) {
          ++Shared.L2Misses;
          Shared.TinvariantSeconds += Config.DramSeconds;
        }
        for (Lane &L : Lanes) {
          L.memory(Block, OpClass::MemLoad, L.FetchMissTime,
                   Config.L2HitCycles);
          if (Dram)
            L.gatedWait(Block, L.startMiss(Config.DramSeconds));
        }
      }
      ++Shared.Instructions;
      OpClass Class = opClass(I.Op);
      switch (Class) {
      case OpClass::MemLoad: {
        uint64_t A = M.maskAddr(M.Regs[I.Src1] + I.Imm);
        M.Regs[I.Dst] = static_cast<int64_t>(M.read32(A));
        ++Shared.Loads;
        bool HitL1 = L1.access(A);
        bool Dram = false;
        if (!HitL1) {
          ++Shared.L1DMisses;
          Dram = !L2.access(A);
        }
        if (Dram) {
          ++Shared.L2Misses;
          Shared.TinvariantSeconds += Config.DramSeconds;
        }
        int Cycles = HitL1 ? Config.L1HitCycles
                           : Config.L1HitCycles + Config.L2HitCycles;
        for (Lane &L : Lanes) {
          L.gatedWait(Block, L.RegReady[I.Src1]);
          L.memory(Block, OpClass::MemLoad,
                   HitL1 ? L.OpTime[static_cast<int>(OpClass::MemLoad)]
                         : L.L1MissTime,
                   Cycles);
          L.RegReady[I.Dst] = Dram ? L.startMiss(Config.DramSeconds) : L.Now;
        }
        break;
      }
      case OpClass::MemStore: {
        uint64_t A = M.maskAddr(M.Regs[I.Src1] + I.Imm);
        M.write32(A, static_cast<uint32_t>(M.Regs[I.Src2]));
        ++Shared.Stores;
        if (!L1.access(A)) {
          ++Shared.L1DMisses;
          if (!L2.access(A))
            ++Shared.L2Misses; // write buffer: no core-visible DRAM wait
        }
        for (Lane &L : Lanes) {
          L.gatedWait(Block, std::max(L.RegReady[I.Src1], L.RegReady[I.Src2]));
          L.memory(Block, OpClass::MemStore,
                   L.OpTime[static_cast<int>(OpClass::MemStore)],
                   Config.L1HitCycles);
        }
        break;
      }
      default: {
        // Compute classes. Mov is register renaming: it never stalls on
        // its source — the destination inherits the source's readiness —
        // matching the behaviour of the out-of-order cores the paper
        // profiles on (and of modulo-scheduled compiler output).
        if (I.Op == Opcode::Mov) {
          M.Regs[I.Dst] = M.Regs[I.Src1];
          for (Lane &L : Lanes) {
            L.compute(Block, OpClass::IntAlu,
                      L.OpTime[static_cast<int>(OpClass::IntAlu)],
                      Config.IntAluLatency);
            L.RegReady[I.Dst] = std::max(L.RegReady[I.Src1], L.Now);
          }
          break;
        }
        // MovImm has no sources, so it never waits.
        bool HasSources = I.Op != Opcode::MovImm;
        if (HasSources)
          M.Regs[I.Dst] = evalBinary(I.Op, M.Regs[I.Src1], M.Regs[I.Src2]);
        else
          M.Regs[I.Dst] = I.Imm;
        int Lat = Config.latency(Class);
        for (Lane &L : Lanes) {
          if (HasSources)
            L.gatedWait(Block,
                        std::max(L.RegReady[I.Src1], L.RegReady[I.Src2]));
          L.compute(Block, Class, L.OpTime[static_cast<int>(Class)], Lat);
          L.RegReady[I.Dst] = L.Now;
        }
        break;
      }
      }
    }

    // Terminator. A branch itself costs one ALU cycle.
    int Slot = 0;
    switch (BB.Term) {
    case TermKind::Ret:
      // Drain: the run ends when core and memory are both done.
      for (Lane &L : Lanes) {
        double End = std::max(L.Now, L.MissBusyUntil);
        L.S.BlockTimeSeconds[Block] += End - L.Now;
        L.Now = End;
      }
      return finish(true);
    case TermKind::Jump:
      for (Lane &L : Lanes)
        L.compute(Block, OpClass::IntAlu, L.BranchTime, 1);
      break;
    case TermKind::CondBr:
      Slot = M.Regs[BB.CondReg] != 0 ? 0 : 1;
      for (Lane &L : Lanes) {
        L.gatedWait(Block, L.RegReady[BB.CondReg]);
        L.compute(Block, OpClass::IntAlu, L.BranchTime, 1);
      }
      break;
    }
    int Next = BB.Succs[Slot];

    ++PathPairs[2 * PrevPath + Slot];
    PrevPath = 2 * InEdge + Slot;
    InEdge = 2 * static_cast<size_t>(Block) + Slot;

    if (Control) {
      Lane &L = Lanes.front();
      int NewMode = Control->modeAfterPath(PrevBlock, {Block, Next}, L.Mode);
      if (NewMode != L.Mode) {
        assert(NewMode >= 0 && NewMode < static_cast<int>(Modes.size()) &&
               "assigned mode out of range");
        double Vi = Modes.level(L.Mode).Volts;
        double Vj = Modes.level(NewMode).Volts;
        double St = Transitions->switchTime(Vi, Vj);
        double Se = Transitions->switchEnergy(Vi, Vj);
        L.Now += St;
        L.S.EnergyJoules += Se;
        L.S.TransitionSeconds += St;
        L.S.TransitionJoules += Se;
        ++L.S.Transitions;
        // Attribute the switch to the source block of the edge.
        L.S.BlockTimeSeconds[Block] += St;
        L.S.BlockEnergyJoules[Block] += Se;
        L.setMode(Modes, NewMode, Config);
      }
    }

    PrevBlock = Block;
    Block = Next;
  }
}
