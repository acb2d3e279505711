//===- tests/golden/GoldenProfileTest.cpp - committed profile record ------===//
//
// Recomputes every entry of tests/golden/profiles.txt and names each one
// whose digest moved. The record holds, for every bundled workload x
// input:
//  * one line per mode table in use (ModeTable::xscale3() and the
//    evenVoltageLevels sets servbench and the Table 6 bench build):
//    digests of every Profile double taken bit for bit, of the block/
//    edge/path counts, and of the reference-mode RunStats;
//  * one line for a DVS-controlled run under a fixed non-uniform
//    assignment (edge (i, j) -> mode (i + j) mod 3 on xscale3 with the
//    paper's typical transition costs), which pins the transition path.
//
// Profiles reach the MILP bit for bit, so any change to the simulator's
// arithmetic, its functional core or its counters shows here first.
// After an intended change, rewrite the record with
//   golden_test --update
// and list every moved entry and its cause in CHANGES.md.
//
//===----------------------------------------------------------------------===//

#include "GoldenRecord.h"
#include "profile/Profile.h"

#include <gtest/gtest.h>

using namespace cdvs;
using namespace cdvs::golden;

namespace {

/// The mode tables in use, by the name each record line carries.
std::vector<std::pair<std::string, ModeTable>> modeTables() {
  VfModel Vf = VfModel::paperDefault();
  std::vector<std::pair<std::string, ModeTable>> Tables;
  Tables.emplace_back("xscale3", ModeTable::xscale3());
  for (int N : {2, 3, 4, 7, 13})
    Tables.emplace_back("even" + std::to_string(N),
                        ModeTable::evenVoltageLevels(N, 0.7, 1.65, Vf));
  return Tables;
}

template <typename T> void addInts(HashBuilder &H, const std::vector<T> &Vs) {
  H.add(static_cast<uint64_t>(Vs.size()));
  for (T V : Vs)
    H.add(static_cast<uint64_t>(V));
}

void addCounts(HashBuilder &H, const std::map<CfgEdge, uint64_t> &Edges,
               const std::map<LocalPath, uint64_t> &Paths) {
  H.add(static_cast<uint64_t>(Edges.size()));
  for (const auto &[E, N] : Edges) {
    H.add(E.From);
    H.add(E.To);
    H.add(N);
  }
  H.add(static_cast<uint64_t>(Paths.size()));
  for (const auto &[P, N] : Paths) {
    H.add(std::get<0>(P));
    H.add(std::get<1>(P));
    H.add(std::get<2>(P));
    H.add(N);
  }
}

std::string runDigest(const RunStats &S) {
  HashBuilder H;
  H.add(static_cast<uint64_t>(S.Completed));
  addBits(H, S.TimeSeconds);
  addBits(H, S.EnergyJoules);
  for (uint64_t C : {S.Instructions, S.Loads, S.Stores, S.L1DMisses,
                     S.L1IMisses, S.L2Misses, S.Transitions,
                     S.NoverlapCycles, S.NdependentCycles, S.NcacheCycles})
    H.add(C);
  addInts(H, S.BlockExecs);
  addBits(H, S.BlockTimeSeconds);
  addBits(H, S.BlockEnergyJoules);
  addCounts(H, S.EdgeCounts, S.PathCounts);
  H.add(static_cast<uint64_t>(S.QuadCounts.size()));
  for (const auto &[Q, N] : S.QuadCounts) {
    H.add(std::get<0>(Q));
    H.add(std::get<1>(Q));
    H.add(std::get<2>(Q));
    H.add(std::get<3>(Q));
    H.add(N);
  }
  addBits(H, S.TransitionSeconds);
  addBits(H, S.TransitionJoules);
  addInts(H, S.FinalRegs);
  addBits(H, S.TinvariantSeconds);
  addBits(H, S.GatedSeconds);
  return H.digest();
}

std::string profileEntry(const Profile &P) {
  HashBuilder Doubles;
  Doubles.add(P.NumBlocks);
  Doubles.add(P.NumModes);
  for (const std::vector<double> &Row : P.TimePerInvocation)
    addBits(Doubles, Row);
  for (const std::vector<double> &Row : P.EnergyPerInvocation)
    addBits(Doubles, Row);
  addBits(Doubles, P.TotalTimeAtMode);
  addBits(Doubles, P.TotalEnergyAtMode);
  HashBuilder Counts;
  addInts(Counts, P.BlockExecs);
  addCounts(Counts, P.EdgeCounts, P.PathCounts);
  return "profile=" + Doubles.digest() + " counts=" + Counts.digest() +
         " reference=" + runDigest(P.Reference);
}

/// Every record entry of one workload: "<workload> <input> <table>" ->
/// the digests that line carries.
Entries computeEntries(const Workload &W) {
  Entries Out;
  TransitionModel Regulator = TransitionModel::paperTypical();
  ModeAssignment Mixed;
  Mixed.InitialMode = 2;
  for (const CfgEdge &E : W.Fn->edges())
    Mixed.EdgeMode[E] = (E.From + E.To) % 3;
  for (const WorkloadInput &In : W.Inputs) {
    Simulator Sim(*W.Fn);
    In.Setup(Sim);
    std::string Prefix = W.Name + " " + In.Name + " ";
    for (const auto &[Name, Modes] : modeTables())
      Out[Prefix + Name] = profileEntry(collectProfile(Sim, Modes));
    Out[Prefix + "run-xscale3"] =
        "run=" + runDigest(Sim.run(ModeTable::xscale3(), Mixed, Regulator));
  }
  return Out;
}

} // namespace

const RecordFile &golden::profileRecord() {
  static const RecordFile F = {
      CDVS_GOLDEN_PROFILES,
      "# Golden profile record: <workload> <input> <mode table> "
      "<digests>.\n"
      "# Regenerate with `golden_test --update` (tests/golden/"
      "GoldenProfileTest.cpp).\n",
      computeEntries};
  return F;
}

namespace {

class GoldenProfiles : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenProfiles, MatchRecord) {
  expectMatchesRecord(profileRecord(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GoldenProfiles, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

TEST(GoldenRecord, ListsExactlyTheBundledEntries) {
  Entries Record = readRecord(profileRecord());
  std::vector<std::string> Tables = {"run-xscale3"};
  for (const auto &Table : modeTables())
    Tables.push_back(Table.first);
  size_t Expected = 0;
  for (const std::string &Name : workloadNames()) {
    Workload W = workloadByName(Name);
    for (const WorkloadInput &In : W.Inputs)
      for (const std::string &Table : Tables) {
        std::string Key = W.Name + " " + In.Name + " " + Table;
        EXPECT_TRUE(Record.count(Key)) << "missing '" << Key << "'";
        ++Expected;
      }
  }
  EXPECT_EQ(Record.size(), Expected) << "the record has stale lines";
}

} // namespace
