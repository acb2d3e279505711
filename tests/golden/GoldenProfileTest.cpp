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

#include "profile/Profile.h"
#include "support/Hash.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

using namespace cdvs;

namespace {

const char *const RecordPath = CDVS_GOLDEN_RECORD;

const std::vector<std::string> WorkloadNames = {
    "adpcm", "epic", "gsm", "mpeg_decode", "mpg123", "ghostscript"};

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

/// Adds a double's exact bit pattern (HashBuilder::add(double) folds
/// -0.0 into +0.0; a golden record must not).
void addBits(HashBuilder &H, double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof Bits);
  H.add(Bits);
}

void addBits(HashBuilder &H, const std::vector<double> &Vs) {
  H.add(static_cast<uint64_t>(Vs.size()));
  for (double V : Vs)
    addBits(H, V);
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
std::map<std::string, std::string> computeEntries(const Workload &W) {
  std::map<std::string, std::string> Entries;
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
      Entries[Prefix + Name] = profileEntry(collectProfile(Sim, Modes));
    Entries[Prefix + "run-xscale3"] =
        "run=" + runDigest(Sim.run(ModeTable::xscale3(), Mixed, Regulator));
  }
  return Entries;
}

std::map<std::string, std::string> readRecord() {
  std::map<std::string, std::string> Record;
  std::ifstream In(RecordPath);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    // The key is the first three fields; the digests follow.
    std::istringstream Fields(Line);
    std::string Name, Input, Table, Digests;
    Fields >> Name >> Input >> Table;
    std::getline(Fields >> std::ws, Digests);
    Record[Name + " " + Input + " " + Table] = Digests;
  }
  return Record;
}

int writeRecord() {
  std::ostringstream Out;
  Out << "# Golden profile record: <workload> <input> <mode table> "
         "<digests>.\n"
         "# Regenerate with `golden_test --update` (tests/golden/"
         "GoldenProfileTest.cpp).\n";
  for (const std::string &Name : WorkloadNames)
    for (const auto &[Key, Value] : computeEntries(workloadByName(Name)))
      Out << Key << ' ' << Value << '\n';
  std::ofstream File(RecordPath);
  File << Out.str();
  if (!File) {
    std::cerr << "golden_test: cannot write " << RecordPath << "\n";
    return 1;
  }
  std::cout << "wrote " << RecordPath << "\n";
  return 0;
}

class GoldenProfiles : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenProfiles, MatchRecord) {
  std::map<std::string, std::string> Record = readRecord();
  ASSERT_FALSE(Record.empty()) << "no golden record at " << RecordPath;
  for (const auto &[Key, Value] : computeEntries(workloadByName(GetParam()))) {
    auto It = Record.find(Key);
    if (It == Record.end())
      ADD_FAILURE() << "'" << Key << "' has no record line";
    else if (It->second != Value)
      ADD_FAILURE() << "'" << Key << "' moved\n  recorded: " << It->second
                    << "\n  computed: " << Value;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GoldenProfiles, ::testing::ValuesIn(WorkloadNames),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

TEST(GoldenRecord, ListsExactlyTheBundledEntries) {
  std::map<std::string, std::string> Record = readRecord();
  std::vector<std::string> Tables = {"run-xscale3"};
  for (const auto &Table : modeTables())
    Tables.push_back(Table.first);
  size_t Expected = 0;
  for (const std::string &Name : WorkloadNames) {
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

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--update") == 0)
      return writeRecord();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
