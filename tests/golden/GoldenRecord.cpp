//===- tests/golden/GoldenRecord.cpp - committed golden records -----------===//
//
// Reading, checking and rewriting the golden records, and the test
// binary's main: `golden_test --update` rewrites every record from the
// current code instead of running the tests.
//
//===----------------------------------------------------------------------===//

#include "GoldenRecord.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace cdvs;
using namespace cdvs::golden;

const std::vector<std::string> &golden::workloadNames() {
  static const std::vector<std::string> Names = {
      "adpcm", "epic", "gsm", "mpeg_decode", "mpg123", "ghostscript"};
  return Names;
}

void golden::addBits(HashBuilder &H, double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof Bits);
  H.add(Bits);
}

void golden::addBits(HashBuilder &H, const std::vector<double> &Vs) {
  H.add(static_cast<uint64_t>(Vs.size()));
  for (double V : Vs)
    addBits(H, V);
}

std::string golden::bitsHex(double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof Bits);
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64, Bits);
  return Buf;
}

Entries golden::readRecord(const RecordFile &F) {
  Entries Record;
  std::ifstream In(F.Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    // The key is the first three fields; the digests follow.
    std::istringstream Fields(Line);
    std::string Name, Input, Case, Digests;
    Fields >> Name >> Input >> Case;
    std::getline(Fields >> std::ws, Digests);
    Record[Name + " " + Input + " " + Case] = Digests;
  }
  return Record;
}

void golden::expectMatchesRecord(const RecordFile &F,
                                 const std::string &Name) {
  Entries Record = readRecord(F);
  ASSERT_FALSE(Record.empty()) << "no golden record at " << F.Path;
  Entries Computed = F.Compute(workloadByName(Name));
  for (const auto &[Key, Value] : Computed) {
    auto It = Record.find(Key);
    if (It == Record.end())
      ADD_FAILURE() << "'" << Key << "' has no record line";
    else if (It->second != Value)
      ADD_FAILURE() << "'" << Key << "' moved\n  recorded: " << It->second
                    << "\n  computed: " << Value;
  }
  for (const auto &[Key, Value] : Record)
    if (Key.compare(0, Name.size() + 1, Name + " ") == 0 &&
        !Computed.count(Key))
      ADD_FAILURE() << "'" << Key << "' is a stale record line";
}

namespace {

int writeRecord(const RecordFile &F) {
  std::ostringstream Out;
  Out << F.Header;
  for (const std::string &Name : workloadNames())
    for (const auto &[Key, Value] : F.Compute(workloadByName(Name)))
      Out << Key << ' ' << Value << '\n';
  std::ofstream File(F.Path);
  File << Out.str();
  if (!File) {
    std::cerr << "golden_test: cannot write " << F.Path << "\n";
    return 1;
  }
  std::cout << "wrote " << F.Path << "\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--update") == 0)
      return writeRecord(profileRecord()) | writeRecord(scheduleRecord());
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
