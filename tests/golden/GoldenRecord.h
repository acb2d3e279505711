//===- tests/golden/GoldenRecord.h - committed golden records ---*- C++ -*-===//
//
// The machinery the golden records share. A record is a text file in
// tests/golden with one line per entry, "<workload> <input> <case>
// <digests>"; each workload's test recomputes that workload's entries and
// names every one that moved, has no line, or has a stale line. The
// test binary's `--update` flag rewrites every record.
//
//===----------------------------------------------------------------------===//

#ifndef CDVS_TESTS_GOLDEN_GOLDENRECORD_H
#define CDVS_TESTS_GOLDEN_GOLDENRECORD_H

#include "support/Hash.h"
#include "workloads/Workloads.h"

#include <map>
#include <string>
#include <vector>

namespace cdvs {
namespace golden {

/// Record entries: "<workload> <input> <case>" -> the digests that line
/// carries.
using Entries = std::map<std::string, std::string>;

/// One committed record file.
struct RecordFile {
  const char *Path;
  /// The file's comment lines, written ahead of the entries.
  const char *Header;
  /// Every entry of one workload.
  Entries (*Compute)(const Workload &W);
};

const RecordFile &profileRecord();
const RecordFile &scheduleRecord();

/// The bundled workloads, in record order.
const std::vector<std::string> &workloadNames();

/// Adds a double's exact bit pattern (HashBuilder::add(double) folds
/// -0.0 into +0.0; a golden record must not).
void addBits(HashBuilder &H, double V);
void addBits(HashBuilder &H, const std::vector<double> &Vs);

/// A double's bit pattern as 16 hex characters.
std::string bitsHex(double V);

/// Parses a record file; an unreadable file gives an empty map.
Entries readRecord(const RecordFile &F);

/// Recomputes \p F's entries for workload \p Name and adds one gtest
/// failure per moved, missing or stale entry.
void expectMatchesRecord(const RecordFile &F, const std::string &Name);

} // namespace golden
} // namespace cdvs

#endif // CDVS_TESTS_GOLDEN_GOLDENRECORD_H
