//===- bench/bench_wire.cpp - cdvs-wire framing microbenchmarks ------------===//
//
// google-benchmark timings of the cdvs-wire v1 codec in isolation:
// header encode/decode, whole-frame encode across payload sizes, and
// FrameParser reassembly throughput for contiguous streams and for the
// fragmented arrival pattern real sockets produce. The parser numbers
// bound what one net::Server loop thread can ingest before the MILP
// pipeline — not the network — is the bottleneck. The binary writes a
// results file only when given --benchmark_out=FILE.
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace cdvs;
using namespace cdvs::net;

namespace {

void BM_HeaderEncode(benchmark::State &State) {
  FrameHeader H;
  H.Type = FrameType::Request;
  H.Correlation = 0x123456789abcdef0ull;
  H.PayloadBytes = 512;
  unsigned char B[kFrameHeaderBytes];
  for (auto _ : State) {
    encodeFrameHeader(H, B);
    benchmark::DoNotOptimize(B);
  }
}
BENCHMARK(BM_HeaderEncode);

void BM_HeaderDecode(benchmark::State &State) {
  FrameHeader H;
  H.Type = FrameType::Request;
  H.Correlation = 0x123456789abcdef0ull;
  H.PayloadBytes = 512;
  unsigned char B[kFrameHeaderBytes];
  encodeFrameHeader(H, B);
  FrameHeader Out;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        decodeFrameHeader(B, sizeof(B), ~size_t{0}, Out));
    benchmark::DoNotOptimize(Out.Correlation);
  }
}
BENCHMARK(BM_HeaderDecode);

/// Whole-frame encode; range(0) is the payload size in bytes (256 is a
/// typical request, 4K a schedule-bearing response).
void BM_FrameEncode(benchmark::State &State) {
  std::string Payload(static_cast<size_t>(State.range(0)), 'x');
  uint64_t Corr = 1;
  for (auto _ : State) {
    std::string Bytes = encodeFrame(FrameType::Request, Corr++, Payload);
    benchmark::DoNotOptimize(Bytes.data());
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Payload.size() +
                                               kFrameHeaderBytes));
}
BENCHMARK(BM_FrameEncode)->Arg(0)->Arg(256)->Arg(4096)->Arg(65536);

/// Parser throughput on a contiguous batch of frames (the happy case:
/// one recv() returned many whole frames).
void BM_ParseContiguousStream(benchmark::State &State) {
  const size_t PayloadBytes = static_cast<size_t>(State.range(0));
  const int FramesPerBatch = 64;
  std::string Stream;
  for (int I = 0; I < FramesPerBatch; ++I)
    Stream += encodeFrame(FrameType::Request,
                          static_cast<uint64_t>(I + 1),
                          std::string(PayloadBytes, 'p'));
  for (auto _ : State) {
    FrameParser Parser;
    Parser.feed(Stream.data(), Stream.size());
    Frame F;
    int N = 0;
    while (Parser.next(F) == FrameParser::Next::Frame)
      ++N;
    benchmark::DoNotOptimize(N);
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Stream.size()));
}
BENCHMARK(BM_ParseContiguousStream)->Arg(256)->Arg(4096);

/// Parser throughput when frames arrive fragmented; range(0) is the
/// chunk size fed per call (a small MTU-ish slice splits most frames
/// across feeds and stresses the reassembly path).
void BM_ParseFragmentedStream(benchmark::State &State) {
  const size_t Chunk = static_cast<size_t>(State.range(0));
  const int FramesPerBatch = 64;
  std::string Stream;
  for (int I = 0; I < FramesPerBatch; ++I)
    Stream += encodeFrame(FrameType::Request,
                          static_cast<uint64_t>(I + 1),
                          std::string(1024, 'p'));
  for (auto _ : State) {
    FrameParser Parser;
    Frame F;
    int N = 0;
    for (size_t Off = 0; Off < Stream.size(); Off += Chunk) {
      Parser.feed(Stream.data() + Off,
                  std::min(Chunk, Stream.size() - Off));
      while (Parser.next(F) == FrameParser::Next::Frame)
        ++N;
    }
    benchmark::DoNotOptimize(N);
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Stream.size()));
}
BENCHMARK(BM_ParseFragmentedStream)->Arg(64)->Arg(1460)->Arg(16384);

/// The Reject payload codec (error path; runs under protocol abuse).
void BM_RejectRoundTrip(benchmark::State &State) {
  for (auto _ : State) {
    std::string Payload =
        encodeReject("too_large", "frame of 2097152 bytes exceeds cap");
    ErrorOr<RejectInfo> R = decodeReject(Payload);
    benchmark::DoNotOptimize(R.hasValue());
  }
}
BENCHMARK(BM_RejectRoundTrip);

} // namespace

BENCHMARK_MAIN();
