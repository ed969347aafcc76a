// google-benchmark microbenchmarks: software encode/decode throughput of
// every scheme. Not a paper figure — the paper's 3.47 ns is a synthesized
// hardware number — but the software cost bounds simulation turnaround
// and documents the relative algorithmic complexity (CAFO's iterative
// optimization vs FNW's single pass vs READ+SAE's four parallel options).
//
// `--benchmark_out=FILE --benchmark_out_format=json` writes the run with
// the provenance stamp (schema version, git describe, build type) in its
// "context" block; scripts/encoder_throughput_record.py turns two such
// files, a baseline and a change, into results/BENCH_encoder_throughput.json.
#include <benchmark/benchmark.h>

#include <string>

#include "common/rng.hpp"
#include "core/schemes.hpp"
#include "provenance.hpp"

namespace nvmenc {
namespace {

std::vector<CacheLine> make_stream(usize n, u64 seed) {
  Xoshiro256 rng{seed};
  std::vector<CacheLine> lines;
  lines.reserve(n);
  for (usize i = 0; i < n; ++i) {
    CacheLine line;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      switch (rng.next_below(4)) {
        case 0: break;  // keep zero
        case 1: line.set_word(w, rng.next() & 0xFFFF); break;
        default: line.set_word(w, rng.next()); break;
      }
    }
    lines.push_back(line);
  }
  return lines;
}

void bench_encode(benchmark::State& state, Scheme scheme) {
  const EncoderPtr enc = make_encoder(scheme);
  const std::vector<CacheLine> stream = make_stream(1024, 99);
  StoredLine stored = enc->make_stored(stream[0]);
  usize i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc->encode(stored, stream[i]));
    i = (i + 1) % stream.size();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kLineBytes));
}

void bench_decode(benchmark::State& state, Scheme scheme) {
  const EncoderPtr enc = make_encoder(scheme);
  const std::vector<CacheLine> stream = make_stream(64, 77);
  StoredLine stored = enc->make_stored(stream[0]);
  (void)enc->encode(stored, stream[1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc->decode(stored));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kLineBytes));
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  using nvmenc::Scheme;
  for (Scheme s : nvmenc::paper_schemes()) {
    benchmark::RegisterBenchmark(
        ("encode/" + nvmenc::scheme_name(s)).c_str(),
        [s](benchmark::State& st) { nvmenc::bench_encode(st, s); });
    benchmark::RegisterBenchmark(
        ("decode/" + nvmenc::scheme_name(s)).c_str(),
        [s](benchmark::State& st) { nvmenc::bench_decode(st, s); });
  }
  benchmark::AddCustomContext("schema_version",
                              std::to_string(nvmenc::kBenchSchemaVersion));
  benchmark::AddCustomContext("git", NVMENC_GIT_DESCRIBE);
  benchmark::AddCustomContext("build_type", NVMENC_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
