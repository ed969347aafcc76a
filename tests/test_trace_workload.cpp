#include "trace/trace_workload.hpp"

#include <gtest/gtest.h>

#include "sim/collector.hpp"
#include "sim/simulator.hpp"
#include "trace/mixed.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

TEST(TraceWorkload, RejectsEmptyTrace) {
  EXPECT_THROW(TraceWorkload{{}}, std::invalid_argument);
}

TEST(TraceWorkload, ReplaysInOrderAndWraps) {
  const std::vector<MemAccess> trace{{0x40, Op::kWrite, 1},
                                     {0x80, Op::kRead, 0},
                                     {0xC0, Op::kWrite, 2}};
  TraceWorkload wl{trace, "unit"};
  EXPECT_EQ(wl.name(), "unit");
  EXPECT_EQ(wl.size(), 3u);
  for (int lap = 0; lap < 3; ++lap) {
    for (const MemAccess& want : trace) {
      EXPECT_EQ(wl.next(), want);
    }
  }
  EXPECT_EQ(wl.initial_line(0x40), CacheLine{});  // cold memory
}

TEST(TraceWorkload, DrivesTheFullSimulator) {
  // Capture a synthetic stream, replay it from the trace adapter, and
  // check the pipelines agree on write-back counts.
  WorkloadProfile p = profile_by_name("gcc");
  p.working_set_lines = 256;
  SyntheticWorkload source{p, 5};
  std::vector<MemAccess> accesses;
  for (int i = 0; i < 20000; ++i) accesses.push_back(source.next());

  SimConfig config;
  config.caches = {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 32 * kLineBytes, .ways = 4},
  };
  config.warmup_accesses = 0;
  Simulator sim{config, std::make_unique<TraceWorkload>(accesses),
                Scheme::kReadSae};
  sim.run(accesses.size());
  sim.drain();
  EXPECT_GT(sim.stats().writebacks, 100u);
  // Every line in the NVM decodes consistently (spot-check a handful).
  usize checked = 0;
  for (const MemAccess& a : accesses) {
    if (a.op != Op::kWrite || checked >= 5) continue;
    ++checked;
    (void)sim.device().load(a.line_addr());  // must not throw
  }
}

TEST(Collector, RecordRequestsCapturesInterleavedOrder) {
  WorkloadProfile p = profile_by_name("milc");
  p.working_set_lines = 128;
  SyntheticWorkload wl{p, 7};
  CollectorConfig cfg;
  cfg.caches = {{.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2}};
  cfg.warmup_accesses = 500;
  cfg.measured_accesses = 5000;
  cfg.record_requests = true;
  const WritebackTrace trace = collect_writebacks(wl, cfg);
  EXPECT_FALSE(trace.requests.empty());
  usize reads = 0;
  usize writes = 0;
  for (const MemAccess& r : trace.requests) {
    (r.op == Op::kWrite ? writes : reads) += 1;
  }
  EXPECT_EQ(reads, trace.demand_reads);
  EXPECT_EQ(writes, trace.measured.size());
}

TEST(Collector, RequestsOffByDefault) {
  WorkloadProfile p = profile_by_name("milc");
  p.working_set_lines = 128;
  SyntheticWorkload wl{p, 7};
  CollectorConfig cfg;
  cfg.caches = {{.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2}};
  cfg.warmup_accesses = 100;
  cfg.measured_accesses = 1000;
  EXPECT_TRUE(collect_writebacks(wl, cfg).requests.empty());
}

TEST(MixedWorkload, RunsThroughSimulatorEndToEnd) {
  std::vector<std::unique_ptr<WorkloadGenerator>> cores;
  for (const char* name : {"gcc", "sjeng"}) {
    WorkloadProfile p = profile_by_name(name);
    p.working_set_lines = 128;
    cores.push_back(std::make_unique<SyntheticWorkload>(p, 3));
  }
  SimConfig config;
  config.caches = {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 32 * kLineBytes, .ways = 4},
  };
  config.warmup_accesses = 1000;
  Simulator sim{config, std::make_unique<MixedWorkload>(std::move(cores)),
                Scheme::kReadSae};
  sim.warmup();
  sim.run(20000);
  EXPECT_GT(sim.stats().writebacks, 100u);
  EXPECT_LT(sim.stats().flips.total(),
            sim.stats().writebacks * kLineBits);
}

}  // namespace
}  // namespace nvmenc
