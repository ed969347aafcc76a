// Trace replay (memsys/trace_replay.hpp): open-loop determinism, the
// text/binary round trip, the sweep's jobs-independence, and the
// closed-loop driver behind `nvmenc perf` and bench/perf_overhead.
//
// The replay path promises bit-identical statistics for a (trace, config)
// pair — across repeated runs, across --jobs values, and across the
// format the trace arrived in. These tests hold it to that with the
// defaulted operator== on TraceReplayResult, which compares every counter
// and every histogram bucket.
#include "memsys/trace_replay.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "trace/synthetic.hpp"
#include "trace/text_trace.hpp"
#include "trace/trace_io.hpp"

namespace nvmenc {
namespace {

/// Per-process temp path: ctest runs each test case as its own process,
/// concurrently under -jN, and the fixture rewrites its trace in SetUp —
/// a shared fixed name would race across cases.
std::string temp_path(const std::string& name) {
  const std::string unique = name + "." + std::to_string(::getpid());
  return (std::filesystem::temp_directory_path() / unique).string();
}

/// A short synthetic access stream with both ops and some line reuse.
std::vector<MemAccess> make_stream(u64 seed, usize n) {
  SyntheticWorkload workload{profile_by_name("gcc"), seed};
  std::vector<MemAccess> accesses;
  accesses.reserve(n);
  for (usize i = 0; i < n; ++i) accesses.push_back(workload.next());
  return accesses;
}

class TraceReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stream_ = make_stream(99, 4000);
    bin_path_ = temp_path("nvmenc_replay_test.bin");
    write_trace(bin_path_, stream_);
  }
  void TearDown() override { std::remove(bin_path_.c_str()); }

  std::vector<MemAccess> stream_;
  std::string bin_path_;
};

TEST_F(TraceReplayTest, RepeatedRunsAreBitIdentical) {
  const MappedTrace trace{bin_path_};
  const TraceReplayConfig replay;
  const MemSysConfig mem;
  const TraceReplayResult a = replay_trace(trace, replay, mem);
  const TraceReplayResult b = replay_trace(trace, replay, mem);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.accesses, stream_.size());
  EXPECT_GT(a.stats.reads + a.stats.writes, 0u);
  EXPECT_GT(a.makespan_ns, 0.0);
}

TEST_F(TraceReplayTest, BinaryAndTextArrivalsReplayIdentically) {
  // The same accesses through the mmap path and the in-memory span path:
  // the format a trace arrived in must not change a single statistic.
  const std::string text_path = temp_path("nvmenc_replay_test.txt");
  write_text_trace(text_path, stream_);
  const std::vector<MemAccess> reread = read_text_trace(text_path);
  std::remove(text_path.c_str());
  ASSERT_EQ(reread, stream_);  // access-for-access round trip

  const TraceReplayConfig replay;
  const MemSysConfig mem;
  const MappedTrace trace{bin_path_};
  const TraceReplayResult from_binary = replay_trace(trace, replay, mem);
  const TraceReplayResult from_text = replay_trace(reread, replay, mem);
  EXPECT_EQ(from_binary, from_text);
}

TEST_F(TraceReplayTest, MaxAccessesCapsTheReplay) {
  const MappedTrace trace{bin_path_};
  TraceReplayConfig replay;
  replay.max_accesses = 100;
  const MemSysConfig mem;
  const TraceReplayResult r = replay_trace(trace, replay, mem);
  EXPECT_EQ(r.accesses, 100u);
  EXPECT_EQ(r.stats.reads + r.stats.writes, 100u);
}

TEST_F(TraceReplayTest, ValidateRejectsNonPositiveArrivalSpacing) {
  TraceReplayConfig replay;
  replay.inter_arrival_ns = 0.0;
  EXPECT_THROW(replay.validate(), std::invalid_argument);
  replay.inter_arrival_ns = -1.0;
  EXPECT_THROW(replay.validate(), std::invalid_argument);
}

TEST_F(TraceReplayTest, SweepIsJobsIndependent) {
  // Four encode-latency cells, serial vs fanned out: the sweep's promise
  // is that parallelism lives entirely outside the simulation, so the
  // results must be equal element by element.
  std::vector<ReplaySweepCell> cells(4);
  cells[0] = {"none", 0.0, {}};
  cells[1] = {"paper", 3.47, {}};
  cells[2] = {"slow", 40.0, {}};
  cells[3] = {"saturating", 400.0, {}};
  const TraceReplayConfig replay;
  const MemSysConfig mem;
  const std::vector<ReplaySweepCell> serial =
      replay_sweep(bin_path_, cells, replay, mem, 1);
  const std::vector<ReplaySweepCell> fanned =
      replay_sweep(bin_path_, cells, replay, mem, 4);
  ASSERT_EQ(serial.size(), fanned.size());
  for (usize i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, fanned[i].label);
    EXPECT_EQ(serial[i].result, fanned[i].result) << serial[i].label;
  }
  // Encode latency must actually bite: a 400 ns encoder cannot finish as
  // early as a free one under the same offered load.
  EXPECT_GE(serial[3].result.makespan_ns, serial[0].result.makespan_ns);
}

TEST_F(TraceReplayTest, OpenLoopIgnoresBackpressure) {
  // Closed-loop arrival times depend on completions; open-loop ones do
  // not. Submitting at 1 ns spacing against 100 ns array reads must park
  // arrivals and grow the read tail — visible as write stalls or a p99
  // far above the unloaded service time.
  const MappedTrace trace{bin_path_};
  TraceReplayConfig replay;
  replay.inter_arrival_ns = 1.0;
  const MemSysConfig mem;
  const TraceReplayResult hot = replay_trace(trace, replay, mem);
  replay.inter_arrival_ns = 1000.0;
  const TraceReplayResult cold = replay_trace(trace, replay, mem);
  EXPECT_GT(hot.stats.read_latency_ns.p99(),
            cold.stats.read_latency_ns.p99());
}

// --- replay_closed_loop: the Section 3.4.2 CPU model ---

/// One channel, two banks, Table 2 array timings.
MemSysConfig two_bank_config() {
  MemSysConfig c;
  c.org.banks = 2;
  return c;
}

TEST(PerfReplay, ReadsStallWritesPost) {
  const MemSysConfig c = two_bank_config();
  // read (stalls), write (posted), read — three distinct rows.
  const std::vector<MemAccess> stream{
      {0, Op::kRead}, {4096, Op::kWrite}, {8192, Op::kRead}};
  const TraceReplayResult r = replay_closed_loop(stream, c);
  EXPECT_EQ(r.stats.reads, 2u);
  EXPECT_EQ(r.stats.writes, 1u);
  EXPECT_EQ(r.timing.writes, 1u);  // the final drain reached the array
  EXPECT_EQ(r.stats.write_accept_ns.max(), 0.0);  // accepted on arrival
  // Each read waits a cold-row service time; the CPU gap precedes every
  // arrival.
  const double cold_read =
      c.org.t_row_cycle_ns + c.org.t_read_ns + c.org.t_bus_ns;
  EXPECT_GE(r.makespan_ns, 2 * cold_read + 3 * kClosedLoopGapNs);
  EXPECT_EQ(r.accesses, 3u);
}

TEST(PerfReplay, HigherEncodeLatencySlowsWriteHeavyStreams) {
  std::vector<MemAccess> stream;
  for (u64 i = 0; i < 2000; ++i) {
    stream.push_back({i * kLineBytes, i % 2 == 0 ? Op::kWrite : Op::kRead});
  }
  const MemSysConfig fast = two_bank_config();
  MemSysConfig slow = fast;
  slow.org.encode_latency_ns = 200.0;
  EXPECT_GT(replay_closed_loop(stream, slow).makespan_ns,
            replay_closed_loop(stream, fast).makespan_ns);
}

TEST(PerfReplay, EmptyStream) {
  const TraceReplayResult r = replay_closed_loop({}, MemSysConfig{});
  EXPECT_EQ(r.makespan_ns, 0.0);
  EXPECT_EQ(r.stats.reads, 0u);
  EXPECT_EQ(r.timing.reads, 0u);
}

TEST(PerfReplay, WatermarkDrainsCoalesceAndForwardHotWrites) {
  // Hot lines are rewritten repeatedly and read back. Drained only at the
  // watermark, the queue coalesces the rewrites (fewer array writes) and
  // forwards the reads, so the stream finishes sooner than when every
  // write is issued as soon as the channel has no read pending.
  std::vector<MemAccess> stream;
  Xoshiro256 rng{42};
  for (int burst = 0; burst < 200; ++burst) {
    for (int w = 0; w < 8; ++w) {
      stream.push_back({rng.next_below(4) * kLineBytes, Op::kWrite});
    }
    stream.push_back({rng.next_below(4) * kLineBytes, Op::kRead});
  }
  const MemSysConfig eager = two_bank_config();
  MemSysConfig watermark = eager;
  watermark.opportunistic_writes = false;
  const TraceReplayResult a = replay_closed_loop(stream, eager);
  const TraceReplayResult b = replay_closed_loop(stream, watermark);
  EXPECT_LT(b.stats.array_writes, b.stats.writes / 4);  // coalescing
  EXPECT_GT(b.stats.forwarded_reads, 100u);             // forwarding
  EXPECT_LT(b.makespan_ns, a.makespan_ns);              // less array work
}

}  // namespace
}  // namespace nvmenc
