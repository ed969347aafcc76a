#include "memsys/memory_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "memsys/encode_cost.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/sweep.hpp"
#include "memsys/trace_replay.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

MemSysConfig small_config() {
  MemSysConfig c;
  c.org.channels = 2;
  c.org.banks = 2;
  c.write_queue_capacity = 8;
  c.high_watermark = 6;
  c.low_watermark = 2;
  return c;
}

/// Steps until the next completion with an effectively unbounded horizon.
std::optional<MemSysCompletion> step(MemorySystem& sys) {
  return sys.step_until(1e18);
}

TEST(MemSysConfig, Validation) {
  MemSysConfig c = small_config();
  EXPECT_NO_THROW(c.validate());
  c.high_watermark = 9;  // > capacity
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.low_watermark = 6;  // == high
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.high_watermark = c.write_queue_capacity;  // edge: high == capacity
  EXPECT_NO_THROW(c.validate());
  c.low_watermark = 0;  // edge: drain runs the queue dry
  EXPECT_NO_THROW(c.validate());
  c = small_config();
  c.t_cmd_ns = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MemorySystem, SingleReadCompletes) {
  MemorySystem sys{small_config()};
  const u64 ticket = sys.submit(0, ReqKind::kRead, 0.0);
  const auto comp = step(sys);
  ASSERT_TRUE(comp.has_value());
  EXPECT_EQ(comp->ticket, ticket);
  EXPECT_EQ(comp->kind, ReqKind::kRead);
  EXPECT_FALSE(comp->forwarded);
  // Cold access: row miss + array read + bus.
  const MemOrg& org = sys.config().org;
  EXPECT_DOUBLE_EQ(comp->time_ns,
                   org.t_row_cycle_ns + org.t_read_ns + org.t_bus_ns);
  EXPECT_EQ(sys.stats().reads, 1u);
  EXPECT_TRUE(sys.idle());
}

TEST(MemorySystem, StepUntilHonorsHorizon) {
  MemorySystem sys{small_config()};
  sys.submit(0, ReqKind::kRead, 0.0);
  // The read cannot finish by t=10, so nothing is delivered yet.
  EXPECT_FALSE(sys.step_until(10.0).has_value());
  EXPECT_TRUE(step(sys).has_value());
}

TEST(MemorySystem, WriteIsPostedImmediately) {
  MemorySystem sys{small_config()};
  const u64 ticket = sys.submit(0, ReqKind::kWrite, 5.0);
  const auto comp = sys.step_until(5.0);
  ASSERT_TRUE(comp.has_value());
  EXPECT_EQ(comp->ticket, ticket);
  EXPECT_EQ(comp->kind, ReqKind::kWrite);
  EXPECT_DOUBLE_EQ(comp->time_ns, 5.0);  // accepted at arrival
}

TEST(MemorySystem, ReadAroundWriteForwards) {
  MemSysConfig c = small_config();
  c.opportunistic_writes = false;  // keep the write queued
  MemorySystem sys{c};
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  (void)sys.step_until(0.0);  // write acceptance
  sys.submit(0x40, ReqKind::kRead, 1.0);
  const auto comp = sys.step_until(1.0);
  ASSERT_TRUE(comp.has_value());
  EXPECT_TRUE(comp->forwarded);
  EXPECT_DOUBLE_EQ(comp->time_ns, 1.0);  // forward_ns defaults to 0
  EXPECT_EQ(sys.stats().forwarded_reads, 1u);
}

TEST(MemorySystem, RewritesCoalesce) {
  MemSysConfig c = small_config();
  c.opportunistic_writes = false;
  MemorySystem sys{c};
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  sys.submit(0x40, ReqKind::kWrite, 1.0);
  sys.submit(0x40, ReqKind::kWrite, 2.0);
  EXPECT_EQ(sys.write_queue_depth(0), 1u);
  EXPECT_EQ(sys.stats().coalesced_writes, 2u);
  sys.drain_all();
  EXPECT_EQ(sys.stats().array_writes, 1u);  // one line hit the array
  EXPECT_EQ(sys.stats().writes, 3u);        // but all three were accepted
}

TEST(MemorySystem, WatermarkEntersAndLeavesDrainMode) {
  MemSysConfig c = small_config();
  c.opportunistic_writes = false;  // drain only via the watermark
  MemorySystem sys{c};
  // All writes land on channel 0 (same row id space, distinct lines).
  for (u64 i = 0; i < 5; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  while (sys.step_until(0.0).has_value()) {
  }
  EXPECT_EQ(sys.stats().drains, 0u);  // below the high watermark
  EXPECT_EQ(sys.write_queue_depth(0), 5u);
  sys.submit(5 * kLineBytes, ReqKind::kWrite, 0.0);  // depth 6 == high
  EXPECT_EQ(sys.stats().drains, 1u);
  // Arbitration drains down to the low watermark, then stops.
  while (step(sys).has_value()) {
  }
  EXPECT_EQ(sys.write_queue_depth(0), c.low_watermark);
  EXPECT_EQ(sys.stats().array_writes, 4u);
}

TEST(MemorySystem, HighEqualsCapacityLowZeroDrainsDry) {
  MemSysConfig c = small_config();
  c.opportunistic_writes = false;
  c.write_queue_capacity = 4;
  c.high_watermark = 4;  // edge: only a full queue triggers the drain
  c.low_watermark = 0;   // edge: the drain runs the queue dry
  MemorySystem sys{c};
  for (u64 i = 0; i < 4; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  EXPECT_EQ(sys.stats().drains, 1u);
  while (step(sys).has_value()) {
  }
  EXPECT_EQ(sys.write_queue_depth(0), 0u);
  EXPECT_EQ(sys.stats().array_writes, 4u);
}

TEST(MemorySystem, FullQueueParksWritesUntilDrain) {
  MemSysConfig c = small_config();
  c.opportunistic_writes = false;
  c.write_queue_capacity = 2;
  c.high_watermark = 2;
  c.low_watermark = 0;
  c.org.channels = 1;
  MemorySystem sys{c};
  // A read occupies the single bank first so the drain cannot issue (and
  // thus cannot free a slot) until it finishes.
  sys.submit(3 * kLineBytes, ReqKind::kRead, 0.0);
  (void)sys.step_until(0.0);  // the read issues now, bank busy until ~168
  // Third distinct line exceeds capacity; its acceptance must wait for
  // the drain the second write triggered.
  sys.submit(0 * kLineBytes, ReqKind::kWrite, 1.0);
  sys.submit(1 * kLineBytes, ReqKind::kWrite, 2.0);
  sys.submit(2 * kLineBytes, ReqKind::kWrite, 3.0);
  EXPECT_EQ(sys.stats().write_stalls, 1u);
  std::vector<MemSysCompletion> comps;
  while (const auto comp = step(sys)) comps.push_back(*comp);
  ASSERT_EQ(comps.size(), 4u);  // 1 read + 3 writes
  // The parked write's acceptance waited for the bank-busy drain: its
  // completion time is well past its arrival.
  EXPECT_EQ(comps.back().kind, ReqKind::kWrite);
  EXPECT_GT(comps.back().time_ns, 100.0);
  EXPECT_GT(sys.stats().write_accept_ns.max(), 0.0);
  sys.drain_all();
  EXPECT_EQ(sys.stats().array_writes, 3u);
  EXPECT_TRUE(sys.idle());
}

TEST(MemorySystem, ReadsHavePriorityOverQueuedWrites) {
  MemSysConfig c = small_config();
  c.org.channels = 1;
  c.org.banks = 1;
  c.org.ranks = 1;
  MemorySystem sys{c};
  // Queue writes below the watermark, then a read: the read must be
  // served before any background write occupies the (single) bank.
  sys.submit(0 * kLineBytes, ReqKind::kWrite, 0.0);
  sys.submit(1 * kLineBytes, ReqKind::kWrite, 0.0);
  sys.submit(2 * kLineBytes, ReqKind::kRead, 0.0);
  std::optional<MemSysCompletion> read_comp;
  while (const auto comp = step(sys)) {
    if (comp->kind == ReqKind::kRead) read_comp = comp;
  }
  ASSERT_TRUE(read_comp.has_value());
  const MemOrg& org = sys.config().org;
  // Served first: cold-row read latency, no 150 ns write ahead of it.
  EXPECT_DOUBLE_EQ(read_comp->time_ns,
                   org.t_row_cycle_ns + org.t_read_ns + org.t_bus_ns);
}

TEST(MemorySystem, CompletionsAreMonotonicAndComplete) {
  MemorySystem sys{small_config()};
  Xoshiro256 rng{7};
  double t = 0.0;
  usize submitted = 0;
  double last = -1.0;
  usize delivered = 0;
  for (usize i = 0; i < 400; ++i) {
    t += static_cast<double>(rng.next_below(40));
    sys.submit(rng.next_below(64) * kLineBytes,
               rng.next_bool(0.6) ? ReqKind::kRead : ReqKind::kWrite, t);
    ++submitted;
    while (const auto comp = sys.step_until(t)) {
      EXPECT_GE(comp->time_ns, last);
      last = comp->time_ns;
      ++delivered;
    }
  }
  while (const auto comp = step(sys)) {
    EXPECT_GE(comp->time_ns, last);
    last = comp->time_ns;
    ++delivered;
  }
  EXPECT_EQ(delivered, submitted);
  sys.drain_all();
  EXPECT_TRUE(sys.idle());
}

TEST(MemorySystem, ReadBehindDrainWaitsForBank) {
  MemSysConfig c = small_config();
  c.opportunistic_writes = false;
  c.org.channels = 1;
  MemorySystem sys{c};
  // Six writes to bank 0 reach the high watermark and start a drain.
  for (u64 i = 0; i < 6; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  ASSERT_EQ(sys.stats().drains, 1u);
  // A read to another row of bank 0 queues behind the drain's writes.
  const u64 ticket = sys.submit(2 * c.org.row_bytes, ReqKind::kRead, 1.0);
  double read_done = 0.0;
  while (const auto comp = step(sys)) {
    if (comp->ticket == ticket) read_done = comp->time_ns;
  }
  EXPECT_GT(read_done - 1.0, c.org.t_write_ns);  // waited for a write
}

TEST(MemorySystem, DrainedLineIsNoLongerQueued) {
  MemSysConfig c = small_config();
  c.opportunistic_writes = false;
  MemorySystem sys{c};
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  (void)sys.drain_all();
  EXPECT_EQ(sys.write_queue_depth(0), 0u);
  // The drained line is not forwardable: the read goes to the array.
  sys.submit(0x40, ReqKind::kRead, 1000.0);
  const auto comp = step(sys);
  ASSERT_TRUE(comp.has_value());
  EXPECT_FALSE(comp->forwarded);
  EXPECT_GT(comp->time_ns, 1000.0);
  // And a re-write of it is a fresh queue entry, not a coalesce.
  sys.submit(0x40, ReqKind::kWrite, 2000.0);
  EXPECT_EQ(sys.stats().coalesced_writes, 0u);
  EXPECT_EQ(sys.write_queue_depth(0), 1u);
}

TEST(MemorySystem, WakeMemoMatchesShardedRunUnderEveryInvalidation) {
  // One serial replay that exercises every way a shard's cached wake can
  // go stale: plain and remapped submits (a tiny remap queue makes the
  // survivors pay the congestion penalty on their banks), Start-Gap
  // migrations charged at submit, scrub arming, a scripted channel kill,
  // and drain_all's flushing toggle at the end. The sharded driver must
  // agree bit for bit at jobs 1 and 4. Both run the same shard code, so
  // the test also checks the symptoms a stale wake leaves (below), and
  // Debug builds compare every cached wake with a fresh scan.
  SyntheticWorkload workload{profile_by_name("bwaves"), 17};
  std::vector<MemAccess> stream;
  for (usize i = 0; i < 6'000; ++i) stream.push_back(workload.next());
  TraceReplayConfig replay;
  replay.inter_arrival_ns = 15.0;
  replay.epoch_accesses = 500;
  MemSysConfig mem;
  mem.org.channels = 4;
  mem.org.encode_latency_ns = 3.47;
  // Writes issue only in watermark drains or under drain_all's flush, so
  // the flushing toggle is what releases the final sub-watermark queues.
  mem.opportunistic_writes = false;
  mem.ras.kill_channel = 1;
  mem.ras.kill_at_ns = 15'000.0;
  mem.ras.remap_queue_capacity = 2;
  mem.ras.scrub_interval_ns = 2'000.0;
  mem.ras.lifetime.leveler = WearLevelerKind::kStartGap;
  mem.ras.lifetime.wl_interval = 16;
  mem.ras.lifetime.wl_region_lines = 64;

  const TraceReplayResult serial = replay_trace(stream, replay, mem);
  ASSERT_EQ(serial.accesses, stream.size());
  ASSERT_EQ(serial.ras.channels.size(), 4u);
  ASSERT_EQ(serial.ras.lifetime.size(), 4u);
  EXPECT_EQ(serial.ras.channels[1].degraded, 1u);
  u64 backoffs = 0;
  u64 scrubs = 0;
  u64 migrations = 0;
  for (usize c = 0; c < 4; ++c) {
    backoffs += serial.ras.channels[c].remap_backoff;
    scrubs += serial.ras.channels[c].scrub_reads;
    migrations += serial.ras.lifetime[c].wl_moves;
  }
  EXPECT_GT(backoffs, 0u);
  EXPECT_GT(scrubs, 0u);
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(serial.stats.drains, 0u);
  // Symptoms a stale wake would leave even where serial and sharded
  // agree: writes stranded in a queue after drain_all, or a read left
  // waiting for the final drain (the longest honest read takes ~15 us of
  // this 90 us run).
  EXPECT_EQ(serial.stats.writes,
            serial.stats.array_writes + serial.stats.coalesced_writes);
  EXPECT_LT(serial.stats.read_latency_stat.max(), 30'000.0);

  for (usize jobs : {usize{1}, usize{4}}) {
    EXPECT_EQ(serial, replay_trace_sharded(stream, replay, mem, jobs))
        << "jobs=" << jobs;
  }
}

/// Closed-loop stats of one small stream (writes drained at the watermark
/// only, so rewrites coalesce and reads of queued lines forward).
MemSysStats closed_loop_stats(const std::vector<MemAccess>& stream) {
  MemSysConfig c = small_config();
  c.opportunistic_writes = false;
  return replay_closed_loop(stream, c).stats;
}

TEST(MemSysStats, MergeCombinesTwoRuns) {
  std::vector<MemAccess> forwarding;
  for (u64 i = 0; i < 20; ++i) {
    forwarding.push_back({i * kLineBytes, Op::kWrite});
    forwarding.push_back({i * kLineBytes, Op::kRead});
  }
  std::vector<MemAccess> reading;
  for (u64 i = 0; i < 30; ++i) {
    reading.push_back({(i % 4) * kLineBytes, Op::kRead});
  }
  const MemSysStats a = closed_loop_stats(forwarding);
  const MemSysStats b = closed_loop_stats(reading);
  ASSERT_GT(a.forwarded_reads, 0u);
  MemSysStats merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.reads, a.reads + b.reads);
  EXPECT_EQ(merged.writes, a.writes + b.writes);
  EXPECT_EQ(merged.array_writes, a.array_writes + b.array_writes);
  EXPECT_EQ(merged.forwarded_reads, a.forwarded_reads + b.forwarded_reads);
  EXPECT_EQ(merged.read_latency_stat.count(),
            a.read_latency_stat.count() + b.read_latency_stat.count());
  EXPECT_EQ(merged.read_latency_ns.count(), merged.reads);
  EXPECT_EQ(merged.last_completion_ns,
            std::max(a.last_completion_ns, b.last_completion_ns));
  // Identity: merging an empty stats block changes nothing.
  const MemSysStats before = merged;
  merged.merge(MemSysStats{});
  EXPECT_EQ(merged, before);
}

TEST(MemSysStats, ReadHistogramMatchesRunningStat) {
  std::vector<MemAccess> stream;
  for (u64 i = 0; i < 40; ++i) {
    if (i % 4 == 0) stream.push_back({i * kLineBytes, Op::kWrite});
    stream.push_back({(i % 8) * kLineBytes, Op::kRead});
  }
  const MemSysStats st = closed_loop_stats(stream);
  EXPECT_EQ(st.read_latency_ns.count(), st.reads);
  EXPECT_EQ(st.read_latency_stat.count(), st.reads);
  EXPECT_NEAR(st.read_latency_ns.mean(), st.read_latency_stat.mean(), 1e-9);
}

TEST(Zipfian, RanksInRangeAndSkewed) {
  ZipfianSampler zipf{1000, 0.99};
  Xoshiro256 rng{3};
  usize top = 0;
  for (usize i = 0; i < 20'000; ++i) {
    const u64 r = zipf.sample(rng);
    ASSERT_LT(r, 1000u);
    if (r == 0) ++top;
  }
  // Rank 0 holds far more than the uniform 1/1000 share.
  EXPECT_GT(top, 2000u);
  EXPECT_THROW((ZipfianSampler{1000, 1.5}), std::invalid_argument);
  EXPECT_THROW((ZipfianSampler{1, 0.99}), std::invalid_argument);
}

TEST(AddressSampler, DiurnalShiftsTheMap) {
  LoadGenConfig cfg;
  cfg.pattern = LoadPattern::kDiurnal;
  cfg.requests = 1000;
  cfg.diurnal_phases = 2;
  cfg.diurnal_shift = 0.5;
  cfg.footprint_lines = 1024;
  const AddressSampler sampler{cfg};
  // Same rng stream, different phase clock: the map rotates by exactly
  // shift * footprint.
  Xoshiro256 a{9};
  Xoshiro256 b{9};
  for (usize i = 0; i < 200; ++i) {
    const u64 phase0 = sampler.draw(a, 0);
    const u64 phase1 = sampler.draw(b, cfg.requests - 1);
    EXPECT_EQ((phase0 + 512) % 1024, phase1);
  }
}

TEST(LoadGen, ValidationAndAccounting) {
  LoadGenConfig load;
  load.users = 0;
  EXPECT_THROW(load.validate(), std::invalid_argument);
  load = LoadGenConfig{};
  load.read_fraction = 1.5;
  EXPECT_THROW(load.validate(), std::invalid_argument);

  load = LoadGenConfig{};
  load.requests = 3000;
  load.footprint_lines = 4096;
  load.users = 8;
  load.think_ns = 50.0;
  const LoadResult r = run_load(load, small_config());
  EXPECT_EQ(r.stats.reads + r.stats.writes, load.requests);
  EXPECT_EQ(r.stats.read_latency_ns.count(), r.stats.reads);
  EXPECT_GT(r.stats.sustained_gbps(), 0.0);
  EXPECT_GT(r.makespan_ns, 0.0);
  EXPECT_GE(r.makespan_ns, r.stats.last_completion_ns);
}

TEST(LoadGen, BitIdenticalAcrossRuns) {
  LoadGenConfig load;
  load.requests = 5000;
  load.footprint_lines = 4096;
  load.users = 16;
  load.think_ns = 80.0;
  const LoadResult a = run_load(load, small_config());
  const LoadResult b = run_load(load, small_config());
  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.stats.drains, b.stats.drains);
  EXPECT_EQ(a.stats.forwarded_reads, b.stats.forwarded_reads);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);  // exact, not approximate
  EXPECT_EQ(a.stats.read_latency_ns.p99(), b.stats.read_latency_ns.p99());
  EXPECT_EQ(a.stats.read_latency_ns.mean(), b.stats.read_latency_ns.mean());
}

TEST(EncodeCost, ModelsAndNames) {
  EXPECT_EQ(encode_model_by_name("paper"), EncodeLatencyModel::kPaper);
  EXPECT_EQ(encode_model_by_name("measured"), EncodeLatencyModel::kMeasured);
  EXPECT_EQ(encode_model_by_name("none"), EncodeLatencyModel::kNone);
  EXPECT_THROW((void)encode_model_by_name("fast"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(paper_encode_ns(Scheme::kReadSae), 3.47);
  EXPECT_DOUBLE_EQ(paper_encode_ns(Scheme::kDcw), 0.0);
  EXPECT_DOUBLE_EQ(
      encode_latency_ns(Scheme::kReadSae, EncodeLatencyModel::kNone), 0.0);
  // The software kernel is orders slower than the synthesized circuit.
  EXPECT_GT(measured_encode_ns(Scheme::kReadSae),
            paper_encode_ns(Scheme::kReadSae));
}

TEST(EncodeCost, CalibrationIsDeterministicAndSane) {
  const SchemeWriteCost a =
      calibrate_write_cost(Scheme::kReadSae, "gcc", 42, 32, 3);
  const SchemeWriteCost b =
      calibrate_write_cost(Scheme::kReadSae, "gcc", 42, 32, 3);
  EXPECT_EQ(a.avg_sets, b.avg_sets);
  EXPECT_EQ(a.avg_resets, b.avg_resets);
  EXPECT_GT(a.avg_sets + a.avg_resets, 0.0);
  EXPECT_GT(a.meta_bits, 0.0);
  EXPECT_GT(a.write_pj(EnergyParams{}, true),
            a.write_pj(EnergyParams{}, false));
  EXPECT_THROW((void)calibrate_write_cost(Scheme::kReadSaePaper, "gcc", 42),
               std::invalid_argument);
}

TEST(Sweep, JobsDoNotChangeResults) {
  SweepConfig cfg;
  cfg.load.requests = 2000;
  cfg.load.footprint_lines = 2048;
  cfg.load.users = 8;
  cfg.mem = small_config();
  cfg.think_points = {400.0, 50.0};
  cfg.schemes = {{Scheme::kDcw, EncodeLatencyModel::kPaper},
                 {Scheme::kReadSae, EncodeLatencyModel::kMeasured}};
  cfg.jobs = 1;
  const std::vector<SweepCell> serial = run_saturation_sweep(cfg);
  cfg.jobs = 4;
  const std::vector<SweepCell> parallel = run_saturation_sweep(cfg);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 4u);  // 2 schemes x 2 load points
  for (usize i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scheme_label, parallel[i].scheme_label);
    EXPECT_EQ(serial[i].load.makespan_ns, parallel[i].load.makespan_ns);
    EXPECT_EQ(serial[i].load.stats.read_latency_ns.p99(),
              parallel[i].load.stats.read_latency_ns.p99());
    EXPECT_EQ(serial[i].load.stats.drains, parallel[i].load.stats.drains);
    EXPECT_EQ(serial[i].write_pj, parallel[i].write_pj);
  }
  // The measured-latency encoder must cost tail latency at high load
  // relative to DCW's free encode — the trade-off the sweep quantifies.
  EXPECT_GE(serial[3].load.stats.read_latency_ns.p99(),
            serial[1].load.stats.read_latency_ns.p99());
}

}  // namespace
}  // namespace nvmenc
