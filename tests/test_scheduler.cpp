// Write-queue scheduling on one channel: posting, watermark drains,
// read-around-write forwarding and rewrite coalescing. These are the
// contracts the standalone write-queue scheduler used to own; the same
// engine now lives in ChannelShard, so they are checked on a one-channel
// MemorySystem that drains only at the watermark.
#include <gtest/gtest.h>

#include <stdexcept>

#include "memsys/memory_system.hpp"

namespace nvmenc {
namespace {

MemSysConfig small_config() {
  MemSysConfig c;
  c.org.channels = 1;
  c.org.banks = 2;
  c.write_queue_capacity = 8;
  c.high_watermark = 6;
  c.low_watermark = 2;
  c.opportunistic_writes = false;  // drain only via the watermark
  return c;
}

/// Delivers every completion, with an effectively unbounded horizon.
void run_to_idle(MemorySystem& sys) {
  while (sys.step_until(1e18).has_value()) {
  }
}

TEST(Scheduler, ConfigValidation) {
  MemSysConfig c = small_config();
  EXPECT_NO_THROW(c.validate());
  c.low_watermark = 6;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.high_watermark = 9;  // > capacity
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.write_queue_capacity = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Scheduler, WritesArePostedUntilWatermark) {
  MemorySystem s{small_config()};
  for (u64 i = 0; i < 5; ++i) s.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  EXPECT_EQ(s.write_queue_depth(0), 5u);
  EXPECT_EQ(s.stats().drains, 0u);
  EXPECT_EQ(s.timing_stats().writes, 0u);  // nothing hit the array yet
  s.submit(5 * kLineBytes, ReqKind::kWrite, 0.0);  // reaches the watermark
  EXPECT_EQ(s.stats().drains, 1u);
  run_to_idle(s);
  EXPECT_EQ(s.write_queue_depth(0), small_config().low_watermark);
}

TEST(Scheduler, ReadForwardsFromQueue) {
  MemorySystem s{small_config()};
  s.submit(0x40, ReqKind::kWrite, 0.0);
  (void)s.step_until(0.0);  // write acceptance
  s.submit(0x40, ReqKind::kRead, 5.0);
  const auto done = s.step_until(5.0);
  ASSERT_TRUE(done.has_value());
  EXPECT_DOUBLE_EQ(done->time_ns, 5.0);  // on-chip forward
  EXPECT_EQ(s.stats().forwarded_reads, 1u);
}

TEST(Scheduler, CoalescesRewrites) {
  MemorySystem s{small_config()};
  s.submit(0x40, ReqKind::kWrite, 0.0);
  s.submit(0x40, ReqKind::kWrite, 1.0);
  s.submit(0x40, ReqKind::kWrite, 2.0);
  EXPECT_EQ(s.write_queue_depth(0), 1u);
}

TEST(Scheduler, DrainAllEmptiesQueue) {
  MemorySystem s{small_config()};
  for (u64 i = 0; i < 4; ++i) {
    s.submit(i * kLineBytes, ReqKind::kWrite, 100.0);
  }
  const double end = s.drain_all();
  EXPECT_EQ(s.write_queue_depth(0), 0u);
  EXPECT_GT(end, 100.0);
  EXPECT_EQ(s.timing_stats().writes, 4u);
}

TEST(Scheduler, WatermarkEdgesValidate) {
  MemSysConfig c = small_config();
  c.high_watermark = c.write_queue_capacity;  // edge: high == capacity
  EXPECT_NO_THROW(c.validate());
  c.low_watermark = 0;  // edge: drain runs the queue dry
  EXPECT_NO_THROW(c.validate());
  MemorySystem s{c};
  for (u64 i = 0; i < c.write_queue_capacity; ++i) {
    s.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  EXPECT_EQ(s.stats().drains, 1u);  // only a full queue triggers it
  run_to_idle(s);
  EXPECT_EQ(s.write_queue_depth(0), 0u);  // and it drains everything
  EXPECT_EQ(s.timing_stats().writes, c.write_queue_capacity);
}

TEST(Scheduler, CountsCoalescedWrites) {
  MemorySystem s{small_config()};
  s.submit(0x40, ReqKind::kWrite, 0.0);
  s.submit(0x40, ReqKind::kWrite, 1.0);
  s.submit(0x80, ReqKind::kWrite, 2.0);
  s.submit(0x40, ReqKind::kWrite, 3.0);
  EXPECT_EQ(s.stats().writes, 4u);
  EXPECT_EQ(s.stats().coalesced_writes, 2u);
  EXPECT_EQ(s.write_queue_depth(0), 2u);
}

}  // namespace
}  // namespace nvmenc
