#include "nvm/timing.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "memsys/lifetime.hpp"

namespace nvmenc {
namespace {

MemOrg simple_org() {
  MemOrg org;
  org.channels = 1;
  org.ranks = 1;
  org.banks = 2;
  org.row_bytes = 4096;
  org.t_read_ns = 100;
  org.t_write_ns = 150;
  org.t_row_cycle_ns = 60;
  org.t_bus_ns = 8;
  return org;
}

TEST(MemOrg, Validation) {
  MemOrg bad = simple_org();
  bad.banks = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = simple_org();
  bad.row_bytes = 100;  // not line-aligned
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(simple_org().validate());
}

TEST(Timing, DecomposeInterleavesRowsAcrossBanks) {
  MemoryTimingModel model{simple_org()};
  const BankAddress a = model.decompose(0);
  const BankAddress b = model.decompose(4096);   // next row
  const BankAddress c = model.decompose(8192);   // row after
  EXPECT_EQ(a.bank, 0u);
  EXPECT_EQ(b.bank, 1u);
  EXPECT_EQ(c.bank, 0u);
  EXPECT_EQ(c.row, a.row + 1);
  // Lines within one row share bank and row.
  const BankAddress a2 = model.decompose(64);
  EXPECT_EQ(a2.bank, a.bank);
  EXPECT_EQ(a2.row, a.row);
}

TEST(Timing, ColdReadPaysRowCycle) {
  MemoryTimingModel model{simple_org()};
  const double done = model.access(0, MemOp::kRead, 0.0);
  EXPECT_DOUBLE_EQ(done, 60 + 100 + 8);
  EXPECT_EQ(model.stats().row_misses, 1u);
}

TEST(Timing, RowHitSkipsRowCycle) {
  MemoryTimingModel model{simple_org()};
  (void)model.access(0, MemOp::kRead, 0.0);
  const double start = 1000.0;
  const double done = model.access(64, MemOp::kRead, start);  // same row
  EXPECT_DOUBLE_EQ(done, start + 100 + 8);
  EXPECT_EQ(model.stats().row_hits, 1u);
}

TEST(Timing, RowConflictReopens) {
  MemoryTimingModel model{simple_org()};
  (void)model.access(0, MemOp::kRead, 0.0);
  // Same bank (bank 0), different row: 2 rows ahead.
  const double done = model.access(8192, MemOp::kRead, 1000.0);
  EXPECT_DOUBLE_EQ(done, 1000 + 60 + 100 + 8);
  EXPECT_EQ(model.stats().row_misses, 2u);
}

TEST(Timing, BusyBankQueuesRequest) {
  MemoryTimingModel model{simple_org()};
  const double first = model.access(0, MemOp::kWrite, 0.0);
  // Second request to the same bank arrives while it is busy.
  const double second = model.access(64, MemOp::kRead, 10.0);
  EXPECT_DOUBLE_EQ(second, first + 100 + 8);  // row hit after the write
  EXPECT_GT(second - 10.0, 100 + 8);          // latency includes queueing
}

TEST(Timing, DifferentBanksOverlapButShareBus) {
  MemoryTimingModel model{simple_org()};
  const double a = model.access(0, MemOp::kRead, 0.0);     // bank 0
  const double b = model.access(4096, MemOp::kRead, 0.0);  // bank 1
  // Arrays overlap; the second transfer waits only for the bus.
  EXPECT_DOUBLE_EQ(a, 168.0);
  EXPECT_DOUBLE_EQ(b, 176.0);  // 168 + bus
}

TEST(Timing, EncodeLatencyAddsToWritesOnly) {
  MemOrg org = simple_org();
  org.encode_latency_ns = 3.47;
  MemoryTimingModel model{org};
  const double w = model.access(0, MemOp::kWrite, 0.0);
  EXPECT_DOUBLE_EQ(w, 60 + 3.47 + 150 + 8);
  MemoryTimingModel model2{org};
  const double r = model2.access(0, MemOp::kRead, 0.0);
  EXPECT_DOUBLE_EQ(r, 60 + 100 + 8);
}

TEST(Timing, StatsLatencyAveragesAccumulate) {
  MemoryTimingModel model{simple_org()};
  (void)model.access(0, MemOp::kRead, 0.0);
  (void)model.access(64, MemOp::kRead, 500.0);
  EXPECT_EQ(model.stats().reads, 2u);
  EXPECT_NEAR(model.stats().read_latency_ns.mean(), (168.0 + 108.0) / 2,
              1e-9);
}

TEST(Timing, BankFreeAtBoundsChecked) {
  MemoryTimingModel model{simple_org()};
  EXPECT_THROW((void)model.bank_free_at(1, 0), std::invalid_argument);
  EXPECT_THROW((void)model.bank_free_at(0, 2), std::invalid_argument);
  EXPECT_EQ(model.bank_free_at(0, 0), 0.0);
}

TEST(Timing, DecomposeRoundTripsAcrossChannels) {
  MemOrg org = simple_org();
  org.channels = 3;
  org.ranks = 2;
  org.banks = 4;
  MemoryTimingModel model{org};
  const usize banks_per_channel = org.ranks * org.banks;
  for (u64 line = 0; line < 5000; ++line) {
    const u64 addr = line * kLineBytes;
    const BankAddress where = model.decompose(addr);
    ASSERT_LT(where.channel, org.channels);
    ASSERT_LT(where.bank, banks_per_channel);
    // Reconstruct the row id from its (channel, bank, row) digits: the
    // mapping must be a bijection on row ids.
    const u64 row_id = addr / org.row_bytes;
    const u64 rebuilt =
        (where.row * banks_per_channel + where.bank) * org.channels +
        where.channel;
    EXPECT_EQ(rebuilt, row_id);
    // Lines within one row land on the same bank.
    EXPECT_EQ(model.decompose(addr + kLineBytes - 1).bank, where.bank);
  }
}

// The division forms of the address decode, as every geometry computed it
// before the shift/mask fast path; the fast path must reproduce them on
// every address, line-aligned or not.
usize div_channel_of_line(const MemOrg& org, u64 addr) {
  return static_cast<usize>((addr / org.row_bytes) % org.channels);
}
u64 div_pin_line_to_channel(const MemOrg& org, u64 addr, usize channel) {
  const u64 row_id = addr / org.row_bytes;
  return ((row_id / org.channels) * org.channels + channel) * org.row_bytes +
         addr % org.row_bytes;
}
BankAddress div_decompose(const MemOrg& org, u64 addr) {
  const u64 banks = org.ranks * org.banks;
  const u64 above_channel = addr / org.row_bytes / org.channels;
  return {div_channel_of_line(org, addr),
          static_cast<usize>(above_channel % banks), above_channel / banks};
}
u64 div_local_line_index(const MemOrg& org, u64 addr) {
  const u64 lines_per_row = org.row_bytes / kLineBytes;
  return (addr / org.row_bytes / org.channels) * lines_per_row +
         (addr % org.row_bytes) / kLineBytes;
}
u64 div_local_line_addr(const MemOrg& org, usize channel, u64 index) {
  const u64 lines_per_row = org.row_bytes / kLineBytes;
  return ((index / lines_per_row) * org.channels + channel) * org.row_bytes +
         (index % lines_per_row) * kLineBytes;
}

TEST(Timing, ShiftMaskDecodeMatchesDivision) {
  struct Geometry {
    usize channels, ranks, banks, row_bytes;
    bool pow2;  ///< row_bytes and channels are powers of two
  };
  const std::vector<Geometry> geometries = {
      {1, 1, 8, 4096, true},  {4, 1, 8, 4096, true},  {2, 2, 4, 8192, true},
      {8, 1, 1, 64, true},    {4, 3, 8, 4096, true},  // 24 banks: division
      {3, 2, 4, 4096, false}, {4, 1, 8, 192, false},  {6, 1, 5, 320, false},
      {1, 1, 3, 4032, false},
  };
  Xoshiro256 rng{17};
  for (const Geometry& g : geometries) {
    MemOrg org;
    org.channels = g.channels;
    org.ranks = g.ranks;
    org.banks = g.banks;
    org.row_bytes = g.row_bytes;
    ASSERT_EQ(pow2_interleave(org), g.pow2);
    const MemoryTimingModel model{org};
    // Line-aligned and unaligned byte addresses (run_load submits
    // unaligned ones), row edges, and the whole u64 range.
    std::vector<u64> addrs = {0, 1, 63, 64, g.row_bytes - 1, g.row_bytes,
                              g.row_bytes * g.channels + 5, ~u64{0},
                              ~u64{0} - g.row_bytes};
    for (int i = 0; i < 3000; ++i) {
      addrs.push_back(rng.next_below(1u << 20));
      addrs.push_back(rng.next_below(1u << 20) * kLineBytes);
      addrs.push_back(rng.next());
    }
    for (const u64 addr : addrs) {
      const BankAddress fast = model.decompose(addr);
      const BankAddress slow = div_decompose(org, addr);
      ASSERT_EQ(channel_of_line(org, addr), div_channel_of_line(org, addr))
          << "addr " << addr << " row_bytes " << g.row_bytes;
      ASSERT_EQ(fast.channel, slow.channel) << "addr " << addr;
      ASSERT_EQ(fast.bank, slow.bank) << "addr " << addr;
      ASSERT_EQ(fast.row, slow.row) << "addr " << addr;
      ASSERT_EQ(channel_local_line_index(org, addr),
                div_local_line_index(org, addr))
          << "addr " << addr;
      for (usize c = 0; c < g.channels; ++c) {
        ASSERT_EQ(pin_line_to_channel(org, addr, c),
                  div_pin_line_to_channel(org, addr, c))
            << "addr " << addr << " channel " << c;
        // The same values read as channel-local indices, wrapping included.
        ASSERT_EQ(channel_local_line_addr(org, c, addr),
                  div_local_line_addr(org, c, addr))
            << "index " << addr << " channel " << c;
      }
    }
  }
}

TEST(Timing, RowOpenTracksTheRowBuffer) {
  MemoryTimingModel model{simple_org()};
  const BankAddress where = model.decompose(0);
  EXPECT_FALSE(model.row_open(where.channel, where.bank, where.row));
  (void)model.access(0, MemOp::kRead, 0.0);
  EXPECT_TRUE(model.row_open(where.channel, where.bank, where.row));
  EXPECT_FALSE(model.row_open(where.channel, where.bank, where.row + 1));
  // A different row on the same bank evicts the open row.
  const u64 far = 2 * 4096;  // rows interleave: same bank, next row
  const BankAddress where2 = model.decompose(far);
  ASSERT_EQ(where2.bank, where.bank);
  (void)model.access(far, MemOp::kRead, 1000.0);
  EXPECT_FALSE(model.row_open(where.channel, where.bank, where.row));
  EXPECT_TRUE(model.row_open(where2.channel, where2.bank, where2.row));
  EXPECT_THROW((void)model.row_open(9, 0, 0), std::invalid_argument);
}

TEST(Timing, HistogramsTrackLatencySamples) {
  MemoryTimingModel model{simple_org()};
  for (u64 i = 0; i < 50; ++i) {
    (void)model.access(i * kLineBytes, i % 2 ? MemOp::kRead : MemOp::kWrite,
                       static_cast<double>(i) * 400.0);
  }
  const TimingStats& s = model.stats();
  EXPECT_EQ(s.read_latency_hist.count(), s.reads);
  EXPECT_EQ(s.write_latency_hist.count(), s.writes);
  EXPECT_NEAR(s.read_latency_hist.mean(), s.read_latency_ns.mean(), 1e-9);
  EXPECT_GE(s.read_latency_hist.p99(), s.read_latency_hist.p50());
}

}  // namespace
}  // namespace nvmenc
