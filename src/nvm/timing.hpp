// Banked PCM timing model (the NVMain-style performance side).
//
// The paper's Table 2 gives array timings (read 100 ns, write 150 ns) and
// Section 3.4.2 argues the 3.47 ns encode latency is negligible because
// system performance is read-dominated. This model makes that claim
// checkable: a channel/rank/bank decomposition with per-bank row buffers,
// bank occupancy, and a shared data bus. Requests are serviced in arrival
// order per bank (FCFS), reads block the CPU, writes drain in the
// background from the controller's write queue.
//
// The model is deliberately event-light: one completion time per request,
// no command-level DDR protocol — enough to expose queueing and row
// locality, which is what the encode-latency question touches.
#pragma once

#include <bit>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace nvmenc {

struct MemOrg {
  usize channels = 1;
  usize ranks = 1;
  usize banks = 8;          ///< per rank
  usize row_bytes = 4096;   ///< row-buffer width

  double t_read_ns = 100.0;        ///< array read, row open (Table 2)
  double t_write_ns = 150.0;       ///< array write, row open (Table 2)
  double t_row_cycle_ns = 60.0;    ///< precharge + activate on a row miss
  double t_bus_ns = 8.0;           ///< line transfer on the channel bus
  double encode_latency_ns = 0.0;  ///< added to writes (paper: 3.47)
  double decode_latency_ns = 0.0;  ///< added to reads (paper: ~0)

  void validate() const {
    require(channels >= 1 && ranks >= 1 && banks >= 1,
            "memory organization must be non-empty");
    require(row_bytes >= kLineBytes && row_bytes % kLineBytes == 0,
            "row must hold a whole number of lines");
  }
};

/// Physical location of a line.
struct BankAddress {
  usize channel = 0;
  usize bank = 0;  ///< flattened rank*banks + bank
  u64 row = 0;
};

/// True when row_bytes and channels are powers of two: the row/channel
/// interleave then decodes with shifts and masks instead of divisions.
/// Other geometries keep the generic division; both forms give the same
/// result on every address, aligned or not (tested).
[[nodiscard]] inline bool pow2_interleave(const MemOrg& org) noexcept {
  return is_pow2(org.row_bytes) && is_pow2(org.channels);
}

/// Channel a line maps to — the first step of decompose(), exposed
/// separately so sharded drivers can route requests without a timing
/// model. Must agree with MemoryTimingModel::decompose (tested).
[[nodiscard]] inline usize channel_of_line(const MemOrg& org,
                                           u64 line_addr) noexcept {
  if (pow2_interleave(org)) {
    const u64 row_id = line_addr >> std::countr_zero(org.row_bytes);
    return static_cast<usize>(row_id & (org.channels - 1));
  }
  return static_cast<usize>((line_addr / org.row_bytes) % org.channels);
}

/// Remaps a line address into `channel`'s row group, preserving the
/// within-row offset (rows interleave over channels in decompose, so this
/// replaces the row's channel digit and nothing else). The sharded load
/// generator pins user streams with this, and the RAS layer reuses it to
/// redirect traffic off degraded channels (ras_remap_line).
[[nodiscard]] inline u64 pin_line_to_channel(const MemOrg& org, u64 addr,
                                             usize channel) noexcept {
  if (pow2_interleave(org)) {
    const int row_shift = std::countr_zero(org.row_bytes);
    const u64 pinned_row =
        ((addr >> row_shift) & ~static_cast<u64>(org.channels - 1)) + channel;
    return (pinned_row << row_shift) + (addr & (org.row_bytes - 1));
  }
  const u64 row_id = addr / org.row_bytes;
  const u64 pinned_row = (row_id / org.channels) * org.channels + channel;
  return pinned_row * org.row_bytes + addr % org.row_bytes;
}

enum class MemOp : u8 { kRead, kWrite };

struct TimingStats {
  u64 reads = 0;
  u64 writes = 0;
  u64 row_hits = 0;
  u64 row_misses = 0;
  RunningStat read_latency_ns;   ///< arrival -> data returned
  RunningStat write_latency_ns;  ///< arrival -> cells committed
  LatencyHistogram read_latency_hist;   ///< same samples, tail percentiles
  LatencyHistogram write_latency_hist;

  [[nodiscard]] double row_hit_rate() const noexcept {
    const u64 total = row_hits + row_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(row_hits) /
                            static_cast<double>(total);
  }

  /// Folds `other` into this accumulator. Counters and histogram buckets
  /// are exact; the RunningStats use the parallel combine. Per-shard
  /// stats merge in channel-id order so results are independent of how
  /// many threads advanced the shards.
  void merge(const TimingStats& other) noexcept;

  [[nodiscard]] bool operator==(const TimingStats&) const = default;
};

class MemoryTimingModel {
 public:
  explicit MemoryTimingModel(MemOrg org);

  /// Line address -> bank/row decomposition. Consecutive lines fill a row,
  /// rows interleave across banks then channels (row-interleaved mapping).
  /// Shifts and masks when row_bytes, channels and ranks * banks are all
  /// powers of two; divisions otherwise.
  [[nodiscard]] BankAddress decompose(u64 line_addr) const noexcept {
    BankAddress addr;
    if (pow2_decode_) {
      const u64 row_id = line_addr >> row_shift_;
      addr.channel = static_cast<usize>(row_id & (org_.channels - 1));
      const u64 above_channel = row_id >> channel_shift_;
      addr.bank =
          static_cast<usize>(above_channel & (banks_per_channel_ - 1));
      addr.row = above_channel >> bank_shift_;
      return addr;
    }
    const u64 row_id = line_addr / org_.row_bytes;
    addr.channel = static_cast<usize>(row_id % org_.channels);
    const u64 above_channel = row_id / org_.channels;
    addr.bank = static_cast<usize>(above_channel % banks_per_channel_);
    addr.row = above_channel / banks_per_channel_;
    return addr;
  }

  /// Services one request arriving at `arrival_ns`; returns its completion
  /// time. Reads are prioritized only in the sense that the caller issues
  /// them at CPU time; each bank is FCFS.
  double access(u64 line_addr, MemOp op, double arrival_ns) {
    return access(decompose(line_addr), op, arrival_ns);
  }
  /// Same, for a caller that already holds the line's decompose() result
  /// (the channel shards keep it with every queued request).
  double access(const BankAddress& where, MemOp op, double arrival_ns);

  [[nodiscard]] const TimingStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MemOrg& org() const noexcept { return org_; }

  /// Earliest time the named bank is free (for tests and schedulers).
  /// Inline: the channel shards' arbiter reads it for every queued
  /// request it considers.
  [[nodiscard]] double bank_free_at(usize channel, usize bank) const {
    return bank_state(channel, bank).free_at;
  }

  /// True when the bank's row buffer currently holds `row` — the FR-FCFS
  /// row-hit test an external arbiter needs to prefer open-row requests.
  [[nodiscard]] bool row_open(usize channel, usize bank, u64 row) const {
    const BankState& state = bank_state(channel, bank);
    return state.row_valid && state.open_row == row;
  }

  /// Holds the bank busy for `extra_ns` beyond max(free_at, from_ns):
  /// the RAS layer's hook for charging recovery work (program-and-verify
  /// re-pulses, SAFER re-partitions, retirement copies) in virtual time.
  /// The occupancy delays every later request on the bank — exactly how
  /// faulty media surfaces in the read tail — without touching the bus or
  /// the latency statistics of the access that triggered it.
  void occupy_bank(usize channel, usize bank, double from_ns,
                   double extra_ns);

 private:
  struct BankState {
    double free_at = 0.0;
    u64 open_row = ~u64{0};
    bool row_valid = false;
  };

  /// Range-checked in every build: out-of-range indices throw
  /// std::invalid_argument.
  [[nodiscard]] const BankState& bank_state(usize channel, usize bank) const {
    require(channel < org_.channels && bank < banks_per_channel_,
            "bank index out of range");
    return banks_[channel * banks_per_channel_ + bank];
  }

  MemOrg org_;
  usize banks_per_channel_ = 0;     // ranks * banks
  bool pow2_decode_ = false;        // decompose() by shifts and masks
  int row_shift_ = 0;               // log2 row_bytes
  int channel_shift_ = 0;           // log2 channels
  int bank_shift_ = 0;              // log2 banks_per_channel_
  std::vector<BankState> banks_;    // channel-major
  std::vector<double> bus_free_at_; // per channel
  TimingStats stats_;
};

}  // namespace nvmenc
