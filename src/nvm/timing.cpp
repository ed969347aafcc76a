#include "nvm/timing.hpp"

#include <algorithm>

namespace nvmenc {

MemoryTimingModel::MemoryTimingModel(MemOrg org) : org_{org} {
  org_.validate();
  banks_per_channel_ = org_.ranks * org_.banks;
  pow2_decode_ = pow2_interleave(org_) && is_pow2(banks_per_channel_);
  if (pow2_decode_) {
    row_shift_ = std::countr_zero(org_.row_bytes);
    channel_shift_ = std::countr_zero(org_.channels);
    bank_shift_ = std::countr_zero(banks_per_channel_);
  }
  banks_.resize(org_.channels * banks_per_channel_);
  bus_free_at_.resize(org_.channels, 0.0);
}

void TimingStats::merge(const TimingStats& other) noexcept {
  reads += other.reads;
  writes += other.writes;
  row_hits += other.row_hits;
  row_misses += other.row_misses;
  read_latency_ns.merge(other.read_latency_ns);
  write_latency_ns.merge(other.write_latency_ns);
  read_latency_hist.merge(other.read_latency_hist);
  write_latency_hist.merge(other.write_latency_hist);
}

double MemoryTimingModel::access(const BankAddress& where, MemOp op,
                                 double arrival_ns) {
  require(where.channel < org_.channels && where.bank < banks_per_channel_,
          "bank index out of range");
  BankState& bank = banks_[where.channel * banks_per_channel_ + where.bank];

  // The request starts when both it has arrived and the bank is free.
  double start = std::max(arrival_ns, bank.free_at);

  // Row buffer: a miss pays precharge + activate before the array access.
  double service = 0.0;
  if (bank.row_valid && bank.open_row == where.row) {
    ++stats_.row_hits;
  } else {
    ++stats_.row_misses;
    service += org_.t_row_cycle_ns;
    bank.open_row = where.row;
    bank.row_valid = true;
  }
  if (op == MemOp::kRead) {
    service += org_.decode_latency_ns + org_.t_read_ns;
  } else {
    service += org_.encode_latency_ns + org_.t_write_ns;
  }

  // The line transfer needs the channel bus; serialize on it.
  double& bus = bus_free_at_[where.channel];
  const double array_done = start + service;
  const double bus_start = std::max(array_done, bus);
  const double completion = bus_start + org_.t_bus_ns;
  // Engine invariant: a bank's busy-until never moves backwards.
  NVMENC_DCHECK(completion >= bank.free_at, "bank free_at went backwards");
  bus = completion;
  bank.free_at = completion;

  const double latency = completion - arrival_ns;
  if (op == MemOp::kRead) {
    ++stats_.reads;
    stats_.read_latency_ns.add(latency);
    stats_.read_latency_hist.add(latency);
  } else {
    ++stats_.writes;
    stats_.write_latency_ns.add(latency);
    stats_.write_latency_hist.add(latency);
  }
  return completion;
}

void MemoryTimingModel::occupy_bank(usize channel, usize bank,
                                    double from_ns, double extra_ns) {
  require(channel < org_.channels && bank < banks_per_channel_,
          "bank index out of range");
  BankState& state = banks_[channel * banks_per_channel_ + bank];
  const double free_at = std::max(state.free_at, from_ns) + extra_ns;
  NVMENC_DCHECK(free_at >= state.free_at, "bank free_at went backwards");
  state.free_at = free_at;
}

}  // namespace nvmenc
