#include "memsys/trace_replay.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/table.hpp"
#include "runner/parallel_for.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/progress.hpp"
#include "runner/thread_pool.hpp"

namespace nvmenc {

void TraceReplayConfig::validate() const {
  require(inter_arrival_ns > 0.0, "inter-arrival time must be positive");
  require(epoch_accesses >= 1, "epochs must hold at least one access");
}

namespace {

/// The open loop over any indexable access source. Arrivals are delivered
/// strictly in time order: all completions due before the next arrival are
/// pumped first (their payloads are already accounted inside MemorySystem;
/// the replay loop only needs them out of the way).
template <typename Source>
TraceReplayResult replay_impl(const Source& trace, u64 count,
                              const TraceReplayConfig& replay,
                              const MemSysConfig& mem) {
  replay.validate();
  MemorySystem sys{mem};
  const bool ras_on = mem.ras.enabled();
  // Degradation control: channel health is polled and the routing mask
  // refreshed only at epoch boundaries — the same control interval the
  // sharded engine's barriers impose — so both engines make identical
  // re-routing decisions for every access.
  std::vector<u8> degraded;
  bool any_degraded = false;
  constexpr u64 kTickStride = 65'536;
  for (u64 i = 0; i < count; ++i) {
    const double now = static_cast<double>(i) * replay.inter_arrival_ns;
    while (sys.step_until(now)) {
    }
    if (ras_on && i % replay.epoch_accesses == 0) {
      sys.poll_ras(now);
      degraded = sys.degraded_mask();
      any_degraded = std::find(degraded.begin(), degraded.end(), u8{1}) !=
                     degraded.end();
    }
    const MemAccess a = trace[i];
    u64 addr = a.line_addr();
    bool remapped = false;
    if (any_degraded && degraded[channel_of_line(mem.org, addr)] != 0) {
      const u64 routed = ras_remap_line(mem.org, addr, degraded);
      remapped = routed != addr;
      addr = routed;
    }
    (void)sys.submit(addr,
                     a.op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite,
                     now, remapped);
    if (replay.progress != nullptr && (i + 1) % kTickStride == 0) {
      replay.progress->tick("replay", i + 1, count);
    }
  }
  TraceReplayResult result;
  result.makespan_ns = sys.drain_all();
  result.stats = sys.stats();
  result.timing = sys.timing_stats();
  result.ras = sys.ras_report();
  result.accesses = count;
  if (replay.progress != nullptr) {
    replay.progress->tick("replay", count, count);
  }
  return result;
}

/// The sharded engine. Each epoch is a contiguous index range — arrival i
/// lands at i * inter_arrival_ns, so index order IS time order — and every
/// shard scans the epoch's slice, keeping only its own channel's accesses.
/// The redundant scan (each worker decodes the slice once) is the price of
/// O(1) memory: no per-channel index arrays, which for a 10^8-access trace
/// would dwarf the simulation state. Record decode is a few shifts per
/// 24-byte record; the simulation dominates.
template <typename Source>
TraceReplayResult replay_sharded_impl(const Source& trace, u64 count,
                                      const TraceReplayConfig& replay,
                                      const MemSysConfig& mem, usize jobs) {
  replay.validate();
  mem.validate();
  const usize nch = mem.org.channels;
  const bool ras_on = mem.ras.enabled();
  std::vector<ChannelShard> shards;
  shards.reserve(nch);
  for (usize c = 0; c < nch; ++c) shards.emplace_back(mem, c);

  // Degradation routing mask: written only at epoch barriers (below),
  // read concurrently by every worker during an epoch — the same
  // boundary-snapshot discipline the serial engine follows, so both
  // engines re-route the same accesses.
  std::vector<u8> degraded(nch, 0);
  bool any_degraded = false;

  auto pump_slice = [&](usize c, u64 begin, u64 end) {
    ChannelShard& shard = shards[c];
    for (u64 i = begin; i < end; ++i) {
      const MemAccess a = trace[i];
      u64 addr = a.line_addr();
      bool remapped = false;
      if (any_degraded && degraded[channel_of_line(mem.org, addr)] != 0) {
        const u64 routed = ras_remap_line(mem.org, addr, degraded);
        remapped = routed != addr;
        addr = routed;
      }
      if (channel_of_line(mem.org, addr) != c) continue;
      const double now = static_cast<double>(i) * replay.inter_arrival_ns;
      while (shard.step_until(now)) {
      }
      (void)shard.submit(
          addr, a.op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite, now,
          remapped);
    }
    if (ras_on) {
      // Pump to the epoch edge so every event scheduled before the
      // barrier (spare exhaustion, UE trips) has executed when channel
      // health is polled. Splitting a pump at extra bounds never changes
      // a shard's evolution — it is a pure function of its arrival
      // sequence — so this matches the serial engine, which has advanced
      // all shards to the boundary time before it polls.
      const double edge = static_cast<double>(end) * replay.inter_arrival_ns;
      while (shard.step_until(edge)) {
      }
    }
  };

  auto poll_edge = [&](u64 base) {
    if (!ras_on) return;
    const double edge = static_cast<double>(base) * replay.inter_arrival_ns;
    any_degraded = false;
    for (usize c = 0; c < nch; ++c) {
      shards[c].poll_ras(edge);
      degraded[c] = shards[c].ras_degraded() ? 1 : 0;
      if (degraded[c] != 0) any_degraded = true;
    }
  };

  const usize workers = std::min(resolve_jobs(jobs), nch);
  if (workers <= 1) {
    // Same engine, serial schedule: shard order within an epoch is
    // irrelevant because shards share nothing.
    for (u64 base = 0; base < count; base += replay.epoch_accesses) {
      const u64 end = std::min(count, base + replay.epoch_accesses);
      poll_edge(base);
      for (usize c = 0; c < nch; ++c) pump_slice(c, base, end);
      if (replay.progress != nullptr) {
        replay.progress->tick("replay", end, count);
      }
    }
    for (usize c = 0; c < nch; ++c) (void)shards[c].drain_all();
  } else {
    ThreadPool pool{workers};
    for (u64 base = 0; base < count; base += replay.epoch_accesses) {
      const u64 end = std::min(count, base + replay.epoch_accesses);
      poll_edge(base);
      // parallel_for joins every shard before the next epoch: the barrier
      // that bounds wall-clock drift between shards.
      parallel_for(pool, nch,
                   [&](usize c) { pump_slice(c, base, end); });
      if (replay.progress != nullptr) {
        replay.progress->tick("replay", end, count);
      }
    }
    parallel_for(pool, nch, [&](usize c) { (void)shards[c].drain_all(); });
  }

  // Merge in channel-id order — the fixed float accumulation order that
  // makes the result independent of worker scheduling.
  TraceReplayResult result;
  for (usize c = 0; c < nch; ++c) {
    result.stats.merge(shards[c].stats());
    result.timing.merge(shards[c].timing_stats());
  }
  result.ras = collect_ras_report(shards);
  result.makespan_ns = result.stats.last_completion_ns;
  result.accesses = count;
  return result;
}

u64 capped_count(u64 trace_size, u64 max_accesses) {
  return max_accesses == 0 || max_accesses > trace_size ? trace_size
                                                        : max_accesses;
}

}  // namespace

TraceReplayResult replay_trace(const MappedTrace& trace,
                               const TraceReplayConfig& replay,
                               const MemSysConfig& mem) {
  return replay_impl(trace, capped_count(trace.size(), replay.max_accesses),
                     replay, mem);
}

TraceReplayResult replay_trace(std::span<const MemAccess> trace,
                               const TraceReplayConfig& replay,
                               const MemSysConfig& mem) {
  return replay_impl(trace, capped_count(trace.size(), replay.max_accesses),
                     replay, mem);
}

TraceReplayResult replay_trace_sharded(const MappedTrace& trace,
                                       const TraceReplayConfig& replay,
                                       const MemSysConfig& mem, usize jobs) {
  return replay_sharded_impl(
      trace, capped_count(trace.size(), replay.max_accesses), replay, mem,
      jobs);
}

TraceReplayResult replay_trace_sharded(std::span<const MemAccess> trace,
                                       const TraceReplayConfig& replay,
                                       const MemSysConfig& mem, usize jobs) {
  return replay_sharded_impl(
      trace, capped_count(trace.size(), replay.max_accesses), replay, mem,
      jobs);
}

TraceReplayResult replay_closed_loop(std::span<const MemAccess> stream,
                                     const MemSysConfig& mem) {
  MemorySystem sys{mem};
  double now = 0.0;
  for (const MemAccess& a : stream) {
    now += kClosedLoopGapNs;
    (void)sys.submit(a.line_addr(),
                     a.op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite,
                     now);
    // One request in flight: the next completion is this request's.
    now = sys.step_until(std::numeric_limits<double>::infinity())
              .value()
              .time_ns;
  }
  TraceReplayResult result;
  result.makespan_ns = sys.drain_all();
  result.stats = sys.stats();
  result.timing = sys.timing_stats();
  result.ras = sys.ras_report();
  result.accesses = stream.size();
  return result;
}

std::vector<ReplaySweepCell> replay_sweep(
    const std::string& trace_path, const std::vector<ReplaySweepCell>& cells,
    const TraceReplayConfig& replay, const MemSysConfig& base_mem,
    usize jobs, ProgressReporter* progress) {
  std::vector<ReplaySweepCell> out = cells;
  // One shared read-only mapping for every cell: the kernel page cache
  // backs all workers from the same physical pages, instead of each cell
  // opening and mapping the file again.
  const MappedTrace trace{trace_path};
  auto run_cell = [&](usize i) {
    MemSysConfig mem = base_mem;
    mem.org.encode_latency_ns = out[i].encode_latency_ns;
    out[i].result = replay_trace(trace, replay, mem);
    if (progress != nullptr) {
      progress->job_done(out[i].label,
                         TextTable::fmt(out[i].result.stats.sustained_gbps(),
                                        3) +
                             " GB/s");
    }
  };
  const usize workers = resolve_jobs(jobs);
  if (workers <= 1 || cells.size() <= 1) {
    for (usize i = 0; i < out.size(); ++i) run_cell(i);
  } else {
    ThreadPool pool{workers};
    parallel_for(pool, out.size(), run_cell);
  }
  return out;
}

}  // namespace nvmenc
