// Open-loop trace-driven replay through the MemorySystem.
//
// The closed-loop load generator (loadgen.hpp) throttles itself: each user
// waits for its completion before issuing again, so it can never overrun
// the system. Trace replay is the opposite discipline — accesses arrive at
// a fixed inter-arrival time regardless of how the system is coping, the
// standard open-loop methodology for driving a memory system with a
// recorded reference stream. Pushed past saturation the write queues fill,
// arrivals park, and the read tail grows without bound; the inter-arrival
// knob sweeps exactly that transition.
//
// Traces come from the binary mmap format (trace_io.hpp): records are
// decoded straight out of the page cache, so a 10^8-access replay touches
// no parser and allocates O(1) memory.
//
// Two deterministic engines replay the same stream (DESIGN.md §10):
//
//   * replay_trace — the serial MemorySystem front-end, one access at a
//     time in global arrival order;
//   * replay_trace_sharded — one worker per channel shard. Arrival number
//     i lands at time i * inter_arrival_ns, so an index range IS a
//     virtual-time window: the driver walks the trace in bounded epochs,
//     each shard scans the epoch's slice picking out its own channel's
//     accesses (channel_of_line), and a barrier separates epochs. Shards
//     share no state, so this is bit-identical to the serial engine — the
//     same per-shard event sequences, merged in channel-id order — at any
//     --jobs value, and the tier-1 tests compare the two engines' rendered
//     tables byte for byte.
//
// replay_closed_loop is the third discipline: the CPU model of the
// paper's §3.4.2 performance argument. Each access arrives a fixed
// kClosedLoopGapNs after the previous one completes; a read completes
// when its data returns, a write when the queue accepts it (posted, but
// it still feels backpressure from a full queue).
//
// replay_sweep remains cell-level parallelism (one serial replay per
// encode-latency point) and shares a single read-only mapping of the
// trace across all cells.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "memsys/memory_system.hpp"
#include "trace/trace_io.hpp"

namespace nvmenc {

class ProgressReporter;  // runner/progress.hpp

struct TraceReplayConfig {
  /// Fixed arrival spacing (ns per access). The open-loop rate knob:
  /// 64 B / 10 ns ≈ 6.4 GB/s offered load.
  double inter_arrival_ns = 10.0;
  /// Replay at most this many accesses (0 = the whole trace).
  u64 max_accesses = 0;
  /// Sharded engine: accesses per epoch between barriers. With the RAS
  /// layer off, results never depend on this (shards share nothing); it
  /// only bounds how far shards drift apart in wall-clock and paces
  /// progress ticks. With RAS enabled it is also the degradation control
  /// interval — BOTH engines poll channel health and re-route traffic at
  /// epoch boundaries only, so serial and sharded runs still agree at
  /// every --jobs value for a fixed epoch length.
  u64 epoch_accesses = 1'000'000;
  /// Optional within-run progress sink (rate-limited ETA lines).
  ProgressReporter* progress = nullptr;

  void validate() const;
};

struct TraceReplayResult {
  MemSysStats stats;    ///< request-level counters + latency histograms
  TimingStats timing;   ///< array-level counters (row hits, bank latency)
  RasReport ras;        ///< per-channel fault/recovery view (empty = RAS off)
  double makespan_ns = 0.0;  ///< last array operation finished
  u64 accesses = 0;          ///< accesses actually replayed

  [[nodiscard]] bool operator==(const TraceReplayResult&) const = default;
};

/// Replays a memory-mapped binary trace. The hot loop reads records in
/// place; nothing is buffered or parsed.
[[nodiscard]] TraceReplayResult replay_trace(const MappedTrace& trace,
                                             const TraceReplayConfig& replay,
                                             const MemSysConfig& mem);

/// Replays an in-memory access vector (text-trace interop and tests).
/// Identical semantics: the format a trace arrived in must not change the
/// replayed statistics, and the round-trip test holds both paths to it.
[[nodiscard]] TraceReplayResult replay_trace(std::span<const MemAccess> trace,
                                             const TraceReplayConfig& replay,
                                             const MemSysConfig& mem);

/// Channel-sharded parallel replay: advances every shard concurrently on
/// `jobs` workers (0 = one per hardware context) in epochs of
/// `replay.epoch_accesses`. Bit-identical to replay_trace for every
/// (trace, config, jobs) — see the engine contract above.
[[nodiscard]] TraceReplayResult replay_trace_sharded(
    const MappedTrace& trace, const TraceReplayConfig& replay,
    const MemSysConfig& mem, usize jobs);

[[nodiscard]] TraceReplayResult replay_trace_sharded(
    std::span<const MemAccess> trace, const TraceReplayConfig& replay,
    const MemSysConfig& mem, usize jobs);

/// On-chip time (cache hits and computation) between one request's
/// completion and the next request's arrival in replay_closed_loop.
inline constexpr double kClosedLoopGapNs = 20.0;

/// Closed-loop replay of a recorded request stream in program order (see
/// the header comment). makespan_ns covers the final write drain.
[[nodiscard]] TraceReplayResult replay_closed_loop(
    std::span<const MemAccess> stream, const MemSysConfig& mem);

/// One sweep cell: the base MemSysConfig with this encode latency.
struct ReplaySweepCell {
  std::string label;          ///< e.g. scheme or model name
  double encode_latency_ns = 0.0;
  TraceReplayResult result;
};

/// Replays one trace file across several encode-latency points, cells
/// fanned out over `jobs` threads (0 = one per hardware context, 1 =
/// serial). All cells read one shared read-only mapping of the trace and
/// run private MemorySystems, so results are bit-identical for any `jobs`
/// value. `progress` (nullable) gets one job_done line per finished cell.
[[nodiscard]] std::vector<ReplaySweepCell> replay_sweep(
    const std::string& trace_path,
    const std::vector<ReplaySweepCell>& cells,
    const TraceReplayConfig& replay, const MemSysConfig& base_mem,
    usize jobs, ProgressReporter* progress = nullptr);

}  // namespace nvmenc
