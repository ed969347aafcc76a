// Write-back trace collection.
//
// The cache hierarchy's behaviour is independent of the NVM encoding
// scheme (encoders change the stored representation, not the logical
// contents), so the expensive part of an experiment — running the workload
// through the caches — is done once per benchmark. The resulting
// WritebackTrace is then replayed through each scheme's controller
// (replay.hpp), guaranteeing every scheme sees the identical write-back
// stream, exactly as the paper's single-simulation methodology does.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/hierarchy.hpp"
#include "trace/workload.hpp"

namespace nvmenc {

struct WritebackTrace {
  std::string benchmark;
  /// Write-backs issued during warm-up: replay applies them to reach
  /// steady-state stored/tag state but excludes them from statistics.
  std::vector<WriteBack> warmup;
  /// Write-backs of the measured window.
  std::vector<WriteBack> measured;
  /// Demand line fetches during the measured window (their read energy is
  /// identical across schemes but part of the totals, Section 4.2.2).
  u64 demand_reads = 0;
  /// Interleaved line requests of the measured window (fills as reads,
  /// write-backs as writes; `value` unused), populated when
  /// CollectorConfig::record_requests is set. Drives replay_closed_loop.
  std::vector<MemAccess> requests;
  /// Pristine contents of any line (forwarded from the workload).
  std::function<CacheLine(u64)> initial_line;
};

struct CollectorConfig {
  std::vector<CacheConfig> caches = scaled_hierarchy();
  u64 warmup_accesses = 200'000;
  u64 measured_accesses = 1'000'000;
  /// Also capture the interleaved request stream (timing studies).
  bool record_requests = false;
};

/// Runs `workload` through the hierarchy and captures the write-back
/// stream. The caches are *not* flushed at the end: only steady-state
/// evictions are measured.
[[nodiscard]] WritebackTrace collect_writebacks(WorkloadGenerator& workload,
                                                const CollectorConfig& config);

}  // namespace nvmenc
