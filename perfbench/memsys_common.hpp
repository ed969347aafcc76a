// Shared by the memory-system workloads: the RAS and lifetime settings of
// the aging runs, the digest of every simulated statistic, and the sim_
// metrics the traced run reports.
#pragma once

#include "bench.hpp"
#include "memsys/ras.hpp"
#include "memsys/request.hpp"
#include "nvm/timing.hpp"

namespace perfbench {

/// RAS plus lifetime settings of the aging runs: write faults at 1e-4 per
/// array write with scrub every 20 us, retention drift with time constant
/// `retention_tau_ns`, Start-Gap wear leveling, and lognormal per-line
/// endurance with this median, charged `wear_per_write_flips` per array
/// write.
[[nodiscard]] nvmenc::RasConfig aging_ras_config(u64 seed,
                                                 double endurance_flips,
                                                 double retention_tau_ns,
                                                 double wear_per_write_flips);

/// Folds request-level, array-level and RAS statistics into `d`.
void add_memsys_digest(Digest& d, const nvmenc::MemSysStats& stats,
                       const nvmenc::TimingStats& timing,
                       const nvmenc::RasReport& ras, double makespan_ns);

/// memsys.sim_* metrics.
void set_memsys_sim_metrics(Metrics& out, const nvmenc::MemSysStats& stats,
                            const nvmenc::TimingStats& timing);

/// ras.sim_* and lifetime.sim_* metrics.
void set_ras_sim_metrics(Metrics& out, const nvmenc::RasReport& ras);

}  // namespace perfbench
