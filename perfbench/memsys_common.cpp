#include "memsys_common.hpp"

namespace perfbench {

using namespace nvmenc;

RasConfig aging_ras_config(u64 seed, double endurance_flips,
                           double retention_tau_ns,
                           double wear_per_write_flips) {
  RasConfig ras;
  ras.inject.write_fail_rate = 1e-4;
  ras.inject.seed = seed ^ 0xfa017ull;
  ras.scrub_interval_ns = 20'000.0;
  LifetimeConfig& life = ras.lifetime;
  life.endurance_mean_flips = endurance_flips;
  life.retention_tau_ns = retention_tau_ns;
  life.leveler = WearLevelerKind::kStartGap;
  life.seed = seed ^ 0x11feull;
  life.wear_per_write_flips = wear_per_write_flips;
  return ras;
}

namespace {

void add_latency(Digest& d, const LatencyHistogram& h) {
  d.add(h.count()).add(h.mean()).add(h.min()).add(h.max());
  for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                         99.9, 99.99}) {
    d.add(h.percentile(p));
  }
}

void add_running(Digest& d, const RunningStat& s) {
  d.add(s.count()).add(s.mean()).add(s.min()).add(s.max()).add(s.variance());
}

}  // namespace

void add_memsys_digest(Digest& d, const MemSysStats& stats,
                       const TimingStats& timing, const RasReport& ras,
                       double makespan_ns) {
  d.add(stats.reads).add(stats.writes).add(stats.array_writes);
  d.add(stats.forwarded_reads).add(stats.coalesced_writes);
  d.add(stats.write_stalls).add(stats.drains);
  add_latency(d, stats.read_latency_ns);
  add_latency(d, stats.write_accept_ns);
  add_running(d, stats.read_latency_stat);
  d.add(stats.last_completion_ns);
  d.add(timing.reads).add(timing.writes).add(timing.row_hits);
  d.add(timing.row_misses);
  add_running(d, timing.read_latency_ns);
  add_running(d, timing.write_latency_ns);
  add_latency(d, timing.read_latency_hist);
  add_latency(d, timing.write_latency_hist);
  d.add(makespan_ns);
  for (const RasStats& c : ras.channels) {
    d.add(c.faulty_writes).add(c.write_retries).add(c.retry_exhausted);
    d.add(c.safer_remaps).add(c.retired_lines).add(c.spare_writes);
    d.add(c.stuck_cells).add(c.read_disturbs).add(c.scrub_reads);
    d.add(c.scrub_corrections).add(c.ue_demand).add(c.ue_scrub);
    d.add(c.remapped_in).add(c.remap_backoff).add(c.spares_left);
    d.add(c.degraded).add(c.ras_busy_ns).add(c.degraded_at_ns);
  }
  for (const RasEvent& e : ras.events) {
    d.add(e.time_ns).add(u64{e.channel}).add(u64{static_cast<u8>(e.kind)});
    d.add(e.line);
  }
  d.add(ras.events_dropped);
  for (const LifetimeStats& l : ras.lifetime) {
    d.add(l.lines_tracked).add(l.wear_writes).add(l.wear_flips);
    d.add(l.max_wear_frac).add(l.worn_lines).add(l.wear_safer);
    d.add(l.wear_retired).add(l.drift_errors).add(l.wl_writes);
    d.add(l.wl_moves).add(l.wl_busy_ns).add(l.wl_energy_pj);
    d.add(l.wl_uniformity).add(l.first_wearout_ns);
  }
}

void set_memsys_sim_metrics(Metrics& out, const MemSysStats& stats,
                            const TimingStats& timing) {
  const auto frac = [](u64 part, u64 whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  out.set("memsys.sim_reads", static_cast<double>(stats.reads), "count");
  out.set("memsys.sim_writes", static_cast<double>(stats.writes), "count");
  out.set("memsys.sim_coalesced_frac",
          frac(stats.coalesced_writes, stats.writes), "frac");
  out.set("memsys.sim_forwarded_frac",
          frac(stats.forwarded_reads, stats.reads), "frac");
  out.set("memsys.sim_drains", static_cast<double>(stats.drains), "count");
  out.set("memsys.sim_write_stalls", static_cast<double>(stats.write_stalls),
          "count");
  out.set("memsys.sim_row_hit_rate", timing.row_hit_rate(), "frac");
  out.set("memsys.sim_read_mean_ns", stats.read_latency_ns.mean(), "sim_ns");
  out.set("memsys.sim_read_p50_ns", stats.read_latency_ns.p50(), "sim_ns");
  out.set("memsys.sim_read_p99_ns", stats.read_latency_ns.p99(), "sim_ns");
  out.set("memsys.sim_sustained_gbps", stats.sustained_gbps(), "sim_GB/s");
}

void set_ras_sim_metrics(Metrics& out, const RasReport& ras) {
  const RasStats t = ras.totals();
  u64 degraded = 0;
  for (const RasStats& c : ras.channels) degraded += c.degraded;
  const auto count = [&](const std::string& name, u64 v) {
    out.set(name, static_cast<double>(v), "count");
  };
  count("ras.sim_retries", t.write_retries);
  count("ras.sim_scrubs", t.scrub_reads);
  count("ras.sim_corrected", t.scrub_corrections);
  count("ras.sim_retired", t.retired_lines);
  count("ras.sim_ue", t.uncorrectable());
  count("ras.sim_spares_left", t.spares_left);
  count("ras.sim_degraded", degraded);
  const LifetimeStats l = ras.lifetime_totals();
  count("lifetime.sim_wear_writes", l.wear_writes);
  count("lifetime.sim_wl_migrations", l.wl_moves);
  count("lifetime.sim_drift_hits", l.drift_errors);
  out.set("lifetime.sim_max_wear", l.max_wear_frac, "frac");
}

}  // namespace perfbench
