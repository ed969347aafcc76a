#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void consume(u64 value) {
  static std::atomic<u64> sink{0};
  sink.fetch_add(value, std::memory_order_relaxed);
}

void log_series(const std::string& workload,
                const std::vector<double>& throughput, u64 accesses) {
  std::cerr << workload << ": " << throughput.size() << " timed runs of "
            << accesses << " accesses, Maccess/s:";
  for (const double t : throughput) std::cerr << " " << t;
  std::cerr << "\n";
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++failed_checks;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

Digest& Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::add(double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

std::uint32_t Tracer::begin(const std::string& name, std::uint32_t parent) {
  const i64 t = now_ns();
  const std::lock_guard lock{mutex_};
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size());
  span.parent = parent;
  span.run = run_id_;
  span.name = name;
  span.start_ns = t;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  const i64 t = now_ns();
  const std::lock_guard lock{mutex_};
  Span& span = spans_.at(id);
  span.end_ns = t;
  span.busy_ns = t - span.start_ns;
}

void Tracer::aggregate(const std::string& name, std::uint32_t parent,
                       i64 start_ns, i64 end_ns, i64 busy_ns, u64 count) {
  const std::lock_guard lock{mutex_};
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size());
  span.parent = parent;
  span.run = run_id_;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.busy_ns = busy_ns;
  span.count = count;
  spans_.push_back(std::move(span));
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard lock{mutex_};
  return spans_;
}

double Tracer::busy_s(const std::string& name) const {
  const std::lock_guard lock{mutex_};
  i64 total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.busy_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

u64 Tracer::calls(const std::string& name) const {
  const std::lock_guard lock{mutex_};
  u64 total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.count;
  }
  return total;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::uint32_t>> children(all.size());
  for (const Span& s : all) {
    if (s.parent != kNoParent && s.parent < all.size()) {
      children[s.parent].push_back(s.id);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    // Children on other threads may overlap each other, so plain spans
    // cover the union of their intervals (clipped to the parent);
    // aggregate children are sequential calls and cover their busy time.
    std::vector<std::pair<i64, i64>> intervals;
    i64 covered = 0;
    for (const std::uint32_t c : children[s.id]) {
      const Span& child = all[c];
      if (child.count > 1 || child.busy_ns != child.end_ns - child.start_ns) {
        covered += child.busy_ns;
      } else {
        intervals.emplace_back(std::max(child.start_ns, s.start_ns),
                               std::min(child.end_ns, s.end_ns));
      }
    }
    std::sort(intervals.begin(), intervals.end());
    i64 reach = std::numeric_limits<i64>::min();
    for (const auto& [lo, hi] : intervals) {
      const i64 from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[s.name] +=
        static_cast<double>(std::max<i64>(0, s.busy_ns - covered)) * 1e-9;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write span file " + path};
  out << "run\tid\tparent\tname\tstart_ns\tend_ns\tbusy_ns\tcount\n";
  for (const Span& s : spans()) {
    out << s.run << '\t' << s.id << '\t'
        << (s.parent == kNoParent ? std::string{"-"}
                                  : std::to_string(s.parent))
        << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << s.busy_ns << '\t' << s.count << '\n';
  }
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names{
      "trace", "cache",  "encoding", "nvm", "sim",
      "runner", "memsys", "ras",     "lifetime", "report"};
  return names;
}

const std::vector<std::string>& figure_scheme_slugs() {
  static const std::vector<std::string> slugs{
      "dcw",  "fnw",      "coef",       "cafo",       "afnw",
      "read", "read_sae", "afnw_paper", "read_paper", "read_sae_paper"};
  return slugs;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m{
        {"trace.gen_ns_per_access", "ns"},
        {"trace.write_ns_per_access", "ns"},
        {"trace.scan_ns_per_access", "ns"},
        {"cache.collect_ns_per_access", "ns"},
        {"cache.collect_s_max", "s"},
        {"cache.sim_writebacks_per_kaccess", "wb/kaccess"},
    };
    const std::vector<std::string>& slugs = figure_scheme_slugs();
    for (std::size_t i = 0; i < 7; ++i) {  // the device-backed schemes
      m.emplace_back("encoding." + slugs[i] + ".encode_ns", "ns");
      m.emplace_back("encoding." + slugs[i] + ".decode_ns", "ns");
    }
    for (const std::string& s : slugs) {
      m.emplace_back("sim." + s + ".replay_ns_per_wb", "ns");
    }
    const std::vector<std::pair<std::string, std::string>> rest{
        {"nvm.store_ns", "ns"},
        {"nvm.load_ns", "ns"},
        {"runner.parallel_eff", "frac"},
        {"runner.critical_path_s", "s"},
        {"runner.matrix_speedup", "x"},
        {"memsys.submit_ns", "ns"},
        {"memsys.step_until_ns", "ns"},
        {"memsys.steps_per_access", "steps"},
        {"memsys.loadgen_draw_ns", "ns"},
        {"memsys.serial_ns_per_access", "ns"},
        {"memsys.sharded_j1_ns_per_access", "ns"},
        {"memsys.sharded_speedup", "x"},
        {"memsys.stats_merge_us", "us"},
        {"report.render_us", "us"},
        {"report.matrix_tables_us", "us"},
        {"memsys.sim_reads", "count"},
        {"memsys.sim_writes", "count"},
        {"memsys.sim_coalesced_frac", "frac"},
        {"memsys.sim_forwarded_frac", "frac"},
        {"memsys.sim_drains", "count"},
        {"memsys.sim_write_stalls", "count"},
        {"memsys.sim_row_hit_rate", "frac"},
        {"memsys.sim_read_mean_ns", "sim_ns"},
        {"memsys.sim_read_p50_ns", "sim_ns"},
        {"memsys.sim_read_p99_ns", "sim_ns"},
        {"memsys.sim_sustained_gbps", "sim_GB/s"},
        {"ras.on_array_write_ns", "ns"},
        {"ras.on_demand_read_ns", "ns"},
        {"ras.on_scrub_read_ns", "ns"},
        {"ras.overhead_frac", "frac"},
        {"ras.sim_retries", "count"},
        {"ras.sim_scrubs", "count"},
        {"ras.sim_corrected", "count"},
        {"ras.sim_retired", "count"},
        {"ras.sim_ue", "count"},
        {"ras.sim_spares_left", "count"},
        {"ras.sim_degraded", "count"},
        {"lifetime.on_write_ns", "ns"},
        {"lifetime.drift_on_read_ns", "ns"},
        {"lifetime.wl_translate_ns", "ns"},
        {"lifetime.sim_wear_writes", "count"},
        {"lifetime.sim_wl_migrations", "count"},
        {"lifetime.sim_drift_hits", "count"},
        {"lifetime.sim_max_wear", "frac"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (std::size_t i = 1; i < slugs.size(); ++i) {
      m.emplace_back("model." + slugs[i] + ".energy_vs_dcw", "ratio");
    }
    const std::vector<std::pair<std::string, std::string>> model{
        {"model.read_sae.flips_vs_dcw", "ratio"},
        {"model.read_sae.lifetime_vs_dcw", "ratio"},
        {"model.paper_gap.energy_pct", "pp"},
        {"model.paper_gap.flips_pct", "pp"},
        {"model.paper_gap.lifetime_pct", "pp"},
        {"model.digest", "hash"},
        {"bench.tracing_overhead_frac", "frac"},
    };
    m.insert(m.end(), model.begin(), model.end());
    for (const std::string& layer : layer_names()) {
      m.emplace_back(layer + ".self_s", "s");
    }
    return m;
  }();
  return metrics;
}

void finish_per_layer(const Tracer& tracer, Metrics& metrics) {
  std::map<std::string, double> layer_self;
  for (const auto& [name, secs] : tracer.self_seconds()) {
    const std::string layer = name.substr(0, name.find('.'));
    layer_self[layer] += secs;
  }
  for (const std::string& layer : layer_names()) {
    metrics.set(layer + ".self_s", layer_self[layer], "s");
  }
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (metrics.all().count(name) == 0) metrics.set(name, 0.0, unit);
  }
}

}  // namespace perfbench
