// Shared pieces of the nvmenc benchmark: host clocks and resource usage,
// the metric set a run reports, the in-memory span tracer of the traced
// run, and the digest that fingerprints every simulated statistic.
//
// Host cost (wall time, CPU time, resident memory) and simulated results
// (virtual ns, flips, energy) are kept apart: end-to-end metrics are host
// cost only, and simulated values appear only in the traced run's ledger,
// named with a `sim_` or `model.` prefix.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using u64 = std::uint64_t;
using i64 = std::int64_t;

/// Monotonic host time in ns.
[[nodiscard]] inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host CPU seconds (user + sys) used so far by every thread of the process.
[[nodiscard]] double cpu_seconds();

/// Peak resident set size of the process in MB (VmHWM: anonymous and
/// file-backed pages, so an mmap'd trace counts once it is touched).
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);

/// Hands a value computed by timed work to the outside world, so the
/// compiler cannot drop the work as dead code.
void consume(u64 value);

/// Wall and CPU time of one stretch of work.
struct Interval {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Measures `fn()` in wall and host CPU time.
template <typename F>
Interval measure(F&& fn) {
  const double cpu0 = cpu_seconds();
  const i64 t0 = now_ns();
  fn();
  return {static_cast<double>(now_ns() - t0) * 1e-9, cpu_seconds() - cpu0};
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smaller inputs, for the benchmark's self-test.
  bool quick = false;
  /// Scratch directory for trace files and span dumps.
  std::string workdir = ".";
};

/// The metrics one run reports, by name, with units.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  all() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Outcome of one run: units of work and correctness checks, each with
/// its failed ones, and the metrics. Checks are kept apart from work units
/// so that one failed check cannot drown in millions of units.
struct Report {
  u64 units = 0;
  u64 failed_units = 0;
  u64 checks = 0;
  u64 failed_checks = 0;
  Metrics metrics;
  /// Fingerprint of the generated inputs (changes with the seed).
  u64 inputs_digest = 0;
  /// Fingerprint of every simulated statistic of the workload.
  u64 model_digest = 0;

  /// Records one correctness check; a failing one is printed to stderr.
  void check(bool ok, const std::string& what);
  /// Records units of work (matrix cells, trace records, requests).
  void count(u64 n, u64 failed_n) {
    units += n;
    failed_units += failed_n;
  }
  [[nodiscard]] u64 attempted() const noexcept { return units + checks; }
  [[nodiscard]] u64 failed() const noexcept {
    return failed_units + failed_checks;
  }
  /// The gated success share: 0 as soon as any check fails, otherwise
  /// the share of work units that succeeded.
  [[nodiscard]] double ok_frac() const noexcept {
    if (failed_checks > 0 || units == 0) return 0.0;
    return 1.0 - static_cast<double>(failed_units) /
                     static_cast<double>(units);
  }
};

/// FNV-1a over bytes and values, for the input and simulated-output
/// fingerprints. Doubles are hashed by their exact bit pattern.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t size);
  Digest& add(u64 v) { return bytes(&v, sizeof v); }
  Digest& add(double v);
  Digest& add(const std::string& s) { return bytes(s.data(), s.size()); }
  /// 48 bits, so the value survives a JSON number exactly.
  [[nodiscard]] u64 value() const noexcept { return h_ & ((u64{1} << 48) - 1); }

 private:
  u64 h_ = 0xcbf29ce484222325ull;
};

/// In-memory span recorder of the traced run. A span has a name, start,
/// end, parent and the run id it belongs to. An aggregate span stands for
/// `count` consecutive calls of one public function made inside its parent
/// (timed one by one or in batches); its `busy_ns` is their summed time,
/// while start/end bound the first and last call. Spans stay in memory
/// and are written out when the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = kNoParent;
    u64 run = 0;
    std::string name;
    i64 start_ns = 0;
    i64 end_ns = 0;
    i64 busy_ns = 0;
    u64 count = 1;
  };

  explicit Tracer(u64 run_id) : run_id_{run_id} {}

  /// Opens a span and returns its id; close it with end().
  std::uint32_t begin(const std::string& name, std::uint32_t parent);
  void end(std::uint32_t id);
  /// Records an aggregate of `count` calls totalling `busy_ns`.
  void aggregate(const std::string& name, std::uint32_t parent,
                 i64 start_ns, i64 end_ns, i64 busy_ns, u64 count);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, std::uint32_t parent)
        : tracer_{tracer}, id_{tracer.begin(name, parent)} {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    std::uint32_t id_;
  };

  [[nodiscard]] std::vector<Span> spans() const;
  /// Summed busy time (s) and call count of every span with this name.
  [[nodiscard]] double busy_s(const std::string& name) const;
  [[nodiscard]] u64 calls(const std::string& name) const;
  /// Self time (s) per span name: each span's busy time minus the part of
  /// its interval its children cover (aggregate children count their busy
  /// time), summed over spans of the same name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes one span per line (tab-separated) to `path`.
  void write(const std::string& path) const;

 private:
  u64 run_id_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Accumulates per-call times of one public function for an aggregate
/// span.
struct CallTimer {
  i64 first_ns = 0;
  i64 last_ns = 0;
  i64 busy_ns = 0;
  u64 count = 0;

  void add(i64 start, i64 end) {
    if (count == 0) first_ns = start;
    last_ns = end;
    busy_ns += end - start;
    ++count;
  }
  /// Busy ns per call. A timer fed whole batches has `count` set to the
  /// number of calls the batches made before this is read.
  [[nodiscard]] double ns_per_call() const {
    return count == 0 ? 0.0
                      : static_cast<double>(busy_ns) /
                            static_cast<double>(count);
  }
  /// Emits the aggregate span and resets.
  void flush(Tracer& tracer, const std::string& name, std::uint32_t parent) {
    if (count == 0) return;
    tracer.aggregate(name, parent, first_ns, last_ns, busy_ns, count);
    *this = CallTimer{};
  }
};

/// The layers of the repository whose self time the traced run reports:
/// the span-name prefix each one owns.
[[nodiscard]] const std::vector<std::string>& layer_names();

/// Prints the throughput of every timed run to stderr.
void log_series(const std::string& workload,
                const std::vector<double>& throughput, u64 accesses);

/// The timed part of an untraced run. Repeats `set_up()` (`setups` times
/// in a row, timed together) and then `run()` until `opts.seconds`
/// have passed, calls `check()` after each run, outside its timed
/// interval, and sets the end-to-end metrics from the medians: setup_s
/// from the set-ups, throughput_maccess_s and cpu_ns_per_access from the
/// runs of `accesses` accesses each, and peak_rss_mb. Set-up is repeated
/// along the whole run, so its median samples the same stretch of host
/// time as the workload's (host speed drifts over seconds on a shared
/// machine); a set-up of well under a microsecond is repeated in a row so
/// that the clock's own cost does not swamp it.
template <typename SetUp, typename Run, typename Check>
void timed_runs(const Options& opts, u64 accesses, int setups, Report& report,
                SetUp&& set_up, Run&& run, Check&& check) {
  std::vector<double> setup_s;
  std::vector<double> throughput;
  std::vector<double> cpu_ns;
  const double n = static_cast<double>(accesses);
  const i64 start = now_ns();
  do {
    const Interval setup = measure([&] {
      for (int i = 0; i < setups; ++i) set_up();
    });
    setup_s.push_back(setup.wall_s / setups);
    const Interval iv = measure(run);
    throughput.push_back(n / iv.wall_s / 1e6);
    cpu_ns.push_back(iv.cpu_s * 1e9 / n);
    check();
  } while (static_cast<double>(now_ns() - start) * 1e-9 < opts.seconds);
  report.metrics.set("setup_s", median(setup_s), "s");
  report.metrics.set("throughput_maccess_s", median(throughput), "Maccess/s");
  report.metrics.set("cpu_ns_per_access", median(cpu_ns), "ns");
  report.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  log_series(opts.workload, throughput, accesses);
}

/// Every per-layer metric name with its unit. Each traced run reports all
/// of them; a layer the workload does not run reports 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Adds the per-layer self times from `tracer` and fills every per-layer
/// metric the workload did not set with 0.
void finish_per_layer(const Tracer& tracer, Metrics& metrics);

/// Scheme slugs used in metric names.
[[nodiscard]] const std::vector<std::string>& figure_scheme_slugs();

// Workload entry points.
Report run_paper_matrix(const Options& opts);
Report run_trace_replay(const Options& opts);
Report run_aging_loadgen(const Options& opts);

}  // namespace perfbench
