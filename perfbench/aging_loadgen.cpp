// aging_loadgen: closed-loop serial load (run_load) of 32 users with
// zipfian addresses and a 50/50 read/write mix on 4 channels, with the
// RAS layer (write faults plus scrub), the lifetime engine (endurance plus
// retention drift) and Start-Gap wear leveling all on. It drives the same
// memory-system layer as trace_replay through a different path: the
// serial MemorySystem router and its per-step channel scans, hot lines
// that forward and coalesce, and the RAS and lifetime hooks on every
// array write. No thread pool is used: the timed runs start independent
// copies of the serial load side by side on plain threads (see kCopies).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>
#include <queue>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/schemes.hpp"
#include "memsys/encode_cost.hpp"
#include "memsys/lifetime.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/memory_system.hpp"
#include "memsys/report.hpp"
#include "memsys/ras.hpp"
#include "memsys_common.hpp"

namespace perfbench {
namespace {

using namespace nvmenc;

/// Copies of the serial load run side by side in each timed run. On a
/// shared host each vCPU has fast and slow phases of its own, lasting
/// seconds to minutes; over four copies on four vCPUs they average out.
/// (In eight alternating pairs of 30-s runs on a 4-vCPU guest, the
/// quartile spread of throughput was 10 % with one copy and 3 % with four.)
constexpr usize kCopies = 4;
/// Requests compared between two runs of the same seed.
constexpr u64 kPrefix = 100'000;
/// Submissions recorded for the RAS and lifetime probes.
constexpr usize kProbeStream = 262'144;

LoadGenConfig load_config(const Options& opts) {
  LoadGenConfig load;
  load.pattern = LoadPattern::kZipfian;
  load.users = 32;
  load.read_fraction = 0.5;
  load.requests = opts.quick ? 50'000 : 250'000;
  load.seed = opts.seed;
  return load;
}

/// The memory system under test. The per-write wear cost is calibrated
/// from the real READ+SAE encoder, as the CLI does, so calibration is part
/// of the set-up.
MemSysConfig mem_config(const Options& opts) {
  MemSysConfig mem;
  mem.org.channels = 4;
  mem.org.encode_latency_ns =
      encode_latency_ns(Scheme::kReadSae, EncodeLatencyModel::kPaper);
  const SchemeWriteCost cost =
      calibrate_write_cost(Scheme::kReadSae, "gcc", opts.seed);
  // Endurance and the retention time constant are scaled down to the run
  // length (2e6 flips and 1 s suit a 4M-request load; this one is 250k
  // requests), so lines wear out, drift, get corrected by scrub,
  // re-partitioned and retired within every run.
  mem.ras = aging_ras_config(opts.seed, 6.25e4, 6.25e7,
                             cost.avg_sets + cost.avg_resets);
  mem.validate();
  return mem;
}

u64 result_digest(const LoadResult& r) {
  Digest d;
  add_memsys_digest(d, r.stats, r.timing, r.ras, r.makespan_ns);
  return d.value();
}

void check_result(Report& report, const LoadResult& r, u64 requests) {
  const u64 completed = r.stats.reads + r.stats.writes;
  report.count(requests, requests - std::min(requests, completed));
  report.check(completed == requests, "every loadgen request completes");
}

u64 inputs_digest(const LoadGenConfig& load) {
  const AddressSampler sampler{load};
  SplitMix64 sm{load.seed};
  Xoshiro256 rng{sm.next()};
  Digest d;
  for (u64 i = 0; i < 4096; ++i) d.add(sampler.draw(rng, i));
  return d.value();
}

/// One submitted request, recorded for the RAS and lifetime probes.
struct Submission {
  u64 line = 0;
  double time_ns = 0.0;
  bool write = false;
};

/// What the traced closed loop leaves besides its result.
struct LoopTrace {
  std::vector<Submission> stream;  ///< the first kProbeStream submissions
  std::vector<double> merge_us;    ///< repeated stats merges of the system
  bool merges_equal = true;        ///< every merge gave the same result
};

/// run_load's closed loop, rebuilt from the public MemorySystem and
/// AddressSampler calls with each call timed and folded into aggregate
/// spans per batch of requests. Must return run_load's exact result.
LoadResult traced_load(const LoadGenConfig& load, const MemSysConfig& mem,
                       Tracer& tracer, std::uint32_t parent, LoopTrace& loop) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr u64 kBatch = 65'536;
  struct Arrival {
    double time_ns = 0.0;
    usize user = 0;
  };
  struct Later {
    bool operator()(const Arrival& a, const Arrival& b) const noexcept {
      if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
      return a.user > b.user;
    }
  };

  Tracer::Scope run{tracer, "bench.closed_loop", parent};
  load.validate();
  std::optional<MemorySystem> sys_slot;
  std::optional<AddressSampler> sampler_slot;
  {
    Tracer::Scope s{tracer, "memsys.MemorySystem", run.id()};
    sys_slot.emplace(mem);
  }
  {
    Tracer::Scope s{tracer, "memsys.AddressSampler", run.id()};
    sampler_slot.emplace(load);
  }
  MemorySystem& sys = *sys_slot;
  const AddressSampler& sampler = *sampler_slot;
  const bool ras_on = mem.ras.enabled();

  SplitMix64 sm{load.seed};
  std::vector<Xoshiro256> rngs;
  rngs.reserve(load.users);
  for (usize u = 0; u < load.users; ++u) rngs.emplace_back(sm.next());
  const auto think = [&](usize u) {
    if (load.think_ns == 0.0) return 0.0;
    return -load.think_ns * std::log(1.0 - rngs[u].next_double());
  };
  std::priority_queue<Arrival, std::vector<Arrival>, Later> arrivals;
  for (usize u = 0; u < load.users; ++u) arrivals.push({think(u), u});

  CallTimer step;
  CallTimer draw;
  CallTimer route;
  CallTimer submit;
  std::optional<Tracer::Scope> batch;
  batch.emplace(tracer, "memsys.closed_loop_batch", run.id());
  // Reading the clock around every call would double the loop's cost, so
  // the calls of one loop iteration in eight are timed; every call is
  // counted, and each aggregate's busy time is scaled up by calls/timed.
  u64 steps = 0;
  u64 draws = 0;
  u64 routes = 0;
  u64 submits = 0;
  const auto scale = [](CallTimer& t, u64 calls) {
    if (t.count == 0) return;
    t.busy_ns = static_cast<i64>(static_cast<double>(t.busy_ns) *
                                 static_cast<double>(calls) /
                                 static_cast<double>(t.count));
    t.count = calls;
  };
  const auto flush = [&] {
    scale(step, steps);
    scale(draw, draws);
    scale(route, routes);
    scale(submit, submits);
    steps = draws = routes = submits = 0;
    step.flush(tracer, "memsys.MemorySystem.step_until", batch->id());
    draw.flush(tracer, "memsys.AddressSampler.draw", batch->id());
    route.flush(tracer, "memsys.MemorySystem.route", batch->id());
    submit.flush(tracer, "memsys.MemorySystem.submit", batch->id());
  };

  std::unordered_map<u64, usize> inflight;
  u64 issued = 0;
  u64 iteration = 0;
  while (issued < load.requests || !inflight.empty()) {
    // A multiplicative hash picks the sampled iterations, so the sample
    // does not lock onto the loop's arrival/completion alternation.
    const bool timed = (iteration++ * 0x9e3779b97f4a7c15ull) >> 61 == 0;
    const double next_arrival =
        arrivals.empty() ? kInf : arrivals.top().time_ns;
    const i64 s0 = timed ? now_ns() : 0;
    const auto comp = sys.step_until(next_arrival);
    if (timed) step.add(s0, now_ns());
    ++steps;
    if (comp) {
      const auto it = inflight.find(comp->ticket);
      const usize u = it->second;
      inflight.erase(it);
      arrivals.push({comp->time_ns + think(u), u});
      continue;
    }
    if (arrivals.empty()) break;
    const Arrival arr = arrivals.top();
    arrivals.pop();
    if (issued >= load.requests) continue;
    const i64 d0 = timed ? now_ns() : 0;
    u64 addr = sampler.draw(rngs[arr.user], issued);
    if (timed) draw.add(d0, now_ns());
    ++draws;
    const ReqKind kind = rngs[arr.user].next_bool(load.read_fraction)
                             ? ReqKind::kRead
                             : ReqKind::kWrite;
    bool remapped = false;
    if (ras_on) {
      const i64 r0 = timed ? now_ns() : 0;
      sys.poll_ras(arr.time_ns);
      const u64 routed = sys.route_for_degradation(addr);
      if (timed) route.add(r0, now_ns());
      ++routes;
      remapped = routed != addr;
      addr = routed;
    }
    const i64 q0 = timed ? now_ns() : 0;
    const u64 ticket = sys.submit(addr, kind, arr.time_ns, remapped);
    if (timed) submit.add(q0, now_ns());
    ++submits;
    inflight.emplace(ticket, arr.user);
    if (loop.stream.size() < kProbeStream) {
      loop.stream.push_back({addr, arr.time_ns, kind == ReqKind::kWrite});
    }
    ++issued;
    if (issued % kBatch == 0) {
      flush();
      batch.emplace(tracer, "memsys.closed_loop_batch", run.id());
    }
  }
  flush();
  batch.reset();

  LoadResult result;
  {
    Tracer::Scope s{tracer, "memsys.MemorySystem.drain_all", run.id()};
    result.makespan_ns = sys.drain_all();
  }
  {
    Tracer::Scope s{tracer, "memsys.MemorySystem.stats", run.id()};
    result.stats = sys.stats();
    result.timing = sys.timing_stats();
    result.ras = sys.ras_report();
  }
  // Repeated merges of the drained system, for the per-merge cost.
  for (int r = 0; r < 50; ++r) {
    const i64 t0 = now_ns();
    const LoadResult again{sys.stats(), sys.timing_stats(), sys.ras_report(),
                           result.makespan_ns};
    loop.merge_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    loop.merges_equal = loop.merges_equal && again == result;
  }
  return result;
}

/// FaultDomain calls fed the workload's own submission stream, timed per
/// call kind in batches. Returns {write, demand read, scrub read} ns.
std::vector<double> ras_probe(const std::vector<Submission>& stream,
                              const MemSysConfig& mem, Tracer& tracer,
                              std::uint32_t parent) {
  FaultDomain domain{mem.ras, 0};
  CallTimer write;
  CallTimer read;
  CallTimer scrub;
  u64 writes = 0;
  u64 reads = 0;
  u64 scrubs = 0;
  u64 sink = 0;
  constexpr usize kChunk = 4096;
  for (usize i = 0; i < stream.size(); i += kChunk) {
    const usize end = std::min(stream.size(), i + kChunk);
    i64 t0 = now_ns();
    for (usize j = i; j < end; ++j) {
      if (!stream[j].write) continue;
      sink += domain.on_array_write(stream[j].line, stream[j].time_ns).retries;
      ++writes;
    }
    i64 t1 = now_ns();
    write.add(t0, t1);
    for (usize j = i; j < end; ++j) {
      if (stream[j].write) continue;
      sink += domain.on_demand_read(stream[j].line, stream[j].time_ns)
                  .disturbed;
      ++reads;
    }
    t0 = now_ns();
    read.add(t1, t0);
    const double now = stream[end - 1].time_ns;
    for (usize k = 0; k < (end - i) / 16; ++k) {
      if (const auto line = domain.next_scrub_target()) {
        sink += domain.on_scrub_read(*line, now).corrected;
        ++scrubs;
      }
    }
    scrub.add(t0, now_ns());
  }
  consume(sink);
  write.count = writes;
  read.count = reads;
  scrub.count = scrubs;
  std::vector<double> out{write.ns_per_call(), read.ns_per_call(),
                          scrub.ns_per_call()};
  write.flush(tracer, "ras.FaultDomain.on_array_write", parent);
  read.flush(tracer, "ras.FaultDomain.on_demand_read", parent);
  scrub.flush(tracer, "ras.FaultDomain.on_scrub_read", parent);
  return out;
}

/// LifetimeEngine and WearLevelTranslator calls fed the same stream.
/// Returns {on_write, drift_on_read, translate} ns.
std::vector<double> lifetime_probe(const std::vector<Submission>& stream,
                                   const MemSysConfig& mem, Tracer& tracer,
                                   std::uint32_t parent) {
  const LifetimeConfig& life = mem.ras.lifetime;
  LifetimeEngine engine{life, 0};
  WearLevelTranslator leveler{life, mem.org, 0};
  std::vector<u64> homed;
  homed.reserve(stream.size());
  for (const Submission& s : stream) {
    homed.push_back(pin_line_to_channel(mem.org, s.line, 0));
  }
  CallTimer write;
  CallTimer read;
  CallTimer translate;
  u64 writes = 0;
  u64 reads = 0;
  u64 sink = 0;
  constexpr usize kChunk = 4096;
  for (usize i = 0; i < stream.size(); i += kChunk) {
    const usize end = std::min(stream.size(), i + kChunk);
    const i64 t0 = now_ns();
    for (usize j = i; j < end; ++j) {
      if (!stream[j].write) continue;
      sink += engine
                  .on_write(stream[j].line, life.wear_per_write_flips,
                            stream[j].time_ns)
                  .worn;
      ++writes;
    }
    const i64 t1 = now_ns();
    for (usize j = i; j < end; ++j) {
      if (stream[j].write) continue;
      sink += engine.drift_on_read(stream[j].line, stream[j].time_ns);
      ++reads;
    }
    const i64 t2 = now_ns();
    for (usize j = i; j < end; ++j) sink += leveler.translate(homed[j]);
    translate.add(t2, now_ns());
    read.add(t1, t2);
    write.add(t0, t1);
  }
  consume(sink);
  write.count = writes;
  read.count = reads;
  translate.count = stream.size();
  std::vector<double> out{write.ns_per_call(), read.ns_per_call(),
                          translate.ns_per_call()};
  write.flush(tracer, "lifetime.LifetimeEngine.on_write", parent);
  read.flush(tracer, "lifetime.LifetimeEngine.drift_on_read", parent);
  translate.flush(tracer, "lifetime.WearLevelTranslator.translate", parent);
  return out;
}

Report run_untraced(const Options& opts) {
  Report report;
  const LoadGenConfig load = load_config(opts);
  // Set-up: the write-cost calibration and the config it feeds. (run_load
  // builds its MemorySystem and AddressSampler itself, inside the timed run.)
  MemSysConfig mem = mem_config(opts);
  report.inputs_digest = inputs_digest(load);

  // A re-run of a prefix with the same seed returns an identical result.
  LoadGenConfig prefix = load;
  prefix.requests = std::min(load.requests, kPrefix);
  report.check(run_load(prefix, mem) == run_load(prefix, mem),
               "a re-run of the same seed gives an identical LoadResult");

  // The first run of a process runs slower; it is checked, not timed.
  LoadResult r;
  const Interval first = measure([&] { r = run_load(load, mem); });
  std::cerr << "aging_loadgen: untimed first run "
            << static_cast<double>(load.requests) / first.wall_s / 1e6
            << " Maccess/s\n";
  check_result(report, r, load.requests);
  report.model_digest = result_digest(r);

  std::vector<LoadResult> copies(kCopies);
  timed_runs(
      opts, kCopies * load.requests, 1, report,
      [&] { mem = mem_config(opts); },
      [&] {
        std::vector<std::thread> threads;
        for (usize c = 1; c < kCopies; ++c) {
          threads.emplace_back([&, c] { copies[c] = run_load(load, mem); });
        }
        copies[0] = run_load(load, mem);
        for (std::thread& t : threads) t.join();
      },
      [&] {
        for (const LoadResult& copy : copies) {
          check_result(report, copy, load.requests);
          report.check(result_digest(copy) == report.model_digest,
                        "repeated runs give identical statistics");
        }
      });
  return report;
}

Report run_traced(const Options& opts) {
  Report report;
  Metrics& out = report.metrics;
  Tracer tracer{opts.seed};
  const std::uint32_t root =
      tracer.begin("bench.aging_loadgen", Tracer::kNoParent);
  const LoadGenConfig load = load_config(opts);
  MemSysConfig mem;
  {
    Tracer::Scope span{tracer, "memsys.calibrate_write_cost", root};
    mem = mem_config(opts);
  }
  report.inputs_digest = inputs_digest(load);
  const double n = static_cast<double>(load.requests);

  LoadResult plain = run_load(load, mem);
  std::vector<double> plain_wall;
  std::vector<double> plain_eff;
  std::vector<double> traced_wall;
  LoadResult traced;
  LoopTrace loop;
  for (int r = 0; r < 2; ++r) {
    const Interval iv = measure([&] { plain = run_load(load, mem); });
    plain_wall.push_back(iv.wall_s);
    plain_eff.push_back(iv.cpu_s / iv.wall_s);
    Tracer discard{opts.seed};
    loop = LoopTrace{};
    const Interval tv = measure([&] {
      traced = traced_load(load, mem, r == 0 ? discard : tracer, root, loop);
    });
    traced_wall.push_back(tv.wall_s);
  }
  report.model_digest = result_digest(plain);
  check_result(report, traced, load.requests);
  report.check(traced == plain,
               "the traced closed loop gives run_load's exact result");
  report.check(loop.merges_equal, "repeated stats merges are identical");
  out.set("bench.tracing_overhead_frac",
          median(traced_wall) / median(plain_wall) - 1.0, "frac");
  out.set("runner.parallel_eff", median(plain_eff), "frac");

  const auto per_call = [&](const std::string& name) {
    const u64 calls = tracer.calls(name);
    return calls == 0 ? 0.0
                      : tracer.busy_s(name) * 1e9 / static_cast<double>(calls);
  };
  out.set("memsys.submit_ns", per_call("memsys.MemorySystem.submit"), "ns");
  out.set("memsys.step_until_ns", per_call("memsys.MemorySystem.step_until"),
          "ns");
  out.set("memsys.steps_per_access",
          static_cast<double>(tracer.calls("memsys.MemorySystem.step_until")) /
              n,
          "steps");
  out.set("memsys.loadgen_draw_ns", per_call("memsys.AddressSampler.draw"),
          "ns");

  // RAS on versus off for the same load.
  {
    MemSysConfig off = mem;
    off.ras = RasConfig{};
    Tracer::Scope span{tracer, "bench.ras_off_run", root};
    std::vector<double> off_wall;
    std::vector<double> on_wall;
    for (int r = 0; r < 2; ++r) {
      off_wall.push_back(measure([&] { (void)run_load(load, off); }).wall_s);
      on_wall.push_back(measure([&] { (void)run_load(load, mem); }).wall_s);
    }
    out.set("ras.overhead_frac", median(on_wall) / median(off_wall) - 1.0,
            "frac");
  }
  {
    Tracer::Scope span{tracer, "bench.ras_probe", root};
    const std::vector<double> ns =
        ras_probe(loop.stream, mem, tracer, span.id());
    out.set("ras.on_array_write_ns", ns[0], "ns");
    out.set("ras.on_demand_read_ns", ns[1], "ns");
    out.set("ras.on_scrub_read_ns", ns[2], "ns");
  }
  {
    Tracer::Scope span{tracer, "bench.lifetime_probe", root};
    const std::vector<double> ns =
        lifetime_probe(loop.stream, mem, tracer, span.id());
    out.set("lifetime.on_write_ns", ns[0], "ns");
    out.set("lifetime.drift_on_read_ns", ns[1], "ns");
    out.set("lifetime.wl_translate_ns", ns[2], "ns");
  }
  out.set("memsys.stats_merge_us", median(loop.merge_us), "us");
  {
    std::vector<double> us;
    std::size_t bytes = 0;
    for (int r = 0; r < 5; ++r) {
      Tracer::Scope span{tracer, "report.load_table", root};
      const i64 t0 = now_ns();
      std::ostringstream text;
      load_table("READ+SAE", "paper", mem.org.encode_latency_ns, load, plain)
          .print(text);
      ras_table(plain.ras).print(text);
      ras_events_table(plain.ras).print(text);
      lifetime_table(plain.ras).print(text);
      bytes += text.str().size();
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    report.check(bytes > 0, "load tables render");
    out.set("report.render_us", median(us), "us");
  }

  set_memsys_sim_metrics(out, plain.stats, plain.timing);
  set_ras_sim_metrics(out, plain.ras);
  out.set("model.digest", static_cast<double>(report.model_digest), "hash");
  tracer.end(root);
  finish_per_layer(tracer, out);
  tracer.write(opts.workdir + "/spans-aging_loadgen-" +
               std::to_string(opts.seed) + ".tsv");
  return report;
}

}  // namespace

Report run_aging_loadgen(const Options& opts) {
  return opts.trace ? run_traced(opts) : run_untraced(opts);
}

}  // namespace perfbench
