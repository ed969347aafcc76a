// trace_replay: open-loop replay of an mmap'd bwaves binary trace through
// the channel-sharded memory system (4 channels, 4 workers, RAS off).
// The memory system does the work: four channel shards, each scanning the
// mmap'd trace for its own channel's records, run on the runner's worker
// pool. The 2M-record replay has two epochs of the default 1M records, so
// the runner adds only the pool's dispatch and two joins. The caches,
// encoders and RAS do none.
//
// bwaves at 7.5 ns per access sits just below saturation: write drains
// happen but the backlog stays bounded. (The gcc trace coalesces most of
// its writes and never drains; at 4 ns per access the backlog grows
// without bound and a run has no steady length.)
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "core/schemes.hpp"
#include "memsys/encode_cost.hpp"
#include "memsys/memory_system.hpp"
#include "memsys/report.hpp"
#include "memsys/trace_replay.hpp"
#include "memsys_common.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

using namespace nvmenc;

constexpr usize kJobs = 4;
constexpr double kInterArrivalNs = 7.5;
/// Records compared between the serial and sharded engines.
constexpr u64 kPrefix = 500'000;

u64 trace_records(const Options& opts) {
  return opts.quick ? 100'000 : 2'000'000;
}

MemSysConfig mem_config() {
  MemSysConfig mem;
  mem.org.channels = 4;
  mem.org.encode_latency_ns =
      encode_latency_ns(Scheme::kReadSae, EncodeLatencyModel::kPaper);
  return mem;
}

TraceReplayConfig replay_config(u64 max_accesses = 0) {
  TraceReplayConfig replay;
  replay.inter_arrival_ns = kInterArrivalNs;
  replay.max_accesses = max_accesses;
  return replay;
}

std::string trace_path(const Options& opts) {
  return opts.workdir + "/bwaves-" + std::to_string(opts.seed) + ".bin";
}

/// Deletes the run's trace file when the run ends (declared before the
/// mapping, so it outlives it).
struct TraceFile {
  std::string path;
  ~TraceFile() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
};

u64 result_digest(const TraceReplayResult& r) {
  Digest d;
  add_memsys_digest(d, r.stats, r.timing, r.ras, r.makespan_ns);
  d.add(r.accesses);
  return d.value();
}

void check_result(Report& report, const TraceReplayResult& r, u64 records) {
  const u64 completed = r.stats.reads + r.stats.writes;
  report.count(records, records - std::min(records, completed));
  report.check(r.accesses == records, "every trace record is replayed");
  report.check(r.stats.reads + r.stats.writes == records,
               "every replayed access completes");
}

/// Writes the trace with TraceWriter and maps it. With a tracer, the
/// generator and the writer are timed in batches.
void write_trace(const Options& opts, std::optional<MappedTrace>& trace,
                 Tracer* tracer, std::uint32_t parent) {
  trace.reset();  // never rewrite a file that is still mapped
  const u64 records = trace_records(opts);
  SyntheticWorkload workload{profile_by_name("bwaves"), opts.seed};
  if (tracer == nullptr) {
    TraceWriter writer{trace_path(opts)};
    for (u64 i = 0; i < records; ++i) writer.append(workload.next());
    writer.close();
    trace.emplace(trace_path(opts));
    return;
  }
  CallTimer gen;
  CallTimer append;
  std::vector<MemAccess> batch;
  {
    TraceWriter writer{trace_path(opts)};
    constexpr u64 kBatch = 65'536;
    for (u64 i = 0; i < records; i += kBatch) {
      const u64 n = std::min(kBatch, records - i);
      batch.clear();
      const i64 t0 = now_ns();
      for (u64 j = 0; j < n; ++j) batch.push_back(workload.next());
      const i64 t1 = now_ns();
      for (const MemAccess& a : batch) writer.append(a);
      append.add(t1, now_ns());
      gen.add(t0, t1);
    }
    gen.count = records;
    append.count = records;
    gen.flush(*tracer, "trace.SyntheticWorkload.next", parent);
    append.flush(*tracer, "trace.TraceWriter.append", parent);
    Tracer::Scope close{*tracer, "trace.TraceWriter.close", parent};
    writer.close();
  }
  Tracer::Scope map{*tracer, "trace.MappedTrace", parent};
  trace.emplace(trace_path(opts));
}

u64 inputs_digest(const MappedTrace& trace) {
  Digest d;
  for (usize i = 0; i < std::min<usize>(trace.size(), 4096); ++i) {
    const MemAccess a = trace[i];
    d.add(a.addr).add(a.value).add(u64{static_cast<unsigned>(a.op)});
  }
  return d.value();
}

Report run_untraced(const Options& opts) {
  Report report;
  const TraceFile file{trace_path(opts)};
  // Set-up: writing the binary trace with TraceWriter and mapping it.
  std::optional<MappedTrace> trace;
  const auto set_up = [&] {
    write_trace(opts, trace, nullptr, Tracer::kNoParent);
  };
  set_up();
  const u64 records = trace->size();
  report.inputs_digest = inputs_digest(*trace);
  const MemSysConfig mem = mem_config();

  // Serial and sharded engines agree on a prefix (this also brings the
  // trace into the page cache before the timed runs).
  const TraceReplayConfig prefix = replay_config(kPrefix);
  report.check(replay_trace(*trace, prefix, mem) ==
                   replay_trace_sharded(*trace, prefix, mem, kJobs),
               "replay_trace and replay_trace_sharded agree on a prefix");

  // The first replay of a process runs slower; it is checked, not timed.
  const TraceReplayConfig replay = replay_config();
  TraceReplayResult r;
  const Interval first =
      measure([&] { r = replay_trace_sharded(*trace, replay, mem, kJobs); });
  std::cerr << "trace_replay: untimed first run "
            << static_cast<double>(records) / first.wall_s / 1e6
            << " Maccess/s\n";
  check_result(report, r, records);
  report.model_digest = result_digest(r);

  timed_runs(
      opts, records, 1, report, set_up,
      [&] { r = replay_trace_sharded(*trace, replay, mem, kJobs); },
      [&] {
        check_result(report, r, records);
        report.check(result_digest(r) == report.model_digest,
                     "repeated replays give identical statistics");
      });
  return report;
}

Report run_traced(const Options& opts) {
  Report report;
  Metrics& out = report.metrics;
  Tracer tracer{opts.seed};
  const std::uint32_t root =
      tracer.begin("bench.trace_replay", Tracer::kNoParent);
  const TraceFile file{trace_path(opts)};
  std::optional<MappedTrace> trace;
  {
    Tracer::Scope span{tracer, "bench.setup", root};
    write_trace(opts, trace, &tracer, span.id());
  }
  const u64 records = trace->size();
  const double n = static_cast<double>(records);
  report.inputs_digest = inputs_digest(*trace);
  out.set("trace.gen_ns_per_access",
          tracer.busy_s("trace.SyntheticWorkload.next") * 1e9 / n, "ns");
  out.set("trace.write_ns_per_access",
          tracer.busy_s("trace.TraceWriter.append") * 1e9 / n, "ns");
  {
    Tracer::Scope span{tracer, "trace.MappedTrace.scan", root};
    u64 sink = 0;
    const i64 t0 = now_ns();
    for (usize i = 0; i < trace->size(); ++i) {
      const MemAccess a = (*trace)[i];
      sink += a.addr ^ a.value;
    }
    out.set("trace.scan_ns_per_access",
            static_cast<double>(now_ns() - t0) / n, "ns");
    consume(sink);
  }

  const MemSysConfig mem = mem_config();
  const TraceReplayConfig replay = replay_config();
  TraceReplayResult plain = replay_trace_sharded(*trace, replay, mem, kJobs);
  std::vector<double> plain_wall;
  std::vector<double> plain_eff;
  std::vector<double> traced_wall;
  TraceReplayResult traced;
  for (int r = 0; r < 2; ++r) {
    const Interval iv = measure(
        [&] { plain = replay_trace_sharded(*trace, replay, mem, kJobs); });
    plain_wall.push_back(iv.wall_s);
    plain_eff.push_back(iv.cpu_s / (iv.wall_s * static_cast<double>(kJobs)));
    Tracer discard{opts.seed};
    Tracer::Scope span{r == 0 ? discard : tracer,
                       "memsys.replay_trace_sharded", root};
    const Interval tv = measure(
        [&] { traced = replay_trace_sharded(*trace, replay, mem, kJobs); });
    traced_wall.push_back(tv.wall_s);
  }
  report.model_digest = result_digest(plain);
  check_result(report, traced, records);
  report.check(result_digest(traced) == report.model_digest,
               "traced replay gives the same statistics");
  out.set("bench.tracing_overhead_frac",
          median(traced_wall) / median(plain_wall) - 1.0, "frac");
  out.set("runner.parallel_eff", median(plain_eff), "frac");

  TraceReplayResult serial;
  TraceReplayResult j1;
  {
    Tracer::Scope span{tracer, "memsys.replay_trace", root};
    const i64 t0 = now_ns();
    serial = replay_trace(*trace, replay, mem);
    out.set("memsys.serial_ns_per_access",
            static_cast<double>(now_ns() - t0) / n, "ns");
  }
  {
    Tracer::Scope span{tracer, "memsys.replay_trace_sharded.j1", root};
    const i64 t0 = now_ns();
    j1 = replay_trace_sharded(*trace, replay, mem, 1);
    const double j1_ns = static_cast<double>(now_ns() - t0);
    out.set("memsys.sharded_j1_ns_per_access", j1_ns / n, "ns");
    out.set("memsys.sharded_speedup", j1_ns * 1e-9 / median(plain_wall), "x");
  }
  report.check(serial == plain && j1 == plain,
               "serial, 1-worker and 4-worker replays agree");
  {
    // The same replay with RAS and the lifetime engine on (the aging
    // settings, uncalibrated wear), against the RAS-off replays above.
    MemSysConfig aging = mem;
    aging.ras = aging_ras_config(opts.seed, 2e6, 1e9, kMigrationWearFlips);
    Tracer::Scope span{tracer, "bench.ras_on_replay", root};
    TraceReplayResult with_ras;
    const Interval iv = measure(
        [&] { with_ras = replay_trace_sharded(*trace, replay, aging, kJobs); });
    check_result(report, with_ras, records);
    out.set("ras.overhead_frac", iv.wall_s / median(plain_wall) - 1.0,
            "frac");
  }

  // Stats merge, on a MemorySystem fed the trace prefix open-loop.
  {
    Tracer::Scope span{tracer, "bench.merge_probe", root};
    MemorySystem sys{mem};
    const u64 fed = std::min<u64>(records, 200'000);
    for (u64 i = 0; i < fed; ++i) {
      const double t = static_cast<double>(i) * kInterArrivalNs;
      while (sys.step_until(t)) {
      }
      const MemAccess a = (*trace)[i];
      (void)sys.submit(a.line_addr(),
                       a.op == Op::kWrite ? ReqKind::kWrite : ReqKind::kRead,
                       t);
    }
    (void)sys.drain_all();
    std::vector<double> us;
    u64 sink = 0;
    for (int r = 0; r < 50; ++r) {
      Tracer::Scope merge{tracer, "memsys.MemorySystem.stats", span.id()};
      const i64 t0 = now_ns();
      sink += sys.stats().reads + sys.timing_stats().reads;
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    report.check(sink > 0, "the merge probe served reads");
    out.set("memsys.stats_merge_us", median(us), "us");
  }
  {
    std::vector<double> us;
    std::size_t bytes = 0;
    for (int r = 0; r < 5; ++r) {
      Tracer::Scope span{tracer, "report.replay_table", root};
      const i64 t0 = now_ns();
      std::ostringstream text;
      replay_table("bwaves", mem.org.encode_latency_ns, replay, plain)
          .print(text);
      bytes += text.str().size();
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    report.check(bytes > 0, "replay table renders");
    out.set("report.render_us", median(us), "us");
  }

  set_memsys_sim_metrics(out, plain.stats, plain.timing);
  out.set("model.digest", static_cast<double>(report.model_digest), "hash");
  tracer.end(root);
  finish_per_layer(tracer, out);
  tracer.write(opts.workdir + "/spans-trace_replay-" +
               std::to_string(opts.seed) + ".tsv");
  return report;
}

}  // namespace

Report run_trace_replay(const Options& opts) {
  return opts.trace ? run_traced(opts) : run_untraced(opts);
}

}  // namespace perfbench
