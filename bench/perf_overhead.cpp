// Performance overhead of the encode/decode latency (Section 3.4.2).
//
// The paper synthesizes the READ+SAE encoder at 3.47 ns and argues the
// performance impact is negligible because reads dominate system
// performance and decode is nearly free. This bench replays each
// benchmark's interleaved request stream closed-loop through the memory
// system (replay_closed_loop) with the encode latency swept from 0 to an
// exaggerated 200 ns, and reports execution-time overhead and average
// read latency — validating (or bounding) the claim quantitatively.
//
// The finding is self-enforced: the run exits 1 unless 3.47 ns costs
// under 1 % execution time on every profile and 200 ns costs more than
// 3.47 ns, so the --quick ctest keeps the documented claim honest.
#include "bench_util.hpp"

#include "memsys/trace_replay.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

int run(const bench::Options& opt) {
  bench::banner("Section 3.4.2: performance overhead of encode latency");
  ExperimentConfig cfg = bench::figure_config(opt);
  cfg.collector.record_requests = true;

  const double latencies[] = {0.0, 3.47, 10.0, 50.0, 200.0};
  bool claim_holds = true;
  TextTable table{{"benchmark", "requests", "row hit", "t(0ns)",
                   "+3.47ns", "+10ns", "+50ns", "+200ns",
                   "read lat (3.47ns)", "read lat (sched)"}};
  for (const std::string name : {"bwaves", "sjeng", "gcc", "xalancbmk"}) {
    SyntheticWorkload workload{profile_by_name(name), cfg.seed};
    const WritebackTrace trace = collect_writebacks(workload, cfg.collector);

    std::vector<std::string> row{name,
                                 std::to_string(trace.requests.size())};
    double base_ns = 0.0;
    double base_hit = 0.0;
    double lat_347 = 0.0;
    double over_347 = 0.0;
    std::vector<std::string> overheads;
    for (const double enc_ns : latencies) {
      MemSysConfig mem;
      mem.org.encode_latency_ns = enc_ns;
      const TraceReplayResult r = replay_closed_loop(trace.requests, mem);
      if (enc_ns == 0.0) {
        base_ns = r.makespan_ns;
        base_hit = r.timing.row_hit_rate();
        overheads.push_back(TextTable::fmt(base_ns / 1e6, 2) + "ms");
        continue;
      }
      const double over = r.makespan_ns / base_ns - 1.0;
      overheads.push_back(TextTable::fmt_pct(over, 2));
      if (enc_ns == 3.47) {
        lat_347 = r.stats.read_latency_stat.mean();
        over_347 = over;
        claim_holds = claim_holds && over < 0.01;
      }
      if (enc_ns == 200.0) claim_holds = claim_holds && over > over_347;
    }
    // Same stream, writes drained only at the high watermark.
    MemSysConfig sched;
    sched.org.encode_latency_ns = 3.47;
    sched.opportunistic_writes = false;
    const TraceReplayResult scheduled =
        replay_closed_loop(trace.requests, sched);

    row.push_back(TextTable::fmt(base_hit, 3));
    for (std::string& s : overheads) row.push_back(std::move(s));
    row.push_back(TextTable::fmt(lat_347, 1) + "ns");
    row.push_back(
        TextTable::fmt(scheduled.stats.read_latency_stat.mean(), 1) + "ns");
    table.add_row(std::move(row));
  }
  bench::emit(table, opt, "perf_overhead");
  std::cout << "\npaper claim: 3.47 ns encode latency has negligible "
               "performance impact (reads dominate; decode is free). Every "
               "column runs the memory system's 64-entry write queue. The "
               "latency columns issue a write whenever no read is pending, "
               "so the next read can land behind it; the sched column "
               "drains writes only at the high watermark, spread over all "
               "banks, so most reads find idle banks.\n";
  if (!claim_holds) {
    std::cerr << "perf_overhead: 3.47 ns must cost under 1% execution time "
                 "on every profile, and 200 ns more than 3.47 ns\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  return nvmenc::run(nvmenc::bench::parse_options(argc, argv));
}
