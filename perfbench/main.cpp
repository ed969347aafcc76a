// nvmenc_perfbench: runs one benchmark workload and prints its result as
// one JSON object on the last line of standard output.
//
//   nvmenc_perfbench --workload <paper_matrix|trace_replay|aging_loadgen>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--workdir <dir>] [--quick]
//
// --trace 0 reports the end-to-end host-cost metrics; --trace 1 runs the
// traced variant and reports the per-layer metrics. Diagnostics (the
// input and simulated-output digests, failed checks) go to stderr.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + arg};
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument{"--trace takes 0 or 1"};
      }
      opts.trace = value == "1";
    } else if (arg == "--workdir") {
      opts.workdir = value;
    } else {
      throw std::invalid_argument{"unknown option " + arg};
    }
  }
  if (!(opts.seconds > 0.0)) {
    throw std::invalid_argument{"--seconds must be positive"};
  }
  return opts;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted());
  out += ", \"failed\": " + std::to_string(report.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : report.metrics.all()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(entry.first) +
           ", \"unit\": \"" + entry.second + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = parse(argc, argv);
    Report report;
    if (opts.workload == "paper_matrix") {
      report = perfbench::run_paper_matrix(opts);
    } else if (opts.workload == "trace_replay") {
      report = perfbench::run_trace_replay(opts);
    } else if (opts.workload == "aging_loadgen") {
      report = perfbench::run_aging_loadgen(opts);
    } else {
      throw std::invalid_argument{"unknown workload '" + opts.workload +
                                  "'"};
    }
    // A non-finite value is not a measurement; JSON cannot carry it either.
    for (const auto& [name, entry] : report.metrics.all()) {
      report.check(std::isfinite(entry.first), name + " is finite");
    }
    if (!opts.trace) {
      // 0 if any correctness check failed, else the share of matrix cells,
      // trace records or requests that succeeded. (Its complement, the
      // failed share, is 0 on a healthy run, and a gated metric must never
      // read 0.)
      report.metrics.set("ok_frac", report.ok_frac(), "frac");
    }
    Report finite = report;
    for (const auto& [name, entry] : report.metrics.all()) {
      if (!std::isfinite(entry.first)) {
        finite.metrics.set(name, 0.0, entry.second);
      }
    }
    char digests[96];
    std::snprintf(digests, sizeof digests,
                  "inputs_digest=%012llx model_digest=%012llx",
                  static_cast<unsigned long long>(report.inputs_digest),
                  static_cast<unsigned long long>(report.model_digest));
    std::cerr << digests << "\n";
    print_json(finite);
    // A run whose outputs are wrong is not a measurement: exit non-zero.
    return report.failed() == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
