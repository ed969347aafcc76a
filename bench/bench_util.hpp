// Shared plumbing for the figure-regeneration binaries.
//
// Every binary under bench/ regenerates one table or figure of the paper
// (see DESIGN.md §4): it prints the same rows/series the figure plots and,
// with --csv=<dir>, mirrors them to CSV for re-plotting. --quick shrinks
// the simulated window for smoke runs.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/table.hpp"
#include "sim/experiment.hpp"

namespace nvmenc::bench {

struct Options {
  std::string csv_dir;  // empty = no CSV output
  bool quick = false;
  usize jobs = 0;  // matrix workers; 0 = one per hardware context
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--csv=", 0) == 0) {
      opt.csv_dir = arg.substr(6);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      try {
        opt.jobs = std::stoul(arg.substr(7));
      } catch (const std::exception&) {
        std::cerr << "invalid --jobs value: " << arg.substr(7)
                  << " (expected a number)\n";
        std::exit(2);
      }
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--quick] [--csv=<dir>] [--jobs=<n>]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      std::exit(2);
    }
  }
  return opt;
}

/// The evaluation configuration every figure uses: the Table 2 hierarchy
/// scaled 1/64 (same shape; see cache/cache_config.hpp) and the paper's
/// PCM energy parameters.
inline ExperimentConfig figure_config(const Options& opt) {
  ExperimentConfig cfg;
  cfg.collector.caches = scaled_hierarchy();
  cfg.collector.warmup_accesses = opt.quick ? 20'000 : 100'000;
  cfg.collector.measured_accesses = opt.quick ? 60'000 : 400'000;
  cfg.seed = 42;
  cfg.jobs = opt.jobs;
  return cfg;
}

inline void emit(const TextTable& table, const Options& opt,
                 const std::string& name) {
  table.print(std::cout);
  if (!opt.csv_dir.empty()) {
    const std::string path = opt.csv_dir + "/" + name + ".csv";
    table.write_csv_file(path);
    std::cout << "[csv] " << path << "\n";
  }
}

inline void banner(const std::string& title) {
  std::cout << "\n== " << title << " ==\n\n";
}

/// Minimal extraction of `"key": <number>` from a JSON file; the baseline
/// file is flat and committed, so a full parser would be dead weight.
inline double json_number(const std::string& path, const std::string& key) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"cannot open baseline file " + path};
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string quoted = "\"" + key + "\"";
  const auto at = text.find(quoted);
  if (at == std::string::npos) {
    throw std::runtime_error{"baseline file " + path + " has no key " +
                             quoted};
  }
  const auto colon = text.find(':', at);
  if (colon == std::string::npos) {
    throw std::runtime_error{"baseline file " + path + ": malformed " +
                             quoted};
  }
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace nvmenc::bench
