// Shared plumbing for the experiment harnesses: budget presets and the one
// CLI parser (--quick for smoke runs, --csv to emit machine-readable
// results, --seed, plus each harness's own switches).
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mars/core/mars.h"
#include "mars/plan/engines.h"
#include "mars/util/csv.h"
#include "mars/util/strings.h"
#include "mars/util/table.h"

namespace mars::bench {

struct Options {
  bool quick = false;
  std::optional<std::string> csv_path;
  std::uint64_t seed = 1;
  /// The caller's own switches that were given, and the positional
  /// arguments (only when the caller takes them).
  std::vector<std::string> switches;
  std::vector<std::string> positional;
  std::string usage;

  [[nodiscard]] bool has(std::string_view name) const {
    return std::find(switches.begin(), switches.end(), name) !=
           switches.end();
  }
};

/// Prints `message` and the usage line to stderr and exits 1.
[[noreturn]] inline void usage_error(const Options& options,
                                     const std::string& message) {
  std::cerr << "error: " << message << '\n' << options.usage << '\n';
  std::exit(1);
}

/// Parses --quick, --seed N and --csv PATH plus the caller's own
/// `switches`. `positional` names the positional arguments the caller
/// takes (e.g. "section ..."); empty means none. Anything else is a usage
/// error that names the flag: an unknown flag, a value flag without its
/// value, or a seed that is not a whole unsigned 64-bit integer.
inline Options parse_options(
    int argc, char** argv,
    std::initializer_list<std::string_view> switches = {},
    std::string_view positional = {}) {
  Options options;
  options.usage = "usage: " +
                  std::filesystem::path(argv[0]).filename().string() +
                  " [--quick] [--seed N] [--csv PATH]";
  for (std::string_view name : switches) {
    options.usage += " [" + std::string(name) + "]";
  }
  if (!positional.empty()) {
    options.usage += " [" + std::string(positional) + "]";
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--seed" || arg == "--csv") &&
        (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--"))) {
      usage_error(options, arg + " needs a value");
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << options.usage << '\n';
      std::exit(0);
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--csv") {
      options.csv_path = argv[++i];
    } else if (arg == "--seed") {
      const std::string_view value = argv[++i];
      const char* end = value.data() + value.size();
      const auto [stop, error] =
          std::from_chars(value.data(), end, options.seed);
      if (value.empty() || error != std::errc() || stop != end) {
        usage_error(options,
                    "--seed must be an unsigned 64-bit integer, got '" +
                        std::string(value) + "'");
      }
    } else if (std::find(switches.begin(), switches.end(), arg) !=
               switches.end()) {
      options.switches.push_back(arg);
    } else if (arg.starts_with("-") || positional.empty()) {
      usage_error(options, arg.starts_with("-")
                               ? "unknown flag '" + arg + "'"
                               : "unexpected argument '" + arg + "'");
    } else {
      options.positional.push_back(arg);
    }
  }
  return options;
}

/// Search budgets: default reproduces the paper-style sweep; --quick is a
/// smoke-test budget.
inline core::MarsConfig mars_config(const Options& options) {
  core::MarsConfig config;
  config.seed = options.seed;
  if (options.quick) {
    config.first_ga.population = 12;
    config.first_ga.generations = 8;
    config.first_ga.stall_generations = 4;
    config.second.ga.population = 8;
    config.second.ga.generations = 6;
  } else {
    config.first_ga.population = 24;
    config.first_ga.generations = 24;
    config.first_ga.stall_generations = 8;
    config.second.ga.population = 16;
    config.second.ga.generations = 14;
    config.second.ga.stall_generations = 6;
  }
  return config;
}

/// The default serving/search engine at the bench budget: the two-level
/// GA. Pass a different name ("anneal" | "random" | "baseline") to
/// compare engines under the same tuning.
inline std::unique_ptr<plan::SearchEngine> bench_engine(
    const Options& options, const std::string& name = "ga") {
  return plan::make_engine(name, mars_config(options));
}

/// Writes `rows` to --csv when given. A file that cannot be written is a
/// runtime failure: a named error on stderr, exit 2.
inline void maybe_write_csv(const Options& options,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  if (!options.csv_path) return;
  std::ofstream file(*options.csv_path);
  if (file) {
    CsvWriter csv(file, header);
    for (const auto& row : rows) csv.add_row(row);
    file.flush();
  }
  if (!file) {
    std::cerr << "error: cannot write CSV to '" << *options.csv_path << "'\n";
    std::exit(2);
  }
  std::cout << "wrote " << rows.size() << " rows to " << *options.csv_path
            << '\n';
}

}  // namespace mars::bench
