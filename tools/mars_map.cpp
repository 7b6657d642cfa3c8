// mars_map — command-line front end to the MARS mapping framework.
//
// Subcommands, flags, defaults and exit codes are documented in
// docs/CLI.md; `mars_map help` prints the same reference, generated from
// the flag table below (the only place a flag is declared).
#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mars/accel/profiler.h"
#include "mars/comap/engine.h"
#include "mars/core/evaluator.h"
#include "mars/core/serialize.h"
#include "mars/explore/engine.h"
#include "mars/graph/models/models.h"
#include "mars/graph/parser.h"
#include "mars/obs/metrics.h"
#include "mars/obs/trace.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/serve/cache.h"
#include "mars/serve/fleet.h"
#include "mars/serve/metrics.h"
#include "mars/serve/report.h"
#include "mars/serve/scheduler.h"
#include "mars/topology/presets.h"
#include "mars/util/strings.h"
#include "mars/util/table.h"

namespace {

using namespace mars;

// ----------------------------------------------------------------- flag table

/// Subcommand bits: a flag row lists the subcommands that accept it.
enum : unsigned {
  kModels = 1u << 0,
  kProfile = 1u << 1,
  kMap = 1u << 2,
  kBaseline = 1u << 3,
  kThroughput = 1u << 4,
  kServe = 1u << 5,
  kComap = 1u << 6,
  kExplore = 1u << 7,
  kWarm = 1u << 8,
};
constexpr unsigned kOneModel = kProfile | kMap | kBaseline | kThroughput;
constexpr unsigned kOnTopology =
    kMap | kBaseline | kThroughput | kServe | kComap | kWarm;
constexpr unsigned kSearching =
    kMap | kThroughput | kServe | kComap | kExplore | kWarm;

/// kList is a repeatable value flag; every other flag keeps its last value.
enum class Kind { kSwitch, kValue, kList };

struct Flag {
  const char* name;
  unsigned commands;
  Kind kind;
  const char* value;     // value name in the help text; "" for a switch
  const char* fallback;  // value when absent; "" for none
  const char* help;
};

constexpr Flag kFlags[] = {
    {"model", kOneModel, Kind::kValue, "NAME", "resnet34",
     "Zoo model (see `mars_map models`)"},
    {"model", kExplore, Kind::kValue, "NAME", "alexnet",
     "Zoo model priced on every hardware point"},
    {"model", kServe, Kind::kList, "NAME[:WEIGHT[:SLO_MS]]", "resnet34",
     "Co-resident model, its traffic weight and its own SLO"},
    {"model", kComap, Kind::kList, "NAME[:WEIGHT[:SLO_MS]]", "",
     "Tenant, its traffic weight and its own SLO (at least one)"},
    {"model", kWarm, Kind::kList, "NAME", "", "Model to warm"},
    {"models", kWarm, Kind::kList, "A,B,C", "",
     "Comma-separated models to warm"},
    {"model-file", kOneModel, Kind::kValue, "PATH", "",
     "Parse the model from a text file instead of the zoo"},
    {"topology", kOnTopology, Kind::kValue, "SPEC", "f1",
     "f1 | cloud:<n>:<gbps> | ring:<n>:<gbps>"},
    {"fixed", kOnTopology | kProfile, Kind::kSwitch, "", "",
     "Fixed-design system: H2H designs, no design search"},
    {"mapper", kSearching & ~kComap, Kind::kValue, "NAME", "ga",
     "Search engine: ga | anneal | random | baseline | portfolio | "
     "race:<m>[@seed]+<m>[@seed][+...][,MS]"},
    {"search-budget", kSearching, Kind::kValue, "MS", "0",
     "Wall-clock search budget in ms, 0 = none (explore: the outer search)"},
    {"search-evals", kSearching, Kind::kValue, "N", "0",
     "Evaluation budget of each mapping search, 0 = none"},
    {"threads", kSearching, Kind::kValue, "N", "1",
     "Worker threads (>= 1); results are identical at any value"},
    {"seed", kSearching, Kind::kValue, "N", "1",
     "RNG seed, an unsigned 64-bit integer"},
    {"quick", kMap | kThroughput | kComap | kExplore, Kind::kSwitch, "", "",
     "Smoke-sized search schedule (comap: the outer GA)"},
    {"full", kServe | kComap | kWarm, Kind::kSwitch, "", "",
     "Offline per-model search schedule instead of the quick one"},
    {"batch", kThroughput, Kind::kValue, "N", "8",
     "Images pipelined through the mapping (>= 1)"},
    {"rate", kServe, Kind::kValue, "RPS", "100",
     "Open-loop Poisson arrival rate (> 0)"},
    {"rate", kComap, Kind::kValue, "RPS", "150", "Rollout offered rate (> 0)"},
    {"duration", kServe, Kind::kValue, "S", "5",
     "Stream length in simulated seconds (> 0)"},
    {"replay", kServe, Kind::kValue, "CSV", "",
     "Replay an arrival_s,model CSV instead of Poisson arrivals"},
    {"clients", kServe, Kind::kValue, "N", "",
     "Closed loop with N clients (>= 1) instead of open loop"},
    {"think", kServe, Kind::kValue, "MS", "0",
     "Closed-loop think time (>= 0; > 0 with slo:/shed: admission)"},
    {"policy", kServe | kComap, Kind::kValue, "SPEC", "none",
     "Batching and admission: [none|size:N|timeout:MS[:N]][+slo:MS|+shed:N]"},
    {"slo", kServe, Kind::kValue, "MS", "100",
     "SLO of the goodput metrics (>= 0)"},
    {"slo", kComap, Kind::kValue, "MS", "100",
     "SLO of tenants without their own (> 0)"},
    {"shards", kServe, Kind::kValue, "N", "1",
     "Replica groups the fleet is split into (>= 1)"},
    {"shard-models", kServe, Kind::kValue, "SPEC", "",
     "Per-shard model sets, e.g. 'a+b/c'"},
    {"encoding", kComap, Kind::kValue, "E", "partition",
     "Composite genome: partition | interleave"},
    {"rollout", kComap, Kind::kValue, "MS", "1000",
     "Rollout duration in simulated ms (> 0)"},
    {"space", kExplore, Kind::kValue, "SPEC", "",
     "Design space, e.g. 'families=clique,ring;accs=2,4;bw=8;menus=full'"},
    {"objectives", kExplore, Kind::kValue, "LIST", "makespan,energy,cost",
     "Objectives to optimise"},
    {"population", kExplore, Kind::kValue, "N", "12",
     "Outer NSGA-II population"},
    {"generations", kExplore, Kind::kValue, "N", "6",
     "Outer NSGA-II generations"},
    {"points", kExplore, Kind::kValue, "N", "0",
     "Outer budget: hardware points priced, 0 = none"},
    {"front-size", kExplore, Kind::kValue, "N", "0",
     "Crowding-truncate the front to N points, 0 = all"},
    {"mapping-cache", kServe | kComap | kExplore | kWarm, Kind::kValue, "DIR",
     "", "Persistent mapping cache directory (required by warm)"},
    {"json", kMap | kServe | kComap | kExplore, Kind::kValue, "PATH", "",
     "Export the result as JSON"},
    {"csv", kExplore, Kind::kValue, "PATH", "", "Export the front as CSV"},
    {"trace", kSearching, Kind::kValue, "FILE.json", "",
     "Export a Chrome Trace Event timeline of the run"},
    {"metrics", kSearching, Kind::kValue, "FILE.json", "",
     "Export the metric registry"},
};

const Flag* find_flag(std::string_view name, unsigned command) {
  for (const Flag& flag : kFlags) {
    if (name == flag.name && (flag.commands & command) != 0) return &flag;
  }
  return nullptr;
}

/// Whole-string finite number, or nullopt.
std::optional<double> to_number(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// Whole-string integer in int range (range-checked before the cast).
std::optional<int> to_int(std::string_view text) {
  const std::optional<double> value = to_number(text);
  if (!value || *value != std::trunc(*value) || *value < INT_MIN ||
      *value > INT_MAX) {
    return std::nullopt;
  }
  return static_cast<int>(*value);
}

/// Lower bound of a number flag.
enum class Min { kZero, kAboveZero };

/// One subcommand's command line. Getters take their defaults from the
/// flag table and must name a flag the subcommand accepts; reading any
/// other flag is a bug in this file (std::logic_error, exit 2).
class Args {
 public:
  /// Throws InvalidArgument on a flag the subcommand does not accept, a
  /// positional argument, or a value flag without its value.
  Args(const std::string& command_name, unsigned command, int argc,
       char** argv)
      : command_(command) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!starts_with(arg, "--")) {
        throw InvalidArgument(command_name +
                              " takes no positional argument, got '" + arg +
                              "' (flags start with --)");
      }
      const Flag* flag = find_flag(std::string_view(arg).substr(2), command);
      if (flag == nullptr) {
        throw InvalidArgument(command_name + " does not take " + arg +
                              " (see `mars_map help`)");
      }
      std::string value;
      if (flag->kind != Kind::kSwitch) {
        if (i + 1 == argc || starts_with(argv[i + 1], "--")) {
          throw InvalidArgument(command_name + ": " + arg + " needs a value (" +
                                flag->value + ")");
        }
        value = argv[++i];
      }
      given_.emplace_back(flag, std::move(value));
    }
  }

  /// Whether the flag was given at all.
  [[nodiscard]] bool has(std::string_view name) const {
    const Flag* flag = &row(name);
    return std::any_of(given_.begin(), given_.end(),
                       [&](const auto& given) { return given.first == flag; });
  }

  /// Every value given for the flag in order, or its default when absent.
  [[nodiscard]] std::vector<std::string> list(std::string_view name) const {
    const Flag& flag = row(name);
    std::vector<std::string> values;
    for (const auto& [given, value] : given_) {
      if (given == &flag) values.push_back(value);
    }
    if (values.empty() && *flag.fallback != '\0') {
      values.emplace_back(flag.fallback);
    }
    return values;
  }

  /// The last value given for the flag, or its default.
  [[nodiscard]] std::string text(std::string_view name) const {
    const std::vector<std::string> values = list(name);
    return values.empty() ? std::string() : values.back();
  }

  [[nodiscard]] double number(std::string_view name, Min min) const {
    const std::string value = text(name);
    const std::optional<double> parsed = to_number(value);
    if (!parsed || *parsed < 0.0 ||
        (min == Min::kAboveZero && *parsed == 0.0)) {
      throw InvalidArgument("--" + std::string(name) + " must be a number " +
                            (min == Min::kZero ? ">= 0" : "> 0") + ", got '" +
                            value + "'");
    }
    return *parsed;
  }

  [[nodiscard]] int integer(std::string_view name, int min = INT_MIN) const {
    const std::string value = text(name);
    const std::optional<int> parsed = to_int(value);
    if (!parsed || *parsed < min) {
      throw InvalidArgument(
          "--" + std::string(name) + " must be an integer" +
          (min == INT_MIN ? "" : " >= " + std::to_string(min)) + ", got '" +
          value + "'");
    }
    return *parsed;
  }

  [[nodiscard]] std::uint64_t seed() const {
    const std::string value = text("seed");
    std::uint64_t seed = 0;
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data(), end, seed);
    if (value.empty() || error != std::errc() || stop != end) {
      throw InvalidArgument(
          "--seed must be an unsigned 64-bit integer, got '" + value + "'");
    }
    return seed;
  }

 private:
  [[nodiscard]] const Flag& row(std::string_view name) const {
    const Flag* flag = find_flag(name, command_);
    if (flag == nullptr) {
      throw std::logic_error("--" + std::string(name) +
                             " is not in this subcommand's flag table rows");
    }
    return *flag;
  }

  unsigned command_;
  std::vector<std::pair<const Flag*, std::string>> given_;
};

// ------------------------------------------------------------ shared helpers

/// Per-command observability session: `--trace FILE.json` installs a
/// TraceRecorder, and a MetricsRegistry is always installed so component
/// destructors have somewhere to flush their counters. Declare this FIRST
/// in a command so every component destructs — and flushes — before this
/// destructor uninstalls and exports. Everything the session prints goes
/// to stderr: stdout stays byte-identical with and without --trace.
struct ObsSession {
  std::optional<obs::TraceRecorder> recorder;
  obs::MetricsRegistry registry;
  std::string trace_path;
  std::string metrics_path;

  explicit ObsSession(const Args& args)
      : trace_path(args.text("trace")), metrics_path(args.text("metrics")) {
    if (!trace_path.empty()) {
      recorder.emplace();
      obs::install_trace(&*recorder);
    }
    obs::install_metrics(&registry);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    obs::install_metrics(nullptr);
    if (recorder) obs::install_trace(nullptr);
    if (!trace_path.empty()) {
      std::ofstream file(trace_path);
      recorder->write(file);
      std::clog << "wrote trace (" << recorder->event_count()
                << " events) to " << trace_path << '\n';
    }
    if (!metrics_path.empty()) {
      std::ofstream file(metrics_path);
      file << registry.to_json().dump() << '\n';
      std::clog << "wrote metrics to " << metrics_path << '\n';
    }
    // Counter snapshot as stderr provenance whenever observability was
    // asked for (quiet otherwise — normal runs keep a clean stderr).
    if (recorder || !metrics_path.empty()) {
      for (const auto& [name, value] : registry.counter_values()) {
        std::clog << "metric " << name << "=" << value << '\n';
      }
    }
  }
};

/// Builds the topology named by `--topology`. `size_override > 0` rebuilds
/// the same family at a different accelerator count — how `serve --shards`
/// derives one replica group from the fleet spec. Only the sizable
/// families (cloud, ring) can be resized; f1 is a fixed preset.
topology::Topology make_topology(const Args& args, int size_override = 0) {
  const std::string spec = args.text("topology");
  if (spec == "f1") {
    if (size_override > 0) {
      throw InvalidArgument(
          "--shards > 1 needs a sizable topology (cloud:<n>:<gbps> or "
          "ring:<n>:<gbps>); f1 is a fixed preset");
    }
    return topology::f1_16xlarge();
  }
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() != 3 || (parts[0] != "cloud" && parts[0] != "ring")) {
    throw InvalidArgument("unknown topology '" + spec +
                          "' (use f1 | cloud:<n>:<gbps> | ring:<n>:<gbps>)");
  }
  const std::optional<int> count = to_int(parts[1]);
  const std::optional<double> bandwidth = to_number(parts[2]);
  if (!count || !bandwidth) {
    throw InvalidArgument("bad --topology '" + spec +
                          "' (<n> must be an integer, <gbps> a number)");
  }
  const int n = size_override > 0 ? size_override : *count;
  if (parts[0] == "cloud") {
    return topology::h2h_cloud(n, gbps(*bandwidth), args.has("fixed") ? 4 : 0);
  }
  return topology::ring(n, gbps(*bandwidth), gbps(2.0));
}

accel::DesignRegistry make_designs(const Args& args) {
  return args.has("fixed") ? accel::h2h_designs() : accel::table2_designs();
}

graph::Graph load_model(const Args& args) {
  if (args.has("model-file")) {
    return graph::parse_model_file(args.text("model-file"));
  }
  return graph::models::by_name(args.text("model"));
}

/// Search tuning from `--seed` and `--threads`. `quick` selects the
/// smoke-sized two-level schedule: `--quick` in map, throughput and
/// explore; the default in serve, comap and warm, where `--full` restores
/// the offline schedule.
core::MarsConfig make_config(const Args& args, bool quick) {
  core::MarsConfig config;
  config.seed = args.seed();
  config.threads = args.integer("threads", 1);
  if (quick) {
    config.first_ga.population = 12;
    config.first_ga.generations = 8;
    config.second.ga.population = 8;
    config.second.ga.generations = 6;
  }
  return config;
}

/// `--search-budget MS` (wall clock) plus an evaluation-count budget read
/// from `count_flag`; 0 (the default) leaves that dimension unbounded.
plan::Budget make_budget(const Args& args,
                         std::string_view count_flag = "search-evals") {
  plan::Budget budget;
  budget.wall_clock = milliseconds(args.number("search-budget", Min::kZero));
  budget.max_evaluations = args.integer(count_flag, 0);
  return budget;
}

/// Writes `text` to the path given by `flag` and confirms it on stdout.
void write_export(const Args& args, std::string_view flag,
                  const std::string& text) {
  const std::string path = args.text(flag);
  std::ofstream(path) << text;
  std::cout << "wrote " << path << '\n';
}

/// The `--mapping-cache DIR` cache, or nullptr when the flag is absent.
std::unique_ptr<serve::MappingCache> open_cache(const Args& args) {
  if (!args.has("mapping-cache")) return nullptr;
  const std::string dir = args.text("mapping-cache");
  if (dir.empty()) {
    throw InvalidArgument("--mapping-cache needs a directory path");
  }
  return std::make_unique<serve::MappingCache>(dir);
}

// ---------------------------------------------------------------- subcommands

int cmd_models(const Args&) {
  Table table({"Model", "#Convs", "Mappable", "#Params", "MACs"});
  for (const std::string& name : graph::models::zoo_names()) {
    const graph::Graph model = graph::models::by_name(name);
    table.add_row({name, std::to_string(model.num_convs()),
                   std::to_string(model.num_spine_layers()),
                   si_count(model.total_params()), si_count(model.total_macs())});
  }
  std::cout << table;
  return 0;
}

int cmd_profile(const Args& args) {
  const graph::Graph model = load_model(args);
  const graph::ConvSpine spine = graph::ConvSpine::extract(model);
  const accel::DesignRegistry designs = make_designs(args);
  const accel::ProfileMatrix profile(designs, spine);

  Table table({"Layer", "Shape", "Best design", "Cycles", "Utilization"});
  for (int l = 0; l < spine.size(); ++l) {
    const accel::DesignId best = profile.best_design(l);
    table.add_row({spine.node(l).name, graph::to_string(spine.node(l).shape),
                   designs.design(best).name(),
                   si_count(profile.at(best, l).cycles, 1),
                   format_double(profile.at(best, l).utilization * 100.0, 1) +
                       "%"});
  }
  std::cout << table;
  return 0;
}

/// The system side (owned here) plus the model side (owned by the
/// Planner): the whole former graph/spine/Problem assembly chain.
struct LoadedProblem {
  topology::Topology topo;
  accel::DesignRegistry designs;
  plan::Planner planner;

  explicit LoadedProblem(const Args& args)
      : topo(make_topology(args)),
        designs(make_designs(args)),
        planner(load_model(args), topo, designs, !args.has("fixed")) {}
};

/// Runs the `--mapper` engine on the loaded problem under the budget flags.
plan::PlanResult search(const Args& args, const LoadedProblem& lp) {
  const std::unique_ptr<plan::SearchEngine> engine = plan::make_engine(
      args.text("mapper"), make_config(args, args.has("quick")));
  return lp.planner.plan(*engine, make_budget(args));
}

int cmd_map(const Args& args) {
  const ObsSession session(args);
  const LoadedProblem lp(args);
  const plan::PlanResult result = search(args, lp);
  const bool adaptive = lp.planner.problem().adaptive;

  std::cout << core::describe(result.mapping, lp.planner.spine(), lp.designs,
                              adaptive)
            << "simulated latency: " << result.summary.simulated.millis()
            << " ms (memory " << (result.summary.memory_ok ? "ok" : "VIOLATED")
            << ")\n"
            << "search: engine " << result.provenance.engine << ", "
            << result.provenance.evaluations << " evaluations in "
            << format_double(result.provenance.elapsed.count(), 3)
            << " s, stopped: " << plan::to_string(result.provenance.stopped)
            << '\n';
  if (!result.provenance.winner.empty()) {
    std::cout << "portfolio winner: " << result.provenance.winner << " (";
    for (std::size_t i = 0; i < result.provenance.members.size(); ++i) {
      const plan::Provenance& member = result.provenance.members[i];
      std::cout << (i > 0 ? ", " : "") << member.engine << " "
                << member.evaluations << " evals";
    }
    std::cout << ")\n";
  }

  if (args.has("json")) {
    JsonValue out = JsonValue::object();
    out.set("mapping", core::to_json(result.mapping, lp.planner.spine(),
                                     lp.designs, adaptive));
    out.set("summary", core::to_json(result.summary));
    out.set("provenance", plan::to_json(result.provenance));
    write_export(args, "json", out.dump() + '\n');
  }
  return 0;
}

int cmd_baseline(const Args& args) {
  const LoadedProblem lp(args);
  const plan::BaselineEngine engine;
  const plan::PlanResult result = lp.planner.plan(engine);
  std::cout << core::describe(result.mapping, lp.planner.spine(), lp.designs,
                              lp.planner.problem().adaptive)
            << "simulated latency: " << result.summary.simulated.millis()
            << " ms\n";
  return 0;
}

int cmd_throughput(const Args& args) {
  const ObsSession session(args);
  const LoadedProblem lp(args);
  const int batch = args.integer("batch", 1);
  const plan::PlanResult result = search(args, lp);
  const core::MappingEvaluator evaluator(lp.planner.problem());
  const auto throughput = evaluator.evaluate_throughput(result.mapping, batch);
  std::cout << "batch " << batch << ": " << throughput.makespan.millis()
            << " ms total, " << format_double(throughput.images_per_second, 1)
            << " images/s, pipeline speedup "
            << format_double(throughput.pipeline_speedup, 2) << "x\n";
  return 0;
}

/// The tenant mix from repeated `--model name[:weight[:sloMS]]` flags.
/// `slos` holds zero for models without their own objective (they fall
/// back to the shared `--slo`).
struct ModelMix {
  std::vector<std::string> names;
  std::vector<double> weights;
  std::vector<Seconds> slos;
};

/// Parses every `--model` occurrence; numeric fields are whole-string
/// parses with named errors.
ModelMix parse_model_mix(const Args& args) {
  ModelMix mix;
  for (const std::string& spec : args.list("model")) {
    const std::vector<std::string> parts = split(spec, ':');
    if (parts.empty() || parts[0].empty() || parts.size() > 3) {
      throw InvalidArgument("bad --model spec '" + spec +
                            "' (use name[:weight[:sloMS]])");
    }
    const std::optional<double> weight =
        parts.size() >= 2 ? to_number(parts[1]) : 1.0;
    if (!weight || *weight < 0.0) {
      throw InvalidArgument("bad --model weight in '" + spec +
                            "' (use name[:weight[:sloMS]])");
    }
    const std::optional<double> slo_ms =
        parts.size() == 3 ? to_number(parts[2]) : 0.0;
    if (!slo_ms || (parts.size() == 3 && *slo_ms <= 0.0)) {
      throw InvalidArgument("bad --model SLO in '" + spec +
                            "' (use name[:weight[:sloMS]], SLO in ms > 0)");
    }
    mix.names.push_back(parts[0]);
    mix.weights.push_back(*weight);
    mix.slos.push_back(milliseconds(*slo_ms));
  }
  return mix;
}

/// Parses `--shard-models 'a+b/c'`: one '/'-separated entry per shard,
/// each a '+'-separated list of model names resolved against the
/// `--model` mix. Structural validation (entry count, coverage) is
/// FleetOptions' job; this only translates names to fleet indices.
std::vector<std::vector<int>> parse_shard_models(
    const std::string& spec, const std::vector<std::string>& names) {
  std::vector<std::vector<int>> shard_models;
  for (const std::string& shard : split(spec, '/')) {
    std::vector<int> models;
    for (const std::string& name : split(shard, '+')) {
      const auto it = std::find(names.begin(), names.end(), name);
      if (name.empty() || it == names.end()) {
        throw InvalidArgument("--shard-models references '" + name +
                              "', which is not a --model of this fleet");
      }
      models.push_back(static_cast<int>(it - names.begin()));
    }
    shard_models.push_back(std::move(models));
  }
  return shard_models;
}

int cmd_serve(const Args& args) {
  const ObsSession session(args);
  const ModelMix mix = parse_model_mix(args);
  const std::vector<std::string>& names = mix.names;

  // --shards N splits the fleet into N identical replica groups. Services
  // are planned once on the group topology (replica groups are copies);
  // the fleet spec from --topology only sets the accelerator budget being
  // divided. Partition notes go to stderr so sharded stdout stays clean.
  const int shards_requested = args.integer("shards", 1);
  topology::Topology topo = make_topology(args);
  serve::FleetPartition partition;
  partition.group_accelerators = topo.size();
  if (shards_requested > 1) {
    partition = serve::partition_fleet(topo.size(), shards_requested);
    topo = make_topology(args, partition.group_accelerators);
    if (partition.clamped) {
      std::clog << "--shards " << shards_requested << " clamped to "
                << partition.shards
                << " (one accelerator per replica group)\n";
    }
    if (partition.unused_accelerators > 0) {
      std::clog << "sharding leaves " << partition.unused_accelerators
                << " accelerator(s) outside the " << partition.shards
                << " replica groups\n";
    }
  }
  const accel::DesignRegistry designs = make_designs(args);

  // Serving plans one mapping per model up front with the quick search
  // schedule (--full restores the offline one, --mapper baseline skips the
  // search entirely). "mars" stays accepted as an alias of "ga".
  const core::MarsConfig config = make_config(args, !args.has("full"));
  const std::unique_ptr<plan::SearchEngine> engine =
      plan::make_engine(args.text("mapper"), config);
  const plan::Budget search_budget = make_budget(args);

  // Parse every workload flag before the (expensive) per-model planning
  // so usage errors fail fast.
  const serve::PolicySpec policy =
      serve::PolicySpec::parse(args.text("policy"));
  serve::SchedulerOptions options;
  options.policy = policy.batch;
  options.admission = policy.admission;
  // Per-model SLOs (from --model name:weight:sloMS) tighten or relax slo:
  // admission per tenant; models without one keep the policy's shared slo.
  options.admission.per_model_slo = mix.slos;
  const Seconds duration = Seconds(args.number("duration", Min::kAboveZero));
  const Seconds slo = milliseconds(args.number("slo", Min::kZero));
  const double rate = args.number("rate", Min::kAboveZero);
  const Seconds think = milliseconds(args.number("think", Min::kZero));
  const bool closed_loop = args.has("clients");
  const int clients = closed_loop ? args.integer("clients", 1) : 0;
  if (closed_loop &&
      policy.admission.kind != serve::AdmissionPolicy::Kind::kNone &&
      think.count() <= 0.0) {
    throw InvalidArgument("--policy " + policy.admission.to_string() +
                          " with --clients needs --think > 0 ms (a rejected "
                          "client would retry at the same instant forever)");
  }

  // Optional persistent mapping cache: repeat startups on the same
  // (topology, designs, config) load the searched mappings instead of
  // re-running the GA. Provenance goes to stderr so the serving report on
  // stdout stays byte-identical between cold and warm runs.
  const std::unique_ptr<serve::MappingCache> cache = open_cache(args);

  const auto plan_start = std::chrono::steady_clock::now();
  const std::vector<std::unique_ptr<serve::ModelService>> services =
      serve::plan_services(names, topo, designs, !args.has("fixed"), *engine,
                           cache.get(), search_budget);
  const double plan_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    plan_start)
          .count();
  if (cache) {
    int hits = 0;
    for (const std::unique_ptr<serve::ModelService>& service : services) {
      const bool hit = service->mapping_source() ==
                       serve::ModelService::MappingSource::kCacheHit;
      hits += hit ? 1 : 0;
      std::clog << "mapping cache " << (hit ? "hit" : "miss") << ": "
                << service->name() << '\n';
    }
    std::clog << "planned " << services.size() << " service(s) in "
              << format_double(plan_seconds, 3) << " s (" << hits << "/"
              << services.size() << " from cache at " << cache->dir()
              << ")\n";
    std::clog << "mapping cache counters: hits=" << cache->hits()
              << " misses=" << cache->misses()
              << " corrupt=" << cache->corrupt()
              << " stores=" << cache->stores() << '\n';
  }
  std::cout << "Fleet on " << topo.name() << " (" << topo.size()
            << " accelerators, mapper " << engine->name() << "):\n";
  if (partition.shards > 1) {
    std::cout << "Sharding: " << partition.shards << " replica groups x "
              << partition.group_accelerators << " accelerators\n";
  }
  std::cout << serve::describe_fleet(services) << '\n';

  std::vector<const serve::ModelService*> refs;
  refs.reserve(services.size());
  for (const std::unique_ptr<serve::ModelService>& service : services) {
    refs.push_back(service.get());
  }
  serve::FleetOptions fleet_options;
  fleet_options.shards = partition.shards;
  fleet_options.threads = config.threads;
  fleet_options.scheduler = options;
  if (args.has("shard-models")) {
    fleet_options.shard_models =
        parse_shard_models(args.text("shard-models"), names);
  }
  const serve::FleetScheduler scheduler(topo, refs, fleet_options);

  serve::ServeResult result;
  if (args.has("replay")) {
    result =
        scheduler.run(serve::replay_trace_file(args.text("replay"), names));
  } else if (closed_loop) {
    const serve::ClosedLoopSpec spec =
        serve::make_closed_loop(mix.weights, clients, think);
    result = scheduler.run_closed_loop(spec, duration);
  } else {
    result = scheduler.run(
        serve::poisson_arrivals(mix.weights, rate, duration, config.seed));
  }
  const serve::ServeMetrics metrics =
      serve::summarize(result, names, slo, mix.slos);
  std::cout << "Workload: policy " << policy.to_string() << ", "
            << result.batches_dispatched << " batches dispatched\n\n"
            << serve::describe(metrics);

  if (args.has("json")) {
    std::cout << '\n';
    write_export(args, "json", serve::to_json(metrics).dump() + '\n');
  }
  return 0;
}

int cmd_comap(const Args& args) {
  const ObsSession session(args);
  const ModelMix mix = parse_model_mix(args);
  if (mix.names.empty()) {
    throw InvalidArgument(
        "comap needs at least one --model name[:weight[:sloMS]]");
  }

  const topology::Topology topo = make_topology(args);
  const accel::DesignRegistry designs = make_designs(args);

  comap::CoMapProblem problem;
  problem.topo = &topo;
  problem.designs = &designs;
  problem.adaptive = !args.has("fixed");
  for (std::size_t t = 0; t < mix.names.size(); ++t) {
    problem.tenants.push_back(
        comap::Tenant{mix.names[t], mix.weights[t], mix.slos[t]});
  }
  const double rate = args.number("rate", Min::kAboveZero);
  const double rollout_ms = args.number("rollout", Min::kAboveZero);
  const double slo_ms = args.number("slo", Min::kAboveZero);

  comap::CoMapConfig config;
  config.encoding = comap::parse_encoding(args.text("encoding"));
  // Rollouts dominate: the inner per-tenant searches default to the quick
  // serving schedule (--full restores the offline default), and --quick
  // additionally shrinks the outer GA for smoke runs.
  config.inner = make_config(args, !args.has("full"));
  config.seed = config.inner.seed;
  config.threads = config.inner.threads;
  if (args.has("quick")) {
    config.ga.population = 8;
    config.ga.generations = 6;
    config.ga.stall_generations = 4;
  }
  problem.rollout.rate = rate;
  problem.rollout.duration = milliseconds(rollout_ms);
  problem.rollout.seed = config.seed;
  problem.rollout.policy = serve::PolicySpec::parse(args.text("policy"));
  problem.rollout.default_slo = milliseconds(slo_ms);

  const std::unique_ptr<serve::MappingCache> cache = open_cache(args);
  const comap::CoMapEngine engine(config);
  const comap::CoMapResult result =
      engine.search(problem, make_budget(args), cache.get());
  // Wall-clock provenance goes to stderr: stdout is a pure function of
  // the (deterministic) result, byte-identical at any --threads.
  std::clog << "comap search took "
            << format_double(result.provenance.elapsed.count(), 3) << " s\n";

  std::cout << "Co-mapping " << problem.tenants.size() << " tenant(s) on "
            << topo.name() << " (" << topo.size() << " accelerators, encoding "
            << comap::to_string(config.encoding) << "):\n";
  for (std::size_t t = 0; t < problem.tenants.size(); ++t) {
    const comap::TenantOutcome& tenant = result.tenants[t];
    std::cout << "  " << tenant.model << ": weight "
              << format_double(problem.tenants[t].weight, 2) << ", slo "
              << format_double(problem.slo_of(t).millis(), 1) << " ms, placement "
              << (tenant.placement == 0
                      ? "full fleet"
                      : topology::mask_to_string(tenant.placement));
    if (!tenant.provenance.engine.empty()) {
      std::cout << " (" << tenant.provenance.engine;
      if (tenant.provenance.evaluations > 0) {
        std::cout << ", " << tenant.provenance.evaluations << " evals";
      }
      std::cout << ")";
    }
    std::cout << '\n';
  }
  std::cout << '\n';
  for (std::size_t t = 0; t < problem.tenants.size(); ++t) {
    std::cout << "-- " << problem.tenants[t].model << " --\n"
              << core::describe(result.mappings[t],
                                graph::ConvSpine::extract(
                                    graph::models::by_name(mix.names[t])),
                                designs, problem.adaptive);
  }

  const Seconds duration = problem.rollout.duration;
  const auto report = [&](const char* label,
                          const comap::ServingObjective::Score& score) {
    std::cout << "  " << label << ": goodput "
              << format_double(score.goodput_rps(duration), 1) << " rps ("
              << score.good << "/" << score.offered << " within SLO, "
              << score.rejected << " shed), p99 "
              << format_double(score.p99.millis(), 3) << " ms\n";
  };
  std::cout << "\nRollout objective (rate " << format_double(rate, 1)
            << " rps, " << format_double(rollout_ms, 0) << " ms, seed "
            << problem.rollout.seed << ", policy "
            << problem.rollout.policy.to_string() << "):\n";
  report("joint      ", result.score);
  report("independent", result.independent_score);
  if (result.joint_won) {
    const double gain = result.score.goodput_rps(duration) -
                        result.independent_score.goodput_rps(duration);
    std::cout << "joint co-mapping beats independent planning by "
              << format_double(gain, 1) << " rps ("
              << result.provenance.winner << " encoding won)\n";
  } else {
    std::cout << "independent planning kept (the joint search found no "
                 "strictly better co-mapping)\n";
  }
  std::cout << "search: " << result.provenance.evaluations
            << " evaluations (" << result.rollout_misses << " rollouts, "
            << result.rollout_hits << " memo hits), "
            << result.provenance.iterations << " generations, stopped: "
            << plan::to_string(result.provenance.stopped) << '\n';

  if (args.has("json")) {
    JsonValue out = JsonValue::object();
    JsonValue tenants = JsonValue::array();
    for (std::size_t t = 0; t < problem.tenants.size(); ++t) {
      JsonValue tenant = JsonValue::object();
      tenant.set("model", JsonValue::string(mix.names[t]));
      tenant.set("weight", JsonValue::number(problem.tenants[t].weight));
      tenant.set("slo_ms", JsonValue::number(problem.slo_of(t).millis()));
      tenant.set("placement", JsonValue::string(topology::mask_to_string(
                                  result.tenants[t].placement)));
      tenant.set("provenance", plan::to_json(result.tenants[t].provenance));
      tenant.set("mapping",
                 core::to_json(result.mappings[t],
                               graph::ConvSpine::extract(
                                   graph::models::by_name(mix.names[t])),
                               designs, problem.adaptive));
      tenants.push(std::move(tenant));
    }
    out.set("tenants", std::move(tenants));
    const auto score_json = [](const comap::ServingObjective::Score& score) {
      JsonValue v = JsonValue::object();
      v.set("fitness", JsonValue::number(score.fitness));
      v.set("offered", JsonValue::integer(score.offered));
      v.set("good", JsonValue::integer(score.good));
      v.set("rejected", JsonValue::integer(score.rejected));
      v.set("p99_ms", JsonValue::number(score.p99.millis()));
      return v;
    };
    out.set("joint", score_json(result.score));
    out.set("independent", score_json(result.independent_score));
    out.set("joint_won", JsonValue::boolean(result.joint_won));
    out.set("provenance", plan::to_json(result.provenance));
    write_export(args, "json", out.dump() + '\n');
  }
  return 0;
}

int cmd_explore(const Args& args) {
  const ObsSession session(args);
  explore::ExploreConfig config;
  config.model = args.text("model");
  // Both parsers throw InvalidArgument naming the offending axis/value
  // (docs/EXPLORE.md grammar); an absent --space means the default grid.
  config.space = explore::DesignSpace::parse(args.text("space"));
  config.objectives = explore::parse_objectives(args.text("objectives"));
  config.mapper = args.text("mapper");
  config.tuning = make_config(args, args.has("quick"));
  config.search_evaluations = args.integer("search-evals", 0);
  config.population = args.integer("population");
  config.generations = args.integer("generations");
  config.seed = config.tuning.seed;
  config.threads = config.tuning.threads;
  config.front_size = args.integer("front-size", 0);

  // Outer budget: distinct hardware points priced and/or wall clock.
  const plan::Budget outer = make_budget(args, "points");
  const std::unique_ptr<serve::MappingCache> cache = open_cache(args);
  const explore::ExploreEngine engine(config);
  const explore::ExploreResult result = engine.search(cache.get(), outer);

  // The front, truncated to --front-size, in canonical order. Everything
  // below is a pure function of (model, space, objectives, engine spec):
  // run-specific provenance (elapsed, cache hits) goes to stderr.
  const std::vector<explore::FrontPoint> front =
      result.front.top(config.front_size);
  Table table({"Point", "Makespan(ms)", "Energy(mJ)", "Cost", "Sets"});
  for (const explore::FrontPoint& fp : front) {
    for (const explore::PointOutcome& out : result.outcomes) {
      if (out.point.spec() != fp.key) continue;
      table.add_row({fp.key, format_double(out.makespan_s * 1e3, 3),
                     format_double(out.energy_j * 1e3, 3),
                     format_double(out.cost, 3),
                     std::to_string(out.sets)});
      break;
    }
  }
  std::cout << table.render();
  std::cout << "front: " << front.size() << " points ("
            << result.front.size() << " non-dominated of "
            << result.provenance.evaluations << " priced, "
            << result.provenance.iterations << " generations)\n";

  // Never-lose report: where each fixed-fleet preset landed relative to
  // the front, on the selected objectives.
  for (const explore::PointOutcome& out : result.outcomes) {
    if (!out.point.preset) continue;
    const explore::FrontPoint fp = out.front_point(config.objectives);
    std::string verdict = "on front";
    for (const explore::FrontPoint& member : result.front.points()) {
      if (explore::dominates(member, fp)) {
        verdict = "dominated by " + member.key;
        break;
      }
    }
    std::cout << "preset " << fp.key << ": " << verdict << '\n';
  }

  std::clog << "search: " << result.provenance.evaluations
            << " points priced in "
            << format_double(result.provenance.elapsed.count(), 3)
            << " s, stopped: " << plan::to_string(result.provenance.stopped)
            << ", cache hits: " << result.cache_hits << '\n';

  if (args.has("csv")) {
    write_export(args, "csv", explore::front_csv(result, config));
  }
  if (args.has("json")) {
    write_export(args, "json", explore::front_json(result, config) + '\n');
  }
  return 0;
}

int cmd_warm(const Args& args) {
  const ObsSession session(args);
  // --models a,b,c and/or repeated --model NAME (bare names; the cache
  // key is per model, weights/SLOs play no part in planning).
  std::vector<std::string> names = args.list("model");
  for (const std::string& csv : args.list("models")) {
    for (const std::string& name : split(csv, ',')) {
      if (!name.empty()) names.push_back(name);
    }
  }
  if (names.empty()) {
    throw InvalidArgument("warm needs --models a,b,c (or repeated --model)");
  }
  if (!args.has("mapping-cache")) {
    throw InvalidArgument("warm needs --mapping-cache DIR (the cache to fill)");
  }

  const topology::Topology topo = make_topology(args);
  const accel::DesignRegistry designs = make_designs(args);
  const std::unique_ptr<plan::SearchEngine> engine = plan::make_engine(
      args.text("mapper"), make_config(args, !args.has("full")));
  const std::unique_ptr<serve::MappingCache> cache = open_cache(args);

  const std::vector<std::unique_ptr<serve::ModelService>> services =
      serve::plan_services(names, topo, designs, !args.has("fixed"), *engine,
                           cache.get(), make_budget(args));
  for (const std::unique_ptr<serve::ModelService>& service : services) {
    std::cout << "warm " << service->name() << ": "
              << serve::to_string(service->mapping_source()) << '\n';
  }
  std::cout << "cache " << cache->dir() << ": hits=" << cache->hits()
            << " misses=" << cache->misses() << " stores=" << cache->stores()
            << '\n';
  return 0;
}

// ---------------------------------------------------------------- dispatch

struct Subcommand {
  const char* name;
  unsigned bit;
  int (*run)(const Args&);
  const char* summary;
};

constexpr Subcommand kSubcommands[] = {
    {"models", kModels, cmd_models, "List the model zoo"},
    {"profile", kProfile, cmd_profile,
     "Per-layer best-design profile (Table II style)"},
    {"map", kMap, cmd_map, "Run a mapping search and print the mapping"},
    {"baseline", kBaseline, cmd_baseline,
     "The Herald-extended baseline mapping and its latency"},
    {"throughput", kThroughput, cmd_throughput,
     "Pipelined multi-image throughput of the searched mapping"},
    {"serve", kServe, cmd_serve, "Online multi-tenant serving simulation"},
    {"comap", kComap, cmd_comap,
     "Joint multi-tenant co-mapping under a serving-rollout fitness"},
    {"explore", kExplore, cmd_explore,
     "Hardware-mapping co-search: a Pareto front of platforms"},
    {"warm", kWarm, cmd_warm, "Pre-populate a mapping cache"},
};

/// The help text, generated from the subcommand and flag tables.
void print_help(std::ostream& os) {
  os << "usage: mars_map <command> [flags]\n\ncommands:\n";
  for (const Subcommand& sub : kSubcommands) {
    const std::string name = sub.name;
    os << "  " << name << std::string(12 - name.size(), ' ') << sub.summary
       << '\n';
  }
  os << "  help        Print this help (also --help, -h)\n"
     << "\nflags (a value flag takes the next argument; a flag the command "
        "does not take,\na positional argument or a value flag without its "
        "value is a usage error):\n";
  for (const Flag& flag : kFlags) {
    std::vector<std::string> commands;
    for (const Subcommand& sub : kSubcommands) {
      if ((flag.commands & sub.bit) != 0) commands.emplace_back(sub.name);
    }
    os << "  --" << flag.name << (*flag.value != '\0' ? " " : "") << flag.value
       << "  [" << join(commands, " ")
       << (flag.kind == Kind::kList ? "; repeatable" : "")
       << (*flag.fallback != '\0' ? std::string("; default ") + flag.fallback
                                  : std::string())
       << "]\n      " << flag.help << '\n';
  }
  os << "\nexit codes: 0 success, 1 usage error, 2 runtime failure\n"
        "reference: docs/CLI.md\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc >= 2 ? argv[1] : "";
  if (name == "help" || name == "--help" || name == "-h") {
    print_help(std::cout);
    return 0;
  }
  const Subcommand* sub = nullptr;
  for (const Subcommand& candidate : kSubcommands) {
    if (name == candidate.name) sub = &candidate;
  }
  if (sub == nullptr) {
    if (!name.empty()) std::cerr << "error: unknown command '" << name << "'\n";
    print_help(name.empty() ? std::cout : std::cerr);
    return 1;
  }
  try {
    return sub->run(Args(name, sub->bit, argc, argv));
  } catch (const InvalidArgument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
