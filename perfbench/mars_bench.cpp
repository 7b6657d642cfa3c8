// mars_bench: the repository's end-to-end and per-layer benchmark.
//
// One program, three workloads, every layer timed from outside through the
// library's public calls (see perfbench/README.md for why each workload
// exists and which end-to-end metric each layer metric should move):
//
//   map-paper       cold MARS searches on the paper's 15 evaluation rows
//   serve-overload  facebagnet + resnet50, Poisson 200 rps, no admission;
//                   its traced runs also probe joint co-mapping (comap)
//   serve-fleet     the same pair on cloud:16:4 as 4 replica groups, slo:60
//
// Usage: mars_bench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] | --manifest
//
// A run sets the workload up several times (setup_s is the median), runs
// timed passes until S host seconds have gone by, checks every output,
// re-runs the first pass at one thread as a determinism gate, and prints a
// human-readable report followed, as its last line, by one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the per-layer set, taken
// from spans this file records around each library call (passes alternate
// untraced/traced so the tracing overhead is measured), from counters of
// an installed obs::MetricsRegistry, and from layer-isolation probes.
// The exit code is 0 whenever the run completed, failed operations
// included; it is 1 on a usage error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "mars/accel/registry.h"
#include "mars/comap/engine.h"
#include "mars/comap/objective.h"
#include "mars/core/baseline.h"
#include "mars/core/evaluator.h"
#include "mars/core/h2h.h"
#include "mars/core/serialize.h"
#include "mars/core/skeleton_space.h"
#include "mars/obs/metrics.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/serve/cache.h"
#include "mars/serve/fleet.h"
#include "mars/serve/metrics.h"
#include "mars/serve/scheduler.h"
#include "mars/serve/service.h"
#include "mars/serve/workload.h"
#include "mars/topology/presets.h"
#include "mars/util/rng.h"

namespace {

using namespace mars;
using Clock = std::chrono::steady_clock;

/// Worker threads for every parallel layer (search, fleet shards, comap).
constexpr int kThreads = 2;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// SLO every serving goodput is judged against (the CLI default).
const Seconds kSlo = milliseconds(100.0);
/// Search seed of the serving and co-mapping workloads (the CLI default):
/// their workload seed draws the request streams, which are their inputs.
constexpr std::uint64_t kSearchSeed = 1;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ statistics

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles; the quartiles follow Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method).
Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  q.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  const auto cut = [&](long long i) {
    const long long m = static_cast<long long>(n) + 1;
    long long j = i * m / 4;
    j = std::clamp<long long>(j, 1, static_cast<long long>(n) - 1);
    const long long delta = i * m - j * 4;
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return values.empty() ? 0.0 : std::exp(log_sum / values.size());
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of the `index`-th input drawn from workload seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix(splitmix(seed) ^ (index + 1));
}

/// Order-sensitive FNV-1a digest of a run's outputs.
class Digest {
 public:
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void f64(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    u64(bits);
  }
  void str(const std::string& text) {
    for (unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 1099511628211ull;
    }
    u64(text.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// --------------------------------------------------------------- tracing

enum class Phase : std::uint8_t { kSetup, kPass, kProbe };

/// In-memory spans recorded around library calls. Each span has a name,
/// start, end, parent span and the id of the operation it belongs to;
/// nothing is recorded while the tracer is off.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_phase(Phase phase) { phase_ = phase; }
  /// Starts a new operation: later spans carry its id.
  void next_operation() { ++operation_; }

  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(),
                          operation_, phase_, Clock::now(), {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    spans_[index].end = Clock::now();
    stack_.pop_back();
  }

  /// Self time per span name (duration minus its children's), divided by
  /// how many instances of the span's phase ran (`per_phase`), so a
  /// setup span reads per set-up and a pass span per traced pass.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      const std::map<Phase, int>& per_phase) const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d =
          std::chrono::duration<double>(spans_[i].end - spans_[i].start).count();
      self[i] += d;
      if (spans_[i].parent >= 0) self[spans_[i].parent] -= d;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto it = per_phase.find(spans_[i].phase);
      const int count = it == per_phase.end() ? 1 : std::max(it->second, 1);
      out[spans_[i].name] += self[i] / count;
    }
    return out;
  }

  void write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const {
    std::ofstream out(path);
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    static const char* const kPhases[] = {"setup", "pass", "probe"};
    out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
        << ",\"spans\":[";
    out << std::setprecision(12);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"op\":" << s.operation
          << ",\"phase\":\"" << kPhases[static_cast<int>(s.phase)]
          << "\",\"start_us\":" << us(s.start) << ",\"end_us\":" << us(s.end)
          << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    long long operation;
    Phase phase;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_ = false;
  Phase phase_ = Phase::kSetup;
  long long operation_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// ---------------------------------------------------------------- report

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  double bound;  // end-to-end only
};

/// End-to-end metrics: measured with tracing off, reported by every
/// workload. `bound` is the share of the parent's median a metric may
/// worsen by before a change counts as a regression.
const std::vector<MetricDef> kEndToEnd = {
    // Median of the run's set-ups.
    {"setup_s", "s", "lower", 0.25},
    {"peak_rss_mb", "MB", "lower", 0.15},
    // Median over passes of mappings (map-paper) or offered requests
    // (serve-*) per host second.
    {"work_per_s", "1/s", "higher", 0.25},
};

/// Per-layer metrics, reported by every traced run and defined in
/// perfbench/README.md. A layer the workload does not run reads 0.
const std::vector<MetricDef> kPerLayer = {
    {"graph.build_s", "s", "lower", 0},
    {"accel.profile_s", "s", "lower", 0},
    {"core.baseline_s", "s", "lower", 0},
    {"plan.search_s", "s", "lower", 0},
    {"plan.evaluations", "count", "lower", 0},
    {"plan.evals_per_s", "1/s", "higher", 0},
    {"core.memo.hits", "count", "higher", 0},
    {"core.memo.misses", "count", "lower", 0},
    {"core.memo.hit_ratio", "ratio", "higher", 0},
    {"core.delta.bails", "count", "lower", 0},
    {"core.delta.unchanged", "count", "higher", 0},
    {"core.decode_s", "s", "lower", 0},
    {"core.oracle_s", "s", "lower", 0},
    {"core.oracle_calls", "count", "lower", 0},
    {"core.oracle_per_s", "1/s", "higher", 0},
    {"sim.replay_s", "s", "lower", 0},
    {"serve.plan_s", "s", "lower", 0},
    {"serve.cache.store_s", "s", "lower", 0},
    {"serve.cache.load_s", "s", "lower", 0},
    {"serve.arrivals_s", "s", "lower", 0},
    {"serve.run_s", "s", "lower", 0},
    {"serve.us_per_task", "us", "lower", 0},
    {"serve.summarize_s", "s", "lower", 0},
    {"serve.tasks_executed", "count", "lower", 0},
    {"serve.batches_dispatched", "count", "lower", 0},
    {"serve.shed", "count", "lower", 0},
    {"serve.growth_ratio", "ratio", "lower", 0},
    {"comap.search_s", "s", "lower", 0},
    {"comap.evaluations", "count", "lower", 0},
    {"comap.rollout.hits", "count", "higher", 0},
    {"comap.rollout.misses", "count", "lower", 0},
    {"comap.rollout_hit_ratio", "ratio", "higher", 0},
    {"comap.proto.hits", "count", "higher", 0},
    {"comap.proto.misses", "count", "lower", 0},
    {"comap.rollout_s", "s", "lower", 0},
    {"trace.overhead_pct", "%", "lower", 0},
};

struct Workload {
  const char* name;
  const char* why;
};

const std::vector<Workload> kWorkloads = {
    {"map-paper",
     "cold MARS searches on the paper's 15 rows: the search layers are ~99% "
     "of the time"},
    {"serve-overload",
     "open-loop 200 rps at 2x capacity, no admission: queues grow in the "
     "scheduler's event loop"},
    {"serve-fleet",
     "4 replica groups with slo:60 admission: routing, admission and shard "
     "merge with shallow queues"},
};

/// What one run produced: operation accounting, metric values, and the
/// human-readable lines printed before the JSON result.
class Report {
 public:
  void fail(const std::string& what) {
    ++failed_;
    std::cerr << "FAILED: " << what << '\n';
  }
  /// Runs one operation, counting it attempted and, when it throws,
  /// failed.
  void operation(const std::string& what, const std::function<void()>& body) {
    ++attempted_;
    try {
      body();
    } catch (const std::exception& e) {
      fail(what + ": " + e.what());
    }
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  void set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  /// A host timing printed with its quartiles and sample count.
  void timing(const std::string& label, const std::string& unit,
              const std::vector<double>& samples) {
    const Quartiles q = quartiles(samples);
    std::ostringstream line;
    line << std::setprecision(6) << "  " << std::left << std::setw(26) << label
         << " " << q.median << " " << unit << "  [q1 " << q.q1 << ", q3 "
         << q.q3 << ", n=" << q.n << "]";
    lines_.push_back(line.str());
  }
  void note(const std::string& label, double value, const std::string& unit) {
    std::ostringstream line;
    line << std::setprecision(8) << "  " << std::left << std::setw(26) << label
         << " " << value << " " << unit;
    lines_.push_back(line.str());
  }
  void text(const std::string& line) { lines_.push_back(line); }
  /// The gate's output digest: a change that claims only speed must leave
  /// it unchanged for every seed.
  void gate_digest(std::uint64_t digest) {
    std::ostringstream line;
    line << "  " << std::left << std::setw(26) << "gate output digest" << " "
         << std::hex << std::setw(16) << std::setfill('0') << std::right
         << digest;
    lines_.push_back(line.str());
  }

  void print(const std::string& workload, std::uint64_t seed, bool trace,
             std::ostream& out) const {
    out << "== mars_bench " << workload << " seed " << seed << " trace "
        << (trace ? 1 : 0) << " ==\n";
    for (const std::string& line : lines_) out << line << '\n';
    const std::vector<MetricDef>& defs = trace ? kPerLayer : kEndToEnd;
    out << (trace ? "per-layer metrics:\n" : "end-to-end metrics:\n");
    for (const MetricDef& def : defs) {
      out << "  " << std::left << std::setw(26) << def.name << " "
          << std::setprecision(8) << get(def.name) << " " << def.unit << '\n';
    }
    out << "operations: " << attempted_ << " attempted, " << failed_
        << " failed\n";
    out << std::setprecision(17) << "{\"correct\": "
        << (failed_ == 0 ? "true" : "false") << ", \"attempted\": "
        << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      double value = get(defs[i].name);
      if (!std::isfinite(value)) value = 0.0;
      out << (i ? ", " : "") << '"' << defs[i].name << "\": {\"value\": "
          << value << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
    out << "}}\n";
  }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::map<std::string, double> values_;
  std::vector<std::string> lines_;
};

// ------------------------------------------------------- run scaffolding

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// One timed pass: host seconds of its timed calls, work items done (the
/// unit of work_per_s) and a digest of everything it computed.
struct PassOutcome {
  double host_s = 0.0;
  double work = 0.0;
  std::uint64_t digest = 0;
};

/// Timed-pass bookkeeping shared by every workload.
struct PassLog {
  std::vector<double> untraced_s;  // host seconds per untraced pass
  std::vector<double> traced_s;
  std::vector<double> rate;  // work items per host second, untraced passes
};

/// Runs `pass(index)` until `seconds` of host time have gone by, cycling
/// through input indices [0, inputs). Untraced runs move to the next input
/// every pass. Traced runs alternate an untraced and a traced pass over the
/// same input, so the tracing overhead compares like with like. Every pass
/// of an input must produce the same digest, and input 0 the digest of the
/// determinism gate, which ran it first at one thread (and so also warmed
/// the caches up).
PassLog run_passes(const Options& options, Tracer& tracer, Report& report,
                   int inputs, std::uint64_t gate_digest,
                   const std::function<PassOutcome(int index)>& pass) {
  PassLog log;
  std::map<int, std::uint64_t> digests{{0, gate_digest}};
  tracer.set_phase(Phase::kPass);
  const Clock::time_point start = Clock::now();
  for (int k = 0;; ++k) {
    const bool traced = options.trace && k % 2 == 1;
    const int index = (options.trace ? k / 2 : k) % inputs;
    tracer.set_enabled(traced);
    const PassOutcome outcome = pass(index);
    tracer.set_enabled(false);
    const auto [it, fresh] = digests.emplace(index, outcome.digest);
    if (!fresh && it->second != outcome.digest) {
      report.fail("determinism: pass " + std::to_string(k) +
                  " differs from an earlier run of the same input");
    }
    if (traced) {
      log.traced_s.push_back(outcome.host_s);
    } else if (outcome.host_s > 0.0) {
      log.untraced_s.push_back(outcome.host_s);
      log.rate.push_back(outcome.work / outcome.host_s);
    }
    const bool enough = since(start) >= options.seconds;
    if (enough && (!options.trace || !log.traced_s.empty())) break;
  }
  return log;
}

/// Repeats `setup` kSetups times (each one cold) and records setup_s. The
/// set-up kept is the last one.
template <typename State, typename Make>
std::unique_ptr<State> timed_setup(Tracer& tracer, Report& report,
                                   bool trace, Make&& make) {
  std::vector<double> samples;
  std::unique_ptr<State> state;
  tracer.set_phase(Phase::kSetup);
  tracer.set_enabled(trace);
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    tracer.next_operation();
    const Clock::time_point start = Clock::now();
    state = make();
    samples.push_back(since(start));
  }
  tracer.set_enabled(false);
  report.set("setup_s", quartiles(samples).median);
  report.timing("setup_s", "s", samples);
  return state;
}

/// Installs `registry` as the process-wide metrics registry for its
/// lifetime; a null registry installs nothing. A traced run counts the
/// determinism gate and the probes, never the timed passes.
class Installed {
 public:
  explicit Installed(obs::MetricsRegistry* registry) : on_(registry != nullptr) {
    if (on_) obs::install_metrics(registry);
  }
  ~Installed() {
    if (on_) obs::install_metrics(nullptr);
  }
  Installed(const Installed&) = delete;
  Installed& operator=(const Installed&) = delete;

 private:
  bool on_;
};

void set_ratio(Report& report, const std::string& name, double num,
               double den) {
  report.set(name, den > 0.0 ? num / den : 0.0);
}

/// Layer metrics derived from the traced passes, span self times and the
/// counters of the counted work.
void finish_trace(const Options& options, Tracer& tracer, Report& report,
                  const PassLog& log, const obs::MetricsRegistry& counted) {
  const std::map<std::string, double> self =
      tracer.self_seconds({{Phase::kSetup, kSetups},
                           {Phase::kPass, static_cast<int>(log.traced_s.size())},
                           {Phase::kProbe, 1}});
  const auto span = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  for (const char* name :
       {"graph.build", "accel.profile", "core.baseline", "plan.search",
        "core.decode", "core.oracle", "sim.replay", "serve.plan",
        "serve.cache.store", "serve.cache.load", "serve.arrivals",
        "serve.run", "serve.summarize", "comap.search", "comap.rollout"}) {
    report.set(std::string(name) + "_s", span(name));
  }
  const long long hits = counted.counter_value("search.space.memo.hits");
  const long long misses = counted.counter_value("search.space.memo.misses");
  report.set("core.memo.hits", hits);
  report.set("core.memo.misses", misses);
  set_ratio(report, "core.memo.hit_ratio", hits, hits + misses);
  for (const char* name : {"delta.bails", "delta.unchanged"}) {
    report.set(std::string("core.") + name,
               counted.counter_value(std::string("search.space.") + name));
  }
  for (const char* name : {"comap.rollout.hits", "comap.rollout.misses",
                           "comap.proto.hits", "comap.proto.misses"}) {
    report.set(name, counted.counter_value(name));
  }
  set_ratio(report, "comap.rollout_hit_ratio",
            report.get("comap.rollout.hits"),
            report.get("comap.rollout.hits") +
                report.get("comap.rollout.misses"));
  set_ratio(report, "plan.evals_per_s", report.get("plan.evaluations"),
            report.get("plan.search_s"));
  set_ratio(report, "core.oracle_per_s", report.get("core.oracle_calls"),
            report.get("core.oracle_s"));

  const double untraced = quartiles(log.untraced_s).median;
  const double traced = quartiles(log.traced_s).median;
  report.set("trace.overhead_pct",
             untraced > 0.0 ? 100.0 * (traced / untraced - 1.0) : 0.0);
  report.timing("traced pass", "s", log.traced_s);
  tracer.write_json(options.trace_out, options.workload, options.seed);
  report.text("  spans written to " + options.trace_out);
}

void finish_untraced(Report& report, const PassLog& log, const char* label,
                     const char* unit) {
  report.set("work_per_s", quartiles(log.rate).median);
  report.timing(label, unit, log.rate);
  report.timing("pass host time", "s", log.untraced_s);
}

/// A seeded genome sample decoded through `planner`'s skeleton space and
/// priced set by set with the greedy oracle (the core layer in isolation).
void probe_core(const plan::Planner& planner, const core::MarsConfig& config,
                std::uint64_t seed, Tracer& tracer, Report& report) {
  constexpr int kGenomes = 64;
  const core::SkeletonSpace space(
      planner.problem(), {config.second, config.heuristic_candidates});
  Rng rng(seed);
  std::vector<ga::Genome> genomes(kGenomes);
  for (ga::Genome& genome : genomes) {
    genome.resize(space.codec().genome_size());
    for (double& gene : genome) gene = rng.uniform();
  }
  std::vector<core::Skeleton> skeletons;
  {
    const Scope scope(tracer, "core.decode");
    skeletons = space.decode_batch(genomes);
  }
  long long calls = 0;
  double checksum = 0.0;
  {
    const Scope scope(tracer, "core.oracle");
    for (const core::Skeleton& skeleton : skeletons) {
      for (const core::LayerAssignment& set : skeleton.sets) {
        checksum += space.second().greedy(set).cost.penalized.count();
        ++calls;
      }
    }
  }
  report.check(std::isfinite(checksum) && checksum > 0.0,
               "core probe: greedy oracle priced a sample at " +
                   std::to_string(checksum) + " s");
  report.set("core.oracle_calls", report.get("core.oracle_calls") + calls);
}

/// Event-driven replay of a found mapping (the sim layer in isolation);
/// its makespan must equal the evaluator's.
void probe_replay(const plan::Planner& planner, const core::Mapping& mapping,
                  Seconds expected, Tracer& tracer, Report& report) {
  const core::MappingEvaluator evaluator(planner.problem());
  core::MappingEvaluator::SimOutput out;
  {
    const Scope scope(tracer, "sim.replay");
    out = evaluator.simulate(mapping);
  }
  report.check(out.result.makespan == expected,
               "replay: simulate() makespan differs from evaluate()");
}

std::string mapping_text(const plan::Planner& planner,
                         const core::Mapping& mapping) {
  return core::to_json(mapping, planner.spine(), planner.designs(),
                       planner.problem().adaptive)
      .dump();
}

/// Herald-extended (adaptive) or H2H (fixed-design) baseline latency.
Seconds baseline_latency(const plan::Planner& planner) {
  const core::Problem& problem = planner.problem();
  if (problem.adaptive) {
    const core::Mapping mapping =
        core::baseline_mapping(problem, planner.profile());
    return core::MappingEvaluator(problem).evaluate(mapping).simulated;
  }
  return core::H2HMapper(problem).map().simulated;
}

/// The search config serving and co-mapping plan with (the CLI's quick
/// serving schedule).
core::MarsConfig quick_config(std::uint64_t seed, int threads) {
  core::MarsConfig config;
  config.seed = seed;
  config.threads = threads;
  config.first_ga.population = 12;
  config.first_ga.generations = 8;
  config.second.ga.population = 8;
  config.second.ga.generations = 6;
  return config;
}

/// The search layers (graph, accel, core, plan, sim) probed on one model:
/// a fresh Planner, its profile, its baseline, one search, a core sample
/// and a replay of the mapping found.
void probe_search_layers(const std::string& model,
                         const topology::Topology& topo,
                         const accel::DesignRegistry& designs, bool adaptive,
                         const core::MarsConfig& config, std::uint64_t seed,
                         Tracer& tracer, Report& report) {
  std::optional<plan::Planner> planner;
  {
    const Scope scope(tracer, "graph.build");
    planner.emplace(plan::Planner::for_model(model, topo, designs, adaptive));
  }
  {
    const Scope scope(tracer, "accel.profile");
    (void)planner->profile();
  }
  Seconds baseline{};
  {
    const Scope scope(tracer, "core.baseline");
    baseline = baseline_latency(*planner);
  }
  const plan::GaEngine engine(config);
  plan::PlanResult result;
  {
    const Scope scope(tracer, "plan.search");
    result = planner->plan(engine);
  }
  report.set("plan.evaluations",
             report.get("plan.evaluations") + result.provenance.evaluations);
  report.note("probe " + model + " searched/baseline",
              result.summary.simulated / baseline, "(simulated latency)");
  probe_core(*planner, config, seed, tracer, report);
  probe_replay(*planner, result.mapping, result.summary.simulated, tracer,
               report);
}

// ------------------------------------------------------------- map-paper

struct PaperRow {
  std::string model;
  bool table3;  // F1 with adaptive designs; else the fixed-design H2H cloud
  double gbps;  // H2H cloud link bandwidth
};

std::vector<PaperRow> paper_rows() {
  std::vector<PaperRow> rows;
  for (const char* model :
       {"alexnet", "vgg16", "resnet34", "resnet101", "wrn50_2"}) {
    rows.push_back({model, true, 0.0});
  }
  for (const char* model : {"casia_surf", "facebagnet"}) {
    for (double bw : {1.0, 1.2, 2.0, 4.0, 10.0}) {
      rows.push_back({model, false, bw});
    }
  }
  return rows;
}

struct PaperState {
  accel::DesignRegistry adaptive_designs = accel::table2_designs();
  accel::DesignRegistry fixed_designs = accel::h2h_designs();
  std::vector<std::unique_ptr<topology::Topology>> topologies;
  std::vector<PaperRow> rows;
  std::vector<plan::Planner> planners;
  std::vector<core::MappingEvaluator> evaluators;
  std::vector<Seconds> baselines;
};

std::unique_ptr<PaperState> paper_setup(Tracer& tracer) {
  auto state = std::make_unique<PaperState>();
  state->rows = paper_rows();
  for (const PaperRow& row : state->rows) {
    state->topologies.push_back(std::make_unique<topology::Topology>(
        row.table3 ? topology::f1_16xlarge()
                   : topology::h2h_cloud(8, gbps(row.gbps), 4)));
    const accel::DesignRegistry& designs =
        row.table3 ? state->adaptive_designs : state->fixed_designs;
    {
      const Scope scope(tracer, "graph.build");
      state->planners.push_back(plan::Planner::for_model(
          row.model, *state->topologies.back(), designs, row.table3));
    }
    const plan::Planner& planner = state->planners.back();
    {
      const Scope scope(tracer, "accel.profile");
      (void)planner.profile();
    }
    const Scope scope(tracer, "core.baseline");
    state->baselines.push_back(baseline_latency(planner));
    state->evaluators.emplace_back(planner.problem());
  }
  return state;
}

struct PaperPass {
  std::vector<plan::PlanResult> results;
  PassOutcome outcome;
};

/// One cold search per row, each checked: the evaluator reproduces the
/// reported latency bit for bit with memory_ok set, and MARS is never
/// slower than the row's baseline.
PaperPass paper_pass(const PaperState& state, int threads, Tracer& tracer,
                     Report& report) {
  core::MarsConfig config;
  config.seed = kSearchSeed;
  config.threads = threads;
  const plan::GaEngine engine(config);
  PaperPass pass;
  pass.results.resize(state.rows.size());
  Digest digest;
  for (std::size_t r = 0; r < state.rows.size(); ++r) {
    const PaperRow& row = state.rows[r];
    const std::string label =
        "map " + row.model +
        (row.table3 ? " on f1" : " on cloud " + std::to_string(row.gbps));
    tracer.next_operation();
    plan::PlanResult& result = pass.results[r];
    digest.u64(r);
    report.operation(label, [&] {
      const Clock::time_point start = Clock::now();
      {
        const Scope scope(tracer, "plan.search");
        result = state.planners[r].plan(engine);
      }
      pass.outcome.host_s += since(start);
      pass.outcome.work += 1.0;
      const core::EvaluationSummary again =
          state.evaluators[r].evaluate(result.mapping);
      report.check(again.simulated == result.summary.simulated &&
                       again.memory_ok && result.summary.memory_ok,
                   label + ": re-evaluation differs from the search's summary");
      report.check(result.summary.simulated <= state.baselines[r],
                   label + ": MARS slower than the baseline");
      digest.str(mapping_text(state.planners[r], result.mapping));
      digest.f64(result.summary.simulated.count());
    });
  }
  pass.outcome.digest = digest.value();
  return pass;
}

void run_map_paper(const Options& options, Tracer& tracer, Report& report) {
  const std::unique_ptr<PaperState> state = timed_setup<PaperState>(
      tracer, report, options.trace, [&] { return paper_setup(tracer); });

  // Determinism gate: the searches at one thread. Every timed pass
  // repeats them at two threads and must match it.
  obs::MetricsRegistry counted;
  PaperPass first;
  {
    const Installed on(options.trace ? &counted : nullptr);
    first = paper_pass(*state, 1, tracer, report);
  }
  long long evaluations = 0;
  for (const plan::PlanResult& result : first.results) {
    evaluations += result.provenance.evaluations;
  }
  report.set("plan.evaluations", evaluations);
  report.gate_digest(first.outcome.digest);
  const PassLog log =
      run_passes(options, tracer, report, 1, first.outcome.digest, [&](int) {
        return paper_pass(*state, kThreads, tracer, report).outcome;
      });

  std::vector<double> latencies_ms;
  double reduction[2] = {0.0, 0.0};
  int rows[2] = {0, 0};
  for (std::size_t r = 0; r < state->rows.size(); ++r) {
    const double mars = first.results[r].summary.simulated.count();
    if (mars <= 0.0) continue;
    latencies_ms.push_back(mars * 1e3);
    const int table = state->rows[r].table3 ? 0 : 1;
    reduction[table] += 1.0 - mars / state->baselines[r].count();
    ++rows[table];
  }
  const double all = (reduction[0] + reduction[1]) / (rows[0] + rows[1]);
  report.note("sim_latency_ms (geomean)", geomean(latencies_ms), "ms");
  report.note("latency_reduction_pct", 100.0 * all, "%");
  report.note("  Table III rows", 100.0 * reduction[0] / rows[0],
              "% (paper: 32.2%, shape only)");
  report.note("  Table IV rows", 100.0 * reduction[1] / rows[1],
              "% (paper: 59.4%, shape only)");

  if (!options.trace) {
    finish_untraced(report, log, "mappings_per_s", "1/s");
    return;
  }
  tracer.set_phase(Phase::kProbe);
  tracer.set_enabled(true);
  const Installed on(&counted);
  core::MarsConfig config;
  config.seed = kSearchSeed;
  for (std::size_t r = 0; r < state->rows.size(); ++r) {
    tracer.next_operation();
    probe_core(state->planners[r], config, derive_seed(options.seed, r),
               tracer, report);
    probe_replay(state->planners[r], first.results[r].mapping,
                 first.results[r].summary.simulated, tracer, report);
  }
  tracer.set_enabled(false);
  finish_trace(options, tracer, report, log, counted);
}

// ------------------------------------------------------------ comap probe

struct ComapState {
  topology::Topology topo = topology::h2h_cloud(8, gbps(4.0), 4);
  accel::DesignRegistry designs = accel::h2h_designs();
  comap::CoMapProblem problem;
  /// The baseline: every tenant searched alone on the full fleet.
  comap::CandidatePlan independent;
  long long evaluations = 0;  // of those searches
};

/// The bench_comap --smoke configuration: partition encoding, the quick
/// inner budget, the CLI's default seed.
comap::CoMapConfig comap_config() {
  comap::CoMapConfig config;
  config.encoding = comap::Encoding::kPartition;
  config.seed = kSearchSeed;
  config.threads = kThreads;
  config.inner = quick_config(kSearchSeed, kThreads);
  config.inner.first_ga.stall_generations = 4;
  config.ga.population = 8;
  config.ga.generations = 6;
  config.ga.stall_generations = 4;
  return config;
}

/// The bench_comap --smoke problem (facebagnet + resnet50 at 150 rps over
/// a 500 ms rollout, SLO 100 ms, fixed designs, the CLI's default rollout
/// stream) and its baseline, searched as the engine's inner search does.
std::unique_ptr<ComapState> comap_setup(Tracer& tracer) {
  auto state = std::make_unique<ComapState>();
  comap::CoMapProblem& problem = state->problem;
  for (const char* model : {"facebagnet", "resnet50"}) {
    problem.tenants.push_back(comap::Tenant{model, 1.0, Seconds{}});
  }
  problem.topo = &state->topo;
  problem.designs = &state->designs;
  problem.adaptive = false;
  problem.rollout.rate = 150.0;
  problem.rollout.duration = Seconds(0.5);
  problem.rollout.seed = kSearchSeed;
  problem.rollout.default_slo = kSlo;

  const plan::GaEngine inner(comap_config().inner);
  for (const comap::Tenant& tenant : problem.tenants) {
    std::optional<plan::Planner> planner;
    {
      const Scope scope(tracer, "graph.build");
      planner.emplace(plan::Planner::for_model(tenant.model, state->topo,
                                               state->designs, false));
    }
    const Scope scope(tracer, "plan.search");
    plan::PlanResult result = planner->plan(inner);
    state->evaluations += result.provenance.evaluations;
    state->independent.push_back(std::move(result.mapping));
  }
  return state;
}

/// The comap layer, probed in a traced run: the problem searched once at
/// two threads and checked (joint goodput >= independent), then a fresh
/// objective re-scoring the joint and the independent plans, which must
/// reproduce the search's scores. Its host time drifts with the shared
/// machine too much for an end-to-end bound, so it is a probe, not a
/// workload.
void probe_comap(Tracer& tracer, Report& report) {
  const std::unique_ptr<ComapState> state = comap_setup(tracer);
  report.set("plan.evaluations",
             report.get("plan.evaluations") + state->evaluations);
  const comap::CoMapProblem& problem = state->problem;
  tracer.next_operation();
  report.operation("comap search", [&] {
    const comap::CoMapEngine engine(comap_config());
    comap::CoMapResult result;
    {
      const Scope scope(tracer, "comap.search");
      result = engine.search(problem);
    }
    report.check(result.score.good >= result.independent_score.good,
                 "comap search: joint goodput below independent");
    report.set("comap.evaluations",
               static_cast<double>(result.provenance.evaluations));
    const Seconds duration = problem.rollout.duration;
    report.note("comap sim_goodput_rps", result.score.goodput_rps(duration),
                "rps (joint)");
    report.note("", result.independent_score.goodput_rps(duration),
                "rps (independent)");
    report.note("comap sim_p99_ms (joint)", result.score.p99.millis(), "ms");

    comap::ServingObjective objective(problem);
    comap::ServingObjective::Score joint;
    comap::ServingObjective::Score alone;
    {
      const Scope scope(tracer, "comap.rollout");
      joint = objective.score(result.mappings);
      alone = objective.score(state->independent);
    }
    report.check(joint.fitness == result.score.fitness,
                 "comap rollout: the joint plan scores differently re-scored");
    report.check(alone.fitness == result.independent_score.fitness,
                 "comap rollout: the independent plan scores differently");
  });
}

// ----------------------------------------------------------------- serve

struct ServeSpec {
  std::vector<std::string> models{"facebagnet", "resnet50"};
  bool fleet = false;        // FleetScheduler over replica groups
  std::string policy;        // PolicySpec text
  double rate = 0.0;         // offered requests per second
  Seconds duration{};        // simulated arrival window per pass
  bool comap_probe = false;  // traced runs also probe the comap layer
};

/// Distinct arrival streams drawn per set-up; passes cycle through them.
constexpr int kStreams = 16;

struct ServeState {
  std::unique_ptr<topology::Topology> topo;
  std::unique_ptr<accel::DesignRegistry> designs;
  bool adaptive = true;
  std::vector<std::unique_ptr<serve::ModelService>> services;
  std::optional<serve::OnlineScheduler> single;
  std::optional<serve::FleetScheduler> fleet;
  std::vector<std::vector<serve::Request>> streams;
};

serve::SchedulerOptions scheduler_options(const ServeSpec& spec) {
  const serve::PolicySpec policy = serve::PolicySpec::parse(spec.policy);
  serve::SchedulerOptions options;
  options.policy = policy.batch;
  options.admission = policy.admission;
  return options;
}

std::vector<const serve::ModelService*> service_refs(const ServeState& state) {
  std::vector<const serve::ModelService*> refs;
  for (const auto& service : state.services) refs.push_back(service.get());
  return refs;
}

serve::FleetScheduler make_fleet(const ServeSpec& spec,
                                 const ServeState& state, int threads) {
  serve::FleetOptions options;
  options.shards = 4;
  options.threads = threads;
  options.scheduler = scheduler_options(spec);
  return serve::FleetScheduler(*state.topo, service_refs(state), options);
}

/// A Poisson stream at `rate` conditioned on exactly `count` arrivals in
/// [0, window): the first count + 1 arrivals of serve::poisson_arrivals,
/// scaled so the (count + 1)-th lands at `window`. Every stream of a
/// workload then offers the same load over the same window, whatever its
/// seed.
std::vector<serve::Request> poisson_requests(const std::vector<double>& weights,
                                             double rate, std::size_t count,
                                             Seconds window,
                                             std::uint64_t seed) {
  for (Seconds span = window * 1.5;; span = span * 2.0) {
    std::vector<serve::Request> stream =
        serve::poisson_arrivals(weights, rate, span, seed);
    if (stream.size() > count) {
      const double scale = window.count() / stream[count].arrival.count();
      stream.resize(count);
      for (serve::Request& request : stream) {
        request.arrival = request.arrival * scale;
      }
      return stream;
    }
  }
}

std::size_t stream_size(const ServeSpec& spec, double scale = 1.0) {
  return static_cast<std::size_t>(
      std::llround(spec.rate * spec.duration.count() * scale));
}

std::unique_ptr<ServeState> serve_setup(const ServeSpec& spec,
                                        std::uint64_t seed, Tracer& tracer) {
  auto state = std::make_unique<ServeState>();
  if (spec.fleet) {
    // cloud:16:4 split into 4 identical replica groups of 4 accelerators.
    const serve::FleetPartition partition = serve::partition_fleet(16, 4);
    state->topo = std::make_unique<topology::Topology>(
        topology::h2h_cloud(partition.group_accelerators, gbps(4.0), 4));
    state->designs =
        std::make_unique<accel::DesignRegistry>(accel::h2h_designs());
    state->adaptive = false;
  } else {
    state->topo =
        std::make_unique<topology::Topology>(topology::f1_16xlarge());
    state->designs =
        std::make_unique<accel::DesignRegistry>(accel::table2_designs());
  }
  // Services are planned at the CLI's serving defaults (seed 1), so the
  // workload seed changes only the arrival streams.
  const plan::GaEngine engine(quick_config(kSearchSeed, kThreads));
  {
    const Scope scope(tracer, "serve.plan");
    state->services = serve::plan_services(
        spec.models, *state->topo, *state->designs, state->adaptive, engine);
  }
  if (spec.fleet) {
    state->fleet.emplace(make_fleet(spec, *state, kThreads));
  } else {
    state->single.emplace(*state->topo, service_refs(*state),
                          scheduler_options(spec));
  }
  const std::vector<double> weights(spec.models.size(), 1.0);
  const Scope scope(tracer, "serve.arrivals");
  for (int k = 0; k < kStreams; ++k) {
    state->streams.push_back(poisson_requests(weights, spec.rate,
                                              stream_size(spec), spec.duration,
                                              derive_seed(seed, k)));
  }
  return state;
}

/// Checks a replay against its arrivals and digests it: completed +
/// rejected = arrivals, every completion at or after its arrival, and
/// completions in non-decreasing order.
std::uint64_t check_serve(const std::vector<serve::Request>& arrivals,
                          const serve::ServeResult& result,
                          const std::string& label, Report& report) {
  report.check(result.completed.size() + result.rejected.size() ==
                   arrivals.size(),
               label + ": completed + rejected != arrivals");
  Digest digest;
  Seconds previous{};
  bool ordered = true;
  bool causal = true;
  for (const serve::CompletedRequest& done : result.completed) {
    causal = causal && done.completion >= done.request.arrival;
    ordered = ordered && done.completion >= previous;
    previous = done.completion;
    digest.u64(static_cast<std::uint64_t>(done.request.id));
    digest.u64(static_cast<std::uint64_t>(done.request.model));
    digest.f64(done.dispatch.count());
    digest.f64(done.completion.count());
  }
  for (const serve::Request& shed : result.rejected) {
    digest.u64(static_cast<std::uint64_t>(shed.id));
  }
  digest.u64(static_cast<std::uint64_t>(result.tasks_executed));
  report.check(causal, label + ": a request completed before it arrived");
  report.check(ordered, label + ": completions out of order");
  return digest.value();
}

serve::ServeResult serve_run(const ServeState& state,
                             const std::vector<serve::Request>& arrivals) {
  return state.fleet ? state.fleet->run(arrivals) : state.single->run(arrivals);
}

/// Store and load every service mapping through a fresh cache directory,
/// which is deleted afterwards. Loads must round-trip exactly.
void probe_cache(const ServeState& state, const std::string& dir,
                 Tracer& tracer, Report& report) {
  std::filesystem::remove_all(dir);
  {
    const serve::MappingCache cache(dir);
    const plan::GaEngine engine(quick_config(kSearchSeed, kThreads));
    const std::string spec = serve::search_spec(engine, plan::Budget{});
    for (const auto& service : state.services) {
      const serve::MappingCache::Key key{
          service->name(),
          serve::MappingCache::fingerprint(*state.topo, *state.designs,
                                           state.adaptive, spec)};
      const graph::ConvSpine& spine = *service->problem().spine;
      {
        const Scope scope(tracer, "serve.cache.store");
        cache.store(key, service->mapping(), spine, *state.designs,
                    state.adaptive);
      }
      std::optional<core::Mapping> loaded;
      {
        const Scope scope(tracer, "serve.cache.load");
        loaded = cache.load(key, spine, *state.topo, *state.designs,
                            state.adaptive);
      }
      const auto text = [&](const core::Mapping& m) {
        return core::to_json(m, spine, *state.designs, state.adaptive).dump();
      };
      report.check(loaded && text(*loaded) == text(service->mapping()),
                   "cache probe: " + service->name() +
                       " did not round-trip through the mapping cache");
    }
  }
  std::filesystem::remove_all(dir);
}

void run_serve(const ServeSpec& spec, const Options& options, Tracer& tracer,
               Report& report) {
  const std::unique_ptr<ServeState> state = timed_setup<ServeState>(
      tracer, report, options.trace,
      [&] { return serve_setup(spec, options.seed, tracer); });
  std::vector<std::string> names;
  for (const auto& service : state->services) names.push_back(service->name());

  double traced_tasks = 0.0;  // summed over traced passes
  double traced_run_s = 0.0;
  const auto replay = [&](int index) {
    const std::vector<serve::Request>& stream = state->streams[index];
    const std::string label = "replay stream " + std::to_string(index);
    PassOutcome outcome;
    tracer.next_operation();
    report.operation(label, [&] {
      serve::ServeResult result;
      const Clock::time_point start = Clock::now();
      {
        const Scope scope(tracer, "serve.run");
        result = serve_run(*state, stream);
      }
      outcome.host_s = since(start);
      outcome.work = static_cast<double>(stream.size());
      {
        const Scope scope(tracer, "serve.summarize");
        (void)serve::summarize(result, names, kSlo);
      }
      outcome.digest = check_serve(stream, result, label, report);
      if (tracer.enabled()) {
        traced_tasks += static_cast<double>(result.tasks_executed);
        traced_run_s += outcome.host_s;
      }
    });
    return outcome;
  };

  // Determinism gate: stream 0 first (the fleet at one thread); every
  // timed replay of stream 0 must match it. Its result gives the exact
  // counts.
  obs::MetricsRegistry counted;
  serve::ServeResult gate;
  std::uint64_t gate_digest = 0;
  {
    const Installed on(options.trace ? &counted : nullptr);
    std::optional<serve::FleetScheduler> serial;
    if (state->fleet) serial.emplace(make_fleet(spec, *state, 1));
    const std::vector<serve::Request>& stream = state->streams[0];
    report.operation("gate replay of stream 0", [&] {
      gate = serial ? serial->run(stream) : state->single->run(stream);
      gate_digest = check_serve(stream, gate, "gate replay", report);
    });
  }
  report.gate_digest(gate_digest);
  const PassLog log =
      run_passes(options, tracer, report, kStreams, gate_digest, replay);
  const serve::ServeMetrics metrics = serve::summarize(gate, names, kSlo);
  report.note("sim_p99_ms (stream 0)", metrics.latency.p99.millis(), "ms");
  report.note("sim_goodput_rps (stream 0)", metrics.goodput_rps, "rps");
  report.note("sim_shed_rate (stream 0)", metrics.shed_rate, "ratio");
  std::vector<double> single_ms;
  for (const auto& service : state->services) {
    single_ms.push_back(service->single_latency().millis());
  }
  report.note("sim_latency_ms (geomean)", geomean(single_ms), "ms");
  report.set("serve.tasks_executed", static_cast<double>(gate.tasks_executed));
  report.set("serve.batches_dispatched", gate.batches_dispatched);
  report.set("serve.shed", static_cast<double>(gate.rejected.size()));

  if (!options.trace) {
    finish_untraced(report, log, "sim_req_per_s", "req/s");
    return;
  }
  tracer.set_phase(Phase::kProbe);
  tracer.set_enabled(true);
  const Installed on(&counted);
  set_ratio(report, "serve.us_per_task", 1e6 * traced_run_s, traced_tasks);

  // Growth: replays of fresh streams twice as long (twice the requests
  // over twice the window), against this run's untraced 1x passes.
  constexpr int kLongReplays = 3;
  const std::vector<double> weights(spec.models.size(), 1.0);
  std::vector<double> long_s;
  for (int g = 0; g < kLongReplays; ++g) {
    const std::vector<serve::Request> stream = poisson_requests(
        weights, spec.rate, stream_size(spec, 2.0), spec.duration * 2.0,
        derive_seed(options.seed, kStreams + g));
    tracer.next_operation();
    report.operation("2x replay", [&] {
      const Clock::time_point start = Clock::now();
      const serve::ServeResult result = serve_run(*state, stream);
      long_s.push_back(since(start));
      (void)check_serve(stream, result, "2x replay", report);
    });
  }
  set_ratio(report, "serve.growth_ratio", quartiles(long_s).median,
            quartiles(log.untraced_s).median);
  report.timing("2x replay host time", "s", long_s);

  tracer.next_operation();
  probe_cache(*state, options.trace_out + ".cache", tracer, report);
  for (const std::string& name : names) {
    tracer.next_operation();
    probe_search_layers(name, *state->topo, *state->designs, state->adaptive,
                        quick_config(kSearchSeed, kThreads), options.seed,
                        tracer, report);
  }
  if (spec.comap_probe) probe_comap(tracer, report);
  tracer.set_enabled(false);
  finish_trace(options, tracer, report, log, counted);
}

// ---------------------------------------------------------------- manifest

void print_manifest(std::ostream& out) {
  const auto quoted = [](const std::string& text) {
    return "\"" + text + "\"";
  };
  out << "{\n  \"workloads\": [";
  for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
    out << (i ? "," : "") << "\n    {\"name\": " << quoted(kWorkloads[i].name)
        << ", \"why\": " << quoted(kWorkloads[i].why) << "}";
  }
  out << "\n  ],\n  \"end_to_end\": [";
  for (std::size_t i = 0; i < kEndToEnd.size(); ++i) {
    const MetricDef& m = kEndToEnd[i];
    out << (i ? "," : "") << "\n    {\"name\": " << quoted(m.name)
        << ", \"unit\": " << quoted(m.unit) << ", \"better\": "
        << quoted(m.better) << ", \"bound\": " << m.bound << "}";
  }
  out << "\n  ],\n  \"per_layer\": [";
  for (std::size_t i = 0; i < kPerLayer.size(); ++i) {
    const MetricDef& m = kPerLayer[i];
    out << (i ? "," : "") << "\n    {\"name\": " << quoted(m.name)
        << ", \"unit\": " << quoted(m.unit) << ", \"better\": "
        << quoted(m.better) << "}";
  }
  out << "\n  ]\n}\n";
}

int usage() {
  std::cerr << "usage: mars_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n       mars_bench --manifest\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--manifest") {
      print_manifest(std::cout);
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (options.trace_out.empty()) {
    options.trace_out = "mars_bench-" + options.workload + "-" +
                        std::to_string(::getpid()) + ".trace.json";
  }

  Tracer tracer;
  Report report;
  if (options.workload == "map-paper") {
    run_map_paper(options, tracer, report);
  } else if (options.workload == "serve-overload") {
    run_serve({.policy = "none",
               .rate = 200.0,
               .duration = Seconds(1.0),
               .comap_probe = true},
              options, tracer, report);
  } else if (options.workload == "serve-fleet") {
    run_serve({.fleet = true,
               .policy = "slo:60",
               .rate = 80.0,
               .duration = Seconds(200.0)},
              options, tracer, report);
  } else {
    return usage();
  }
  report.set("peak_rss_mb", peak_rss_mb());
  report.print(options.workload, options.seed, options.trace, std::cout);
  return 0;
}
