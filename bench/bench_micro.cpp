// Micro-benchmarks (google-benchmark): the per-call costs that set the
// search throughput — analytical design models, shard-plan construction,
// the layer cost function, greedy second-level selection, skeleton
// fitness (the first-level oracle every plan engine calls), and the
// event-driven executor.
//
// `bench_micro --smoke` skips google-benchmark and runs the CI gate
// instead: a table-vs-reference comparison of the second-level greedy
// oracle (bit-identical answers, then a throughput ratio) against the
// checked-in floor in bench/micro_floor.txt. Exits non-zero when the
// ratio regresses by more than 20%, or when the floor file is unreadable
// or names a gate this binary does not run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "mars/accel/registry.h"
#include "mars/core/evaluator.h"
#include "mars/core/second_level.h"
#include "mars/core/skeleton_space.h"
#include "mars/ga/operators.h"
#include "mars/graph/models/models.h"
#include "mars/parallel/sharding.h"
#include "mars/plan/planner.h"
#include "mars/topology/presets.h"
#include "support/reference_greedy.h"

namespace {

using namespace mars;  // NOLINT: bench-local convenience

struct Fixture {
  explicit Fixture(graph::Graph model)
      : planner(std::move(model), topo, designs, /*adaptive=*/true) {}

  topology::Topology topo = topology::f1_16xlarge();
  accel::DesignRegistry designs = accel::table2_designs();
  // The Planner owns the graph -> spine -> Problem chain.
  plan::Planner planner;
  const graph::ConvSpine& spine = planner.spine();
  const core::Problem& problem = planner.problem();
};

Fixture& fixture() {
  static Fixture f(graph::models::vgg16());
  return f;
}

Fixture& resnet_fixture() {
  static Fixture f(graph::models::by_name("resnet50"));
  return f;
}

void BM_DesignCycleModel(benchmark::State& state) {
  const auto& fx = fixture();
  const accel::AcceleratorDesign& design =
      fx.designs.design(static_cast<int>(state.range(0)));
  const graph::ConvShape shape{256, 256, 28, 28, 3, 3, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        design.conv_cycles(shape, graph::DataType::kFix16).total());
  }
}
BENCHMARK(BM_DesignCycleModel)->Arg(0)->Arg(1)->Arg(2);

void BM_EnumerateStrategies(benchmark::State& state) {
  const graph::ConvShape shape{256, 256, 28, 28, 3, 3, 1, 1};
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::enumerate_strategies(shape, p, 3));
  }
}
BENCHMARK(BM_EnumerateStrategies)->Arg(2)->Arg(4)->Arg(8);

void BM_MakePlan(benchmark::State& state) {
  const graph::ConvShape shape{256, 256, 28, 28, 3, 3, 1, 1};
  const parallel::Strategy strategy({{parallel::Dim::kH, 2}, {parallel::Dim::kW, 2}},
                                    parallel::Dim::kCout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel::make_plan(shape, graph::DataType::kFix16, strategy, 4));
  }
}
BENCHMARK(BM_MakePlan);

void BM_LayerCost(benchmark::State& state) {
  const auto& fx = fixture();
  const core::AnalyticalCostModel model(fx.problem);
  core::LayerAssignment set;
  set.accs = 0b1111;
  set.design = 0;
  set.begin = 0;
  set.end = fx.spine.size();
  const parallel::Strategy strategy({{parallel::Dim::kCout, 4}}, std::nullopt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.layer_cost(set, 5, strategy, std::nullopt));
  }
}
BENCHMARK(BM_LayerCost);

void BM_GreedySecondLevel(benchmark::State& state) {
  const auto& fx = fixture();
  const core::SecondLevelSearch search(fx.problem, core::SecondLevelConfig{});
  core::LayerAssignment skeleton;
  skeleton.accs = 0b1111;
  skeleton.design = 0;
  skeleton.begin = 0;
  skeleton.end = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.greedy(skeleton));
  }
}
BENCHMARK(BM_GreedySecondLevel)->Arg(4)->Arg(8)->Arg(16);

void BM_SkeletonFitness(benchmark::State& state) {
  const auto& fx = fixture();
  // Steady-state cost: after the first (miss) call this measures the
  // memoised path plus the DAG aggregation — what the inner GA/SA loop
  // pays for a revisited skeleton.
  core::SkeletonSpace space(fx.problem, {});
  const core::Skeleton skeleton = space.baseline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.fitness(skeleton));
  }
}
BENCHMARK(BM_SkeletonFitness);

void BM_EventSimVgg(benchmark::State& state) {
  const auto& fx = fixture();
  const core::SecondLevelSearch search(fx.problem, core::SecondLevelConfig{});
  core::LayerAssignment set;
  set.accs = 0b1111;
  set.design = 0;
  set.begin = 0;
  set.end = fx.spine.size();
  set.strategies = search.greedy(set).strategies;
  core::Mapping mapping;
  mapping.sets = {set};
  const core::MappingEvaluator evaluator(fx.problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.simulate(mapping).result.makespan);
  }
}
BENCHMARK(BM_EventSimVgg);

void BM_SpineExtraction(benchmark::State& state) {
  const graph::Graph model = graph::models::resnet101();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ConvSpine::extract(model));
  }
}
BENCHMARK(BM_SpineExtraction);

// --------------------------------------------------------------- smoke gate

/// The `oracle-greedy` floor from the checked-in floor file: a speedup
/// ratio, not an absolute throughput, so the gate is portable across CI
/// machines. Returns nullopt after naming the problem on stderr when the
/// file is unreadable, a row is malformed or names no gate, or the gate
/// has no row.
std::optional<double> load_floor(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "[smoke] error: floor file %s is not readable\n", path.c_str());
    return std::nullopt;
  }
  std::optional<double> floor;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream row(line);
    std::string name;
    if (!(row >> name)) continue;  // blank or comment-only line
    double value = 0.0;
    if (!(row >> value)) {
      std::fprintf(stderr, "[smoke] error: %s: row '%s' has no floor value\n",
                   path.c_str(), name.c_str());
      return std::nullopt;
    }
    if (name != "oracle-greedy") {
      std::fprintf(stderr, "[smoke] error: %s: row '%s' names no gate\n",
                   path.c_str(), name.c_str());
      return std::nullopt;
    }
    floor = value;
  }
  if (!floor) {
    std::fprintf(stderr, "[smoke] error: %s: no 'oracle-greedy' row\n", path.c_str());
  }
  return floor;
}

/// The distinct sets a GA-mutation stream asks the second level to price —
/// the greedy oracle's real input mix. The stream starts from 8 uniform
/// random genomes and breeds 40 cohorts of 8: each child is a random
/// member of the previous cohort under the GA's per-gene gaussian
/// mutation (rate 0.15, sigma 0.25).
std::vector<core::LayerAssignment> stream_sets(const core::Problem& problem,
                                               unsigned seed) {
  const core::SkeletonSpace space(problem, {});
  Rng rng(seed);
  std::vector<ga::Genome> cohort;
  for (int i = 0; i < 8; ++i) {
    cohort.push_back(ga::random_genome(space.codec().genome_size(), 0.0, 1.0, rng));
  }
  std::vector<core::LayerAssignment> sets;
  std::set<std::tuple<int, int, topology::AccMask, accel::DesignId>> seen;
  for (int generation = 0; generation < 40; ++generation) {
    std::vector<ga::Genome> children;
    children.reserve(cohort.size());
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      ga::Genome child = cohort[rng.index(cohort.size())];
      ga::gaussian_mutate(child, /*rate=*/0.15, /*sigma=*/0.25, 0.0, 1.0, rng);
      children.push_back(std::move(child));
    }
    for (const core::Skeleton& skeleton : space.decode_batch(children)) {
      for (const core::LayerAssignment& set : skeleton.sets) {
        if (seen.emplace(set.begin, set.end, set.accs, set.design).second) {
          sets.push_back(set);
        }
      }
    }
    cohort = std::move(children);
  }
  return sets;
}

/// Table greedy vs the reference option loop on the vgg16 and resnet50
/// stream sets: every answer must be bit-identical, and the table's
/// steady-state throughput (tables warm, as after a search's first
/// generation) must hold its floor over the reference.
bool run_oracle_gate(double floor) {
  const core::SecondLevelConfig config;
  double best_ref = 0.0;
  double best_table = 0.0;
  std::size_t priced = 0;
  for (const Fixture* fx : {&fixture(), &resnet_fixture()}) {
    const std::vector<core::LayerAssignment> sets = stream_sets(fx->problem, 2023);
    const core::SecondLevelSearch search(fx->problem, config);
    for (const core::LayerAssignment& set : sets) {
      if (!core::testing::bit_identical(
              core::testing::reference_greedy(search.model(), config, set),
              search.greedy(set))) {
        std::fprintf(stderr, "[smoke] FAIL: table greedy != reference greedy (%s)\n",
                     fx->planner.model().name().c_str());
        return false;
      }
    }
    double ref_s = 1e30;
    double table_s = 1e30;
    double sink = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      for (const core::LayerAssignment& set : sets) {
        sink += core::testing::reference_greedy(search.model(), config, set)
                    .cost.penalized.count();
      }
      auto t1 = std::chrono::steady_clock::now();
      for (const core::LayerAssignment& set : sets) {
        sink += search.greedy(set).cost.penalized.count();
      }
      auto t2 = std::chrono::steady_clock::now();
      ref_s = std::min(ref_s, std::chrono::duration<double>(t1 - t0).count());
      table_s = std::min(table_s, std::chrono::duration<double>(t2 - t1).count());
    }
    benchmark::DoNotOptimize(sink);
    best_ref += ref_s;
    best_table += table_s;
    priced += sets.size();
  }
  const double ref_sps = static_cast<double>(priced) / best_ref;
  const double table_sps = static_cast<double>(priced) / best_table;
  const double speedup = table_sps / ref_sps;
  const double gate = floor * 0.8;  // 20% regression allowance
  const bool pass = speedup >= gate;
  std::printf(
      "[smoke] %-11s reference %7.0f sets/s  table %7.0f sets/s  "
      "speedup %.2fx  (floor %.2fx, gate %.2fx) %s\n",
      "oracle-greedy", ref_sps, table_sps, speedup, floor, gate,
      pass ? "ok" : "REGRESSED");
  return pass;
}

int run_smoke(const std::string& floor_path) {
  const std::optional<double> floor = load_floor(floor_path);
  return floor && run_oracle_gate(*floor) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
#ifdef MARS_BENCH_DIR
  std::string floor_path = std::string(MARS_BENCH_DIR) + "/micro_floor.txt";
#else
  std::string floor_path = "bench/micro_floor.txt";
#endif
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--floor=", 0) == 0) floor_path = std::string(arg.substr(8));
  }
  if (smoke) return run_smoke(floor_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
