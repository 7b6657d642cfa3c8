// Reference second-level greedy: enumerates every option of every layer
// and prices it through AnalyticalCostModel::layer_cost (one make_plan,
// one conv_latency and one min_internal_bandwidth per option), then runs
// the memory repair the same way. SecondLevelSearch::greedy, which reads
// its option table instead, must return the same strategies and a
// bit-identical SetCost; tests/core/test_greedy_table.cpp and
// `bench_micro --smoke` (the `oracle-greedy` row) compare the two.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "mars/core/second_level.h"
#include "mars/util/error.h"

namespace mars::core::testing {

inline std::vector<parallel::Strategy> reference_options(
    const graph::ConvShape& shape, int p, const SecondLevelConfig& config) {
  std::vector<parallel::Strategy> options =
      parallel::enumerate_strategies(shape, p, config.max_es_dims);
  if (!config.enable_ss) {
    options.erase(std::remove_if(options.begin(), options.end(),
                                 [](const parallel::Strategy& s) {
                                   return s.has_ss();
                                 }),
                  options.end());
  }
  return options;
}

inline SecondLevelResult reference_greedy(const AnalyticalCostModel& model,
                                          const SecondLevelConfig& config,
                                          const LayerAssignment& skeleton) {
  const Problem& problem = model.problem();
  const int p = skeleton.num_accs();
  SecondLevelResult result;
  std::optional<parallel::ActivationSharding> upstream;

  for (int layer = skeleton.begin; layer < skeleton.end; ++layer) {
    const graph::ConvShape& shape = problem.spine->node(layer).shape;
    const std::vector<parallel::Strategy> options =
        reference_options(shape, p, config);
    MARS_CHECK(!options.empty(), "no valid strategy for layer "
                                     << problem.spine->node(layer).name
                                     << " on " << p << " accelerators");
    const parallel::Strategy* best = nullptr;
    Seconds best_time(0.0);
    LayerCost best_cost;
    for (const parallel::Strategy& option : options) {
      const LayerCost cost = model.layer_cost(skeleton, layer, option, upstream);
      if (best == nullptr || cost.total() < best_time) {
        best = &option;
        best_time = cost.total();
        best_cost = cost;
      }
    }
    result.strategies.push_back(*best);
    upstream = best_cost.plan.produced;
  }

  LayerAssignment full = skeleton;
  full.strategies = result.strategies;
  result.cost = model.set_cost(full);

  if (!result.cost.memory_ok && p > 1) {
    std::vector<int> order(static_cast<std::size_t>(skeleton.num_layers()));
    std::iota(order.begin(), order.end(), 0);
    std::vector<parallel::ShardingPlan> plans;
    plans.reserve(order.size());
    for (int i = 0; i < skeleton.num_layers(); ++i) {
      plans.push_back(parallel::make_plan(
          problem.spine->node(skeleton.begin + i).shape, problem.spine->dtype(),
          result.strategies[static_cast<std::size_t>(i)], p));
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return plans[static_cast<std::size_t>(a)].weight_resident >
             plans[static_cast<std::size_t>(b)].weight_resident;
    });
    for (int index : order) {
      const int layer = skeleton.begin + index;
      const graph::ConvShape& shape = problem.spine->node(layer).shape;
      const std::vector<parallel::Strategy> options =
          reference_options(shape, p, config);
      const parallel::Strategy* lightest = nullptr;
      Bytes lightest_bytes{};
      Seconds lightest_time{};
      for (const parallel::Strategy& option : options) {
        const parallel::ShardingPlan plan =
            parallel::make_plan(shape, problem.spine->dtype(), option, p);
        const Seconds time =
            model.layer_cost(skeleton, layer, option, std::nullopt).total();
        if (lightest == nullptr || plan.weight_resident < lightest_bytes ||
            (plan.weight_resident == lightest_bytes && time < lightest_time)) {
          lightest = &option;
          lightest_bytes = plan.weight_resident;
          lightest_time = time;
        }
      }
      result.strategies[static_cast<std::size_t>(index)] = *lightest;
      full.strategies = result.strategies;
      result.cost = model.set_cost(full);
      if (result.cost.memory_ok) break;
    }
  }
  return result;
}

/// Same strategies and the same SetCost down to every double's bits.
inline bool bit_identical(const SecondLevelResult& a, const SecondLevelResult& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  const SetCost& x = a.cost;
  const SetCost& y = b.cost;
  return a.strategies == b.strategies &&
         same(x.latency.compute.count(), y.latency.compute.count()) &&
         same(x.latency.intra_set.count(), y.latency.intra_set.count()) &&
         same(x.latency.inter_set.count(), y.latency.inter_set.count()) &&
         same(x.latency.host_io.count(), y.latency.host_io.count()) &&
         same(x.footprint.weights.count(), y.footprint.weights.count()) &&
         same(x.footprint.peak_activation.count(),
              y.footprint.peak_activation.count()) &&
         same(x.penalized.count(), y.penalized.count()) &&
         x.memory_ok == y.memory_ok;
}

}  // namespace mars::core::testing
