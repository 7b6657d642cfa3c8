// SecondLevelSearch::greedy prices options from its (layer shape, set size)
// table; the reference loop (tests/support/reference_greedy.h) prices every
// option through AnalyticalCostModel::layer_cost. On random skeletons the
// two must pick the same strategies and return a bit-identical SetCost,
// across adaptive and fixed designs, SS on and off, every ES depth, a
// placement slice and memory-infeasible sets that run the repair pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <thread>

#include "mars/core/second_level.h"
#include "support/reference_greedy.h"
#include "test_support.h"

namespace mars::core {
namespace {

using testing::bit_identical;
using testing::reference_greedy;
using testing::reference_options;

std::string describe(const LayerAssignment& set) {
  std::ostringstream os;
  os << "layers [" << set.begin << ", " << set.end << ") on "
     << topology::mask_to_string(set.accs) << " design " << set.design;
  return os.str();
}

/// A random connected set inside the placement, a random design (adaptive
/// mode) and a random layer range of at most `max_len` layers.
LayerAssignment random_set(const Problem& problem, Rng& rng, int max_len) {
  const topology::AccMask within = problem.placement_mask();
  LayerAssignment set;
  do {
    set.accs = 0;
    for (topology::AccMask rest = within; rest != 0; rest &= rest - 1) {
      if (rng.chance(0.5)) set.accs |= rest & -rest;
    }
  } while (set.accs == 0 || !problem.topo->connected(set.accs));
  set.design = problem.adaptive
                   ? rng.uniform_int(0, problem.designs->size() - 1)
                   : accel::kInvalidDesign;
  const int n = problem.spine->size();
  set.begin = rng.uniform_int(0, n - 1);
  set.end = std::min(n, set.begin + rng.uniform_int(1, max_len));
  return set;
}

/// Prices `count` random skeletons both ways; returns how many ran the
/// memory repair (read off the options_priced counter).
int check_random_sets(const Problem& problem, const SecondLevelConfig& config,
                      int count, int max_len, std::uint64_t seed) {
  obs::MetricsRegistry metrics;
  const SecondLevelSearch search(problem, config, &metrics);
  const obs::Counter& priced = metrics.counter("search.second.options_priced");
  Rng rng(seed);
  int repaired = 0;
  for (int trial = 0; trial < count; ++trial) {
    const LayerAssignment set = random_set(problem, rng, max_len);
    SecondLevelResult want;
    try {
      want = reference_greedy(search.model(), config, set);
    } catch (const std::exception&) {
      EXPECT_ANY_THROW((void)search.greedy(set)) << describe(set);
      continue;
    }
    const long long before = priced.value();
    const SecondLevelResult got = search.greedy(set);
    EXPECT_TRUE(bit_identical(want, got)) << describe(set);
    long long first_pass = 0;
    for (int layer = set.begin; layer < set.end; ++layer) {
      first_pass += static_cast<long long>(
          reference_options(problem.spine->node(layer).shape, set.num_accs(),
                            config)
              .size());
    }
    const long long scored = priced.value() - before;
    EXPECT_GE(scored, first_pass) << describe(set);
    if (scored > first_pass) ++repaired;
  }
  return repaired;
}

SecondLevelConfig config_of(bool enable_ss, int max_es_dims) {
  SecondLevelConfig config;
  config.enable_ss = enable_ss;
  config.max_es_dims = max_es_dims;
  return config;
}

TEST(GreedyTable, MatchesReferenceOnF1Adaptive) {
  testing::AdaptiveFixture alexnet("alexnet");
  check_random_sets(alexnet.problem, config_of(true, 3), 250, 8, 11);
  testing::AdaptiveFixture vgg16("vgg16");
  check_random_sets(vgg16.problem, config_of(false, 2), 250, 8, 12);
  testing::AdaptiveFixture resnet50("resnet50");
  check_random_sets(resnet50.problem, config_of(true, 1), 250, 10, 13);
  check_random_sets(resnet50.problem, config_of(true, 2), 250, 10, 14);
}

TEST(GreedyTable, MatchesReferenceOnH2hFixedDesigns) {
  testing::FixedFixture casia("casia_surf");
  check_random_sets(casia.problem, config_of(true, 3), 250, 8, 21);
  check_random_sets(casia.problem, config_of(false, 1), 200, 8, 22);
  testing::FixedFixture resnet18("resnet18", gbps(1.2));
  check_random_sets(resnet18.problem, config_of(true, 2), 200, 8, 23);
}

TEST(GreedyTable, MatchesReferenceOnAPlacementSlice) {
  // Accelerators 2-5 straddle F1's two groups: sets stay inside one half.
  testing::AdaptiveFixture fx("resnet34");
  fx.problem.placement = 0b00111100;
  check_random_sets(fx.problem, config_of(true, 3), 250, 8, 31);
  testing::FixedFixture fixed("facebagnet");
  fixed.problem.placement = 0b01101010;
  check_random_sets(fixed.problem, config_of(true, 2), 150, 8, 32);
}

TEST(GreedyTable, MatchesReferenceThroughMemoryRepair) {
  // VGG16's FC weights overflow 48 MiB cards unless SS rotates them, so
  // long ranges run the repair (to feasibility with SS, best effort
  // without).
  testing::AdaptiveFixture fx("vgg16");
  fx.topo = topology::f1_16xlarge(gbps(8.0), gbps(2.0), mebibytes(48.0));
  const int n = fx.spine.size();
  EXPECT_GT(check_random_sets(fx.problem, config_of(true, 3), 60, n, 41), 0);
  EXPECT_GT(check_random_sets(fx.problem, config_of(false, 3), 60, n, 42), 0);
  EXPECT_GT(check_random_sets(fx.problem, config_of(true, 1), 60, n, 43), 0);
}

TEST(GreedyTable, CountersChargeTheTableOncePerSetSize) {
  testing::AdaptiveFixture fx("resnet50");
  obs::MetricsRegistry metrics;
  const SecondLevelConfig config;
  const SecondLevelSearch search(fx.problem, config, &metrics);
  LayerAssignment set;
  set.accs = 0b1111;
  set.design = 1;
  set.begin = 3;
  set.end = 15;

  // Table options at p = 4: one plan per option of each distinct shape.
  std::vector<graph::ConvShape> shapes;
  long long table = 0;
  for (int layer = 0; layer < fx.spine.size(); ++layer) {
    const graph::ConvShape& shape = fx.spine.node(layer).shape;
    if (std::find(shapes.begin(), shapes.end(), shape) != shapes.end()) continue;
    shapes.push_back(shape);
    table += static_cast<long long>(reference_options(shape, 4, config).size());
  }
  long long scored = 0;
  for (int layer = set.begin; layer < set.end; ++layer) {
    scored += static_cast<long long>(
        reference_options(fx.spine.node(layer).shape, 4, config).size());
  }
  const obs::Counter& priced = metrics.counter("search.second.options_priced");
  const obs::Counter& plans = metrics.counter("search.second.plans_built");

  ASSERT_TRUE(search.greedy(set).cost.memory_ok);
  EXPECT_EQ(priced.value(), scored);
  EXPECT_EQ(plans.value(), table + set.num_layers());  // + one set_cost pass
  (void)search.greedy(set);
  EXPECT_EQ(priced.value(), 2 * scored);
  EXPECT_EQ(plans.value(), table + 2 * set.num_layers());
}

TEST(GreedyTable, ConcurrentFirstUseBuildsEachTableOnce) {
  // Four threads hit a fresh search at once, each sweeping every set size
  // so the lazy per-size builds race; every answer must still match the
  // reference and each size's table is charged exactly once.
  testing::FixedFixture fx("casia_surf");
  const SecondLevelConfig config;
  obs::MetricsRegistry metrics;
  const SecondLevelSearch search(fx.problem, config, &metrics);
  std::vector<LayerAssignment> sets;
  for (int p = 1; p <= fx.topo.size(); ++p) {
    LayerAssignment set;
    set.accs = (topology::AccMask{1} << p) - 1;
    set.begin = 0;
    set.end = fx.spine.size();
    sets.push_back(set);
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<SecondLevelResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < sets.size(); ++i) {
        // Each thread starts at a different size.
        const std::size_t pick = (i + static_cast<std::size_t>(t) * 2) % sets.size();
        got[static_cast<std::size_t>(t)].push_back(search.greedy(sets[pick]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  long long table = 0;
  long long set_passes = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const std::size_t pick = (i + static_cast<std::size_t>(t) * 2) % sets.size();
      EXPECT_TRUE(bit_identical(reference_greedy(search.model(), config, sets[pick]),
                                got[static_cast<std::size_t>(t)][i]))
          << "thread " << t << ", " << describe(sets[pick]);
    }
  }
  // Every set fits in 1 GiB cards, so each greedy call costs one set_cost
  // pass; the rest of plans_built is one table per size.
  for (const LayerAssignment& set : sets) {
    ASSERT_TRUE(reference_greedy(search.model(), config, set).cost.memory_ok);
    set_passes += kThreads * set.num_layers();
  }
  std::vector<graph::ConvShape> shapes;
  for (int layer = 0; layer < fx.spine.size(); ++layer) {
    const graph::ConvShape& shape = fx.spine.node(layer).shape;
    if (std::find(shapes.begin(), shapes.end(), shape) == shapes.end()) {
      shapes.push_back(shape);
    }
  }
  for (int p = 1; p <= fx.topo.size(); ++p) {
    for (const graph::ConvShape& shape : shapes) {
      table += static_cast<long long>(reference_options(shape, p, config).size());
    }
  }
  EXPECT_EQ(metrics.counter("search.second.plans_built").value(),
            table + set_passes);
}

}  // namespace
}  // namespace mars::core
