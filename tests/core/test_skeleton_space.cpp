// The batch-evaluation contract of core::SkeletonSpace: fitness_batch is
// byte-identical to serial fitness() — same values, same memo-cache
// accounting — at any thread count (docs/PERFORMANCE.md).
#include "mars/core/skeleton_space.h"

#include <gtest/gtest.h>

#include "core/test_support.h"
#include "mars/ga/operators.h"
#include "mars/util/worker_pool.h"

namespace mars::core {
namespace {

using testing::AdaptiveFixture;

std::vector<Skeleton> sample_skeletons(SkeletonSpace& space, int count,
                                       std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<double> scores = space.design_scores();
  std::vector<Skeleton> skeletons;
  skeletons.reserve(static_cast<std::size_t>(count));
  // Include the baseline (shared sets across samples exercise the dedupe
  // path) plus profiled-random draws.
  skeletons.push_back(space.baseline());
  for (int i = 1; i < count; ++i) {
    skeletons.push_back(
        space.codec().decode(space.codec().profiled_random(scores, rng)));
  }
  return skeletons;
}

TEST(SkeletonSpaceBatchTest, BatchMatchesSerialFitnessBitForBit) {
  AdaptiveFixture fx;
  SkeletonSpace serial_space(fx.problem, {{}, true});
  SkeletonSpace batch_space(fx.problem, {{}, true});
  const std::vector<Skeleton> skeletons = sample_skeletons(serial_space, 24, 5);

  std::vector<double> serial;
  serial.reserve(skeletons.size());
  for (const Skeleton& skeleton : skeletons) {
    serial.push_back(serial_space.fitness(skeleton));
  }
  const std::vector<double> batch =
      batch_space.fitness_batch(sample_skeletons(batch_space, 24, 5), nullptr);

  ASSERT_EQ(batch.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], batch[i]) << i;  // bit-equal, not just close
  }
  // The dedupe counts occurrences exactly as a serial left-to-right sweep.
  EXPECT_EQ(batch_space.cache_hits(), serial_space.cache_hits());
  EXPECT_EQ(batch_space.cache_misses(), serial_space.cache_misses());
}

TEST(SkeletonSpaceBatchTest, FourThreadBatchIsByteIdenticalToSerial) {
  AdaptiveFixture fx;
  SkeletonSpace serial_space(fx.problem, {{}, true});
  SkeletonSpace threaded_space(fx.problem, {{}, true});
  util::WorkerPool pool(4);

  const std::vector<double> serial =
      serial_space.fitness_batch(sample_skeletons(serial_space, 32, 11),
                                 nullptr);
  const std::vector<double> threaded = threaded_space.fitness_batch(
      sample_skeletons(threaded_space, 32, 11), &pool);

  EXPECT_EQ(serial, threaded);  // std::vector<double> bitwise equality
  EXPECT_EQ(serial_space.cache_hits(), threaded_space.cache_hits());
  EXPECT_EQ(serial_space.cache_misses(), threaded_space.cache_misses());

  // A second batch over the same skeletons is all hits and still equal —
  // the warm path goes through the same aggregation.
  const std::vector<double> warm = threaded_space.fitness_batch(
      sample_skeletons(threaded_space, 32, 11), &pool);
  EXPECT_EQ(serial, warm);
  EXPECT_EQ(threaded_space.cache_misses(), serial_space.cache_misses());
}

TEST(SkeletonSpaceBatchTest, EmptyBatchIsANoOp) {
  AdaptiveFixture fx;
  SkeletonSpace space(fx.problem, {{}, true});
  EXPECT_TRUE(space.fitness_batch(std::vector<Skeleton>{}, nullptr).empty());
  EXPECT_EQ(space.cache_hits(), 0);
  EXPECT_EQ(space.cache_misses(), 0);
}

TEST(SkeletonSpaceBatchTest, BatchThenCompleteMatchesSerialSearchPath) {
  // complete() after a threaded batch must see exactly the strategies a
  // serial search would have memoised.
  AdaptiveFixture fx;
  SkeletonSpace serial_space(fx.problem, {{}, true});
  SkeletonSpace threaded_space(fx.problem, {{}, true});
  util::WorkerPool pool(3);

  const Skeleton baseline = serial_space.baseline();
  (void)serial_space.fitness(baseline);
  (void)threaded_space.fitness_batch({baseline}, &pool);

  const Mapping serial_mapping = serial_space.complete(baseline);
  const Mapping threaded_mapping = threaded_space.complete(baseline);
  ASSERT_EQ(serial_mapping.sets.size(), threaded_mapping.sets.size());
  for (std::size_t i = 0; i < serial_mapping.sets.size(); ++i) {
    EXPECT_EQ(serial_mapping.sets[i].strategies,
              threaded_mapping.sets[i].strategies)
        << i;
  }
}

// Fitness is a pure function of the encoded key: the same genome priced
// through the serial and batch paths — on fresh or warm caches — returns
// the identical double, and repeat evaluations charge pure cache hits (the
// counter delta is exactly sets-many hits, zero misses).
TEST(SkeletonSpacePurityTest, AllPathsAgreeOnFreshAndWarmCaches) {
  AdaptiveFixture fx;
  Rng rng(29);

  SkeletonSpace serial_space(fx.problem, {{}, true});
  const std::vector<ga::Genome> genome{
      ga::random_genome(serial_space.codec().genome_size(), 0.0, 1.0, rng)};
  const Skeleton skeleton = serial_space.codec().decode(genome[0]);
  const auto num_sets = static_cast<long long>(skeleton.sets.size());

  // Fresh caches, two paths.
  const double serial = serial_space.fitness(skeleton);
  SkeletonSpace batch_space(fx.problem, {{}, true});
  const double batch = batch_space.fitness_batch(genome, nullptr).front();
  EXPECT_EQ(serial, batch);

  // Warm caches: same values, counter delta = pure hits on every path.
  for (SkeletonSpace* space : {&serial_space, &batch_space}) {
    const long long hits = space->cache_hits();
    const long long misses = space->cache_misses();
    EXPECT_EQ(space->fitness(skeleton), serial);
    EXPECT_EQ(space->fitness_batch(genome, nullptr).front(), serial);
    EXPECT_EQ(space->cache_hits(), hits + 2 * num_sets);
    EXPECT_EQ(space->cache_misses(), misses);
  }
}

}  // namespace
}  // namespace mars::core
