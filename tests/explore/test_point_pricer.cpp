// Direct coverage for explore::PointPricer: spec-keyed dedupe, the
// first-seen publish order behind priced(), index validation, and
// thread-count independence of the priced outcomes.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mars/explore/objective.h"
#include "mars/plan/engines.h"
#include "mars/util/error.h"
#include "mars/util/worker_pool.h"

namespace mars::explore {
namespace {

/// The second preset (clique:8@4 with the full menu) is mirrored by the
/// last grid point, so two distinct indices share one spec.
class PointPricerTest : public ::testing::Test {
 protected:
  PointPricerTest()
      : space_(DesignSpace::parse("families=clique;accs=2,8;bw=4;"
                                  "menus=solo,full")),
        budget_(plan::Budget::evaluations(32)) {
    core::MarsConfig tuning;
    tuning.seed = 5;
    tuning.first_ga.population = 4;
    tuning.first_ga.generations = 2;
    tuning.second.ga.population = 4;
    tuning.second.ga.generations = 2;
    inner_ = plan::make_engine("ga", tuning);
  }

  [[nodiscard]] PointPricer pricer(util::WorkerPool& pool) const {
    return PointPricer("alexnet", space_, *inner_, budget_, nullptr, pool);
  }

  /// The grid index whose spec equals preset 1's.
  [[nodiscard]] int mirror_of_preset() const {
    const std::vector<HardwarePoint>& points = space_.points();
    for (std::size_t i = static_cast<std::size_t>(space_.num_presets());
         i < points.size(); ++i) {
      if (points[i].spec() == points[1].spec()) return static_cast<int>(i);
    }
    return -1;
  }

  DesignSpace space_;
  plan::Budget budget_;
  std::unique_ptr<plan::SearchEngine> inner_;
};

TEST_F(PointPricerTest, DedupesBySpecAndPublishesInFirstSeenOrder) {
  const int mirror = mirror_of_preset();
  ASSERT_GE(mirror, space_.num_presets());
  util::WorkerPool pool(2);
  PointPricer p = pricer(pool);
  const std::vector<int> indices = {3, 2, 3, 1, mirror, 2};
  const std::vector<const PointOutcome*> out = p.price(indices);

  ASSERT_EQ(out.size(), indices.size());
  EXPECT_EQ(out[0], out[2]);  // duplicate index
  EXPECT_EQ(out[1], out[5]);
  EXPECT_EQ(out[3], out[4]);  // distinct indices, one spec
  ASSERT_EQ(p.priced_count(), 3);
  const std::vector<const PointOutcome*>& priced = p.priced();
  EXPECT_EQ(priced[0], out[0]);
  EXPECT_EQ(priced[1], out[1]);
  EXPECT_EQ(priced[2], out[3]);
  for (const PointOutcome* outcome : priced) {
    EXPECT_GT(outcome->evaluations, 0) << outcome->point.spec();
    EXPECT_FALSE(outcome->from_cache);
  }

  // A repeat request is all memo hits: nothing new is priced.
  const std::vector<const PointOutcome*> again = p.price({1, 3});
  EXPECT_EQ(again[0], out[3]);
  EXPECT_EQ(again[1], out[0]);
  EXPECT_EQ(p.priced_count(), 3);
}

TEST_F(PointPricerTest, OutOfRangeIndexIsANamedInvalidArgument) {
  util::WorkerPool pool(1);
  PointPricer p = pricer(pool);
  const int size = static_cast<int>(space_.points().size());
  for (const int bad : {-1, size}) {
    try {
      (void)p.price({2, bad});
      ADD_FAILURE() << "index " << bad << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("point index " +
                                           std::to_string(bad) +
                                           " out of range"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(p.priced_count(), 0);  // validation precedes any pricing
}

TEST_F(PointPricerTest, OutcomesAreIdenticalAtOneAndFourThreads) {
  const std::vector<int> indices = {4, 2, 1, 3, 2, 0};
  util::WorkerPool serial_pool(1);
  util::WorkerPool wide_pool(4);
  PointPricer serial = pricer(serial_pool);
  PointPricer wide = pricer(wide_pool);
  (void)serial.price(indices);
  (void)wide.price(indices);

  ASSERT_EQ(serial.priced_count(), wide.priced_count());
  for (std::size_t i = 0; i < serial.priced().size(); ++i) {
    const PointOutcome& a = *serial.priced()[i];
    const PointOutcome& b = *wide.priced()[i];
    EXPECT_EQ(a.point.spec(), b.point.spec()) << "outcome " << i;
    EXPECT_EQ(a.makespan_s, b.makespan_s) << a.point.spec();
    EXPECT_EQ(a.energy_j, b.energy_j) << a.point.spec();
    EXPECT_EQ(a.cost, b.cost) << a.point.spec();
    EXPECT_EQ(a.sets, b.sets) << a.point.spec();
    EXPECT_EQ(a.memory_ok, b.memory_ok) << a.point.spec();
    EXPECT_EQ(a.search_spec, b.search_spec) << a.point.spec();
    EXPECT_EQ(a.mapping_digest, b.mapping_digest) << a.point.spec();
    EXPECT_EQ(a.evaluations, b.evaluations) << a.point.spec();
  }
}

}  // namespace
}  // namespace mars::explore
