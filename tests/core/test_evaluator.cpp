#include "mars/core/evaluator.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "test_support.h"

namespace mars::core {
namespace {

using testing::AdaptiveFixture;
using testing::two_set_mapping;

class EvaluatorTest : public ::testing::Test {
 protected:
  AdaptiveFixture fx_;
  MappingEvaluator evaluator_{fx_.problem};
};

TEST_F(EvaluatorTest, TaskGraphStructure) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const sim::TaskGraph tg = evaluator_.build_task_graph(mapping);
  EXPECT_GT(tg.size(), fx_.spine.size());  // at least one task per layer

  int host_in = 0;
  int host_out = 0;
  int cross_set = 0;
  int computes = 0;
  for (const sim::Task& task : tg.tasks()) {
    if (task.label.find("host_in") != std::string::npos) ++host_in;
    if (task.label == "host_output") ++host_out;
    if (task.label.find("cross_set") != std::string::npos) ++cross_set;
    if (task.kind == sim::TaskKind::kCompute) ++computes;
  }
  EXPECT_EQ(host_in, 1);  // AlexNet has a single network input
  EXPECT_EQ(host_out, 1);
  EXPECT_EQ(cross_set, 1);  // chain model, two sets -> one crossing edge
  // Every layer runs on all 4 members of its set.
  EXPECT_GE(computes, fx_.spine.size() * 4);
}

TEST_F(EvaluatorTest, SimulationCompletesAndAgreesRoughly) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const EvaluationSummary summary = evaluator_.evaluate(mapping);
  EXPECT_GT(summary.simulated.count(), 0.0);
  // The two cost paths share structure; they must agree within 2x.
  const double ratio =
      summary.simulated.count() / summary.analytic_makespan.count();
  EXPECT_GT(ratio, 0.5) << "simulated " << summary.simulated.millis() << " ms vs "
                        << summary.analytic_makespan.millis() << " ms";
  EXPECT_LT(ratio, 2.0);
}

TEST_F(EvaluatorTest, SimulatedLatencyImprovesWithParallelism) {
  // 1-set-of-8... not expressible; compare 2x4 vs putting everything on a
  // single pair: more accelerators per set must be faster for AlexNet.
  Mapping narrow;
  LayerAssignment only;
  only.accs = 0b0011;
  only.design = 0;
  only.begin = 0;
  only.end = fx_.spine.size();
  for (int l = 0; l < fx_.spine.size(); ++l) {
    only.strategies.emplace_back(
        std::vector<parallel::DimSplit>{{parallel::Dim::kCout, 2}}, std::nullopt);
  }
  narrow.sets = {only};

  const Seconds wide = evaluator_.evaluate(two_set_mapping(fx_.problem)).simulated;
  const Seconds small = evaluator_.evaluate(narrow).simulated;
  EXPECT_LT(wide.count(), small.count());
}

TEST_F(EvaluatorTest, SsStrategyProducesRingTasks) {
  Mapping mapping = two_set_mapping(fx_.problem);
  mapping.sets[0].strategies[1] =
      parallel::Strategy({{parallel::Dim::kH, 4}}, parallel::Dim::kCout);
  const sim::TaskGraph tg = evaluator_.build_task_graph(mapping);
  int ring_tasks = 0;
  for (const sim::Task& task : tg.tasks()) {
    if (task.label.find("ss_ring") != std::string::npos) ++ring_tasks;
  }
  // 4 phases -> 3 ring shifts x 4 members.
  EXPECT_EQ(ring_tasks, 12);
}

TEST_F(EvaluatorTest, ReductionEsProducesAllReduceTasks) {
  Mapping mapping = two_set_mapping(fx_.problem);
  mapping.sets[0].strategies[1] =
      parallel::Strategy({{parallel::Dim::kCin, 2}, {parallel::Dim::kH, 2}},
                         std::nullopt);
  const sim::TaskGraph tg = evaluator_.build_task_graph(mapping);
  int allreduce_tasks = 0;
  for (const sim::Task& task : tg.tasks()) {
    if (task.label.find("allreduce") != std::string::npos) ++allreduce_tasks;
  }
  // Two subgroups of 2: 2 * (2*(2-1) steps * 2 members) = 8 transfers.
  EXPECT_EQ(allreduce_tasks, 8);
}

TEST_F(EvaluatorTest, TraceExportsFromMapping) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const MappingEvaluator::SimOutput output = evaluator_.simulate(mapping);
  const auto has_label = [&](const std::string& text) {
    return std::any_of(output.graph.tasks().begin(), output.graph.tasks().end(),
                       [&](const sim::Task& task) {
                         return task.label.find(text) != std::string::npos;
                       });
  };
  EXPECT_TRUE(has_label("host_in"));
  EXPECT_TRUE(has_label("conv1/ph0"));
}

TEST_F(EvaluatorTest, DeterministicSimulation) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const Seconds a = evaluator_.evaluate(mapping).simulated;
  const Seconds b = evaluator_.evaluate(mapping).simulated;
  EXPECT_DOUBLE_EQ(a.count(), b.count());
}

}  // namespace
}  // namespace mars::core
