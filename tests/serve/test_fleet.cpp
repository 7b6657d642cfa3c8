// Unit coverage for the fleet layer: routing (shard_of), partitioning
// (partition_fleet), the deterministic merge (merge_shard_results), and
// FleetScheduler argument validation. The end-to-end equivalence of the
// whole path lives in test_fleet_differential.cpp.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mars/serve/fleet.h"
#include "mars/util/error.h"

namespace mars::serve {
namespace {

Request at(int id, double seconds, int model = 0) {
  Request request;
  request.id = id;
  request.model = model;
  request.arrival = Seconds(seconds);
  return request;
}

CompletedRequest done_at(int id, int model, double completion) {
  CompletedRequest done;
  done.request = at(id, 0.0, model);
  done.completion = Seconds(completion);
  return done;
}

ServeResult shard_result(std::vector<CompletedRequest> completed,
                         int group_accelerators) {
  ServeResult result;
  result.completed = std::move(completed);
  result.acc_busy.assign(static_cast<std::size_t>(group_accelerators),
                         Seconds(0.0));
  return result;
}

TEST(ShardOf, IsDeterministicAndInRange) {
  for (int model = 0; model < 4; ++model) {
    for (int id = 0; id < 1000; ++id) {
      const int shard = shard_of(model, id, 7);
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, 7);
      EXPECT_EQ(shard, shard_of(model, id, 7));
    }
  }
}

TEST(ShardOf, SingleShardShortCircuits) {
  EXPECT_EQ(shard_of(3, 12345, 1), 0);
  EXPECT_EQ(shard_of(0, 0, 1), 0);
}

TEST(ShardOf, SpreadsAcrossShards) {
  // Not a statistical test — just that no shard starves on a real
  // stream, which publish-by-index and the merge both rely on.
  std::vector<int> hits(4, 0);
  for (int id = 0; id < 4000; ++id) ++hits[shard_of(0, id, 4)];
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_GT(hits[shard], 4000 / 8) << "shard " << shard << " starved";
  }
}

/// The router keys on (model, id), not id alone: replayed traces can
/// carry colliding ids across models, and those must still spread.
TEST(ShardOf, RequestIdCollisionsAcrossModelsStillSpread) {
  std::set<int> shards;
  for (int model = 0; model < 16; ++model) {
    shards.insert(shard_of(model, /*request_id=*/42, 4));
  }
  EXPECT_GT(shards.size(), 1u)
      << "every model mapped id 42 to the same shard";
}

/// Shard routing decides which replica group serves a request; a hasher
/// change that moved it would silently change every fleet result. Pin a
/// small table, including a large shard count that exposes 31 bits of
/// the hash and negative ids that exercise the unsigned conversion.
TEST(ShardOf, IsPinned) {
  struct Row {
    int model;
    int id;
    int shards;
    int expected;
  };
  const Row rows[] = {
      {0, 0, 4, 3},
      {0, 1, 4, 2},
      {1, 0, 4, 2},
      {3, 42, 7, 5},
      {2, 1000, 7, 3},
      {15, 123456, 16, 11},
      {0, -1, 5, 2},
      {-3, 7, 5, 1},
      {0, 0, 2147483647, 1066036449},
      {5, 99999, 2147483647, 953356620},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(shard_of(row.model, row.id, row.shards), row.expected)
        << "shard_of(" << row.model << ", " << row.id << ", " << row.shards
        << ")";
  }
}

TEST(PartitionFleet, DividesEvenly) {
  const FleetPartition partition = partition_fleet(8, 4);
  EXPECT_EQ(partition.shards, 4);
  EXPECT_EQ(partition.group_accelerators, 2);
  EXPECT_EQ(partition.unused_accelerators, 0);
  EXPECT_FALSE(partition.clamped);
}

TEST(PartitionFleet, LeavesRemainderUnused) {
  const FleetPartition partition = partition_fleet(10, 3);
  EXPECT_EQ(partition.shards, 3);
  EXPECT_EQ(partition.group_accelerators, 3);
  EXPECT_EQ(partition.unused_accelerators, 1);
  EXPECT_FALSE(partition.clamped);
}

TEST(PartitionFleet, ClampsShardsToAcceleratorCount) {
  const FleetPartition partition = partition_fleet(2, 8);
  EXPECT_EQ(partition.shards, 2);
  EXPECT_EQ(partition.group_accelerators, 1);
  EXPECT_EQ(partition.unused_accelerators, 0);
  EXPECT_TRUE(partition.clamped);
}

TEST(PartitionFleet, RejectsNonPositiveInputs) {
  EXPECT_THROW((void)partition_fleet(0, 2), InvalidArgument);
  EXPECT_THROW((void)partition_fleet(-4, 2), InvalidArgument);
  EXPECT_THROW((void)partition_fleet(8, 0), InvalidArgument);
  EXPECT_THROW((void)partition_fleet(8, -1), InvalidArgument);
}

TEST(MergeShardResults, SortsByTimeWithShardMajorTies) {
  // Shard 0 completes at t=2 and t=5; shard 1 at t=2 and t=3. The merged
  // stream is time-sorted and the t=2 tie resolves to shard 0 first.
  std::vector<ServeResult> shards;
  shards.push_back(shard_result({done_at(0, 0, 2.0), done_at(1, 0, 5.0)}, 1));
  shards.push_back(shard_result({done_at(2, 0, 2.0), done_at(3, 0, 3.0)}, 1));
  shards[0].horizon = Seconds(5.0);
  shards[1].horizon = Seconds(3.0);
  shards[0].tasks_executed = 10;
  shards[1].tasks_executed = 4;
  shards[0].batches_dispatched = 2;
  shards[1].batches_dispatched = 2;

  const ServeResult merged = merge_shard_results(std::move(shards), 1);
  ASSERT_EQ(merged.completed.size(), 4u);
  EXPECT_EQ(merged.completed[0].request.id, 0);  // t=2, shard 0 wins the tie
  EXPECT_EQ(merged.completed[1].request.id, 2);  // t=2, shard 1
  EXPECT_EQ(merged.completed[2].request.id, 3);  // t=3
  EXPECT_EQ(merged.completed[3].request.id, 1);  // t=5
  EXPECT_DOUBLE_EQ(merged.horizon.count(), 5.0);
  EXPECT_EQ(merged.tasks_executed, 14);
  EXPECT_EQ(merged.batches_dispatched, 4);
  EXPECT_EQ(merged.acc_busy.size(), 2u);  // shard-major concatenation
}

TEST(MergeShardResults, SortsRejectedByArrival) {
  std::vector<ServeResult> shards(2);
  shards[0].acc_busy.assign(1, Seconds(0.0));
  shards[1].acc_busy.assign(1, Seconds(0.0));
  shards[0].rejected = {at(0, 0.4), at(1, 0.9)};
  shards[1].rejected = {at(2, 0.1), at(3, 0.4)};
  const ServeResult merged = merge_shard_results(std::move(shards), 1);
  ASSERT_EQ(merged.rejected.size(), 4u);
  EXPECT_EQ(merged.rejected[0].id, 2);  // t=0.1
  EXPECT_EQ(merged.rejected[1].id, 0);  // t=0.4, shard 0 wins the tie
  EXPECT_EQ(merged.rejected[2].id, 3);  // t=0.4, shard 1
  EXPECT_EQ(merged.rejected[3].id, 1);  // t=0.9
}

TEST(MergeShardResults, RejectsMismatchedGroupSizes) {
  std::vector<ServeResult> shards;
  shards.push_back(shard_result({}, 2));
  shards.push_back(shard_result({}, 3));
  EXPECT_THROW(merge_shard_results(std::move(shards), 2),
               InvalidArgument);
}

TEST(MergeShardResults, RejectsEmptyInput) {
  EXPECT_THROW(merge_shard_results({}, 1), InvalidArgument);
}

}  // namespace
}  // namespace mars::serve
