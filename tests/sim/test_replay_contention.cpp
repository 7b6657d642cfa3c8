// Differential under heavy contention: Executor::run (the replay kernel)
// against the retry-per-waiter reference loop
// (tests/support/reference_executor.h), bit for bit, on graphs built so
// that many tasks wait on the same resources at once and free up at
// exactly the same instants. That is where the kernel's wait blocks do
// their work: several resources freeing together, waiters of different
// resources interleaved, starts splitting a block, zero-length holds and
// store-and-forward legs landing on a free time.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "mars/sim/executor.h"
#include "mars/topology/presets.h"
#include "mars/util/rng.h"
#include "support/reference_executor.h"

namespace mars::sim {
namespace {

std::uint64_t bits(Seconds s) { return std::bit_cast<std::uint64_t>(s.count()); }

constexpr double kTick = 1.0 / 1024.0;

/// Two groups of three, dyadic bandwidths and latencies: every duration
/// and leg time is a multiple of 2^-10 s, so ends tie exactly.
struct Dyadic {
  topology::Topology topo = topology::grouped(2, 3, Bandwidth(8.0 * (1 << 20)),
                                              Bandwidth(8.0 * (1 << 19)));
  SimParams params{Seconds(kTick), Seconds(3 * kTick)};
};

/// Wide random graphs: deps reach only a little way back, so most tasks
/// are ready early and queue together; durations span 0–3 ticks.
TaskGraph wide_graph(Rng& rng, int accs, int n) {
  TaskGraph tg;
  for (int i = 0; i < n; ++i) {
    std::vector<TaskId> deps;
    if (i > 0 && rng.chance(0.5)) {
      deps.push_back(rng.uniform_int(std::max(0, i - 12), i - 1));
    }
    const double kind = rng.uniform();
    if (kind < 0.5) {
      (void)tg.add_compute(rng.uniform_int(0, accs - 1),
                           Seconds(rng.uniform_int(0, 3) * kTick), "c", deps);
    } else if (kind < 0.9) {
      const int src = rng.uniform_int(kHost, accs - 1);
      int dst = rng.uniform_int(kHost, accs - 2);
      if (dst >= src) ++dst;
      (void)tg.add_transfer(src, dst, Bytes(512.0 * rng.uniform_int(0, 4)),
                            "t", deps);
    } else {
      (void)tg.add_barrier(deps, "b");
    }
  }
  return tg;
}

/// `requests` copies of a layer pipeline whose every layer is split in
/// equal shards over all accelerators and joined by a barrier — the shape
/// of a served request. All copies are ready at t=0, so the shards of
/// later copies wait in lockstep behind the earlier ones.
TaskGraph lockstep_graph(Rng& rng, int accs, int requests, int layers) {
  TaskGraph tg;
  std::vector<Seconds> shard(static_cast<std::size_t>(layers));
  for (Seconds& s : shard) s = Seconds(rng.uniform_int(1, 4) * kTick);
  for (int r = 0; r < requests; ++r) {
    std::vector<TaskId> join;
    for (int l = 0; l < layers; ++l) {
      std::vector<TaskId> shards;
      for (int a = 0; a < accs; ++a) {
        std::vector<TaskId> deps = join;
        if (!join.empty() && rng.chance(0.3)) {
          deps = {tg.add_transfer(kHost, a, Bytes(512.0), "in", join)};
        }
        shards.push_back(tg.add_compute(
            a, shard[static_cast<std::size_t>(l)], "shard", deps));
      }
      join = {tg.add_barrier(shards, "join")};
    }
  }
  return tg;
}

void expect_identical(const Dyadic& system, const TaskGraph& tg,
                      const std::string& where) {
  const ExecutionResult expected =
      testing::reference_run(system.topo, system.params, tg);
  const ExecutionResult actual = Executor(system.topo, system.params).run(tg);
  ASSERT_EQ(bits(actual.makespan), bits(expected.makespan)) << where;
  ASSERT_EQ(actual.timings.size(), expected.timings.size()) << where;
  for (std::size_t t = 0; t < expected.timings.size(); ++t) {
    ASSERT_EQ(bits(actual.timings[t].start), bits(expected.timings[t].start))
        << where << " task " << t;
    ASSERT_EQ(bits(actual.timings[t].end), bits(expected.timings[t].end))
        << where << " task " << t;
  }
  for (std::size_t a = 0; a < expected.acc_busy.size(); ++a) {
    ASSERT_EQ(bits(actual.acc_busy[a]), bits(expected.acc_busy[a]))
        << where << " acc " << a;
  }
}

TEST(ReplayContention, WideGraphsMatchReferenceBitForBit) {
  const Dyadic system;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const TaskGraph tg =
        wide_graph(rng, system.topo.size(), rng.uniform_int(50, 400));
    expect_identical(system, tg, "wide seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
}

TEST(ReplayContention, LockstepShardsMatchReferenceBitForBit) {
  const Dyadic system;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const TaskGraph tg = lockstep_graph(rng, system.topo.size(),
                                        rng.uniform_int(2, 24),
                                        rng.uniform_int(1, 6));
    expect_identical(system, tg, "lockstep seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
}

/// A waiter that parks at the instant its resource frees, ahead of an older
/// waiter whose retry pops later at that instant, keeps its turn when both
/// move on to the same free time. Store-and-forward legs ready at t=8 take
/// down(3) and down(4), so leg `second` parks on down(3) before the older
/// waiter `late` (parked at t=6) rolls from down(4); both channels free
/// again at t=13. `second` must start first, finish first at t=18 and hand
/// acc 5 to its own dependent first.
TEST(ReplayContention, ParkerAheadOfOlderWaiterKeepsItsTurn) {
  const Dyadic system;
  TaskGraph tg;
  (void)tg.add_transfer(kHost, 3, Bytes(3584.0), "holds down(3) to t=8");
  (void)tg.add_transfer(kHost, 4, Bytes(3584.0), "holds down(4) to t=8");
  const TaskId ready = tg.add_compute(0, Seconds(6 * kTick), "ready at t=6");
  (void)tg.add_transfer(2, 3, Bytes(2048.0), "takes down(3) at t=8");
  (void)tg.add_transfer(1, 4, Bytes(2048.0), "takes down(4) at t=8");
  const TaskId second = tg.add_transfer(0, 3, Bytes(2048.0), "parks at t=8");
  const TaskId late =
      tg.add_transfer(kHost, 4, Bytes(2048.0), "parks at t=6", {ready});
  const TaskId first_user =
      tg.add_compute(5, Seconds(kTick), "after second", {second});
  const TaskId second_user =
      tg.add_compute(5, Seconds(kTick), "after late", {late});
  expect_identical(system, tg, "parker ahead");

  const ExecutionResult result = Executor(system.topo, system.params).run(tg);
  const auto start = [&](TaskId t) {
    return bits(result.timings[static_cast<std::size_t>(t)].start);
  };
  EXPECT_EQ(start(late), bits(Seconds(13 * kTick)));
  EXPECT_EQ(start(first_user), bits(Seconds(18 * kTick)));
  EXPECT_EQ(start(second_user), bits(Seconds(19 * kTick)));
}

}  // namespace
}  // namespace mars::sim
