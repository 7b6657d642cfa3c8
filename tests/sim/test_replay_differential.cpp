// Differential: Executor::run (the replay kernel, sim/replay.h) against the
// node-based event loop it replaced (tests/support/reference_executor.h),
// bit for bit on seeded random graphs. Makespan, per-accelerator busy time
// and every task's start/end are compared as raw double bits.
//
// The generator reaches the kernel's edge cases: zero-duration compute,
// zero-byte transfers, host endpoints, cross-group transfers that take two
// host legs, and non-zero link/host latencies. On the dyadic topology every
// duration, leg time and latency is a multiple of 2^-10 s, so sums are
// exact and store-and-forward legs routinely land exactly on a channel's
// free time — the tie the retry rule must resolve identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "mars/sim/executor.h"
#include "mars/topology/presets.h"
#include "mars/util/rng.h"
#include "support/reference_executor.h"

namespace mars::sim {
namespace {

std::uint64_t bits(Seconds s) { return std::bit_cast<std::uint64_t>(s.count()); }

constexpr double kTick = 1.0 / 1024.0;

struct System {
  topology::Topology topo;
  SimParams params;
  bool dyadic = false;
};

/// Two groups of three with 2^20 B/s links inside a group and 2^19 B/s to
/// the host; latencies of one and three ticks.
System dyadic_system() {
  System system{topology::grouped(2, 3, Bandwidth(8.0 * (1 << 20)),
                                Bandwidth(8.0 * (1 << 19))),
              {}, true};
  system.params.link_latency = Seconds(kTick);
  system.params.host_latency = Seconds(3 * kTick);
  return system;
}

/// The paper's F1 system (two groups of four) at its default latencies.
System f1_system() { return System{topology::f1_16xlarge(), {}, false}; }

TaskGraph random_graph(const System& system, Rng& rng, int n) {
  const int accs = system.topo.size();
  TaskGraph tg;
  for (int i = 0; i < n; ++i) {
    std::vector<TaskId> deps;
    for (int d = 0; d < 3 && i > 0; ++d) {
      if (rng.chance(0.4)) deps.push_back(rng.uniform_int(0, i - 1));
    }
    const double kind = rng.uniform();
    if (kind < 0.45) {
      const int acc = rng.uniform_int(0, accs - 1);
      Seconds duration{};
      if (!rng.chance(0.1)) {
        duration = system.dyadic ? Seconds(rng.uniform_int(1, 16) * kTick)
                                : microseconds(rng.uniform(1.0, 100.0));
      }
      (void)tg.add_compute(acc, duration, "c", deps);
    } else if (kind < 0.85) {
      // Endpoints include the host (-1); src != dst.
      const int src = rng.uniform_int(kHost, accs - 1);
      int dst = rng.uniform_int(kHost, accs - 2);
      if (dst >= src) ++dst;
      Bytes bytes{};
      if (!rng.chance(0.1)) {
        bytes = system.dyadic ? Bytes(1024.0 * rng.uniform_int(1, 16))
                             : Bytes(rng.uniform(1.0, 1e6));
      }
      (void)tg.add_transfer(src, dst, bytes, "t", deps);
    } else {
      (void)tg.add_barrier(deps, "b");
    }
  }
  return tg;
}

/// Compares one graph's kernel replay with the reference; returns the
/// number of distinct end times (ties collapse them).
std::size_t expect_identical(const System& system, const TaskGraph& tg,
                             const std::string& where) {
  const ExecutionResult expected =
      testing::reference_run(system.topo, system.params, tg);
  const ExecutionResult actual = Executor(system.topo, system.params).run(tg);

  EXPECT_EQ(bits(actual.makespan), bits(expected.makespan)) << where;
  EXPECT_EQ(actual.acc_busy.size(), expected.acc_busy.size()) << where;
  for (std::size_t a = 0; a < expected.acc_busy.size() &&
                          a < actual.acc_busy.size();
       ++a) {
    EXPECT_EQ(bits(actual.acc_busy[a]), bits(expected.acc_busy[a]))
        << where << " acc " << a;
  }
  EXPECT_EQ(actual.timings.size(), expected.timings.size()) << where;
  std::set<std::uint64_t> ends;
  for (std::size_t t = 0; t < expected.timings.size() &&
                          t < actual.timings.size();
       ++t) {
    EXPECT_EQ(actual.timings[t].executed, expected.timings[t].executed)
        << where << " task " << t;
    EXPECT_EQ(bits(actual.timings[t].start), bits(expected.timings[t].start))
        << where << " task " << t;
    EXPECT_EQ(bits(actual.timings[t].end), bits(expected.timings[t].end))
        << where << " task " << t;
    ends.insert(bits(expected.timings[t].end));
  }
  return ends.size();
}

TEST(ReplayDifferential, KernelMatchesReferenceLoopBitForBit) {
  const System systems[] = {dyadic_system(), f1_system()};
  int graphs = 0;
  std::size_t tasks_on_dyadic = 0;
  std::size_t distinct_ends_on_dyadic = 0;
  for (const System& system : systems) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      Rng rng(seed);
      const int n = rng.uniform_int(1, 150);
      const TaskGraph tg = random_graph(system, rng, n);
      const std::size_t distinct = expect_identical(
          system, tg, system.topo.name() + " seed " + std::to_string(seed));
      if (system.dyadic) {
        tasks_on_dyadic += static_cast<std::size_t>(n);
        distinct_ends_on_dyadic += distinct;
      }
      ++graphs;
      if (HasFailure()) return;  // one diverging graph is enough to read
    }
  }
  EXPECT_GE(graphs, 500);
  // The dyadic system really produces equal-time events (not vacuous).
  EXPECT_LT(distinct_ends_on_dyadic * 10, tasks_on_dyadic * 9);
}

TEST(ReplayDifferential, EmptyGraphAndLoneZeroCostTasks) {
  const System system = dyadic_system();
  (void)expect_identical(system, TaskGraph{}, "empty");
  TaskGraph tg;
  const TaskId a = tg.add_compute(0, Seconds(0.0), "zero compute");
  const TaskId b = tg.add_transfer(0, 4, Bytes(0.0), "zero bytes", {a});
  (void)tg.add_barrier({a, b, b}, "duplicate deps");
  (void)expect_identical(system, tg, "zero-cost chain");
}

/// A store-and-forward leg that becomes ready exactly when its channel
/// frees up, while an earlier-queued retry wants the same channel at the
/// same instant: the retry (pushed first) wins, the leg waits.
TEST(ReplayDifferential, StoreAndForwardLegLandsOnChannelFreeTime) {
  const System system = dyadic_system();
  TaskGraph tg;
  // Host -> acc 3 at 2^19 B/s: 2560 B = 5 ticks + 1 tick latency.
  (void)tg.add_transfer(kHost, 3, Bytes(2560.0), "holds down(3) to t=6");
  const TaskId retry =
      tg.add_transfer(kHost, 3, Bytes(1024.0), "retries down(3) at t=6");
  // Cross-group: up(0) for 3 ticks, 3 ticks at the host, down(3) at t=6.
  const TaskId relay = tg.add_transfer(0, 3, Bytes(1024.0), "relayed");
  (void)expect_identical(system, tg, "tie");

  const ExecutionResult result = Executor(system.topo, system.params).run(tg);
  const auto at = [&](TaskId t) { return result.timings[static_cast<std::size_t>(t)]; };
  EXPECT_EQ(bits(at(retry).start), bits(Seconds(6 * kTick)));
  EXPECT_EQ(bits(at(relay).start), bits(Seconds(0.0)));
  EXPECT_EQ(bits(at(relay).end), bits(Seconds(12 * kTick)));
  EXPECT_EQ(bits(result.makespan), bits(Seconds(12 * kTick)));
}

}  // namespace
}  // namespace mars::sim
