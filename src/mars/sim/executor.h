// Offline task-graph execution with resource contention.
//
// An Executor run replays one graph as a single instance released at t=0
// through sim::ReplayKernel — the same event loop, contention rule and
// tie order the online serving engine uses (see replay.h): accelerators
// run one compute task at a time; directed channels carry one flow at a
// time at full bandwidth (FIFO); multi-leg transfers (via the host)
// store-and-forward. Deterministic: ties resolve by event insertion order.
#pragma once

#include <vector>

#include "mars/sim/network.h"
#include "mars/sim/task_graph.h"

namespace mars::sim {

struct TaskTiming {
  /// When the task acquired its accelerator (compute) or its first leg's
  /// channel (transfer); barriers and zero-byte transfers start and end
  /// at their ready time.
  Seconds start{};
  Seconds end{};
  bool executed = false;
};

struct ExecutionResult {
  Seconds makespan{};
  std::vector<TaskTiming> timings;  // indexed by TaskId

  /// Total busy seconds per accelerator (compute only).
  std::vector<Seconds> acc_busy;
};

class Executor {
 public:
  Executor(const topology::Topology& topo, SimParams params = {});

  /// Runs the whole graph to completion and reports the makespan. Throws
  /// InvalidArgument when a task targets an accelerator outside the
  /// topology.
  [[nodiscard]] ExecutionResult run(const TaskGraph& graph) const;
  /// Same, over a graph already lowered to its flat form.
  [[nodiscard]] ExecutionResult run(const FlatTaskGraph& graph) const;

 private:
  Network network_;
};

}  // namespace mars::sim
