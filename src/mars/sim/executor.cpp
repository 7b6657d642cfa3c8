#include "mars/sim/executor.h"

#include "mars/sim/replay.h"

namespace mars::sim {
namespace {

using Kernel = ReplayKernel<>;

/// Records each task's start and end on the kernel's clock.
struct TimingHost {
  const Kernel* kernel;
  std::vector<TaskTiming>* timings;

  void on_host_event(const Kernel::Event&) {}
  void on_start(Kernel::Instance&, int t) {
    (*timings)[static_cast<std::size_t>(t)].start = kernel->now();
  }
  void on_done(Kernel::Instance&, int t) {
    TaskTiming& timing = (*timings)[static_cast<std::size_t>(t)];
    timing.end = kernel->now();
    timing.executed = true;
  }
  void on_complete(Kernel::Instance&) {}
};

}  // namespace

Executor::Executor(const topology::Topology& topo, SimParams params)
    : network_(topo, params) {}

ExecutionResult Executor::run(const TaskGraph& graph) const {
  return run(FlatTaskGraph::from(graph));
}

ExecutionResult Executor::run(const FlatTaskGraph& graph) const {
  // One instance, so one slab of exactly its size.
  Kernel kernel(network_, {&graph},
                sizeof(Kernel::Instance) +
                    sizeof(int) * static_cast<std::size_t>(graph.size));
  ExecutionResult result;
  result.timings.assign(static_cast<std::size_t>(graph.size), TaskTiming{});
  TimingHost host{&kernel, &result.timings};
  kernel.instantiate(0, {});
  kernel.run(host);
  MARS_CHECK(kernel.tasks_executed() == graph.size,
             "deadlock: " << (graph.size - kernel.tasks_executed())
                          << " tasks never became ready "
                             "(dependency cycle?)");
  result.makespan = kernel.horizon();
  result.acc_busy = kernel.take_acc_busy();
  return result;
}

}  // namespace mars::sim
