// Test-only reference: the node-based Executor::run event loop as it stood
// before the executor moved onto sim::ReplayKernel, kept verbatim (apart
// from taking the topology and SimParams as arguments) so differential
// tests can pin the kernel bit for bit against it. Not for production use.
#pragma once

#include <algorithm>
#include <vector>

#include "mars/sim/event_queue.h"
#include "mars/sim/executor.h"
#include "mars/util/error.h"

namespace mars::sim::testing {

struct Event {
  enum class Kind : std::uint8_t { kTryStart, kLegDone, kTaskDone } kind;
  TaskId task = -1;
  int leg = 0;
};

inline ExecutionResult reference_run(const topology::Topology& topo,
                                     SimParams params, const TaskGraph& graph) {
  const topology::Topology* topo_ = &topo;
  const Network network_(topo, params);
  const int n = graph.size();
  ExecutionResult result;
  result.timings.assign(static_cast<std::size_t>(n), TaskTiming{});
  result.acc_busy.assign(static_cast<std::size_t>(topo_->size()), Seconds(0.0));

  std::vector<int> missing_deps(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<TaskId>> dependents(static_cast<std::size_t>(n));
  for (const Task& task : graph.tasks()) {
    missing_deps[static_cast<std::size_t>(task.id)] =
        static_cast<int>(task.deps.size());
    for (TaskId dep : task.deps) {
      dependents[static_cast<std::size_t>(dep)].push_back(task.id);
    }
  }

  // Resource availability.
  std::vector<Seconds> acc_free(static_cast<std::size_t>(topo_->size()),
                                Seconds(0.0));
  std::vector<Seconds> channel_free(
      static_cast<std::size_t>(network_.num_channels()), Seconds(0.0));
  // Route cache per transfer task.
  std::vector<std::vector<RouteLeg>> routes(static_cast<std::size_t>(n));

  EventQueue<Event> queue;
  int completed = 0;

  auto finish_task = [&](TaskId id, Seconds now) {
    result.timings[static_cast<std::size_t>(id)].end = now;
    result.timings[static_cast<std::size_t>(id)].executed = true;
    result.makespan = std::max(result.makespan, now);
    ++completed;
    for (TaskId dependent : dependents[static_cast<std::size_t>(id)]) {
      if (--missing_deps[static_cast<std::size_t>(dependent)] == 0) {
        queue.push(now, Event{Event::Kind::kTryStart, dependent, 0});
      }
    }
  };

  for (const Task& task : graph.tasks()) {
    if (task.deps.empty()) {
      queue.push(Seconds(0.0), Event{Event::Kind::kTryStart, task.id, 0});
    }
  }

  while (!queue.empty()) {
    Seconds now;
    const Event event = queue.pop(now);
    const Task& task = graph.task(event.task);
    TaskTiming& timing = result.timings[static_cast<std::size_t>(event.task)];

    switch (event.kind) {
      case Event::Kind::kTryStart: {
        if (event.leg == 0) timing.start = now;
        switch (task.kind) {
          case TaskKind::kBarrier:
            finish_task(task.id, now);
            break;
          case TaskKind::kCompute: {
            Seconds& free = acc_free[static_cast<std::size_t>(task.acc)];
            if (free > now) {
              queue.push(free, Event{Event::Kind::kTryStart, task.id, 0});
              break;
            }
            timing.start = now;
            const Seconds end = now + task.duration;
            free = end;
            result.acc_busy[static_cast<std::size_t>(task.acc)] += task.duration;
            queue.push(end, Event{Event::Kind::kTaskDone, task.id, 0});
            break;
          }
          case TaskKind::kTransfer: {
            if (task.bytes.count() <= 0.0) {
              finish_task(task.id, now);
              break;
            }
            auto& route = routes[static_cast<std::size_t>(task.id)];
            if (route.empty()) route = network_.route(task.src, task.dst);
            MARS_CHECK(event.leg < static_cast<int>(route.size()),
                       "leg index out of range");
            const RouteLeg& leg = route[static_cast<std::size_t>(event.leg)];
            Seconds& free = channel_free[static_cast<std::size_t>(leg.channel)];
            if (free > now) {
              queue.push(free, Event{Event::Kind::kTryStart, task.id, event.leg});
              break;
            }
            if (event.leg == 0) timing.start = now;
            const Seconds end = now + network_.leg_time(leg, task.bytes);
            free = end;
            queue.push(end, Event{Event::Kind::kLegDone, task.id, event.leg});
            break;
          }
        }
        break;
      }
      case Event::Kind::kLegDone: {
        const auto& route = routes[static_cast<std::size_t>(event.task)];
        if (event.leg + 1 < static_cast<int>(route.size())) {
          // Store-and-forward at the host before the next leg.
          queue.push(now + network_.params().host_latency,
                     Event{Event::Kind::kTryStart, task.id, event.leg + 1});
        } else {
          finish_task(task.id, now);
        }
        break;
      }
      case Event::Kind::kTaskDone:
        finish_task(event.task, now);
        break;
    }
  }

  MARS_CHECK(completed == n, "deadlock: " << (n - completed)
                                          << " tasks never became ready "
                                             "(dependency cycle?)");
  return result;
}

}  // namespace mars::sim::testing
