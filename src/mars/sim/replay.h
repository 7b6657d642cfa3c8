// The replay kernel: the one event loop that executes task graphs under
// accelerator and link contention (the role ASTRA-Sim plays in the paper).
// sim::Executor replays one graph as a single instance at t=0; the serving
// engine replays a stream of admitted requests. The contention rule lives
// only here:
//   * an accelerator runs one compute task at a time; a directed channel
//     carries one flow at a time at full bandwidth;
//   * a task whose accelerator (or current leg's channel) is busy re-pushes
//     its kTryStart at the resource's free time — every completion wakes
//     every waiter, and the first to pop wins;
//   * host-routed transfers store-and-forward: the next leg tries to start
//     `host_latency` after the previous leg ends;
//   * barriers and zero-byte transfers finish the moment they are ready.
// Equal-time events pop in insertion order, so a replay is bit-deterministic.
//
// An instance is one live copy of a FlatTaskGraph: an arena block holding a
// header plus one missing-dependency counter per task, recycled through a
// per-graph free list once its last task finishes, so steady-state
// instantiation allocates nothing.
//
// The driving host shares the kernel's one event queue (push_host) and
// observes the replay through hooks resolved at compile time — run() is a
// template over the host type, with no virtual call per event:
//   on_host_event(const Event&)    a push_host() event popped
//   on_start(Instance&, int task)  the task acquired its accelerator or first
//                                  leg's channel, or (barrier, zero bytes)
//                                  became ready; now() is its start time
//   on_done(Instance&, int task)   the task finished at now()
//   on_complete(Instance&)         the last task finished; the block is
//                                  recycled when the hook returns
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "mars/sim/event_queue.h"
#include "mars/sim/network.h"
#include "mars/sim/task_graph.h"
#include "mars/util/arena.h"
#include "mars/util/error.h"

namespace mars::sim {

/// Empty host payload / per-instance tag for hosts that need none.
struct NoPayload {};

/// `Payload` rides on host events; `Tag` is the host's per-instance data
/// (the serving engine stores the request there).
template <typename Payload = NoPayload, typename Tag = NoPayload>
class ReplayKernel {
 public:
  struct Instance {
    [[no_unique_address]] Tag tag{};
    int graph = 0;  // index into the kernel's graphs
    int tasks_remaining = 0;
    Instance* next_free = nullptr;

    /// The trailing missing-dependency array (one int per graph task).
    [[nodiscard]] int* missing() { return reinterpret_cast<int*>(this + 1); }
  };
  // The trailing int array is placed directly after the header; recycling
  // skips destructors entirely, so the header must not acquire any.
  static_assert(std::is_trivially_destructible_v<Instance>);
  static_assert(alignof(Instance) % alignof(int) == 0);

  struct Event {
    enum class Kind : std::uint8_t { kHost, kTryStart, kLegDone, kTaskDone };
    Kind kind = Kind::kHost;
    int index = -1;  // task index; host-defined for kHost
    int leg = 0;
    Instance* instance = nullptr;  // task events only
    [[no_unique_address]] Payload payload{};  // kHost only
  };

  /// `graphs` (and `network`) must outlive the kernel. Every compute
  /// accelerator and transfer endpoint is checked against the network's
  /// topology here, once, before any replay indexes a timeline with it.
  /// `slab_bytes` sizes the instance arena's slabs.
  ReplayKernel(const Network& network, std::vector<const FlatTaskGraph*> graphs,
               std::size_t slab_bytes = util::Arena::kDefaultSlabBytes)
      : network_(&network),
        graphs_(std::move(graphs)),
        free_list_(graphs_.size(), nullptr),
        arena_(slab_bytes),
        acc_free_(static_cast<std::size_t>(network.topology().size()),
                  Seconds(0.0)),
        channel_free_(static_cast<std::size_t>(network.num_channels()),
                      Seconds(0.0)),
        acc_busy_(acc_free_.size(), Seconds(0.0)),
        route_cache_((acc_free_.size() + 1) * (acc_free_.size() + 1)) {
    for (const FlatTaskGraph* graph : graphs_) {
      MARS_CHECK_ARG(graph != nullptr, "replay of a null task graph");
      graph->check_targets(network.topology().size());
    }
  }

  /// Pre-sizes the event heap for `events` concurrent entries.
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Enqueues a host event; run() hands it back via host.on_host_event.
  void push_host(Seconds time, int index, Payload payload) {
    queue_.push(time, Event{Event::Kind::kHost, index, 0, nullptr,
                            std::move(payload)});
  }

  /// Stamps a fresh instance of graph `graph` at now(): copies the graph's
  /// missing-dependency counts into a recycled (or new) arena block and
  /// seeds its root tasks' kTryStart events in task order.
  void instantiate(int graph, const Tag& tag) {
    const auto g = static_cast<std::size_t>(graph);
    const FlatTaskGraph& flat = *graphs_[g];
    Instance* instance = free_list_[g];
    if (instance != nullptr) {
      free_list_[g] = instance->next_free;
    } else {
      void* block = arena_.allocate(
          sizeof(Instance) + sizeof(int) * static_cast<std::size_t>(flat.size),
          alignof(Instance));
      instance = new (block) Instance();
    }
    instance->tag = tag;
    instance->graph = graph;
    instance->tasks_remaining = flat.size;
    instance->next_free = nullptr;
    if (flat.size > 0) {
      std::memcpy(instance->missing(), flat.dep_counts.data(),
                  sizeof(int) * static_cast<std::size_t>(flat.size));
    }
    for (const TaskId root : flat.roots) {
      queue_.push(now_, Event{Event::Kind::kTryStart, root, 0, instance, {}});
    }
  }

  /// Pops events until the queue runs dry.
  template <typename Host>
  void run(Host& host) {
    while (!queue_.empty()) {
      const Event event = queue_.pop(now_);
      ++events_processed_;
      switch (event.kind) {
        case Event::Kind::kHost:
          host.on_host_event(event);
          break;
        case Event::Kind::kTryStart:
          try_start(host, *event.instance, event.index, event.leg);
          break;
        case Event::Kind::kLegDone:
          leg_done(host, *event.instance, event.index, event.leg);
          break;
        case Event::Kind::kTaskDone:
          finish(host, *event.instance, event.index);
          break;
      }
    }
  }

  [[nodiscard]] Seconds now() const { return now_; }
  /// When accelerator `acc` finishes its running task (<= now() if idle).
  [[nodiscard]] Seconds acc_free(int acc) const {
    return acc_free_[static_cast<std::size_t>(acc)];
  }
  /// Time the last task finished.
  [[nodiscard]] Seconds horizon() const { return horizon_; }
  [[nodiscard]] long long tasks_executed() const { return tasks_executed_; }
  /// Events popped, host events included.
  [[nodiscard]] long long events_processed() const { return events_processed_; }
  /// kTryStart events re-pushed because their resource was busy.
  [[nodiscard]] long long requeued() const { return requeued_; }
  /// Compute-busy seconds per accelerator; moves the vector out.
  [[nodiscard]] std::vector<Seconds> take_acc_busy() {
    return std::move(acc_busy_);
  }

 private:
  template <typename Host>
  void try_start(Host& host, Instance& instance, int t, int leg) {
    const FlatTaskGraph& flat = *graphs_[static_cast<std::size_t>(instance.graph)];
    const auto ti = static_cast<std::size_t>(t);
    const TaskKind kind = flat.kinds[ti];
    if (kind == TaskKind::kBarrier ||
        (kind == TaskKind::kTransfer && flat.bytes[ti].count() <= 0.0)) {
      host.on_start(instance, t);
      finish(host, instance, t);
    } else if (kind == TaskKind::kCompute) {
      const auto a = static_cast<std::size_t>(flat.accs[ti]);
      Seconds& free = acc_free_[a];
      if (free > now_) return retry_at(free, instance, t, 0);
      const Seconds duration = flat.durations[ti];
      const Seconds end = now_ + duration;
      free = end;
      acc_busy_[a] += duration;
      host.on_start(instance, t);
      queue_.push(end, Event{Event::Kind::kTaskDone, t, 0, &instance, {}});
    } else {
      const std::vector<RouteLeg>& route = route_for(flat.srcs[ti], flat.dsts[ti]);
      MARS_CHECK(leg < static_cast<int>(route.size()), "leg index out of range");
      const RouteLeg& hop = route[static_cast<std::size_t>(leg)];
      Seconds& free = channel_free_[static_cast<std::size_t>(hop.channel)];
      if (free > now_) return retry_at(free, instance, t, leg);
      const Seconds end = now_ + network_->leg_time(hop, flat.bytes[ti]);
      free = end;
      if (leg == 0) host.on_start(instance, t);
      queue_.push(end, Event{Event::Kind::kLegDone, t, leg, &instance, {}});
    }
  }

  void retry_at(Seconds free, Instance& instance, int t, int leg) {
    ++requeued_;
    queue_.push(free, Event{Event::Kind::kTryStart, t, leg, &instance, {}});
  }

  template <typename Host>
  void leg_done(Host& host, Instance& instance, int t, int leg) {
    const FlatTaskGraph& flat = *graphs_[static_cast<std::size_t>(instance.graph)];
    const auto ti = static_cast<std::size_t>(t);
    const std::vector<RouteLeg>& route = route_for(flat.srcs[ti], flat.dsts[ti]);
    if (leg + 1 < static_cast<int>(route.size())) {
      // Store-and-forward at the host before the next leg.
      queue_.push(now_ + network_->params().host_latency,
                  Event{Event::Kind::kTryStart, t, leg + 1, &instance, {}});
    } else {
      finish(host, instance, t);
    }
  }

  template <typename Host>
  void finish(Host& host, Instance& instance, int t) {
    horizon_ = std::max(horizon_, now_);
    ++tasks_executed_;
    host.on_done(instance, t);
    const auto g = static_cast<std::size_t>(instance.graph);
    const FlatTaskGraph& flat = *graphs_[g];
    int* missing = instance.missing();
    const auto begin = static_cast<std::size_t>(
        flat.dependent_offsets[static_cast<std::size_t>(t)]);
    const auto end = static_cast<std::size_t>(
        flat.dependent_offsets[static_cast<std::size_t>(t) + 1]);
    for (std::size_t i = begin; i < end; ++i) {
      const TaskId dependent = flat.dependents[i];
      if (--missing[dependent] == 0) {
        queue_.push(now_,
                    Event{Event::Kind::kTryStart, dependent, 0, &instance, {}});
      }
    }
    if (--instance.tasks_remaining == 0) {
      host.on_complete(instance);
      // Every event referencing this instance has been consumed (its last
      // task just finished), so LIFO reuse is safe.
      instance.next_free = free_list_[g];
      free_list_[g] = &instance;
    }
  }

  const std::vector<RouteLeg>& route_for(int src, int dst) {
    const int n = static_cast<int>(acc_free_.size());
    auto& slot =
        route_cache_[static_cast<std::size_t>((src + 1) * (n + 1) + (dst + 1))];
    if (!slot) slot = network_->route(src, dst);
    return *slot;
  }

  const Network* network_;
  // Declared before the arena so the arena's slabs are released first on
  // destruction (the order the allocator trims best).
  EventQueue<Event> queue_;
  Seconds now_{};

  std::vector<const FlatTaskGraph*> graphs_;
  std::vector<Instance*> free_list_;  // per graph
  util::Arena arena_;

  std::vector<Seconds> acc_free_;
  std::vector<Seconds> channel_free_;
  std::vector<Seconds> acc_busy_;
  std::vector<std::optional<std::vector<RouteLeg>>> route_cache_;

  Seconds horizon_{};
  long long tasks_executed_ = 0;
  long long events_processed_ = 0;
  long long requeued_ = 0;
};

}  // namespace mars::sim
