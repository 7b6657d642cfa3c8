// The replay kernel: the one event loop that executes task graphs under
// accelerator and link contention (the role ASTRA-Sim plays in the paper).
// sim::Executor replays one graph as a single instance at t=0; the serving
// engine replays a stream of admitted requests. The contention rule lives
// only here:
//   * an accelerator runs one compute task at a time; a directed channel
//     carries one flow at a time at full bandwidth;
//   * a task whose accelerator (or current leg's channel) is busy waits for
//     the resource's free time. Waiters take a freed resource in the order
//     their retries would pop if each re-pushed its kTryStart at the free
//     time: by (time, insertion order), so an event at the same instant
//     that comes first — a store-and-forward leg, a fresh task — takes the
//     resource first;
//   * no event is pushed per waiter. A block holds waiters, of any
//     resources freeing at the same instant, whose retries would pop back
//     to back there, and one kWake event stands for the whole block. When
//     it pops, the waiters whose resources are free start in retry order
//     (normally the first one per resource), and the rest move on to their
//     resources' new free times a lane (one resource's waiters) at a time,
//     one segment per stretch between two starts. A completion therefore
//     costs events per block, not per waiter;
//   * host-routed transfers store-and-forward: the next leg tries to start
//     `host_latency` after the previous leg ends;
//   * barriers and zero-byte transfers finish the moment they are ready.
// Equal-time events pop in insertion order, so a replay is bit-deterministic.
//
// An instance is one live copy of a FlatTaskGraph: an arena block holding a
// header plus one missing-dependency counter per task, recycled through a
// per-graph free list once its last task finishes. Wait-list nodes come
// from the same arena and recycle through free lists of their own, so
// steady state allocates nothing.
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
    enum class Kind : std::uint8_t {
      kHost,
      kTryStart,
      kWake,
      kLegDone,
      kTaskDone
    };
    Kind kind = Kind::kHost;
    int index = -1;  // task index; host-defined for kHost
    int leg = 0;
    // The Instance of a task event, the wait block of a kWake. Untyped
    // because a union here made the serving event loop measurably slower
    // under GCC 12.
    void* target = nullptr;
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
        num_accs_(network.topology().size()),
        free_(static_cast<std::size_t>(num_accs_ + network.num_channels()),
              Seconds(0.0)),
        acc_busy_(static_cast<std::size_t>(num_accs_), Seconds(0.0)),
        route_cache_(static_cast<std::size_t>((num_accs_ + 1) *
                                              (num_accs_ + 1))) {
    for (const FlatTaskGraph* graph : graphs_) {
      MARS_CHECK_ARG(graph != nullptr, "replay of a null task graph");
      graph->check_targets(network.topology().size());
    }
    open_.reserve(free_.size());
  }

  /// Pre-sizes the event heap for `events` concurrent entries.
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Enqueues a host event; run() hands it back via host.on_host_event.
  void push_host(Seconds time, int index, Payload payload) {
    push(time,
         Event{Event::Kind::kHost, index, 0, nullptr, std::move(payload)});
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
      push(now_, Event{Event::Kind::kTryStart, root, 0, instance, {}});
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
          try_start(host, instance_of(event), event.index, event.leg);
          break;
        case Event::Kind::kWake:
          wake(host, *static_cast<Block*>(event.target));
          break;
        case Event::Kind::kLegDone:
          leg_done(host, instance_of(event), event.index, event.leg);
          break;
        case Event::Kind::kTaskDone:
          finish(host, instance_of(event), event.index);
          break;
      }
    }
  }

  [[nodiscard]] Seconds now() const { return now_; }
  /// When accelerator `acc` finishes its running task (<= now() if idle).
  [[nodiscard]] Seconds acc_free(int acc) const {
    return free_[static_cast<std::size_t>(acc)];
  }
  /// Time the last task finished.
  [[nodiscard]] Seconds horizon() const { return horizon_; }
  [[nodiscard]] long long tasks_executed() const { return tasks_executed_; }
  /// Events popped, host events included.
  [[nodiscard]] long long events_processed() const { return events_processed_; }
  /// Start attempts that found their resource busy and parked.
  [[nodiscard]] long long requeued() const { return requeued_; }
  /// Compute-busy seconds per accelerator; moves the vector out.
  [[nodiscard]] std::vector<Seconds> take_acc_busy() {
    return std::move(acc_busy_);
  }

 private:
  /// A task parked on a busy resource. Labels are handed out in park
  /// order; inside a block, label order is retry order.
  struct Waiter {
    Instance* instance;
    int task;
    int leg;
    std::uint64_t label;
    Waiter* next;  // the same resource's next waiter in the block
  };
  /// One resource's waiters in a block, in label order.
  struct Lane {
    int resource;
    Waiter* head;
    Waiter* tail;
    Lane* next;
  };
  /// Waiters whose retries would pop back to back at `at` — no other event
  /// at that instant between them — so one kWake stands for them all.
  struct Block {
    Lane* lanes;
    Seconds at;
    std::uint64_t max_label;  // the largest label placed here
    std::uint64_t segment;    // the last segment placed here
    Block* next;            // free-list link
  };

  /// The resource task `t` (leg `leg` of a transfer) occupies, and for
  /// how long. Accelerators are resources [0, num_accs_); channel c is
  /// resource num_accs_ + c.
  struct Claim {
    int resource;
    Seconds hold;
  };

  static Instance& instance_of(const Event& event) {
    return *static_cast<Instance*>(event.target);
  }

  [[nodiscard]] const FlatTaskGraph& graph_of(const Instance& instance) const {
    return *graphs_[static_cast<std::size_t>(instance.graph)];
  }

  Claim claim_of(const FlatTaskGraph& flat, int t, int leg) {
    const auto ti = static_cast<std::size_t>(t);
    if (flat.kinds[ti] == TaskKind::kCompute) {
      return {flat.accs[ti], flat.durations[ti]};
    }
    const std::vector<RouteLeg>& route = route_for(flat.srcs[ti], flat.dsts[ti]);
    MARS_CHECK(leg < static_cast<int>(route.size()), "leg index out of range");
    const RouteLeg& hop = route[static_cast<std::size_t>(leg)];
    return {num_accs_ + hop.channel, network_->leg_time(hop, flat.bytes[ti])};
  }

  template <typename Host>
  void try_start(Host& host, Instance& instance, int t, int leg) {
    const FlatTaskGraph& flat = graph_of(instance);
    const auto ti = static_cast<std::size_t>(t);
    const TaskKind kind = flat.kinds[ti];
    if (kind == TaskKind::kBarrier ||
        (kind == TaskKind::kTransfer && flat.bytes[ti].count() <= 0.0)) {
      host.on_start(instance, t);
      finish(host, instance, t);
      return;
    }
    const Claim claim = claim_of(flat, t, leg);
    if (free_[static_cast<std::size_t>(claim.resource)] > now_) {
      park(claim.resource, instance, t, leg);
    } else {
      start(host, claim, instance, t, leg);
    }
  }

  /// Occupies the (free) claimed resource from now() and schedules the
  /// task's (or leg's) end.
  template <typename Host>
  void start(Host& host, const Claim& claim, Instance& instance, int t,
             int leg) {
    const Seconds end = now_ + claim.hold;
    free_[static_cast<std::size_t>(claim.resource)] = end;
    if (claim.resource < num_accs_) {
      acc_busy_[static_cast<std::size_t>(claim.resource)] += claim.hold;
      host.on_start(instance, t);
      push(end, Event{Event::Kind::kTaskDone, t, 0, &instance, {}});
    } else {
      if (leg == 0) host.on_start(instance, t);
      push(end, Event{Event::Kind::kLegDone, t, leg, &instance, {}});
    }
  }

  /// One more waiter on busy resource `r`: a segment of its own.
  void park(int r, Instance& instance, int t, int leg) {
    ++requeued_;
    Waiter* waiter = new (take(spare_waiters_))
        Waiter{&instance, t, leg, ++labels_, nullptr};
    place(r, waiter, waiter, ++segments_, waiter->label);
  }

  /// Appends waiters `head`..`tail` of busy resource `r`, whose retries
  /// would be re-pushed now, to the newest block at r's free time that is
  /// still open: armed after the last pushed task or host event, and
  /// either filled by this same segment or holding only labels below the
  /// segment's lowest, `low`. Otherwise they open a new block.
  void place(int r, Waiter* head, Waiter* tail, std::uint64_t segment,
             std::uint64_t low) {
    const Seconds at = free_[static_cast<std::size_t>(r)];
    if (open_pushes_ != pushes_) {
      open_.clear();
      open_pushes_ = pushes_;
    }
    const auto open =
        std::find_if(open_.rbegin(), open_.rend(),
                     [at](const Block* b) { return b->at == at; });
    Block* block = open == open_.rend() ? nullptr : *open;
    if (block == nullptr ||
        (block->segment != segment && block->max_label >= low)) {
      block =
          new (take(spare_blocks_)) Block{nullptr, at, 0, segment, nullptr};
      queue_.push(at, Event{Event::Kind::kWake, -1, 0, block, {}});
      // A full list only costs a missed merge: a block of its own pops
      // in the same order.
      if (open_.size() < open_.capacity()) open_.push_back(block);
    }
    Lane* lane = block->lanes;
    while (lane != nullptr && lane->resource != r) lane = lane->next;
    if (lane == nullptr) {
      block->lanes =
          new (take(spare_lanes_)) Lane{r, head, tail, block->lanes};
    } else {
      lane->tail->next = head;
      lane->tail = tail;
    }
    tail->next = nullptr;
    block->max_label = std::max(block->max_label, tail->label);
    block->segment = segment;
  }

  /// A block's kWake. In label order, each waiter whose resource is free
  /// starts — one per resource, unless a zero-length hold leaves it free
  /// for the next — and the waiters between two starts move on as one
  /// segment.
  template <typename Host>
  void wake(Host& host, Block& block) {
    if (open_pushes_ == pushes_) {
      open_.erase(std::remove(open_.begin(), open_.end(), &block),
                  open_.end());
    }
    for (;;) {
      Lane* first = nullptr;
      for (Lane* lane = block.lanes; lane != nullptr; lane = lane->next) {
        if (lane->head != nullptr &&
            free_[static_cast<std::size_t>(lane->resource)] <= now_ &&
            (first == nullptr || lane->head->label < first->head->label)) {
          first = lane;
        }
      }
      move_on(block, first != nullptr ? first->head->label : kNoLabel);
      if (first == nullptr) break;
      Waiter* waiter = first->head;
      first->head = waiter->next;
      Instance& instance = *waiter->instance;
      const int t = waiter->task;
      const int leg = waiter->leg;
      recycle(spare_waiters_, waiter);
      start(host, claim_of(graph_of(instance), t, leg), instance, t, leg);
    }
    while (Lane* lane = block.lanes) {
      block.lanes = lane->next;
      recycle(spare_lanes_, lane);
    }
    recycle(spare_blocks_, &block);
  }

  /// Moves every waiter of `block` labelled below `limit` — all on busy
  /// resources — on to its resource's free time, as one segment.
  void move_on(Block& block, std::uint64_t limit) {
    std::uint64_t low = kNoLabel;
    for (const Lane* lane = block.lanes; lane != nullptr; lane = lane->next) {
      if (lane->head != nullptr) low = std::min(low, lane->head->label);
    }
    if (low >= limit) return;
    const std::uint64_t segment = ++segments_;
    for (Lane* lane = block.lanes; lane != nullptr; lane = lane->next) {
      Waiter* head = lane->head;
      if (head == nullptr || head->label >= limit) continue;
      Waiter* tail = lane->tail;
      if (tail->label >= limit) {
        tail = head;
        while (tail->next->label < limit) tail = tail->next;
      }
      lane->head = tail->next;
      place(lane->resource, head, tail, segment, low);
    }
  }

  /// Storage for one wait-list node: a recycled one from `spare`, else
  /// fresh arena bytes.
  template <typename Node>
  void* take(Node*& spare) {
    Node* node = spare;
    if (node == nullptr) return arena_.allocate(sizeof(Node), alignof(Node));
    spare = node->next;
    return node;
  }

  template <typename Node>
  static void recycle(Node*& spare, Node* node) {
    node->next = spare;
    spare = node;
  }

  /// Every event but a kWake enters the queue here, so pushes_ tells
  /// whether a block is still open (see place()).
  void push(Seconds time, Event event) {
    queue_.push(time, std::move(event));
    ++pushes_;
  }

  template <typename Host>
  void leg_done(Host& host, Instance& instance, int t, int leg) {
    const FlatTaskGraph& flat = graph_of(instance);
    const auto ti = static_cast<std::size_t>(t);
    const std::vector<RouteLeg>& route = route_for(flat.srcs[ti], flat.dsts[ti]);
    if (leg + 1 < static_cast<int>(route.size())) {
      // Store-and-forward at the host before the next leg.
      push(now_ + network_->params().host_latency,
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
        push(now_, Event{Event::Kind::kTryStart, dependent, 0, &instance, {}});
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
    auto& slot = route_cache_[static_cast<std::size_t>(
        (src + 1) * (num_accs_ + 1) + (dst + 1))];
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
  // Recycled wait-list nodes.
  Waiter* spare_waiters_ = nullptr;
  Lane* spare_lanes_ = nullptr;
  Block* spare_blocks_ = nullptr;
  static constexpr std::uint64_t kNoLabel = ~std::uint64_t{0};
  std::uint64_t labels_ = 0;
  std::uint64_t segments_ = 0;
  std::uint64_t pushes_ = 0;     // events pushed, kWakes excepted
  std::vector<Block*> open_;     // blocks armed since pushes_ last moved
  std::uint64_t open_pushes_ = 0;

  int num_accs_;
  std::vector<Seconds> free_;  // per resource: when it next frees up
  std::vector<Seconds> acc_busy_;
  std::vector<std::optional<std::vector<RouteLeg>>> route_cache_;

  Seconds horizon_{};
  long long tasks_executed_ = 0;
  long long events_processed_ = 0;
  long long requeued_ = 0;
};

}  // namespace mars::sim
