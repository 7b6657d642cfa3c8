// Fleet-scale sharded serving: N identical replica groups behind one
// deterministic router.
//
// The single-engine OnlineScheduler models co-resident interference
// inside one replica group; a real deployment runs many such groups and
// splits traffic across them. FleetScheduler reproduces that shape in
// simulation: the fleet is partitioned into `shards` replica groups (each
// one a copy of the same group topology and planned services), every
// arrival is routed to a shard by a deterministic hash of (model,
// request id), the per-shard schedulers run independently — one engine
// per shard, optionally in parallel on a util::WorkerPool — and the
// per-shard streams are merged back into a single ServeResult.
//
// Determinism contract: routing is a pure function of the request (FNV-1a
// from util/fnv1a.h over model then id, platform-independent), each shard engine is the
// bit-deterministic OnlineScheduler, results are published by shard index
// and merged with a stable sort keyed on simulated time (ties resolve to
// shard-major, intra-shard order), so the merged result — and everything
// derived from it, stdout included — is byte-identical for a given seed
// at any --threads. Simulated-domain trace events must additionally be
// *emitted* in one deterministic order, so when a trace recorder is
// installed the shards run serially (their engines label tracks "s0 ",
// "s1 ", ... via SchedulerOptions::trace_label_prefix); wall-domain spans
// record real per-shard timing and are non-deterministic by contract.
//
// With shards == 1 the FleetScheduler delegates to a single unprefixed
// OnlineScheduler — the serial scheduler stays the reference
// implementation the differential harness
// (tests/serve/test_fleet_differential.cpp) compares every sharded
// configuration against.
#pragma once

#include <vector>

#include "mars/serve/scheduler.h"

namespace mars::serve {

struct FleetOptions {
  /// Number of replica groups. 1 = the single-engine reference path.
  int shards = 1;
  /// Worker threads for running shard engines concurrently. Shards run
  /// serially regardless when a trace recorder is installed (see above).
  int threads = 1;
  /// Per-shard engine configuration. FleetScheduler owns the label
  /// prefixing; leave trace_label_prefix empty.
  SchedulerOptions scheduler{};
  /// Heterogeneous fleets: entry s lists the fleet model indices shard s
  /// hosts (a comap partition typically pins each tenant to a slice of
  /// shards). Empty = every shard replicates every model (the historical
  /// homogeneous fleet, byte-identical to before this option existed).
  /// When set it must have exactly `shards` non-empty entries, every
  /// model must be hosted by at least one shard, and requests are routed
  /// among a model's hosting shards only: shard =
  /// hosts[shard_of(model, id, hosts.size())].
  std::vector<std::vector<int>> shard_models;
};

/// How a fleet of `accelerators` splits into `shards` replica groups.
struct FleetPartition {
  int shards = 1;               // effective shard count (after clamping)
  int group_accelerators = 0;   // accelerators per replica group
  int unused_accelerators = 0;  // remainder that joins no group
  bool clamped = false;         // requested shards exceeded accelerators
};

/// Partitions `accelerators` into `shards` equal replica groups. A shard
/// count larger than the accelerator count clamps to one accelerator per
/// group (`clamped` reports it); the division remainder is left unused.
/// Throws util::InvalidArgument on non-positive inputs.
[[nodiscard]] FleetPartition partition_fleet(int accelerators, int shards);

/// Deterministic shard routing: FNV-1a (64-bit, util/fnv1a.h) over the
/// little-endian bytes of `model` then `request_id`, reduced mod `shards`. A pure,
/// platform-independent function — the same request always lands on the
/// same shard, and requests with colliding ids across different models
/// still spread.
[[nodiscard]] int shard_of(int model, int request_id, int shards);

/// Merges per-shard results into one fleet-wide ServeResult: completed
/// requests stably sorted by completion time (rejected by arrival time),
/// ties in shard-major order; acc_busy concatenated shard-major (fleet
/// accelerator index = shard * group_accelerators + local index); horizon
/// is the max over shards; counts are summed. Every shard's acc_busy must
/// have exactly `group_accelerators` entries.
[[nodiscard]] ServeResult merge_shard_results(
    std::vector<ServeResult> shard_results, int group_accelerators);

/// `shards` replica groups, each an OnlineScheduler over the *same* group
/// topology and services (replica groups are identical by construction —
/// plan once, share read-only).
class FleetScheduler {
 public:
  /// `group_topo` is the topology of ONE replica group; `services` were
  /// planned on it and must outlive the scheduler. Throws on shards < 1
  /// or threads < 1.
  FleetScheduler(const topology::Topology& group_topo,
                 std::vector<const ModelService*> services,
                 FleetOptions options = {});

  /// Routes `arrivals` across shards, runs every shard engine, merges.
  [[nodiscard]] ServeResult run(const std::vector<Request>& arrivals) const;

  /// Closed loop: clients are routed to shards by (their model, client
  /// index) and stay there for the whole run; within a shard, request ids
  /// restart from the shard's client count (engine-local numbering).
  [[nodiscard]] ServeResult run_closed_loop(const ClosedLoopSpec& spec,
                                            Seconds duration) const;

  [[nodiscard]] int shards() const { return options_.shards; }
  [[nodiscard]] int num_models() const {
    return static_cast<int>(services_.size());
  }

 private:
  /// Runs `fn(shard)` -> ServeResult for every shard: serially when a
  /// trace recorder is installed (deterministic sim-domain emission
  /// order, wall spans around each shard), on the worker pool otherwise.
  template <typename ShardFn>
  [[nodiscard]] std::vector<ServeResult> run_shards(ShardFn&& fn) const;

  [[nodiscard]] bool heterogeneous() const {
    return !options_.shard_models.empty();
  }
  /// Rewrites a heterogeneous shard's engine-local model indices back to
  /// fleet indices (in place) so the merged result speaks one index space.
  void restore_fleet_indices(std::vector<ServeResult>& results) const;

  const topology::Topology* group_topo_;
  std::vector<const ModelService*> services_;
  FleetOptions options_;
  std::vector<OnlineScheduler> shard_schedulers_;
  /// Heterogeneous-fleet routing state (empty when homogeneous): the
  /// shards hosting each model, and per shard the fleet->local index map
  /// (-1 = not hosted).
  std::vector<std::vector<int>> model_hosts_;
  std::vector<std::vector<int>> fleet_to_local_;
};

}  // namespace mars::serve
