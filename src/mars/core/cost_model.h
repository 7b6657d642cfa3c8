// Analytical cost model: the fast latency estimate driving the GA loops.
//
// Mirrors the event-driven simulator's structure (compute phases, SS rings,
// All-Reduce, resharding, inter-set transfers, host I/O) with closed-form
// times instead of contention replay. `bench_paper a4` quantifies the gap
// between the two paths.
#pragma once

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "mars/core/mapping.h"
#include "mars/parallel/memory.h"
#include "mars/parallel/sharding.h"
#include "mars/sim/network.h"

namespace mars::core {

/// Everything a mapper needs to know about the problem instance.
struct Problem {
  const graph::ConvSpine* spine = nullptr;
  const topology::Topology* topo = nullptr;
  const accel::DesignRegistry* designs = nullptr;
  /// Adaptive systems configure one design per AccSet; fixed systems keep
  /// each accelerator's fixed_design and a set stalls for its slowest
  /// member (Section VI-C).
  bool adaptive = true;
  sim::SimParams sim_params{};
  /// Accelerators the mapper may use (0 = the whole topology). Lets a
  /// co-mapping search confine a tenant to a fleet slice while keeping the
  /// shared Topology object — sets, candidates and the baseline are all
  /// restricted to this mask.
  topology::AccMask placement = 0;

  /// The effective placement: `placement`, or the full mask when unset.
  [[nodiscard]] topology::AccMask placement_mask() const {
    return placement == 0 ? topo->full_mask() : placement;
  }

  void validate() const;
};

/// Cost of one LayerAssignment (its internal execution only).
struct SetCost {
  LatencyBreakdown latency;
  parallel::MemoryFootprint footprint;
  bool memory_ok = true;
  /// Latency with an infeasibility penalty applied — what GA fitness sees
  /// (finite so the search can climb out of infeasible regions).
  Seconds penalized{};
};

/// One layer's cost under a concrete strategy, given the activation layout
/// left by the previous layer (nullopt = entering the set).
struct LayerCost {
  Seconds compute{};    // phases x PE time + fused DRAM
  Seconds intra_set{};  // SS ring + All-Reduce + reshard/scatter
  parallel::ShardingPlan plan;

  [[nodiscard]] Seconds total() const { return compute + intra_set; }
};

/// The ShardingPlan fields an option's price and the memory repair read:
/// the intra-set traffic (ring, All-Reduce, reshard target), the layout
/// left for the next layer and the weight residency. The second level's
/// option table keeps one per option instead of the whole plan.
struct PlanRecord {
  explicit PlanRecord(const parallel::ShardingPlan& plan)
      : phases(plan.phases),
        allreduce_group(plan.allreduce_group),
        ring_hop_bytes(plan.ring_hop_bytes),
        allreduce_bytes(plan.allreduce_bytes),
        weight_resident(plan.weight_resident),
        required(plan.required),
        produced(plan.produced) {}

  int phases;
  int allreduce_group;
  Bytes ring_hop_bytes;
  Bytes allreduce_bytes;
  Bytes weight_resident;
  parallel::ActivationSharding required;
  parallel::ActivationSharding produced;
};

/// Energy prices per byte moved (first-order, docs/EXPLORE.md): a DRAM
/// access and an inter-accelerator (or host) link transfer. Compute
/// energy is per-design (AcceleratorDesign::energy_per_mac).
inline constexpr double kDramPicojoulesPerByte = 40.0;
inline constexpr double kLinkPicojoulesPerByte = 150.0;

class AnalyticalCostModel {
 public:
  explicit AnalyticalCostModel(const Problem& problem);

  /// Cost of executing spine layer `layer` on `set` with `strategy`.
  [[nodiscard]] LayerCost layer_cost(
      const LayerAssignment& set, int layer, const parallel::Strategy& strategy,
      const std::optional<parallel::ActivationSharding>& upstream) const;

  /// Intra-set seconds of one layer of `shape` on a p-member set whose
  /// bottleneck link is `internal_bw`: SS ring hops, the All-Reduce of
  /// partial sums, and the reshard from `upstream` (the entry scatter
  /// when nullopt). Zero for p == 1.
  [[nodiscard]] Seconds intra_set_time(
      const graph::ConvShape& shape, int p, Bandwidth internal_bw,
      const PlanRecord& plan,
      const std::optional<parallel::ActivationSharding>& upstream) const;

  /// Internal cost of one set: compute + fused DRAM + rings + All-Reduce +
  /// intra-set resharding + entry scatter, plus the memory check.
  [[nodiscard]] SetCost set_cost(const LayerAssignment& set) const;
  /// set_cost with the set's min_internal_bandwidth already known.
  [[nodiscard]] SetCost set_cost(const LayerAssignment& set,
                                 Bandwidth internal_bw) const;

  /// End-to-end breakdown of a full mapping (adds inter-set transfers and
  /// host I/O). `memory_ok` in the summary aggregates all sets.
  [[nodiscard]] EvaluationSummary evaluate(const Mapping& mapping) const;

  /// Energy of executing spine layer `layer` on `set`: compute MACs at
  /// the configured design's per-MAC price plus the design's DRAM traffic
  /// (re-reads and fused ops included) at kDramPicojoulesPerByte.
  /// Deliberately strategy-independent — sharding divides the work across
  /// members without changing its total (halo/fragmentation re-reads are
  /// second-order and ignored). Fixed-design sets average their members'
  /// prices (each member runs a 1/p share on its own design).
  [[nodiscard]] Joules layer_energy(const LayerAssignment& set, int layer) const;

  /// Whole-mapping energy: every layer's energy plus link energy for
  /// inter-set activation crossings and host input/output, priced at
  /// kLinkPicojoulesPerByte. Zero traffic contributes zero; a mapping
  /// with work always reports positive energy.
  [[nodiscard]] Joules mapping_energy(const Mapping& mapping) const;

  /// `per_design(d)` (Seconds) of the design the set runs at: the
  /// configured design on an adaptive system; on a fixed one the slowest
  /// member's fixed design, members visited in ascending accelerator
  /// order and the max started from zero. phase_compute_time, fused_time
  /// and the second level's option table all price a set through it, so
  /// their doubles agree bit for bit.
  template <typename PerDesign>
  [[nodiscard]] Seconds slowest(const LayerAssignment& set,
                                PerDesign&& per_design) const {
    if (problem_->adaptive) return per_design(set.design);
    Seconds worst(0.0);
    for (topology::AccMask rest = set.accs; rest != 0; rest &= rest - 1) {
      const auto acc = static_cast<topology::AccId>(std::countr_zero(rest));
      worst = std::max(worst,
                       per_design(problem_->topo->accelerator(acc).fixed_design));
    }
    return worst;
  }

  /// Per-phase compute seconds of `local` on the set (slowest member in
  /// fixed mode).
  [[nodiscard]] Seconds phase_compute_time(const LayerAssignment& set,
                                           const graph::ConvShape& local) const;

  /// Fused-op DRAM time per accelerator for spine layer `layer` under
  /// set size p.
  [[nodiscard]] Seconds fused_time(const LayerAssignment& set, int layer,
                                   int p) const;

  /// Transfer time of `bytes` between two disjoint sets over the best
  /// route (direct link or via host).
  [[nodiscard]] Seconds inter_set_time(topology::AccMask from, topology::AccMask to,
                                       Bytes bytes) const;

  /// Activation bytes flowing from `sets[producer]` to `sets[consumer]`
  /// (spine edges crossing the two contiguous ranges).
  [[nodiscard]] Bytes bytes_between(const std::vector<LayerAssignment>& sets,
                                    std::size_t producer,
                                    std::size_t consumer) const;

  /// bytes_between for every ordered pair at once: row-major S x S matrix
  /// with entry [producer * S + consumer]. Computed in a single pass over
  /// the contiguous edge arrays (each edge lands in exactly one cell when
  /// the set ranges are disjoint), so per-cell sums accumulate in edge
  /// order — bit-identical to calling bytes_between per pair. Requires
  /// disjoint layer ranges; layers outside every set contribute nothing.
  [[nodiscard]] std::vector<Bytes> inter_set_bytes(
      const std::vector<LayerAssignment>& sets) const;

  /// Critical-path aggregation: schedules the sets over their data-
  /// dependency DAG (set j feeds set i when a spine edge crosses them),
  /// charging inter-set transfers on the edges and host I/O at the
  /// boundaries. Equals the sequential sum for chain models; models branch
  /// overlap for multi-stream models. `set_latencies[i]` is the internal
  /// latency of `sets[i]`.
  [[nodiscard]] Seconds aggregate_makespan(
      const std::vector<LayerAssignment>& sets,
      const std::vector<Seconds>& set_latencies) const;

  [[nodiscard]] const Problem& problem() const { return *problem_; }

 private:
  /// layer_cost with the set's min_internal_bandwidth already known.
  [[nodiscard]] LayerCost layer_cost(
      const LayerAssignment& set, int layer, const parallel::Strategy& strategy,
      const std::optional<parallel::ActivationSharding>& upstream,
      Bandwidth internal_bw) const;

  const Problem* problem_;
  // Contiguous (struct-of-arrays) copies of the spine edges, split into
  // layer-to-layer edges and network-input edges. The per-candidate inner
  // loops (inter_set_bytes, aggregate_makespan's host-input scan) stream
  // these flat arrays instead of chasing SpineEdge structs — the search
  // hot path re-aggregates them once per fitness evaluation.
  std::vector<int> edge_producer_;
  std::vector<int> edge_consumer_;
  std::vector<double> edge_bytes_;
  std::vector<int> input_consumer_;
  std::vector<double> input_bytes_;
};

}  // namespace mars::core
