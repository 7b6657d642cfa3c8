#include "mars/core/cost_model.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "mars/parallel/comm_pattern.h"
#include "mars/parallel/memory.h"
#include "mars/util/error.h"

namespace mars::core {
namespace {

// Infeasible mappings stay finite but strongly dominated so the GA can
// descend back into the feasible region.
constexpr double kMemoryPenaltyFactor = 10.0;

}  // namespace

void Problem::validate() const {
  MARS_CHECK_ARG(spine != nullptr, "Problem.spine is null");
  MARS_CHECK_ARG(topo != nullptr, "Problem.topo is null");
  MARS_CHECK_ARG(designs != nullptr, "Problem.designs is null");
  MARS_CHECK_ARG(designs->size() > 0, "design menu is empty");
  topo->validate();
  MARS_CHECK_ARG((placement & ~topo->full_mask()) == 0,
                 "Problem.placement reaches outside the topology");
  if (!adaptive) {
    for (topology::AccId acc = 0; acc < topo->size(); ++acc) {
      const int fixed = topo->accelerator(acc).fixed_design;
      MARS_CHECK_ARG(fixed >= 0 && fixed < designs->size(),
                     "fixed-design mode but accelerator "
                         << acc << " has fixed_design " << fixed);
    }
  }
}

AnalyticalCostModel::AnalyticalCostModel(const Problem& problem)
    : problem_(&problem) {
  problem.validate();
  for (const graph::SpineEdge& edge : problem.spine->edges()) {
    if (edge.producer < 0) {
      input_consumer_.push_back(edge.consumer);
      input_bytes_.push_back(edge.bytes.count());
    } else {
      edge_producer_.push_back(edge.producer);
      edge_consumer_.push_back(edge.consumer);
      edge_bytes_.push_back(edge.bytes.count());
    }
  }
}

Seconds AnalyticalCostModel::phase_compute_time(const LayerAssignment& set,
                                                const graph::ConvShape& local) const {
  return slowest(set, [&](accel::DesignId d) {
    return problem_->designs->design(d).conv_latency(local, problem_->spine->dtype());
  });
}

Seconds AnalyticalCostModel::fused_time(const LayerAssignment& set, int layer,
                                        int p) const {
  const Bytes traffic =
      problem_->spine->node(layer).fused_traffic / static_cast<double>(p);
  return slowest(set, [&](accel::DesignId d) {
    const accel::AcceleratorDesign& design = problem_->designs->design(d);
    return design.frequency().time_for(design.dram_cycles(traffic));
  });
}

LayerCost AnalyticalCostModel::layer_cost(
    const LayerAssignment& set, int layer, const parallel::Strategy& strategy,
    const std::optional<parallel::ActivationSharding>& upstream) const {
  return layer_cost(set, layer, strategy, upstream,
                    problem_->topo->min_internal_bandwidth(set.accs));
}

LayerCost AnalyticalCostModel::layer_cost(
    const LayerAssignment& set, int layer, const parallel::Strategy& strategy,
    const std::optional<parallel::ActivationSharding>& upstream,
    Bandwidth internal_bw) const {
  const graph::ConvSpine& spine = *problem_->spine;
  const int p = set.num_accs();
  const graph::ConvShape& shape = spine.node(layer).shape;

  LayerCost cost;
  cost.plan = parallel::make_plan(shape, spine.dtype(), strategy, p);
  const parallel::ShardingPlan& plan = cost.plan;

  // Compute phases + fused-op DRAM traffic.
  cost.compute =
      phase_compute_time(set, plan.local) * static_cast<double>(plan.phases) +
      fused_time(set, layer, p);
  cost.intra_set = intra_set_time(shape, p, internal_bw, PlanRecord(plan), upstream);
  return cost;
}

Seconds AnalyticalCostModel::intra_set_time(
    const graph::ConvShape& shape, int p, Bandwidth internal_bw,
    const PlanRecord& plan,
    const std::optional<parallel::ActivationSharding>& upstream) const {
  Seconds intra{};
  if (p <= 1) return intra;
  const graph::DataType dtype = problem_->spine->dtype();
  const Seconds hop_latency = problem_->sim_params.link_latency;
  // SS ring hops between phases (non-overlapped, per Fig. 2(c)).
  if (plan.phases > 1) {
    const Seconds hop =
        internal_bw.transfer_time(plan.ring_hop_bytes) + hop_latency;
    intra += hop * static_cast<double>(plan.phases - 1);
  }
  // All-Reduce of partial sums.
  if (plan.allreduce_group > 1) {
    const Bytes wire = parallel::allreduce_wire_bytes(plan.allreduce_bytes,
                                                      plan.allreduce_group);
    intra += internal_bw.transfer_time(wire) +
             hop_latency *
                 static_cast<double>(parallel::allreduce_hops(plan.allreduce_group));
  }
  // Resharding from the previous layer's layout (or entry scatter for
  // the first layer — the activation lands on one member first).
  const Bytes in_bytes = shape.in_bytes(dtype);
  Bytes moved{};
  if (upstream.has_value()) {
    moved = parallel::reshard_cost(*upstream, shape, plan.required, in_bytes, p,
                                   dtype)
                .moved;
  } else {
    moved = in_bytes * plan.required.fraction() * static_cast<double>(p - 1);
  }
  if (moved.count() > 0.0) {
    // Members redistribute concurrently over their own links.
    intra += internal_bw.transfer_time(moved / static_cast<double>(p)) + hop_latency;
  }
  return intra;
}

SetCost AnalyticalCostModel::set_cost(const LayerAssignment& set) const {
  MARS_CHECK_ARG(set.num_accs() >= 1, "assignment with empty set");
  return set_cost(set, problem_->topo->min_internal_bandwidth(set.accs));
}

SetCost AnalyticalCostModel::set_cost(const LayerAssignment& set,
                                      Bandwidth internal_bw) const {
  const graph::ConvSpine& spine = *problem_->spine;
  const topology::Topology& topo = *problem_->topo;
  const int p = set.num_accs();
  MARS_CHECK_ARG(p >= 1, "assignment with empty set");
  MARS_CHECK_ARG(static_cast<int>(set.strategies.size()) == set.num_layers(),
                 "strategy arity mismatch");

  SetCost cost;
  std::vector<parallel::ShardingPlan> plans;
  plans.reserve(static_cast<std::size_t>(set.num_layers()));

  std::optional<parallel::ActivationSharding> upstream;  // layout entering layer l
  for (int layer = set.begin; layer < set.end; ++layer) {
    const parallel::Strategy& strategy =
        set.strategies[static_cast<std::size_t>(layer - set.begin)];
    const LayerCost lc = layer_cost(set, layer, strategy, upstream, internal_bw);
    cost.latency.compute += lc.compute;
    cost.latency.intra_set += lc.intra_set;
    upstream = lc.plan.produced;
    plans.push_back(lc.plan);
  }

  // DRAM validity across the whole range.
  cost.footprint = parallel::footprint(spine, set.begin, set.end, plans);
  Bytes dram(std::numeric_limits<double>::infinity());
  for (topology::AccMask rest = set.accs; rest != 0; rest &= rest - 1) {
    const auto acc = static_cast<topology::AccId>(std::countr_zero(rest));
    dram = std::min(dram, topo.accelerator(acc).dram);
  }
  cost.memory_ok = cost.footprint.fits(dram);
  cost.penalized = cost.latency.total();
  if (!cost.memory_ok) {
    const double overflow = cost.footprint.total() / dram;
    cost.penalized =
        cost.penalized * (1.0 + kMemoryPenaltyFactor * std::max(0.0, overflow - 1.0) +
                          kMemoryPenaltyFactor);
  }
  return cost;
}

Joules AnalyticalCostModel::layer_energy(const LayerAssignment& set,
                                         int layer) const {
  const graph::ConvSpine& spine = *problem_->spine;
  const graph::ConvShape& shape = spine.node(layer).shape;
  const double macs = shape.macs();
  const Bytes fused = spine.node(layer).fused_traffic;

  // One design's share: `fraction` of the MACs, DRAM traffic and fused
  // bytes executed on `design`. conv_cycles().dram times the interface
  // width recovers the design-specific DRAM byte count (re-reads
  // included) without touching the protected traffic formula.
  const auto design_share = [&](const accel::AcceleratorDesign& design,
                                double fraction) {
    const Bytes traffic =
        Bytes(design.conv_cycles(shape, spine.dtype()).dram *
              design.dram_bytes_per_cycle()) +
        fused;
    return design.energy_per_mac() * (macs * fraction) +
           picojoules(kDramPicojoulesPerByte) * (traffic.count() * fraction);
  };

  if (problem_->adaptive) {
    return design_share(problem_->designs->design(set.design), 1.0);
  }
  Joules total{};
  const double share = 1.0 / static_cast<double>(set.num_accs());
  for (topology::AccMask rest = set.accs; rest != 0; rest &= rest - 1) {
    const auto acc = static_cast<topology::AccId>(std::countr_zero(rest));
    total += design_share(
        problem_->designs->design(problem_->topo->accelerator(acc).fixed_design),
        share);
  }
  return total;
}

Joules AnalyticalCostModel::mapping_energy(const Mapping& mapping) const {
  Joules total{};
  for (const LayerAssignment& set : mapping.sets) {
    for (int layer = set.begin; layer < set.end; ++layer) {
      total += layer_energy(set, layer);
    }
  }
  // Link energy: activations crossing set boundaries plus host I/O. Time
  // overlap does not reduce energy, so this sums bytes, not transfers.
  const std::vector<Bytes> crossing = inter_set_bytes(mapping.sets);
  const std::size_t s = mapping.sets.size();
  double link_bytes = 0.0;
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      if (i != j) link_bytes += crossing[i * s + j].count();  // diagonal = intra-set
    }
  }
  link_bytes += problem_->spine->input_bytes().count();
  link_bytes += problem_->spine->output_bytes().count();
  total += picojoules(kLinkPicojoulesPerByte) * link_bytes;
  return total;
}

Seconds AnalyticalCostModel::inter_set_time(topology::AccMask from,
                                            topology::AccMask to,
                                            Bytes bytes) const {
  if (bytes.count() <= 0.0) return Seconds(0.0);
  const topology::Topology& topo = *problem_->topo;
  const Seconds leg_latency = problem_->sim_params.link_latency;
  const Bandwidth direct = topo.best_link_between(from, to);
  if (direct.bits_per_second() > 0.0) {
    return direct.transfer_time(bytes) + leg_latency;
  }
  const Bandwidth up = topo.min_host_bandwidth(from);
  const Bandwidth down = topo.min_host_bandwidth(to);
  return up.transfer_time(bytes) + down.transfer_time(bytes) +
         leg_latency * 2.0 + problem_->sim_params.host_latency;
}

Bytes AnalyticalCostModel::bytes_between(const std::vector<LayerAssignment>& sets,
                                         std::size_t producer,
                                         std::size_t consumer) const {
  const LayerAssignment& from = sets[producer];
  const LayerAssignment& to = sets[consumer];
  Bytes total{};
  for (const graph::SpineEdge& edge : problem_->spine->edges()) {
    if (edge.producer >= from.begin && edge.producer < from.end &&
        edge.consumer >= to.begin && edge.consumer < to.end) {
      total += edge.bytes;
    }
  }
  return total;
}

std::vector<Bytes> AnalyticalCostModel::inter_set_bytes(
    const std::vector<LayerAssignment>& sets) const {
  const std::size_t s = sets.size();
  // Layer -> set index (-1 outside every set). Ranges are disjoint by the
  // Mapping/decode contract, so each edge lands in exactly one cell.
  std::vector<int> owner(static_cast<std::size_t>(problem_->spine->size()), -1);
  for (std::size_t i = 0; i < s; ++i) {
    for (int layer = sets[i].begin; layer < sets[i].end; ++layer) {
      owner[static_cast<std::size_t>(layer)] = static_cast<int>(i);
    }
  }
  std::vector<Bytes> matrix(s * s);
  for (std::size_t e = 0; e < edge_bytes_.size(); ++e) {
    const int from = owner[static_cast<std::size_t>(edge_producer_[e])];
    const int to = owner[static_cast<std::size_t>(edge_consumer_[e])];
    if (from < 0 || to < 0) continue;
    matrix[static_cast<std::size_t>(from) * s + static_cast<std::size_t>(to)] +=
        Bytes(edge_bytes_[e]);
  }
  return matrix;
}

Seconds AnalyticalCostModel::aggregate_makespan(
    const std::vector<LayerAssignment>& sets,
    const std::vector<Seconds>& set_latencies) const {
  MARS_CHECK_ARG(sets.size() == set_latencies.size(),
                 "one latency per set required");
  const graph::ConvSpine& spine = *problem_->spine;
  const std::size_t s = sets.size();

  // Host input feeds whichever sets consume network-input edges.
  std::vector<Seconds> start(s, Seconds(0.0));
  for (std::size_t e = 0; e < input_bytes_.size(); ++e) {
    for (std::size_t i = 0; i < s; ++i) {
      if (input_consumer_[e] >= sets[i].begin &&
          input_consumer_[e] < sets[i].end) {
        const Seconds arrival =
            problem_->topo->min_host_bandwidth(sets[i].accs)
                .transfer_time(Bytes(input_bytes_[e])) +
            problem_->sim_params.link_latency;
        start[i] = std::max(start[i], arrival);
      }
    }
  }

  // Longest path over the set DAG (ranges are ordered, edges go forward).
  // The pair byte totals come from one pass over the edge arrays instead
  // of an O(sets^2 x edges) bytes_between sweep.
  const std::vector<Bytes> crossing = inter_set_bytes(sets);
  std::vector<Seconds> finish(s, Seconds(0.0));
  Seconds makespan(0.0);
  for (std::size_t i = 0; i < s; ++i) {
    Seconds ready = start[i];
    for (std::size_t j = 0; j < i; ++j) {
      const Bytes bytes = crossing[j * s + i];
      if (bytes.count() <= 0.0) continue;
      ready = std::max(ready,
                       finish[j] + inter_set_time(sets[j].accs, sets[i].accs, bytes));
    }
    finish[i] = ready + set_latencies[i];
    makespan = std::max(makespan, finish[i]);
  }

  // Network output returns from the final set.
  makespan += problem_->topo->min_host_bandwidth(sets.back().accs)
                  .transfer_time(spine.output_bytes()) +
              problem_->sim_params.link_latency;
  return makespan;
}

EvaluationSummary AnalyticalCostModel::evaluate(const Mapping& mapping) const {
  const graph::ConvSpine& spine = *problem_->spine;
  mapping.validate(spine, *problem_->topo, *problem_->designs, problem_->adaptive);

  EvaluationSummary summary;
  const std::size_t num_sets = mapping.sets.size();
  const std::vector<Bytes> crossing = inter_set_bytes(mapping.sets);
  std::vector<Seconds> set_latencies;
  set_latencies.reserve(num_sets);
  for (std::size_t i = 0; i < num_sets; ++i) {
    const LayerAssignment& set = mapping.sets[i];
    const SetCost cost = set_cost(set);
    summary.analytic.compute += cost.latency.compute;
    summary.analytic.intra_set += cost.latency.intra_set;
    summary.memory_ok = summary.memory_ok && cost.memory_ok;
    summary.worst_set_footprint =
        std::max(summary.worst_set_footprint, cost.footprint.total());
    set_latencies.push_back(cost.latency.total());

    for (std::size_t j = i + 1; j < num_sets; ++j) {
      const Bytes bytes = crossing[i * num_sets + j];
      if (bytes.count() > 0.0) {
        summary.analytic.inter_set +=
            inter_set_time(set.accs, mapping.sets[j].accs, bytes);
      }
    }
  }

  // Host I/O component totals (also folded into the makespan).
  const LayerAssignment& last = mapping.sets.back();
  summary.analytic.host_io +=
      problem_->topo->min_host_bandwidth(mapping.sets.front().accs)
          .transfer_time(spine.input_bytes()) +
      problem_->sim_params.link_latency;
  summary.analytic.host_io +=
      problem_->topo->min_host_bandwidth(last.accs)
          .transfer_time(spine.output_bytes()) +
      problem_->sim_params.link_latency;

  summary.analytic_makespan = aggregate_makespan(mapping.sets, set_latencies);
  summary.energy = mapping_energy(mapping);
  return summary;
}

}  // namespace mars::core
