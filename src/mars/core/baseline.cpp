#include "mars/core/baseline.h"

#include <algorithm>
#include <numeric>

#include "mars/util/error.h"

namespace mars::core {

Skeleton baseline_skeleton(const Problem& problem,
                           const accel::ProfileMatrix& profile) {
  problem.validate();
  const topology::Topology& topo = *problem.topo;
  const topology::AccMask placement = problem.placement_mask();

  // The two groups: direct-link connected components, or a balanced
  // bisection when the system is one component. Confined to the problem's
  // placement mask so a co-mapped tenant's baseline stays inside its slice.
  std::vector<topology::AccMask> groups =
      topo.components_above(placement, Bandwidth(1.0));
  if (groups.size() == 1 && topology::mask_count(placement) >= 2) {
    const std::vector<topology::AccId> members =
        topology::mask_members(groups.front());
    topology::AccMask lo = 0;
    topology::AccMask hi = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      (i < members.size() / 2 ? lo : hi) |= topology::mask_of(members[i]);
    }
    groups = {lo, hi};
  }
  std::sort(groups.begin(), groups.end());
  MARS_CHECK(!groups.empty(), "topology has no groups");

  const int num_layers = problem.spine->size();
  const int num_groups = static_cast<int>(groups.size());

  Skeleton skeleton;
  int cursor = 0;
  for (int g = 0; g < num_groups; ++g) {
    LayerAssignment set;
    set.accs = groups[static_cast<std::size_t>(g)];
    set.begin = cursor;
    set.end = g + 1 == num_groups
                  ? num_layers
                  : std::min(num_layers, cursor + (num_layers + num_groups - 1) /
                                                      num_groups);
    if (set.end <= set.begin) continue;
    cursor = set.end;

    if (problem.adaptive) {
      // Lowest summed computation latency over the set's layers.
      accel::DesignId best = 0;
      double best_cycles = 0.0;
      for (accel::DesignId d = 0; d < problem.designs->size(); ++d) {
        double cycles = 0.0;
        for (int l = set.begin; l < set.end; ++l) cycles += profile.at(d, l).cycles;
        if (d == 0 || cycles < best_cycles) {
          best = d;
          best_cycles = cycles;
        }
      }
      set.design = best;
    }
    skeleton.sets.push_back(set);
  }
  MARS_CHECK(cursor == num_layers, "baseline failed to cover the spine");
  return skeleton;
}

parallel::Strategy baseline_strategy(const graph::ConvShape& shape, int p) {
  if (p <= 1) return parallel::Strategy{};

  // Dims ordered by extent, descending (stable on ties).
  std::vector<parallel::Dim> order(parallel::kAllDims.begin(),
                                   parallel::kAllDims.end());
  std::stable_sort(order.begin(), order.end(),
                   [&](parallel::Dim a, parallel::Dim b) {
                     return dim_extent(shape, a) > dim_extent(shape, b);
                   });

  // Prefer the most balanced two-factor split (4 -> 2x2, 8 -> 4x2); fall
  // back to a single split when a factor does not fit. (The second factor
  // is push_back'ed: GCC 12 at -O2 flags `factors = {p / f, f}` with a
  // false -Wstringop-overflow.)
  int smaller = 1;
  for (int f = static_cast<int>(std::sqrt(static_cast<double>(p))); f >= 2; --f) {
    if (p % f == 0) {
      smaller = f;
      break;
    }
  }
  std::vector<int> factors{p / smaller};
  if (smaller > 1) factors.push_back(smaller);

  std::vector<parallel::DimSplit> es;
  int used = 0;
  for (int factor : factors) {
    for (parallel::Dim dim : order) {
      const int bit = 1 << static_cast<int>(dim);
      if ((used & bit) != 0) continue;
      if (dim_extent(shape, dim) < factor) continue;
      es.push_back({dim, factor});
      used |= bit;
      break;
    }
  }
  if (static_cast<int>(es.size()) != static_cast<int>(factors.size()) ||
      parallel::Strategy(es, std::nullopt).es_ways() != p) {
    // Could not place the balanced split: put everything on the widest dim.
    for (parallel::Dim dim : order) {
      if (dim_extent(shape, dim) >= p) {
        es = {{dim, p}};
        break;
      }
    }
  }
  parallel::Strategy strategy{es, std::nullopt};
  MARS_CHECK(strategy.fits(shape, p), "baseline strategy failed to fit layer "
                                          << graph::to_string(shape) << " on "
                                          << p << " accelerators");
  return strategy;
}

Mapping baseline_mapping(const Problem& problem,
                         const accel::ProfileMatrix& profile) {
  const Skeleton skeleton = baseline_skeleton(problem, profile);
  Mapping mapping;
  for (const LayerAssignment& set : skeleton.sets) {
    LayerAssignment full = set;
    for (int l = set.begin; l < set.end; ++l) {
      full.strategies.push_back(
          baseline_strategy(problem.spine->node(l).shape, set.num_accs()));
    }
    mapping.sets.push_back(std::move(full));
  }
  return mapping;
}

}  // namespace mars::core
