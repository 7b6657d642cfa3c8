#include "mars/core/second_level.h"

#include <algorithm>
#include <numeric>

#include "mars/util/error.h"

namespace mars::core {
namespace {

// Dims ordered by a 6-gene priority block, descending.
std::vector<parallel::Dim> dims_by_priority(const double* genes) {
  std::vector<int> order(parallel::kNumDims);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return genes[a] > genes[b]; });
  std::vector<parallel::Dim> dims;
  dims.reserve(order.size());
  for (int index : order) dims.push_back(parallel::kAllDims[static_cast<std::size_t>(index)]);
  return dims;
}

}  // namespace

SecondLevelSearch::SecondLevelSearch(const Problem& problem,
                                     SecondLevelConfig config,
                                     obs::MetricsRegistry* metrics)
    : problem_(&problem),
      config_(config),
      model_(problem),
      tables_(std::make_unique<SizeTable[]>(
          static_cast<std::size_t>(problem.topo->size()) + 1)) {
  if (metrics != nullptr) {
    options_priced_ = &metrics->counter("search.second.options_priced");
    plans_built_ = &metrics->counter("search.second.plans_built");
  }
  const graph::ConvSpine& spine = *problem.spine;
  shape_index_.reserve(static_cast<std::size_t>(spine.size()));
  for (int layer = 0; layer < spine.size(); ++layer) {
    const graph::ConvShape& shape = spine.node(layer).shape;
    const auto it =
        std::find(distinct_shapes_.begin(), distinct_shapes_.end(), shape);
    shape_index_.push_back(static_cast<int>(it - distinct_shapes_.begin()));
    if (it == distinct_shapes_.end()) distinct_shapes_.push_back(shape);
  }
}

const SecondLevelSearch::SizeTable& SecondLevelSearch::table_for(int p) const {
  MARS_CHECK_ARG(p >= 1 && p <= problem_->topo->size(),
                 "set size " << p << " outside the topology");
  SizeTable& table = tables_[static_cast<std::size_t>(p)];
  std::call_once(table.built, [&] {
    const graph::DataType dtype = problem_->spine->dtype();
    const accel::DesignRegistry& designs = *problem_->designs;
    long long plans = 0;
    table.shapes.resize(distinct_shapes_.size());
    for (std::size_t s = 0; s < distinct_shapes_.size(); ++s) {
      const graph::ConvShape& shape = distinct_shapes_[s];
      ShapeOptions& entry = table.shapes[s];
      entry.options =
          parallel::enumerate_strategies(shape, p, config_.max_es_dims);
      if (!config_.enable_ss) {
        std::erase_if(entry.options,
                      [](const parallel::Strategy& option) { return option.has_ss(); });
      }
      entry.plans.reserve(entry.options.size());
      entry.phase_latency.reserve(entry.options.size() *
                                  static_cast<std::size_t>(designs.size()));
      for (const parallel::Strategy& option : entry.options) {
        const parallel::ShardingPlan plan =
            parallel::make_plan(shape, dtype, option, p);
        entry.plans.emplace_back(plan);
        for (accel::DesignId d = 0; d < designs.size(); ++d) {
          entry.phase_latency.push_back(
              designs.design(d).conv_latency(plan.local, dtype));
        }
      }
      plans += static_cast<long long>(entry.options.size());
    }
    if (plans_built_ != nullptr) plans_built_->add(plans);
  });
  return table;
}

parallel::Strategy SecondLevelSearch::decode_layer(const graph::ConvShape& shape,
                                                   int p,
                                                   const double* genes) const {
  if (p <= 1) return parallel::Strategy{};

  const std::vector<std::vector<int>> facts =
      parallel::factorizations(p, config_.max_es_dims);
  MARS_CHECK(!facts.empty(), "no factorization for p=" << p);
  const auto k = static_cast<int>(facts.size());
  const int preferred =
      std::min(static_cast<int>(genes[0] * k), k - 1);
  const std::vector<parallel::Dim> es_order = dims_by_priority(genes + 2);

  // Try factorizations starting at the gene-selected one; assign factors
  // (non-increasing) to the highest-priority dims that can hold them.
  std::vector<parallel::DimSplit> es;
  bool assigned = false;
  for (int attempt = 0; attempt < k && !assigned; ++attempt) {
    const std::vector<int>& factors =
        facts[static_cast<std::size_t>((preferred + attempt) % k)];
    es.clear();
    int used = 0;
    for (int factor : factors) {
      bool placed = false;
      for (parallel::Dim dim : es_order) {
        const int bit = 1 << static_cast<int>(dim);
        if ((used & bit) != 0) continue;
        if (parallel::dim_extent(shape, dim) < factor) continue;
        es.push_back({dim, factor});
        used |= bit;
        placed = true;
        break;
      }
      if (!placed) break;
    }
    assigned = es.size() == factors.size();
  }
  if (!assigned) {
    // Last resort: the whole split on the widest dim.
    parallel::Dim widest = parallel::Dim::kCout;
    for (parallel::Dim dim : parallel::kAllDims) {
      if (parallel::dim_extent(shape, dim) >
          parallel::dim_extent(shape, widest)) {
        widest = dim;
      }
    }
    MARS_CHECK(parallel::dim_extent(shape, widest) >= p,
               "layer " << graph::to_string(shape)
                        << " cannot be split across " << p << " accelerators");
    es = {{widest, p}};
  }

  parallel::Strategy base{es, std::nullopt};
  if (!config_.enable_ss || genes[1] <= 0.5) return base;

  // SS dim: highest SS-priority dim outside ES that can host p shards.
  for (parallel::Dim dim : dims_by_priority(genes + 8)) {
    if (base.ways_of(dim) > 1) continue;
    parallel::Strategy with_ss{es, dim};
    if (with_ss.fits(shape, p)) return with_ss;
  }
  return base;
}

std::vector<parallel::Strategy> SecondLevelSearch::decode_all(
    const LayerAssignment& skeleton, const ga::Genome& genome) const {
  const int p = skeleton.num_accs();
  std::vector<parallel::Strategy> strategies;
  strategies.reserve(static_cast<std::size_t>(skeleton.num_layers()));
  for (int layer = skeleton.begin; layer < skeleton.end; ++layer) {
    const double* genes =
        genome.data() +
        static_cast<std::size_t>(layer - skeleton.begin) * kGenesPerLayer;
    strategies.push_back(
        decode_layer(problem_->spine->node(layer).shape, p, genes));
  }
  return strategies;
}

SecondLevelResult SecondLevelSearch::greedy(const LayerAssignment& skeleton) const {
  const int p = skeleton.num_accs();
  const int num_layers = skeleton.num_layers();
  const Bandwidth internal_bw =
      problem_->topo->min_internal_bandwidth(skeleton.accs);
  const SizeTable& table = table_for(p);
  const auto num_designs = static_cast<std::size_t>(problem_->designs->size());
  const auto entry_of = [&](int layer) -> const ShapeOptions& {
    return table.shapes[static_cast<std::size_t>(
        shape_index_[static_cast<std::size_t>(layer)])];
  };
  // layer_cost(...).total() of option i, read from the table.
  const auto price = [&](const ShapeOptions& entry, std::size_t i,
                         const graph::ConvShape& shape, Seconds fused,
                         const std::optional<parallel::ActivationSharding>& upstream) {
    const Seconds* latency = entry.phase_latency.data() + i * num_designs;
    // phase_compute_time's value, with conv_latency read from the table.
    const Seconds phase = model_.slowest(skeleton, [&](accel::DesignId d) {
      return latency[static_cast<std::size_t>(d)];
    });
    const PlanRecord& plan = entry.plans[i];
    const Seconds compute = phase * static_cast<double>(plan.phases) + fused;
    return compute + model_.intra_set_time(shape, p, internal_bw, plan, upstream);
  };

  SecondLevelResult result;
  result.strategies.reserve(static_cast<std::size_t>(num_layers));
  std::vector<Bytes> resident;  // weight residency of each greedy pick
  resident.reserve(static_cast<std::size_t>(num_layers));
  long long priced = 0;
  std::optional<parallel::ActivationSharding> upstream;
  for (int layer = skeleton.begin; layer < skeleton.end; ++layer) {
    const graph::ConvShape& shape = problem_->spine->node(layer).shape;
    const ShapeOptions& entry = entry_of(layer);
    MARS_CHECK(!entry.options.empty(), "no valid strategy for layer "
                                           << problem_->spine->node(layer).name
                                           << " on " << p << " accelerators");
    // fused_time also validates the set's design id before the lookups.
    const Seconds fused = model_.fused_time(skeleton, layer, p);
    std::size_t best = 0;
    Seconds best_time(0.0);
    for (std::size_t i = 0; i < entry.options.size(); ++i) {
      const Seconds time = price(entry, i, shape, fused, upstream);
      if (i == 0 || time < best_time) {
        best = i;
        best_time = time;
      }
    }
    priced += static_cast<long long>(entry.options.size());
    result.strategies.push_back(entry.options[best]);
    resident.push_back(entry.plans[best].weight_resident);
    upstream = entry.plans[best].produced;
  }

  LayerAssignment full = skeleton;
  full.strategies = result.strategies;
  result.cost = model_.set_cost(full, internal_bw);
  long long plans = num_layers;  // set_cost builds one plan per layer

  // Memory repair: the latency-greedy pass ignores DRAM residency. When
  // the set does not fit, re-pick strategies for the heaviest layers,
  // minimising per-accelerator weight residency (ties by latency) — this
  // is where shared shards earn their keep (Section IV: SS relieves the
  // memory burden by keeping only a rotating 1/p shard resident).
  if (!result.cost.memory_ok && p > 1) {
    std::vector<int> order(static_cast<std::size_t>(num_layers));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return resident[static_cast<std::size_t>(a)] >
             resident[static_cast<std::size_t>(b)];
    });
    const std::optional<parallel::ActivationSharding> entry_scatter;
    for (int index : order) {
      const int layer = skeleton.begin + index;
      const graph::ConvShape& shape = problem_->spine->node(layer).shape;
      const ShapeOptions& entry = entry_of(layer);
      const Seconds fused = model_.fused_time(skeleton, layer, p);
      std::size_t lightest = 0;
      Bytes lightest_bytes{};
      Seconds lightest_time{};
      for (std::size_t i = 0; i < entry.options.size(); ++i) {
        const Bytes bytes = entry.plans[i].weight_resident;
        const Seconds time = price(entry, i, shape, fused, entry_scatter);
        if (i == 0 || bytes < lightest_bytes ||
            (bytes == lightest_bytes && time < lightest_time)) {
          lightest = i;
          lightest_bytes = bytes;
          lightest_time = time;
        }
      }
      priced += static_cast<long long>(entry.options.size());
      result.strategies[static_cast<std::size_t>(index)] = entry.options[lightest];
      full.strategies = result.strategies;
      result.cost = model_.set_cost(full, internal_bw);
      plans += num_layers;
      if (result.cost.memory_ok) break;
    }
  }
  if (options_priced_ != nullptr) options_priced_->add(priced);
  if (plans_built_ != nullptr) plans_built_->add(plans);
  return result;
}

SecondLevelResult SecondLevelSearch::refine(
    const LayerAssignment& skeleton, Rng& rng,
    const std::vector<parallel::Strategy>* seed_strategies,
    ga::GaResult* ga_out) const {
  const int genome_size = kGenesPerLayer * skeleton.num_layers();
  ga::GaEngine engine(config_.ga, genome_size);

  auto fitness = [&](const ga::Genome& genome) {
    LayerAssignment candidate = skeleton;
    candidate.strategies = decode_all(skeleton, genome);
    return model_.set_cost(candidate).penalized.count();
  };

  // Seed: encode the provided strategies (or the greedy solution) as genes
  // that decode back to themselves.
  std::vector<parallel::Strategy> seed =
      seed_strategies != nullptr ? *seed_strategies : greedy(skeleton).strategies;
  ga::Genome seed_genome(static_cast<std::size_t>(genome_size), 0.1);
  const int p = skeleton.num_accs();
  const std::vector<std::vector<int>> facts =
      parallel::factorizations(std::max(p, 2), config_.max_es_dims);
  for (int layer = skeleton.begin; layer < skeleton.end; ++layer) {
    const std::size_t base =
        static_cast<std::size_t>(layer - skeleton.begin) * kGenesPerLayer;
    const parallel::Strategy& strategy =
        seed[static_cast<std::size_t>(layer - skeleton.begin)];
    // Factorization selector: find the multiset of ES ways.
    std::vector<int> ways;
    for (const parallel::DimSplit& split : strategy.es()) ways.push_back(split.ways);
    std::sort(ways.begin(), ways.end(), std::greater<>());
    for (std::size_t f = 0; f < facts.size(); ++f) {
      if (facts[f] == ways) {
        seed_genome[base] = (static_cast<double>(f) + 0.5) / facts.size();
        break;
      }
    }
    seed_genome[base + 1] = strategy.has_ss() ? 0.9 : 0.1;
    // ES priorities: rank split dims by ways (larger first).
    double priority = 1.0;
    std::vector<parallel::DimSplit> splits = strategy.es();
    std::sort(splits.begin(), splits.end(),
              [](const parallel::DimSplit& a, const parallel::DimSplit& b) {
                return a.ways > b.ways;
              });
    for (const parallel::DimSplit& split : splits) {
      seed_genome[base + 2 + static_cast<std::size_t>(split.dim)] = priority;
      priority -= 0.15;
    }
    if (strategy.has_ss()) {
      seed_genome[base + 8 + static_cast<std::size_t>(*strategy.ss())] = 1.0;
    }
  }

  const ga::GaResult ga_result = engine.minimize(fitness, rng, {seed_genome});
  if (ga_out != nullptr) *ga_out = ga_result;

  SecondLevelResult result;
  result.strategies = decode_all(skeleton, ga_result.best);
  LayerAssignment full = skeleton;
  full.strategies = result.strategies;
  result.cost = model_.set_cost(full);
  return result;
}

}  // namespace mars::core
