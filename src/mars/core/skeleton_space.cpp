#include "mars/core/skeleton_space.h"

#include <algorithm>

#include "mars/core/baseline.h"
#include "mars/util/memo_batch.h"

namespace mars::core {
namespace {

std::vector<topology::AccSetCandidate> trivial_candidates(
    const topology::Topology& topo, topology::AccMask within) {
  std::vector<topology::AccSetCandidate> out;
  for (topology::AccMask component : topo.components_above(within, Bandwidth(0.0))) {
    out.push_back({component, topo.min_internal_bandwidth(component)});
  }
  for (topology::AccId id = 0; id < topo.size(); ++id) {
    const topology::AccMask mask = topology::mask_of(id);
    if ((mask & within) == 0) continue;
    if (std::none_of(out.begin(), out.end(), [&](const auto& c) {
          return c.mask == mask;
        })) {
      out.push_back({mask, topo.min_internal_bandwidth(mask)});
    }
  }
  return out;
}

}  // namespace

SkeletonSpace::SkeletonSpace(const Problem& problem, const Config& config)
    : problem_(&problem),
      config_(config),
      profile_(*problem.designs, *problem.spine),
      candidates_(config.heuristic_candidates
                      ? topology::accset_candidates(*problem.topo,
                                                    problem.placement_mask())
                      : trivial_candidates(*problem.topo, problem.placement_mask())),
      codec_(problem, candidates_),
      second_(problem, config.second, &metrics_),
      evaluator_(problem),
      memo_hits_(&metrics_.counter("search.space.memo.hits")),
      memo_misses_(&metrics_.counter("search.space.memo.misses")) {}

SkeletonSpace::~SkeletonSpace() {
  if (obs::MetricsRegistry* global = obs::metrics()) {
    metrics_.flush_to(*global);
  }
}

const SecondLevelResult& SkeletonSpace::second_level_for(
    const LayerAssignment& skeleton) {
  const CacheKey key = key_of(skeleton);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    memo_hits_->add();
    return it->second;
  }
  memo_misses_->add();
  return cache_.emplace(key, second_.greedy(skeleton)).first->second;
}

double SkeletonSpace::fitness(const Skeleton& skeleton) {
  // Per-set penalized latencies aggregated over the set dependency DAG
  // (models branch overlap for multi-stream workloads).
  std::vector<Seconds> latencies;
  latencies.reserve(skeleton.sets.size());
  for (const LayerAssignment& set : skeleton.sets) {
    latencies.push_back(second_level_for(set).cost.penalized);
  }
  return evaluator_.analytical()
      .aggregate_makespan(skeleton.sets, latencies)
      .count();
}

SkeletonSpace::CacheKey SkeletonSpace::key_of(const LayerAssignment& set) {
  return CacheKey{set.begin, set.end, set.accs, set.design};
}

std::vector<double> SkeletonSpace::fitness_batch(
    const std::vector<Skeleton>& skeletons, util::WorkerPool* pool) {
  // Memo hits read their latency during the probe; slots priced by this
  // batch wait in `pending` and are read back from the warm cache.
  PriceBatch batch(cache_);
  std::vector<std::vector<Seconds>> latencies(skeletons.size());
  std::vector<std::vector<std::size_t>> pending(skeletons.size());
  for (std::size_t i = 0; i < skeletons.size(); ++i) {
    const auto& sets = skeletons[i].sets;
    latencies[i].resize(sets.size());
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const LayerAssignment& set = sets[s];
      if (const SecondLevelResult* hit =
              batch.probe(key_of(set), [&set] { return &set; })) {
        latencies[i][s] = hit->cost.penalized;
      } else {
        pending[i].push_back(s);
      }
    }
  }
  memo_hits_->add(batch.hits());
  memo_misses_->add(batch.misses());
  batch.publish(
      [this](const LayerAssignment* set) { return second_.greedy(*set); },
      pool);

  std::vector<double> fitnesses;
  fitnesses.reserve(skeletons.size());
  for (std::size_t i = 0; i < skeletons.size(); ++i) {
    for (const std::size_t s : pending[i]) {
      latencies[i][s] = cache_.at(key_of(skeletons[i].sets[s])).cost.penalized;
    }
    fitnesses.push_back(evaluator_.analytical()
                            .aggregate_makespan(skeletons[i].sets, latencies[i])
                            .count());
  }
  return fitnesses;
}

std::vector<Skeleton> SkeletonSpace::decode_batch(
    const std::vector<ga::Genome>& genomes, util::WorkerPool* pool) const {
  std::vector<Skeleton> skeletons(genomes.size());
  const auto decode = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      skeletons[i] = codec_.decode(genomes[i]);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(genomes.size(), decode);
  } else {
    decode(0, genomes.size());
  }
  return skeletons;
}

std::vector<double> SkeletonSpace::fitness_batch(
    const std::vector<ga::Genome>& genomes, util::WorkerPool* pool) {
  return fitness_batch(decode_batch(genomes, pool), pool);
}

Mapping SkeletonSpace::complete(const Skeleton& skeleton) {
  Mapping mapping;
  for (const LayerAssignment& set : skeleton.sets) {
    LayerAssignment full = set;
    full.strategies = second_level_for(set).strategies;
    mapping.sets.push_back(std::move(full));
  }
  return mapping;
}

void SkeletonSpace::polish(Mapping& mapping, Rng& rng) const {
  for (LayerAssignment& set : mapping.sets) {
    LayerAssignment skeleton = set;
    skeleton.strategies.clear();
    Rng child = rng.fork();
    const SecondLevelResult refined =
        second_.refine(skeleton, child, &set.strategies);
    // Keep the better of greedy and refined (the GA is seeded with the
    // greedy solution, so this only guards decode drift).
    LayerAssignment trial = set;
    trial.strategies = refined.strategies;
    if (evaluator_.analytical().set_cost(trial).penalized <=
        evaluator_.analytical().set_cost(set).penalized) {
      set.strategies = refined.strategies;
    }
  }
}

Skeleton SkeletonSpace::baseline() const {
  return baseline_skeleton(*problem_, profile_);
}

}  // namespace mars::core
