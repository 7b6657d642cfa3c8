#include "mars/core/skeleton_space.h"

#include <algorithm>

#include "mars/core/baseline.h"
#include "mars/util/error.h"
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
      memo_misses_(&metrics_.counter("search.space.memo.misses")),
      record_hits_(&metrics_.counter("search.space.records.hits")),
      record_misses_(&metrics_.counter("search.space.records.misses")),
      record_evictions_(&metrics_.counter("search.space.records.evictions")),
      delta_unchanged_(&metrics_.counter("search.space.delta.unchanged")),
      delta_bails_(&metrics_.counter("search.space.delta.bails")) {}

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

void SkeletonSpace::probe(PriceBatch& batch, const LayerAssignment& set,
                          std::size_t s, std::vector<Seconds>& latencies,
                          std::vector<std::size_t>& pending) const {
  if (const SecondLevelResult* hit =
          batch.probe(key_of(set), [&set] { return &set; })) {
    latencies[s] = hit->cost.penalized;
  } else {
    pending.push_back(s);
  }
}

void SkeletonSpace::price(PriceBatch& batch, util::WorkerPool* pool) {
  memo_hits_->add(batch.hits());
  memo_misses_->add(batch.misses());
  batch.publish(
      [this](const LayerAssignment* set) { return second_.greedy(*set); },
      pool);
}

std::vector<std::vector<Seconds>> SkeletonSpace::price_batch(
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
      probe(batch, sets[s], s, latencies[i], pending[i]);
    }
  }
  price(batch, pool);
  for (std::size_t i = 0; i < skeletons.size(); ++i) {
    for (const std::size_t s : pending[i]) {
      latencies[i][s] = cache_.at(key_of(skeletons[i].sets[s])).cost.penalized;
    }
  }
  return latencies;
}

std::vector<double> SkeletonSpace::fitness_batch(
    const std::vector<Skeleton>& skeletons, util::WorkerPool* pool) {
  const std::vector<std::vector<Seconds>> latencies =
      price_batch(skeletons, pool);
  std::vector<double> fitnesses;
  fitnesses.reserve(skeletons.size());
  for (std::size_t i = 0; i < skeletons.size(); ++i) {
    fitnesses.push_back(evaluator_.analytical()
                            .aggregate_makespan(skeletons[i].sets, latencies[i])
                            .count());
  }
  return fitnesses;
}

std::vector<Skeleton> SkeletonSpace::decode_batch(
    const std::vector<ga::Genome>& genomes, util::WorkerPool* pool,
    std::vector<FirstLevelCodec::DecodeTrace>* traces) const {
  std::vector<Skeleton> skeletons(genomes.size());
  if (traces != nullptr) traces->resize(genomes.size());
  const auto decode = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      skeletons[i] = codec_.decode(
          genomes[i], traces != nullptr ? &(*traces)[i] : nullptr);
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
  // Decode with traces so every priced genome leaves an EvalRecord behind:
  // a later fitness_delta_batch() generation can then mutate any member of
  // this cohort incrementally.
  std::vector<FirstLevelCodec::DecodeTrace> traces;
  std::vector<Skeleton> skeletons = decode_batch(genomes, pool, &traces);
  std::vector<std::vector<Seconds>> latencies = price_batch(skeletons, pool);
  std::vector<double> fitnesses(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    fitnesses[i] = evaluator_.analytical()
                       .aggregate_makespan(skeletons[i].sets, latencies[i])
                       .count();
    remember(genomes[i], std::make_shared<const EvalPayload>(EvalPayload{
                             std::move(traces[i]), std::move(skeletons[i]),
                             std::move(latencies[i]), fitnesses[i]}));
  }
  return fitnesses;
}

std::vector<double> SkeletonSpace::fitness_delta_batch(
    const std::vector<ga::Genome>& parents,
    const std::vector<ga::Genome>& children,
    const std::vector<GenomeDelta>& deltas, util::WorkerPool* pool) {
  MARS_CHECK_ARG(children.size() == deltas.size(),
                 "one GenomeDelta per child required");
  const std::size_t n = children.size();

  // Phase 1 (serial): decode each child — incrementally when its parent's
  // record is on hand — and probe one PriceBatch, as price_batch does.
  // When retrace() reports the move left the decode trace untouched (the
  // common case for small engine moves), the child's skeleton is the
  // parent's, so the whole evaluation short-circuits: every set is a hit
  // and the fitness is the parent's double verbatim — exactly what
  // re-aggregating the identical sets and latencies would return — and
  // the child's record aliases the parent payload without assembling,
  // copying, or aggregating anything. For genuinely changed
  // skeletons, boundary moves shift only the sets between the two touched
  // entries, so the positionally unchanged prefix and suffix of the set
  // list reuse the parent's latencies and are charged as hits outright:
  // records only describe published skeletons and the cache never evicts,
  // so the full path would find those keys in cache_ too. Parent payloads
  // are held by shared_ptr, so a records_ eviction inside remember()
  // cannot invalidate them.
  std::vector<Skeleton> skeletons(n);
  std::vector<FirstLevelCodec::DecodeTrace> traces(n);
  std::vector<char> unchanged(n, 0);
  std::vector<std::vector<Seconds>> latencies(n);
  std::vector<std::vector<std::size_t>> pending(n);
  std::vector<EvalRecord> parent_records(parents.size());
  std::vector<char> parent_looked(parents.size(), 0);
  PriceBatch batch(cache_);
  const auto same_key = [](const LayerAssignment& a, const LayerAssignment& b) {
    return key_of(a) == key_of(b);
  };
  for (std::size_t i = 0; i < n; ++i) {
    MARS_CHECK_ARG(deltas[i].parent < parents.size(),
                   "delta parent index " << deltas[i].parent
                                         << " outside a cohort of "
                                         << parents.size());
    // recall() once per distinct parent: records_ cannot change before
    // phase 3, and the shared_ptr keeps every looked-up payload alive.
    const std::size_t p = deltas[i].parent;
    if (!parent_looked[p]) {
      parent_records[p] = recall(parents[p]);
      parent_looked[p] = 1;
    }
    const EvalPayload* record = parent_records[p].get();
    // A move touching more than a quarter of the genome is not incremental
    // (e.g. a crossover between diverged parents): retrace and set matching
    // would almost surely recompute everything and their bookkeeping would
    // be pure overhead, so price it through the identical full-decode
    // subpath instead.
    if (record != nullptr &&
        deltas[i].changed.size() * 4 >
            static_cast<std::size_t>(codec_.genome_size())) {
      record = nullptr;
      delta_bails_->add();
    }
    if (record == nullptr) {
      skeletons[i] = codec_.decode(children[i], &traces[i]);
    } else {
      FirstLevelCodec::Retrace rt = codec_.retrace(
          children[i], parents[p], record->trace, deltas[i].changed);
      if (rt.same) {
        // Identical trace, hence identical skeleton: S cache hits and the
        // parent's fitness, with no assembly or aggregation.
        memo_hits_->add(static_cast<long long>(record->skeleton.sets.size()));
        unchanged[i] = 1;
        delta_unchanged_->add();
        continue;
      }
      traces[i] = std::move(rt.trace);
      skeletons[i] = codec_.assemble(traces[i]);
    }

    const auto& sets = skeletons[i].sets;
    const std::size_t count = sets.size();
    latencies[i].resize(count);
    std::size_t prefix = 0;
    std::size_t suffix = 0;
    if (record != nullptr) {
      const auto& psets = record->skeleton.sets;
      const std::size_t overlap = std::min(count, psets.size());
      while (prefix < overlap && same_key(sets[prefix], psets[prefix])) {
        latencies[i][prefix] = record->latencies[prefix];
        ++prefix;
      }
      while (suffix < overlap - prefix &&
             same_key(sets[count - 1 - suffix],
                      psets[psets.size() - 1 - suffix])) {
        latencies[i][count - 1 - suffix] =
            record->latencies[psets.size() - 1 - suffix];
        ++suffix;
      }
      memo_hits_->add(static_cast<long long>(prefix + suffix));
    }
    for (std::size_t s = prefix; s < count - suffix; ++s) {
      probe(batch, sets[s], s, latencies[i], pending[i]);
    }
  }

  // Phases 2-3: price and publish the new keys, then aggregate.
  // Parent-matched sets reuse the recorded latency — the exact double
  // copied out of the same cache entry — and everything else reads the
  // warm cache.
  price(batch, pool);
  std::vector<double> fitnesses(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (unchanged[i]) {
      // Same sets, same latencies — the aggregate is the parent's double,
      // and the child's record is the parent payload itself.
      const EvalRecord& record = parent_records[deltas[i].parent];
      fitnesses[i] = record->fitness;
      remember(children[i], record);
      continue;
    }
    for (const std::size_t s : pending[i]) {
      latencies[i][s] = cache_.at(key_of(skeletons[i].sets[s])).cost.penalized;
    }
    fitnesses[i] = evaluator_.analytical()
                       .aggregate_makespan(skeletons[i].sets, latencies[i])
                       .count();
    remember(children[i], std::make_shared<const EvalPayload>(EvalPayload{
                              std::move(traces[i]), std::move(skeletons[i]),
                              std::move(latencies[i]), fitnesses[i]}));
  }
  return fitnesses;
}

SkeletonSpace::EvalRecord SkeletonSpace::recall(const ga::Genome& genome) const {
  if (records_.empty()) {
    record_misses_->add();
    return nullptr;
  }
  const RecordSlot& slot = records_[GenomeHash{}(genome) % kRecordSlots];
  if (slot.record != nullptr && slot.genome == genome) {
    record_hits_->add();
    return slot.record;
  }
  record_misses_->add();
  return nullptr;
}

void SkeletonSpace::remember(const ga::Genome& genome, EvalRecord record) {
  if (records_.empty()) records_.resize(kRecordSlots);
  RecordSlot& slot = records_[GenomeHash{}(genome) % kRecordSlots];
  if (slot.record != nullptr && !(slot.genome == genome)) {
    record_evictions_->add();  // direct-mapped collision overwrites the slot
  }
  slot.genome = genome;  // assignment reuses the slot's capacity
  slot.record = std::move(record);
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
