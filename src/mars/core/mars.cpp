#include "mars/core/mars.h"

#include <algorithm>
#include <memory>

#include "mars/util/error.h"
#include "mars/util/logging.h"
#include "mars/util/worker_pool.h"

namespace mars::core {

void validate_config(const MarsConfig& config) {
  ga::validate_config(config.first_ga);
  ga::validate_config(config.second.ga);
  MARS_CHECK_ARG(config.second.max_es_dims >= 1,
                 "second-level max_es_dims must be >= 1, got "
                     << config.second.max_es_dims);
  MARS_CHECK_ARG(config.threads >= 1,
                 "threads must be >= 1, got " << config.threads);
}

Mars::Mars(const Problem& problem, MarsConfig config)
    : problem_(&problem),
      config_(config),
      space_(problem, {config.second, config.heuristic_candidates}) {
  validate_config(config);
}

MarsResult Mars::search(const ga::StopFn& stop) {
  Rng rng(config_.seed);
  const std::vector<double> scores = space_.design_scores();
  const FirstLevelCodec& codec = space_.codec();
  // Shared fitness pool for either GA level arrangement; threads == 1
  // builds none, and the batch paths then run single-threaded.
  std::unique_ptr<util::WorkerPool> pool;
  if (config_.threads > 1) {
    pool = std::make_unique<util::WorkerPool>(config_.threads);
  }

  MarsResult result;
  if (config_.two_level) {
    ga::GaEngine engine(config_.first_ga, codec.genome_size());
    std::vector<ga::Genome> seeds;
    if (config_.seed_baseline) {
      seeds.push_back(codec.encode(space_.baseline(), scores));
    }
    if (config_.profiled_init) {
      const int extra = std::max(1, config_.first_ga.population / 4);
      for (int i = 0; i < extra; ++i) {
        seeds.push_back(codec.profiled_random(scores, rng));
      }
    }
    auto fitness = [&](const ga::Genome& genome) {
      return space_.fitness(codec.decode(genome));
    };
    // Cohorts always go through fitness_batch, with a null pool at
    // threads == 1. It returns exactly the serial values, so the search
    // itself is byte-identical at any thread count.
    ga::BatchFitnessFn batch = [&](const std::vector<ga::Genome>& genomes) {
      return space_.fitness_batch(genomes, pool.get());
    };
    result.first_level = engine.minimize(fitness, rng, seeds, stop, batch);

    Skeleton winner = codec.decode(result.first_level.best);
    result.mapping = space_.complete(winner);

    // Skip the polish pass when the caller's budget is already spent —
    // a cancelled search should return as soon as it has a valid mapping.
    const bool budget_spent =
        stop && stop(result.first_level.evaluations,
                     result.first_level.best_fitness);
    if (config_.refine_winner && !budget_spent) {
      space_.polish(result.mapping, rng);
    }
  } else {
    // Flat single-level ablation: one genome decides sets AND strategies.
    const int skeleton_genes = codec.genome_size();
    const int strategy_genes =
        SecondLevelSearch::kGenesPerLayer * problem_->spine->size();
    ga::GaEngine engine(config_.first_ga, skeleton_genes + strategy_genes);

    auto decode_flat = [&](const ga::Genome& genome) {
      const ga::Genome head(genome.begin(), genome.begin() + skeleton_genes);
      const Skeleton skeleton = codec.decode(head);
      Mapping mapping;
      for (const LayerAssignment& set : skeleton.sets) {
        LayerAssignment full = set;
        for (int l = set.begin; l < set.end; ++l) {
          const double* genes =
              genome.data() + skeleton_genes +
              static_cast<std::size_t>(l) * SecondLevelSearch::kGenesPerLayer;
          full.strategies.push_back(space_.second().decode_layer(
              problem_->spine->node(l).shape, set.num_accs(), genes));
        }
        mapping.sets.push_back(std::move(full));
      }
      return mapping;
    };
    const AnalyticalCostModel& analytical = space_.evaluator().analytical();
    auto fitness = [&](const ga::Genome& genome) {
      const Mapping mapping = decode_flat(genome);
      std::vector<Seconds> latencies;
      latencies.reserve(mapping.sets.size());
      for (const LayerAssignment& set : mapping.sets) {
        latencies.push_back(analytical.set_cost(set).penalized);
      }
      return analytical.aggregate_makespan(mapping.sets, latencies).count();
    };
    // Flat fitness touches no shared mutable state (no memo cache), so
    // the batch is a plain parallel map over the cohort.
    ga::BatchFitnessFn batch;
    if (pool) {
      batch = [&](const std::vector<ga::Genome>& genomes) {
        std::vector<double> values(genomes.size());
        pool->parallel_for(genomes.size(),
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               values[i] = fitness(genomes[i]);
                             }
                           });
        return values;
      };
    }
    result.first_level = engine.minimize(fitness, rng, {}, stop, batch);
    result.mapping = decode_flat(result.first_level.best);
  }

  result.summary = space_.evaluator().evaluate(result.mapping);
  result.second_level_hits = space_.cache_hits();
  result.second_level_misses = space_.cache_misses();
  MARS_INFO << "MARS search done: simulated "
            << result.summary.simulated.millis() << " ms, "
            << result.mapping.sets.size() << " sets, cache "
            << result.second_level_hits << '/'
            << (result.second_level_hits + result.second_level_misses);
  return result;
}

}  // namespace mars::core
