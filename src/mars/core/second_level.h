// Second-level search: parallelism strategies for one (LayerSet, AccSet)
// sub-problem (Section V, green/blue boxes of Fig. 3).
//
// Two engines:
//  * greedy()  — deterministic forward pass: per layer, pick the strategy
//    minimising that layer's cost given the activation layout left by the
//    previous layer. Fast enough to serve as the first level's fitness
//    oracle (results are memoised by the caller).
//  * refine()  — the paper's genetic algorithm over per-layer priority
//    genes, seeded with the greedy solution; used to polish the winning
//    skeleton and for the Fig. 3 convergence bench.
//
// greedy() prices options from a lazily built option table keyed by
// (distinct layer shape, set size p): the enumerated strategies, a
// PlanRecord per strategy and the per-phase latency of every design, all
// of which depend on the shape and p alone. Each p is built once, on
// first use, behind a std::call_once, so concurrent greedy() calls on a
// WorkerPool are safe. Prices are bit-identical to pricing every option
// through AnalyticalCostModel::layer_cost.
#pragma once

#include <memory>
#include <mutex>

#include "mars/core/cost_model.h"
#include "mars/ga/engine.h"
#include "mars/obs/metrics.h"

namespace mars::core {

struct SecondLevelConfig {
  ga::GaConfig ga{.population = 24,
                  .generations = 25,
                  .elite = 2,
                  .tournament = 3,
                  .crossover_rate = 0.9,
                  .mutation_rate = 0.2,
                  .mutation_sigma = 0.3,
                  .stall_generations = 8};
  bool enable_ss = true;  // ablation A2 switches SS off
  int max_es_dims = 3;
};

struct SecondLevelResult {
  std::vector<parallel::Strategy> strategies;
  SetCost cost;
};

class SecondLevelSearch {
 public:
  /// Genes per layer: [factorization selector, SS enable,
  ///                   6 ES priorities, 6 SS priorities].
  static constexpr int kGenesPerLayer = 14;

  /// With `metrics`, greedy() counts into its `search.second.*` counters.
  SecondLevelSearch(const Problem& problem, SecondLevelConfig config,
                    obs::MetricsRegistry* metrics = nullptr);

  /// Deterministic decode of one layer's strategy from its gene block.
  [[nodiscard]] parallel::Strategy decode_layer(const graph::ConvShape& shape,
                                                int p,
                                                const double* genes) const;

  /// Forward-greedy strategy selection for `skeleton` (strategies ignored).
  [[nodiscard]] SecondLevelResult greedy(const LayerAssignment& skeleton) const;

  /// GA polish, seeded with `seed_strategies` when provided.
  [[nodiscard]] SecondLevelResult refine(
      const LayerAssignment& skeleton, Rng& rng,
      const std::vector<parallel::Strategy>* seed_strategies = nullptr,
      ga::GaResult* ga_out = nullptr) const;

  [[nodiscard]] const SecondLevelConfig& config() const { return config_; }
  [[nodiscard]] const AnalyticalCostModel& model() const { return model_; }

 private:
  /// Every greedy option of one distinct layer shape at one set size.
  struct ShapeOptions {
    std::vector<parallel::Strategy> options;  // enumerated, SS-filtered
    std::vector<PlanRecord> plans;            // plans[i] of options[i]
    /// conv_latency(plan.local) of options[i] on design d, at
    /// [i * num_designs + d].
    std::vector<Seconds> phase_latency;
  };
  /// The option table of one set size, indexed by distinct shape.
  struct SizeTable {
    std::once_flag built;
    std::vector<ShapeOptions> shapes;
  };

  [[nodiscard]] std::vector<parallel::Strategy> decode_all(
      const LayerAssignment& skeleton, const ga::Genome& genome) const;

  /// The table for set size p, built on first use.
  [[nodiscard]] const SizeTable& table_for(int p) const;

  const Problem* problem_;
  SecondLevelConfig config_;
  AnalyticalCostModel model_;
  obs::Counter* options_priced_ = nullptr;
  obs::Counter* plans_built_ = nullptr;
  /// Spine layer -> index into distinct_shapes_.
  std::vector<int> shape_index_;
  std::vector<graph::ConvShape> distinct_shapes_;
  /// One table per set size 1..topology size (index 0 unused).
  std::unique_ptr<SizeTable[]> tables_;
};

}  // namespace mars::core
