// The first-level search space, factored out of the search algorithm.
//
// Every mapper that explores skeletons (the two-level GA, simulated
// annealing, random sampling) needs the same machinery: the profiled
// design scores, the AccSet candidate family, the genome codec, the
// memoised second-level strategy search that prices a skeleton, and the
// completion/polish steps that turn the winning skeleton into a full
// Mapping. SkeletonSpace owns all of it so search engines reduce to
// their acceptance rule.
//
// Ownership: like Mars, a non-owning pointer to the Problem — the caller
// keeps the spine/topology/registry alive for this object's lifetime.
// fitness() memoises per (layer range, AccSet, design), so sharing one
// SkeletonSpace across a search amortises second-level work exactly as
// Mars::cache_ used to.
//
// Parallelism: fitness_batch() prices many skeletons at once through one
// util::MemoBatch (util/memo_batch.h), which fans the uncached
// second-level searches across a util::WorkerPool. The greedy oracle is a
// pure function of the cache key, so results and the hit/miss counters
// are byte-identical to serial evaluation.
#pragma once

#include <bit>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mars/accel/profiler.h"
#include "mars/core/evaluator.h"
#include "mars/core/first_level.h"
#include "mars/core/second_level.h"
#include "mars/obs/metrics.h"
#include "mars/util/fnv1a.h"

namespace mars::util {
class WorkerPool;
template <class Memo, class Input>
class MemoBatch;
}

namespace mars::core {

/// The move description fitness_delta_batch consumes — defined next to
/// the GA engine that emits it (see ga::GenomeDelta for the superset
/// contract on `changed`).
using GenomeDelta = ga::GenomeDelta;

class SkeletonSpace {
 public:
  struct Config {
    SecondLevelConfig second;
    /// Edge-removal/bisection AccSet candidates; when false (ablation A3)
    /// only the trivial family {full system} u {singletons} is offered.
    bool heuristic_candidates = true;
  };

  SkeletonSpace(const Problem& problem, const Config& config);
  /// Flushes the instance metrics into the installed global registry
  /// (obs::metrics()), when one is installed.
  ~SkeletonSpace();

  [[nodiscard]] const Problem& problem() const { return *problem_; }
  [[nodiscard]] const FirstLevelCodec& codec() const { return codec_; }
  [[nodiscard]] const accel::ProfileMatrix& profile() const { return profile_; }
  [[nodiscard]] const MappingEvaluator& evaluator() const { return evaluator_; }
  [[nodiscard]] const SecondLevelSearch& second() const { return second_; }
  [[nodiscard]] std::vector<double> design_scores() const {
    return profile_.design_scores();
  }

  /// Penalized analytic makespan of `skeleton` with second-level greedy
  /// strategies (memoised) — the fitness every skeleton search minimises.
  [[nodiscard]] double fitness(const Skeleton& skeleton);

  /// fitness() over a whole batch, priced through one util::MemoBatch:
  /// values, cache contents and counters equal a serial sweep at any
  /// thread count, and `pool == nullptr` runs single-threaded.
  [[nodiscard]] std::vector<double> fitness_batch(
      const std::vector<Skeleton>& skeletons, util::WorkerPool* pool = nullptr);

  /// decode + fitness_batch in one call — the shape every genome search
  /// (GA cohorts, anneal chains, random samples) prices with. The decode
  /// fans across the pool too (a pure function, so partitioning cannot
  /// change the result).
  [[nodiscard]] std::vector<double> fitness_batch(
      const std::vector<ga::Genome>& genomes, util::WorkerPool* pool = nullptr);

  /// The parallel decode underlying the genome overload; fills `traces`
  /// (one per genome) when given.
  [[nodiscard]] std::vector<Skeleton> decode_batch(
      const std::vector<ga::Genome>& genomes, util::WorkerPool* pool = nullptr,
      std::vector<FirstLevelCodec::DecodeTrace>* traces = nullptr) const;

  /// fitness_batch(children, pool), but told how each child differs from a
  /// parent genome in `parents`. A child whose parent this object priced
  /// recently (the genome fitness paths keep a bounded record per genome)
  /// is re-decoded incrementally via FirstLevelCodec::redecode; when the
  /// skeleton comes out identical to the parent's the evaluation
  /// short-circuits to the parent's fitness, and otherwise sets the move
  /// did not touch reuse the parent's per-set latencies without a cache
  /// lookup. Children without a usable record fall back to the full path.
  /// The contract is exactness, not approximation: the returned fitness
  /// values AND the hit/miss counter increments are bit-identical to
  /// fitness_batch(children, pool), at any thread count.
  [[nodiscard]] std::vector<double> fitness_delta_batch(
      const std::vector<ga::Genome>& parents,
      const std::vector<ga::Genome>& children,
      const std::vector<GenomeDelta>& deltas,
      util::WorkerPool* pool = nullptr);

  /// `skeleton` with its memoised second-level strategies filled in.
  [[nodiscard]] Mapping complete(const Skeleton& skeleton);

  /// GA-polish every set's strategies in place (the paper's refine-winner
  /// pass), keeping the better of greedy and refined per set.
  void polish(Mapping& mapping, Rng& rng) const;

  /// The Herald-extended baseline skeleton (GA seed / SA start point).
  [[nodiscard]] Skeleton baseline() const;

  /// Second-level memo hit/miss counts (the `search.space.memo.*`
  /// counters). The exactness contracts above are stated in terms of these
  /// two values.
  [[nodiscard]] long long cache_hits() const { return memo_hits_->value(); }
  [[nodiscard]] long long cache_misses() const {
    return memo_misses_->value();
  }

  /// All instance counters (memo, record table, delta path) by name; see
  /// docs/OBSERVABILITY.md for the `search.space.*` naming scheme.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  struct CacheKey {
    int begin;
    int end;
    topology::AccMask accs;
    accel::DesignId design;
    auto operator<=>(const CacheKey&) const = default;
  };

  /// Order-free mixing of the key fields. The cache is only ever probed by
  /// key (never iterated), so hashing instead of ordering is observable
  /// solely as speed.
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const {
      using util::fnv1a::word;
      std::uint64_t h = util::fnv1a::kShortBasis;
      h = word(h, static_cast<unsigned>(key.begin));
      h = word(h, static_cast<unsigned>(key.end));
      h = word(h, static_cast<std::uint64_t>(key.accs));
      h = word(h, static_cast<unsigned>(key.design));
      return h;
    }
  };
  using Cache = std::unordered_map<CacheKey, SecondLevelResult, CacheKeyHash>;
  /// One batch of second-level lookups; a missed key is priced from its set.
  using PriceBatch = util::MemoBatch<Cache, const LayerAssignment*>;

  /// One priced genome, kept so the next generation's mutants can reuse
  /// its decode trace and per-set latencies. Invariant: every set of
  /// `skeleton` has been published to cache_ (which never evicts), so a
  /// set matching a recorded parent set is always a cache hit — the delta
  /// path may charge it as one without a map lookup.
  struct EvalPayload {
    FirstLevelCodec::DecodeTrace trace;
    Skeleton skeleton;
    std::vector<Seconds> latencies;  // penalized, one per set
    double fitness = 0.0;
  };
  /// Records share payloads immutably: a child whose move left the decode
  /// trace untouched aliases its parent's payload instead of copying it,
  /// and a payload outlives any records_ eviction while a batch still
  /// holds it.
  using EvalRecord = std::shared_ptr<const EvalPayload>;

  [[nodiscard]] const SecondLevelResult& second_level_for(
      const LayerAssignment& skeleton);

  [[nodiscard]] static CacheKey key_of(const LayerAssignment& set);

  /// Probes set `s` of one skeleton: a cached latency lands in
  /// latencies[s] now, otherwise `s` joins `pending` for the read-back
  /// after price().
  void probe(PriceBatch& batch, const LayerAssignment& set, std::size_t s,
             std::vector<Seconds>& latencies,
             std::vector<std::size_t>& pending) const;
  /// Charges the batch's hit/miss counts, then greedy-prices and
  /// publishes its misses.
  void price(PriceBatch& batch, util::WorkerPool* pool);

  /// The per-skeleton penalized latencies of a whole batch, every set
  /// priced through one PriceBatch.
  [[nodiscard]] std::vector<std::vector<Seconds>> price_batch(
      const std::vector<Skeleton>& skeletons, util::WorkerPool* pool);

  [[nodiscard]] EvalRecord recall(const ga::Genome& genome) const;
  void remember(const ga::Genome& genome, EvalRecord record);

  const Problem* problem_;
  Config config_;
  /// Instance metric registry backing the counters below and second_'s
  /// `search.second.*` counters (one per SkeletonSpace so per-search
  /// counts stay exact); the destructor folds it into the installed
  /// global registry. Declared before second_, which resolves its
  /// counters at construction.
  obs::MetricsRegistry metrics_;
  accel::ProfileMatrix profile_;
  std::vector<topology::AccSetCandidate> candidates_;
  FirstLevelCodec codec_;
  SecondLevelSearch second_;
  MappingEvaluator evaluator_;
  Cache cache_;
  /// Counters in metrics_, resolved once in the constructor — registry
  /// references are stable — so hot-path increments are a single relaxed
  /// atomic add.
  obs::Counter* memo_hits_;
  obs::Counter* memo_misses_;
  obs::Counter* record_hits_;
  obs::Counter* record_misses_;
  obs::Counter* record_evictions_;
  obs::Counter* delta_unchanged_;
  obs::Counter* delta_bails_;
  /// FNV-1a word steps over the genes' bit patterns. Hashing bit patterns is
  /// sound here: equality stays the exact operator== on the doubles, and a
  /// key the hash cannot find again (e.g. a NaN gene) merely forces the
  /// exact full-path fallback.
  struct GenomeHash {
    std::size_t operator()(const ga::Genome& genome) const {
      std::uint64_t h = util::fnv1a::kShortBasis;
      for (const double gene : genome) {
        h = util::fnv1a::word(h, std::bit_cast<std::uint64_t>(gene));
      }
      return h;
    }
  };

  /// One slot of the direct-mapped record table; empty while record is
  /// null.
  struct RecordSlot {
    ga::Genome genome;
    EvalRecord record;
  };

  /// Genome-keyed records backing fitness_delta_batch, held in a
  /// direct-mapped table (power-of-two slots, overwrite on collision) so
  /// recall/remember sit on the per-child hot path at the cost of one
  /// hash and one compare. Collisions evict silently, which can only
  /// force the exact full-path fallback, never change a result or a
  /// counter. Allocated lazily on the first remember().
  static constexpr std::size_t kRecordSlots = 4096;
  std::vector<RecordSlot> records_;
};

}  // namespace mars::core
