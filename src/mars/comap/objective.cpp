#include "mars/comap/objective.h"

#include <utility>

#include "mars/core/evaluator.h"
#include "mars/core/serialize.h"
#include "mars/serve/metrics.h"
#include "mars/serve/workload.h"
#include "mars/sim/executor.h"
#include "mars/util/error.h"
#include "mars/util/worker_pool.h"

namespace mars::comap {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t value, std::uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((value >> (8 * i)) & 0xff)) * kFnvPrime;
  }
  return h;
}

}  // namespace

ServingObjective::ServingObjective(const CoMapProblem& problem)
    : problem_(&problem),
      rollout_hits_(&metrics_.counter("comap.rollout.hits")),
      rollout_misses_(&metrics_.counter("comap.rollout.misses")),
      proto_hits_(&metrics_.counter("comap.proto.hits")),
      proto_misses_(&metrics_.counter("comap.proto.misses")) {
  problem.validate();
  planners_.reserve(problem.tenants.size());
  slos_.reserve(problem.tenants.size());
  for (std::size_t t = 0; t < problem.tenants.size(); ++t) {
    planners_.push_back(plan::Planner::for_model(problem.tenants[t].model,
                                                 *problem.topo,
                                                 *problem.designs,
                                                 problem.adaptive));
    slos_.push_back(problem.slo_of(t));
  }
  arrivals_ = serve::poisson_arrivals(problem.weights(), problem.rollout.rate,
                                      problem.rollout.duration,
                                      problem.rollout.seed);
  sched_options_.policy = problem.rollout.policy.batch;
  sched_options_.admission = problem.rollout.policy.admission;
  // slo: admission holds each tenant to its own objective, exactly as the
  // real fleet configured from the same tenant specs would.
  sched_options_.admission.per_model_slo = slos_;
  sched_options_.sim = planners_.front().problem().sim_params;
  sched_options_.quiet = true;
}

ServingObjective::~ServingObjective() {
  if (obs::MetricsRegistry* global = obs::metrics()) {
    metrics_.flush_to(*global);
  }
}

const plan::Planner& ServingObjective::planner(std::size_t t) const {
  MARS_CHECK_ARG(t < planners_.size(),
                 "tenant index " << t << " outside the tenant set");
  return planners_[t];
}

Seconds ServingObjective::slo(std::size_t t) const {
  MARS_CHECK_ARG(t < slos_.size(),
                 "tenant index " << t << " outside the tenant set");
  return slos_[t];
}

std::uint64_t ServingObjective::mapping_signature(std::size_t t,
                                                  const core::Mapping& mapping) {
  // The serialised form is lossless (core/serialize.h), so structurally
  // equal mappings — and only those — share a signature modulo the
  // astronomically unlikely 64-bit collision, the same identity bar the
  // mapping cache's fingerprint clears.
  const std::string bytes =
      core::to_json(mapping, planners_[t].spine(), *problem_->designs,
                    problem_->adaptive)
          .dump();
  return fnv1a(bytes, fnv1a(static_cast<std::uint64_t>(t), kFnvOffset));
}

const ServingObjective::Artifact& ServingObjective::artifact(
    std::size_t t, const core::Mapping& mapping, std::uint64_t signature) {
  const auto key = std::make_pair(t, signature);
  if (const auto it = artifacts_.find(key); it != artifacts_.end()) {
    proto_hits_->add();
    return *it->second;
  }
  proto_misses_->add();
  auto artifact = std::make_unique<Artifact>();
  const core::MappingEvaluator evaluator(planners_[t].problem());
  artifact->proto = evaluator.build_task_graph(mapping);
  artifact->flat = sim::FlatTaskGraph::from(artifact->proto);
  const sim::Executor executor(*problem_->topo,
                               planners_[t].problem().sim_params);
  artifact->single_latency = executor.run(artifact->flat).makespan;
  return *artifacts_.emplace(key, std::move(artifact)).first->second;
}

ServingObjective::Score ServingObjective::rollout(
    const std::vector<const Artifact*>& artifacts) const {
  std::vector<serve::ServedModel> models;
  models.reserve(artifacts.size());
  for (std::size_t t = 0; t < artifacts.size(); ++t) {
    models.push_back(serve::ServedModel{problem_->tenants[t].model,
                                        &artifacts[t]->flat,
                                        artifacts[t]->single_latency});
  }
  const serve::OnlineScheduler scheduler(*problem_->topo, std::move(models),
                                         sched_options_);
  const serve::ServeResult result = scheduler.run(arrivals_);

  Score score;
  score.offered = result.offered();
  score.completed = static_cast<int>(result.completed.size());
  score.rejected = static_cast<int>(result.rejected.size());
  std::vector<Seconds> latencies;
  latencies.reserve(result.completed.size());
  for (const serve::CompletedRequest& done : result.completed) {
    const Seconds latency = done.latency();
    latencies.push_back(latency);
    const auto m = static_cast<std::size_t>(done.request.model);
    if (m < slos_.size() && latency <= slos_[m]) ++score.good;
  }
  score.p99 = serve::LatencyStats::from_samples(std::move(latencies)).p99;
  // Integer-major objective: every request that missed its tenant's SLO
  // (shed ones included) costs 1; the p99 transform is bounded below 1,
  // so it only ever breaks goodput ties.
  const double tail =
      score.completed > 0 ? score.p99.count() / (1.0 + score.p99.count()) : 1.0;
  score.fitness = static_cast<double>(score.offered - score.good) + tail;
  return score;
}

ServingObjective::Score ServingObjective::score(const CandidatePlan& plan) {
  MARS_CHECK_ARG(plan.size() == planners_.size(),
                 "candidate carries " << plan.size() << " mappings for "
                                      << planners_.size() << " tenants");
  std::vector<const Artifact*> parts(plan.size());
  std::uint64_t combined = kFnvOffset;
  for (std::size_t t = 0; t < plan.size(); ++t) {
    const std::uint64_t sig = mapping_signature(t, plan[t]);
    parts[t] = &artifact(t, plan[t], sig);
    combined = fnv1a(sig, combined);
  }
  if (const auto it = rollouts_.find(combined); it != rollouts_.end()) {
    rollout_hits_->add();
    return it->second;
  }
  rollout_misses_->add();
  return rollouts_.emplace(combined, rollout(parts)).first->second;
}

std::vector<double> ServingObjective::score_batch(
    const std::vector<CandidatePlan>& plans, util::WorkerPool* pool) {
  // Phase 1 (serial): signatures, artifact materialisation, and the
  // hit/miss sweep — the first appearance of a combined signature in the
  // batch is the miss, every later one a hit, exactly as a serial
  // left-to-right score() sweep would charge them.
  std::vector<std::uint64_t> keys(plans.size());
  struct Missing {
    std::uint64_t key;
    std::vector<const Artifact*> parts;
  };
  std::vector<Missing> missing;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    MARS_CHECK_ARG(plans[i].size() == planners_.size(),
                   "candidate carries " << plans[i].size() << " mappings for "
                                        << planners_.size() << " tenants");
    std::vector<const Artifact*> parts(plans[i].size());
    std::uint64_t combined = kFnvOffset;
    for (std::size_t t = 0; t < plans[i].size(); ++t) {
      const std::uint64_t sig = mapping_signature(t, plans[i][t]);
      parts[t] = &artifact(t, plans[i][t], sig);
      combined = fnv1a(sig, combined);
    }
    keys[i] = combined;
    const bool cached = rollouts_.contains(combined);
    bool in_batch = false;
    if (!cached) {
      for (const Missing& m : missing) {
        if (m.key == combined) {
          in_batch = true;
          break;
        }
      }
    }
    if (cached || in_batch) {
      rollout_hits_->add();
    } else {
      rollout_misses_->add();
      missing.push_back(Missing{combined, std::move(parts)});
    }
  }

  // Phase 2: price the deduped missing rollouts — each a pure function of
  // its artifact set and the shared arrival stream — in parallel.
  std::vector<Score> priced(missing.size());
  const auto price = [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      priced[j] = rollout(missing[j].parts);
    }
  };
  if (pool != nullptr && missing.size() > 1) {
    pool->parallel_for(missing.size(), price);
  } else {
    price(0, missing.size());
  }

  // Phase 3 (serial): publish in first-seen order, then read back.
  for (std::size_t j = 0; j < missing.size(); ++j) {
    rollouts_.emplace(missing[j].key, priced[j]);
  }
  std::vector<double> fitness(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    fitness[i] = rollouts_.at(keys[i]).fitness;
  }
  return fitness;
}

}  // namespace mars::comap
