#include "mars/comap/objective.h"

#include <utility>

#include "mars/core/evaluator.h"
#include "mars/core/serialize.h"
#include "mars/serve/metrics.h"
#include "mars/serve/workload.h"
#include "mars/sim/executor.h"
#include "mars/util/error.h"
#include "mars/util/fnv1a.h"
#include "mars/util/memo_batch.h"

namespace mars::comap {

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
  return util::fnv1a::mix(
      util::fnv1a::mix_u64(util::fnv1a::kShortBasis, t), bytes);
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

std::uint64_t ServingObjective::candidate(
    const CandidatePlan& plan, std::vector<const Artifact*>& parts) {
  MARS_CHECK_ARG(plan.size() == planners_.size(),
                 "candidate carries " << plan.size() << " mappings for "
                                      << planners_.size() << " tenants");
  parts.resize(plan.size());
  std::uint64_t key = util::fnv1a::kShortBasis;
  for (std::size_t t = 0; t < plan.size(); ++t) {
    const std::uint64_t sig = mapping_signature(t, plan[t]);
    parts[t] = &artifact(t, plan[t], sig);
    key = util::fnv1a::mix_u64(key, sig);
  }
  return key;
}

ServingObjective::Score ServingObjective::score(const CandidatePlan& plan) {
  std::vector<const Artifact*> parts;
  const std::uint64_t key = candidate(plan, parts);
  if (const auto it = rollouts_.find(key); it != rollouts_.end()) {
    rollout_hits_->add();
    return it->second;
  }
  rollout_misses_->add();
  return rollouts_.emplace(key, rollout(parts)).first->second;
}

std::vector<double> ServingObjective::score_batch(
    const std::vector<CandidatePlan>& plans, util::WorkerPool* pool) {
  // Artifacts materialise during the serial probe sweep (they charge
  // comap.proto.*); only the rollouts are priced on the pool.
  util::MemoBatch<decltype(rollouts_), std::vector<const Artifact*>> batch(
      rollouts_);
  std::vector<std::uint64_t> keys(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    std::vector<const Artifact*> parts;
    keys[i] = candidate(plans[i], parts);
    batch.probe(keys[i], [&parts] { return std::move(parts); });
  }
  rollout_hits_->add(batch.hits());
  rollout_misses_->add(batch.misses());
  batch.publish(
      [this](const std::vector<const Artifact*>& parts) {
        return rollout(parts);
      },
      pool);
  std::vector<double> fitness(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    fitness[i] = rollouts_.at(keys[i]).fitness;
  }
  return fitness;
}

}  // namespace mars::comap
