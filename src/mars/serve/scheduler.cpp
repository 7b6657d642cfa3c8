#include "mars/serve/scheduler.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "mars/obs/metrics.h"
#include "mars/obs/trace.h"
#include "mars/sim/replay.h"
#include "mars/util/error.h"

namespace mars::serve {
namespace {

using sim::TaskKind;

/// What the kernel carries per admitted request.
struct RequestTag {
  Request request;
  Seconds dispatch{};
  int batch_size = 1;
};

using Kernel = sim::ReplayKernel<Request, RequestTag>;
using Instance = Kernel::Instance;

/// Host-event index of an arrival (the payload is the request); deadline
/// events carry the model index instead.
constexpr int kArrival = -1;

std::vector<const sim::FlatTaskGraph*> flats_of(
    const std::vector<ServedModel>& models) {
  std::vector<const sim::FlatTaskGraph*> flats;
  flats.reserve(models.size());
  for (const ServedModel& model : models) flats.push_back(model.flat);
  return flats;
}

/// The serving host around one replay kernel: arrivals, batching,
/// admission, closed-loop reissue, tracing and metrics. Task execution —
/// instances, the contention rule, the resource timelines — is the
/// kernel's (sim/replay.h); arrivals and batch deadlines ride on the
/// kernel's event queue as host events, so one queue orders everything.
class Engine {
 public:
  Engine(const topology::Topology& topo,
         const std::vector<ServedModel>& models,
         const SchedulerOptions& options)
      : models_(&models),
        network_(topo, options.sim),
        kernel_(network_, flats_of(models)) {
    // The `none` policy dispatches every arrival immediately as a batch of
    // one; bypassing the Batcher on that path keeps steady-state dispatch
    // allocation-free (the batcher returns freshly built vectors).
    immediate_dispatch_ = options.policy.kind == BatchPolicy::Kind::kNone;
    if (!immediate_dispatch_) {
      batchers_.reserve(models.size());
      for (std::size_t m = 0; m < models.size(); ++m) {
        batchers_.emplace_back(options.policy);
      }
      armed_deadline_.assign(models.size(), std::nullopt);
    }

    admission_ = options.admission;
    in_system_.assign(models.size(), 0);
    queued_work_.assign(static_cast<std::size_t>(topo.size()), Seconds(0.0));
    // Which accelerators each model's prototype computes on — the
    // timelines its requests queue behind, hence the ones the slo:
    // admission estimate reads.
    service_accs_.resize(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      const sim::FlatTaskGraph& flat = *models[m].flat;
      std::vector<bool> used(static_cast<std::size_t>(topo.size()), false);
      for (int t = 0; t < flat.size; ++t) {
        if (flat.kinds[static_cast<std::size_t>(t)] == TaskKind::kCompute) {
          used[static_cast<std::size_t>(
              flat.accs[static_cast<std::size_t>(t)])] = true;
        }
      }
      for (int a = 0; a < topo.size(); ++a) {
        if (used[static_cast<std::size_t>(a)]) service_accs_[m].push_back(a);
      }
    }

    // Observability: resolve the recorder and registry once per run. Every
    // event below is emitted from this serial event loop with simulated
    // timestamps, so the simulated-domain trace is deterministic per seed
    // regardless of --threads (the fleet layer runs shards serially
    // whenever a recorder is installed — see serve/fleet.cpp). Quiet runs
    // (search-time rollouts) skip both hooks entirely.
    rec_ = options.quiet ? nullptr : obs::trace();
    if (rec_ != nullptr) {
      model_tracks_.reserve(models.size());
      in_system_name_.reserve(models.size());
      for (std::size_t m = 0; m < models.size(); ++m) {
        // The index prefix keeps tracks distinct when two services serve
        // the same model name; the options prefix keeps fleet shards
        // distinct.
        const std::string label = options.trace_label_prefix + "model " +
                                  std::to_string(m) + ":" + models[m].name;
        model_tracks_.push_back(rec_->track(obs::Clock::kSim, label));
        in_system_name_.push_back("in_system " + label);
      }
      acc_tracks_.reserve(static_cast<std::size_t>(topo.size()));
      queued_name_.reserve(static_cast<std::size_t>(topo.size()));
      for (int a = 0; a < topo.size(); ++a) {
        const std::string label =
            options.trace_label_prefix + "acc " + std::to_string(a);
        acc_tracks_.push_back(rec_->track(obs::Clock::kSim, label));
        queued_name_.push_back("queued_s " + label);
      }
    }
    if (obs::MetricsRegistry* registry =
            options.quiet ? nullptr : obs::metrics()) {
      shed_total_ = &registry->counter("serve.admission.shed");
      completed_total_ = &registry->counter("serve.requests.completed");
      batches_total_ = &registry->counter("serve.batches.dispatched");
      tasks_total_ = &registry->counter("serve.tasks.executed");
      events_total_ = &registry->counter("serve.events.processed");
      requeued_total_ = &registry->counter("serve.events.requeued");
      latency_hist_ = &registry->histogram("serve.latency_seconds");
    }
  }

  /// Pre-sizes the run for a stream of `arrivals` requests: the event
  /// heap (every open-loop arrival is enqueued up front) and the result
  /// vectors. One fixed allocation each, so steady-state dispatch stays
  /// heap-silent. The heap slack covers every task event of up to 16
  /// concurrently live instances per model — an unfinished task holds at
  /// most one outstanding event, since a task waiting for a busy resource
  /// holds none and each wake event stands for at least one waiting task —
  /// which is exact under bounded admission (shed:N, N <= 16); deeper
  /// configurations regrow the heap amortised.
  void reserve(std::size_t arrivals) {
    std::size_t task_slack = 64;
    for (const ServedModel& model : *models_) {
      task_slack += 16 * static_cast<std::size_t>(model.flat->size);
    }
    kernel_.reserve(arrivals + task_slack);
    result_.completed.reserve(arrivals);
    result_.rejected.reserve(arrivals);
  }

  void add_arrival(const Request& request) {
    kernel_.push_host(request.arrival, kArrival, request);
    next_request_id_ = std::max(next_request_id_, request.id + 1);
  }

  void enable_closed_loop(Seconds think, Seconds duration) {
    closed_loop_ = true;
    think_ = think;
    issue_horizon_ = duration;
  }

  ServeResult run() {
    for (;;) {
      kernel_.run(*this);
      // The queue only runs dry while requests are parked in a batcher
      // whose trigger can never fire (size-N at end of stream, or a
      // closed loop with fewer outstanding clients than N): drain them.
      bool flushed = false;
      for (std::size_t m = 0; m < batchers_.size(); ++m) {
        for (const std::vector<Request>& batch : batchers_[m].flush()) {
          dispatch(batch);
          flushed = true;
        }
      }
      if (!flushed) break;
    }
    MARS_CHECK(admitted_ == static_cast<long long>(result_.completed.size()),
               "serving deadlock: "
                   << admitted_ -
                          static_cast<long long>(result_.completed.size())
                   << " requests never completed");
    result_.horizon = kernel_.horizon();
    result_.acc_busy = kernel_.take_acc_busy();
    result_.tasks_executed = kernel_.tasks_executed();
    if (tasks_total_ != nullptr) {
      tasks_total_->add(kernel_.tasks_executed());
      events_total_->add(kernel_.events_processed());
      requeued_total_->add(kernel_.requeued());
    }
    return std::move(result_);
  }

  // ---- kernel hooks (sim/replay.h) ----

  void on_host_event(const Kernel::Event& event) {
    if (event.index == kArrival) {
      handle_arrival(event.payload);
    } else {
      drain_batcher(event.index);
    }
  }

  /// A compute task's work moves from "queued" to "running" (acc_free
  /// covers it) the moment it acquires its accelerator.
  void on_start(const Instance& instance, int t) {
    const sim::FlatTaskGraph& flat =
        *(*models_)[static_cast<std::size_t>(instance.graph)].flat;
    const auto ti = static_cast<std::size_t>(t);
    if (flat.kinds[ti] != TaskKind::kCompute) return;
    const int acc = flat.accs[ti];
    queued_work_[static_cast<std::size_t>(acc)] -= flat.durations[ti];
    if (rec_ != nullptr) {
      trace_compute(instance, acc, kernel_.now() + flat.durations[ti]);
    }
  }

  void on_done(const Instance&, int) {}

  void on_complete(const Instance& instance) {
    const RequestTag& tag = instance.tag;
    const Seconds now = kernel_.now();
    result_.completed.push_back(
        CompletedRequest{tag.request, tag.dispatch, now, tag.batch_size});
    const auto m = static_cast<std::size_t>(tag.request.model);
    --in_system_[m];
    if (completed_total_ != nullptr) completed_total_->add();
    if (latency_hist_ != nullptr) {
      latency_hist_->observe((now - tag.request.arrival).count());
    }
    if (rec_ != nullptr) {
      const int track = model_tracks_[m];
      rec_->async_end(obs::Clock::kSim, track, "req", tag.request.id,
                      "execute", now);
      rec_->async_end(obs::Clock::kSim, track, "req", tag.request.id,
                      (*models_)[m].name, now);
      rec_->counter(obs::Clock::kSim, in_system_name_[m], now,
                    static_cast<double>(in_system_[m]));
    }
    reissue_after_think(tag.request.model, tag.request.client);
  }

 private:
  void handle_arrival(const Request& request) {
    if (!admit(request)) {
      if (shed_total_ != nullptr) shed_total_->add();
      if (rec_ != nullptr) {
        rec_->instant(obs::Clock::kSim,
                      model_tracks_[static_cast<std::size_t>(request.model)],
                      "shed", request.arrival,
                      {{"request", JsonValue::integer(request.id)}});
      }
      result_.rejected.push_back(request);
      // A shed closed-loop client behaves like one whose request failed
      // fast: it comes back `think` later instead of stalling forever.
      reissue_after_think(request.model, request.client);
      return;
    }
    ++in_system_[static_cast<std::size_t>(request.model)];
    if (rec_ != nullptr) trace_admit(request);
    if (immediate_dispatch_) {
      dispatch({&request, 1});
      return;
    }
    batchers_[static_cast<std::size_t>(request.model)].push(request);
    drain_batcher(request.model);
  }

  /// Request lifecycle as nestable async spans on the model's track, all
  /// grouped by (cat "req", request id): an outer <model name> span covers
  /// arrival -> completion, with "queue" (arrival -> dispatch) and
  /// "execute" (dispatch -> completion) phases nested inside.
  void trace_admit(const Request& request) {
    const auto m = static_cast<std::size_t>(request.model);
    const int track = model_tracks_[m];
    rec_->async_begin(obs::Clock::kSim, track, "req", request.id,
                      (*models_)[m].name, request.arrival,
                      {{"client", JsonValue::integer(request.client)}});
    rec_->async_begin(obs::Clock::kSim, track, "req", request.id, "queue",
                      request.arrival);
    rec_->counter(obs::Clock::kSim, in_system_name_[m], request.arrival,
                  static_cast<double>(in_system_[m]));
  }

  [[nodiscard]] bool admit(const Request& request) const {
    const auto m = static_cast<std::size_t>(request.model);
    switch (admission_.kind) {
      case AdmissionPolicy::Kind::kNone:
        return true;
      case AdmissionPolicy::Kind::kShed:
        return in_system_[m] < admission_.max_depth;
      case AdmissionPolicy::Kind::kSlo:
        return predicted_latency(request.model) <=
               admission_.slo_for(request.model);
    }
    return true;
  }

  /// Queueing-delay estimate for a request arriving now: the deepest
  /// backlog among the model's accelerators — remaining time of the
  /// running task (acc_free) plus compute already admitted but not yet
  /// started (queued_work) — plus the model's uncontended latency.
  /// Transfer contention and batching delay are not modelled, so the
  /// estimate is optimistic; slo: sheds late rather than early.
  [[nodiscard]] Seconds predicted_latency(int model) const {
    const Seconds now = kernel_.now();
    Seconds backlog{};
    for (int acc : service_accs_[static_cast<std::size_t>(model)]) {
      Seconds wait = queued_work_[static_cast<std::size_t>(acc)];
      const Seconds free = kernel_.acc_free(acc);
      if (free > now) wait += free - now;
      backlog = std::max(backlog, wait);
    }
    return backlog +
           (*models_)[static_cast<std::size_t>(model)].single_latency;
  }

  void reissue_after_think(int model, int client) {
    if (!closed_loop_ || client < 0) return;
    const Seconds next = kernel_.now() + think_;
    if (next > issue_horizon_) return;  // client retires
    Request request;
    request.id = next_request_id_++;
    request.model = model;
    request.arrival = next;
    request.client = client;
    kernel_.push_host(next, kArrival, request);
  }

  void drain_batcher(int model) {
    Batcher& batcher = batchers_[static_cast<std::size_t>(model)];
    for (const std::vector<Request>& batch : batcher.pop_ready(kernel_.now())) {
      dispatch(batch);
    }
    // Arm the timeout of the (possibly new) open batch. Later arrivals
    // leave the deadline unchanged, so only arm when it moves; a stale
    // event after a size-triggered close is harmless (pop_ready
    // re-checks against the clock).
    const std::optional<Seconds> deadline = batcher.next_deadline();
    if (deadline &&
        deadline != armed_deadline_[static_cast<std::size_t>(model)]) {
      armed_deadline_[static_cast<std::size_t>(model)] = deadline;
      kernel_.push_host(*deadline, model, {});
    }
  }

  /// Admits a batch; the `none` policy passes each arrival as a batch of
  /// one (no vector).
  void dispatch(std::span<const Request> batch) {
    ++result_.batches_dispatched;
    if (batches_total_ != nullptr) batches_total_->add();
    if (batch.empty()) return;
    const int batch_size = static_cast<int>(batch.size());
    const int model = batch.front().model;
    if (rec_ != nullptr) {
      rec_->instant(obs::Clock::kSim,
                    model_tracks_[static_cast<std::size_t>(model)], "batch",
                    kernel_.now(), {{"size", JsonValue::integer(batch_size)}});
    }
    for (const Request& request : batch) instantiate(request, batch_size);
    sample_queued_work(model);
  }

  /// Admits one request into the kernel: account its compute on the
  /// queued-work timelines (same per-task order as a clone would, so the
  /// floating-point sums match the historical engine bit for bit), then
  /// stamp the instance, which seeds its root task events.
  void instantiate(const Request& request, int batch_size) {
    const auto m = static_cast<std::size_t>(request.model);
    const sim::FlatTaskGraph& flat = *(*models_)[m].flat;
    const Seconds now = kernel_.now();
    ++admitted_;
    if (rec_ != nullptr) {
      const int track = model_tracks_[m];
      rec_->async_end(obs::Clock::kSim, track, "req", request.id, "queue",
                      now);
      rec_->async_begin(obs::Clock::kSim, track, "req", request.id, "execute",
                        now);
    }
    for (int t = 0; t < flat.size; ++t) {
      if (flat.kinds[static_cast<std::size_t>(t)] == TaskKind::kCompute) {
        queued_work_[static_cast<std::size_t>(
            flat.accs[static_cast<std::size_t>(t)])] +=
            flat.durations[static_cast<std::size_t>(t)];
      }
    }
    kernel_.instantiate(request.model, RequestTag{request, now, batch_size});
  }

  /// Post-dispatch queued-work samples for the accelerators this model
  /// computes on.
  void sample_queued_work(int model) {
    if (rec_ == nullptr) return;
    for (const int acc : service_accs_[static_cast<std::size_t>(model)]) {
      const auto a = static_cast<std::size_t>(acc);
      rec_->counter(obs::Clock::kSim, queued_name_[a], kernel_.now(),
                    queued_work_[a].count());
    }
  }

  /// One busy span per compute task on its accelerator's track (an
  /// accelerator runs one task at a time, so spans on a track never
  /// overlap), plus the post-start queued-work counter sample.
  void trace_compute(const Instance& instance, int acc, Seconds end) {
    const auto a = static_cast<std::size_t>(acc);
    const Seconds now = kernel_.now();
    rec_->complete(obs::Clock::kSim, acc_tracks_[a],
                   (*models_)[static_cast<std::size_t>(instance.graph)].name,
                   now, end - now,
                   {{"request", JsonValue::integer(instance.tag.request.id)}});
    rec_->counter(obs::Clock::kSim, queued_name_[a], now,
                  queued_work_[a].count());
  }

  const std::vector<ServedModel>* models_;
  sim::Network network_;
  Kernel kernel_;

  bool immediate_dispatch_ = false;
  std::vector<Batcher> batchers_;  // empty on the immediate-dispatch path
  std::vector<std::optional<Seconds>> armed_deadline_;

  // Admission-control state.
  AdmissionPolicy admission_;
  std::vector<int> in_system_;  // per model: batcher queue + in flight
  std::vector<Seconds> queued_work_;  // per acc: admitted, not yet started
  std::vector<std::vector<int>> service_accs_;  // per model: accs its proto uses
  long long admitted_ = 0;

  bool closed_loop_ = false;
  Seconds think_{};
  Seconds issue_horizon_{};
  int next_request_id_ = 0;

  // Observability handles, resolved once at construction (all null/empty
  // when no recorder/registry is installed — the common case).
  obs::TraceRecorder* rec_ = nullptr;
  std::vector<int> model_tracks_;            // sim track per model
  std::vector<int> acc_tracks_;              // sim track per accelerator
  std::vector<std::string> in_system_name_;  // counter name per model
  std::vector<std::string> queued_name_;     // counter name per accelerator
  obs::Counter* shed_total_ = nullptr;
  obs::Counter* completed_total_ = nullptr;
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* tasks_total_ = nullptr;
  obs::Counter* events_total_ = nullptr;
  obs::Counter* requeued_total_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;

  ServeResult result_;
};

}  // namespace

OnlineScheduler::OnlineScheduler(const topology::Topology& topo,
                                 std::vector<const ModelService*> services,
                                 SchedulerOptions options)
    : topo_(&topo), options_(std::move(options)) {
  MARS_CHECK_ARG(!services.empty(), "scheduler needs at least one service");
  models_.reserve(services.size());
  for (const ModelService* service : services) {
    MARS_CHECK_ARG(service != nullptr, "null service");
    MARS_CHECK_ARG(service->problem().topo == topo_,
                   "service '" << service->name()
                               << "' was planned on a different topology");
    // single_latency / proto were produced under the service's SimParams;
    // replaying under different timing would silently disagree with them.
    const sim::SimParams& planned = service->problem().sim_params;
    MARS_CHECK_ARG(planned.link_latency == options_.sim.link_latency &&
                       planned.host_latency == options_.sim.host_latency,
                   "service '" << service->name()
                               << "' was planned under different SimParams "
                                  "than SchedulerOptions.sim");
    models_.push_back(ServedModel{service->name(), &service->flat_proto(),
                                  service->single_latency()});
  }
}

OnlineScheduler::OnlineScheduler(const topology::Topology& topo,
                                 std::vector<ServedModel> models,
                                 SchedulerOptions options)
    : topo_(&topo), models_(std::move(models)), options_(std::move(options)) {
  MARS_CHECK_ARG(!models_.empty(), "scheduler needs at least one model");
  for (const ServedModel& model : models_) {
    MARS_CHECK_ARG(model.flat != nullptr,
                   "model '" << model.name << "' has no flat prototype");
  }
}

ServeResult OnlineScheduler::run(const std::vector<Request>& arrivals) const {
  Engine engine(*topo_, models_, options_);
  engine.reserve(arrivals.size());
  for (const Request& request : arrivals) {
    MARS_CHECK_ARG(request.model >= 0 && request.model < num_models(),
                   "request " << request.id << " targets unknown model index "
                              << request.model);
    MARS_CHECK_ARG(request.arrival.count() >= 0.0,
                   "request " << request.id << " arrives before t=0");
    engine.add_arrival(request);
  }
  return engine.run();
}

ServeResult OnlineScheduler::run_closed_loop(const ClosedLoopSpec& spec,
                                             Seconds duration) const {
  MARS_CHECK_ARG(spec.clients() > 0, "closed loop needs at least one client");
  MARS_CHECK_ARG(duration.count() > 0.0, "duration must be positive");
  // A rejected client retries `think` after the rejection; with think == 0
  // that retry lands at the same simulated instant, is rejected against
  // unchanged state, and the clock never advances.
  MARS_CHECK_ARG(options_.admission.kind == AdmissionPolicy::Kind::kNone ||
                     spec.think.count() > 0.0,
                 "closed-loop admission control needs think > 0 (a rejected "
                 "client would retry at the same instant forever)");
  Engine engine(*topo_, models_, options_);
  engine.reserve(static_cast<std::size_t>(spec.clients()));
  engine.enable_closed_loop(spec.think, duration);
  for (int c = 0; c < spec.clients(); ++c) {
    const int model = spec.client_model[static_cast<std::size_t>(c)];
    MARS_CHECK_ARG(model >= 0 && model < num_models(),
                   "client " << c << " bound to unknown model index " << model);
    Request request;
    request.id = c;
    request.model = model;
    request.arrival = Seconds(0.0);
    request.client = c;
    engine.add_arrival(request);
  }
  return engine.run();
}

}  // namespace mars::serve
