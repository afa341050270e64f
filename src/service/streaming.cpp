#include "service/streaming.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/json.hpp"
#include "rl/replay_rdper.hpp"
#include "service/checkpoint.hpp"
#include "service/jsonl.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {

namespace {

/// Checks the options are servable and points the sink at the registry in
/// use (the caller's, else `own`) before the tuner options copy it.
StreamingOptions bind_sink(StreamingOptions options,
                           obs::MetricsRegistry& own) {
  if (!options.service.api.tuner.use_rdper) {
    throw std::invalid_argument(
        "StreamingService: use_rdper = false is not servable (sessions "
        "sample the master's RDPER pools)");
  }
  if (options.service.obs.metrics == nullptr) {
    options.service.obs.metrics = &own;
  }
  options.service.api.tuner.obs = options.service.obs;
  return options;
}

}  // namespace

StreamingService::StreamingService(StreamingOptions options)
    : options_(bind_sink(std::move(options), own_metrics_)),
      cluster_(sparksim::cluster_from_tag(options_.service.cluster)),
      obs_admitted_(metrics_registry().counter("stream.requests_admitted")),
      obs_sessions_ok_(metrics_registry().counter("stream.sessions_ok")),
      obs_sessions_failed_(
          metrics_registry().counter("stream.sessions_failed")),
      obs_flushes_(metrics_registry().counter("stream.flushes")),
      obs_merges_(metrics_registry().counter("stream.merges")),
      obs_merged_transitions_(
          metrics_registry().counter("stream.merged_transitions")),
      obs_fine_tune_steps_(
          metrics_registry().counter("stream.fine_tune_steps")),
      obs_evictions_(metrics_registry().counter("stream.evictions")),
      obs_warm_requests_(metrics_registry().counter("stream.warm_requests")),
      obs_warm_hits_(metrics_registry().counter("stream.warm_hits")),
      // 1-2-5 edges from 1 ms: a served session's modeled cost is a few
      // ms to tens of ms (rec_cost), a long offline run's up to minutes.
      obs_rec_seconds_(metrics_registry().histogram(
          "stream.rec_seconds",
          {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0,
           5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0})),
      obs_queue_depth_(metrics_registry().gauge("stream.queue_depth",
                                                /*deterministic=*/false)),
      pool_(options_.service.threads) {
  if (!options_.registry_dir.empty()) {
    registry_.emplace(options_.registry_dir);
  }
}

std::unique_ptr<StreamingService::MasterEntry> StreamingService::make_entry()
    const {
  return std::make_unique<MasterEntry>(cluster_, options_.service.api);
}

StreamingService::MasterEntry& StreamingService::ensure_entry_locked(
    const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(name, make_entry()).first;
  }
  return *it->second;
}

void StreamingService::bootstrap_model(
    const std::string& name, const std::function<void(core::DeepCat&)>& init) {
  std::unique_lock reg(registry_mutex_);
  MasterEntry& entry = ensure_entry_locked(name);
  std::unique_lock master(entry.mutex);
  init(entry.model);
}

std::string StreamingService::train_model(
    const std::string& name, const sparksim::WorkloadSpec& workload,
    std::size_t iterations) {
  // Called before the server listens: no session runs, so the offline
  // train steps borrow an idle pool worker.
  std::string checkpoint;
  bootstrap_model(name, [&](core::DeepCat& model) {
    (void)model.train_offline(workload, iterations, &pool_);
    checkpoint = checkpoint_to_string(model);
  });
  return checkpoint;
}

void StreamingService::load_model(const std::string& name, std::istream& is) {
  bootstrap_model(name,
                  [&](core::DeepCat& model) { load_checkpoint(is, model); });
}

void StreamingService::load_model_file(const std::string& name,
                                       const std::string& path) {
  bootstrap_model(name, [&](core::DeepCat& model) {
    load_checkpoint_file(path, model);
  });
}

bool StreamingService::has_model(const std::string& name) const {
  std::shared_lock reg(registry_mutex_);
  return entries_.find(name) != entries_.end();
}

core::DeepCat& StreamingService::master(const std::string& name) {
  std::shared_lock reg(registry_mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("model '" + name + "' is not resident");
  }
  return it->second->model;
}

StreamingService::MasterEntry& StreamingService::resolve_entry(
    const std::string& name) {
  {
    std::shared_lock reg(registry_mutex_);
    if (const auto it = entries_.find(name); it != entries_.end()) {
      return *it->second;
    }
  }
  std::unique_lock reg(registry_mutex_);
  if (const auto it = entries_.find(name); it != entries_.end()) {
    return *it->second;
  }
  if (runner_) {
    // Test-runner mode never touches a real master; admit any name.
    auto entry = make_entry();
    entry->stub = true;
    return *entries_.emplace(name, std::move(entry)).first->second;
  }
  if (!registry_) {
    throw std::runtime_error("unknown model '" + name +
                             "' (no registry configured)");
  }
  const auto version = registry_->latest_version(name);
  if (!version) {
    throw std::runtime_error("unknown model '" + name +
                             "': no published version in the registry");
  }
  evict_idle_locked();
  auto entry = make_entry();
  registry_->load_into(name, *version, entry->model);
  return *entries_.emplace(name, std::move(entry)).first->second;
}

void StreamingService::evict_idle_locked() {
  std::scoped_lock state(state_mutex_);
  const std::size_t cap = std::max<std::size_t>(1, options_.max_loaded_models);
  while (entries_.size() >= cap) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second->in_flight != 0) continue;
      if (victim == entries_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything busy: soft cap
    (void)merge_entry_locked(*victim->second, /*helpers=*/nullptr);
    if (victim->second->dirty && registry_ && !victim->second->stub) {
      // Learned state survives eviction as a new registry version.
      (void)registry_->publish(victim->first, victim->second->model);
    }
    entries_.erase(victim);
    obs_evictions_.add(1);
  }
}

void StreamingService::complete_failed(const TuningRequest& request,
                                       const std::string& error,
                                       const CompletionCallback& on_done) {
  SessionReport report;
  report.id = request.id;
  report.workload = request.workload;
  report.cluster = request.cluster;
  report.model = request.model;
  report.ok = false;
  report.error = error;
  {
    std::scoped_lock state(state_mutex_);
    record_metrics_locked(report);
  }
  // Callback outside the lock: the front end re-enters its own queues.
  on_done({std::move(report), 0});
}

void StreamingService::set_warm_index(
    std::shared_ptr<const retrieval::ExperienceIndex> index) {
  std::scoped_lock state(state_mutex_);
  warm_index_ = std::move(index);
}

bool StreamingService::has_warm_index() const {
  std::scoped_lock state(state_mutex_);
  return warm_index_ != nullptr && !warm_index_->empty();
}

std::optional<std::string> StreamingService::warm_error(
    const TuningRequest& request) const {
  if (request.warm_k <= 0) return std::nullopt;
  if (!has_warm_index()) {
    return "warm request '" + request.id +
           "' but no experience index is loaded";
  }
  return std::nullopt;
}

void StreamingService::resolve_warm(TuningRequest& request,
                                    const retrieval::ExperienceIndex& index) {
  const auto retrieval_span = options_.service.obs.scope("retrieval");
  const sparksim::HiBenchCase* hibench = nullptr;
  try {
    hibench = &sparksim::hibench_case(request.workload);
  } catch (const std::out_of_range&) {
    // The experience index embeds batch (HiBench) cases only; a warm
    // streaming request has nothing to retrieve against.
    throw std::invalid_argument(
        "warm retrieval is unavailable for non-batch workload '" +
        request.workload + "'");
  }
  const sparksim::HiBenchCase& c = *hibench;
  const std::vector<retrieval::Neighbor> neighbors = index.query_case(
      c, static_cast<std::size_t>(request.warm_k), retrieval::Metric::kCosine);
  request.warm_actions.clear();
  request.warm_actions.reserve(neighbors.size());
  for (const retrieval::Neighbor& nb : neighbors) {
    const auto& action = index.entries()[nb.entry].best_action;
    request.warm_actions.emplace_back(action.begin(), action.end());
  }
  obs_warm_requests_.add(1);
  obs_warm_hits_.add(neighbors.size());
}

void StreamingService::submit(TuningRequest request,
                              CompletionCallback on_done) {
  MasterEntry* entry = nullptr;
  const rl::Td3Agent* master_agent = nullptr;
  const rl::RdperReplay* master_pools = nullptr;
  std::uint64_t epoch = 0;
  try {
    if (request.warm_k > 0 && request.warm_actions.empty()) {
      std::shared_ptr<const retrieval::ExperienceIndex> index;
      {
        std::scoped_lock state(state_mutex_);
        index = warm_index_;
      }
      if (index == nullptr || index->empty()) {
        // Direct-API callers get a failed report; the wire transports
        // precheck warm_error() and emit a typed ERR frame instead.
        throw std::invalid_argument(
            "warm request but no experience index is loaded");
      }
      resolve_warm(request, *index);
    }
    entry = &resolve_entry(request.model);
    std::scoped_lock state(state_mutex_);
    if (!runner_) {
      // The session clones the master itself: nothing writes it until this
      // session completes (merges wait for in_flight to reach 0).
      master_agent = &entry->model.tuner().agent();
      master_pools = &dynamic_cast<const rl::RdperReplay&>(
          *entry->model.tuner().replay());
    }
    epoch = entry->epoch;
    entry->last_used = next_sequence_++;
    ++in_flight_;
    ++entry->in_flight;
    obs_queue_depth_.set(static_cast<double>(in_flight_));
  } catch (const std::exception& e) {
    // Every admission failure comes back inline, as a failed report.
    complete_failed(request, e.what(), on_done);
    return;
  }

  obs_admitted_.add(1);
  obs::Tracer* tracer = options_.service.obs.tracer;
  std::uint64_t request_span = 0;
  if (tracer != nullptr) {
    // A request parents under the transport's span (the front end's
    // per-connection span) whenever one was stamped.
    const std::uint64_t parent = request.server_parent_span != 0
                                     ? request.server_parent_span
                                     : options_.service.obs.trace_parent;
    request_span = tracer->begin_span("request", parent);
  }
  const bool timed =
      options_.reply_timings && tracer != nullptr && !request.trace_id.empty();
  const std::uint64_t t_submit = timed ? tracer->clock().now_ns() : 0;

  (void)pool_.submit([this, entry, master_agent, master_pools, epoch,
                      request_span, tracer, timed, t_submit,
                      request = std::move(request),
                      on_done = std::move(on_done)] {
    SessionReport report;
    const std::uint64_t t_start = timed ? tracer->clock().now_ns() : 0;
    {
      // Session spans (and the tuner spans beneath) parent on the request
      // span; the api copy carries the parent id across the pool thread.
      const auto session_span =
          options_.service.obs.with_parent(request_span).scope("session");
      if (runner_) {
        report = runner_(request);
      } else {
        core::DeepCatApiOptions api = options_.service.api;
        api.tuner.obs.trace_parent = session_span.id();
        // Session clones don't append convergence series: the master's
        // fine-tune losses are the model's trajectory; a clone's would
        // flood the rings with per-session noise.
        api.tuner.obs.series = nullptr;
        report = run_session(*master_agent, api, request, *master_pools,
                             entry->mutex);
      }
    }
    const std::uint64_t t_done = timed ? tracer->clock().now_ns() : 0;
    report.model = request.model;
    if (!request.trace_id.empty()) {
      report.trace_id = request.trace_id;
      report.server_span = trace_server_span(request.trace_id, request.id);
    }
    if (timed) {
      StageTimings t;
      t.decode_ns = request.decode_ns;
      t.queue_ns = t_start - t_submit;
      t.session_ns = t_done - t_start;
      report.timings = t;
    }
    // End the request span BEFORE on_complete: on_complete releases
    // waiters (the callback's owner, flush), and anyone it wakes may export
    // the trace immediately — the span must already be closed by then.
    if (tracer != nullptr) tracer->end_span(request_span);
    on_complete(*entry, request, std::move(report), epoch, on_done);
  });
}

void StreamingService::on_complete(MasterEntry& entry,
                                   const TuningRequest& request,
                                   SessionReport report, std::uint64_t epoch,
                                   const CompletionCallback& on_done) {
  obs::Tracer* tracer = options_.service.obs.tracer;
  const std::uint64_t t_merge0 =
      (report.timings && tracer != nullptr) ? tracer->clock().now_ns() : 0;
  {
    std::scoped_lock state(state_mutex_);
    if (report.ok && !report.new_transitions.empty()) {
      entry.pending.push_back(
          {request.id, request.seed, request.workload, report.new_transitions});
    }
    record_metrics_locked(report);
    if (report.timings && tracer != nullptr) {
      report.timings->merge_ns = tracer->clock().now_ns() - t_merge0;
    }
    --in_flight_;
    --entry.in_flight;
    obs_queue_depth_.set(static_cast<double>(in_flight_));
    completion_cv_.notify_all();
  }
  // The in-flight decrement happens BEFORE the callback runs, so a caller
  // observing idle() after its last callback knows the service is settled.
  on_done({std::move(report), epoch});
}

bool StreamingService::idle() const {
  std::scoped_lock state(state_mutex_);
  return in_flight_ == 0;
}

std::size_t StreamingService::in_flight() const {
  std::scoped_lock state(state_mutex_);
  return in_flight_;
}

void StreamingService::record_metrics_locked(const SessionReport& report) {
  sessions_.record(report);
  if (!report.ok) {
    obs_sessions_failed_.add(1);
    return;
  }
  obs_sessions_ok_.add(1);
  obs_rec_seconds_.observe(report.report.total_recommendation_seconds());
  if (auto* series = options_.service.obs.series) {
    // Convergence history (state lock held, so appends are ordered):
    // per-evaluation recommendation cost, running best session reward per
    // model, and shift-recovery outcomes (-1 = never recovered).
    for (const auto& step : report.report.steps) {
      series->append("stream.rec_cost", step.recommendation_seconds);
    }
    double& best = best_reward_
                       .try_emplace(report.model, report.mean_reward())
                       .first->second;
    best = std::max(best, report.mean_reward());
    series->append("model." + report.model + ".best_reward", best);
    if (report.report.stream.has_value()) {
      for (const auto& shift : report.report.stream->shifts) {
        series->append("stream.shift_recovery_evals",
                       shift.recovered
                           ? static_cast<double>(shift.recovery_evals)
                           : -1.0);
      }
    }
  }
}

std::size_t StreamingService::merge_entry_locked(
    MasterEntry& entry, common::ThreadPool* helpers) {
  if (entry.pending.empty()) return 0;
  const auto merge_span = options_.service.obs.scope("merge");
  obs_merges_.add(1);
  if (entry.stub) {
    // No real master behind a test-runner entry; the epoch still advances
    // so transcripts exercise the model-epoch contract.
    entry.pending.clear();
    ++entry.epoch;
    return 0;
  }
  // Canonical merge order — ascending (id, seed, workload), never arrival
  // order — makes the merged master a pure function of the request set.
  std::sort(entry.pending.begin(), entry.pending.end(),
            [](const PendingExperience& a, const PendingExperience& b) {
              return std::tie(a.id, a.seed, a.workload) <
                     std::tie(b.id, b.seed, b.workload);
            });
  std::size_t merged = 0;
  {
    std::unique_lock master(entry.mutex);
    rl::ReplayBuffer* replay = entry.model.tuner().replay();
    if (replay != nullptr) {
      for (auto& pending : entry.pending) {
        for (auto& t : pending.transitions) {
          replay->add(std::move(t));
          ++merged;
        }
      }
      if (options_.master_update_steps > 0 &&
          entry.model.tuner().has_agent()) {
        // Continuous master update: bounded fine-tune on the refreshed
        // pools, driven by the master's own checkpointed RNG stream.
        const std::size_t tuned = entry.model.tuner().agent().fine_tune(
            *replay, entry.model.tuner().rng(), options_.master_update_steps,
            helpers);
        obs_fine_tune_steps_.add(tuned);
      }
    }
  }
  obs_merged_transitions_.add(merged);
  entry.pending.clear();
  ++entry.epoch;
  entry.dirty = true;
  return merged;
}

std::size_t StreamingService::flush() {
  const auto flush_span = options_.service.obs.scope("flush");
  std::shared_lock reg(registry_mutex_);
  std::unique_lock state(state_mutex_);
  completion_cv_.wait(state, [this] { return in_flight_ == 0; });
  obs_flushes_.add(1);
  // No session is in flight and none can be admitted while state_mutex_ is
  // held, so the master's steps borrow an idle pool worker.
  std::size_t merged = 0;
  for (auto& [name, entry] : entries_) {
    merged += merge_entry_locked(*entry, &pool_);
  }
  return merged;
}

std::uint64_t StreamingService::model_epoch(const std::string& name) const {
  std::shared_lock reg(registry_mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("model '" + name + "' is not resident");
  }
  std::scoped_lock state(state_mutex_);
  return it->second->epoch;
}

std::string StreamingService::checkpoint_of(const std::string& name) {
  std::shared_lock reg(registry_mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("model '" + name + "' is not resident");
  }
  std::shared_lock master(it->second->mutex);
  return checkpoint_to_string(it->second->model);
}

obs::BuildInfo StreamingService::build_info() const {
  if (options_.build_info) return *options_.build_info;
  return obs::current_build_info(pool_.size());
}

ServiceMetrics StreamingService::metrics() const {
  std::scoped_lock state(state_mutex_);
  ServiceMetrics m = sessions_.snapshot();
  m.merges = obs_merges_.value();
  m.merged_transitions = obs_merged_transitions_.value();
  m.fine_tune_steps = obs_fine_tune_steps_.value();
  return m;
}

std::vector<StreamReport> serve_all(StreamingService& service,
                                    std::vector<TuningRequest> requests) {
  std::vector<StreamReport> reports(requests.size());
  std::mutex mutex;
  std::condition_variable arrived_cv;
  std::size_t arrived = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    service.submit(std::move(requests[i]), [&, i](StreamReport report) {
      std::scoped_lock lock(mutex);
      reports[i] = std::move(report);
      ++arrived;
      arrived_cv.notify_all();
    });
  }
  std::unique_lock lock(mutex);
  arrived_cv.wait(lock, [&] { return arrived == reports.size(); });
  return reports;
}

std::string stream_error_payload(const std::string& message) {
  return "{\"error\":\"" + common::json_escape(message) + "\"}";
}

std::string stream_reply_payload(const StreamReport& report) {
  std::ostringstream os;
  write_report_jsonl(os, report.session, report.model_epoch);
  std::string payload = std::move(os).str();
  payload.pop_back();  // the JSONL line's newline
  return payload;
}

std::optional<std::string> stat_payload_error(const std::string& payload) {
  if (payload.empty()) return std::nullopt;
  try {
    (void)parse_flat_json(payload);
    return std::nullopt;
  } catch (const std::exception& e) {
    return std::string(e.what());
  }
}

}  // namespace deepcat::service
