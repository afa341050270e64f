// StreamingService: the serving pipeline over the DeepCAT library. It
// admits requests as they arrive, runs them on the thread pool as
// clone-on-tune sessions (session.hpp), and hands each report to its
// request's completion callback. Determinism is preserved by a sequencer
// discipline instead of a barrier:
//
//   - sessions are pure functions of (master at admission, request):
//     every request admitted between two flush boundaries clones the same
//     frozen master, which nothing changes while any of its sessions is in
//     flight, so a report never depends on thread count or arrival order;
//   - at a flush boundary (explicit FLSH frame, end of stream, or model
//     eviction) the completed sessions' experience is merged into the
//     master RDPER pools in CANONICAL order — ascending (id, seed,
//     workload), not arrival order — so the post-merge master state is a
//     pure function of the request set, not of scheduling;
//   - after each merge the master takes bounded fine-tune steps
//     (Td3Agent::fine_tune) — the "continuous master updates" that keep
//     the shared model learning between requests — and its model epoch
//     advances; every report carries the epoch that served it.
//
// Multi-model routing: a request's `model` names its master, and that is
// the only routing rule. A resident master serves it; otherwise the service
// lazily loads the name's newest ModelRegistry version under a shared lock
// and evicts idle least-recently-used models when more than
// `max_loaded_models` are resident (merging and republishing their learned
// state first); a name with neither fails as a typed unknown-model report.
//
// Threading contract: submit/flush are driver APIs — call them from one
// thread (the net front end's loop, or serve_all's caller). Sessions
// complete concurrently on the pool, and a report leaves the service only
// through its request's callback; all shared state crossings are internal.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/deepcat_api.hpp"
#include "obs/build_info.hpp"
#include "obs/sink.hpp"
#include "retrieval/index.hpp"
#include "service/checkpoint.hpp"
#include "service/session.hpp"

namespace deepcat::service {

struct ServiceOptions {
  core::DeepCatApiOptions api;  ///< master model + environment settings
  std::string cluster = "a";    ///< master model's home cluster
  std::size_t threads = 0;      ///< session pool size; 0 = hardware
  /// Observability hand-off: propagated into the master's tuner options
  /// and every session clone, so losses, Twin-Q counters and spans from
  /// all layers land in one registry/tracer. Non-owning. A null registry
  /// means the service counts into its own; tracer and series stay off
  /// when null.
  obs::Sink obs{};
};

struct StreamingOptions {
  ServiceOptions service;  ///< master/env settings + session pool size
  /// Bounded fine-tune steps the master takes after each experience merge
  /// (0 disables continuous master updates).
  std::size_t master_update_steps = 4;
  /// Resident-model cap for multi-model routing; idle LRU models beyond
  /// it are merged, republished and evicted.
  std::size_t max_loaded_models = 4;
  /// Registry directory for lazy model loading; empty disables routing
  /// beyond explicitly loaded/trained models.
  std::string registry_dir;
  /// Build-info fields stamped into TELE frames. Defaults (nullopt) to the
  /// live current_build_info(); golden tests pin a fixed value so the
  /// transcripts stay byte-identical across numeric backends.
  std::optional<obs::BuildInfo> build_info;
  /// Emit the per-stage timing block ("t_*_ns" keys) in traced REPs.
  /// Requires a tracer in the sink (its clock is the time source). Off by
  /// default: tick deltas depend on global clock interleaving, so the
  /// determinism suites and goldens keep trace-timing-free transcripts.
  bool reply_timings = false;
};

/// One completed session plus its serving metadata.
struct StreamReport {
  SessionReport session;
  std::uint64_t model_epoch = 0;  ///< master epoch that served the session
};

class StreamingService {
 public:
  /// Test seam: replaces run_session with a deterministic fake so protocol
  /// transcripts can be byte-exact without depending on model float math.
  using SessionRunner = std::function<SessionReport(const TuningRequest&)>;

  /// Throws std::invalid_argument when options.service.api.tuner.use_rdper
  /// is false: sessions sample the master's RDPER pools, so a master
  /// without them cannot be served.
  explicit StreamingService(StreamingOptions options = {});

  [[nodiscard]] const StreamingOptions& options() const noexcept {
    return options_;
  }

  /// Explicit model bootstrap (the CLI uses these for the default model;
  /// other models load lazily from the registry on first request).
  /// train_model returns the trained master's checkpoint, so that
  /// publishing it encodes nothing again; the loads encode nothing.
  std::string train_model(const std::string& name,
                          const sparksim::WorkloadSpec& workload,
                          std::size_t iterations);
  void load_model(const std::string& name, std::istream& is);
  void load_model_file(const std::string& name, const std::string& path);

  [[nodiscard]] bool has_model(const std::string& name) const;

  /// The live master for `name` (throws std::out_of_range when not
  /// resident). Mutating it while requests are in flight is on the caller.
  [[nodiscard]] core::DeepCat& master(const std::string& name = "default");

  /// Warm-start experience index for `warm` requests (DESIGN.md §12).
  /// Set once before serving; requests with warm_k > 0 are resolved into
  /// seed actions by k-NN retrieval against this index at admission time.
  void set_warm_index(std::shared_ptr<const retrieval::ExperienceIndex> index);
  [[nodiscard]] bool has_warm_index() const;

  /// Typed-error precheck for the wire front end: a warm request against a
  /// missing/empty index returns the ERR message to emit; nullopt means
  /// the request is admissible.
  [[nodiscard]] std::optional<std::string> warm_error(
      const TuningRequest& request) const;

  /// Admits one request and returns immediately. Its report comes back
  /// only through `on_done`, exactly once: after the in-flight count drops,
  /// on a pool worker, or inline on this thread when admission fails (an
  /// unknown model, say: an ok=false report, never an exception).
  /// `on_done` must not block and must not call back into driver APIs.
  using CompletionCallback = std::function<void(StreamReport)>;
  void submit(TuningRequest request, CompletionCallback on_done);

  /// True when no session is in flight — the nonblocking form of the
  /// flush() precondition.
  [[nodiscard]] bool idle() const;

  /// Sessions currently in flight (admitted, not yet completed).
  [[nodiscard]] std::size_t in_flight() const;

  /// Barrier: waits for every in-flight session, merges all pending
  /// experience (canonical order) into each model, takes the bounded
  /// master fine-tune steps and advances the epochs of models that
  /// changed. Returns the number of transitions merged.
  std::size_t flush();

  /// Monotonic epoch of a resident model (1 = as loaded/trained).
  [[nodiscard]] std::uint64_t model_epoch(
      const std::string& name = "default") const;

  /// Serialized checkpoint of a resident model's current state — the
  /// determinism stress tests hash this across arrival orders.
  [[nodiscard]] std::string checkpoint_of(
      const std::string& name = "default");

  [[nodiscard]] ServiceMetrics metrics() const;

  /// Build info for TELE frames: the configured override, else the live
  /// dispatch/thread state.
  [[nodiscard]] obs::BuildInfo build_info() const;

  /// The one record of every serving count: the sink's registry, or the
  /// service's own when the sink names none. The master, every session and
  /// the front end count into it; STAT, /varz and /metrics read it.
  [[nodiscard]] obs::MetricsRegistry& metrics_registry() const noexcept {
    return *options_.service.obs.metrics;
  }

  /// The sink's convergence time-series registry (null = no TSER frames,
  /// byte-identical v2-shaped streams).
  [[nodiscard]] const obs::TimeSeriesRegistry* timeseries_registry()
      const noexcept {
    return options_.service.obs.series;
  }

  void set_session_runner_for_test(SessionRunner runner) {
    runner_ = std::move(runner);
  }

 private:
  /// Experience of one completed session, keyed for the canonical merge.
  struct PendingExperience {
    std::string id;
    std::uint64_t seed = 0;
    std::string workload;
    std::vector<rl::Transition> transitions;
  };

  /// One resident master model. `mutex` is held shared while sessions
  /// sample its pools and exclusively for merges; the bookkeeping fields
  /// are guarded by state_mutex_. Only merges write the model, and only
  /// with `in_flight` at 0, so every session of an epoch reads (and
  /// clones, without the mutex) the same frozen master.
  struct MasterEntry {
    MasterEntry(const sparksim::ClusterSpec& cluster,
                const core::DeepCatApiOptions& api)
        : model(cluster, api) {}
    core::DeepCat model;
    std::shared_mutex mutex;
    std::uint64_t epoch = 1;
    std::size_t in_flight = 0;
    std::uint64_t last_used = 0;  ///< admission sequence, for LRU eviction
    std::vector<PendingExperience> pending;
    bool dirty = false;  ///< merged experience since load (republish on evict)
    bool stub = false;   ///< test-runner entry without a trained master
  };

  [[nodiscard]] std::unique_ptr<MasterEntry> make_entry() const;
  /// Shared tail of train_model/load_model*: runs `init` on the named
  /// entry under its master lock.
  void bootstrap_model(const std::string& name,
                       const std::function<void(core::DeepCat&)>& init);
  /// Finds or lazily loads the model; throws on unknown names.
  [[nodiscard]] MasterEntry& resolve_entry(const std::string& name);
  [[nodiscard]] MasterEntry& ensure_entry_locked(const std::string& name);
  void complete_failed(const TuningRequest& request, const std::string& error,
                       const CompletionCallback& on_done);
  void on_complete(MasterEntry& entry, const TuningRequest& request,
                   SessionReport report, std::uint64_t epoch,
                   const CompletionCallback& on_done);
  /// Counts a completed session; its model names the
  /// "model.<name>.best_reward" convergence series.
  void record_metrics_locked(const SessionReport& report);
  /// Merges one entry's pending experience; requires state_mutex_ held and
  /// no in-flight sessions on the entry. Returns transitions merged. The
  /// master's fine-tune borrows a worker of `helpers` (flush passes the
  /// idle pool; eviction passes none, as other entries' sessions may run).
  std::size_t merge_entry_locked(MasterEntry& entry,
                                 common::ThreadPool* helpers);
  /// Evicts idle LRU entries down to the cap; requires registry_mutex_
  /// held exclusively.
  void evict_idle_locked();

  /// Resolves a warm request's seed actions from the index; throws on an
  /// unknown workload. Requires a non-empty index (warm_error precheck).
  void resolve_warm(TuningRequest& request,
                    const retrieval::ExperienceIndex& index);

  /// The registry used when the sink names none; declared before
  /// options_, whose sink then points at it.
  obs::MetricsRegistry own_metrics_;
  StreamingOptions options_;
  sparksim::ClusterSpec cluster_;
  std::optional<ModelRegistry> registry_;
  SessionRunner runner_;
  std::shared_ptr<const retrieval::ExperienceIndex> warm_index_;

  /// Guards the entries_ map (lookup shared, lazy load/evict exclusive).
  mutable std::shared_mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<MasterEntry>> entries_;

  /// Guards the scheduler state: counters, metrics, entry bookkeeping
  /// fields.
  mutable std::mutex state_mutex_;
  std::condition_variable completion_cv_;
  std::size_t in_flight_ = 0;
  std::uint64_t next_sequence_ = 0;
  SessionAggregate sessions_;
  /// Running best session reward per served model, feeding the
  /// "model.<name>.best_reward" convergence series.
  std::map<std::string, double> best_reward_;

  // Registry instruments, bound once at construction. The queue-depth
  // gauge registers as nondeterministic — how deep the queue gets is
  // exactly what scheduling decides.
  obs::Counter& obs_admitted_;
  obs::Counter& obs_sessions_ok_;
  obs::Counter& obs_sessions_failed_;
  obs::Counter& obs_flushes_;
  obs::Counter& obs_merges_;
  obs::Counter& obs_merged_transitions_;
  obs::Counter& obs_fine_tune_steps_;
  obs::Counter& obs_evictions_;
  obs::Counter& obs_warm_requests_;
  obs::Counter& obs_warm_hits_;
  obs::Histogram& obs_rec_seconds_;
  obs::Gauge& obs_queue_depth_;

  /// Declared last: its destructor runs every queued session and joins
  /// before any state above is torn down.
  common::ThreadPool pool_;
};

/// Canonical wire payload encoders for the net front end.
/// stream_reply_payload is the REP body (report + model epoch, no trailing
/// newline); stream_error_payload wraps a message as the ERR body.
[[nodiscard]] std::string stream_reply_payload(const StreamReport& report);
[[nodiscard]] std::string stream_error_payload(const std::string& message);

/// Validates a STAT frame payload (must be empty or a flat JSON object).
/// Returns nullopt when well formed, else the parse error message.
[[nodiscard]] std::optional<std::string> stat_payload_error(
    const std::string& payload);

/// The one completion collector: submits every request with a callback
/// that moves its report into that request's slot, and returns once every
/// callback has run, so the reports come back in request order whatever
/// order the sessions complete in (and, like them, do not depend on the
/// pool size). It does not flush; the batch path (REQ* + FLSH without a
/// wire) calls flush() next.
[[nodiscard]] std::vector<StreamReport> serve_all(
    StreamingService& service, std::vector<TuningRequest> requests);

}  // namespace deepcat::service
