// One tuning session = one online tuning request served against the shared
// offline-trained model (paper §2: train once, tune many). Sessions are
// designed to run concurrently on the service thread pool:
//
//   - clone-on-tune: each session builds a private DeepCat agent straight
//     from the frozen master's agent. It reads the master's actor and
//     critics in place until its first train step, which copies the
//     master's networks and optimizer state, so its fine-tune gradient
//     steps never touch the shared networks. The clone is dropped with its
//     report, so it skips the fine-tune after its last evaluation, which
//     nothing would read;
//   - shared read-mostly pools: the session samples the master's frozen
//     P_high/P_low RDPER pools through a SharedRdperReplay view under a
//     shared mutex instead of copying them;
//   - write-back on completion: the transitions a session generates are
//     returned in its report and merged into the master pools by the
//     streaming service at the next flush, in canonical order — the
//     paper's cross-request memory sharing, kept deterministic.
//
// Because the master is frozen between flushes, a session's result is a
// pure function of (master at admission, request), independent of pool
// size and of which other sessions run beside it.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/deepcat_api.hpp"
#include "rl/replay_rdper.hpp"
#include "rl/td3.hpp"
#include "tuners/tuner.hpp"

namespace deepcat::service {

/// AutoScope-style tuning scope: which key a session's model is tuned
/// under. kGlobal shares one model per name (today's behaviour);
/// kWorkload/kHardware fork a scoped model per workload id / cluster tag,
/// so one served name tunes independently at each configured scope.
enum class TuneScope { kGlobal, kWorkload, kHardware };

[[nodiscard]] std::string to_string(TuneScope scope);

/// One online tuning request: workload + cluster + budget + determinism
/// seed. `workload` is a HiBench suite id ("WC-D1" .. "KM-D3") or a
/// streaming suite id ("SA-P1" .. "SJ-P2"); streaming requests run one
/// long phase-shifted session where max_steps counts evaluation windows.
struct TuningRequest {
  std::string id;             ///< caller's correlation id, echoed back
  std::string workload;       ///< HiBench case id, e.g. "TS-D1"
  std::string cluster = "a";  ///< "a" (testbed) or "b" (VM cluster)
  int max_steps = 5;          ///< paid online evaluations
  double max_total_seconds = 1e18;  ///< tuning-time budget (paper §2)
  std::uint64_t seed = 1;     ///< per-session determinism seed
  /// Named master model to serve against (streaming multi-model routing).
  std::string model = "default";
  /// Warm-start: number of experience-index neighbours requested (wire
  /// "warm" field; 0 = cold request, the default). The service resolves
  /// this into `warm_actions` before the session runs; a warm request
  /// against a service with no index loaded is a typed protocol error.
  int warm_k = 0;
  /// Retrieved seed actions (normalized [0,1]^kNumKnobs, nearest first),
  /// replayed as the first online steps before the actor takes over.
  std::vector<std::vector<double>> warm_actions;
  /// AutoScope-style scope descriptor (wire "scope" field; kGlobal = omitted
  /// = today's behaviour). Non-global scopes route the session to a
  /// scope-keyed model derived from `model` via scoped_model_key().
  TuneScope scope = TuneScope::kGlobal;
  /// Client-supplied trace id (wire "trace" field; empty = untraced
  /// request, the default). A traced REP echoes it plus a deterministic
  /// server span id; malformed values are typed parse errors like
  /// "warm"/"scope".
  std::string trace_id;
  /// Client-side parent span id accompanying trace_id (wire "span" field,
  /// optional; requires "trace"). Carried for trace-file correlation —
  /// server spans parent under server-local spans, not this foreign id.
  std::uint64_t trace_span = 0;
  /// Transport-local parent span id for the service's "request" span
  /// (e.g. the front end's per-connection span). Never serialized.
  std::uint64_t server_parent_span = 0;
  /// Transport-measured REQ decode time (clock ns), feeding the gated
  /// per-stage timing block in the REP. Never serialized.
  std::uint64_t decode_ns = 0;
};

/// The registry/routing key a request's model resolves to under its scope:
/// kGlobal -> "m", kWorkload -> "m@wl:<workload>", kHardware ->
/// "m@hw:<cluster>". Scoped keys feed both ModelRegistry lookup and shard
/// routing, so the same name tunes independently per workload or hardware
/// class while checkpoints stay bit-identical across shard/thread layouts.
[[nodiscard]] std::string scoped_model_key(const TuningRequest& request);

/// Inverse of scoped_model_key's derivation: the base model name a scoped
/// key was forked from ("m@wl:TS-D1" -> "m"), or nullopt for unscoped
/// keys. The streaming service bootstraps a scoped model that has no
/// published version from its base model's genesis checkpoint.
[[nodiscard]] std::optional<std::string> scope_base_of(
    const std::string& model_key);

/// Deterministic server span id echoed in a traced REP: 64-bit FNV-1a of
/// trace id + '\0' + request id, forced nonzero. Deliberately NOT the
/// tracer's internal span id — tracer ids are assigned in admission order
/// across all connections, so echoing them would make traced transcripts
/// depend on scheduling; this hash is a pure function of the request.
[[nodiscard]] inline std::uint64_t trace_server_span(
    const std::string& trace_id, const std::string& request_id) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  mix(trace_id);
  h ^= 0u;
  h *= 1099511628211ull;
  mix(request_id);
  return h == 0 ? 1 : h;
}

/// Per-stage server-side timings for one traced request (clock ns; tick
/// counts under LogicalClock). Emitted in the REP only when the serve
/// path opts in (StreamingOptions.reply_timings) — tick deltas depend
/// on global clock interleaving, so determinism suites keep them off.
struct StageTimings {
  std::uint64_t decode_ns = 0;   ///< REQ payload parse
  std::uint64_t queue_ns = 0;    ///< submit -> pool thread pickup
  std::uint64_t session_ns = 0;  ///< run_session
  std::uint64_t merge_ns = 0;    ///< completion bookkeeping + master merge
  std::uint64_t write_ns = 0;    ///< REP body serialization
};

/// Outcome of one session. `new_transitions` carries the experience the
/// session generated, in insertion order, for the service's post-batch
/// merge into the master pools.
struct SessionReport {
  std::string id;
  std::string workload;
  std::string cluster;
  std::string model;  ///< master model that served this session (streaming)
  bool ok = false;
  std::string error;
  /// Warm-start seed actions actually replayed (0 for cold sessions); the
  /// REP body carries this as "warm" only when nonzero, keeping cold
  /// transcripts byte-identical.
  int warm_seeds = 0;
  /// Scope level this session tuned under ("workload"/"hardware"); empty for
  /// global scope, in which case the REP omits the "scope" key so legacy
  /// transcripts stay byte-identical.
  std::string scope;
  /// Echoed trace context: the request's trace id plus the deterministic
  /// server span id (FNV-1a of trace id + request id, never 0). Empty
  /// trace_id omits both keys, keeping untraced REPs byte-identical.
  std::string trace_id;
  std::uint64_t server_span = 0;
  /// Gated per-stage timing block ("t_*_ns" keys); absent by default.
  std::optional<StageTimings> timings;
  tuners::TuningReport report;
  std::vector<rl::Transition> new_transitions;

  [[nodiscard]] double mean_reward() const noexcept;
};

/// Retained-sample cap for the rec-cost percentile trackers: exact
/// quantiles up to this many sessions, deterministic skeleton compaction
/// beyond it (common::QuantileTracker bounded mode), so an unbounded
/// request stream cannot grow service memory without limit.
inline constexpr std::size_t kRecCostSampleCap = 65536;

/// Fixed bucket upper edges for recommendation-cost histograms. Every
/// shard uses the same edges by construction, so cross-shard aggregation
/// can merge bucket counts exactly (sharding.hpp) instead of averaging
/// per-shard quantiles. Matches the "stream.rec_seconds" registry
/// histogram so wire and in-process views agree.
[[nodiscard]] inline const std::vector<double>& rec_cost_bucket_edges() {
  static const std::vector<double> edges{1.0,  2.0,   5.0,   10.0,  20.0,
                                         50.0, 100.0, 200.0, 500.0, 1000.0};
  return edges;
}

/// Aggregate serving metrics over a set of sessions. Percentiles are over
/// per-session recommendation cost (the deterministic cost model,
/// tuners/tuner.hpp rec_cost) — the serving-latency proxy of this repo.
struct ServiceMetrics {
  std::size_t sessions_served = 0;  ///< successfully completed sessions
  std::size_t sessions_failed = 0;  ///< sessions that ended with an error
  std::size_t evaluations_paid = 0;   ///< paid config evaluations (paper cost)
  double evaluation_seconds = 0.0;
  double recommendation_seconds = 0.0;
  double p50_recommendation_seconds = 0.0;
  double p95_recommendation_seconds = 0.0;
  double mean_session_reward = 0.0;   ///< mean over sessions of mean step reward
  double mean_speedup = 0.0;          ///< mean best-vs-default speedup
  std::size_t merges = 0;             ///< experience merges into a master
  std::size_t merged_transitions = 0; ///< transitions folded into masters
  std::size_t fine_tune_steps = 0;    ///< bounded master fine-tune steps taken
  /// Per-bucket counts of per-session recommendation cost over
  /// rec_cost_bucket_edges() (+1 overflow bucket). Carried for exact
  /// cross-shard percentile aggregation only — never serialized into TELE,
  /// so transcripts are unchanged. Empty means all-zero.
  std::vector<std::uint64_t> rec_buckets;
};

/// The one session-metrics accumulator: the streaming service's totals,
/// each front-end connection's TELE and the batch report line all feed
/// one of these. Fed in a fixed order it snapshots to fixed bytes. Not
/// thread-safe; the owner serializes record().
class SessionAggregate {
 public:
  void record(const SessionReport& report);
  /// Session fields of ServiceMetrics; the merge counters stay zero.
  [[nodiscard]] ServiceMetrics snapshot() const;

 private:
  ServiceMetrics totals_;
  common::QuantileTracker rec_costs_{kRecCostSampleCap};
  double reward_sum_ = 0.0;
  double speedup_sum_ = 0.0;
};

/// Thread-safe RDPER view for concurrent sessions: samples the master's
/// pools (frozen during a batch) under a shared lock and appends the
/// session's own transitions to a private overlay. Sampling replicates
/// RdperReplay::sample exactly over the combined master+overlay pools —
/// same draw order, same beta split — so a session behaves bit-identically
/// to one holding a private copy of the master pools. The returned batch
/// points into the master's pools and this view's overlay, copying
/// nothing; its pointers stay valid until the next add() and, like the
/// view itself, only while the master stays frozen.
///
/// The overlay appends rather than ring-overwriting: a session adds a
/// handful of transitions against pools sized in the tens of thousands, so
/// master-capacity eviction is deferred to the service's merge step.
class SharedRdperReplay final : public rl::ReplayBuffer {
 public:
  /// Snapshots the master pool sizes (the master must stay frozen while
  /// any session holds this view) and shares `mutex` with every other
  /// concurrent view over the same master.
  SharedRdperReplay(const rl::RdperReplay& master, std::shared_mutex& mutex);

  void add(rl::Transition t) override;
  [[nodiscard]] rl::SampledBatch sample(std::size_t m,
                                        common::Rng& rng) override;
  [[nodiscard]] std::size_t size() const noexcept override;
  [[nodiscard]] std::size_t capacity() const noexcept override;

  /// Every transition added through this view, in insertion order.
  [[nodiscard]] const std::vector<rl::Transition>& session_transitions()
      const noexcept {
    return session_log_;
  }

 private:
  const rl::RdperReplay& master_;
  std::shared_mutex& mutex_;
  rl::RdperConfig config_;
  std::size_t master_high_ = 0;  ///< frozen master pool sizes
  std::size_t master_low_ = 0;
  std::vector<rl::Transition> local_high_, local_low_;
  std::vector<rl::Transition> session_log_;
};

/// Runs one session against the `master` agent: a private DeepCat whose
/// agent clones it (DeepCatTuner::materialize(frozen, replay)) reseeds from
/// the request and samples `master_pools` through a SharedRdperReplay
/// guarded by `master_mutex`. The master and its pools must stay unchanged
/// until run_session returns; the clone reads the agent without the mutex.
/// The fine-tune after the session's last evaluation is skipped
/// (TuneBudget::keep_agent), so an n-step session on a master that holds a
/// batch takes 8(n - 1) train steps at the default 8 per step. Never
/// throws: failures come back as ok = false with the error message.
[[nodiscard]] SessionReport run_session(const rl::Td3Agent& master,
                                        const core::DeepCatApiOptions& api,
                                        const TuningRequest& request,
                                        const rl::RdperReplay& master_pools,
                                        std::shared_mutex& master_mutex);

}  // namespace deepcat::service
