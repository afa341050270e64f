// ShardedStreamingService: per-model sharding of the streaming serve path.
//
// One StreamingService guards its model registry with a single
// shared_mutex, so under high fan-in every lazy load / evict serializes
// all models behind one lock. Sharding partitions the model *namespace*:
// a model's shard is a pure function of its name (FNV-1a hash mod shard
// count), every request for that model lands on the same shard, and
// shards never share masters — so the per-model determinism contract
// (frozen masters between canonical-order merges) is untouched.
// Two models on different shards stop contending entirely.
//
// The shard count is a routing detail, not a semantic one: because a
// model's entire life (load, admissions, merges, checkpoints) happens on
// exactly one shard, reports and post-merge checkpoints are bit-identical
// across shard counts. The determinism stress test pins this.
//
// Threading: each shard keeps its own ThreadPool (total worker threads
// are divided across shards). Driver APIs follow the StreamingService
// contract — one submitting thread (the front end's event loop);
// completion callbacks arrive on pool threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "service/streaming.hpp"

namespace deepcat::service {

/// Stable model-name hash used for shard routing (FNV-1a, 64-bit). Public
/// so tests can predict placements.
[[nodiscard]] std::uint64_t shard_hash(const std::string& model) noexcept;

class ShardedStreamingService {
 public:
  /// `base` configures every shard identically except threads: the
  /// resolved thread count (options.service.threads, 0 = hardware) is
  /// divided across shards, minimum one thread each.
  explicit ShardedStreamingService(StreamingOptions base,
                                   std::size_t shards = 1);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_of(const std::string& model) const noexcept {
    return static_cast<std::size_t>(shard_hash(model) % shards_.size());
  }
  [[nodiscard]] StreamingService& shard(std::size_t index) {
    return *shards_[index];
  }
  [[nodiscard]] StreamingService& shard_for_model(const std::string& model) {
    return *shards_[shard_of(model)];
  }

  /// Model bootstrap, routed to the owning shard.
  void train_model(const std::string& name,
                   const sparksim::WorkloadSpec& workload,
                   std::size_t iterations);
  void load_model(const std::string& name, std::istream& is);
  void load_model_file(const std::string& name, const std::string& path);
  [[nodiscard]] bool has_model(const std::string& name) const;

  /// Routed admission. The callback contract is StreamingService's.
  void submit(TuningRequest request,
              StreamingService::CompletionCallback on_done);

  /// True when every shard is idle (no session in flight anywhere).
  [[nodiscard]] bool idle() const;
  /// Total sessions in flight across shards.
  [[nodiscard]] std::size_t in_flight() const;

  /// Flushes every shard (each waits for its own in-flight sessions and
  /// merges in canonical order). Returns total transitions merged. The
  /// front end only calls this when idle(), so it never blocks long.
  std::size_t flush_all();

  /// The owning shard's live master (same contract as
  /// StreamingService::master).
  [[nodiscard]] core::DeepCat& master(const std::string& name) {
    return shard_for_model(name).master(name);
  }

  [[nodiscard]] std::uint64_t model_epoch(const std::string& name) const;
  [[nodiscard]] std::string checkpoint_of(const std::string& name);

  /// Cross-shard aggregate. Integer counters and time/reward sums are
  /// exact; p50/p95 recommendation-cost quantiles come from an exact
  /// bucket-wise merge of the per-shard fixed-edge histograms
  /// (rec_cost_bucket_edges() — identical on every shard by
  /// construction), then one histogram_quantile query over the merged
  /// counts. The same request set therefore aggregates to the same
  /// quantiles on any shard layout, pinned by the cross-shard equality
  /// test in sharding_test.cpp.
  [[nodiscard]] ServiceMetrics aggregate_metrics() const;

  [[nodiscard]] obs::BuildInfo build_info() const {
    return shards_.front()->build_info();
  }
  [[nodiscard]] const obs::MetricsRegistry* metrics_registry() const noexcept {
    return shards_.front()->metrics_registry();
  }
  /// The shared convergence time-series registry (every shard's sink
  /// points at the same one; null when time-series retention is off).
  [[nodiscard]] const obs::TimeSeriesRegistry* timeseries_registry()
      const noexcept {
    return shards_.front()->timeseries_registry();
  }

  void set_session_runner_for_test(StreamingService::SessionRunner runner);

  /// Shares one warm-start index across every shard (retrieval is
  /// read-only, so one immutable index serves all shards without copies).
  void set_warm_index(std::shared_ptr<const retrieval::ExperienceIndex> index);
  [[nodiscard]] bool has_warm_index() const {
    return shards_.front()->has_warm_index();
  }
  [[nodiscard]] std::optional<std::string> warm_error(
      const TuningRequest& request) const {
    return shards_.front()->warm_error(request);
  }

 private:
  /// Shares `name`'s genesis checkpoint with every shard so scoped keys
  /// (which may hash anywhere) can fork from identical bytes.
  void distribute_scope_seed(const std::string& name);

  std::vector<std::unique_ptr<StreamingService>> shards_;
};

}  // namespace deepcat::service
