// High-level public API: one object that owns a cluster description, a
// DeepCAT tuner, and the environment plumbing. A downstream user's whole
// integration is:
//
//   deepcat::core::DeepCat dc(deepcat::sparksim::cluster_a());
//   dc.train_offline(make_workload(WorkloadType::kTeraSort, 3.2), 2000);
//   auto report = dc.tune_online(make_workload(WorkloadType::kPageRank, 1.0),
//                                {.max_steps = 5});
//   use(report.best_config);
//
// The lower-level pieces (tuners::DeepCatTuner, sparksim::TuningEnvironment)
// remain available for research-grade control.
#pragma once

#include <cstdint>
#include <vector>

#include "sparksim/environment.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"
#include "streamsim/workloads.hpp"
#include "tuners/deepcat.hpp"

namespace deepcat::core {

struct DeepCatApiOptions {
  tuners::DeepCatOptions tuner;
  sparksim::EnvOptions env;   ///< reward/target-speedup/penalty settings
};

class DeepCat {
 public:
  explicit DeepCat(sparksim::ClusterSpec cluster,
                   DeepCatApiOptions options = {});

  /// Offline stage against a "standard environment" running `workload`.
  /// Returns the iteration trace (rewards, twin-Q values, costs). `helpers`
  /// lends an idle pool's worker to every gradient step, as in
  /// DeepCatTuner::train_offline; the result is the same either way.
  std::vector<tuners::OfflineIterationRecord> train_offline(
      const sparksim::WorkloadSpec& workload, std::size_t iterations,
      common::ThreadPool* helpers = nullptr);

  /// Online stage for a fresh tuning request. Each call builds a new
  /// environment (fresh seed) and fine-tunes the shared offline model.
  tuners::TuningReport tune_online(const sparksim::WorkloadSpec& workload,
                                   const tuners::TuneBudget& budget);

  /// Like tune_online but against a different (e.g. new) cluster — the
  /// hardware-adaptability scenario of paper §5.3.2.
  tuners::TuningReport tune_online_on(const sparksim::ClusterSpec& cluster,
                                      const sparksim::WorkloadSpec& workload,
                                      const tuners::TuneBudget& budget);

  /// Streaming: one long session against a phase-shifted micro-batch
  /// environment (budget.max_steps = evaluation windows). The same shared
  /// model fine-tunes across the load shifts — there is no restart.
  tuners::TuningReport tune_online_stream(
      const sparksim::ClusterSpec& cluster,
      const streamsim::StreamCase& stream_case,
      const tuners::TuneBudget& budget);

  [[nodiscard]] tuners::DeepCatTuner& tuner() noexcept { return tuner_; }
  [[nodiscard]] const sparksim::ClusterSpec& cluster() const noexcept {
    return cluster_;
  }
  [[nodiscard]] const DeepCatApiOptions& api_options() const noexcept {
    return options_;
  }

  /// The seed the next environment will be built from. Checkpointed so a
  /// reloaded instance draws the same environment sequence as one that was
  /// never serialized.
  [[nodiscard]] std::uint64_t next_env_seed() const noexcept {
    return next_env_seed_;
  }
  void set_next_env_seed(std::uint64_t seed) noexcept {
    next_env_seed_ = seed;
  }

 private:
  sparksim::ClusterSpec cluster_;
  DeepCatApiOptions options_;
  tuners::DeepCatTuner tuner_;
  std::uint64_t next_env_seed_;
};

}  // namespace deepcat::core
